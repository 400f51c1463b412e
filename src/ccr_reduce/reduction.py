"""Projections to reduced phase spaces and the reduced bilinear forms.

Compact case: fields project to axisymmetric amplitudes A(kappa, k_z) and the
reduced forms are 2D integrals over the half-plane.  Non-compact case: fields
project to rapidly decreasing sequences A_n, the reduced forms are weighted
sums, and the identification with the Gowdy-model forms C and D is the
identity map away from the zero mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import NonSymplecticError, ZeroModeUndefinedError
from .forms import mu
from .modes import FieldVector
from .quadrature import (DEFAULT_CONFIG, _MIN_WIDTH, QuadratureConfig, _refine, adaptive_gl,
                         gl_counts, gl_nodes)
from .specfun import hankel2_0

SQRT_2PI = np.sqrt(2.0 * np.pi)


def ordered_ns(n_max: int):
    """Canonical summation order 0, -1, 1, -2, 2, ... for reproducible sums."""
    out = [0]
    for m in range(1, n_max + 1):
        out.extend((-m, m))
    return out


@dataclass(frozen=True)
class ReducedSequence:
    """Truncated rapidly-decreasing sequence {A_n}, |n| <= n_max.

    zero_mode_defined records whether the underlying field lies in the
    zero-mode-free subspace, in which case the identification with reduced
    wave solutions fixes the zero mode to be absent.  error_estimate bounds
    the quadrature error of every entry: from project_bhp it is the
    max-norm difference of the last two ladder levels, times sqrt(2 pi).
    """

    entries: dict
    zero_mode_defined: bool
    error_estimate: float = 0.0

    @property
    def n_max(self) -> int:
        return max(abs(n) for n in self.entries)

    def rescaled(self, factor: complex) -> "ReducedSequence":
        return ReducedSequence({n: factor * v for n, v in self.entries.items()},
                               self.zero_mode_defined,
                               abs(factor) * self.error_estimate)


def pair_sum(s1: ReducedSequence, s2: ReducedSequence) -> complex:
    """sum over n of conj(A1_n) A2_n in the canonical order."""
    if set(s1.entries) != set(s2.entries):
        raise ValueError("sequences have incompatible truncations")
    total = 0.0 + 0.0j
    for n in ordered_ns(s1.n_max):
        total = total + np.conj(s1.entries[n]) * s2.entries[n]
    return total


def reduced_forms_bhp(s1: ReducedSequence, s2: ReducedSequence):
    """Reduced symplectic form and scalar product of two sequences.

    omega_hat = i sum (A1* A2 - A1 A2*),  mu_hat = (1/2) sum (A1* A2 + A1 A2*).
    """
    s = pair_sum(s1, s2)
    return -2.0 * s.imag, s.real


# --- axisymmetric (compact) reduction ---------------------------------------

@dataclass(frozen=True)
class AxisymmetricAmplitude:
    """Evaluator for A(kappa, k_z) = sqrt(kappa)/(2 pi) * angular integral of a.

    The angular integral runs over the circle of radius kappa in the
    (k_x, k_y) plane; trapezoid sampling is spectrally accurate there.
    Every term factorises as X_t(k_x, k_y) Z_t(k_z), so only the xy factor
    is averaged over the ring.  Grid evaluations are cached per quadrature
    level so form assembly over many pairs reuses each field's values.
    """

    source: FieldVector
    n_angle: int
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def grid_values(self, kap_nodes: np.ndarray, kz_nodes: np.ndarray, key) -> np.ndarray:
        if key not in self._cache:
            self._cache[key] = self.value(kap_nodes, kz_nodes)
        return self._cache[key]

    def value(self, kappa_nodes, kz_nodes):
        """A on the tensor grid kappa_nodes x kz_nodes.

        The result has shape kappa.shape + kz.shape (a complex for two
        scalars): A = sqrt(kappa) sum_t <X_t>(kappa) Z_t(k_z), where <X_t> is
        the ring mean of X_t, so each term costs n_kappa n_angle + n_z
        evaluations.
        """
        kappa = np.asarray(kappa_nodes, dtype=float)
        kz = np.asarray(kz_nodes, dtype=float)
        beta = 2.0 * np.pi * np.arange(self.n_angle) / self.n_angle
        ring_x, ring_y = kappa[..., None] * np.cos(beta), kappa[..., None] * np.sin(beta)
        out = np.zeros(kappa.shape + kz.shape, dtype=complex)
        for t in self.source.terms:
            x, z = t.z_factors(ring_x, ring_y, kz)
            out = out + np.multiply.outer(np.mean(x, axis=-1), z)
        out = np.sqrt(kappa).reshape(kappa.shape + (1,) * kz.ndim) * out
        return complex(out) if out.ndim == 0 else out

    def kappa_max(self) -> float:
        lo, hi = self.source.support_box()
        return float(np.hypot(max(abs(lo[0]), abs(hi[0])), max(abs(lo[1]), abs(hi[1]))))

    def kz_interval(self):
        lo, hi = self.source.support_box()
        return float(lo[2]), float(hi[2])


def project_axisymmetric(f: FieldVector) -> AxisymmetricAmplitude:
    """Project onto the rotation-invariant sector.

    The angular node count is chosen from the sharpest angular feature a
    packet can present (width over distance from the axis).  A boosted
    term is rejected with ValueError: its k_z dependence enters through
    |k|, so it does not factorise into an xy part and a k_z part.
    """
    if f.has_boost:
        raise ValueError("the axisymmetric projection needs boost-free terms")
    centers = f.term_centers()
    r_c = float(np.max(np.hypot(centers[:, 0], centers[:, 1]))) if len(centers) else 0.0
    wmin = max(f.min_width(), _MIN_WIDTH)
    # a packet at xy-distance r subtends an angle ~ width / (r + 2 width)
    n_angle = int(np.clip(16.0 * (r_c + 2.0 * f.max_width()) / wmin, 64, 512))
    return AxisymmetricAmplitude(f, n_angle)


def axisym_domain(amps: Sequence[AxisymmetricAmplitude]):
    """Common (kappa, k_z) quadrature domain for a family of projections.

    Returns (kappa_max, kz_lo, kz_hi, narrowest packet width).  Pinning one
    domain across a corpus lets the per-field grid caches serve every pair
    of the Gram assembly.
    """
    kmax = max(a.kappa_max() for a in amps)
    zlo = min(a.kz_interval()[0] for a in amps)
    zhi = max(a.kz_interval()[1] for a in amps)
    return kmax, zlo, zhi, min(a.source.min_width() for a in amps)


def reduced_forms_axisym(A1: AxisymmetricAmplitude, A2: AxisymmetricAmplitude,
                         quad: QuadratureConfig = DEFAULT_CONFIG,
                         domain=None):
    """2D quadrature of the reduced bilinear forms on (kappa, k_z).

    Returns (omega_hat, mu_hat); both derive from
    B_hat = 2 pi * int_0^inf dkappa int dk_z conj(A1) A2.
    """
    if domain is None:
        domain = axisym_domain((A1, A2))
    kmax, zlo, zhi, width = domain

    def level(counts) -> complex:
        nk_, nz_ = counts
        kap, wk = gl_nodes(nk_, 0.0, kmax)
        kz, wz = gl_nodes(nz_, zlo, zhi)
        key = (nk_, nz_, round(kmax, 9), round(zlo, 9), round(zhi, 9))
        v1 = A1.grid_values(kap, kz, key)
        v2 = A2.grid_values(kap, kz, key)
        return 2.0 * np.pi * complex(wk @ (np.conj(v1) * v2) @ wz)

    cur, _ = _refine(level, gl_counts((kmax, zhi - zlo), width), quad,
                     "axisymmetric reduced forms did not converge")
    return -2.0 * cur.imag, cur.real


# --- non-compact (BHP) reduction ---------------------------------------------

def project_bhp(f: FieldVector, quad: QuadratureConfig = DEFAULT_CONFIG) -> ReducedSequence:
    """Sequence A_n = (sqrt(2 pi)/i) * int dk (n^2+k^2)^(-1/4) a(n, k, 0), |n| <= quad.n_max.

    With k = +-u^2 every integral runs over u in [0, u_hi], of
    2 u (n^2+u^4)^(-1/4) (a(n, u^2, 0) + a(n, -u^2, 0)): the substitution
    removes the |k|^(-1/2) endpoint of the n = 0 integrand exactly, and
    each half is smooth in u even where the integrand jumps at k = 0 (the
    n = 0 frequency ratio of a boosted term).  One Gauss-Legendre ladder in
    u yields every A_n at once, each level one amplitude evaluation on an
    (n_modes, 2m, 3) block.  A packet of width w at k_y = u^2 is about
    w / (2u) wide in u, so the ladder (quadrature.adaptive_gl) is sized by
    the width min_width / (2 u_hi).  Tolerances apply to the largest
    entry; a ladder that reaches its node cap raises QuadratureError.
    """
    if f.mass != 0.0:
        raise ValueError("the discrete reduction applies to the massless theory")
    ns = np.array(ordered_ns(quad.n_max), dtype=float)[:, None]
    lo, hi = f.support_box()
    u_hi = np.sqrt(max(abs(float(lo[1]) - 0.5), abs(float(hi[1]) + 0.5)))

    def level(u: np.ndarray, w: np.ndarray) -> np.ndarray:
        K = np.stack(np.broadcast_arrays(ns, np.concatenate([u * u, -u * u]), 0.0), axis=-1)
        a = f.amplitude(K)
        m = len(u)
        return np.sum(2.0 * w * u * (ns * ns + u ** 4) ** -0.25 * (a[:, :m] + a[:, m:]), axis=1)

    q_val, q_err = adaptive_gl(level, 0.0, u_hi, quad, f.min_width() / (2.0 * u_hi),
                               "mode-constant integral did not converge")
    entries = {int(n): SQRT_2PI / 1j * v for n, v in zip(ns[:, 0], q_val)}
    return ReducedSequence(entries, f.is_zero_mode_free(), SQRT_2PI * q_err)


# --- null-space / rank analysis ----------------------------------------------

def null_space_analysis(fields: Sequence[FieldVector], group: str,
                        quad: QuadratureConfig = DEFAULT_CONFIG,
                        sequences: Optional[Sequence[ReducedSequence]] = None) -> dict:
    """Gram-matrix rank analysis of the averaged forms on a span of fields.

    Builds the Gram matrices of mu_G and Omega_G, ranks mu_G by eigenvalue
    threshold 1e-8 relative to a scale, and verifies that every
    numerical null direction of mu_G is annihilated by Omega_G.  The scale
    is the larger of the largest eigenvalue and the un-averaged scale
    max_i mu(f_i, f_i), which bounds every circle-averaged entry by the
    quasi-free bound; the second keeps a Gram that vanishes identically
    (every field with a zero ring mean) from ranking its roundoff.  A direction that is only numerically null (eigenvalue
    lambda_j below the threshold but nonzero) cannot be more Omega-null
    than the quasi-free bound allows, so each residual, relative to the
    scale, is tested against max(1e-6, 4 sqrt(lambda_j / scale));
    a genuine inclusion failure would show an Omega residual of order one
    instead.  For group "bhp", `sequences` may pass the fields' projections
    (one per field, from project_bhp) so that they are not recomputed.
    """
    m = len(fields)
    if m == 0 or m > 40:
        raise ValueError("null_space_analysis expects between 1 and 40 fields")
    if sequences is not None and (group != "bhp" or len(sequences) != m):
        raise ValueError("sequences need group 'bhp' and one entry per field")
    B = np.zeros((m, m), dtype=complex)
    if group == "circle":
        from .averaging import average_bform_circle  # deferred import, cycle

        for i in range(m):
            for j in range(i, m):
                B[i, j] = average_bform_circle(fields[i], fields[j], quad).value
                if j > i:
                    B[j, i] = np.conj(B[i, j])
    elif group == "bhp":
        if sequences is None:
            sequences = [project_bhp(f, quad) for f in fields]
        for i in range(m):
            for j in range(m):
                B[i, j] = pair_sum(sequences[i], sequences[j])
    else:
        raise ValueError(f"unknown group {group!r}")

    gram_mu = 0.5 * (B.real + B.real.T)
    gram_om = -2.0 * 0.5 * (B.imag - B.imag.T)
    evals, evecs = np.linalg.eigh(gram_mu)
    unaveraged = max(mu(f, f, quad).value for f in fields)
    scale = max(float(np.max(np.abs(evals))), unaveraged) + 1e-300
    thresh = 1e-8 * scale
    keep = evals > thresh
    rank = int(np.sum(keep))
    null_evals = evals[~keep]
    null_vecs = evecs[:, ~keep]
    om_on_null = [float(np.max(np.abs(gram_om @ null_vecs[:, j]))) / scale
                  for j in range(null_vecs.shape[1])]
    inclusion = all(
        r <= max(1e-6, 4.0 * np.sqrt(max(lam, 0.0) / scale))
        for r, lam in zip(om_on_null, null_evals))
    dropped = np.sort(np.abs(evals[~keep]))[::-1]
    kept = np.sort(evals[keep])
    if rank == 0 or rank == m:
        gap_ratio = float("inf")
    else:
        gap_ratio = float(kept[0] / max(dropped[0], 1e-300))
    return {
        "gram_mu_eigvals": [float(v) for v in evals],
        "gram_omega_on_null": om_on_null,
        "inclusion_holds": bool(inclusion),
        "gap_ratio": gap_ratio,
        "rank": rank,
        "threshold": float(thresh),
        "ill_conditioned": bool(np.isfinite(gap_ratio) and gap_ratio < 10.0),
    }


# --- Gowdy identification ----------------------------------------------------

@dataclass(frozen=True)
class GowdySolution:
    """Solution of the reduced wave equation on R+ x S1 by its mode constants.

    coeffs holds a_n for n != 0; zero_mode holds a_0, or None when the
    identification of the zero-frequency sector has not been fixed.
    """

    coeffs: dict
    zero_mode: Optional[complex] = 0j

    @property
    def n_max(self) -> int:
        return max(abs(n) for n in self.coeffs) if self.coeffs else 0

    def a0(self) -> complex:
        if self.zero_mode is None:
            raise ZeroModeUndefinedError(
                "zero mode requested but no canonical choice was made")
        return complex(self.zero_mode)


def gowdy_from_sequence(s: ReducedSequence,
                        zero_mode_choice: Optional[complex] = None) -> GowdySolution:
    """Identify a reduced sequence with a Gowdy solution via a_n = A_n.

    On the zero-mode-free subspace the zero mode is canonically absent
    (a_0 = 0); elsewhere the identification is ambiguous and an explicit
    choice must be supplied, otherwise the zero mode is left undefined.
    """
    coeffs = {n: v for n, v in s.entries.items() if n != 0}
    if zero_mode_choice is not None:
        zm = complex(zero_mode_choice)
    elif s.zero_mode_defined:
        zm = s.entries.get(0, 0j)
    else:
        zm = None
    return GowdySolution(coeffs, zm)


def gowdy_forms(p1: GowdySolution, p2: GowdySolution):
    """The model's symplectic form C and vacuum scalar product D.

    Same finite sums as the reduced forms of sequences, in the same
    summation order, so the identification is arithmetically exact.
    """
    if set(p1.coeffs) != set(p2.coeffs):
        raise ValueError("solutions have incompatible truncations")
    n_max = p1.n_max
    total = np.conj(p1.a0()) * p2.a0()
    for n in ordered_ns(n_max):
        if n == 0:
            continue
        total = total + np.conj(p1.coeffs[n]) * p2.coeffs[n]
    return -2.0 * total.imag, total.real


def gowdy_value(p: GowdySolution, tau: float, sigma):
    """Evaluate the solution at (tau, sigma), tau > 0: a float, or for an
    array sigma an array of its shape, with one H0_2(|n| tau) per call."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    a0 = p.a0()
    sigma = np.asarray(sigma, dtype=float)
    val = (1.0 / np.sqrt(np.pi)) * (a0 * (1.0 - 1j * np.log(tau))).real
    osc = np.zeros(sigma.shape, dtype=complex)
    for m in range(1, p.n_max + 1):  # the modes -m and m share H0_2(m tau)
        pair = p.coeffs[-m] * np.exp(-1j * m * sigma) + p.coeffs[m] * np.exp(1j * m * sigma)
        osc = osc + hankel2_0(m * tau) * pair
    out = val + (1.0 / np.sqrt(2.0)) * osc.real
    return float(out) if out.ndim == 0 else out


def zero_mode_symplectic_map(matrix) -> np.ndarray:
    """Validate a 2x2 real matrix acting on (Re a_0, Im a_0) as symplectic."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise NonSymplecticError("zero-mode map must be a 2x2 real matrix")
    det = float(np.linalg.det(m))
    if abs(det - 1.0) > 1e-12:
        raise NonSymplecticError(f"zero-mode map must have determinant 1, got {det}")
    return m


def transform_zero_mode(p: GowdySolution, matrix) -> GowdySolution:
    """Apply a symplectic change of the zero-mode coordinates.

    The symplectic form C on zero-mode pairs is invariant; the scalar
    product D pulls back through the map.
    """
    m = zero_mode_symplectic_map(matrix)
    a0 = p.a0()
    x, y = m @ np.array([a0.real, a0.imag])
    return GowdySolution(dict(p.coeffs), complex(x, y))
