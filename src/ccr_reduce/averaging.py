"""Group-averaged bilinear forms and group-averaged fields.

The compact average is a normalized trapezoid over the rotation angle.  The
non-compact average is evaluated at three levels: the unreduced sum over a
product grid of group elements on one fixed momentum grid (cross-checks
only), the semi-analytic form in which the discrete sum and the
z-translation integral have been carried out as the delta-function
identities they are, and the fully reduced sum over sequence entries.  The delta identities themselves are validated separately at small
scale by poisson_check.

The Haar measure of either group is fixed only up to a positive scale, and
every average here is taken at unit scale: total mass one on the circle,
counting measure times d(alpha) d(beta) on Z x R^2.  A scale c on Z x R^2
is the map A_n -> sqrt(c) A_n of both reduced sequences
(ReducedSequence.rescaled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import MassMismatchError, ZeroModeDivergenceError
from .forms import FormValue, _affine_pair, _ball_form, _closed_pair, _sphere_form
from .groups import BHPElement, _rotation_matrix, apply_group, inverse
from .modes import FieldVector, _dot, _half_lines, lorentz_apply, momentum_norm, rays_at
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _refine,
    adaptive_gl,
    bounding_radius,
    gl_nodes,
    oscillatory_grid,
    spherical_grid,
)
from .reduction import (ReducedSequence, gowdy_from_sequence, gowdy_value, ordered_ns,
                        pair_sum, project_bhp)
from .specfun import cosh_phase_integral

SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class AverageResult:
    """Averaged-form value with quadrature error and truncation tail bound."""

    value: complex
    error_estimate: float
    tail_bound: float

    def to_json(self) -> dict:
        v = complex(self.value)
        return {"value": [v.real, v.imag],
                "error_estimate": float(self.error_estimate),
                "tail_bound": float(self.tail_bound)}


# --- compact group: S^1 -------------------------------------------------------

def average_bform_circle(f1: FieldVector, f2: FieldVector,
                         quad: QuadratureConfig = DEFAULT_CONFIG) -> AverageResult:
    """(1 / 2 pi) * integral over the circle of B(f1, Phi_theta f2).

    mu_G is the real part of the value and Omega_G = -2 times its imaginary
    part.

    Boost-free fields are folded once by forms._affine_of_term, and a batch
    of angles costs one stacked closed form per term pair, since rotating a
    term by theta maps its (M, b, phi) to (R M R^T, R b, R phi).  Trapezoid
    sums over the angle double until stable; the integrand is smooth and
    periodic, so the doubling difference is a faithful error estimate.  The
    rules nest: the first level evaluates 16 nodes, and each doubling
    evaluates only the midpoints of the level before and adds them to a
    running node sum.

    A boosted term has no closed form.  Averaged over theta, Phi_theta f2 is
    the ring mean of a2 over the azimuth, which the spherical grid samples
    by a uniform trapezoid: one spherical ladder (forms._ball_form)
    integrates conj(a1) times the mean of a2 over each shell block's
    azimuth axis.  The mean of Gaussians along a ray is no Gaussian, so the
    closed-form radial integrals of bform do not apply to it.
    """
    if f1.mass != f2.mass:
        raise MassMismatchError(f"form of fields with masses {f1.mass} and {f2.mass}")
    folded = _affine_pair(f1, f2)
    if folded is None:
        if f1.is_zero or f2.is_zero:
            return AverageResult(0.0 + 0.0j, 0.0, 0.0)

        def ring_mean(D):
            rows1, rows2 = f1.on_rays(D), f2.on_rays(D)
            return lambda r: (np.conj(rays_at(rows1, r))
                              * np.mean(rays_at(rows2, r), axis=-1, keepdims=True))

        form = _ball_form(ring_mean, f1, f2, quad)
        return AverageResult(form.value, form.error_estimate, 0.0)
    aff1, aff2 = folded

    def node_sum(th) -> complex:
        R = _rotation_matrix(th)
        RT = np.swapaxes(R, -1, -2)
        acc = 0.0 + 0.0j
        for c2, M2, b2, phi2 in aff2:
            rotated = (c2, R @ M2 @ RT, R @ b2, R @ phi2)
            for a1 in aff1:
                acc += np.sum(_closed_pair(a1, rotated))
        return acc

    total, count = 0.0 + 0.0j, 0

    def level(n: int) -> complex:
        nonlocal total, count
        k = np.arange(n) if count == 0 else np.arange(1, n, 2)
        total += node_sum(2.0 * np.pi * k / n)
        count += len(k)
        return complex(total / count)

    cur, err = _refine(level, (16 * 2**i for i in range(9)), quad,  # 16 ... 4096
                       "circle average did not stabilize under node doubling")
    return AverageResult(cur, err, 0.0)


# --- non-compact group: product-grid level ------------------------------------

def average_bform_bhp_direct(f1: FieldVector, f2: FieldVector, ns: Sequence[int],
                             alpha_rule, beta_rule, counts: Tuple[int, int, int],
                             ) -> AverageResult:
    """Sum of w_a w_b B(f1, Phi_(n,a,b) f2) over the product grid ns x alpha x beta.

    The rules are (nodes, weights) pairs.  Every element's B comes from one
    fixed spherical grid with the given counts on the ball of radius
    bounding_radius(f1.support_box()) + 0.5, so this is the unreduced route
    and its error estimate is nan.  f2 is boosted once per alpha and each
    boosted field is pulled back once onto the grid's rays
    (FieldVector.on_rays), which holds three (ntheta, nphi) float arrays per
    base packet per alpha: about 0.3 MB per alpha for a two-packet field at
    counts (100, 64, 96).  On each radial shell the n phases
    exp(2 pi i n k_x) are built once and summed out over the azimuth, and
    since k_z = r cos theta does not depend on the azimuth, the beta phases
    are one (ntheta x nbeta) matrix product.  The
    tail bound collects the contribution mass on the largest |alpha| (when
    the rule has more than two distinct |alpha|) and on the largest |n|
    (when there is more than one distinct |n|).
    """
    ns = np.asarray(ns, dtype=int)
    a_nodes, a_w = (np.asarray(x, dtype=float) for x in alpha_rule)
    b_nodes, b_w = (np.asarray(x, dtype=float) for x in beta_rule)
    r, wr, D, W = spherical_grid(bounding_radius(f1.support_box()) + 0.5,
                                 *[int(c) for c in counts])
    rows1 = f1.on_rays(D)
    boosted = [apply_group(BHPElement(0, a, 0.0), f2).on_rays(D) for a in a_nodes]
    acc = np.zeros((len(a_nodes), len(ns), len(b_nodes)), dtype=complex)
    for ri, wi in zip(r, wr):
        pre = wi * W * np.conj(rays_at(rows1, ri))
        amp = np.stack([pre * rays_at(rows2, ri) for rows2 in boosted], axis=1)
        phases = np.exp(2j * np.pi * ns[:, None, None] * (ri * D[None, :, :, 0]))
        # (theta, alpha, phi) @ (theta, phi, n) sums out the azimuth per theta row
        s = amp @ phases.transpose(1, 2, 0)
        beta_phases = np.exp(1j * np.outer(ri * D[:, 0, 2], b_nodes))
        acc += (s.reshape(len(W), -1).T @ beta_phases).reshape(acc.shape)
    contrib = a_w[:, None, None] * b_w[None, None, :] * acc
    mags, abs_a, abs_n = np.abs(contrib), np.abs(a_nodes), np.abs(ns)
    tail = 0.0
    if len(np.unique(abs_a)) > 2:
        tail += float(np.sum(mags[abs_a == abs_a.max()]))
    if len(np.unique(abs_n)) > 1:
        tail += float(np.sum(mags[:, abs_n == abs_n.max()]))
    return AverageResult(complex(np.sum(contrib)), float("nan"), tail)


def bhp_reduced_integrand(f1: FieldVector, f2: FieldVector, g: BHPElement,
                          quad: QuadratureConfig = DEFAULT_CONFIG) -> FormValue:
    """B(f1, Phi_g f2) from the single-integral reduced expression.

    Evaluates int d^3q sqrt(w(Lq)/w(q)) conj(a1)(Lq) a2(q) exp(i theta_g(q))
    with L the forward momentum map of g: a change of variables away from
    the direct transformed-pair quadrature, hence an independent route to
    the same number.  L is homogeneous of degree one and theta_g linear, so
    on the ray q = r d the root is sqrt(|Ld| / |d|) and the phase
    r theta_g(d): both fold into f2's on_rays rows, and f1's rows are taken
    on the pushed-forward rays L d, where a1 is the amplitude of Phi_g^-1 f1
    up to that root and phase.  forms._sphere_form integrates each ray in
    closed form and the directions on a ladder sized from Phi_g^-1 f1 and f2.
    """
    if f1.mass != 0.0 or f2.mass != 0.0:
        raise ValueError("the reduced integrand applies to the massless theory")
    if f1.is_zero or f2.is_zero:
        return FormValue(0.0 + 0.0j, 0.0)

    L, t = g.poincare()

    def pair_rows(D):
        # the directions are unit, so |Ld| / |d| is |Ld|, and |d| = 1 enters L
        dx, dy, dz = D[..., 0], D[..., 1], D[..., 2]
        lx, ly, lz = lorentz_apply(L, 1.0, dx, dy, dz)
        log_root = 0.5 * np.log(momentum_norm(lx, ly, lz))
        theta = _dot(t, (dx, dy, dz)) if t.any() else 0.0
        rows2 = [(c, h, r0, lead + log_root, th + theta) for c, h, r0, lead, th in f2.on_rays(D)]
        return f1.on_rays(np.stack((lx, ly, lz), axis=-1)), rows2

    return _sphere_form(pair_rows, apply_group(inverse(g), f1), f2, quad)


# --- non-compact group: semi-analytic and reduced levels ----------------------

def _slice_grid(f: FieldVector, n, nodes: np.ndarray) -> np.ndarray:
    K = np.stack(np.broadcast_arrays(n, nodes, 0.0), axis=-1)
    return f.amplitude(K)


def average_bform_bhp_gave(f1: FieldVector, f2: FieldVector,
                           quad: QuadratureConfig = DEFAULT_CONFIG) -> AverageResult:
    """Group average after the analytic delta reductions, per-n double quadrature.

    2 pi * sum_n  int dl int dk  conj(a1)(n,l,0) a2(n,k,0)
                                 / ((n^2+l^2)(n^2+k^2))^(1/4),
    where the n = 0 integrals use the k = u|u| substitution that removes the
    |k|^(-1/2) endpoint exactly.  The Gauss-Legendre double sum has rank one,
    so it is evaluated as conj(sum w g1) * (sum w g2).  One adaptive_gl
    ladder over u refines every n: a level puts the n = 0 row on its u rule
    and the other rows on the affine image of that rule on the k interval.
    """
    lo1, hi1 = f1.support_box()
    lo2, hi2 = f2.support_box()
    k_lo = min(lo1[1], lo2[1]) - 0.5
    k_hi = max(hi1[1], hi2[1]) + 0.5
    u_hi = np.sqrt(max(abs(k_lo), abs(k_hi)))
    ns = np.array(ordered_ns(quad.n_max), dtype=float)
    scale = (k_hi - k_lo) / (2.0 * u_hi)

    def level(u: np.ndarray, wu: np.ndarray) -> np.ndarray:
        k, wk = k_lo + (u + u_hi) * scale, wu * scale
        nodes = np.vstack([u * np.abs(u), np.broadcast_to(k, (len(ns) - 1, len(u)))])
        wgt = np.vstack([2.0 * wu, wk * (ns[1:, None] ** 2 + k * k) ** -0.25])
        g1, g2 = (np.sum(wgt * _slice_grid(f, ns[:, None], nodes), axis=1) for f in (f1, f2))
        return np.conj(g1) * g2

    # a packet of width w at k = u^2 is about w / 2u wide in u
    width = min(f1.min_width(), f2.min_width()) / (2.0 * u_hi)
    vals, err = adaptive_gl(level, -u_hi, u_hi, quad, width,
                            "per-n double quadrature did not converge")
    tail = _ratio_tail([np.max(np.abs(vals[np.abs(ns) == m])) for m in range(quad.n_max + 1)])
    # every entry moved by at most err between the last two levels
    return AverageResult(2.0 * np.pi * complex(np.sum(vals)),
                         2.0 * np.pi * len(ns) * err, 2.0 * np.pi * tail)


def _ratio_tail(mags) -> float:
    """Geometric tail estimate from the decay of the last three magnitudes."""
    mags = [m for m in mags if m > 0.0]
    if len(mags) < 3:
        return 0.0
    r = (mags[-1] / max(mags[-3], 1e-300)) ** 0.5
    r = min(r, 0.9)
    return mags[-1] * r / (1.0 - r)


def average_bform_bhp_reduced(s1: ReducedSequence, s2: ReducedSequence) -> AverageResult:
    """Group average as the sequence inner product sum of conj(A1_n) A2_n.

    Each entry of s_i is within e_i = s_i.error_estimate of its exact value,
    so each of the N products conj(A1_n) A2_n is within e1 |A2_n| + e2 |A1_n|
    + e1 e2 of its own, and the sum within e1 sum|A2_n| + e2 sum|A1_n|
    + N e1 e2.
    """
    value = pair_sum(s1, s2)
    mags = []
    for m in range(0, s1.n_max + 1):
        lo = [abs(s1.entries[n] * s2.entries[n]) for n in (m, -m) if n in s1.entries]
        mags.append(max(lo) if lo else 0.0)
    e1, e2 = s1.error_estimate, s2.error_estimate
    sum1, sum2 = (sum(abs(v) for v in s.entries.values()) for s in (s1, s2))
    err = e1 * sum2 + e2 * sum1 + len(s1.entries) * e1 * e2
    return AverageResult(value, err, _ratio_tail(mags))


# --- delta-identity validation ------------------------------------------------

def poisson_check(h: Callable[[np.ndarray], np.ndarray], n_max: int, u_cutoff: float):
    """Truncated two-sided test of sum_n exp(2 pi i n x) = sum_m delta(x - m).

    lhs = integral over [-u_cutoff, u_cutoff] of h against the truncated
    exponential sum (one oscillatory quadrature per n); rhs = sum of h at the
    integers inside the window; h is called on arrays.  For Schwartz-type h
    the two converge to the same number as the truncations grow.
    """
    x, w = oscillatory_grid(-u_cutoff, u_cutoff, 2.0 * np.pi * n_max)
    hv = h(x)
    lhs = 0.0 + 0.0j
    for n in range(-int(n_max), int(n_max) + 1):
        lhs += complex(np.sum(w * hv * np.exp(2.0j * np.pi * n * x)))
    m_hi = int(np.floor(u_cutoff))
    rhs = float(np.sum(h(np.arange(-m_hi, m_hi + 1, dtype=float))))
    return lhs, rhs


def substitution_check(h: Callable[[np.ndarray], np.ndarray], support: float,
                       n: int = 1, ky: float = 0.7):
    """Change-of-variables identity behind the boost-parameter integral.

    lhs integrates h(l(alpha)) against the absolute Jacobian |dl/dalpha| =
    sqrt(n^2 + l(alpha)^2); rhs integrates h directly over l.  `support`
    bounds where h is non-negligible so both sides can be truncated honestly.
    h is called on arrays of nodes.  Each side is a Gauss-Legendre ladder
    (quadrature.adaptive_gl) sized for features of unit width, the scale of
    the Gaussian h every caller passes; it stops at rel_tol 1e-11 or abs_tol
    1e-13 and raises QuadratureError when it cannot.
    """
    w = float(np.hypot(n, ky))
    cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)

    def l_of(a):
        return ky * np.cosh(a) - w * np.sinh(a)

    def integral(fn, a, b) -> float:
        return adaptive_gl(lambda x, wx: float(np.sum(wx * fn(x))), a, b, cfg, 1.0,
                           "substitution-check quadrature did not converge")[0]

    # |l(alpha)| grows like exp(|alpha|); restrict to where h can contribute
    a_max = np.log(2.0 * (support + abs(ky) + w) / max(w - abs(ky), 1e-12)) + 1.0
    lhs = integral(lambda a: np.hypot(n, l_of(a)) * h(l_of(a)), -a_max, a_max)
    rhs = integral(h, -support, support)
    return lhs, rhs


# --- group-averaged field -----------------------------------------------------

def average_field_bhp(f: FieldVector, tau: float, sigma,
                      quad: QuadratureConfig = DEFAULT_CONFIG,
                      path: str = "series",
                      sequence: Optional[ReducedSequence] = None):
    """Group-averaged field at (tau, sigma) on the reduced spacetime.

    sigma is a number, with a float value, or an array, with values of its
    shape: all but the last sum over n depends on tau alone and runs once.

    path "series": the Gowdy solution with a_n = A_n and no zero mode,
    (1/(2 sqrt 2)) sum_{n != 0} A_n H0_2(|n| tau) e^{i n sigma} plus its
    conjugate (reduction.gowdy_value), with the adaptive A_n.
    path "direct": per n, the boost integral of exp(i tau (k_y sinh a -
    w cosh a)) times a k_y quadrature of the slice.  Centring the boost
    parameter at each k_y's stationary point turns the phase into
    -|n| tau cosh, so the boost integral is one contour-damped number per n.
    One adaptive_gl ladder refines every n and raises QuadratureError when
    it cannot meet the tolerance.  Requires a field in the zero-mode-free
    subspace; anything else has a divergent n = 0 average.
    """
    if f.mass != 0.0:
        raise ValueError("field averaging applies to the massless theory")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if not f.is_zero_mode_free():
        raise ZeroModeDivergenceError(
            "field has a nonzero amplitude on the k = (0, k_y, 0) line; "
            "its group average diverges in the boost parameter")
    if path == "series":
        s = sequence if sequence is not None else project_bhp(f, quad)
        return gowdy_value(gowdy_from_sequence(s, zero_mode_choice=0), tau, sigma)
    if path != "direct":
        raise ValueError("path must be 'series' or 'direct'")

    lo, hi = f.support_box()
    ns = np.array(ordered_ns(quad.n_max)[1:], dtype=float)[:, None]
    # the boost integral depends on |n| alone, and ns pairs -m with m
    boost = np.repeat([cosh_phase_integral(m * tau)[0] for m in range(1, quad.n_max + 1)], 2)

    def level(ky: np.ndarray, wk: np.ndarray) -> np.ndarray:
        return boost * np.sum(wk * _slice_grid(f, ns, ky) / np.sqrt(np.hypot(ns, ky)), axis=1)

    t, _ = adaptive_gl(level, float(lo[1]) - 0.5, float(hi[1]) + 0.5, quad, f.min_width(),
                       "direct field-average quadrature did not converge")
    # twice the real part of each term, over 2 sqrt(pi)
    phases = np.exp(1j * np.multiply.outer(np.asarray(sigma, dtype=float), ns[:, 0]))
    vals = np.sum((t * phases).real, axis=-1) / np.sqrt(np.pi)
    return float(vals) if vals.ndim == 0 else vals


def zero_mode_divergence_probe(f: FieldVector, alpha_cutoffs: Sequence[float]) -> list:
    """Magnitude of the truncated n = 0 field average at tau = 1 at increasing boost cutoffs.

    It grows linearly in the cutoff, with the slope |sqrt(2) Im(A_0)| / (4 pi^2)
    (A_0 from project_bhp), unless the field is zero-mode free: then it is 0.
    The k_y < 0 half of the line enters at alpha where the k_y > 0 half
    enters at -alpha, so the alpha integral folds onto [0, A] and sees only
    G(s) = a(0, s, 0) + a(0, -s, 0), the sum of the half-line Gaussians of
    any massless field (modes._half_lines), entire in s.  With s = v^2, its
    oscillatory s integral is a contour rotation for nu > split and, for
    nu <= split, a weighted sum on one v grid per octave (top / 2, top] of
    nu, top = split, split / 2, ...: the grid resolves the local frequency
    2 top v of exp(-i nu v^2) up to v_hi = sqrt(q_hi), and its panels are at
    most min_width / v_hi long, which resolves G(v^2); the first octave whose
    frequency is under that floor serves every lower nu.  On the contour,
    u^2 <= 45 / nu, a Gaussian of curvature h grows like exp(h u^4), so
    split = max(50, 20 sqrt(h_max)) keeps it under about e^5.  The panels
    between increasing cutoffs (the first from 0) are adaptive_gl ladders at
    unit width and DEFAULT_CONFIG whose running sums are returned; a
    non-converging panel or a grid over OSC_CAP nodes raises QuadratureError.
    """
    edges = np.concatenate([[0.0], np.asarray(alpha_cutoffs, dtype=float)])
    if not np.all(np.diff(edges) > 0.0):
        raise ValueError("alpha cutoffs must be positive and increasing")
    _, peak, curv, r0, theta = _half_lines(f)

    def G(s):
        out = np.zeros(np.shape(s), dtype=complex)
        for p, hh, c, th in zip(peak, curv, r0, theta):
            out += p * np.exp(-hh * (s - c) ** 2 + (1j * th * s if th else 0.0))
        return out

    lo, hi = f.support_box()
    q_hi = max(abs(lo[1]), abs(hi[1])) + 1.0
    v_hi = np.sqrt(q_hi)
    c0 = (2.0 * (2.0 * np.pi) ** 3) ** -0.5
    floor = 2.0 * np.pi * v_hi / f.min_width()
    split = max(50.0, 20.0 * np.sqrt(np.max(curv, initial=0.0)))
    grids, top = [], split
    while True:
        v, wv = oscillatory_grid(0.0, v_hi, max(2.0 * top * v_hi, floor))
        w = 2.0 * wv * G(v * v)
        grids.append((v, np.stack([w.real, w.imag], axis=-1)))
        if 2.0 * top * v_hi <= floor:
            break
        top /= 2.0
    x, wx = gl_nodes(200, -1.0, 1.0)

    def K_of(nu: np.ndarray) -> np.ndarray:
        out = np.empty(nu.shape, dtype=complex)
        s = nu <= split
        octave = np.minimum(np.log2(split / nu[s]), len(grids) - 1).astype(int)
        for i, (v, slow) in enumerate(grids):
            rows = np.flatnonzero(s)[octave == i]
            # exp(-i ph) @ slow in real arithmetic: a cos and a sin cost less
            # than a complex exp
            ph = np.multiply.outer(nu[rows], v) * v
            c, sn = np.cos(ph) @ slow, np.sin(ph) @ slow
            out[rows] = (c[:, 0] + sn[:, 1]) + 1j * (c[:, 1] - sn[:, 0])
        # fast branch: the GL rule on [0, sqrt(45 / nu)] per row
        half = 0.5 * np.sqrt(45.0 / nu[~s])[:, None]
        u, wu = half * x + half, half * wx
        out[~s] = np.exp(-1j * np.pi / 4) * np.sum(
            wu * 2.0 * G(-1j * u * u) * np.exp(-nu[~s, None] * u * u), axis=-1)
        return out

    def h(alpha: np.ndarray) -> np.ndarray:
        K = K_of(np.exp(np.concatenate([-alpha, alpha])))
        return 2.0 * (c0 * (K[:len(alpha)] + K[len(alpha):])).real

    chunk = 16  # alpha nodes per block: each temporary stays near 1 MB

    def panel_sum(a: np.ndarray, wa: np.ndarray) -> float:
        return sum(float(np.sum(wa[i:i + chunk] * h(a[i:i + chunk])))
                   for i in range(0, len(a), chunk))

    total, results = 0.0, []
    for a, b in zip(edges[:-1], edges[1:]):
        total += adaptive_gl(panel_sum, float(a), float(b), DEFAULT_CONFIG, 1.0,
                             "zero-mode probe quadrature did not converge")[0]
        results.append(abs(total))
    return results
