"""Group-averaged bilinear forms and group-averaged fields.

The compact average is a normalized trapezoid over the rotation angle.  The
non-compact average is evaluated at three levels: the unreduced sum over a
product grid of group elements on one fixed momentum grid (cross-checks
only), the semi-analytic form in which the discrete sum and the
z-translation integral have been carried out as the delta-function
identities they are, and the fully reduced sum over sequence entries.  The delta identities themselves are validated separately at small
scale by poisson_check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ZeroModeDivergenceError
from .forms import FormValue, _affine_pair, _ball_bform, _closed_pair, _tail_radius
from .groups import (
    BHPElement,
    _rotation_matrix,
    apply_group,
    checked_haar_scale,
)
from .modes import FieldVector, momentum_norm, zero_mode_slice
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    _refine,
    adaptive_spherical,
    bounding_radius,
    box_intersection,
    gl_nodes,
    oscillatory_grid,
    spherical_grid,
)
from .reduction import ReducedSequence, ordered_ns, pair_sum, project_bhp
from .specfun import cosh_phase_integral, hankel2_0

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
                         quad: QuadratureConfig = DEFAULT_CONFIG,
                         haar_scale: float = 1.0) -> AverageResult:
    """(haar_scale / 2 pi) * integral over the circle of B(f1, Phi_theta f2).

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
    by a uniform trapezoid: one spherical ladder integrates conj(a1) times
    the mean of a2 over each shell block's azimuth axis, on the smaller of
    the fields' support-box corner radii (a rotation keeps |k|).
    """
    scale = checked_haar_scale(haar_scale)
    folded = _affine_pair(f1, f2)
    if folded is None:
        if f1.is_zero or f2.is_zero:
            return AverageResult(0.0 + 0.0j, 0.0, 0.0)

        def ring_mean_integrand(K):
            return np.conj(f1.amplitude(K)) * np.mean(f2.amplitude(K), axis=-1, keepdims=True)

        r_box = min(bounding_radius(f1.support_box()), bounding_radius(f2.support_box()))
        form = _ball_bform(ring_mean_integrand, f1, f2, quad, r_box)
        return AverageResult(scale * form.value, scale * form.error_estimate, 0.0)
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
    return AverageResult(scale * cur, scale * err, 0.0)


def average_form_circle(form: str, f1: FieldVector, f2: FieldVector,
                        quad: QuadratureConfig = DEFAULT_CONFIG,
                        haar_scale: float = 1.0) -> AverageResult:
    """Averaged symplectic form or scalar product over the rotation group."""
    if form not in ("omega", "mu"):
        raise ValueError("form must be 'omega' or 'mu'")
    avg = average_bform_circle(f1, f2, quad, haar_scale)
    if form == "mu":
        return AverageResult(avg.value.real, avg.error_estimate, avg.tail_bound)
    return AverageResult(-2.0 * avg.value.imag, 2.0 * avg.error_estimate, avg.tail_bound)


# --- non-compact group: product-grid level ------------------------------------

def average_bform_bhp_direct(f1: FieldVector, f2: FieldVector, ns: Sequence[int],
                             alpha_rule, beta_rule, counts: Tuple[int, int, int],
                             ) -> AverageResult:
    """Sum of w_a w_b B(f1, Phi_(n,a,b) f2) over the product grid ns x alpha x beta.

    The rules are (nodes, weights) pairs.  Every element's B comes from one
    fixed spherical grid with the given counts on the ball of radius
    bounding_radius(f1.support_box()) + 0.5, so this is the unreduced route
    and its error estimate is nan.  f2 is boosted once per alpha; on each
    radial shell the n phases exp(2 pi i n k_x) are built once and summed
    out over the azimuth, and since k_z = r cos theta does not depend on the
    azimuth, the beta phases are one (ntheta x nbeta) matrix product.  The
    tail bound collects the contribution mass on the largest |alpha| (when
    the rule has more than two distinct |alpha|) and on the largest |n|
    (when there is more than one distinct |n|).
    """
    ns = np.asarray(ns, dtype=int)
    a_nodes, a_w = (np.asarray(x, dtype=float) for x in alpha_rule)
    b_nodes, b_w = (np.asarray(x, dtype=float) for x in beta_rule)
    r, wr, D, W = spherical_grid(bounding_radius(f1.support_box()) + 0.5,
                                 *[int(c) for c in counts])
    boosted = [apply_group(BHPElement(0, a, 0.0), f2) for a in a_nodes]
    acc = np.zeros((len(a_nodes), len(ns), len(b_nodes)), dtype=complex)
    for ri, wi in zip(r, wr):
        K = ri * D
        pre = wi * W * np.conj(f1.amplitude(K))
        amp = np.stack([pre * f2a.amplitude(K) for f2a in boosted], axis=1)
        phases = np.exp(2j * np.pi * ns[:, None, None] * K[None, :, :, 0])
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
    the same number.  The ball is the smaller of the corner radius of the
    support-box intersection and the radius from forms._tail_radius, with
    |alpha| of g added to the rapidity of every f1 term, outside which the
    closed-form bound on the integrand's |.|-mass is at most abs_tol / 100.
    """
    if f1.mass != 0.0 or f2.mass != 0.0:
        raise ValueError("the reduced integrand applies to the massless theory")
    if f1.is_zero or f2.is_zero:
        return FormValue(0.0 + 0.0j, 0.0)

    def integrand(Q):
        qx, qy, qz = Q[..., 0], Q[..., 1], Q[..., 2]
        w = momentum_norm(qx, qy, qz)
        _, ly, _, wf = g.push_forward(qx, qy, qz, w)
        ratio = np.where(w > 0.0, wf / np.maximum(w, 1e-300), 1.0)
        out = (np.sqrt(ratio) * np.conj(f1.amplitude(np.stack((qx, ly, qz), axis=-1)))
               * f2.amplitude(Q))
        theta = g.phase_at(qx, qy, qz)
        return out if theta is None else out * np.exp(1j * theta)

    box2 = f2.support_box()
    lo1, hi1 = f1.support_box()
    # pull the f1 box back through the inverse map to bound the support of Q
    grids = np.meshgrid(*[np.linspace(lo1[i], hi1[i], 7) for i in range(3)], indexing="ij")
    pts = g.inverse_momentum_map(np.stack(grids, axis=-1).reshape(-1, 3))
    box1_back = pts.min(axis=0) - 0.5, pts.max(axis=0) + 0.5
    inter = box_intersection(box2, box1_back)
    if inter is None:
        return FormValue(0.0 + 0.0j, 1e-15)
    r_max, _ = _tail_radius(f1, f2, quad, bounding_radius(inter), boost=abs(g.alpha))
    wmin = max(min(f1.min_width(), f2.min_width()), 1e-3)
    freq = 2.0 * np.pi * abs(g.n) + abs(g.beta)
    nr = int(np.clip(3.0 * r_max / wmin + 1.2 * freq * r_max / np.pi, 48, 320))
    nang = int(np.clip(48 + 0.9 * freq * r_max / np.pi, 48, 240))
    val, err = adaptive_spherical(integrand, r_max, quad,
                                  base_counts=(nr, nang, 2 * nang),
                                  max_counts=(380, 280, 560))
    return FormValue(val, err)


# --- non-compact group: semi-analytic and reduced levels ----------------------

def _slice_grid(f: FieldVector, n: int, nodes: np.ndarray) -> np.ndarray:
    K = np.stack([np.full_like(nodes, float(n)), nodes, np.zeros_like(nodes)], axis=-1)
    return f.amplitude(K)


def average_bform_bhp_gave(f1: FieldVector, f2: FieldVector,
                           quad: QuadratureConfig = DEFAULT_CONFIG,
                           haar_scale: float = 1.0) -> AverageResult:
    """Group average after the analytic delta reductions, per-n double quadrature.

    2 pi * sum_n  int dl int dk  conj(a1)(n,l,0) a2(n,k,0)
                                 / ((n^2+l^2)(n^2+k^2))^(1/4),
    where the n = 0 integrals use the k = u|u| substitution that removes the
    |k|^(-1/2) endpoint exactly.  The Gauss-Legendre double sum has rank one,
    so it is evaluated as conj(sum w g1) * (sum w g2); each n refines over
    node factors 1, 1.5 and 2.25 until two levels agree.
    """
    haar_scale = checked_haar_scale(haar_scale)
    lo1, hi1 = f1.support_box()
    lo2, hi2 = f2.support_box()
    k_lo = min(lo1[1], lo2[1]) - 0.5
    k_hi = max(hi1[1], hi2[1]) + 0.5
    wmin = max(min(f1.min_width(), f2.min_width()), 1e-3)
    n_nodes = int(np.clip(4.0 * (k_hi - k_lo) / wmin, 64, 480))

    def term(n: int, factor: float) -> complex:
        m = int(n_nodes * factor)
        if n == 0:
            u_hi = np.sqrt(max(abs(k_lo), abs(k_hi)))
            u, wu = gl_nodes(m, -u_hi, u_hi)
            g1 = 2.0 * _slice_grid(f1, 0, u * np.abs(u))
            g2 = 2.0 * _slice_grid(f2, 0, u * np.abs(u))
        else:
            k, wu = gl_nodes(m, k_lo, k_hi)
            wgt = (n * n + k * k) ** -0.25
            g1 = _slice_grid(f1, n, k) * wgt
            g2 = _slice_grid(f2, n, k) * wgt
        return complex(np.conj(np.sum(wu * g1)) * np.sum(wu * g2))

    total = 0.0 + 0.0j
    err = 0.0
    mags = {}
    for n in ordered_ns(quad.n_max):
        val, err_n = _refine(lambda factor: term(n, factor), (1.0, 1.5, 2.25), quad,
                             f"per-n double quadrature did not converge at n = {n}")
        total += val
        err += err_n
        mags[abs(n)] = max(mags.get(abs(n), 0.0), abs(val))
    tail = _ratio_tail([mags[m] for m in sorted(mags)])
    return AverageResult(haar_scale * 2.0 * np.pi * total,
                         haar_scale * 2.0 * np.pi * err,
                         haar_scale * 2.0 * np.pi * tail)


def _ratio_tail(mags) -> float:
    """Geometric tail estimate from the decay of the last three magnitudes."""
    mags = [m for m in mags if m > 0.0]
    if len(mags) < 3:
        return 0.0
    r = (mags[-1] / max(mags[-3], 1e-300)) ** 0.5
    r = min(r, 0.9)
    return mags[-1] * r / (1.0 - r)


def average_bform_bhp_reduced(f1: FieldVector, f2: FieldVector,
                              quad: QuadratureConfig = DEFAULT_CONFIG,
                              haar_scale: float = 1.0,
                              sequences: Optional[Tuple[ReducedSequence, ReducedSequence]] = None,
                              ) -> AverageResult:
    """Group average as the sequence inner product sum of conj(A1_n) A2_n.

    Rescaling the Haar measure by c multiplies the average by c; the same
    effect is obtained by mapping both sequences through A_n -> sqrt(c) A_n.
    """
    haar_scale = checked_haar_scale(haar_scale)
    if sequences is None:
        s1 = project_bhp(f1, quad)
        s2 = project_bhp(f2, quad)
    else:
        s1, s2 = sequences
    value = haar_scale * pair_sum(s1, s2)
    mags = []
    for m in range(0, s1.n_max + 1):
        lo = [abs(s1.entries[n] * s2.entries[n]) for n in (m, -m) if n in s1.entries]
        mags.append(max(lo) if lo else 0.0)
    err = haar_scale * (s1.error_estimate * _seq_scale(s2) + s2.error_estimate * _seq_scale(s1))
    return AverageResult(value, err, haar_scale * _ratio_tail(mags))


def _seq_scale(s: ReducedSequence) -> float:
    return max(abs(v) for v in s.entries.values()) if s.entries else 0.0


# --- delta-identity validation ------------------------------------------------

def poisson_check(h: Callable[[float], float], n_max: int, u_cutoff: float):
    """Truncated two-sided test of sum_n exp(2 pi i n x) = sum_m delta(x - m).

    lhs = integral over [-u_cutoff, u_cutoff] of h against the truncated
    exponential sum (one oscillatory quadrature per n); rhs = sum of h at the
    integers inside the window.  For Schwartz-type h the two converge to the
    same number as the truncations grow.
    """
    x, w = oscillatory_grid(-u_cutoff, u_cutoff, 2.0 * np.pi * n_max)
    hv = np.array([h(float(xx)) for xx in x])
    lhs = 0.0 + 0.0j
    for n in range(-int(n_max), int(n_max) + 1):
        lhs += complex(np.sum(w * hv * np.exp(2.0j * np.pi * n * x)))
    m_hi = int(np.floor(u_cutoff))
    rhs = float(sum(h(float(m)) for m in range(-m_hi, m_hi + 1)))
    return lhs, rhs


def substitution_check(h: Callable[[np.ndarray], np.ndarray], support: float,
                       n: int = 1, ky: float = 0.7):
    """Change-of-variables identity behind the boost-parameter integral.

    lhs integrates h(l(alpha)) against the absolute Jacobian |dl/dalpha| =
    sqrt(n^2 + l(alpha)^2); rhs integrates h directly over l.  `support`
    bounds where h is non-negligible so both sides can be truncated honestly.
    h is called on arrays of nodes.  Each side is a Gauss-Legendre ladder
    (32 to 1024 nodes) that stops at rel_tol 1e-11 or abs_tol 1e-13 and
    raises QuadratureError when it cannot.
    """
    w = float(np.hypot(n, ky))
    cfg = QuadratureConfig(rel_tol=1e-11, abs_tol=1e-13)

    def l_of(a):
        return ky * np.cosh(a) - w * np.sinh(a)

    def integral(fn, a, b) -> float:
        def level(m: int) -> float:
            x, wx = gl_nodes(m, a, b)
            return float(np.sum(wx * fn(x)))

        value, _ = _refine(level, (32 * 2**i for i in range(6)), cfg,
                           "substitution-check quadrature did not converge")
        return value

    # |l(alpha)| grows like exp(|alpha|); restrict to where h can contribute
    a_max = np.log(2.0 * (support + abs(ky) + w) / max(w - abs(ky), 1e-12)) + 1.0
    lhs = integral(lambda a: np.hypot(n, l_of(a)) * h(l_of(a)), -a_max, a_max)
    rhs = integral(h, -support, support)
    return lhs, rhs


# --- group-averaged field -----------------------------------------------------

def average_field_bhp(f: FieldVector, tau: float, sigma: float,
                      quad: QuadratureConfig = DEFAULT_CONFIG,
                      path: str = "series",
                      sequence: Optional[ReducedSequence] = None) -> float:
    """Group-averaged field at (tau, sigma) on the reduced spacetime.

    path "series": (1/(2 sqrt 2)) sum_{n != 0} A_n H0_2(|n| tau) e^{i n sigma}
    plus its conjugate, with the series/asymptotic H0_2 and the adaptive A_n.
    path "direct": per n, the boost integral of exp(i tau (k_y sinh a -
    w cosh a)) times a fixed Gauss-Legendre k_y quadrature of the slice.
    Centring the boost parameter at each k_y's stationary point turns the
    phase into -|n| tau cosh, so the boost integral is one contour-damped
    number per n.  Requires a field in the zero-mode-free subspace; anything
    else has a divergent n = 0 average.
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
        acc = 0.0 + 0.0j
        for n in ordered_ns(s.n_max):
            if n == 0:
                continue
            acc += s.entries[n] * hankel2_0(abs(n) * tau) * np.exp(1j * n * sigma)
        return float(acc.real / np.sqrt(2.0))
    if path != "direct":
        raise ValueError("path must be 'series' or 'direct'")

    lo, hi = f.support_box()
    k_lo, k_hi = float(lo[1]) - 0.5, float(hi[1]) + 0.5
    wmin = max(f.min_width(), 1e-3)
    n_nodes = int(np.clip(4.0 * (k_hi - k_lo) / wmin, 96, 420))
    ky, wk = gl_nodes(n_nodes, k_lo, k_hi)
    out = 0.0
    prefac = 1.0 / (2.0 * np.sqrt(np.pi))
    for n in ordered_ns(quad.n_max):
        if n == 0:
            continue
        boost, _ = cosh_phase_integral(abs(n) * tau)
        slice_sum = np.sum(wk * _slice_grid(f, n, ky) / np.sqrt(np.hypot(float(n), ky)))
        t_n = prefac * complex(boost * slice_sum)
        out += 2.0 * (t_n * np.exp(1j * n * sigma)).real
    return float(out)


def zero_mode_divergence_probe(f: FieldVector, alpha_cutoffs: Sequence[float],
                               tau: float = 1.0) -> list:
    """Magnitude of the truncated n = 0 field average at growing boost cutoffs.

    For a field with a(0, k_y, 0) != 0 the sequence grows without bound
    (asymptotically linearly in the cutoff); on the zero-mode-free subspace
    it is identically zero.  The oscillatory half-line k_y = +-v^2 integral
    is a weighted sum on one grid for the slow branch (nu <= 50: the local
    frequency 2 nu v of exp(-i nu v^2) stays below 100 sqrt(q_hi)) and a
    contour rotation for the fast one, so cutoffs of order 40 cost nothing.
    """
    g = zero_mode_slice(f)
    lo, hi = f.support_box()
    q_hi = max(abs(lo[1]), abs(hi[1])) + 1.0
    c0 = (2.0 * (2.0 * np.pi) ** 3) ** -0.5
    v, wv = oscillatory_grid(0.0, np.sqrt(q_hi), 100.0 * np.sqrt(q_hi))
    slow = {}
    for sign in (1.0, -1.0):
        w = 2.0 * wv * g(sign * v * v)
        slow[sign] = np.stack([w.real, w.imag], axis=-1)
    x, wx = gl_nodes(200, -1.0, 1.0)

    def K_of(nu: np.ndarray, sign: float) -> np.ndarray:
        out = np.empty(nu.shape, dtype=complex)
        s = nu <= 50.0
        # exp(-i ph) @ slow in real arithmetic: a cos and a sin cost less than
        # a complex exp
        ph = np.multiply.outer(nu[s], v) * v
        c, sn = np.cos(ph) @ slow[sign], np.sin(ph) @ slow[sign]
        out[s] = (c[:, 0] + sn[:, 1]) + 1j * (c[:, 1] - sn[:, 0])
        # fast branch: the GL rule on [0, sqrt(45 / nu)] per row
        half = 0.5 * np.sqrt(45.0 / nu[~s])[:, None]
        u, wu = half * x + half, half * wx
        out[~s] = np.exp(-1j * np.pi / 4) * np.sum(
            wu * 2.0 * g(-1j * sign * u * u) * np.exp(-nu[~s, None] * u * u), axis=-1)
        return out

    def h(alpha: np.ndarray) -> np.ndarray:
        kp = K_of(tau * np.exp(-alpha), 1.0)
        km = K_of(tau * np.exp(alpha), -1.0)
        return 2.0 * (c0 * (kp + km)).real

    chunk = 16  # alpha nodes per block: each temporary stays near 1 MB
    results = []
    for A in alpha_cutoffs:
        m = int(np.clip(16.0 * A, 96, 1400))
        a_nodes, a_w = gl_nodes(m, -float(A), float(A))
        vals = np.concatenate([h(a_nodes[i0:i0 + chunk]) for i0 in range(0, m, chunk)])
        results.append(float(abs(np.sum(a_w * vals))))
    return results
