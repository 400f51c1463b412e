"""Quadrature engines and configuration.

Momentum-space integrands in this package are smooth rapidly-decreasing
functions except for two well-understood defects in the massless case: a
|k|^(-1/2) factor at the origin and a direction-dependent (but bounded)
frequency ratio attached to boosts.  Tensor Gauss-Legendre grids handle the
smooth case; a global spherical grid centered on k=0 handles the massless
one, because both defects are smooth in (radius, direction) coordinates.
Where the radial integral has a closed form, only the unit sphere of
directions is left to a ladder (adaptive_sphere).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import QuadratureError

Array = np.ndarray
# a spherical integrand: called with a level's unit directions D, it returns
# the integrand on the shell r D as a function of r
ShellFactory = Callable[[Array], Callable[[float], Array]]


@dataclass(frozen=True)
class QuadratureConfig:
    """Shared numerical budget for all integral evaluations.

    n_max truncates the discrete sums of the non-compact reduction.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    n_max: int = 16

    def __post_init__(self):
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


def _refine(evaluate: Callable, levels: Iterable, cfg: QuadratureConfig, failure: str):
    """Evaluate levels in turn until two consecutive values agree.

    Returns (value, error) for the later value of the first pair with
    |cur - prev| <= max(abs_tol, rel_tol |cur|); the difference is a
    faithful error estimate for the spectrally convergent rules used here
    as long as every level refines its predecessor.  A level may be an
    array: the difference is then taken in the max norm and the tolerance
    applies to the largest entry.  Running out of levels raises
    QuadratureError(failure): an unconverged value is never returned.
    """
    prev = None
    for level in levels:
        cur = evaluate(level)
        if prev is not None:
            err = float(np.max(np.abs(cur - prev)))
            if err <= max(cfg.abs_tol, cfg.rel_tol * float(np.max(np.abs(cur)))):
                return cur, err
        prev = cur
    raise QuadratureError(failure)


def _count_ladder(base, caps, growth: float, floor: int):
    """Node counts per axis for a ladder, starting one step below base.

    The warmup level confirms convergence from below: with an engineered
    base the estimate usually settles without climbing past it.  Every axis
    gains nodes from one level to the next; the ladder ends with the first
    level that puts an axis at its cap, since a further level could not
    refine that axis.
    """
    caps = np.asarray(caps, dtype=int)
    counts = np.maximum((np.asarray(base, dtype=int) / growth).astype(int), floor)
    while True:
        use = np.minimum(counts, caps)
        yield tuple(int(c) for c in use)
        if np.any(use >= caps):
            return
        counts = (counts * growth + 4).astype(int)


# Node caps of the ladders.  SHELL_CAPS (n_theta, n_phi) and TENSOR_CAP
# bound the block one integrand call sees, also on the unit sphere; the
# radial count only sets how many shells are summed, so its cap sits
# RADIAL_STEPS growth steps above its start, under RADIAL_CEILING.  GL_CAP
# caps every axis of the 1D and 2D Gauss-Legendre ladders, and OSC_CAP the
# nodes of one oscillatory grid.  Narrower widths count as _MIN_WIDTH.
SHELL_CAPS = (280, 560)
RADIAL_STEPS = 5
RADIAL_CEILING = 1000
TENSOR_CAP = 320
GL_CAP = 1024
OSC_CAP = 2 ** 17
_MIN_WIDTH = 1e-3
# Gauss-Legendre rules: the largest (nodes x series terms) block one Newton
# sweep builds, and the sweeps allowed before a rule counts as unconverged
GL_BLOCK = 2 ** 18
GL_SWEEPS = 20


# j_(0,k) for k <= 5, and McMahon's series in 1 / beta^2 for the later zeros
# of J0 (to 8e-13; at k = 5 it errs by 9e-12), highest power first
_J0_ZEROS = (2.404825557695773, 5.520078110286311, 8.653727912911013,
             11.791534439014281, 14.930917708487787)
_MCMAHON = (-8249725736393 / 14533263360, 2092163573 / 82575360, -6277237 / 3440640,
            3779 / 15360, -31 / 384, 1 / 8)


@lru_cache(maxsize=None)
def _rule_tables(size: int):
    """c_k = binom(2k, k) / 4^k (a running product) and j_(0,k+1) for k < size, read-only.

    Built once per power of two size; a prefix is bitwise a smaller size's table."""
    j = np.arange(1, size)
    beta = (np.arange(len(_J0_ZEROS) + 1, size + 1) - 0.25) * np.pi
    c = np.concatenate(([1.0], np.cumprod((2 * j - 1) / (2 * j))))
    zeros = np.concatenate((_J0_ZEROS, beta + np.polyval(_MCMAHON, beta**-2) / beta))[:size]
    c.flags.writeable = zeros.flags.writeable = False
    return c, zeros


def _bessel_j0_zeros(count: int) -> Array:
    """The first count positive zeros of J0 (a read-only view of a shared table)."""
    return _rule_tables(1 << count.bit_length())[1][:count]


def _legendre_series(theta: Array, a: Array, m: Array, scale: float):
    """One Newton step for P_n(cos theta) = sum_j a_j cos(m_j theta), and the new slope.

    Returns (step, s): s is -dP_n/dtheta at theta + step by a second-order
    Taylor step, so the cos and sin blocks of one evaluation serve both.
    theta = hi + lo with hi a multiple of 1 / scale: scale keeps m_j hi
    exact, so cos and sin see exact arguments, and the small m_j lo enters
    to first order (its square stays below 1e-16 for n < 8192).  Rounding
    m_j theta instead would err by up to n ulp(theta) in the argument,
    about 1e-12 in the weights at n = 1024.
    """
    hi = np.rint(theta * scale) / scale
    lo = theta - hi
    arg = hi[:, None] * m
    c = np.cos(arg)
    s = np.sin(arg, out=arg)
    am = a * m
    am2 = am * m
    d1, d2, d3 = s @ am, c @ am2, -(s @ (am2 * m))
    step = (c @ a - lo * d1) / (d1 + lo * d2)
    h = lo + step
    return step, d1 + h * (d2 + 0.5 * h * d3)


@lru_cache(maxsize=128)
def _leggauss(n: int):
    """Gauss-Legendre nodes (ascending) and weights of order n on [-1, 1].

    Newton's method in theta = arccos(x) on the Fourier series
    P_n(cos theta) = sum_k c_k c_(n-k) cos((n - 2k) theta), with
    c_k = binom(2k, k) / 4^k (Swarztrauber, SIAM J. Sci. Comput. 24(3),
    2002): all its coefficients are positive, so it is stable, and a sweep
    costs O(n) per node.  The half rule starts from Olver's Bessel-zero
    nodes psi + (psi cot psi - 1) / (8 psi rho^2), psi = j_(0,k) / rho,
    rho = n + 1/2 (Hale and Townsend, SIAM J. Sci. Comput. 35(2), 2013),
    off by 3e-7 at n = 16 and 9e-9 at n = 40, and a node leaves the sweeps
    once its step is at most 1e-8, where Newton leaves it at roundoff: from
    n = 40 on, one series evaluation per node gives node and weight.  The
    weights 2 / (dP/dtheta)^2 carry no 1 - x^2 cancellation.  Blocks of
    nodes keep every temporary within GL_BLOCK entries.  The cached arrays
    are read-only, since every caller of a size shares them.  Raises
    ValueError for n < 1 and QuadratureError when a block has not converged
    after GL_SWEEPS sweeps.
    """
    n = int(n)
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs n >= 1 nodes")
    c = _rule_tables(1 << n.bit_length())[0][:n + 1]
    # m = n - 2k for k <= n / 2: the terms k and n - k share cos(m theta), and
    # m = 0 (n even) appears once
    m = np.arange(n, -1, -2.0)
    a = c[:m.size] * c[n + 1 - m.size:][::-1]
    a[:(n + 1) // 2] *= 2.0
    # theta < 2 rounded to a multiple of 1 / scale, times m <= n, is an
    # integer multiple of 1 / scale below 2^53 / scale: an exact product
    scale = 2.0 ** (52 - n.bit_length())
    # nodes x_1 > x_2 > ... >= 0; for odd n the last one is the middle node
    rho = n + 0.5
    psi = _bessel_j0_zeros((n + 1) // 2) / rho
    theta = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho * rho)
    slope = np.empty_like(theta)
    rows = max(1, GL_BLOCK // m.size)
    for first in range(0, theta.size, rows):
        t, sl = theta[first:first + rows], slope[first:first + rows]
        active = np.arange(t.size)
        for _ in range(GL_SWEEPS):
            step, sl[active] = _legendre_series(t[active], a, m, scale)
            t[active] += step
            active = active[np.abs(step) > 1e-8]
            if active.size == 0:
                break
        else:
            raise QuadratureError(f"Gauss-Legendre nodes of order {n} did not converge")
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    w = 2.0 / (slope * slope)
    nodes = np.concatenate((-x[:n // 2], x[::-1]))
    weights = np.concatenate((w[:n // 2], w[::-1]))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gl_nodes(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def gl_counts(extents, width: float):
    """Node counts per level of a Gauss-Legendre ladder over one or two axes.

    width is the integrand's narrowest feature: each axis starts (after a
    warmup level of at least 16 nodes) at three nodes per width of its
    extent, at least three growth steps below GL_CAP, and grows by 1.4.
    """
    growth = 1.4
    base = np.minimum(3.0 * np.asarray(extents, dtype=float) / max(width, _MIN_WIDTH),
                      GL_CAP / growth**3)
    return _count_ladder(base, (GL_CAP,) * base.size, growth, 16)


def adaptive_gl(fn: Callable, a: float, b: float, cfg: QuadratureConfig, width: float,
                failure: str):
    """Gauss-Legendre integral over [a, b] on the ladder of gl_counts((b - a,), width).

    fn(x, w) returns the weighted sum over one level's nodes and weights, a
    number or an array judged in the max norm.  Returns (value, error
    estimate); raises QuadratureError(failure) at GL_CAP.
    """
    return _refine(lambda counts: fn(*gl_nodes(counts[0], a, b)),
                   gl_counts((b - a,), width), cfg, failure)


def tensor3_integral(fn: Callable[[Array], Array], box, counts) -> complex:
    """Tensor Gauss-Legendre integral of fn over an axis-aligned box.

    fn takes an array of shape (..., 3) and returns complex values of
    shape (...); it is called on blocks of 48 first-axis nodes, which keeps
    temporaries bounded.
    """
    lo, hi = box
    (kx, wx), (ky, wy), (kz, wz) = [gl_nodes(int(counts[i]), float(lo[i]), float(hi[i]))
                                    for i in range(3)]
    total = 0.0 + 0.0j
    for i0 in range(0, len(kx), 48):
        sl = slice(i0, i0 + 48)
        KX, KY, KZ = np.meshgrid(kx[sl], ky, kz, indexing="ij")
        K = np.stack([KX, KY, KZ], axis=-1)
        W = wx[sl][:, None, None] * wy[None, :, None] * wz[None, None, :]
        total += complex(np.sum(W * fn(K)))
    return total


def adaptive_tensor3(fn: Callable[[Array], Array], box, cfg: QuadratureConfig, width: float):
    """Tensor GL integral over a box, with node-growth error control.

    width is the narrowest feature of fn: each axis starts at three nodes
    per width of its extent, between 20 and 72, at least four growth steps
    below TENSOR_CAP.  Returns (value, error_estimate).  Raises
    QuadratureError when an axis reaches the cap before the tolerance is met.
    """
    extent = np.subtract(box[1], box[0])
    base = np.clip(3.0 * extent / max(width, _MIN_WIDTH), 20, 72).astype(int)
    levels = _count_ladder(base, (TENSOR_CAP,) * 3, 1.45, 8)
    return _refine(lambda counts: tensor3_integral(fn, box, counts), levels, cfg,
                   "3D tensor quadrature did not converge below its node cap")


def spherical_grid(r_max: float, nr: int, ntheta: int, nphi: int):
    """Separable factors of the (r, cos theta, phi) product grid on |k| <= r_max.

    Returns (r, wr), the radial nodes and their r^2-weighted GL weights, and
    (D, W), the (ntheta, nphi, 3) unit directions and their (ntheta, nphi)
    angular weights: the node of shell i at direction (j, l) is r[i] * D[j, l]
    with weight wr[i] * W[j, l].  Callers evaluate one shell at a time, so no
    (nr, ntheta, nphi, 3) array is ever built.
    """
    r, wr = gl_nodes(nr, 0.0, r_max)
    c, wc = _leggauss(ntheta)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    D = np.stack(np.broadcast_arrays(s[:, None] * np.cos(phi), s[:, None] * np.sin(phi),
                                     c[:, None]), axis=-1)
    W = np.outer(wc, np.full(nphi, 2.0 * np.pi / nphi))
    return r, wr * r * r, D, W


def spherical_integral(fn: ShellFactory, r_max: float, counts) -> complex:
    """Integral over |k| <= r_max on the spherical grid with the given counts.

    fn is a per-level factory: it is called once, with the (ntheta, nphi, 3)
    unit directions D, and returns shell(r), the integrand on the shell r D,
    which is called once per radial node.  Integrands that pull momenta back
    through homogeneous maps do that work once in fn (FieldVector.on_rays);
    no (nr, ntheta, nphi, 3) array is ever built.
    """
    nr, nt, nphi = counts
    r, wr, D, W = spherical_grid(r_max, int(nr), int(nt), int(nphi))
    shell = fn(D)
    total = 0.0 + 0.0j
    for ri, wi in zip(r, wr):
        total += wi * complex(np.sum(W * shell(ri)))
    return total


def adaptive_spherical(fn: ShellFactory, r_max: float, cfg: QuadratureConfig, width: float):
    """Spherical-grid integral over the ball |k| <= r_max with node growth.

    The grid is Gauss-Legendre in radius and cos(theta) and trapezoidal in
    azimuth, which is spectrally accurate for integrands smooth in
    (radius, direction) even when they are not smooth at k = 0 in Cartesian
    coordinates.  width is the integrand's narrowest feature: the radial
    start is 3 r_max / width, at least 48, and the polar start 48, with
    twice as many azimuths; both are kept three growth steps below their
    caps.  fn is the per-level factory of spherical_integral, so it runs
    once per level of the ladder.  Returns (value, error_estimate); raises
    QuadratureError when the ladder reaches a cap before the tolerance is
    met.
    """
    growth = 1.4
    nr = max(int(3.0 * r_max / max(width, _MIN_WIDTH)), 48)
    nr = min(nr, int(RADIAL_CEILING / growth**3))
    caps = (min(int(nr * growth**RADIAL_STEPS), RADIAL_CEILING), *SHELL_CAPS)
    levels = _count_ladder((nr, 48, 96), caps, growth, 12)
    return _refine(lambda counts: spherical_integral(fn, r_max, counts), levels, cfg,
                   "spherical quadrature did not converge below its node caps")


def adaptive_sphere(fn: Callable[[Array], Array], cfg: QuadratureConfig, angle: float,
                    turn: float):
    """Integral over the unit sphere of directions with node growth.

    fn takes (rows, nphi, 3) unit directions of spherical_grid and returns
    the integrand there; it is called on blocks of polar rows that hold at
    most 2048 directions, which keeps temporaries bounded.  angle is the
    integrand's narrowest angular feature and turn the largest angle (in
    radians) by which a phase it carries turns over the sphere: the polar
    start is 4 / angle + turn / 2, with twice as many azimuths, kept three
    growth steps below SHELL_CAPS.  Returns (value, error_estimate); raises
    QuadratureError when the ladder reaches a cap before the tolerance is
    met.
    """
    growth = 1.4
    nang = int(min(4.0 / max(angle, _MIN_WIDTH) + 0.5 * turn, SHELL_CAPS[0] / growth**3))

    def level(counts) -> complex:
        _, _, D, W = spherical_grid(1.0, 1, *counts)
        rows = max(1, 2048 // counts[1])
        return sum(complex(np.sum(W[i:i + rows] * fn(D[i:i + rows])))
                   for i in range(0, counts[0], rows))

    return _refine(level, _count_ladder((nang, 2 * nang), SHELL_CAPS, growth, 12), cfg,
                   "angular quadrature did not converge below its node caps")


def oscillatory_grid(a: float, b: float, max_freq: float):
    """Composite GL grid resolving exp(i * freq * x) up to max_freq.

    Panels are one oscillation period long, so a 16-node rule is exact to
    machine precision on each panel for smooth envelopes; the same grid
    serves every frequency below max_freq.  A grid of more than OSC_CAP
    nodes raises QuadratureError instead of being built.
    """
    period = 2.0 * np.pi / max(max_freq, 1e-12)
    n_panels = max(8, int(np.ceil((b - a) / period)))
    if 16 * n_panels > OSC_CAP:
        raise QuadratureError(f"oscillatory grid of {16 * n_panels} nodes exceeds {OSC_CAP}")
    edges = np.linspace(a, b, n_panels + 1)
    x0, w0 = _leggauss(16)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * x0[None, :]).ravel()
    weights = np.broadcast_to(half * w0, (n_panels, 16)).ravel()
    return nodes, weights


def bounding_radius(box) -> float:
    lo, hi = box
    corners = np.stack(np.meshgrid(*[(lo[i], hi[i]) for i in range(3)],
                                   indexing="ij"), axis=-1).reshape(-1, 3)
    return float(np.max(np.linalg.norm(corners, axis=1)))
