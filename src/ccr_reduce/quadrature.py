"""Quadrature engines and configuration.

Momentum-space integrands in this package are smooth rapidly-decreasing
functions except for two well-understood defects in the massless case: a
|k|^(-1/2) factor at the origin and a direction-dependent (but bounded)
frequency ratio attached to boosts.  Tensor Gauss-Legendre grids handle the
smooth case; a global spherical grid centered on k=0 handles the massless
one, because both defects are smooth in (radius, direction) coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import QuadratureError

Array = np.ndarray


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
    as long as every level refines its predecessor.  Running out of levels
    raises QuadratureError(failure): an unconverged value is never returned.
    """
    prev = None
    for level in levels:
        cur = evaluate(level)
        if prev is not None:
            err = abs(cur - prev)
            if err <= max(cfg.abs_tol, cfg.rel_tol * abs(cur)):
                return cur, err
        prev = cur
    raise QuadratureError(failure)


def _count_ladder(base_counts, caps, growth: float, floor: int):
    """Node counts per axis for a 3D ladder, starting one step below base.

    The warmup level confirms convergence from below: with an engineered
    base the estimate usually settles without climbing past it.  Every axis
    gains nodes from one level to the next; the ladder ends with the first
    level that puts an axis at its cap, since a further level could not
    refine that axis.
    """
    caps = np.asarray(caps, dtype=int)
    counts = np.maximum((np.asarray(base_counts, dtype=int) / growth).astype(int), floor)
    while True:
        use = np.minimum(counts, caps)
        yield tuple(int(c) for c in use)
        if np.any(use >= caps):
            return
        counts = (counts * growth + 4).astype(int)


@lru_cache(maxsize=128)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(int(n))


def gl_nodes(n: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


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


def adaptive_tensor3(
    fn: Callable[[Array], Array],
    box,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    base_counts: Sequence[int] = (24, 24, 24),
    max_count: int = 320,
):
    """Tensor GL integral with node-doubling error control.

    Returns (value, error_estimate).  Raises QuadratureError when the
    refinement ladder is exhausted before the tolerance is met.
    """
    levels = _count_ladder(base_counts, (max_count,) * 3, 1.45, 8)
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


def spherical_integral(fn: Callable[[Array], Array], r_max: float, counts) -> complex:
    """Integral of fn over |k| <= r_max on the spherical grid with the given counts.

    fn is called once per radial shell with an (ntheta, nphi, 3) block.
    """
    nr, nt, nphi = counts
    r, wr, D, W = spherical_grid(r_max, int(nr), int(nt), int(nphi))
    total = 0.0 + 0.0j
    for ri, wi in zip(r, wr):
        total += wi * complex(np.sum(W * fn(ri * D)))
    return total


def adaptive_spherical(
    fn: Callable[[Array], Array],
    r_max: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    base_counts: Sequence[int] = (48, 32, 64),
    max_counts: Sequence[int] = (280, 200, 400),
):
    """Spherical-grid integral over the ball |k| <= r_max with node doubling.

    The grid is Gauss-Legendre in radius and cos(theta) and trapezoidal in
    azimuth, which is spectrally accurate for integrands smooth in
    (radius, direction) even when they are not smooth at k = 0 in Cartesian
    coordinates.  Returns (value, error_estimate); raises QuadratureError
    when the ladder reaches a cap before the tolerance is met.
    """
    levels = _count_ladder(base_counts, max_counts, 1.4, 12)
    return _refine(lambda counts: spherical_integral(fn, r_max, counts), levels, cfg,
                   "spherical quadrature did not converge below its node caps")


def oscillatory_grid(a: float, b: float, max_freq: float):
    """Composite GL grid resolving exp(i * freq * x) up to max_freq.

    Panels are one oscillation period long, so a 16-node rule is exact to
    machine precision on each panel for smooth envelopes; the same grid
    serves every frequency below max_freq.
    """
    period = 2.0 * np.pi / max(max_freq, 1e-12)
    n_panels = max(8, int(np.ceil((b - a) / period)))
    edges = np.linspace(a, b, n_panels + 1)
    x0, w0 = _leggauss(16)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    nodes = (centers[:, None] + half * x0[None, :]).ravel()
    weights = np.broadcast_to(half * w0, (n_panels, 16)).ravel()
    return nodes, weights


def box_intersection(box_a, box_b):
    """Intersection of two axis-aligned boxes, or None when empty."""
    lo = np.maximum(np.asarray(box_a[0], float), np.asarray(box_b[0], float))
    hi = np.minimum(np.asarray(box_a[1], float), np.asarray(box_b[1], float))
    if np.any(lo >= hi):
        return None
    return lo, hi


def bounding_radius(box) -> float:
    lo, hi = box
    corners = np.stack(np.meshgrid(*[(lo[i], hi[i]) for i in range(3)],
                                   indexing="ij"), axis=-1).reshape(-1, 3)
    return float(np.max(np.linalg.norm(corners, axis=1)))
