"""Zeroth-order Bessel and Hankel functions, self-contained.

Power series in 80-bit extended precision below the seam, Hankel asymptotic
expansion with optimal truncation above it, and an oscillation-damped
evaluation of the integral representation

    H0_2(x) = -(1/(pi i)) * integral exp(-i x cosh s) ds over the real line,

whose tails are rotated into the lower half plane where cosh supplies
exponential damping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import gl_nodes

SEAM = 16.0
_EULER = np.longdouble("0.57721566490153286060651209008240")
_LD_EPS = np.longdouble(1e-26)


@dataclass(frozen=True)
class SpecialFunctionResult:
    value: complex
    method: str
    error_estimate: float
    flags: tuple = ()


def _j0_series(x: float) -> float:
    xl = np.longdouble(x)
    q = xl * xl / 4
    term = np.longdouble(1.0)
    s = term
    m = 0
    while True:
        m += 1
        term = -term * q / (m * m)
        s += term
        if m > 4 and abs(term) < _LD_EPS * max(abs(s), np.longdouble(1.0)):
            break
    return float(s)


def _y0_series(x: float) -> float:
    xl = np.longdouble(x)
    q = xl * xl / 4
    term = np.longdouble(1.0)
    h = np.longdouble(0.0)
    s = np.longdouble(0.0)
    m = 0
    while True:
        m += 1
        term = -term * q / (m * m)   # (-1)^m q^m / (m!)^2
        h += 1 / np.longdouble(m)
        contrib = -term * h          # harmonic-weighted series carries (-1)^{m+1}
        s += contrib
        if m > 4 and abs(contrib) < _LD_EPS * max(abs(s), np.longdouble(1.0)):
            break
    j0 = np.longdouble(_j0_series(x))
    return float(2.0 / np.pi * ((np.log(xl / 2) + _EULER) * j0 + s))


def _hankel2_asymptotic(x: float):
    """H0_2 by the large-argument expansion, truncated at the smallest term.

    Returns (value, error_estimate); the estimate is the magnitude of the
    first omitted term, the standard bound for this asymptotic series.
    """
    a = 1.0
    s = 0.0 + 0.0j
    prev = np.inf
    err = np.inf
    for k in range(60):
        t = a * (-1j / x) ** k
        if abs(t) >= prev:
            err = abs(t)
            break
        s += t
        prev = abs(t)
        err = prev
        a *= -((2 * (k + 1) - 1) ** 2) / (8.0 * (k + 1))
    amp = np.sqrt(2.0 / (np.pi * x))
    return amp * np.exp(-1j * (x - np.pi / 4)) * s, amp * err


def bessel_j0(x: float) -> float:
    """J0(x) for x >= 0; absolute error below 1e-12 across the seam."""
    x = float(x)
    if not np.isfinite(x):
        raise DomainError("bessel_j0 requires a finite argument")
    x = abs(x)
    if x < SEAM:
        return _j0_series(x)
    return _hankel2_asymptotic(x)[0].real


def bessel_y0(x: float) -> float:
    """Y0(x) for x > 0 (logarithmic at the origin)."""
    x = float(x)
    if x <= 0.0:
        raise DomainError("bessel_y0 requires x > 0")
    if x < SEAM:
        return _y0_series(x)
    return -_hankel2_asymptotic(x)[0].imag


def hankel2_0(x: float) -> complex:
    """Zeroth-order Hankel function of the second kind, J0 - i Y0."""
    x = float(x)
    if x <= 0.0:
        raise DomainError("hankel2_0 requires x > 0")
    if x < SEAM:
        return complex(_j0_series(x), -_y0_series(x))
    return complex(_hankel2_asymptotic(x)[0])


def cosh_phase_integral(x: float, node_factor: float = 1.0):
    """integral exp(-i x cosh s) ds over the real line, x > 0.

    The integrand does not decay on the real axis; beyond +-s0 the path turns
    by -pi/4 into the lower half plane, where Im cosh < 0 gives rapid decay.
    The turn happens where the phase x*cosh(s) reaches a fixed budget, so
    small x push s0 outward (at most to 12); the central node count
    resolves the phase up to the turn and is scaled by node_factor.
    Returns (value, truncation_estimate).
    """
    s0 = min(max(2.5, float(np.log(90.0 / x))), 12.0)
    n_center = int(min(max(96, 8 * x * np.cosh(s0) / np.pi + 16), 6000))
    s, w = gl_nodes(max(64, int(n_center * node_factor)), -s0, s0)
    central = np.sum(w * np.exp(-1j * x * np.cosh(s)))
    t, wt = gl_nodes(160, 0.0, 4.2)
    rot = np.exp(-1j * np.pi / 4)
    tail = np.sum(wt * np.exp(-1j * x * np.cosh(s0 + t * rot))) * rot
    # the s < 0 tail equals the s > 0 tail because cosh is even
    end_mag = float(np.abs(np.exp(-1j * x * np.cosh(s0 + 4.2 * rot))))
    return central + 2.0 * tail, end_mag


def hankel2_0_integral(x: float) -> SpecialFunctionResult:
    """H0_2(x) from its integral representation with oscillation-aware tails.

    The error estimate compares the rule with one on 0.7 times the central
    nodes and adds the truncation at the end of the damped tails.  Arguments
    below 0.1 converge slowly and are flagged.
    """
    x = float(x)
    if x <= 0.0:
        raise DomainError("hankel2_0_integral requires x > 0")
    flags = ()
    if x < 0.1:
        flags = ("slow-convergence",)
    fine, trunc = cosh_phase_integral(x)
    coarse, _ = cosh_phase_integral(x, 0.7)
    value = -(1.0 / (np.pi * 1j)) * fine
    err = abs(fine - coarse) / np.pi + trunc / np.pi
    return SpecialFunctionResult(complex(value), "integral", float(err), flags)
