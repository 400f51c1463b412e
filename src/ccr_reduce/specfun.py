"""Zeroth-order Bessel and Hankel functions and the Faddeeva function, self-contained.

Power series in 80-bit extended precision below the seam, Hankel asymptotic
expansion with optimal truncation above it, and an oscillation-damped
evaluation of the integral representation

    H0_2(x) = -(1/(pi i)) * integral exp(-i x cosh s) ds over the real line,

whose tails are rotated into the lower half plane where cosh supplies
exponential damping.  The Faddeeva function w(z) = exp(-z^2) erfc(-iz) is
Weideman's rational expansion (SIAM J. Numer. Anal. 31(5), 1994).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _series(x: float):
    """(J0(x), Y0(x)) for x > 0 from their power series in one long-double pass.

    Both series share the terms (-1)^m q^m / (m!)^2 with q = x^2 / 4; Y0's
    carries the harmonic numbers H_m and the sign (-1)^(m+1).
    """
    xl = np.longdouble(x)
    q = xl * xl / 4
    one = np.longdouble(1.0)
    term = one
    j0 = one
    h = np.longdouble(0.0)
    s = np.longdouble(0.0)
    m = 0
    while True:
        m += 1
        term = -term * q / (m * m)   # (-1)^m q^m / (m!)^2
        h += one / m
        j0 += term
        s -= term * h
        if (m > 4 and abs(term) < _LD_EPS * max(abs(j0), one)
                and abs(term * h) < _LD_EPS * max(abs(s), one)):
            break
    return float(j0), float(2.0 / np.pi * ((np.log(xl / 2) + _EULER) * j0 + s))


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
    """J0(x), the real part of hankel2_0 (J0 is even and J0(0) = 1)."""
    x = float(x)
    if not np.isfinite(x):
        raise DomainError("bessel_j0 requires a finite argument")
    return 1.0 if x == 0.0 else hankel2_0(abs(x)).real


def bessel_y0(x: float) -> float:
    """Y0(x) for x > 0 (logarithmic at the origin), minus the imaginary part of hankel2_0."""
    x = float(x)
    if x <= 0.0:
        raise DomainError("bessel_y0 requires x > 0")
    return -hankel2_0(x).imag


def hankel2_0(x: float) -> complex:
    """Zeroth-order Hankel function of the second kind, J0 - i Y0."""
    x = float(x)
    if x <= 0.0:
        raise DomainError("hankel2_0 requires x > 0")
    if x < SEAM:
        j0, y0 = _series(x)
        return complex(j0, -y0)
    return complex(_hankel2_asymptotic(x)[0])


def cosh_phase_integral(x: float, node_factor: float = 1.0):
    """integral exp(-i x cosh s) ds over the real line, x > 0.

    The integrand does not decay on the real axis; beyond +-s0 the path turns
    by -pi/4 into the lower half plane, where Im cosh < 0 gives rapid decay.
    The turn happens where the phase x*cosh(s) reaches a fixed budget, so
    small x push s0 outward (at most to 12); the central node count
    resolves the phase up to the turn, is rounded up to the ladder
    96 * 2^(k/2), so that nearby arguments share one rule, and is scaled by
    node_factor.  Returns (value, truncation_estimate).
    """
    s0 = min(max(2.5, float(np.log(90.0 / x))), 12.0)
    rung = np.ceil(2 * np.log2(max(1.0, (8 * x * np.cosh(s0) / np.pi + 16) / 96)))
    n_center = min(int(96 * 2 ** (rung / 2)), 6000)
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


# Weideman's expansion of order N: w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz))
# with Z = (L + iz) / (L - iz) and p the polynomial whose coefficients are the
# cosine transform of exp(-t^2) (L^2 + t^2) on the 2N nodes t = L tan(theta / 2)
_W_ORDER = 32
_W_L = np.sqrt(_W_ORDER / np.sqrt(2.0))


@lru_cache(maxsize=1)
def _weideman_coefficients() -> np.ndarray:
    """Coefficients of p, highest degree first: a cosine sum (no FFT), built at first use."""
    m = 2 * _W_ORDER
    theta = np.pi * np.arange(1 - m, m) / m
    t = _W_L * np.tan(0.5 * theta)
    f = np.exp(-t * t) * (_W_L**2 + t * t)
    a = np.cos(np.outer(np.arange(1, _W_ORDER + 1), theta)) @ f / (2 * m)
    return a[::-1]


def faddeeva(z, out=None, scratch=None):
    """w(z) = exp(-z^2) erfc(-iz), elementwise on complex arrays with Im z >= 0.

    The expansion holds in the closed upper half plane, where |w| <= 1.
    Below it, callers reflect: w(z) = 2 exp(-z^2) - w(-z).  out (which may
    be z) and scratch, two arrays of z's shape, are allocated when not given.
    """
    z = np.asarray(z, dtype=complex)
    den, Z = scratch if scratch is not None else (np.empty_like(z), np.empty_like(z))
    np.add(np.multiply(z, -1j, out=den), _W_L, out=den)
    np.divide(np.add(np.multiply(z, 1j, out=Z), _W_L, out=Z), den, out=Z)
    coeffs = 2.0 * _weideman_coefficients()  # Horner on 2 p, in place
    p = np.multiply(Z, coeffs[0], out=np.empty_like(z) if out is None else out)
    p += coeffs[1]
    for a in coeffs[2:]:
        p *= Z
        p += a
    p *= np.reciprocal(den, out=den)  # 2 p / den^2 + 1 / (sqrt(pi) den), in two steps
    p += 1.0 / np.sqrt(np.pi)
    p *= den
    return p if p.ndim else p[()]
