"""Sesquilinear form, symplectic form, scalar product, and Weyl words.

The central object is B(f1, f2) = integral d^3k conj(a1) a2 over momentum
space; the symplectic form is Omega = -2 Im B and the vacuum scalar product
is mu = Re B.  For pairs whose terms are Gaussians decorated only by
rotations and translations, B reduces to an exact 3D Gaussian integral;
boosted terms are integrated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .errors import MassMismatchError, NegativeFormError
from .modes import FieldVector, add, scale
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    adaptive_spherical,
    bounding_radius,
    box_intersection,
)

_CLOSED_FORM_EPS = 5e-15


@dataclass(frozen=True)
class FormValue:
    """A computed bilinear-form value with its numerical error estimate."""

    value: complex
    error_estimate: float

    def to_json(self) -> dict:
        v = complex(self.value)
        return {"value": [v.real, v.imag], "error_estimate": float(self.error_estimate)}


@dataclass(frozen=True)
class WeylWord:
    """Formal Weyl-algebra element: a unit-modulus phase times W(vector)."""

    phase: complex
    vector: FieldVector

    def __post_init__(self):
        if abs(abs(complex(self.phase)) - 1.0) > 1e-9:
            raise ValueError("Weyl word phase must have unit modulus")

    def to_json(self) -> dict:
        from .modes import field_to_json

        p = complex(self.phase)
        return {"phase": [p.real, p.imag], "vector": field_to_json(self.vector)}


def _affine_of_term(term):
    """Fold a term into (coeff, M, b, phi) with a(k) = c exp(-(k-b)M(k-b)/2 + i phi.k).

    Returns None when the chain contains a boost, whose frequency factor is
    not Gaussian-affine.
    """
    base = term.base
    M = np.diag(1.0 / base.width**2)
    b = base.center.copy()
    phi = np.zeros(3)
    for g in reversed(term.chain):  # innermost action first
        parts = g.affine_parts()
        if parts is None:
            return None
        lam, theta = parts
        M = lam @ M @ lam.T
        b = lam @ b
        phi = lam @ phi + theta
    return base.coeff, M, b, phi


def _affine_pair(f1: FieldVector, f2: FieldVector):
    """Both fields' terms folded by _affine_of_term, or None if a term is boosted.

    Raises MassMismatchError when the masses differ.
    """
    if f1.mass != f2.mass:
        raise MassMismatchError(f"form of fields with masses {f1.mass} and {f2.mass}")
    aff1 = [_affine_of_term(t) for t in f1.terms]
    aff2 = [_affine_of_term(t) for t in f2.terms]
    if any(a is None for a in aff1 + aff2):
        return None
    return aff1, aff2


def _closed_pair(a1, a2):
    """Exact int d^3k conj(term1) term2 for two affine Gaussian terms.

    The second term may be a stack along a leading axis: with M2 of shape
    (s, 3, 3) and b2, phi2 of shape (s, 3) the result is the array of the
    s integrals of term1 against each stacked term.
    """
    c1, M1, b1, phi1 = a1
    c2, M2, b2, phi2 = a2
    M = M1 + M2
    M2b2 = (M2 @ b2[..., None])[..., 0]
    v = M1 @ b1 + M2b2 + 1j * (phi2 - phi1)
    Minv_v = np.linalg.solve(M, v[..., None])[..., 0]
    expo = 0.5 * np.sum(v * Minv_v, axis=-1) - 0.5 * (b1 @ M1 @ b1 + np.sum(b2 * M2b2, axis=-1))
    return (np.conj(c1) * c2 * (2.0 * np.pi) ** 1.5
            / np.sqrt(np.linalg.det(M)) * np.exp(expo))


def _tail_radius(f1: FieldVector, f2: FieldVector, quad: QuadratureConfig,
                 r_max: float, boost: float = 0.0):
    """Radius R <= r_max of a ball outside which |conj(a1) a2| has mass <= abs_tol / 100.

    Every term obeys |a_t(k)| <= C_t exp(-(e^{-A_t} |k| - |c_t|)_+^2 / 2 w_t^2),
    with c_t the centre and w_t the largest width of its base packet, A_t the
    summed |rapidity| of its action chain and C_t = |coeff_t| e^{A_t / 2}:
    rotations and translations keep |k|, while a y-boost of rapidity alpha
    shrinks |k| by at most e^{-|alpha|} and multiplies the frequency ratio
    by at most e^{|alpha|}.  `boost` is added to every f1 term's A_t, for
    integrands that evaluate f1 at a boosted momentum and carry the square
    root of its frequency ratio.  Beyond max_t |c_t| e^{A_t} each pair
    exponent is an exact square in r, so the mass outside |k| = R has a
    closed form in erfc; R is the bisected smallest radius whose bound
    meets abs_tol / 100.  Returns (R, bound at R); R is r_max, with its
    bound (infinite where no closed form applies), when the target cannot
    be met inside r_max.
    """
    def envelope(f, extra):
        rows = []
        for t in f.terms:
            A = extra + sum(abs(g.total_rapidity()) for g in t.chain)
            rows.append((abs(t.base.coeff) * np.exp(0.5 * A), np.exp(-A),
                         np.linalg.norm(t.base.center), np.max(t.base.width)))
        C, a, c, w = np.array(rows).T
        return C, c / a, a * a / (2.0 * w * w)

    with np.errstate(over="ignore", invalid="ignore"):
        C1, x1, p1 = envelope(f1, boost)
        C2, x2, p2 = envelope(f2, 0.0)
        r_lo = max(np.max(x1), np.max(x2))
    if not r_lo < r_max:
        return r_max, np.inf
    # pair (s, t): p1 (r - x1)^2 + p2 (r - x2)^2 = P (r - m)^2 + q0 for r >= r_lo
    x1, p1, x2, p2 = x1[:, None], p1[:, None], x2[None, :], p2[None, :]
    P = p1 + p2
    m = (p1 * x1 + p2 * x2) / P
    pref = 4.0 * np.pi * np.outer(C1, C2) * np.exp(-p1 * p2 / P * (x1 - x2) ** 2)

    def tail(R):
        # int_R^inf r^2 exp(-P (r - m)^2) dr, with u = r - m >= 0
        u = R - m
        gauss = 0.5 * np.sqrt(np.pi / P) * erfc(np.sqrt(P) * u)
        return float(np.sum(pref * ((m * m + 0.5 / P) * gauss
                                    + (u + 2.0 * m) * np.exp(-P * u * u) / (2.0 * P))))

    target = 1e-2 * quad.abs_tol
    if tail(r_max) > target:
        return r_max, tail(r_max)
    if tail(r_lo) <= target:
        return r_lo, tail(r_lo)
    lo, hi = r_lo, r_max
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if tail(mid) <= target else (mid, hi)
    return hi, tail(hi)


def _ball_bform(integrand, f1: FieldVector, f2: FieldVector, quad: QuadratureConfig,
                r_box: float) -> FormValue:
    """Spherical-grid integral of a product of f1 and f2 amplitudes over a ball.

    Boosts exist only for mass 0, and their frequency ratio is smooth in
    (r, cos theta, phi) though not at k = 0.  The radius is the smaller of
    r_box, a bound on the support, and the radius from _tail_radius.
    """
    wmin = max(min(f1.min_width(), f2.min_width()), 1e-3)
    r_max, _ = _tail_radius(f1, f2, quad, r_box)
    nr = int(np.clip(3.0 * r_max / wmin, 48, 240))
    val, err = adaptive_spherical(integrand, r_max, quad,
                                  base_counts=(nr, 48, 96),
                                  max_counts=(300, 220, 440))
    return FormValue(val, err)


def _numeric_bform(f1: FieldVector, f2: FieldVector, quad: QuadratureConfig) -> FormValue:
    """B(f1, f2) by _ball_bform in the corner radius of the support-box intersection."""
    boxes1 = f1.term_boxes()
    boxes2 = f2.term_boxes()
    pieces = [box_intersection(b1, b2) for b1 in boxes1 for b2 in boxes2]
    pieces = [p for p in pieces if p is not None]
    if not pieces:
        return FormValue(0.0 + 0.0j, 1e-15)
    lo = np.min([p[0] for p in pieces], axis=0)
    hi = np.max([p[1] for p in pieces], axis=0)

    def integrand(K):
        return np.conj(f1.amplitude(K)) * f2.amplitude(K)

    return _ball_bform(integrand, f1, f2, quad, bounding_radius((lo, hi)))


def bform(f1: FieldVector, f2: FieldVector,
          quad: QuadratureConfig = DEFAULT_CONFIG) -> FormValue:
    """B(f1, f2) = integral of conj(a1) a2 over momentum space.

    Closed form whenever both fields are free of boosts; otherwise adaptive
    quadrature with an error estimate.
    """
    folded = _affine_pair(f1, f2)
    if f1.is_zero or f2.is_zero:
        return FormValue(0.0 + 0.0j, 0.0)
    if folded is not None:
        aff1, aff2 = folded
        total = 0.0 + 0.0j
        for a1 in aff1:
            for a2 in aff2:
                total += _closed_pair(a1, a2)
        return FormValue(total, _CLOSED_FORM_EPS * (abs(total) + 1.0))
    return _numeric_bform(f1, f2, quad)


def omega(f1: FieldVector, f2: FieldVector,
          quad: QuadratureConfig = DEFAULT_CONFIG) -> FormValue:
    """Symplectic form Omega = -2 Im B.  Antisymmetric; Omega(f, f) = 0."""
    b = bform(f1, f2, quad)
    return FormValue(-2.0 * complex(b.value).imag, 2.0 * b.error_estimate)


def mu(f1: FieldVector, f2: FieldVector,
       quad: QuadratureConfig = DEFAULT_CONFIG) -> FormValue:
    """Vacuum scalar product mu = Re B."""
    b = bform(f1, f2, quad)
    return FormValue(complex(b.value).real, b.error_estimate)


def qf_bound_check(f1: FieldVector, f2: FieldVector,
                   quad: QuadratureConfig = DEFAULT_CONFIG):
    """Evaluate both sides of (1/2)|Omega(f1,f2)| <= sqrt(mu11 * mu22).

    Returns (lhs, rhs, holds) with holds = lhs <= rhs * (1 + rel_tol) + abs_tol.
    """
    lhs = 0.5 * abs(omega(f1, f2, quad).value)
    m11 = mu(f1, f1, quad).value
    m22 = mu(f2, f2, quad).value
    rhs = float(np.sqrt(max(m11, 0.0) * max(m22, 0.0)))
    holds = lhs <= rhs * (1.0 + quad.rel_tol) + quad.abs_tol
    return lhs, rhs, holds


def apply_A(f: FieldVector) -> FieldVector:
    """The complex structure: multiply the amplitude by i.

    Satisfies (1/2) Omega(f1, f2) = mu(f1, A f2), A^2 = -1, and skew
    adjointness with respect to mu.
    """
    return scale(f, 1j)


def state_value(mu_diagonal: float) -> float:
    """Quasi-free state on a Weyl generator: exp(-mu(f, f) / 2).

    Rejects negative diagonals beyond roundoff, since that signals a mu that
    is not a scalar product on its argument.
    """
    x = float(mu_diagonal)
    if x < -1e-12:
        raise NegativeFormError(f"mu diagonal must be nonnegative, got {x}")
    return float(np.exp(-0.5 * max(x, 0.0)))


def weyl_multiply(w1: WeylWord, w2: WeylWord,
                  quad: QuadratureConfig = DEFAULT_CONFIG) -> WeylWord:
    """Product rule: phases multiply with the cocycle exp(i Omega(v1,v2)/2)."""
    om = omega(w1.vector, w2.vector, quad).value
    phase = w1.phase * w2.phase * np.exp(0.5j * om)
    return WeylWord(phase, add(w1.vector, w2.vector))


def weyl_star(w: WeylWord) -> WeylWord:
    """Adjoint: W(f)* = W(-f) with conjugated phase."""
    return WeylWord(np.conj(w.phase), scale(w.vector, -1.0))


def weyl_identity(mass: float) -> WeylWord:
    return WeylWord(1.0 + 0.0j, FieldVector(mass, ()))


def commutator_check(f1: FieldVector, g, f2: FieldVector,
                     quad: QuadratureConfig = DEFAULT_CONFIG):
    """Matrix element of [A, Phi_g] between f1 and f2, via two routes.

    Returns (mu(f1, Phi_g A f2), mu(f1, A Phi_g f2)); the second is computed
    as half the symplectic form, so the two sides go through independent
    evaluations and their difference measures the commutator.
    """
    from .groups import apply_group  # deferred to avoid an import cycle

    lhs = mu(f1, apply_group(g, apply_A(f2)), quad).value
    rhs = 0.5 * omega(f1, apply_group(g, f2), quad).value
    return lhs, rhs
