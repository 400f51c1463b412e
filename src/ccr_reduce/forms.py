"""Sesquilinear form, symplectic form, scalar product, and Weyl words.

The central object is B(f1, f2) = integral d^3k conj(a1) a2 over momentum
space; the symplectic form is Omega = -2 Im B and the vacuum scalar product
is mu = Re B.  A pair of chain groups, in its relative frame, whose terms are
Gaussians behind rotations and translations is an exact 3D Gaussian integral;
with boosted terms only the radial integral along each ray is exact, and
the directions are integrated numerically.  An integrand that is no
Gaussian along rays, such as a ring mean, is integrated over a ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MassMismatchError, NegativeFormError
from .groups import apply_group, relative_chains
from .modes import FieldVector, add, fold, on_chain, scale
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, ShellFactory, adaptive_sphere,
                         adaptive_spherical, bounding_radius)
from .specfun import faddeeva

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

    M = Lam M0 Lam^T and b = Lam b0 with Lam the spatial block of the fold's
    forward map, and phi = phase[1:].  None for a boosted chain, whose
    frequency factor is not Gaussian-affine.
    """
    base = term.base
    M, b, phi = np.diag(1.0 / base.width**2), base.center, np.zeros(3)
    if term.chain:
        f = fold(term.chain)
        if f.boosted:
            return None
        lam = f.forward[1:, 1:]
        M, b, phi = lam @ M @ lam.T, lam @ b, f.phase[1:]
    return base.coeff, M, b, phi


def _affine_pair(f1: FieldVector, f2: FieldVector):
    """Both fields' terms folded by _affine_of_term, or None if a term is boosted."""
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


class _Workspace(dict):
    """Flat buffers per (dtype, slot), viewed at a block's shape and grown to powers of two."""

    def views(self, dtype, shape, slots: range) -> list:
        n = math.prod(shape)
        for i in slots:
            if self.get((dtype, i), np.empty(0)).size < n:
                self[dtype, i] = np.empty(1 << (n - 1).bit_length(), dtype)
        return [self[dtype, i][:n].reshape(shape) for i in slots]


# from |z| = 8 on the bracket of _radial_moment is (1 / 2z) sum_k k s_k z^(-2k),
# s_k = (-1)^k (2k - 1)!! / 2^k; k <= 40 (polyval order in z^-2) reaches 1e-23
_ASYMPTOTIC_COEFFS = [k * math.prod((1 - 2 * j) / 2 for j in range(1, k + 1))
                      for k in range(40, 0, -1)]


def _radial_moment(P, m, theta, base=0.0, ws=None):
    """e^base int_0^inf r^2 exp(-P (r - m)^2 + i theta r) dr, elementwise for P > 0.

    With z = a + ib = sqrt(P) m + i theta / (2 sqrt(P)), poly = (sqrt(pi) / 4)(1 + 2 z^2)
    and the Faddeeva function w it is e^base / (P sqrt(P)) times
    e^(-a^2) (z / 2 + sign poly w(-sign iz)) + [m > 0] 2 poly e^(z^2 - a^2),
    sign = -1 for m > 0 and +1 otherwise, by the reflection w(-iz) = 2 e^(z^2) - w(iz):
    w is only taken in the upper half plane, where |w| <= 1.  The bracket is
    -sign (zt / 2 - poly w(i zt)), zt = -sign z, and from |z| = 8 on, where it
    cancels badly, comes from its asymptotic series.  P, m and base broadcast
    against theta; temporaries and result are views into the _Workspace ws.
    """
    ws = _Workspace() if ws is None else ws
    shape = np.broadcast(P, m, theta, base).shape
    s, a, b, e, sign, t1, t2 = ws.views(float, shape, range(3, 10))
    zt, val, poly, scratch = ws.views(complex, shape, range(4))
    np.multiply(np.sqrt(P, out=s), m, out=a)
    np.divide(0.5 * theta, s, out=b)
    # sign holds -sign, and zt = |a| + i sign b
    outward = np.greater(m, 0.0)
    np.subtract(np.multiply(outward, 2.0, out=sign), 1.0, out=sign)
    np.abs(a, out=zt.real)
    np.multiply(sign, b, out=zt.imag)
    faddeeva(np.multiply(zt, 1j, out=val), out=val, scratch=(poly, scratch))
    np.multiply(np.square(zt, out=poly), 0.5 * np.sqrt(np.pi), out=poly)
    poly += 0.25 * np.sqrt(np.pi)
    np.subtract(np.multiply(zt, 0.5, out=scratch), np.multiply(poly, val, out=val), out=val)
    idx = np.flatnonzero(np.add(np.square(a, out=e), np.square(b, out=t1), out=t2) >= 64.0)
    if idx.size:
        zk = zt.reshape(-1)[idx]
        np.put(val, idx, np.polyval(_ASYMPTOTIC_COEFFS, zk**-2) / (2.0 * zk**3))
    # times sign e^(base - a^2) / (P s), with P s in s
    np.exp(np.subtract(base, e, out=e), out=e)
    e /= np.multiply(s, P, out=s)
    np.multiply(val, np.multiply(e, sign, out=e), out=val)
    idx = np.flatnonzero(outward)
    if idx.size:
        # plus 2 poly e^(base - b^2 + 2iab) / (P s), gathered on the m > 0 entries
        ex, pk, psk = (x.reshape(-1)[:idx.size] for x in (scratch, zt, e))
        np.take(np.subtract(base, t1, out=t1).reshape(-1), idx, out=ex.real)
        np.take(np.multiply(a, b, out=t2).reshape(-1), idx, out=ex.imag)
        ex.imag *= 2.0
        np.multiply(np.exp(ex, out=ex), np.take(poly.reshape(-1), idx, out=pk), out=ex)
        ex *= np.divide(2.0, np.take(s.reshape(-1), idx, out=psk), out=psk)
        np.put(val, idx, np.add(np.take(val.reshape(-1), idx, out=pk), ex, out=pk))
    return val


def _ray_integrals(rows1, rows2, ws):
    """Per direction d, the integral over r >= 0 of r^2 conj(a1(r d)) a2(r d).

    rows1 and rows2 are FieldVector.on_rays rows on the same directions.
    Each pair of Gaussians is conj(c1) c2 exp(lead1 + lead2 - q) times
    exp(-P (r - m)^2 + i Theta r), with P = h1 + h2,
    m = (h1 r01 + h2 r02) / P, q = h1 h2 (r01 - r02)^2 / P and
    Theta = theta2 - theta1, so its radial integral is _radial_moment's
    closed form, taken in the _Workspace ws.  A factor of the integrand that
    depends on d alone, or a phase linear in r, can be folded into a row's
    lead or theta.
    """
    total = 0.0
    for c1, h1, r01, lead1, th1 in rows1:
        hr1 = (h1 * r01)[:, None]
        c1, h1, r01, lead1 = (x[:, None] for x in (c1, h1, r01, lead1))
        for c2, h2, r02, lead2, th2 in rows2:
            P, m, base = ws.views(float, h1.shape[:1] + h2.shape, range(3))
            np.add(np.multiply(h2, r02, out=m), hr1, out=m)
            m /= np.add(h1, h2, out=P)
            np.square(np.subtract(r01, r02, out=base), out=base)
            np.divide(np.multiply(np.multiply(base, h1, out=base), h2, out=base), P, out=base)
            np.add(np.subtract(lead2, base, out=base), lead1, out=base)
            val = _radial_moment(P, m, th2 - th1, base, ws)
            cc = (np.conj(c1) * c2).reshape(-1)
            total = total + (cc @ val.reshape(cc.size, -1)).reshape(h2.shape[1:])
    return total


def _sphere_form(pair_rows, f1: FieldVector, f2: FieldVector,
                 quad: QuadratureConfig) -> FormValue:
    """The sphere integral of _ray_integrals(*pair_rows(D)), from the on_rays rows of a pair.

    The ladder of quadrature.adaptive_sphere is sized from the pair, whose
    amplitudes are those of f1 and f2 as functions of the direction.  A term
    of smallest width w and centre c, whose chain's fold stretches |k| by at
    most s, subtends at least w / (s max(|c|, w)) at k = 0: a boost moves
    the centre by up to a factor s but keeps the transverse width.  The
    phase of the integrand has a frequency of at most the sum, over both
    fields, of the largest |spatial part| of a term's phase covector, and it
    turns by that times R over the sphere, with R the largest s (|c| + w).
    One _Workspace holds the kernel's arrays for every block and level.
    """
    angle, reach, freq = np.inf, 0.0, 0.0
    for f in (f1, f2):
        for t in f.terms:
            s = fold(t.chain).stretch
            w, c = float(np.min(t.base.width)), float(np.linalg.norm(t.base.center))
            angle = min(angle, w / s / max(c, w))
            reach = max(reach, s * (c + w))
        freq += max(np.linalg.norm(fold(t.chain).phase[1:]) for t in f.terms)
    ws = _Workspace()
    return FormValue(*adaptive_sphere(lambda D: _ray_integrals(*pair_rows(D), ws), quad, angle,
                                      freq * reach))


def _ball_form(shells: ShellFactory, f1: FieldVector, f2: FieldVector,
               quad: QuadratureConfig) -> FormValue:
    """Spherical-grid integral of a product of f1 and f2 amplitudes over a ball.

    shells is the per-level factory of quadrature.adaptive_spherical, which
    pulls each field's chains back once per level (FieldVector.on_rays).
    The ball has the smaller of the fields' support-box corner radii, and
    the ladder is sized by the narrower field's min_width.
    """
    r_max = min(bounding_radius(f.support_box()) for f in (f1, f2))
    val, err = adaptive_spherical(shells, r_max, quad, min(f1.min_width(), f2.min_width()))
    return FormValue(val, err)


def _pair_form(f1: FieldVector, f2: FieldVector, quad: QuadratureConfig) -> FormValue:
    """B(f1, f2) of non-zero fields: closed form without boosts, else by _sphere_form.

    _sphere_form takes each ray's radial integral in closed form and the
    directions on an adaptive angular ladder with an error estimate.
    """
    folded = _affine_pair(f1, f2)
    if folded is not None:
        aff1, aff2 = folded
        total = 0.0 + 0.0j
        for a1 in aff1:
            for a2 in aff2:
                total += _closed_pair(a1, a2)
        return FormValue(total, _CLOSED_FORM_EPS * (abs(total) + 1.0))
    return _sphere_form(lambda D: (f1.on_rays(D), f2.on_rays(D)), f1, f2, quad)


def bform(f1: FieldVector, f2: FieldVector,
          quad: QuadratureConfig = DEFAULT_CONFIG) -> FormValue:
    """B(f1, f2) = integral of conj(a1) a2 over momentum space.

    B sums over pairs of chain groups (FieldVector.by_chain), each taken in
    its relative frame (groups.relative_chains) by _pair_form; values and
    error estimates add.
    """
    if f1.mass != f2.mass:
        raise MassMismatchError(f"form of fields with masses {f1.mass} and {f2.mass}")
    value, error = 0.0 + 0.0j, 0.0
    for c1, bases1 in f1.by_chain:
        for c2, bases2 in f2.by_chain:
            r1, r2 = relative_chains(c1, c2)
            b = _pair_form(FieldVector(f1.mass, tuple(on_chain(p, r1) for p in bases1)),
                           FieldVector(f1.mass, tuple(on_chain(p, r2) for p in bases2)), quad)
            value, error = value + b.value, error + b.error_estimate
    return FormValue(value, error)


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
    lhs = mu(f1, apply_group(g, apply_A(f2)), quad).value
    rhs = 0.5 * omega(f1, apply_group(g, f2), quad).value
    return lhs, rhs
