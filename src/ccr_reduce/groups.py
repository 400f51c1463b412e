"""Group elements and their actions on field amplitudes.

Two groups are implemented: S^1 acting by rotations about the z axis (any
mass), and Z x R^2 acting on the massless theory by discrete x-translations
by multiples of 2*pi, boosts along y, and z-translations.  Both lie in the
Poincare group: g.poincare() returns the Lorentz matrix L_g on the massless
4-momentum (|k|, k) (a rotation of (k_x, k_y), or the hyperbolic rotation of
(|k|, k_y)) and the phase vector t_g = (2*pi*n, 0, beta), and g acts by

    (Phi_g a)(k) = exp(i t_g . k) sqrt(w(L_g^-1 k) / w(k)) a(L_g^-1 k).

The square-root factor keeps the invariant measure d^3k / 2w fixed, which
is what makes the symplectic form and the vacuum inner product invariant.
A chain of actions is one Lorentz matrix and one phase covector (modes.fold).
Rotations keep |k| and boosts act on the massless field only, so no
momentum map takes a mass.
Elements of one kind compose by adding their parameters, and the vacuum is
invariant: B(Phi_a x, Phi_b y) = B(x, Phi_{a^-1 b} y).  apply_group and
relative_chains are the one place that decides a pair's frame from this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GroupMismatchError
from .modes import FieldVector, fold, lorentz_map, on_chain

TWO_PI = 2.0 * np.pi


def _rotation_matrix(angle) -> np.ndarray:
    """Rotation about z; an array of angles gives a stack of shape angle.shape + (3, 3)."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.zeros(np.shape(angle) + (3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1] = c, -s, s, c
    R[..., 2, 2] = 1.0
    return R


@dataclass(frozen=True)
class RotationElement:
    """Rotation about the z axis by `angle`, taken mod 2*pi."""

    angle: float

    def __post_init__(self):
        if not np.isfinite(float(self.angle)):
            raise ValueError("rotation angle must be finite")
        object.__setattr__(self, "angle", float(self.angle) % TWO_PI)

    def poincare(self):
        """(L, t): the Lorentz matrix on (|k|, k_x, k_y, k_z) and the phase vector (zero)."""
        L = np.eye(4)
        L[1:, 1:] = _rotation_matrix(self.angle)
        return L, np.zeros(3)

    def is_identity(self) -> bool:
        return self.angle <= 1e-15 or TWO_PI - self.angle <= 1e-15

    def to_json(self) -> dict:
        return {"kind": "rotation", "angle": float(self.angle)}


@dataclass(frozen=True)
class BHPElement:
    """Element (n, alpha, beta) of Z x R^2.

    n counts x-translations by 2*pi, alpha is the y-boost rapidity, beta the
    z-translation.  Composition is componentwise addition.
    """

    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        if not np.all(np.isfinite([float(self.n), float(self.alpha), float(self.beta)])):
            raise ValueError("BHP element n, alpha and beta must be finite")
        if float(self.n) != int(self.n):
            raise ValueError("BHP element n must be an integer")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))

    def poincare(self):
        """(L, t): the boost of (|k|, k_y) by alpha, and the phase vector (2 pi n, 0, beta)."""
        ch, sh = np.cosh(self.alpha), np.sinh(self.alpha)
        L = np.eye(4)
        L[0, 0] = L[2, 2] = ch
        L[0, 2] = L[2, 0] = -sh
        return L, np.array([TWO_PI * self.n, 0.0, self.beta])

    def inverse_momentum_map(self, K):
        return lorentz_map(fold((self,)).pull, K)

    def forward_momentum_map(self, K):
        return lorentz_map(fold((self,)).forward, K)

    def is_identity(self) -> bool:
        return self.n == 0 and abs(self.alpha) <= 1e-15 and abs(self.beta) <= 1e-15

    def to_json(self) -> dict:
        return {"kind": "bhp", "n": self.n, "alpha": self.alpha, "beta": self.beta}


GroupElement = Union[RotationElement, BHPElement]


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    if isinstance(g1, RotationElement) and isinstance(g2, RotationElement):
        return RotationElement(g1.angle + g2.angle)
    if isinstance(g1, BHPElement) and isinstance(g2, BHPElement):
        return BHPElement(g1.n + g2.n, g1.alpha + g2.alpha, g1.beta + g2.beta)
    raise GroupMismatchError(f"cannot compose {type(g1).__name__} with {type(g2).__name__}")


def inverse(g: GroupElement) -> GroupElement:
    if isinstance(g, RotationElement):
        return RotationElement(-g.angle)
    if isinstance(g, BHPElement):
        return BHPElement(-g.n, -g.alpha, -g.beta)
    raise GroupMismatchError(f"not a group element: {type(g).__name__}")


def _act(g: GroupElement, chain: tuple) -> tuple:
    """Phi_g Phi_chain as a chain: g composed into the outermost elements of its kind.

    An identity is dropped, so chains built by _act never hold two adjacent
    elements of one kind, and a chain read from JSON leaves with a canonical head.
    """
    while chain and type(chain[0]) is type(g):
        g, chain = compose(g, chain[0]), chain[1:]
    return chain if g.is_identity() else (g,) + chain


def apply_group(g: GroupElement, f: FieldVector) -> FieldVector:
    """Act on a field: each term's chain becomes _act(g, chain).

    Boosts require the massless theory (FieldVector rejects a boosted term
    on a massive field); other actions work for any mass.  Terms that shared
    a chain share the new one, so FieldVector.amplitude still maps them once.
    """
    if g.is_identity():
        return f
    return FieldVector(f.mass, tuple(on_chain(t.base, _act(g, t.chain)) for t in f.terms))


def relative_chains(c1: tuple, c2: tuple) -> tuple:
    """The chains of the pair (Phi_c1 x, Phi_c2 y) in its relative frame, where B is the same.

    While both chains open with elements e1 and e2 of one kind, e1 moves to
    the other side as e1^-1 e2.
    """
    while c1 and c2 and type(c1[0]) is type(c2[0]):
        c1, c2 = c1[1:], _act(inverse(c1[0]), c2)
    return c1, c2
