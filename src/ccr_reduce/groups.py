"""Group elements, the Haar scale, and actions on field amplitudes.

Two groups are implemented: S^1 acting by rotations about the z axis (any
mass), and Z x R^2 acting on the massless theory by discrete x-translations
by multiples of 2*pi, boosts along y, and z-translations.  Both act on
amplitudes by

    (Phi_g a)(k) = exp(i theta_g(k)) sqrt(w(L_g^-1 k) / w(k)) a(L_g^-1 k),

with theta_g(k) = 2*pi*n*k_x + beta*k_z and L_g the momentum map (a rotation,
or the hyperbolic rotation of (w, k_y)).  The square-root factor keeps the
invariant measure d^3k / 2w fixed, which is what makes the symplectic form
and the vacuum inner product invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GroupMismatchError
from .modes import FieldVector, GaussianPacket, TransformedPacket, omega_of

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

    @property
    def involves_boost(self) -> bool:
        return False

    def total_rapidity(self) -> float:
        return 0.0

    def phase_vector(self):
        return None

    def matrix(self) -> np.ndarray:
        return _rotation_matrix(self.angle)

    def inverse_momentum_map(self, K, mass: float):
        return np.asarray(K, float) @ _rotation_matrix(self.angle)  # K @ R == R^T K

    def forward_momentum_map(self, K, mass: float):
        return np.asarray(K, float) @ _rotation_matrix(-self.angle)

    def affine_parts(self):
        return _rotation_matrix(self.angle), np.zeros(3)

    def is_identity(self, tol: float = 1e-15) -> bool:
        return self.angle <= tol or TWO_PI - self.angle <= tol

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

    @property
    def involves_boost(self) -> bool:
        return self.alpha != 0.0

    def total_rapidity(self) -> float:
        return self.alpha

    def phase_vector(self):
        return np.array([TWO_PI * self.n, 0.0, self.beta])

    def _boost(self, K, sign: float):
        K = np.asarray(K, float)
        out = np.array(K, copy=True)
        w = omega_of(K, 0.0)
        out[..., 1] = K[..., 1] * np.cosh(self.alpha) + sign * w * np.sinh(self.alpha)
        return out

    def inverse_momentum_map(self, K, mass: float):
        if self.alpha == 0.0:
            return np.asarray(K, float)
        return self._boost(K, +1.0)

    def forward_momentum_map(self, K, mass: float):
        if self.alpha == 0.0:
            return np.asarray(K, float)
        return self._boost(K, -1.0)

    def affine_parts(self):
        if self.alpha != 0.0:
            return None
        return np.eye(3), self.phase_vector()

    def is_identity(self, tol: float = 1e-15) -> bool:
        return self.n == 0 and abs(self.alpha) <= tol and abs(self.beta) <= tol

    def to_json(self) -> dict:
        return {"kind": "bhp", "n": self.n, "alpha": self.alpha, "beta": self.beta}


GroupElement = Union[RotationElement, BHPElement]


def checked_haar_scale(scale: float) -> float:
    """The Haar measure of either group is fixed only up to a positive scale.

    The form averages and null_space_analysis take that scale as
    `haar_scale` (unit scale: total mass one on S^1, counting times
    Lebesgue d(alpha) d(beta) on Z x R^2); a non-finite or non-positive
    scale is rejected here.
    """
    scale = float(scale)
    if not 0.0 < scale < np.inf:
        raise ValueError(f"haar_scale must be finite and positive, got {scale}")
    return scale


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


def apply_group(g: GroupElement, f: FieldVector) -> FieldVector:
    """Act on a field; rotations of xy-isotropic packets stay closed form.

    Boosts require the massless theory (FieldVector rejects a boosted term
    on a massive field); other actions work for any mass.
    """
    if isinstance(g, RotationElement) and g.is_identity():
        return f
    if isinstance(g, BHPElement) and g.is_identity():
        return f

    new_terms = []
    for t in f.terms:
        if (isinstance(g, RotationElement) and isinstance(t, GaussianPacket)
                and t.width[0] == t.width[1]):
            # xy-isotropic Gaussian: rotating the center is exact
            new_terms.append(GaussianPacket(g.matrix() @ t.center, t.width, t.coeff))
        elif isinstance(t, TransformedPacket):
            new_terms.append(TransformedPacket(t.base, (g,) + t.chain))
        else:
            new_terms.append(TransformedPacket(t, (g,)))
    return FieldVector(f.mass, tuple(new_terms))
