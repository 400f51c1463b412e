"""Group elements, the Haar scale, and actions on field amplitudes.

Two groups are implemented: S^1 acting by rotations about the z axis (any
mass), and Z x R^2 acting on the massless theory by discrete x-translations
by multiples of 2*pi, boosts along y, and z-translations.  Both act on
amplitudes by

    (Phi_g a)(k) = exp(i theta_g(k)) sqrt(w(L_g^-1 k) / w(k)) a(L_g^-1 k),

with theta_g(k) = 2*pi*n*k_x + beta*k_z and L_g the momentum map (a rotation,
or the hyperbolic rotation of (w, k_y)).  The square-root factor keeps the
invariant measure d^3k / 2w fixed, which is what makes the symplectic form
and the vacuum inner product invariant.  No momentum map takes a mass:
rotations keep |k|, and boosts act on the massless field only, so the
boost uses w = |k|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GroupMismatchError
from .modes import FieldVector, GaussianPacket, TransformedPacket, momentum_norm

TWO_PI = 2.0 * np.pi


def _rotation_matrix(angle) -> np.ndarray:
    """Rotation about z; an array of angles gives a stack of shape angle.shape + (3, 3)."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.zeros(np.shape(angle) + (3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 1, 0], R[..., 1, 1] = c, -s, s, c
    R[..., 2, 2] = 1.0
    return R


def _turn(angle, kx, ky, kz, w):
    c, s = np.cos(angle), np.sin(angle)
    return c * kx - s * ky, s * kx + c * ky, kz, w


def _stacked(move, K) -> np.ndarray:
    """A component map (pull_back or push_forward) applied to stacked momenta (..., 3)."""
    K = np.asarray(K, float)
    return np.stack(move(K[..., 0], K[..., 1], K[..., 2], None)[:3], axis=-1)


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

    def phase_at(self, kx, ky, kz):
        return None

    def matrix(self) -> np.ndarray:
        return _rotation_matrix(self.angle)

    def pull_back(self, kx, ky, kz, w):
        """Components of R^-1 k = R^T k; |k| = w is unchanged (None stays None)."""
        return _turn(-self.angle, kx, ky, kz, w)

    def push_forward(self, kx, ky, kz, w):
        return _turn(self.angle, kx, ky, kz, w)

    def inverse_momentum_map(self, K):
        return _stacked(self.pull_back, K)

    def forward_momentum_map(self, K):
        return _stacked(self.push_forward, K)

    def affine_parts(self):
        return _rotation_matrix(self.angle), np.zeros(3)

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

    @property
    def involves_boost(self) -> bool:
        return self.alpha != 0.0

    def total_rapidity(self) -> float:
        return self.alpha

    def phase_vector(self):
        return np.array([TWO_PI * self.n, 0.0, self.beta])

    def phase_at(self, kx, ky, kz):
        """theta_g(k) = 2 pi n k_x + beta k_z, or None when both terms vanish."""
        if self.n == 0 and self.beta == 0.0:
            return None
        return TWO_PI * self.n * kx + self.beta * kz

    def _boost(self, kx, ky, kz, w, sign: float):
        # k_y -> k_y cosh(alpha) + sign |k| sinh(alpha); the new |k| comes back with it
        if self.alpha == 0.0:
            return kx, ky, kz, w
        if w is None:
            w = momentum_norm(kx, ky, kz)
        ky = ky * np.cosh(self.alpha) + sign * w * np.sinh(self.alpha)
        return kx, ky, kz, momentum_norm(kx, ky, kz)

    def pull_back(self, kx, ky, kz, w):
        """Components of L^-1 k and its |k|, given w = |k| (or None to compute it)."""
        return self._boost(kx, ky, kz, w, +1.0)

    def push_forward(self, kx, ky, kz, w):
        return self._boost(kx, ky, kz, w, -1.0)

    def inverse_momentum_map(self, K):
        return _stacked(self.pull_back, K)

    def forward_momentum_map(self, K):
        return _stacked(self.push_forward, K)

    def affine_parts(self):
        if self.alpha != 0.0:
            return None
        return np.eye(3), self.phase_vector()

    def is_identity(self) -> bool:
        return self.n == 0 and abs(self.alpha) <= 1e-15 and abs(self.beta) <= 1e-15

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
    on a massive field); other actions work for any mass.  Terms that shared
    a chain share the extended one, so FieldVector.amplitude still maps
    them once.
    """
    if g.is_identity():
        return f

    new_terms = []
    for t in f.terms:
        if isinstance(g, RotationElement) and not t.chain and t.width[0] == t.width[1]:
            # xy-isotropic Gaussian: rotating the center is exact
            new_terms.append(GaussianPacket(g.matrix() @ t.center, t.width, t.coeff))
        else:
            new_terms.append(TransformedPacket(t.base, (g,) + t.chain))
    return FieldVector(f.mass, tuple(new_terms))
