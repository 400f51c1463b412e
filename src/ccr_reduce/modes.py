"""Klein-Gordon solutions represented by positive-frequency momentum amplitudes.

A real solution is encoded by a complex amplitude a(k) on R^3; here a(k) is a
finite combination of axis-aligned Gaussian packets, optionally decorated by
lazily-applied group actions (rotations about z, or discrete x-translations /
y-boosts / z-translations of the massless theory).  Gaussian data keeps every
amplitude Schwartz-class by construction and admits closed-form overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import MassMismatchError
from .quadrature import QuadratureConfig, DEFAULT_CONFIG, adaptive_tensor3, adaptive_spherical, bounding_radius

Array = np.ndarray


def _vec3(x) -> Array:
    return np.asarray(x, dtype=float).reshape(3).copy()


def momentum_norm(kx, ky, kz, mass: float = 0.0):
    """sqrt(|k|^2 + m^2) from the components of k: |k| for the massless field."""
    # explicit sum over the components: numpy's reduce over a (..., 3) axis
    # adds in the same order, but its per-row dispatch dominates on large blocks
    return np.sqrt(kx * kx + ky * ky + kz * kz + mass * mass)


def omega_of(K: Array, mass: float) -> Array:
    """Relativistic frequency sqrt(|k|^2 + m^2) for stacked momenta (..., 3)."""
    K = np.asarray(K)
    return momentum_norm(K[..., 0], K[..., 1], K[..., 2], mass)


class Fold(NamedTuple):
    """An action chain g_1 ... g_m (outermost first) as one map of p = (|k|, k).

    With (L_i, t_i) = g_i.poincare(): pull = L_m^-1 ... L_1^-1, forward =
    L_1 ... L_m, and theta(k) = phase . p with phase = sum_i (L_<i^-1)^T (0, t_i),
    as each element adds its phase at the momentum it receives.  Both maps
    scale |k| by between 1 / stretch and stretch = e^rho, cosh(rho) = pull[0, 0].
    """

    pull: np.ndarray
    forward: np.ndarray
    phase: np.ndarray
    boosted: bool
    stretch: float


@lru_cache(maxsize=4096)
def fold(chain) -> Fold:
    """The chain's Fold, with each L^-1 the matrix of the inverse element, not a computed one."""
    from .groups import inverse  # local import avoids a cycle at module load

    pull, forward, phase, boosted = np.eye(4), np.eye(4), np.zeros(4), False
    for g in chain:
        L, t = g.poincare()
        phase = phase + pull.T @ np.concatenate(([0.0], t))
        pull = inverse(g).poincare()[0] @ pull
        forward = forward @ L
        boosted = boosted or bool(L[0, 1:].any())
    for a in (pull, forward, phase):
        a.setflags(write=False)
    return Fold(pull, forward, phase, boosted, float(pull[0, 0] + np.linalg.norm(pull[0, 1:])))


def _dot(coeffs, comps):
    """sum_j coeffs[j] comps[j] over the nonzero coefficients; a unit one passes its component.

    A component may be None where its coefficient is 0.
    """
    terms = [x if a == 1.0 else a * x for a, x in zip(coeffs, comps) if a != 0.0]
    return sum(terms[1:], terms[0])


def lorentz_apply(M, w, kx, ky, kz):
    """Components of the spatial part of M (w, k_x, k_y, k_z); w may be None if M[1:, 0] is 0."""
    comps = (w, kx, ky, kz)
    return _dot(M[1], comps), _dot(M[2], comps), _dot(M[3], comps)


def lorentz_map(M, K):
    """The spatial part of M (|k|, k) for stacked massless momenta K of shape (..., 3)."""
    K = np.asarray(K, dtype=float)
    kx, ky, kz = K[..., 0], K[..., 1], K[..., 2]
    w = momentum_norm(kx, ky, kz) if M[1:, 0].any() else None
    return np.stack(lorentz_apply(M, w, kx, ky, kz), axis=-1)


def pull_back_chain(chain, kx, ky, kz):
    """Pull the momenta (kx, ky, kz) back through an action chain, as its fold says.

    chain is ordered outermost-first, as in TransformedPacket.  Returns the
    components of L^-1 k, at which the base packets are evaluated, the phase
    theta(k) (None without a phase) and the root sqrt(w(L^-1 k) / w(k)) of
    the frequency ratio (None without a boost; 1 at k = 0, which every map
    fixes).  On a ray k = r d the pulled-back momentum and theta scale with
    r and the root depends on d alone.
    """
    if not chain:
        return kx, ky, kz, None, None
    f = fold(chain)
    w = momentum_norm(kx, ky, kz) if f.boosted else None
    qx, qy, qz = lorentz_apply(f.pull, w, kx, ky, kz)
    theta = _dot(f.phase, (w, kx, ky, kz)) if f.phase.any() else None
    root = (np.sqrt(np.where(w > 0.0, momentum_norm(qx, qy, qz) / np.maximum(w, 1e-300), 1.0))
            if f.boosted else None)
    return qx, qy, qz, theta, root


def map_chain(chain, kx, ky, kz):
    """pull_back_chain with its phase and root folded into one factor.

    Returns the components of L_chain^-1 k and the factor
    exp(i theta) sqrt(w(L^-1 k) / w(k)) that multiplies the base packets
    there, None when the chain has neither a phase nor a boost.
    """
    kx, ky, kz, theta, root = pull_back_chain(chain, kx, ky, kz)
    factor = None if theta is None else np.exp(1j * theta)
    if root is not None:
        factor = root if factor is None else factor * root
    return kx, ky, kz, factor


@dataclass(frozen=True)
class GaussianPacket:
    """Axis-aligned Gaussian momentum amplitude.

    amplitude(k) = coeff * exp(-sum_i (k_i - center_i)^2 / (2 width_i^2)),
    so the peak value equals coeff and decay is faster than any polynomial.
    It is its own base with an empty action chain, the shape every term
    shares with TransformedPacket.
    """

    center: Array
    width: Array
    coeff: complex
    chain = ()

    def __post_init__(self):
        object.__setattr__(self, "center", _vec3(self.center))
        object.__setattr__(self, "width", _vec3(self.width))
        object.__setattr__(self, "coeff", complex(self.coeff))
        if not (np.all(np.isfinite(self.center)) and np.all(np.isfinite(self.width))
                and np.isfinite(self.coeff)):
            raise ValueError("packet center, width and coeff must be finite")
        if np.any(self.width <= 0):
            raise ValueError("packet widths must be strictly positive")

    def amplitude(self, K: Array) -> Array:
        K = np.asarray(K, dtype=float)
        return self.at(K[..., 0], K[..., 1], K[..., 2])

    def at(self, kx, ky, kz) -> Array:
        """The amplitude at the momenta with components kx, ky, kz."""
        (cx, cy, cz), (wx, wy, wz) = self.center, self.width
        dx, dy, dz = (kx - cx) / wx, (ky - cy) / wy, (kz - cz) / wz
        return self.coeff * np.exp(-0.5 * (dx * dx + dy * dy + dz * dz))

    def z_factors(self, kx, ky, kz):
        """The amplitude as X(k_x, k_y) * Z(k_z), with the coefficient in X.

        X has the broadcast shape of kx and ky, and Z the shape of kz.
        """
        dz = (kz - self.center[2]) / self.width[2]
        return self.at(kx, ky, self.center[2]), np.exp(-0.5 * dz * dz)

    def box(self):
        """Ten widths either side of the center: the amplitude is below e^-50 outside."""
        return self.center - 10.0 * self.width, self.center + 10.0 * self.width

    def scaled(self, c: complex) -> "GaussianPacket":
        return GaussianPacket(self.center, self.width, self.coeff * c)

    @property
    def base(self) -> "GaussianPacket":
        return self


@dataclass(frozen=True)
class TransformedPacket:
    """A Gaussian packet with a chain of group actions applied lazily.

    chain is ordered outermost-first: the amplitude is
    (Phi_{g_1} ... Phi_{g_m} base)(k), each action contributing its linear
    phase, its inverse momentum map, and (for boosts) the square root of
    the frequency ratio that keeps the invariant measure d^3k / 2w intact.
    """

    base: GaussianPacket
    chain: tuple

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(self.chain))
        if not self.chain:
            raise ValueError("TransformedPacket requires a nonempty action chain")

    def z_factors(self, kx, ky, kz):
        """The amplitude as X(k_x, k_y) * Z(k_z), for a chain without boosts.

        A boost-free fold turns (k_x, k_y) about the z axis and keeps k_z, so
        its phase splits into its (k_x, k_y) part and phase[3] k_z; a boost
        mixes k_z into the frequency and does not factorise.
        """
        f = fold(self.chain)
        if f.boosted:
            raise ValueError("a boosted term does not factorise into xy and k_z parts")
        # the chain acts on (k_x, k_y, 0), so its phase is the xy phase alone
        qx, qy, _, factor = map_chain(self.chain, kx, ky, 0.0)
        x, z = self.base.z_factors(qx, qy, kz)
        return x if factor is None else x * factor, z * np.exp(1j * f.phase[3] * np.asarray(kz))

    def box(self):
        lo, hi = self.base.box()
        grids = np.meshgrid(*[np.linspace(lo[i], hi[i], 7) for i in range(3)], indexing="ij")
        pts = np.stack(grids, axis=-1).reshape(-1, 3)
        # support of the transformed amplitude is the forward image of the base box
        pts = lorentz_map(fold(self.chain).forward, pts)
        lo_m, hi_m = pts.min(axis=0), pts.max(axis=0)
        pad = 0.12 * (hi_m - lo_m) + 0.3
        return lo_m - pad, hi_m + pad

    def scaled(self, c: complex) -> "TransformedPacket":
        return TransformedPacket(self.base.scaled(c), self.chain)


def on_chain(base: GaussianPacket, chain: tuple):
    """The term Phi_chain base: the base packet itself when the chain is empty."""
    return TransformedPacket(base, chain) if chain else base


@dataclass(frozen=True)
class FieldVector:
    """A linear combination of (possibly transformed) Gaussian packets."""

    mass: float
    terms: tuple = field(default_factory=tuple)
    # the base packets of the terms, grouped by action chain in first-seen order
    by_chain: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not (np.isfinite(self.mass) and self.mass >= 0):
            raise ValueError("mass must be finite and nonnegative")
        groups = {}
        for t in self.terms:
            groups.setdefault(t.chain, []).append(t.base)
        object.__setattr__(self, "by_chain", tuple((c, tuple(b)) for c, b in groups.items()))
        if self.mass != 0.0 and self.has_boost:
            raise MassMismatchError("boosts are implemented for the massless theory only")

    def amplitude(self, K: Array) -> Array:
        """a(k) for stacked momenta K of shape (..., 3); the result has shape (...).

        Each distinct action chain maps the components of K once; the base
        Gaussians behind it are summed at the mapped momenta and only then
        multiplied by the chain's phase and frequency factor.
        """
        K = np.asarray(K, dtype=float)
        kx, ky, kz = K[..., 0], K[..., 1], K[..., 2]
        out = np.zeros(K.shape[:-1], dtype=complex)
        for chain, bases in self.by_chain:
            qx, qy, qz, factor = map_chain(chain, kx, ky, kz)
            part = bases[0].at(qx, qy, qz)
            for b in bases[1:]:
                part = part + b.at(qx, qy, qz)
            out = out + (part if factor is None else part * factor)
        return out

    def on_rays(self, D: Array) -> list:
        """The amplitude on the rays k = r D, as one row per action chain.

        D has shape (..., 3) with nonzero rows, not necessarily unit.  Each
        distinct chain is pulled back once, at D: on a ray its momentum and
        phase scale with r and its frequency root does not move
        (pull_back_chain).  With u = (L^-1 D) / width and v = center / width
        a base Gaussian is then coeff exp(lead - h (r - r0)^2), where
        h = |u|^2 / 2, r0 = u.v / |u|^2 and lead = log(root) - |v - r0 u|^2 / 2,
        and the chain's phase is exp(i r theta(D)).  A row is
        (coeff, h, r0, lead, theta) for the chain's b base packets: coeff has
        shape (b, 1, ..., 1), h, r0 and lead (b,) + D.shape[:-1], and theta
        D.shape[:-1], or is 0.0 when the chain has no phase.  The completed
        square never puts more than the log of the root into an exponent, so
        a narrow packet far from the origin cannot overflow as the expanded
        exp(|v|^2 / 2) would.  rays_at sums the rows on one shell.
        """
        D = np.asarray(D, dtype=float)
        lift = (-1,) + (1,) * (D.ndim - 1)
        rows = []
        for chain, bases in self.by_chain:
            qx, qy, qz, theta, root = pull_back_chain(chain, D[..., 0], D[..., 1], D[..., 2])
            width = np.array([b.width for b in bases]).T.reshape((3,) + lift)
            v = np.array([b.center for b in bases]).T.reshape((3,) + lift) / width
            u = np.stack(np.broadcast_arrays(qx, qy, qz))[:, None] / width
            uu = np.sum(u * u, axis=0)
            r0 = np.sum(u * v, axis=0) / uu
            e = v - r0 * u
            lead = -0.5 * np.sum(e * e, axis=0)
            if root is not None:
                lead = lead + np.log(root)
            coeff = np.array([b.coeff for b in bases]).reshape(lift)
            rows.append((coeff, 0.5 * uu, r0, lead, 0.0 if theta is None else theta))
        return rows

    @property
    def is_zero(self) -> bool:
        return len(self.terms) == 0

    @property
    def has_boost(self) -> bool:
        return any(fold(c).boosted for c, _ in self.by_chain)

    def support_box(self):
        if not self.terms:
            return np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])
        boxes = [t.box() for t in self.terms]
        return np.min([b[0] for b in boxes], axis=0), np.max([b[1] for b in boxes], axis=0)

    def term_centers(self) -> np.ndarray:
        """Packet centers mapped through their action chains, shape (n, 3)."""
        return np.reshape([lorentz_map(fold(t.chain).forward, t.base.center) if t.chain
                           else t.base.center for t in self.terms], (-1, 3))

    def max_width(self) -> float:
        return max((float(np.max(t.base.width)) for t in self.terms), default=1.0)

    def min_width(self) -> float:
        """Smallest packet width over its fold's stretch, the most a chain compresses it."""
        return min((float(np.min(t.base.width)) / fold(t.chain).stretch for t in self.terms),
                   default=1.0)

    def is_zero_mode_free(self) -> bool:
        """True when the amplitude vanishes on the line k = (0, k_y, 0).

        Vanishing means at most 1e-10 times the summed term coefficients.

        Fields with this property form the subspace on which the group
        average of the field itself converges; the n = 0 projection of
        anything else diverges linearly in the boost cutoff.

        The test is exact: on each half line every term is a Gaussian in
        s = |k_y| times a linear phase (_half_lines), and such Gaussians with
        distinct (h, r0, theta) are linearly independent, so the line
        vanishes when each (side, h, r0, theta) group's peaks cancel.  Keys
        agree to 12 digits, so chains apart by rounding share a group.
        """
        scale = sum(abs(t.base.coeff) for t in self.terms)
        if scale == 0.0:
            return True
        side, peak, h, r0, theta = _half_lines(self)
        m, e = np.frexp(np.stack([theta, r0, h, side]))
        keys = np.ldexp(np.round(m, 12), e)  # 12 digits of each binary mantissa
        # sorted, each group is a run of equal keys: sum the peaks run by run
        order = np.lexsort(keys)
        new = np.concatenate(([True], np.any(np.diff(keys[:, order]) != 0.0, axis=0)))
        sums = np.add.reduceat(peak[order], np.flatnonzero(new))
        return float(np.max(np.abs(sums))) <= 1e-10 * scale


def _half_lines(f: FieldVector):
    """The amplitude on the half lines k = s (0, side, 0), s > 0, as flat Gaussians.

    Returns arrays (side, peak, h, r0, theta), one entry per term and side:
    a(s (0, side, 0)) sums peak exp(-h (s - r0)^2 + i theta s) over a side.
    Every chain's pull-back is s times a fixed vector there, so an entry is
    a row of FieldVector.on_rays at D = (0, side, 0), peak = coeff e^lead;
    at k = 0 a boosted term takes the root convention 1 instead.  The +y
    entries come first, in the field's order, so a sum in this order
    cancels an x-mirrored pair exactly.
    """
    sides = np.array([1.0, -1.0])
    parts = [np.broadcast_arrays(sides, coeff * np.exp(lead), h, r0, theta)
             for coeff, h, r0, lead, theta in f.on_rays(sides[:, None] * [0.0, 1.0, 0.0])]
    return [np.concatenate([p[i].T for p in parts], axis=1).ravel() if parts else np.zeros(0)
            for i in range(5)]


def rays_at(rows, r: float):
    """a(r D) on the shell of radius r, from the rows of FieldVector.on_rays(D)."""
    out = 0.0
    for coeff, h, r0, lead, theta in rows:
        s = r - r0
        part = np.sum(coeff * np.exp(lead - h * s * s), axis=0)
        out = out + part * np.exp(1j * r * theta)
    return out


def add(f1: FieldVector, f2: FieldVector) -> FieldVector:
    """Pointwise sum of amplitudes; operands must share the mass parameter."""
    if f1.mass != f2.mass:
        raise MassMismatchError(f"cannot add fields with masses {f1.mass} and {f2.mass}")
    return FieldVector(f1.mass, f1.terms + f2.terms)


def scale(f: FieldVector, c: complex) -> FieldVector:
    if c == 0:
        return FieldVector(f.mass, ())
    return FieldVector(f.mass, tuple(t.scaled(c) for t in f.terms))


def evaluate_amplitude(f: FieldVector, k) -> complex:
    """a(k) at a single momentum; exact closed form for pure Gaussian terms."""
    return complex(f.amplitude(np.asarray(k, dtype=float)))


def evaluate_field(f: FieldVector, t: float, x, quad: QuadratureConfig = DEFAULT_CONFIG):
    """Position-space field value by 3D momentum quadrature.

    phi(t, x) = integral d^3k sqrt(1/(2 w (2pi)^3)) (a(k) e^{i(k.x - w t)} + c.c.)
    evaluated as twice the real part of the positive-frequency integral.
    Returns (value, error_estimate).
    """
    if f.is_zero:
        return 0.0, 0.0
    x = _vec3(x)
    mass = f.mass
    norm = (2.0 * np.pi) ** -1.5

    def integrand(K):
        w = omega_of(K, mass)
        amp = f.amplitude(K)
        phase = K @ x - w * t
        if mass == 0.0:
            root = np.sqrt(np.where(w > 0.0, 0.5 / np.maximum(w, 1e-300), 0.0))
        else:
            root = np.sqrt(0.5 / w)
        return norm * root * amp * np.exp(1j * phase)

    def shells(D):
        # massless: w = r on the unit rays, and the phase is r (D.x - t)
        rows, q = f.on_rays(D), D @ x - t
        return lambda r: norm * np.sqrt(0.5 / r) * rays_at(rows, r) * np.exp(1j * r * q)

    box = f.support_box()
    lo, hi = box
    if mass == 0.0 and np.all(lo < 0) and np.all(hi > 0):
        # 1/sqrt(w) endpoint at the origin: integrate on the spherical grid,
        # where r^2 dr absorbs it smoothly
        val, err = adaptive_spherical(shells, bounding_radius(box), quad, f.min_width())
    else:
        val, err = adaptive_tensor3(integrand, box, quad, f.min_width())
    return 2.0 * val.real, 2.0 * err


# --- JSON serialization -----------------------------------------------------

def _action_from_json(d: dict):
    from . import groups  # local import avoids a cycle at module load

    kind = d.get("kind")
    if kind == "rotation":
        return groups.RotationElement(float(d["angle"]))
    if kind == "bhp":
        return groups.BHPElement(d["n"], float(d["alpha"]), float(d["beta"]))
    raise ValueError(f"unknown action kind: {kind!r}")


def field_to_json(f: FieldVector) -> dict:
    terms = []
    for t in f.terms:
        base = t.base
        terms.append({
            "center": [float(v) for v in base.center],
            "width": [float(v) for v in base.width],
            "coeff": [float(base.coeff.real), float(base.coeff.imag)],
            "actions": [g.to_json() for g in t.chain],
        })
    return {"mass": float(f.mass), "terms": terms}


def field_from_json(doc: dict) -> FieldVector:
    terms = []
    for td in doc["terms"]:
        base = GaussianPacket(td["center"], td["width"],
                              complex(td["coeff"][0], td["coeff"][1]))
        terms.append(on_chain(base, tuple(_action_from_json(a) for a in td.get("actions", []))))
    return FieldVector(float(doc["mass"]), tuple(terms))
