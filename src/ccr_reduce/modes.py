"""Klein-Gordon solutions represented by positive-frequency momentum amplitudes.

A real solution is encoded by a complex amplitude a(k) on R^3; here a(k) is a
finite combination of axis-aligned Gaussian packets, optionally decorated by
lazily-applied group actions (rotations about z, or discrete x-translations /
y-boosts / z-translations of the massless theory).  Gaussian data keeps every
amplitude Schwartz-class by construction and admits closed-form overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def map_chain(chain, kx, ky, kz):
    """Pull the momenta (kx, ky, kz) back through an action chain.

    chain is ordered outermost-first, as in TransformedPacket.  Returns the
    components of L_chain^-1 k, at which the base packets are evaluated,
    and the factor exp(i theta) sqrt(w(L^-1 k) / w(k)) that multiplies them
    (None when the chain has neither a phase nor a boost).  Every element adds its phase at the momentum
    it receives; |k| is computed once, at the first boost, and each boost
    hands its new |k| on, so the frequency ratios telescope to the last |k|
    over the first (ratio 1 at k = 0, which every map fixes).
    """
    theta = None
    w0 = w = None
    for g in chain:
        th = g.phase_at(kx, ky, kz)
        if th is not None:
            theta = th if theta is None else theta + th
        if w is None and g.involves_boost:
            w0 = w = momentum_norm(kx, ky, kz)
        kx, ky, kz, w = g.pull_back(kx, ky, kz, w)
    factor = None if theta is None else np.exp(1j * theta)
    if w0 is not None:
        root = np.sqrt(np.where(w0 > 0.0, w / np.maximum(w0, 1e-300), 1.0))
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

    @property
    def has_boost(self) -> bool:
        return False


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

        Rotations about z and unboosted BHP elements leave k_z fixed, so each
        linear phase splits into its (k_x, k_y) part and beta * k_z; a boost
        mixes k_z into the frequency and does not factorise.
        """
        if self.has_boost:
            raise ValueError("a boosted term does not factorise into xy and k_z parts")
        # the chain acts on (k_x, k_y, 0), so its phase is the xy phase alone
        qx, qy, _, factor = map_chain(self.chain, kx, ky, 0.0)
        beta = sum(pv[2] for pv in (g.phase_vector() for g in self.chain) if pv is not None)
        x, z = self.base.z_factors(qx, qy, kz)
        if factor is not None:
            x = x * factor
        return x, z * np.exp(1j * beta * np.asarray(kz))

    def box(self):
        lo, hi = self.base.box()
        grids = np.meshgrid(*[np.linspace(lo[i], hi[i], 7) for i in range(3)], indexing="ij")
        pts = np.stack(grids, axis=-1).reshape(-1, 3)
        # support of the transformed amplitude is the forward image of the base box
        for g in reversed(self.chain):
            pts = g.forward_momentum_map(pts)
        lo_m, hi_m = pts.min(axis=0), pts.max(axis=0)
        pad = 0.12 * (hi_m - lo_m) + 0.3
        return lo_m - pad, hi_m + pad

    def scaled(self, c: complex) -> "TransformedPacket":
        return TransformedPacket(self.base.scaled(c), self.chain)

    @property
    def has_boost(self) -> bool:
        return any(g.involves_boost for g in self.chain)


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
        if self.mass != 0.0 and self.has_boost:
            raise MassMismatchError("boosts are implemented for the massless theory only")
        groups = {}
        for t in self.terms:
            groups.setdefault(t.chain, []).append(t.base)
        object.__setattr__(self, "by_chain", tuple((c, tuple(b)) for c, b in groups.items()))

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

    @property
    def is_zero(self) -> bool:
        return len(self.terms) == 0

    @property
    def has_boost(self) -> bool:
        return any(t.has_boost for t in self.terms)

    def support_box(self):
        if not self.terms:
            return np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])
        boxes = self.term_boxes()
        return np.min([b[0] for b in boxes], axis=0), np.max([b[1] for b in boxes], axis=0)

    def term_boxes(self):
        return [t.box() for t in self.terms]

    def term_centers(self) -> np.ndarray:
        """Packet centers mapped through their action chains, shape (n, 3)."""
        out = []
        for t in self.terms:
            c = t.base.center.reshape(1, 3)
            for g in reversed(t.chain):
                c = g.forward_momentum_map(c)
            out.append(c[0])
        return np.array(out) if out else np.zeros((0, 3))

    def max_width(self) -> float:
        best = 0.0
        for t in self.terms:
            best = max(best, float(np.max(t.base.width)))
        return best if best > 0 else 1.0

    def min_width(self) -> float:
        """Smallest packet width, shrunk by boost compression where present.

        Used to pick quadrature resolutions; boosts compress momentum-space
        features by up to exp(-|alpha|).
        """
        best = np.inf
        for t in self.terms:
            squeeze = np.exp(-sum(abs(g.total_rapidity()) for g in t.chain))
            best = min(best, float(np.min(t.base.width)) * squeeze)
        return best if np.isfinite(best) else 1.0

    def is_zero_mode_free(self) -> bool:
        """True when the amplitude vanishes on the line k = (0, k_y, 0).

        Vanishing means at most 1e-10 times the summed term coefficients.

        Fields with this property form the subspace on which the group
        average of the field itself converges; the n = 0 projection of
        anything else diverges logarithmically in the boost cutoff.

        When every term is untransformed or translation-only, the test is
        exact: on the line each term is its coefficient times
        exp(-c_x^2 / 2 w_x^2 - c_z^2 / 2 w_z^2) times a Gaussian in k_y, and
        Gaussians with distinct (c_y, w_y) are linearly independent, so the
        line vanishes exactly when each (c_y, w_y) group's weighted
        coefficients cancel.  Rotated or boosted terms are sampled at 257
        points along the line instead.
        """
        scale = sum(abs(t.base.coeff) for t in self.terms)
        if scale == 0.0:
            return True
        if all(_translation_only(t) for t in self.terms):
            sums = {}
            for t in self.terms:
                (cx, cy, cz), (wx, wy, wz) = t.base.center, t.base.width
                weight = np.exp(-0.5 * (cx / wx) ** 2 - 0.5 * (cz / wz) ** 2)
                sums[cy, wy] = sums.get((cy, wy), 0.0) + t.base.coeff * weight
            return max(abs(v) for v in sums.values()) <= 1e-10 * scale
        lo, hi = self.support_box()
        ky = np.linspace(lo[1] - 1.0, hi[1] + 1.0, 257)
        K = np.stack([np.zeros_like(ky), ky, np.zeros_like(ky)], axis=-1)
        return float(np.max(np.abs(self.amplitude(K)))) <= 1e-10 * scale


def _translation_only(term) -> bool:
    """No rotation and no boost in the chain, so the term is its base on k_x = k_z = 0."""
    return not term.has_boost and all(g.phase_vector() is not None for g in term.chain)


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

    box = f.support_box()
    lo, hi = box
    if mass == 0.0 and np.all(lo < 0) and np.all(hi > 0):
        # 1/sqrt(w) endpoint at the origin: integrate on the spherical grid,
        # where r^2 dr absorbs it smoothly
        val, err = adaptive_spherical(integrand, bounding_radius(box), quad)
    else:
        extent = hi - lo
        wmin = max(f.min_width(), 1e-3)
        base = [int(np.clip(3.0 * extent[i] / wmin, 20, 72)) for i in range(3)]
        val, err = adaptive_tensor3(integrand, box, quad, base_counts=base)
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
        actions = [_action_from_json(a) for a in td.get("actions", [])]
        terms.append(TransformedPacket(base, tuple(actions)) if actions else base)
    return FieldVector(float(doc["mass"]), tuple(terms))


def zero_mode_slice(f: FieldVector):
    """Return g(k_y) = a(0, k_y, 0) as a callable accepting complex k_y.

    Complex evaluation is needed by the contour-rotated divergence probe, so
    only untransformed packets and pure translations are supported; boosted
    or rotated terms would drag the non-entire frequency into the slice, and
    raise ValueError.
    """
    parts = []
    for t in f.terms:
        if not _translation_only(t):
            raise ValueError("zero-mode slice needs untransformed or translation-only terms")
        # translation phases vanish on the k_x = k_z = 0 line
        parts.append((t.base.center, t.base.width, t.base.coeff))

    def g(ky):
        ky = np.asarray(ky)
        out = np.zeros(ky.shape, dtype=complex)
        for c, w, A in parts:
            e = (-0.5 * ((0.0 - c[0]) / w[0]) ** 2
                 - 0.5 * ((ky - c[1]) / w[1]) ** 2
                 - 0.5 * ((0.0 - c[2]) / w[2]) ** 2)
            out = out + A * np.exp(e)
        return out

    return g
