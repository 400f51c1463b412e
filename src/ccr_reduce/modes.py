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
    v = np.asarray(x, dtype=float).reshape(3)
    return v.copy()


def omega_of(K: Array, mass: float) -> Array:
    """Relativistic frequency sqrt(|k|^2 + m^2) for stacked momenta (..., 3)."""
    # explicit sum over the length-3 axis: numpy's reduce adds in the same
    # order, but its per-row dispatch dominates the cost on large blocks
    K = np.asarray(K)
    kx, ky, kz = K[..., 0], K[..., 1], K[..., 2]
    return np.sqrt(kx * kx + ky * ky + kz * kz + mass * mass)


@dataclass(frozen=True)
class GaussianPacket:
    """Axis-aligned Gaussian momentum amplitude.

    amplitude(k) = coeff * exp(-sum_i (k_i - center_i)^2 / (2 width_i^2)),
    so the peak value equals coeff and decay is faster than any polynomial.
    """

    center: Array
    width: Array
    coeff: complex

    def __post_init__(self):
        object.__setattr__(self, "center", _vec3(self.center))
        object.__setattr__(self, "width", _vec3(self.width))
        object.__setattr__(self, "coeff", complex(self.coeff))
        if not (np.all(np.isfinite(self.center)) and np.all(np.isfinite(self.width))
                and np.isfinite(self.coeff)):
            raise ValueError("packet center, width and coeff must be finite")
        if np.any(self.width <= 0):
            raise ValueError("packet widths must be strictly positive")

    def amplitude(self, K: Array, mass: float = 0.0) -> Array:
        d = (K - self.center) / self.width
        dx, dy, dz = d[..., 0], d[..., 1], d[..., 2]
        return self.coeff * np.exp(-0.5 * (dx * dx + dy * dy + dz * dz))

    def z_factors(self, Kxy: Array, kz: Array):
        """The amplitude as X(k_x, k_y) * Z(k_z), with the coefficient in X.

        Kxy has shape (..., 2); X has shape (...) and Z the shape of kz.
        """
        d = (Kxy - self.center[:2]) / self.width[:2]
        dz = (kz - self.center[2]) / self.width[2]
        return self.coeff * np.exp(-0.5 * np.sum(d * d, axis=-1)), np.exp(-0.5 * dz * dz)

    def box(self, mass: float = 0.0, nsig: float = 10.0):
        return self.center - nsig * self.width, self.center + nsig * self.width

    def scaled(self, c: complex) -> "GaussianPacket":
        return GaussianPacket(self.center, self.width, self.coeff * c)

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

    def amplitude(self, K: Array, mass: float = 0.0) -> Array:
        K_cur = np.asarray(K, dtype=float)
        phase = np.zeros(K_cur.shape[:-1])
        factor = None
        for g in self.chain:
            pv = g.phase_vector()
            if pv is not None and np.any(pv):
                phase = phase + K_cur @ pv
            K_next = g.inverse_momentum_map(K_cur, mass)
            if g.involves_boost:
                w_prev = omega_of(K_cur, mass)
                w_next = omega_of(K_next, mass)
                ratio = np.where(w_prev > 0.0, w_next / np.maximum(w_prev, 1e-300), 1.0)
                factor = np.sqrt(ratio) if factor is None else factor * np.sqrt(ratio)
            K_cur = K_next
        out = self.base.amplitude(K_cur) * np.exp(1j * phase)
        if factor is not None:
            out = out * factor
        return out

    def z_factors(self, Kxy: Array, kz: Array):
        """The amplitude as X(k_x, k_y) * Z(k_z), for a chain without boosts.

        Rotations about z and unboosted BHP elements leave k_z fixed, so each
        linear phase splits into its (k_x, k_y) part and beta * k_z; a boost
        mixes k_z into the frequency and does not factorise.
        """
        if self.has_boost:
            raise ValueError("a boosted term does not factorise into xy and k_z parts")
        # the chain acts on (k_x, k_y, 0), so K_cur @ pv is the xy phase alone
        K_cur = np.concatenate([Kxy, np.zeros(Kxy.shape[:-1] + (1,))], axis=-1)
        phase = np.zeros(K_cur.shape[:-1])
        beta = 0.0
        for g in self.chain:
            pv = g.phase_vector()
            if pv is not None:
                phase = phase + K_cur @ pv
                beta += pv[2]
            K_cur = g.inverse_momentum_map(K_cur, 0.0)
        x, z = self.base.z_factors(K_cur[..., :2], kz)
        return x * np.exp(1j * phase), z * np.exp(1j * beta * np.asarray(kz))

    def box(self, mass: float = 0.0, nsig: float = 10.0):
        lo, hi = self.base.box(mass, nsig)
        grids = np.meshgrid(*[np.linspace(lo[i], hi[i], 7) for i in range(3)], indexing="ij")
        pts = np.stack(grids, axis=-1).reshape(-1, 3)
        # support of the transformed amplitude is the forward image of the base box
        for g in reversed(self.chain):
            pts = g.forward_momentum_map(pts, mass)
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

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "terms", tuple(self.terms))
        if not (np.isfinite(self.mass) and self.mass >= 0):
            raise ValueError("mass must be finite and nonnegative")
        if self.mass != 0.0 and self.has_boost:
            raise MassMismatchError("boosts are implemented for the massless theory only")

    def amplitude(self, K: Array) -> Array:
        K = np.asarray(K, dtype=float)
        out = np.zeros(K.shape[:-1], dtype=complex)
        for t in self.terms:
            out = out + t.amplitude(K, self.mass)
        return out

    @property
    def is_zero(self) -> bool:
        return len(self.terms) == 0

    @property
    def has_boost(self) -> bool:
        return any(t.has_boost for t in self.terms)

    def coeff_scale(self) -> float:
        return sum(abs(t.base.coeff if isinstance(t, TransformedPacket) else t.coeff)
                   for t in self.terms)

    def support_box(self, nsig: float = 10.0):
        if not self.terms:
            return np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0])
        boxes = [t.box(self.mass, nsig) for t in self.terms]
        lo = np.min([b[0] for b in boxes], axis=0)
        hi = np.max([b[1] for b in boxes], axis=0)
        return lo, hi

    def term_boxes(self, nsig: float = 10.0):
        return [t.box(self.mass, nsig) for t in self.terms]

    def term_centers(self) -> np.ndarray:
        """Packet centers mapped through their action chains, shape (n, 3)."""
        out = []
        for t in self.terms:
            if isinstance(t, TransformedPacket):
                c = t.base.center.reshape(1, 3)
                for g in reversed(t.chain):
                    c = g.forward_momentum_map(c, self.mass)
                out.append(c[0])
            else:
                out.append(t.center)
        return np.array(out) if out else np.zeros((0, 3))

    def max_width(self) -> float:
        best = 0.0
        for t in self.terms:
            base = t.base if isinstance(t, TransformedPacket) else t
            best = max(best, float(np.max(base.width)))
        return best if best > 0 else 1.0

    def min_width(self) -> float:
        """Smallest packet width, shrunk by boost compression where present.

        Used to pick quadrature resolutions; boosts compress momentum-space
        features by up to exp(-|alpha|).
        """
        best = np.inf
        for t in self.terms:
            if isinstance(t, TransformedPacket):
                squeeze = np.exp(-sum(abs(g.total_rapidity()) for g in t.chain))
                best = min(best, float(np.min(t.base.width)) * squeeze)
            else:
                best = min(best, float(np.min(t.width)))
        return best if np.isfinite(best) else 1.0

    def is_zero_mode_free(self, tol: float = 1e-10) -> bool:
        """True when the amplitude vanishes on the line k = (0, k_y, 0).

        Fields with this property form the subspace on which the group
        average of the field itself converges; the n = 0 projection of
        anything else diverges logarithmically in the boost cutoff.
        """
        scale = self.coeff_scale()
        if scale == 0.0:
            return True
        lo, hi = self.support_box()
        ky = np.linspace(lo[1] - 1.0, hi[1] + 1.0, 257)
        K = np.stack([np.zeros_like(ky), ky, np.zeros_like(ky)], axis=-1)
        return float(np.max(np.abs(self.amplitude(K)))) <= tol * scale


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
        base = t.base if isinstance(t, TransformedPacket) else t
        actions = [g.to_json() for g in t.chain] if isinstance(t, TransformedPacket) else []
        terms.append({
            "center": [float(v) for v in base.center],
            "width": [float(v) for v in base.width],
            "coeff": [float(base.coeff.real), float(base.coeff.imag)],
            "actions": actions,
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
    or rotated terms would drag the non-entire frequency into the slice.
    """
    parts = []
    for t in f.terms:
        if isinstance(t, TransformedPacket):
            if t.has_boost or any(g.phase_vector() is None for g in t.chain):
                raise NotImplementedError(
                    "zero-mode slice needs untransformed or translation-only terms")
            # translation phases vanish on the k_x = k_z = 0 line
            base = t.base
        else:
            base = t
        parts.append((base.center, base.width, base.coeff))

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
