import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import roots_legendre

from ccr_reduce import (
    FieldVector,
    GaussianPacket,
    MassMismatchError,
    add,
    evaluate_amplitude,
    evaluate_field,
    field_from_json,
    field_to_json,
    scale,
)
from ccr_reduce.modes import omega_of

from conftest import random_field


def riemann_field_oracle(f, t, x, n=140):
    """Independent brute-force midpoint sum of the mode integral."""
    lo, hi = f.support_box()
    axes = [np.linspace(lo[i], hi[i], n, endpoint=False) + (hi[i] - lo[i]) / (2 * n)
            for i in range(3)]
    cell = np.prod([(hi[i] - lo[i]) / n for i in range(3)])
    KX, KY, KZ = np.meshgrid(*axes, indexing="ij")
    K = np.stack([KX, KY, KZ], axis=-1)
    w = np.sqrt(np.sum(K * K, axis=-1) + f.mass**2)
    integ = np.sqrt(1.0 / (2 * w * (2 * np.pi) ** 3)) * f.amplitude(K) \
        * np.exp(1j * (K @ np.asarray(x, float) - w * t))
    return 2.0 * float(np.real(np.sum(integ))) * cell


def spherical_field_oracle(center, width, coeff, t, x, ns=120, nu=80, nphi=96):
    """Massless mode integral of one Gaussian packet in spherical coordinates.

    With r = s^2 the measure r^2 dr / sqrt(2 r) becomes sqrt(2) s^4 ds, so
    the 1/sqrt(w) endpoint at k = 0 is smooth in s; the s and cos(theta)
    rules are scipy's Gauss-Legendre nodes, the azimuth a trapezoid.
    """
    center, width = np.asarray(center, float), np.asarray(width, float)
    half = 0.5 * np.sqrt(np.linalg.norm(center) + 10.0 * width.max())
    s, ws = roots_legendre(ns)
    s, ws = half * (s + 1.0), half * ws
    u, wu = roots_legendre(nu)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    S, U, P = np.meshgrid(s, u, phi, indexing="ij")
    r, sin_t = S * S, np.sqrt(1.0 - U * U)
    K = np.stack([r * sin_t * np.cos(P), r * sin_t * np.sin(P), r * U], axis=-1)
    amp = coeff * np.exp(-0.5 * np.sum(((K - center) / width) ** 2, axis=-1))
    integ = np.sqrt(2.0) * S**4 * (2 * np.pi) ** -1.5 * amp \
        * np.exp(1j * (K @ np.asarray(x, float) - r * t))
    W = ws[:, None, None] * wu[None, :, None] * (2.0 * np.pi / nphi)
    return 2.0 * float(np.real(np.sum(W * integ)))


class TestAmplitude:
    def test_zero_field(self):
        f = FieldVector(0.0, ())
        assert evaluate_amplitude(f, [0.3, -1.0, 2.0]) == 0.0

    def test_peak_value(self):
        f = FieldVector(0.0, (GaussianPacket([1, 0, 0], [1, 1, 1], 1.0),))
        assert evaluate_amplitude(f, [1, 0, 0]) == pytest.approx(1.0, abs=1e-15)

    def test_one_sigma_point(self):
        # exp(-(2-1)^2 / 2) from the closed form
        f = FieldVector(0.0, (GaussianPacket([1, 0, 0], [1, 1, 1], 1.0),))
        expected = np.exp(-0.5)
        assert evaluate_amplitude(f, [2, 0, 0]) == pytest.approx(expected, rel=1e-14)

    def test_linearity_at_probe(self, rng):
        f1 = random_field(rng)
        f2 = random_field(rng)
        k = [0.4, -0.2, 0.9]
        total = evaluate_amplitude(add(f1, f2), k)
        assert total == pytest.approx(
            evaluate_amplitude(f1, k) + evaluate_amplitude(f2, k), rel=1e-13)

    @given(c=st.floats(-4, 4), s=st.floats(-3, 3))
    @settings(max_examples=30, deadline=None)
    def test_scale_is_pointwise(self, c, s):
        f = FieldVector(0.0, (GaussianPacket([0.5, -0.3, 0.1], [0.9, 1.1, 0.7],
                                             complex(1.0, 0.4)),))
        k = np.array([c, s, 0.2])
        assert scale(f, 2.0).amplitude(k) == pytest.approx(2.0 * f.amplitude(k), rel=1e-14)

    def test_cancellation(self, rng):
        f = random_field(rng)
        g = add(f, scale(f, -1.0))
        k = rng.uniform(-2, 2, size=(20, 3))
        assert np.max(np.abs(g.amplitude(k))) < 1e-15

    def test_mass_mismatch(self, rng):
        with pytest.raises(MassMismatchError):
            add(random_field(rng, mass=0.0), random_field(rng, mass=1.0))

    def test_schwartz_decay_along_rays(self, rng):
        f = random_field(rng, n_terms=2)
        lo, hi = f.support_box()
        r0 = float(np.max(np.abs(np.concatenate([lo, hi]))))
        for direction in ([1, 0, 0], [0, 1, 0], [0.6, -0.8, 0.0], [0.5, 0.5, 0.707]):
            d = np.asarray(direction) / np.linalg.norm(direction)
            radii = r0 * 1.2 ** np.arange(1, 8)
            vals = np.abs(f.amplitude(radii[:, None] * d)) * (1 + radii) ** 8
            assert np.all(np.diff(vals) <= 1e-20), "decay must beat (1+|k|)^8"


class TestPointKernels:
    @given(center=arrays(float, 3, elements=st.floats(-5, 5)),
           width=arrays(float, 3, elements=st.floats(0.05, 4)),
           coeff=st.complex_numbers(max_magnitude=10),
           K=arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 5), st.just(3)),
                    elements=st.floats(-30, 30)),
           mass=st.sampled_from([0.0, 0.3, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_explicit_sums_equal_axis_reductions(self, center, width, coeff, K, mass):
        p = GaussianPacket(center, width, coeff)
        d = (K - p.center) / p.width
        assert np.array_equal(p.amplitude(K),
                              p.coeff * np.exp(-0.5 * np.sum(d * d, axis=-1)))
        assert np.array_equal(omega_of(K, mass),
                              np.sqrt(np.sum(np.square(K), axis=-1) + mass * mass))


class TestEvaluateField:
    def test_zero_field(self, quad):
        val, err = evaluate_field(FieldVector(1.0, ()), 0.5, [1, 2, 3], quad)
        assert val == 0.0 and err == 0.0

    def test_against_riemann_oracle(self, quad):
        f = FieldVector(1.0, (GaussianPacket([0.8, -0.4, 0.6], [0.9, 1.1, 0.7],
                                             complex(0.8, 0.3)),))
        val, err = evaluate_field(f, 0.0, [0.0, 0.0, 0.0], quad)
        oracle = riemann_field_oracle(f, 0.0, [0.0, 0.0, 0.0])
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_time_evolution_matches_shifted_oracle(self, quad):
        # evaluating at (t, x) must agree with a t=0 oracle whose amplitude
        # carries the phase exp(-i w t)
        f = FieldVector(1.0, (GaussianPacket([0.5, 0.2, -0.3], [0.8, 1.0, 0.9],
                                             complex(0.6, -0.5)),))
        t, x = 0.7, [0.3, -0.2, 0.1]
        val, _ = evaluate_field(f, t, x, quad)

        lo, hi = f.support_box()
        n = 140
        axes = [np.linspace(lo[i], hi[i], n, endpoint=False) + (hi[i] - lo[i]) / (2 * n)
                for i in range(3)]
        cell = np.prod([(hi[i] - lo[i]) / n for i in range(3)])
        KX, KY, KZ = np.meshgrid(*axes, indexing="ij")
        K = np.stack([KX, KY, KZ], axis=-1)
        w = np.sqrt(np.sum(K * K, axis=-1) + f.mass**2)
        shifted = f.amplitude(K) * np.exp(-1j * w * t)   # time-translated data
        integ = np.sqrt(1.0 / (2 * w * (2 * np.pi) ** 3)) * shifted \
            * np.exp(1j * (K @ np.asarray(x, float)))
        oracle = 2.0 * float(np.real(np.sum(integ))) * cell
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_wave_equation_residual(self, quad):
        # 4th-order stencils; the mode integral solves the field equation
        f = FieldVector(1.0, (GaussianPacket([0.6, 0.1, -0.2], [0.9, 1.0, 1.1],
                                             complex(0.7, 0.2)),))
        h = 0.05
        t0, x0 = 0.2, np.array([0.1, -0.3, 0.2])

        def phi(dt=0.0, dx=(0, 0, 0)):
            return evaluate_field(f, t0 + dt, x0 + np.asarray(dx), quad)[0]

        def second(fm2, fm1, f0, fp1, fp2):
            return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)

        center = phi()
        d2t = second(phi(-2 * h), phi(-h), center, phi(h), phi(2 * h))
        lap = 0.0
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            lap += second(phi(0, -2 * e), phi(0, -e), center, phi(0, e), phi(0, 2 * e))
        residual = -d2t + lap - f.mass**2 * center
        assert abs(residual) < 1e-5


    @pytest.mark.parametrize("t, x", [(0.0, [0.0, 0.0, 0.0]), (0.8, [0.3, -0.5, 0.2])])
    def test_massless_spherical_branch(self, quad, t, x):
        # the support box holds k = 0, so the spherical ladder integrates
        # the 1/sqrt(|k|) endpoint
        center, width, coeff = [0.3, -0.2, 0.4], [0.8, 1.0, 0.9], complex(0.7, 0.2)
        f = FieldVector(0.0, (GaussianPacket(center, width, coeff),))
        lo, hi = f.support_box()
        assert np.all(lo < 0) and np.all(hi > 0)
        val, err = evaluate_field(f, t, x, quad)
        oracle = spherical_field_oracle(center, width, coeff, t, x)
        assert abs(val - oracle) <= min(err, 1e-8 * abs(oracle))


class TestSerialization:
    def test_roundtrip(self, rng):
        f = random_field(rng, n_terms=2)
        doc = field_to_json(f)
        back = field_from_json(json.loads(json.dumps(doc)))
        k = rng.uniform(-2, 2, size=(10, 3))
        assert np.allclose(back.amplitude(k), f.amplitude(k), rtol=0, atol=1e-15)

    def test_schema_fields(self, rng):
        doc = field_to_json(random_field(rng))
        assert set(doc) == {"mass", "terms"}
        assert set(doc["terms"][0]) == {"center", "width", "coeff", "actions"}

    def test_roundtrip_with_actions(self, rng):
        from ccr_reduce import BHPElement, RotationElement, apply_group

        f = apply_group(BHPElement(1, 0.4, -0.7), random_field(rng))
        f = apply_group(RotationElement(0.0), f)
        back = field_from_json(field_to_json(f))
        k = rng.uniform(-2, 2, size=(10, 3))
        assert np.allclose(back.amplitude(k), f.amplitude(k), rtol=0, atol=1e-15)
