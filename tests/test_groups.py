import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccr_reduce import (
    BHPElement,
    FieldVector,
    GaussianPacket,
    GroupMismatchError,
    MassMismatchError,
    RotationElement,
    apply_group,
    average_bform_bhp_gave,
    average_bform_bhp_reduced,
    average_bform_circle,
    average_form_circle,
    compose,
    inverse,
    mu,
    null_space_analysis,
)

from conftest import random_field, random_s0_field

TWO_PI = 2 * np.pi


class TestComposition:
    def test_rotation_wraps(self):
        g = compose(RotationElement(np.pi), RotationElement(3 * np.pi / 2))
        assert g.angle == pytest.approx(np.pi / 2, abs=1e-15)

    def test_inverse_gives_identity(self):
        g = RotationElement(1.234)
        angle = compose(g, inverse(g)).angle  # 0 or 2 pi up to rounding
        assert min(angle, TWO_PI - angle) <= 1e-12
        h = BHPElement(3, -0.7, 2.1)
        assert compose(h, inverse(h)).is_identity()

    def test_bhp_componentwise(self):
        g = compose(BHPElement(1, 0.3, 1.0), BHPElement(2, -0.3, -1.0))
        assert (g.n, g.alpha, g.beta) == (3, 0.0, 0.0)

    def test_mismatch_raises(self):
        with pytest.raises(GroupMismatchError):
            compose(RotationElement(0.3), BHPElement(0, 0.1, 0.0))
        with pytest.raises(GroupMismatchError):
            inverse("not-an-element")

    @given(a=st.floats(-10, 10), b=st.floats(-10, 10), c=st.floats(-10, 10))
    @settings(max_examples=40, deadline=None)
    def test_rotation_associativity(self, a, b, c):
        left = compose(compose(RotationElement(a), RotationElement(b)), RotationElement(c))
        right = compose(RotationElement(a), compose(RotationElement(b), RotationElement(c)))
        delta = (left.angle - right.angle) % TWO_PI
        assert min(delta, TWO_PI - delta) < 1e-12


class TestRotationAction:
    def test_full_turn_is_identity(self, rng):
        f = random_field(rng)
        g = apply_group(RotationElement(TWO_PI), f)
        k = rng.uniform(-3, 3, size=(25, 3))
        assert np.allclose(g.amplitude(k), f.amplitude(k), atol=1e-14)

    def test_quarter_turn_moves_center(self):
        f = FieldVector(0.0, (GaussianPacket([1, 0, 0], [1, 1, 1], 1.0),))
        g = apply_group(RotationElement(np.pi / 2), f)
        assert abs(g.amplitude(np.array([0.0, 1.0, 0.0]))) == pytest.approx(1.0, abs=1e-14)
        assert abs(g.amplitude(np.array([1.0, 0.0, 0.0]))) < np.exp(-0.9)

    def test_action_property_sampled(self, rng):
        # Phi_{g1 g2} equals Phi_{g1} Phi_{g2} as amplitude maps
        f = random_field(rng, width_range=(0.6, 1.0))
        g1, g2 = RotationElement(0.9), RotationElement(2.3)
        lhs = apply_group(compose(g1, g2), f)
        rhs = apply_group(g1, apply_group(g2, f))
        k = rng.uniform(-3, 3, size=(40, 3))
        assert np.allclose(lhs.amplitude(k), rhs.amplitude(k), atol=1e-10)


class TestBHPAction:
    def test_action_property_sampled(self, rng):
        f = random_field(rng, mass=0.0)
        g1 = BHPElement(1, 0.6, -0.4)
        g2 = BHPElement(-2, -0.2, 1.1)
        lhs = apply_group(compose(g1, g2), f)
        rhs = apply_group(g1, apply_group(g2, f))
        k = rng.uniform(-3, 3, size=(40, 3))
        assert np.allclose(lhs.amplitude(k), rhs.amplitude(k), atol=1e-10)

    def test_invalid_parameters_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                RotationElement(bad)
            with pytest.raises(ValueError):
                BHPElement(1, bad, 0.0)
            with pytest.raises(ValueError):
                BHPElement(1, 0.0, bad)
        with pytest.raises(ValueError):
            BHPElement(1.5, 0.0, 0.0)

    def test_boost_needs_massless(self, rng):
        with pytest.raises(MassMismatchError):
            apply_group(BHPElement(0, 0.5, 0.0), random_field(rng, mass=1.0))
        # pure translations act on any mass
        apply_group(BHPElement(2, 0.0, 0.7), random_field(rng, mass=1.0))

    def test_boost_momentum_map_hyperbolic(self):
        # l_y = k_y cosh(a) - w sinh(a), and the frequency co-rotates
        g = BHPElement(0, 0.8, 0.0)
        K = np.array([[0.5, -0.4, 1.2]])
        w = float(np.linalg.norm(K[0]))
        fwd = g.forward_momentum_map(K)[0]
        assert fwd[1] == pytest.approx(K[0, 1] * np.cosh(0.8) - w * np.sinh(0.8), rel=1e-14)
        w_fwd = float(np.linalg.norm(fwd))
        assert w_fwd == pytest.approx(w * np.cosh(0.8) - K[0, 1] * np.sinh(0.8), rel=1e-13)

    def test_translation_phase(self, rng):
        f = random_field(rng, mass=0.0)
        g = apply_group(BHPElement(2, 0.0, 1.3), f)
        k = np.array([0.7, -0.4, 0.9])
        expected = f.amplitude(k) * np.exp(1j * (2 * np.pi * 2 * k[0] + 1.3 * k[2]))
        assert g.amplitude(k) == pytest.approx(expected, rel=1e-13)

    def test_boost_preserves_mu_diagonal(self, rng, quad):
        # quadrature-level invariance of the scalar product under boosts
        f = random_field(rng, mass=0.0, width_range=(0.7, 1.1))
        fb = apply_group(BHPElement(0, 0.8, 0.0), f)
        m0 = mu(f, f, quad).value
        m1 = mu(fb, fb, quad).value
        assert m1 == pytest.approx(m0, rel=1e-6)


class TestHaarScale:
    def test_invalid_scale_rejected(self, rng, quad):
        # a Haar measure is unique only up to a positive finite scale; any
        # other scale would turn the averaged vacuum norm negative or NaN
        f, g = random_s0_field(rng), random_s0_field(rng)
        for c in (-1.0, 0.0, float("nan"), float("inf")):
            calls = (
                lambda: average_bform_circle(f, g, quad, haar_scale=c),
                lambda: average_form_circle("mu", f, g, quad, haar_scale=c),
                lambda: average_bform_bhp_gave(f, g, quad, haar_scale=c),
                lambda: average_bform_bhp_reduced(f, f, quad, haar_scale=c),
                lambda: null_space_analysis([f, g], "bhp", quad, haar_scale=c),
                lambda: null_space_analysis([f, g], "circle", quad, haar_scale=c),
            )
            for call in calls:
                with pytest.raises(ValueError, match="haar_scale"):
                    call()
