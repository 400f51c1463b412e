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
    add,
    apply_group,
    bform,
    compose,
    forms,
    inverse,
    mu,
)
from ccr_reduce.modes import on_chain

from conftest import moved_pair_on_sphere, random_field

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


def two_element_chain(g1, g2, f):
    """Phi_g1 Phi_g2 f with the chain (g1, g2) on every term, as no action composes it."""
    return FieldVector(f.mass, tuple(on_chain(t.base, (g1, g2)) for t in f.terms))


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
        # Phi_{g1 g2} equals Phi_{g1} Phi_{g2} as amplitude maps; the right side
        # keeps the two-element chain, which apply_group would compose
        f = random_field(rng, width_range=(0.6, 1.0))
        g1, g2 = RotationElement(0.9), RotationElement(2.3)
        lhs = apply_group(compose(g1, g2), f)
        rhs = two_element_chain(g1, g2, f)
        k = rng.uniform(-3, 3, size=(40, 3))
        assert np.allclose(lhs.amplitude(k), rhs.amplitude(k), atol=1e-10)


class TestBHPAction:
    def test_action_property_sampled(self, rng):
        f = random_field(rng, mass=0.0)
        g1 = BHPElement(1, 0.6, -0.4)
        g2 = BHPElement(-2, -0.2, 1.1)
        lhs = apply_group(compose(g1, g2), f)
        rhs = two_element_chain(g1, g2, f)
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
        m0 = mu(f, f, quad).value
        m1 = moved_pair_on_sphere(BHPElement(0, 0.8, 0.0), f, f, quad).value.real
        assert m1 == pytest.approx(m0, rel=1e-6)


ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
elements = st.one_of(st.builds(RotationElement, st.floats(0.0, TWO_PI)),
                     st.builds(BHPElement, st.integers(-3, 3), st.floats(-2.0, 2.0),
                               st.floats(-3.0, 3.0)))


class TestPoincare:
    @given(g=elements)
    @settings(max_examples=60, deadline=None)
    def test_matrix_preserves_minkowski_metric(self, g):
        L, t = g.poincare()
        assert L.shape == (4, 4) and t.shape == (3,)
        assert np.max(np.abs(L.T @ ETA @ L - ETA)) <= 1e-14 * L[0, 0] ** 2

    @given(g=elements)
    @settings(max_examples=60, deadline=None)
    def test_inverse_element_gives_inverse_matrix(self, g):
        L, _ = g.poincare()
        L_inv, _ = inverse(g).poincare()
        for product in (L @ L_inv, L_inv @ L):
            assert np.max(np.abs(product - np.eye(4))) <= 1e-14 * L[0, 0] ** 2


# parameters on a grid of eighths: BHP elements then compose exactly, and a
# sum of rotation angles is a multiple of 2 pi only when it is 0
def eighths(top):
    return st.integers(-8 * top, 8 * top).map(lambda k: k / 8)


rotations = st.builds(RotationElement, eighths(10))
bhps = st.builds(BHPElement, st.integers(-3, 3), eighths(2), eighths(10))
same_kind = st.one_of(st.tuples(rotations, rotations), st.tuples(bhps, bhps))
grid_elements = st.one_of(rotations, bhps)


def same_element(x, y) -> bool:
    if isinstance(x, BHPElement):
        return x == y
    d = (x.angle - y.angle) % TWO_PI
    return type(y) is RotationElement and min(d, TWO_PI - d) <= 1e-12


def packet_field(seed, n_terms=2):
    return random_field(np.random.default_rng(seed), n_terms=n_terms, width_range=(0.6, 1.1))


class TestCanonicalChains:
    @given(gs=st.lists(grid_elements, max_size=8), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_no_adjacent_elements_of_one_kind(self, gs, seed):
        f = packet_field(seed)
        for g in gs:
            f = apply_group(g, f)
        for t in f.terms:
            assert not any(g.is_identity() for g in t.chain)
            assert all(type(a) is not type(b) for a, b in zip(t.chain, t.chain[1:]))

    @given(ab=same_kind, c=grid_elements, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_action_composes(self, ab, c, seed):
        a, b = ab
        f = apply_group(c, packet_field(seed))
        lhs, rhs = apply_group(a, apply_group(b, f)), apply_group(compose(a, b), f)
        assert len(lhs.terms) == len(rhs.terms)
        for s, t in zip(lhs.terms, rhs.terms):
            assert s.base is t.base and len(s.chain) == len(t.chain)
            assert all(same_element(x, y) for x, y in zip(s.chain, t.chain))


class TestRelativeFrame:
    # an identity element leaves its side without a chain, whose pair stays as it is
    @given(e=same_kind.filter(lambda e: not (e[0].is_identity() or e[1].is_identity())),
           seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_outermost_elements_move_to_one_side(self, e, seed):
        e1, e2 = e
        x, y = packet_field(seed), packet_field(seed + 1)
        moved = bform(apply_group(e1, x), apply_group(e2, y))
        relative = bform(x, apply_group(compose(inverse(e1), e2), y))
        assert (moved.value, moved.error_estimate) == (relative.value, relative.error_estimate)

    @given(e=same_kind, g=grid_elements, seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_two_group_form_is_the_sum_of_its_group_pair_forms(self, e, g, seed):
        x, y = packet_field(seed, 1), packet_field(seed + 1, 1)
        f1 = add(apply_group(e[0], x), packet_field(seed + 2, 1))
        f2 = add(apply_group(e[1], y), apply_group(g, packet_field(seed + 3, 1)))
        groups1, groups2 = ([FieldVector(0.0, tuple(t for t in f.terms if t.chain == c))
                             for c, _ in f.by_chain] for f in (f1, f2))
        value, error = 0.0 + 0.0j, 0.0
        for h1 in groups1:
            for h2 in groups2:
                b = bform(h1, h2)
                value, error = value + b.value, error + b.error_estimate
        b = bform(f1, f2)
        assert (b.value, b.error_estimate) == (value, error)

    @pytest.mark.parametrize("e1, e2, numeric", [
        (RotationElement(0.4), RotationElement(2.9), False),
        (BHPElement(1, 0.0, 0.3), BHPElement(-2, 0.0, 1.1), False),
        (BHPElement(0, 3.0, 0.0), BHPElement(1, 3.0, 0.3), False),
        (BHPElement(0, 3.0, 0.0), BHPElement(1, 3.5, 0.3), True),
    ])
    def test_angular_ladder_only_for_a_relative_boost(self, e1, e2, numeric, rng, quad,
                                                      monkeypatch):
        calls = []
        sphere_form = forms._sphere_form
        monkeypatch.setattr(forms, "_sphere_form", lambda *a: calls.append(1) or sphere_form(*a))
        x, y = random_field(rng), random_field(rng)
        bform(apply_group(e1, x), apply_group(e2, y), quad)
        assert len(calls) == int(numeric)
