from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccr_reduce import (
    BHPElement,
    FieldVector,
    GaussianPacket,
    RotationElement,
    TransformedPacket,
    ZeroModeDivergenceError,
    add,
    apply_group,
    average_bform_bhp_direct,
    average_bform_bhp_gave,
    average_bform_bhp_reduced,
    average_field_bhp,
    average_bform_circle,
    average_form_circle,
    bform,
    bhp_reduced_integrand,
    mu,
    poisson_check,
    project_bhp,
    scale,
    substitution_check,
    zero_mode_divergence_probe,
)
from ccr_reduce import averaging, forms
from ccr_reduce.corpus import generate_corpus, load_corpus
from ccr_reduce.errors import MassMismatchError, QuadratureError
from ccr_reduce.modes import omega_of
from ccr_reduce.quadrature import (
    QuadratureConfig,
    _leggauss,
    _refine,
    adaptive_spherical,
    adaptive_tensor3,
    gl_nodes,
    spherical_grid,
    spherical_integral,
)

from conftest import random_field, random_s0_field


class TestQuadratureConfig:
    def test_validation(self):
        from ccr_reduce import QuadratureConfig

        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1e-8)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                QuadratureConfig(rel_tol=bad)
        with pytest.raises(ValueError):
            QuadratureConfig(n_max=0)


class TestRefinementLadders:
    def test_primitive_returns_later_value_with_last_difference(self):
        seen = []

        def level(n):
            seen.append(n)
            return 1.0 + 10.0 ** -n

        value, err = _refine(level, range(1, 20), QuadratureConfig(), "no convergence")
        # |level(9) - level(8)| = 9e-9 is the first difference below rel_tol 1e-8
        assert seen == list(range(1, 10))
        assert value == level(9)
        assert err == abs(level(9) - level(8))

    def test_primitive_raises_when_levels_run_out(self):
        with pytest.raises(QuadratureError, match="no convergence"):
            _refine(lambda n: 1.0 + 10.0 ** -n, range(1, 5), QuadratureConfig(),
                    "no convergence")

    def test_tensor3_raises_at_its_cap(self):
        def fn(K):
            return np.exp(40j * K[..., 0]) * np.exp(-np.sum(K * K, axis=-1) / 0.02)

        box = (np.full(3, -1.0), np.full(3, 1.0))
        with pytest.raises(QuadratureError):
            adaptive_tensor3(fn, box, QuadratureConfig(), max_count=24)

    def test_spherical_capped_axis_raises(self):
        b = 0.9

        def fn(K):
            phi = np.arctan2(K[..., 1], K[..., 0])
            return np.exp(-np.sum(K * K, axis=-1)) / (1.0 - b * np.cos(phi))

        # radial and polar rules converge; only the azimuth is hard
        exact = np.sqrt(np.pi) / 4.0 * 2.0 * 2.0 * np.pi / np.sqrt(1.0 - b * b)
        value, _ = adaptive_spherical(fn, 6.0, QuadratureConfig(),
                                      base_counts=(24, 16, 16),
                                      max_counts=(200, 200, 400))
        assert abs(value - exact) < 1e-8 * exact
        with pytest.raises(QuadratureError):
            adaptive_spherical(fn, 6.0, QuadratureConfig(), base_counts=(24, 16, 16),
                               max_counts=(200, 200, 16))


def whole_grid_integral(fn, r_max, counts):
    """Reference: the spherical rule summed over the full (nr, nt, nphi, 3) grid."""
    nr, nt, nphi = counts
    r, wr = gl_nodes(nr, 0.0, r_max)
    c, wc = _leggauss(nt)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    R, C, P = np.meshgrid(r, c, phi, indexing="ij")
    S = np.sqrt(np.maximum(0.0, 1.0 - C * C))
    K = np.stack([R * S * np.cos(P), R * S * np.sin(P), R * C], axis=-1)
    W = (wr * r * r)[:, None, None] * wc[None, :, None] * (2.0 * np.pi / nphi)
    return complex(np.sum(W * fn(K)))


class TestSphericalShells:
    def test_one_shell_per_call_at_the_cap(self):
        # the bhp_reduced_integrand cap: a whole grid would need 1.4 GB for K
        shapes = []

        def fn(K):
            shapes.append(K.shape)
            return np.zeros(K.shape[:-1])

        assert spherical_integral(fn, 5.0, (380, 280, 560)) == 0.0
        assert len(shapes) == 380
        assert max(int(np.prod(sh[:-1])) for sh in shapes) <= 280 * 560

    def test_polynomial_is_exact(self):
        # integral over |k| <= R of k_x^2 + k_z^4 = 4 pi R^5 / 15 + 4 pi R^7 / 35
        R = 1.7
        exact = 4.0 * np.pi * R**5 / 15.0 + 4.0 * np.pi * R**7 / 35.0
        value = spherical_integral(lambda K: K[..., 0] ** 2 + K[..., 2] ** 4, R, (6, 5, 8))
        assert abs(value - exact) <= 1e-13 * exact

    def test_matches_whole_grid_sum(self):
        def fn(K):
            d = K - np.array([0.4, -0.3, 0.7])
            return np.exp(-np.sum(d * d, axis=-1) / 1.3 + 0.6j * K[..., 1])

        counts = (60, 40, 80)
        ref = whole_grid_integral(fn, 6.0, counts)
        assert abs(spherical_integral(fn, 6.0, counts) - ref) <= 1e-14 * abs(ref)


bhp_elements = st.builds(BHPElement, st.integers(-1, 1), st.floats(-1.0, 1.0),
                         st.floats(-2.0, 2.0))


def shell_integral(fn, r_in, r_out, counts=(64, 48, 96)):
    """Product-rule integral of fn over r_in <= |k| <= r_out, shell by shell."""
    nr, nt, nphi = counts
    _, _, D, W = spherical_grid(1.0, 1, nt, nphi)
    r, wr = gl_nodes(nr, r_in, r_out)
    return sum(wi * ri * ri * float(np.sum(W * fn(ri * D))) for ri, wi in zip(r, wr))


@st.composite
def tail_terms(draw):
    """A Gaussian term, bare or behind a rotation and/or a BHP element (|alpha| <= 1)."""
    num = st.floats(-2.5, 2.5)
    base = GaussianPacket([draw(num) for _ in range(3)],
                          [draw(st.floats(0.6, 1.2)) for _ in range(3)],
                          complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))))
    chain = []
    if draw(st.booleans()):
        chain.append(RotationElement(draw(st.floats(0.0, 2.0 * np.pi))))
    if draw(st.booleans()):
        chain.append(draw(bhp_elements))
    if draw(st.booleans()):
        chain.reverse()
    return TransformedPacket(base, tuple(chain)) if chain else base


tail_fields = st.builds(lambda terms: FieldVector(0.0, tuple(terms)),
                        st.lists(tail_terms(), min_size=1, max_size=2))
CENTRED = FieldVector(0.0, (GaussianPacket([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0),))


def check_tail_radius(module, route, integrand_abs, f1, f2, quad):
    """The tail-bounded ball against the corner-radius ball, for one route.

    The full ball is `route` with `module._tail_radius` replaced by the
    identity on its radius; the closed-form tail at the shrunk radius must
    bound the brute-force |integrand| mass between the two radii, for
    several targets, and both balls must give the same value wherever the
    full ball converges.
    """
    seen = []

    def full_ball(f1, f2, quad, r_max, boost=0.0):
        seen.append((r_max, boost))
        return r_max, np.inf

    with mock.patch.object(module, "_tail_radius", full_ball):
        try:
            full = route(quad).value
        except QuadratureError:  # the full ball's radial count hit its cap
            full = None
    if not seen:  # disjoint supports: no ball at all
        return
    (r_box, boost), = seen
    for abs_tol in (1e-4, 1e-8, quad.abs_tol):
        R, bound = forms._tail_radius(f1, f2, QuadratureConfig(abs_tol=abs_tol), r_box, boost)
        assert R <= r_box
        if R < r_box:
            assert bound <= 1e-2 * abs_tol
            assert shell_integral(integrand_abs, R, r_box) <= bound * (1.0 + 1e-9)
    if full is not None:
        shrunk = route(quad).value
        assert abs(shrunk - full) <= max(quad.abs_tol, quad.rel_tol * abs(full))


class TestTailRadius:
    @given(f1=tail_fields, f2=tail_fields)
    @example(f1=CENTRED, f2=CENTRED)  # the bound is exact for this pair
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_numeric_bform_tail(self, f1, f2):
        def integrand_abs(K):
            return np.abs(f1.amplitude(K)) * np.abs(f2.amplitude(K))

        quad = QuadratureConfig()
        check_tail_radius(forms, lambda q: forms._numeric_bform(f1, f2, q),
                          integrand_abs, f1, f2, quad)

    @given(f1=tail_fields, f2=tail_fields, g=bhp_elements)
    @example(f1=CENTRED, f2=CENTRED, g=BHPElement(0, 1.0, 0.0))  # needs g's rapidity
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_reduced_integrand_tail(self, f1, f2, g):
        def integrand_abs(Q):
            Qf = g.forward_momentum_map(Q)
            ratio = omega_of(Qf, 0.0) / omega_of(Q, 0.0)
            return np.sqrt(ratio) * np.abs(f1.amplitude(Qf)) * np.abs(f2.amplitude(Q))

        quad = QuadratureConfig()
        check_tail_radius(averaging, lambda q: bhp_reduced_integrand(f1, f2, g, q),
                          integrand_abs, f1, f2, quad)

    def test_reduced_integrand_zero_field(self, rng, quad_bhp):
        # the zero field's placeholder box meets the other box, so the guard
        # must come before the ball is sized
        f = FieldVector(0.0, (GaussianPacket([0.3, 0.2, 0.1], [1.0, 1.0, 1.0], 1.0),))
        zero = FieldVector(0.0, ())
        g = BHPElement(1, 0.5, 0.8)
        for pair in ((zero, f), (f, zero)):
            res = bhp_reduced_integrand(*pair, g, quad_bhp)
            assert (res.value, res.error_estimate) == (0.0, 0.0)

    def test_seed42_pair_translation_identity(self):
        # on the s0 corpus pair (0, 1) the reduced single integral at
        # g = (1, 0, 0) meets the closed form bform(f1, Phi_g f2) on a ball
        # well inside the corner radius of the support-box intersection
        f1, f2 = load_corpus(generate_corpus(42, 6, s0=True))[:2]
        g = BHPElement(1, 0.0, 0.0)
        quad = QuadratureConfig(n_max=8)
        radii = []

        def spy(f1, f2, quad, r_max, boost=0.0):
            R, bound = forms._tail_radius(f1, f2, quad, r_max, boost)
            radii.append((r_max, R))
            return R, bound

        with mock.patch.object(averaging, "_tail_radius", spy):
            reduced = bhp_reduced_integrand(f1, f2, g, quad).value
        closed = bform(f1, apply_group(g, f2), quad).value
        assert abs(reduced - closed) <= 1e-9 * abs(closed)
        (r_box, R), = radii
        assert R < 0.7 * r_box


def circle_node_mean(f1, f2, quad, n):
    """Mean of bform(f1, Phi_theta f2) over the n trapezoid nodes, one node at a time."""
    th = 2.0 * np.pi * np.arange(n) / n
    return complex(np.mean([bform(f1, apply_group(RotationElement(t), f2), quad).value
                            for t in th]))


def circle_node_ladder(f1, f2, quad):
    """The per-node circle average under the same doubling ladder, each level afresh.

    Returns the value and the node count of the level it stopped at.
    """
    counts = []

    def level(n):
        counts.append(n)
        return circle_node_mean(f1, f2, quad, n)

    value, _ = _refine(level, (16 * 2**i for i in range(9)), quad,
                       "per-node circle average did not stabilize")
    return value, counts[-1]


@st.composite
def circle_terms(draw):
    """A packet, xy-isotropic or not, bare or behind up to two group elements.

    The elements are rotations and unboosted BHP elements, so every pair
    has a closed form.
    """
    num = st.floats(-2.5, 2.5)
    wx, wy, wz = (draw(st.floats(0.4, 1.2)) for _ in range(3))
    base = GaussianPacket([draw(num) for _ in range(3)],
                          [wx, wx if draw(st.booleans()) else wy, wz],
                          complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))))
    element = st.one_of(
        st.builds(RotationElement, st.floats(0.0, 2.0 * np.pi)),
        st.builds(BHPElement, st.integers(-1, 1), st.just(0.0), st.floats(-2.0, 2.0)))
    chain = draw(st.lists(element, max_size=2))
    return TransformedPacket(base, tuple(chain)) if chain else base


@st.composite
def circle_pairs(draw):
    mass = draw(st.sampled_from([0.0, 1.0]))
    terms = st.lists(circle_terms(), min_size=1, max_size=2)
    return FieldVector(mass, tuple(draw(terms))), FieldVector(mass, tuple(draw(terms)))


@st.composite
def boosted_circle_cases(draw):
    """A boost-free field, a y-boosted one, and a generic rotation angle.

    An angle that is a multiple of 2 pi / nphi would map the spherical grid
    onto itself; a generic one lies off the azimuth grids and tests the
    invariance of the ring mean itself.
    """
    terms = st.lists(circle_terms(), min_size=1, max_size=2)
    f1 = FieldVector(0.0, tuple(draw(terms)))
    alpha = draw(st.floats(0.2, 0.6)) * draw(st.sampled_from([-1.0, 1.0]))
    g = BHPElement(0, alpha, draw(st.floats(-1.0, 1.0)))
    f2 = apply_group(g, FieldVector(0.0, tuple(draw(terms))))
    return f1, f2, draw(st.floats(0.1, 2.0 * np.pi - 0.1))


# packets on opposite sides of the z axis: their support boxes are disjoint
# until a rotation by about pi brings them together
OPPOSITE_BOOSTED = (
    FieldVector(0.0, (GaussianPacket([3.2, 0.0, 0.2], [0.25, 0.25, 0.5], 1.0),)),
    apply_group(BHPElement(0, 0.3, 0.0),
                FieldVector(0.0, (GaussianPacket([-3.2, 0.0, 0.0], [0.25, 0.25, 0.5], 0.5j),))),
    2.9)

# off the z axis and narrow in x: B(f, Phi_theta f) is sharply peaked in theta
NARROW = FieldVector(0.0, (GaussianPacket([2.0, 0.5, 0.3], [0.15, 0.4, 0.5], 1.0 - 0.5j),))
NARROW_PAIR = (NARROW, apply_group(RotationElement(0.4), NARROW))


class TestCircleAverage:
    @given(pair=circle_pairs())
    @example(pair=NARROW_PAIR)
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_matches_per_node_loop(self, pair):
        f1, f2 = pair
        quad = QuadratureConfig()
        got = average_bform_circle(f1, f2, quad).value
        ref, nodes = circle_node_ladder(f1, f2, quad)
        assert abs(got - ref) <= max(quad.abs_tol, quad.rel_tol * abs(ref))
        if nodes > 64:  # a ladder that climbed: also against the finest rule
            fine = circle_node_mean(f1, f2, quad, 4096)
            assert abs(got - fine) <= max(quad.abs_tol, quad.rel_tol * abs(fine))

    def test_narrow_example_climbs_past_64_nodes(self, quad):
        _, nodes = circle_node_ladder(*NARROW_PAIR, quad)
        assert nodes > 64

    def test_boosted_route_with_invariant_first_argument(self, rng, quad):
        # an xy-isotropic packet on the z axis is rotation invariant, so
        # every node equals bform(f1, f2); f2 has no closed form
        f1 = FieldVector(0.0, (GaussianPacket([0.0, 0.0, 0.8], [0.9, 0.9, 1.1], 1.0 - 0.3j),))
        f2 = apply_group(BHPElement(0, 0.3, 0.0), random_field(rng))
        avg = average_bform_circle(f1, f2, quad)
        direct = bform(f1, f2, quad).value
        assert abs(avg.value - direct) <= 1e-8 * abs(direct)

    def test_boosted_route_matches_per_node_mean(self, rng, quad):
        # an off-axis f1 is not rotation invariant; for this pair the mean of
        # bform(f1, Phi_theta f2) over 16 nodes has converged to about 1e-14
        f1 = FieldVector(0.0, (GaussianPacket([1.1, -0.4, 0.6], [0.8, 0.7, 1.0], 0.7 + 0.4j),))
        f2 = apply_group(BHPElement(0, 0.4, 0.3), random_field(rng))
        avg = average_bform_circle(f1, f2, quad).value
        ref = circle_node_mean(f1, f2, quad, 16)
        assert abs(avg - ref) <= 1e-10 * abs(ref)

    @given(case=boosted_circle_cases())
    @example(case=OPPOSITE_BOOSTED)
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_boosted_rotation_invariance(self, case):
        f1, f2, theta = case
        quad = QuadratureConfig()
        rot = RotationElement(theta)
        base = average_bform_circle(f1, f2, quad).value
        tol = max(quad.abs_tol, quad.rel_tol * abs(base))
        assert abs(average_bform_circle(f1, apply_group(rot, f2), quad).value - base) <= tol
        assert abs(average_bform_circle(apply_group(rot, f1), f2, quad).value - base) <= tol

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_mass_mismatch_and_zero_field(self, rng, quad, alpha):
        f2 = apply_group(BHPElement(0, alpha, 0.0), random_field(rng))
        massive = random_field(rng, mass=1.0)
        with pytest.raises(ValueError, match="haar_scale"):  # the scale is checked first
            average_bform_circle(massive, f2, quad, haar_scale=-1.0)
        with pytest.raises(MassMismatchError):
            average_bform_circle(massive, f2, quad)
        zero = FieldVector(0.0, ())
        for f, g in ((zero, f2), (f2, zero)):
            avg = average_bform_circle(f, g, quad)
            assert avg.value == 0.0 and avg.error_estimate == 0.0

    def test_invariant_second_argument(self, rng, quad):
        # packet on the z axis, isotropic in the plane: already invariant
        f2 = FieldVector(0.0, (GaussianPacket([0, 0, 1.2], [0.8, 0.8, 1.0], 0.9 + 0.2j),))
        f1 = random_field(rng)
        avg = average_form_circle("mu", f1, f2, quad)
        direct = mu(f1, f2, quad).value
        assert avg.value.real == pytest.approx(direct, rel=1e-8)

    def test_insertion_invariance(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        base = average_form_circle("mu", f1, f2, quad)
        shifted = average_form_circle("mu", f1, apply_group(RotationElement(0.77), f2), quad)
        assert shifted.value.real == pytest.approx(base.value.real, rel=1e-10, abs=1e-12)

    def test_symmetry_of_averaged_mu(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        a12 = average_form_circle("mu", f1, f2, quad).value.real
        a21 = average_form_circle("mu", f2, f1, quad).value.real
        assert a12 == pytest.approx(a21, rel=1e-10, abs=1e-13)

    def test_antisymmetry_of_averaged_omega(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        a12 = average_form_circle("omega", f1, f2, quad).value.real
        a21 = average_form_circle("omega", f2, f1, quad).value.real
        assert a12 == pytest.approx(-a21, rel=1e-10, abs=1e-13)

    def test_null_vector_annihilated(self, rng, quad):
        chi, psi = random_field(rng), random_field(rng)
        h = RotationElement(2.1)
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        val = average_form_circle("mu", chi, null_vec, quad).value
        ref = abs(average_form_circle("mu", chi, psi, quad).value) + 1.0
        assert abs(val) <= 1e-8 * ref

    def test_measure_rescaling(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        base = average_form_circle("mu", f1, f2, quad).value.real
        for c in (0.5, 2.0, 10.0):
            scaled = average_form_circle("mu", f1, f2, quad, haar_scale=c).value.real
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_rejects_unknown_form(self, rng, quad):
        with pytest.raises(ValueError):
            average_form_circle("bform", random_field(rng), random_field(rng), quad)


ONE_NODE = ([0.0], [1.0])
FIXED_COUNTS = (100, 64, 96)


class TestBhpDirectLevel:
    def test_identity_element_is_plain_bform(self, rng, quad_bhp):
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        res = average_bform_bhp_direct(f1, f2, [0], ONE_NODE, ONE_NODE, FIXED_COUNTS)
        assert res.value == pytest.approx(bform(f1, f2, quad_bhp).value, rel=1e-10)

    def test_translation_phase_inside_integrand(self, rng, quad_bhp):
        # g = (n, 0, 0) must match the reduced expression with the x-phase
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        res = average_bform_bhp_direct(f1, f2, [1], ONE_NODE, ONE_NODE, FIXED_COUNTS)
        ref = bhp_reduced_integrand(f1, f2, BHPElement(1, 0.0, 0.0), quad_bhp)
        assert res.value == pytest.approx(ref.value, rel=1e-8, abs=1e-12)

    def test_product_grid_is_weighted_element_sum(self, rng):
        # the (alpha, n, beta) contraction against one element at a time; the
        # alpha rule is off-centre, so its |alpha| are distinct and the
        # largest alpha carries a tail alongside the largest |n|
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        ns = [-1, 0, 1]
        (a, wa), (b, wb) = gl_nodes(3, -0.6, 1.0), gl_nodes(3, -1.5, 1.5)
        counts = (40, 24, 48)
        grid = average_bform_bhp_direct(f1, f2, ns, (a, wa), (b, wb), counts)
        contrib = {}
        for n in ns:
            for i in range(3):
                for j in range(3):
                    one = average_bform_bhp_direct(f1, f2, [n], ([a[i]], [1.0]),
                                                   ([b[j]], [1.0]), counts)
                    assert one.tail_bound == 0.0
                    contrib[n, i, j] = wa[i] * wb[j] * one.value
        mass = sum(abs(c) for c in contrib.values())
        assert mass > 1e-3
        assert abs(grid.value - sum(contrib.values())) <= 1e-12 * mass
        assert np.isnan(grid.error_estimate)
        i_edge = int(np.argmax(np.abs(a)))
        tail = (sum(abs(c) for (_, i, _), c in contrib.items() if i == i_edge)
                + sum(abs(c) for (n, _, _), c in contrib.items() if abs(n) == 1))
        assert grid.tail_bound == pytest.approx(tail, rel=1e-12)

    def test_sampled_g_integrand_identity(self, rng, quad_bhp):
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        for g in (BHPElement(1, 0.5, 0.8), BHPElement(-1, -0.9, 1.5)):
            direct = bform(f1, apply_group(g, f2), quad_bhp)
            ref = bhp_reduced_integrand(f1, f2, g, quad_bhp)
            denom = max(abs(direct.value), abs(ref.value))
            assert abs(direct.value - ref.value) <= max(
                1e-5 * denom, 2 * (direct.error_estimate + ref.error_estimate))

    def test_substitution_identity(self):
        h = lambda x: np.exp(-0.5 * (x - 0.4) ** 2)
        lhs, rhs = substitution_check(h, support=14.0, n=1, ky=0.7)
        assert lhs == pytest.approx(rhs, rel=1e-8)
        lhs, rhs = substitution_check(h, support=14.0, n=2, ky=-1.3)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    @pytest.mark.slow
    def test_coarse_group_average_matches_reduced(self, quad_bhp):
        from conftest import s0_field

        f1 = s0_field([1.0, -0.3, 0.4], [0.8, 0.9, 0.9], 0.9 + 0.4j)
        f2 = s0_field([0.7, 0.5, -0.3], [0.9, 0.8, 1.0], 0.6 - 0.7j)
        red = average_bform_bhp_reduced(f1, f2, quad_bhp)
        direct = average_bform_bhp_direct(f1, f2, range(-3, 4), gl_nodes(64, -10.0, 10.0),
                                          gl_nodes(28, -8.0, 8.0), FIXED_COUNTS)
        assert abs(direct.value - red.value) <= 2e-3 * abs(red.value)


class TestBhpReducedLevels:
    def test_zero_second_argument(self, rng, quad_bhp):
        res = average_bform_bhp_reduced(random_s0_field(rng), FieldVector(0.0, ()),
                                        quad_bhp)
        assert res.value == 0.0

    def test_gave_matches_reduced(self, rng, quad_bhp):
        for _ in range(3):
            f1, f2 = random_s0_field(rng), random_s0_field(rng)
            red = average_bform_bhp_reduced(f1, f2, quad_bhp)
            gave = average_bform_bhp_gave(f1, f2, quad_bhp)
            assert abs(gave.value - red.value) <= 1e-6 * abs(red.value)

    def test_haar_rescaling_and_sequence_map(self, rng, quad_bhp):
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        s1 = project_bhp(f1, quad_bhp)
        s2 = project_bhp(f2, quad_bhp)
        base = average_bform_bhp_reduced(f1, f2, quad_bhp, sequences=(s1, s2)).value
        for c in (0.5, 2.0, 10.0):
            scaled = average_bform_bhp_reduced(f1, f2, quad_bhp, haar_scale=c,
                                               sequences=(s1, s2)).value
            assert scaled == pytest.approx(c * base, rel=1e-12)
            # A_n -> sqrt(c) A_n reproduces the rescaled forms at unit scale
            mapped = average_bform_bhp_reduced(
                f1, f2, quad_bhp,
                sequences=(s1.rescaled(np.sqrt(c)), s2.rescaled(np.sqrt(c)))).value
            assert mapped == pytest.approx(scaled, rel=1e-10)

    def test_null_vector_annihilated(self, rng, quad_bhp):
        chi, psi = random_s0_field(rng), random_s0_field(rng)
        h = BHPElement(1, 0.6, -0.8)
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        val = average_bform_bhp_reduced(chi, null_vec, quad_bhp).value
        ref = abs(average_bform_bhp_reduced(chi, psi, quad_bhp).value) + 1.0
        assert abs(val) <= 1e-6 * ref

    def test_insertion_invariance(self, rng, quad_bhp):
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        base = average_bform_bhp_reduced(f1, f2, quad_bhp).value
        moved = average_bform_bhp_reduced(
            f1, apply_group(BHPElement(2, -0.5, 1.1), f2), quad_bhp).value
        assert moved == pytest.approx(base, rel=2e-6)


class TestPoisson:
    def test_gaussian_rhs_value(self):
        # direct sum oracle: sum over |n| <= 6 of exp(-n^2/2)
        expected = 1.0 + 2.0 * sum(np.exp(-0.5 * n * n) for n in range(1, 7))
        _, rhs = poisson_check(lambda u: np.exp(-0.5 * u * u), 4, 6.9)
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(2.5066282879, rel=1e-9)

    def test_real_for_even_function(self):
        lhs, _ = poisson_check(lambda u: np.exp(-0.5 * u * u), 16, 20.0)
        assert abs(lhs.imag) < 1e-12

    def test_two_sided_agreement(self):
        lhs, rhs = poisson_check(lambda u: np.exp(-0.5 * u * u), 32, 40.0)
        assert abs(lhs - rhs) < 1e-6


class TestFieldAverage:
    def test_paths_agree(self, rng, quad_bhp):
        f = random_s0_field(rng)
        seq = project_bhp(f, quad_bhp)
        for tau, sigma in ((1.0, 0.4), (0.5, 2.0), (2.0, 1.0)):
            direct = average_field_bhp(f, tau, sigma, quad_bhp, path="direct")
            series = average_field_bhp(f, tau, sigma, quad_bhp, path="series",
                                       sequence=seq)
            assert direct == pytest.approx(series, abs=1e-5)

    def test_periodicity(self, rng, quad_bhp):
        f = random_s0_field(rng)
        seq = project_bhp(f, quad_bhp)
        v0 = average_field_bhp(f, 1.2, 0.9, quad_bhp, sequence=seq)
        v1 = average_field_bhp(f, 1.2, 0.9 + 2 * np.pi, quad_bhp, sequence=seq)
        assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-14)

    def test_reduced_wave_equation_residual(self, rng, quad_bhp):
        f = random_s0_field(rng)
        seq = project_bhp(f, quad_bhp)
        h, tau, sigma = 0.05, 1.1, 0.8

        def psi(dt=0.0, ds=0.0):
            return average_field_bhp(f, tau + dt, sigma + ds, quad_bhp, sequence=seq)

        center = psi()
        d2t = (-psi(2 * h) + 16 * psi(h) - 30 * center + 16 * psi(-h) - psi(-2 * h)) \
            / (12 * h * h)
        d1t = (-psi(2 * h) + 8 * psi(h) - 8 * psi(-h) + psi(-2 * h)) / (12 * h)
        d2s = (-psi(0, 2 * h) + 16 * psi(0, h) - 30 * center + 16 * psi(0, -h)
               - psi(0, -2 * h)) / (12 * h * h)
        assert abs(-d2t - d1t / tau + d2s) < 1e-4

    def test_projection_kernel(self, rng, quad_bhp):
        # (Phi_h - 1) psi projects to zero, so its field average vanishes
        psi = random_s0_field(rng)
        h = BHPElement(1, 0.5, 0.7)
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        ref = max(abs(average_field_bhp(psi, 1.0, s, quad_bhp)) for s in (0.3, 1.7))
        for sigma in (0.3, 1.7):
            val = average_field_bhp(null_vec, 1.0, sigma, quad_bhp)
            assert abs(val) <= 2e-6 * (ref + 1.0)

    def test_divergence_guard(self, rng, quad_bhp):
        f = random_field(rng, mass=0.0)
        with pytest.raises(ZeroModeDivergenceError):
            average_field_bhp(f, 1.0, 0.0, quad_bhp)


class TestZeroModeProbe:
    def test_s0_probe_flat(self, rng):
        vals = zero_mode_divergence_probe(random_s0_field(rng), (5, 10, 20, 40))
        assert max(vals) < 1e-8

    def test_generic_probe_grows(self, rng):
        f = random_field(rng, mass=0.0)
        vals = zero_mode_divergence_probe(f, (5, 10, 20, 40))
        assert all(b > a for a, b in zip(vals, vals[1:]))
        ratios = [vals[i + 1] / vals[i] for i in range(len(vals) - 1)]
        assert min(ratios) > 1.2   # growth stays bounded away from saturation
