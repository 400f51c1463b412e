import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ccr_reduce import (
    BHPElement,
    FieldVector,
    GaussianPacket,
    ReducedSequence,
    RotationElement,
    TransformedPacket,
    ZeroModeDivergenceError,
    add,
    apply_A,
    apply_group,
    average_bform_bhp_direct,
    average_bform_bhp_gave,
    average_bform_bhp_reduced,
    average_field_bhp,
    average_bform_circle,
    bform,
    bhp_reduced_integrand,
    mu,
    poisson_check,
    project_bhp,
    scale,
    substitution_check,
    zero_mode_divergence_probe,
)
from ccr_reduce import quadrature
from ccr_reduce.corpus import generate_corpus, load_corpus
from ccr_reduce.errors import MassMismatchError, QuadratureError
from ccr_reduce.modes import omega_of, rays_at
from ccr_reduce.quadrature import (
    QuadratureConfig,
    _leggauss,
    _refine,
    adaptive_gl,
    adaptive_spherical,
    adaptive_tensor3,
    bounding_radius,
    gl_nodes,
    oscillatory_grid,
    spherical_integral,
)
from ccr_reduce.reduction import ordered_ns

from conftest import random_field, random_s0_field, reduced_average, s0_field

PLAIN = load_corpus(generate_corpus(42, 6))


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

    def test_vector_levels_use_max_norm_against_largest_entry(self):
        def level(n):
            # the small entry changes by 90% per level and sets the max-norm
            # difference 4.5 * 10^(2-n); rel_tol 1e-8 of the largest entry
            # (about 2) first admits it at n = 11
            return np.array([2.0 + 10.0 ** -n, 0.5 * 10.0 ** (2 - n)])

        value, err = _refine(level, range(1, 20), QuadratureConfig(), "no convergence")
        assert np.array_equal(value, level(11))
        assert err == np.max(np.abs(level(11) - level(10)))
        assert err == pytest.approx(4.5e-9, rel=1e-12)

    def test_vector_levels_raise_when_levels_run_out(self):
        with pytest.raises(QuadratureError, match="no convergence"):
            _refine(lambda n: np.array([2.0 + 10.0 ** -n, 0.5 * 10.0 ** (2 - n)]),
                    range(1, 11), QuadratureConfig(), "no convergence")

    def test_substitution_check_gaussian(self):
        # both sides equal int exp(-x^2/2) dx = sqrt(2 pi) up to a tail of e^-72
        lhs, rhs = substitution_check(lambda x: np.exp(-0.5 * x * x), support=12.0, n=1, ky=0.7)
        assert abs(lhs - np.sqrt(2.0 * np.pi)) <= 1e-12
        assert abs(rhs - np.sqrt(2.0 * np.pi)) <= 1e-12

    def test_tensor3_raises_at_its_cap(self):
        def fn(K):
            return np.exp(40j * K[..., 0]) * np.exp(-np.sum(K * K, axis=-1) / 0.02)

        box = (np.full(3, -1.0), np.full(3, 1.0))
        # the Gaussian tails beyond the box are below e^-50
        exact = (0.02 * np.pi) ** 1.5 * np.exp(-8.0)
        value, _ = adaptive_tensor3(fn, box, QuadratureConfig(), 0.1)
        assert abs(value - exact) < 1e-8 * exact
        # the ladder starts at 41 nodes per axis; a cap of 50 ends it after
        # a second level that still differs from the first by 60%
        with mock.patch.object(quadrature, "TENSOR_CAP", 50), \
                mock.patch.object(quadrature, "tensor3_integral",
                                  wraps=quadrature.tensor3_integral) as spy:
            with pytest.raises(QuadratureError):
                adaptive_tensor3(fn, box, QuadratureConfig(), 0.1)
        assert [c.args[2] for c in spy.call_args_list] == [(41, 41, 41), (50, 50, 50)]

    def test_gl_ladder_raises_at_its_cap(self):
        def gauss(x, w):
            return float(np.sum(w * np.exp(-0.5 * (x / 0.1) ** 2)))

        value, _ = adaptive_gl(gauss, -2.0, 2.0, QuadratureConfig(), 0.1, "no convergence")
        assert abs(value - 0.1 * np.sqrt(2.0 * np.pi)) < 1e-8 * value
        # a width below the floor counts as 1e-3: the start is kept three
        # steps below GL_CAP, so four levels run before the capped fifth,
        # and cos(3000 x) needs about 2000 nodes: every level is off by 1e-2
        with mock.patch.object(quadrature, "gl_nodes", wraps=quadrature.gl_nodes) as spy:
            with pytest.raises(QuadratureError, match="no convergence"):
                adaptive_gl(lambda x, w: float(np.sum(w * np.cos(3000.0 * x))), -1.0, 1.0,
                            QuadratureConfig(), 1e-6, "no convergence")
        assert [c.args[0] for c in spy.call_args_list] == [266, 376, 530, 746, 1024]

    def test_spherical_capped_axis_raises(self):
        # the trapezoid error in azimuth falls like 0.87^n_phi
        b = 0.99

        def fn(K):
            phi = np.arctan2(K[..., 1], K[..., 0])
            return np.exp(-np.sum(K * K, axis=-1)) / (1.0 - b * np.cos(phi))

        # radial and polar rules converge; only the azimuth is hard
        exact = np.sqrt(np.pi) / 4.0 * 2.0 * 2.0 * np.pi / np.sqrt(1.0 - b * b)
        value, _ = adaptive_spherical(on_shells(fn), 6.0, QuadratureConfig(), 0.7)
        assert abs(value - exact) < 1e-8 * exact
        # azimuths 68 and then 80 at the cap: they differ by about 1e-4
        levels = []
        with mock.patch.object(quadrature, "SHELL_CAPS", (280, 80)), \
                mock.patch.object(quadrature, "spherical_integral",
                                  wraps=quadrature.spherical_integral) as spy:
            with pytest.raises(QuadratureError):
                adaptive_spherical(on_shells(fn, levels), 6.0, QuadratureConfig(), 0.7)
        assert [c.args[2] for c in spy.call_args_list] == [(34, 34, 68), (51, 51, 80)]
        # the factory is called once per level, on that level's directions
        assert levels == [(34, 68, 3), (51, 80, 3)]


def on_shells(fn, levels=None):
    """A pointwise integrand fn(K) as a spherical-grid factory: D -> (r -> fn(r D)).

    levels, when given, records the shape of the directions of every call.
    """
    def factory(D):
        if levels is not None:
            levels.append(D.shape)
        return lambda r: fn(r * D)

    return factory


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
        # the shell caps: a whole grid would need 1.4 GB for K
        shapes = []
        levels = []

        def fn(K):
            shapes.append(K.shape)
            return np.zeros(K.shape[:-1])

        assert spherical_integral(on_shells(fn, levels), 5.0, (380, 280, 560)) == 0.0
        assert levels == [(280, 560, 3)]
        assert len(shapes) == 380
        assert max(int(np.prod(sh[:-1])) for sh in shapes) <= 280 * 560

    def test_polynomial_is_exact(self):
        # integral over |k| <= R of k_x^2 + k_z^4 = 4 pi R^5 / 15 + 4 pi R^7 / 35
        R = 1.7
        exact = 4.0 * np.pi * R**5 / 15.0 + 4.0 * np.pi * R**7 / 35.0
        levels = []
        value = spherical_integral(on_shells(lambda K: K[..., 0] ** 2 + K[..., 2] ** 4, levels),
                                   R, (6, 5, 8))
        assert abs(value - exact) <= 1e-13 * exact
        assert levels == [(5, 8, 3)]

    def test_matches_whole_grid_sum(self):
        def fn(K):
            d = K - np.array([0.4, -0.3, 0.7])
            return np.exp(-np.sum(d * d, axis=-1) / 1.3 + 0.6j * K[..., 1])

        counts = (60, 40, 80)
        ref = whole_grid_integral(fn, 6.0, counts)
        levels = []
        assert abs(spherical_integral(on_shells(fn, levels), 6.0, counts) - ref) <= 1e-14 * abs(ref)
        assert levels == [(40, 80, 3)]


bhp_elements = st.builds(BHPElement, st.integers(-1, 1), st.floats(-1.0, 1.0),
                         st.floats(-2.0, 2.0))


@st.composite
def chain_terms(draw):
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


chain_fields = st.builds(lambda terms: FieldVector(0.0, tuple(terms)),
                         st.lists(chain_terms(), min_size=1, max_size=2))
CENTRED = FieldVector(0.0, (GaussianPacket([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 1.0),))
boosts = st.builds(BHPElement, st.integers(-1, 1),
                   st.one_of(st.floats(-1.0, -0.1), st.floats(0.1, 1.0)), st.floats(-2.0, 2.0))


def radial_route(f1, f2, quad, g):
    """B(f1, Phi_g f2) by the radial Gauss-Legendre route, the reference of the angular one.

    The reduced integrand root(d) conj(a1)(r L d) a2(r d) exp(i r theta_g(d))
    of bhp_reduced_integrand, with each amplitude from its on_rays rows, is
    integrated shell by shell by adaptive_spherical on the ball of f2's
    support-box corner radius, outside which a2 is below e^-50.
    """
    def factory(D):
        LD = g.forward_momentum_map(D)
        w, wf = omega_of(D, 0.0), omega_of(LD, 0.0)
        rows1, rows2 = f1.on_rays(LD), f2.on_rays(D)
        # theta_g(d) = 2 pi n d_x + beta d_z, from the definition
        theta = 2.0 * np.pi * g.n * D[..., 0] + g.beta * D[..., 2]
        return lambda r: (np.sqrt(wf / w) * np.conj(rays_at(rows1, r)) * rays_at(rows2, r)
                          * np.exp(1j * r * theta))

    width = min(f1.min_width() * np.exp(-abs(g.alpha)), f2.min_width())
    value, _ = adaptive_spherical(factory, bounding_radius(f2.support_box()), quad, width)
    return value


class TestTailRadius:
    """Boosted pairs integrate every ray to infinity in closed form: no radial tail is cut."""

    @given(f1=chain_fields, f2=chain_fields, g=boosts)
    @example(f1=CENTRED, f2=CENTRED, g=BHPElement(1, 0.5, 0.8))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_angular_routes_match_radial_route(self, f1, f2, g):
        # B(f1, Phi_g f2) by the boosted bform and by the reduced integrand
        quad = QuadratureConfig()
        ref = radial_route(f1, f2, quad, g)
        for got in (bform(f1, apply_group(g, f2), quad), bhp_reduced_integrand(f1, f2, g, quad)):
            assert abs(got.value - ref) <= max(quad.abs_tol, quad.rel_tol * abs(ref))

    def test_reduced_integrand_zero_field(self, rng, quad_bhp):
        # the zero field's placeholder box meets the other box, so the guard
        # must come before the ladder is sized
        f = FieldVector(0.0, (GaussianPacket([0.3, 0.2, 0.1], [1.0, 1.0, 1.0], 1.0),))
        zero = FieldVector(0.0, ())
        g = BHPElement(1, 0.5, 0.8)
        for pair in ((zero, f), (f, zero)):
            res = bhp_reduced_integrand(*pair, g, quad_bhp)
            assert (res.value, res.error_estimate) == (0.0, 0.0)

    def test_seed42_pair_translation_identity(self):
        # on the s0 corpus pair (0, 1) the reduced single integral at
        # g = (1, 0, 0) meets the closed form bform(f1, Phi_g f2)
        f1, f2 = load_corpus(generate_corpus(42, 6, s0=True))[:2]
        g = BHPElement(1, 0.0, 0.0)
        quad = QuadratureConfig(n_max=8)
        reduced = bhp_reduced_integrand(f1, f2, g, quad).value
        closed = bform(f1, apply_group(g, f2), quad).value
        assert abs(reduced - closed) <= 1e-9 * abs(closed)


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
        avg = average_bform_circle(f1, f2, quad)
        direct = mu(f1, f2, quad).value
        assert avg.value.real == pytest.approx(direct, rel=1e-8)

    def test_insertion_invariance(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        base = average_bform_circle(f1, f2, quad)
        shifted = average_bform_circle(f1, apply_group(RotationElement(0.77), f2), quad)
        assert shifted.value.real == pytest.approx(base.value.real, rel=1e-10, abs=1e-12)

    def test_symmetry_of_averaged_mu(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        a12 = average_bform_circle(f1, f2, quad).value.real
        a21 = average_bform_circle(f2, f1, quad).value.real
        assert a12 == pytest.approx(a21, rel=1e-10, abs=1e-13)

    def test_antisymmetry_of_averaged_omega(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        a12 = -2.0 * average_bform_circle(f1, f2, quad).value.imag
        a21 = -2.0 * average_bform_circle(f2, f1, quad).value.imag
        assert a12 == pytest.approx(-a21, rel=1e-10, abs=1e-13)

    def test_null_vector_annihilated(self, rng, quad):
        chi, psi = random_field(rng), random_field(rng)
        h = RotationElement(2.1)
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        val = average_bform_circle(chi, null_vec, quad).value.real
        ref = abs(average_bform_circle(chi, psi, quad).value.real) + 1.0
        assert abs(val) <= 1e-8 * ref


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
        f1 = s0_field([1.0, -0.3, 0.4], [0.8, 0.9, 0.9], 0.9 + 0.4j)
        f2 = s0_field([0.7, 0.5, -0.3], [0.9, 0.8, 1.0], 0.6 - 0.7j)
        red = reduced_average(f1, f2, quad_bhp)
        direct = average_bform_bhp_direct(f1, f2, range(-3, 4), gl_nodes(64, -10.0, 10.0),
                                          gl_nodes(28, -8.0, 8.0), FIXED_COUNTS)
        assert abs(direct.value - red.value) <= 2e-3 * abs(red.value)


class TestBhpReducedLevels:
    def test_zero_second_argument(self, rng, quad_bhp):
        res = reduced_average(random_s0_field(rng), FieldVector(0.0, ()), quad_bhp)
        assert res.value == 0.0

    def test_gave_matches_reduced(self, rng, quad_bhp):
        for _ in range(3):
            f1, f2 = random_s0_field(rng), random_s0_field(rng)
            red = reduced_average(f1, f2, quad_bhp)
            gave = average_bform_bhp_gave(f1, f2, quad_bhp)
            assert abs(gave.value - red.value) <= 1e-6 * abs(red.value)

    def test_haar_rescaling_and_sequence_map(self, rng, quad_bhp):
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        s1 = project_bhp(f1, quad_bhp)
        s2 = project_bhp(f2, quad_bhp)
        base = average_bform_bhp_reduced(s1, s2).value
        for c in (0.5, 2.0, 10.0):
            # a Haar scale c is the map A_n -> sqrt(c) A_n of both sequences
            mapped = average_bform_bhp_reduced(s1.rescaled(np.sqrt(c)),
                                               s2.rescaled(np.sqrt(c))).value
            assert mapped == pytest.approx(c * base, rel=1e-12)

    def test_error_estimate_bounds_worst_case_perturbation(self):
        # every entry of s_i may be off by e_i; move each along the other
        # sequence's phase, so that the shifts of the N products add up
        ns = ordered_ns(4)
        a1 = {n: 0.6 ** abs(n) * np.exp(0.7j * n) for n in ns}
        a2 = {n: (1.0 + 0.5j) * 0.8 ** abs(n) * np.exp(0.7j * n) for n in ns}
        e1, e2 = 1e-6, 3e-6
        s1, s2 = ReducedSequence(a1, True, e1), ReducedSequence(a2, True, e2)
        res = average_bform_bhp_reduced(s1, s2)
        moved = average_bform_bhp_reduced(
            ReducedSequence({n: a1[n] + e1 * a2[n] / abs(a2[n]) for n in ns}, True),
            ReducedSequence({n: a2[n] + e2 * a1[n] / abs(a1[n]) for n in ns}, True))
        shift = abs(moved.value - res.value)
        per_entry_max = e1 * max(map(abs, a2.values())) + e2 * max(map(abs, a1.values()))
        assert per_entry_max < shift <= res.error_estimate

    def test_null_vector_annihilated(self, rng, quad_bhp):
        chi, psi = random_s0_field(rng), random_s0_field(rng)
        h = BHPElement(1, 0.6, -0.8)
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        val = reduced_average(chi, null_vec, quad_bhp).value
        ref = abs(reduced_average(chi, psi, quad_bhp).value) + 1.0
        assert abs(val) <= 1e-6 * ref

    def test_insertion_invariance(self, rng, quad_bhp):
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        base = reduced_average(f1, f2, quad_bhp).value
        moved = reduced_average(f1, apply_group(BHPElement(2, -0.5, 1.1), f2), quad_bhp).value
        assert moved == pytest.approx(base, rel=2e-6)


def reduced_gram(route, fields):
    """route(f_i, f_j) over every ordered pair, with the entries' error estimates."""
    n = len(fields)
    G, E = np.zeros((n, n), dtype=complex), np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            res = route(fields[i], fields[j])
            G[i, j], E[i, j] = res.value, res.error_estimate
    return G, E


def check_reduced_state(G, E):
    """B_G is a Hermitian positive semidefinite form, so its Gram matrix is one.

    Each entry may be off by its error estimate: a perturbation E moves the
    eigenvalues by at most its Frobenius norm (Weyl), and the diagonal by at
    most its entries.  Beyond that only roundoff is allowed.  Checks the
    Hermitian symmetry, the quasi-free bound |Omega_G| / 2 <= sqrt(mu_G,ii
    mu_G,jj) of every pair, with Omega_G = -2 Im B_G and mu_G = Re B_G, and
    the smallest eigenvalue.
    """
    roundoff = 1e-13 * float(np.max(np.abs(G)))
    assert np.all(np.abs(G - G.conj().T) <= E + E.T + roundoff)
    mu_diag = G.diagonal().real + E.diagonal()
    for i in range(len(G)):
        for j in range(len(G)):
            half_omega = 0.5 * abs(-2.0 * G[i, j].imag)
            assert half_omega <= np.sqrt(mu_diag[i] * mu_diag[j]) + E[i, j] + roundoff
    lam = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    assert lam[0] >= -(np.linalg.norm(E) + roundoff)


def check_omega_antisymmetry(b12, b21):
    """Omega_G(f1, f2) = -Omega_G(f2, f1), from b12 = B_G(f1, f2) and b21 = B_G(f2, f1).

    Each Omega_G = -2 Im B_G may be off by twice its operand's error estimate.
    """
    gap = abs(-2.0 * b12.value.imag - 2.0 * b21.value.imag)
    assert gap <= 2.0 * (b12.error_estimate + b21.error_estimate) + 1e-13 * abs(b12.value)


def check_A_squared(b, b_AA):
    """A^2 = -1 on the averaged form: B_G(f1, A A f2) = -B_G(f1, f2), up to the errors."""
    gap = abs(b_AA.value + b.value)
    assert gap <= b.error_estimate + b_AA.error_estimate + 1e-13 * abs(b.value)


def check_complex_structure(b, b_A):
    """mu_G(f1, A f2) = Omega_G(f1, f2) / 2, from b = B_G(f1, f2) and b_A = B_G(f1, A f2).

    With mu_G = Re B_G and Omega_G = -2 Im B_G.  Both sides may be off by
    their error estimates; beyond that only roundoff is allowed.
    """
    gap = abs(b_A.value.real - (-b.value.imag))
    assert gap <= b.error_estimate + b_A.error_estimate + 1e-13 * abs(b.value)


@st.composite
def circle_triples(draw):
    """Three boost-free fields of one mass; the third may be a combination of the others.

    A dependent third field makes the Gram matrix singular, so its smallest
    eigenvalue is zero and only roundoff and the entries' errors may move it.
    """
    mass = draw(st.sampled_from([0.0, 1.0]))
    # no vanishing term, so that no example is the trivial zero matrix
    terms = st.lists(circle_terms().filter(lambda t: abs(t.base.coeff) > 0.1),
                     min_size=1, max_size=2)
    f1, f2 = (FieldVector(mass, tuple(draw(terms))) for _ in range(2))
    if draw(st.booleans()):
        c = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        f3 = add(f1, scale(f2, c))
    else:
        f3 = FieldVector(mass, tuple(draw(terms)))
    return f1, f2, f3


@st.composite
def boosted_circle_fields(draw):
    """A bare packet behind one BHPElement(0, alpha, beta), |alpha| <= 1."""
    base = GaussianPacket([draw(st.floats(-2.5, 2.5)) for _ in range(3)],
                          [draw(st.floats(0.4, 1.2)) for _ in range(3)],
                          complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0))))
    g = BHPElement(0, draw(st.floats(-1.0, 1.0)), draw(st.floats(-2.0, 2.0)))
    return apply_group(g, FieldVector(0.0, (base,)))


@st.composite
def boosted_circle_triples(draw):
    """Three boosted_circle_fields; the third may be a combination of the others."""
    f1, f2 = draw(boosted_circle_fields()), draw(boosted_circle_fields())
    if draw(st.booleans()):
        c = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        return f1, f2, add(f1, scale(f2, c))
    return f1, f2, draw(boosted_circle_fields())


@st.composite
def s0_fields(draw):
    """A zero-mode-free massless field: an s0 pair, bare or behind a BHP element."""
    center = [draw(st.floats(0.6, 1.8)), draw(st.floats(-2.0, 2.0)),
              draw(st.floats(-2.0, 2.0))]
    coeff = draw(st.floats(0.2, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    f = s0_field(center, [draw(st.floats(0.6, 1.1)) for _ in range(3)], coeff)
    return apply_group(draw(bhp_elements), f) if draw(st.booleans()) else f


@st.composite
def s0_triples(draw):
    """Three s0_fields; the third may be a combination of the others."""
    f1, f2 = draw(s0_fields()), draw(s0_fields())
    if draw(st.booleans()):
        c = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        return f1, f2, add(f1, scale(f2, c))
    return f1, f2, draw(s0_fields())


class TestReducedStateProperties:
    """The reduced forms define a state: the property suite over random packets."""

    @given(fields=circle_triples())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_circle_closed_form_route(self, fields):
        quad = QuadratureConfig()
        check_reduced_state(*reduced_gram(lambda a, b: average_bform_circle(a, b, quad),
                                          fields))

    @given(fields=boosted_circle_triples())
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_circle_boosted_route(self, fields):
        quad = QuadratureConfig()
        check_reduced_state(*reduced_gram(lambda a, b: average_bform_circle(a, b, quad),
                                          fields))

    @given(chi=boosted_circle_fields(), psi=boosted_circle_fields(),
           theta=st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=5, deadline=None, derandomize=True)
    def test_circle_boosted_null_vector_annihilated(self, chi, psi, theta):
        quad = QuadratureConfig()
        null_vec = add(apply_group(RotationElement(theta), psi), scale(psi, -1.0))
        ref = abs(average_bform_circle(chi, psi, quad).value) + 1.0
        assert abs(average_bform_circle(chi, null_vec, quad).value) <= 1e-8 * ref

    @given(fields=s0_triples())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_bhp_reduced_route(self, fields):
        quad = QuadratureConfig(n_max=6)
        seqs = {id(f): project_bhp(f, quad) for f in fields}

        def route(a, b):
            return average_bform_bhp_reduced(seqs[id(a)], seqs[id(b)])

        check_reduced_state(*reduced_gram(route, fields))

    @given(fields=s0_triples())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_bhp_gave_route(self, fields):
        quad = QuadratureConfig(n_max=6)
        check_reduced_state(*reduced_gram(lambda a, b: average_bform_bhp_gave(a, b, quad),
                                          fields))

    @given(pair=circle_pairs(), theta=st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_circle_null_vector_annihilated(self, pair, theta):
        chi, psi = pair
        quad = QuadratureConfig()
        null_vec = add(apply_group(RotationElement(theta), psi), scale(psi, -1.0))
        ref = abs(average_bform_circle(chi, psi, quad).value) + 1.0
        assert abs(average_bform_circle(chi, null_vec, quad).value) <= 1e-8 * ref

    @given(chi=s0_fields(), psi=s0_fields(),
           h=st.builds(BHPElement, st.integers(-2, 2), st.floats(-1.0, 1.0),
                       st.floats(-2.0, 2.0)))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_bhp_null_vector_annihilated(self, chi, psi, h):
        quad = QuadratureConfig(n_max=6)
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        ref = abs(reduced_average(chi, psi, quad).value) + 1.0
        assert abs(reduced_average(chi, null_vec, quad).value) <= 1e-6 * ref

    @given(pair=circle_pairs())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_circle_complex_structure_commutes(self, pair):
        f1, f2 = pair
        quad = QuadratureConfig()
        check_complex_structure(average_bform_circle(f1, f2, quad),
                                average_bform_circle(f1, apply_A(f2), quad))

    @given(f1=s0_fields(), f2=s0_fields())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_bhp_complex_structure_commutes(self, f1, f2):
        quad = QuadratureConfig(n_max=6)
        check_complex_structure(reduced_average(f1, f2, quad),
                                reduced_average(f1, apply_A(f2), quad))

    @given(pair=circle_pairs())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_circle_omega_antisymmetry(self, pair):
        f1, f2 = pair
        quad = QuadratureConfig()
        check_omega_antisymmetry(average_bform_circle(f1, f2, quad),
                                 average_bform_circle(f2, f1, quad))

    @given(f1=s0_fields(), f2=s0_fields())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_bhp_omega_antisymmetry(self, f1, f2):
        quad = QuadratureConfig(n_max=6)
        check_omega_antisymmetry(reduced_average(f1, f2, quad),
                                 reduced_average(f2, f1, quad))

    @given(pair=circle_pairs())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_circle_A_squared_is_minus_one(self, pair):
        f1, f2 = pair
        quad = QuadratureConfig()
        check_A_squared(average_bform_circle(f1, f2, quad),
                        average_bform_circle(f1, apply_A(apply_A(f2)), quad))

    @given(f1=s0_fields(), f2=s0_fields())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_bhp_A_squared_is_minus_one(self, f1, f2):
        quad = QuadratureConfig(n_max=6)
        check_A_squared(reduced_average(f1, f2, quad),
                        reduced_average(f1, apply_A(apply_A(f2)), quad))


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

    def test_direct_path_raises_when_unconverged(self, rng):
        # rel_tol 1e-16 is below what the k_y ladder can reach in double
        # precision: the direct route must say so instead of returning
        f = random_s0_field(rng)
        with pytest.raises(QuadratureError):
            average_field_bhp(f, 1.0, 0.4, QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300),
                              path="direct")

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

    @pytest.mark.parametrize("path", ["direct", "series"])
    def test_sigma_array_matches_scalar_calls(self, rng, quad_bhp, path):
        f = random_s0_field(rng)
        seq = project_bhp(f, quad_bhp)
        sigmas = np.array([[0.0, 0.7, 2.0], [np.pi, 4.5, 6.0]])
        for tau in (0.5, 1.3):
            vals = average_field_bhp(f, tau, sigmas, quad_bhp, path, seq)
            one = [average_field_bhp(f, tau, s, quad_bhp, path, seq) for s in sigmas.ravel()]
            assert all(type(v) is float for v in one)
            assert vals.shape == sigmas.shape
            scale_ = max(abs(v) for v in one)
            np.testing.assert_allclose(vals.ravel(), one, rtol=0.0, atol=1e-15 * scale_)


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

    @pytest.mark.parametrize("f", [
        *[pytest.param(f, id=str(i)) for i, f in enumerate(PLAIN[:3])],
        # narrow in k_y: the contour branch starts above 20 sqrt(h_max)
        *[pytest.param(FieldVector(0.0, (GaussianPacket((0.0, 0.5, 0.0), (1.0, wy, 1.0), 1.0),)),
                       id=f"width-{wy}") for wy in (0.05, 0.03, 0.02)],
        *[pytest.param(apply_group(BHPElement(0, a, 0.0), PLAIN[0]), id=f"boost-{a}")
          for a in (0.5, 1.5)],
    ])
    def test_slope_is_the_zero_mode_constant(self, f):
        # at large |alpha| the integrand tends to a constant, the k_y integral
        # of a(0, k_y, 0) / sqrt|k_y| that also gives A_0
        p40, p80 = zero_mode_divergence_probe(f, (40.0, 80.0))
        a0 = project_bhp(f, QuadratureConfig(n_max=1)).entries[0]
        predicted = abs(np.sqrt(2.0) * a0.imag) / (4.0 * np.pi ** 2)
        assert (p80 - p40) / 40.0 == pytest.approx(predicted, rel=1e-6)

    def test_k_y_mirror_gives_the_same_probe(self, rng):
        f = random_field(rng, mass=0.0, n_terms=2)
        mirror = FieldVector(0.0, tuple(
            GaussianPacket(t.center * np.array([1.0, -1.0, 1.0]), t.width, t.coeff)
            for t in f.terms))
        cutoffs = (5.0, 10.0, 20.0)
        assert zero_mode_divergence_probe(mirror, cutoffs) == pytest.approx(
            zero_mode_divergence_probe(f, cutoffs), rel=1e-14)

    def test_too_narrow_for_a_bounded_grid_raises(self):
        f = FieldVector(0.0, (GaussianPacket((0.0, 0.5, 0.0), (1.0, 3e-4, 1.0), 1.0),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="oscillatory grid"):
                zero_mode_divergence_probe(f, (5.0, 10.0))

    @pytest.mark.parametrize("alpha", [-1.5, 0.7, 2.0])
    def test_boosts_keep_the_zero_mode_constant(self, rng, alpha):
        f = random_field(rng, mass=0.0, n_terms=2)
        cfg = QuadratureConfig(n_max=1)
        a0 = project_bhp(f, cfg).entries[0]
        moved = project_bhp(apply_group(BHPElement(0, alpha, 0.0), f), cfg).entries[0]
        assert abs(moved - a0) <= 1e-10 * abs(a0)

    def test_capped_ladder_raises(self, rng):
        f = random_field(rng, mass=0.0)
        with mock.patch.object(quadrature, "GL_CAP", 24):
            with pytest.raises(QuadratureError, match="zero-mode probe"):
                zero_mode_divergence_probe(f, (5.0, 10.0))

    @pytest.mark.parametrize("field", [
        *[pytest.param(f, id=f"corpus-{i}")
          for i, f in enumerate(PLAIN[:2])],
        *[pytest.param(FieldVector(0.0, (GaussianPacket((0.0, ky, 0.0), (1.0, wy, 1.0), 1.0),)),
                       id=f"packet-{ky}-{wy}") for ky, wy in ((3.0, 0.1), (6.0, 0.15), (0.5, 0.1))],
    ])
    def test_octave_grids_match_the_single_grid(self, field):
        # the reference puts every octave on the one grid sized for nu = 50,
        # 100 sqrt(q_hi) over [0, sqrt(q_hi)]; narrow packets at large k_y
        # need the grids' width floor to match it
        cutoffs = (5.0, 10.0, 20.0, 40.0)
        got = zero_mode_divergence_probe(field, cutoffs)
        with mock.patch("ccr_reduce.averaging.oscillatory_grid",
                        lambda a, b, max_freq: oscillatory_grid(a, b, 100.0 * b)):
            ref = zero_mode_divergence_probe(field, cutoffs)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("cutoffs", [(5.0, 5.0), (10.0, 5.0), (0.0, 5.0), (-5.0,)])
    def test_cutoffs_must_increase(self, rng, cutoffs):
        with pytest.raises(ValueError, match="increasing"):
            zero_mode_divergence_probe(random_field(rng, mass=0.0), cutoffs)
