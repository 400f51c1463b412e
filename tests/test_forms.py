import tracemalloc

import numpy as np
import pytest

from ccr_reduce import (
    BHPElement,
    FieldVector,
    GaussianPacket,
    NegativeFormError,
    RotationElement,
    WeylWord,
    add,
    apply_A,
    apply_group,
    bform,
    commutator_check,
    field_from_json,
    field_to_json,
    mu,
    omega,
    qf_bound_check,
    scale,
    state_value,
    weyl_identity,
    weyl_multiply,
    weyl_star,
)
from ccr_reduce import forms
from ccr_reduce.modes import rays_at
from ccr_reduce.quadrature import gl_nodes, spherical_grid

from conftest import moved_pair_on_sphere, random_field, s0_field


def unit_gaussian():
    return FieldVector(0.0, (GaussianPacket([0, 0, 0], [1, 1, 1], 1.0),))


def riemann_bform_oracle(f1, f2, n=160):
    """Dense midpoint sum of conj(a1) a2 over the joint support."""
    lo1, hi1 = f1.support_box()
    lo2, hi2 = f2.support_box()
    lo, hi = np.minimum(lo1, lo2), np.maximum(hi1, hi2)
    axes = [np.linspace(lo[i], hi[i], n, endpoint=False) + (hi[i] - lo[i]) / (2 * n)
            for i in range(3)]
    cell = np.prod([(hi[i] - lo[i]) / n for i in range(3)])
    KX, KY, KZ = np.meshgrid(*axes, indexing="ij")
    K = np.stack([KX, KY, KZ], axis=-1)
    return complex(np.sum(np.conj(f1.amplitude(K)) * f2.amplitude(K))) * cell


class TestBform:
    def test_zero_argument(self, rng, quad):
        assert bform(random_field(rng), FieldVector(0.0, ()), quad).value == 0.0

    def test_unit_gaussian_diagonal(self, quad):
        # int exp(-|k|^2) d^3k = pi^(3/2)
        val = bform(unit_gaussian(), unit_gaussian(), quad).value
        assert val == pytest.approx(np.pi ** 1.5, rel=1e-14)

    def test_far_separated_overlap(self, quad):
        w = [1.0, 1.0, 1.0]
        f1 = FieldVector(0.0, (GaussianPacket([0, 0, 0], w, 1.0),))
        f2 = FieldVector(0.0, (GaussianPacket([20.0, 0, 0], w, 1.0),))
        assert abs(bform(f1, f2, quad).value) < 1e-12

    def test_closed_form_vs_riemann(self, rng, quad):
        f1 = random_field(rng, width_range=(0.8, 1.2))
        f2 = random_field(rng, width_range=(0.8, 1.2))
        oracle = riemann_bform_oracle(f1, f2)
        assert bform(f1, f2, quad).value == pytest.approx(oracle, rel=1e-9)

    # a 0.005-wide term that meets no f2 term sets the narrowest width:
    # 3 r / w is then about 6400 shells, far above the radial ceiling
    NARROW_TERM = GaussianPacket([-2.0, 0.0, 0.5], [0.005] * 3, 1.0)

    @pytest.mark.parametrize("w, extra", [(0.15, ()), (0.12, ()), (0.3, (NARROW_TERM,))],
                             ids=["0.15", "0.12", "0.3-narrow-term"])
    def test_narrow_boosted_pair_meets_closed_form(self, w, extra, quad):
        # boost invariance: the spherical ladder of the boosted pair must
        # reach the closed form of the unboosted one; a radial start close
        # to the radial cap, or at it, used to end this ladder early
        f1 = FieldVector(0.0, (GaussianPacket([0.4, 1.0, 2.0], [w, 1.3 * w, w], 1.0),) + extra)
        f2 = FieldVector(0.0, (GaussianPacket([0.3, 1.2, 1.8], [1.2 * w, w, w], 0.5 + 0.5j),))
        g = BHPElement(0, 0.9, 0)
        closed = bform(f1, f2, quad).value
        boosted = moved_pair_on_sphere(g, f1, f2, quad).value
        assert abs(boosted - closed) <= 1e-10 * abs(closed)

    def test_real_bilinearity_sampled(self, rng, quad):
        f1, f2, f3 = (random_field(rng) for _ in range(3))
        left = bform(f1, add(f2, scale(f3, 1.7)), quad).value
        right = bform(f1, f2, quad).value + 1.7 * bform(f1, f3, quad).value
        assert left == pytest.approx(right, rel=1e-12)


class TestRelativeFrame:
    # a boosted pair whose own chains put the packet near |k| ~ e^alpha is
    # evaluated in its relative frame, where the common boost drops out
    PACKET = FieldVector(0.0, (GaussianPacket([0.5, 0.2, 0.1], [0.8] * 3, 1.0),))

    @pytest.mark.parametrize("A", [3.0, 6.0, 12.0, 30.0])
    def test_lab_frame_pair_gives_its_rest_value(self, A, quad):
        f = self.PACKET
        rest = bform(f, apply_group(BHPElement(1, 0.5, 0.3), f), quad)
        lab = bform(apply_group(BHPElement(0, A, 0.0), f),
                    apply_group(BHPElement(1, A + 0.5, 0.3), f), quad)
        assert (lab.value, lab.error_estimate) == (rest.value, rest.error_estimate)
        assert lab.value == pytest.approx(-7.5932e-3 + 5.689e-5j, rel=1e-4)

    @pytest.mark.parametrize("alpha", [2.0, 6.0, 12.0, 20.0, 30.0])
    def test_split_chain_pair_gives_the_unboosted_diagonal(self, alpha, quad):
        f, half = self.PACKET, BHPElement(0, alpha / 2, 0.0)
        m = mu(apply_group(BHPElement(0, alpha, 0.0), f), apply_group(half, apply_group(half, f)),
               quad).value
        assert m == mu(f, f, quad).value
        assert m == pytest.approx(2.8509839343778354, rel=1e-14)

    def test_null_vector_norm_at_large_rapidity(self, quad):
        # the (g, g) pair is the closed-form diagonal; the (g, 1) cross pairs
        # are about 1e-21 at alpha = 30, so mu is twice mu(f, f)
        f = self.PACKET
        null = add(apply_group(BHPElement(1, 30.0, 0.3), f), scale(f, -1.0))
        assert mu(null, null, quad).value == pytest.approx(5.701967868755671, rel=1e-12)

    def test_split_chain_read_from_json_reduces_in_both_orders(self, quad):
        # field_from_json keeps the non-canonical chain (g/2, g/2); acting by
        # g^-1 on it, or moving g across it, must consume both halves
        g, half = BHPElement(0, 30.0, 0.0), BHPElement(0, 15.0, 0.0)
        doc = field_to_json(self.PACKET)
        doc["terms"][0]["actions"] = [half.to_json(), half.to_json()]
        split = field_from_json(doc)
        assert len(split.terms[0].chain) == 2
        moved = apply_group(g, self.PACKET)
        expected = mu(self.PACKET, self.PACKET, quad).value
        assert mu(moved, split, quad).value == expected
        assert mu(split, moved, quad).value == expected
        assert expected == pytest.approx(2.8509839343778354, rel=1e-14)


def mpmath_radial_moment(mp, p, c, t):
    """int_0^inf r^2 exp(-p (r - c)^2 + i t r) dr by mpmath quadrature."""
    top = max(c, 0.0)
    return complex(mp.quad(lambda r: r * r * mp.exp(-p * (r - c) ** 2 + 1j * t * r),
                           [0, top, top + 12 / mp.sqrt(p), mp.inf]))


class TestRadialMoment:
    # (P, m, theta): inward and outward centres, no phase and fast phases, a
    # narrow packet far out (P m^2 = 1600) and a wide one (P = 0.02)
    CASES = [(1.0, 0.5, 0.3), (16.0, 3.2, 0.0), (0.5, -2.0, 4.0), (2.0, 0.0, 10.0),
             (100.0, 4.0, 60.0), (0.02, 1.0, 0.5), (1.0, -6.0, 0.0), (4.0, 1.5, -25.0),
             (1e4, 0.4, 3.0)]
    # |z| = 25, 25 and 10, where the Faddeeva route lost 5e-9 to 8e-8 of the
    # value, and |z| = 8 -+ 0.01 on the diagonal m = theta / 2 (P = 1), on both
    # sides of the switch to the asymptotic series
    LARGE_Z = [(1.0, 0.0, 50.0), (1.0, 0.3, 50.0), (1.0, 0.0, 20.0),
               (1.0, 7.99 / np.sqrt(2.0), 7.99 * np.sqrt(2.0)),
               (1.0, 8.01 / np.sqrt(2.0), 8.01 * np.sqrt(2.0))]

    def test_matches_mpmath_quadrature(self):
        # within 1e-12 of the integral of the modulus over the whole line,
        # sqrt(pi / P) (m^2 + 1 / 2P): the natural scale of one term pair
        mp = pytest.importorskip("mpmath")
        P, m, theta = (np.array(x, dtype=float) for x in zip(*self.CASES))
        got = forms._radial_moment(P, m, theta)
        for (p, c, t), g in zip(self.CASES, got):
            ref = mpmath_radial_moment(mp, p, c, t)
            assert abs(g - ref) <= 1e-12 * np.sqrt(np.pi / p) * (c * c + 0.5 / p)

    def test_large_z_relative_to_the_value(self):
        mp = pytest.importorskip("mpmath")
        P, m, theta = (np.array(x, dtype=float) for x in zip(*self.LARGE_Z))
        got = forms._radial_moment(P, m, theta)
        for (p, c, t), g in zip(self.LARGE_Z, got):
            # the fast phases need more than double precision inside mpmath
            with mp.workdps(40):
                ref = mpmath_radial_moment(mp, p, c, t)
            assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_scalar_theta_and_base(self):
        # theta and base broadcast; e^base scales the moment
        P, m = np.array([1.0, 2.0, 0.5]), np.array([0.7, 0.0, -1.2])
        plain = forms._radial_moment(P, m, np.zeros(3)).copy()
        np.testing.assert_allclose(forms._radial_moment(P, m, 0.0), plain, rtol=1e-15)
        np.testing.assert_allclose(forms._radial_moment(P, m, 0.0, np.full(3, -2.0)),
                                   np.exp(-2.0) * plain, rtol=1e-14)


def two_group_field(g, phase):
    """Two chain groups of two and one packets, the first behind g and the second unmoved."""
    group = FieldVector(0.0, (GaussianPacket([0.4, -0.3, 0.9], [0.7, 0.9, 0.8], 0.8 - 0.3j),
                              GaussianPacket([-0.6, 0.5, 0.2], [0.9, 0.6, 1.0], -0.5 + 0.6j)))
    lone = GaussianPacket([0.2, 0.8, -0.5], [0.8, 0.8, 0.7], (0.6 + 0.2j) * phase)
    return add(apply_group(g, group), FieldVector(0.0, (lone,)))


class TestRayKernel:
    """forms._ray_integrals on one workspace against fresh ones and a radial quadrature."""

    # theta is the scalar 0 on a pure boost and an array on a translated chain
    PAIRS = [(BHPElement(0, 0.7, 0.0), BHPElement(0, -0.4, 0.0)),
             (BHPElement(1, 0.5, 0.3), BHPElement(0, -0.6, 0.0))]

    @staticmethod
    def blocks(nt=24, nphi=85, rows=7):
        _, _, D, _ = spherical_grid(1.0, 1, nt, nphi)
        return [D[i:i + rows] for i in range(0, nt, rows)]

    @pytest.mark.parametrize("g1, g2", PAIRS)
    def test_shared_workspace_matches_fresh(self, g1, g2):
        f1, f2 = two_group_field(g1, 1.0), two_group_field(g2, 1j)
        blocks = self.blocks()
        first, last = blocks[0], blocks[-1]
        assert last.shape[0] < first.shape[0]
        ws = forms._Workspace()
        for D in (first, last, first):
            rows1, rows2 = f1.on_rays(D), f2.on_rays(D)
            assert {r[1].shape[0] for r in rows1} == {2, 1} == {r[1].shape[0] for r in rows2}
            fresh = forms._ray_integrals(rows1, rows2, forms._Workspace())
            np.testing.assert_allclose(forms._ray_integrals(rows1, rows2, ws), fresh, rtol=1e-14,
                                       atol=0.0)

    @pytest.mark.parametrize("g1, g2", PAIRS)
    def test_matches_radial_quadrature(self, g1, g2):
        f1, f2 = two_group_field(g1, 1.0), two_group_field(g2, 1j)
        D = self.blocks(6, 9, 6)[0]
        rows1, rows2 = f1.on_rays(D), f2.on_rays(D)
        assert any(np.ndim(r[4]) for r in rows1 + rows2) == (g1.n != 0)
        r, w = gl_nodes(400, 0.0, 14.0)
        ref = sum(wi * ri * ri * np.conj(rays_at(rows1, ri)) * rays_at(rows2, ri)
                  for ri, wi in zip(r, w))
        got = forms._ray_integrals(rows1, rows2, forms._Workspace())
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_centre_meets_the_outward_branch(self):
        # m = 0 exactly takes the inward branch and a tiny positive m the
        # outward one: the two formulas give the same moment there
        P = np.array([1.5, 1.5])
        got = forms._radial_moment(P, np.array([0.0, 1e-300]), np.array([0.8, 0.8]))
        assert got[0] == pytest.approx(got[1], rel=1e-14)

    def test_warm_call_allocates_little(self):
        # a 2,040-direction block of two boosted s0 fields (2 x 2 term pairs):
        # with the workspace warm, a call allocates only per-row arrays, the
        # outward indices and the result (the per-block temporaries peaked
        # at 1.59 MB)
        f1 = apply_group(BHPElement(0, 0.6, 0.0), s0_field([1.1, 0.4, -0.3], [0.8, 0.9, 0.7],
                                                            0.7 + 0.2j))
        f2 = apply_group(BHPElement(1, -0.5, 0.4), s0_field([0.9, -0.6, 0.5],
                                                             [0.7, 0.8, 1.0], 0.3 - 0.9j))
        _, _, D, _ = spherical_grid(1.0, 1, 24, 85)
        rows1, rows2 = f1.on_rays(D), f2.on_rays(D)
        ws = forms._Workspace()
        forms._ray_integrals(rows1, rows2, ws)
        tracemalloc.start()
        try:
            forms._ray_integrals(rows1, rows2, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4e6


class TestOmegaMu:
    def test_omega_diagonal_vanishes(self, rng, quad):
        f = random_field(rng)
        assert omega(f, f, quad).value == pytest.approx(0.0, abs=1e-13)

    def test_mu_unit_gaussian(self, quad):
        assert mu(unit_gaussian(), unit_gaussian(), quad).value == pytest.approx(
            np.pi ** 1.5, rel=1e-14)

    def test_antisymmetry(self, rng, quad):
        for _ in range(8):
            f1, f2 = random_field(rng), random_field(rng)
            o12 = omega(f1, f2, quad).value
            o21 = omega(f2, f1, quad).value
            assert o12 == pytest.approx(-o21, rel=1e-10, abs=1e-13)


class TestQuasiFreeBound:
    def test_self_pair(self, rng, quad):
        f = random_field(rng)
        lhs, rhs, holds = qf_bound_check(f, f, quad)
        assert lhs == pytest.approx(0.0, abs=1e-13)
        assert holds

    def test_random_sweep(self, rng, quad):
        for _ in range(100):
            f1 = random_field(rng, n_terms=2)
            f2 = random_field(rng)
            lhs, rhs, holds = qf_bound_check(f1, f2, quad)
            assert holds, (lhs, rhs)

    def test_saturation_on_complex_structure_pairs(self, rng, quad):
        for _ in range(20):
            f = random_field(rng, n_terms=2)
            lhs, rhs, _ = qf_bound_check(f, apply_A(f), quad)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestApplyA:
    def test_squares_to_minus_one(self, rng):
        f = random_field(rng)
        ff = apply_A(apply_A(f))
        k = rng.uniform(-2, 2, size=(15, 3))
        assert np.allclose(ff.amplitude(k), -f.amplitude(k), atol=1e-15)

    def test_half_omega_identity(self, rng, quad):
        for _ in range(10):
            f1, f2 = random_field(rng), random_field(rng)
            assert 0.5 * omega(f1, f2, quad).value == pytest.approx(
                mu(f1, apply_A(f2), quad).value, rel=1e-10, abs=1e-14)

    def test_skew_adjoint(self, rng, quad):
        for _ in range(10):
            f1, f2 = random_field(rng), random_field(rng)
            assert mu(f1, apply_A(f2), quad).value == pytest.approx(
                -mu(apply_A(f1), f2, quad).value, rel=1e-10, abs=1e-14)

    def test_commutes_with_actions(self, rng, quad):
        f1 = random_field(rng, mass=0.0)
        f2 = random_field(rng, mass=0.0)
        for g in (RotationElement(1.2), BHPElement(1, 0.0, 0.8), BHPElement(0, 0.6, 0.0)):
            lhs, rhs = commutator_check(f1, g, f2, quad)
            scale_ref = abs(mu(f1, f1, quad).value) + abs(mu(f2, f2, quad).value)
            assert abs(lhs - rhs) <= 1e-6 * scale_ref


class TestStateValue:
    def test_zero_vector(self):
        assert state_value(0.0) == 1.0

    def test_unit_gaussian_value(self, quad):
        # exp(-pi^(3/2) / 2) computed from the mu diagonal above
        diag = mu(unit_gaussian(), unit_gaussian(), quad).value
        assert state_value(diag) == pytest.approx(np.exp(-0.5 * np.pi ** 1.5), rel=1e-12)

    def test_monotone(self):
        assert state_value(3.0) < state_value(1.0) < state_value(0.1)

    def test_negative_rejected(self):
        with pytest.raises(NegativeFormError):
            state_value(-1e-3)


class TestWeyl:
    def test_inverse_word(self, rng, quad):
        f = random_field(rng)
        w = WeylWord(1.0 + 0j, f)
        prod = weyl_multiply(w, WeylWord(1.0 + 0j, scale(f, -1.0)), quad)
        assert prod.phase == pytest.approx(1.0 + 0j, abs=1e-12)
        k = rng.uniform(-2, 2, size=(10, 3))
        assert np.max(np.abs(prod.vector.amplitude(k))) < 1e-14

    def test_star_involution(self, rng, quad):
        f = random_field(rng)
        w = WeylWord(np.exp(0.7j), f)
        prod = weyl_multiply(weyl_star(w), w, quad)
        ident = weyl_identity(f.mass)
        assert prod.phase == pytest.approx(ident.phase, abs=1e-12)

    def test_associativity_phase(self, rng, quad):
        for _ in range(6):
            ws = [WeylWord(1.0 + 0j, random_field(rng)) for _ in range(3)]
            left = weyl_multiply(weyl_multiply(ws[0], ws[1], quad), ws[2], quad)
            right = weyl_multiply(ws[0], weyl_multiply(ws[1], ws[2], quad), quad)
            assert left.phase == pytest.approx(right.phase, rel=1e-10)

    def test_cocycle_identity(self, rng, quad):
        # exp(i/2 [O(v1,v2) + O(v1+v2,v3)]) == exp(i/2 [O(v2,v3) + O(v1,v2+v3)])
        v1, v2, v3 = (random_field(rng) for _ in range(3))
        lhs = np.exp(0.5j * (omega(v1, v2, quad).value
                             + omega(add(v1, v2), v3, quad).value))
        rhs = np.exp(0.5j * (omega(v2, v3, quad).value
                             + omega(v1, add(v2, v3), quad).value))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_phase_modulus_enforced(self, rng):
        with pytest.raises(ValueError):
            WeylWord(1.2 + 0j, random_field(rng))
