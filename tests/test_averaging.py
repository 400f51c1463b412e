import numpy as np
import pytest

from ccr_reduce import (
    BHPElement,
    FieldVector,
    GaussianPacket,
    RotationElement,
    ZeroModeDivergenceError,
    add,
    apply_group,
    average_bform_bhp_direct,
    average_bform_bhp_gave,
    average_bform_bhp_reduced,
    average_field_bhp,
    average_form_circle,
    bform,
    bhp_reduced_integrand,
    make_bhp_grid,
    mu,
    poisson_check,
    project_bhp,
    scale,
    substitution_check,
    zero_mode_divergence_probe,
)
from ccr_reduce.errors import QuadratureError
from ccr_reduce.quadrature import QuadratureConfig, _refine, adaptive_spherical, adaptive_tensor3

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
        with pytest.raises(ValueError):
            QuadratureConfig(alpha_cutoff=0.0)


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


class TestCircleAverage:
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


class TestBhpDirectLevel:
    def test_identity_element_is_plain_bform(self, rng, quad_bhp):
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        res = average_bform_bhp_direct(f1, f2, [(BHPElement(0, 0.0, 0.0), 1.0)], quad_bhp)
        assert res.value == pytest.approx(bform(f1, f2, quad_bhp).value, rel=1e-10)

    def test_translation_phase_inside_integrand(self, rng, quad_bhp):
        # g = (n, 0, 0) must match the reduced expression with the x-phase
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        g = BHPElement(1, 0.0, 0.0)
        res = average_bform_bhp_direct(f1, f2, [(g, 1.0)], quad_bhp)
        ref = bhp_reduced_integrand(f1, f2, g, quad_bhp)
        assert res.value == pytest.approx(ref.value, rel=1e-8, abs=1e-12)

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
        grid = make_bhp_grid(range(-3, 4), 10.0, 64, 8.0, 28)
        direct = average_bform_bhp_direct(f1, f2, grid, quad_bhp,
                                          fixed_counts=(100, 64, 96))
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
        s1 = project_bhp(f1, quad_bhp.n_max, quad_bhp)
        s2 = project_bhp(f2, quad_bhp.n_max, quad_bhp)
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
        seq = project_bhp(f, quad_bhp.n_max, quad_bhp)
        for tau, sigma in ((1.0, 0.4), (0.5, 2.0), (2.0, 1.0)):
            direct = average_field_bhp(f, tau, sigma, quad_bhp, path="direct")
            series = average_field_bhp(f, tau, sigma, quad_bhp, path="series",
                                       sequence=seq)
            assert direct == pytest.approx(series, abs=1e-5)

    def test_periodicity(self, rng, quad_bhp):
        f = random_s0_field(rng)
        seq = project_bhp(f, quad_bhp.n_max, quad_bhp)
        v0 = average_field_bhp(f, 1.2, 0.9, quad_bhp, sequence=seq)
        v1 = average_field_bhp(f, 1.2, 0.9 + 2 * np.pi, quad_bhp, sequence=seq)
        assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-14)

    def test_reduced_wave_equation_residual(self, rng, quad_bhp):
        f = random_s0_field(rng)
        seq = project_bhp(f, quad_bhp.n_max, quad_bhp)
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
