import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccr_reduce import (
    BHPElement,
    FieldVector,
    GaussianPacket,
    NonSymplecticError,
    QuadratureConfig,
    RotationElement,
    ZeroModeUndefinedError,
    add,
    apply_group,
    average_form_circle,
    bessel_j0,
    gowdy_forms,
    gowdy_from_sequence,
    gowdy_value,
    null_space_analysis,
    project_axisymmetric,
    project_bhp,
    reduced_forms_axisym,
    reduced_forms_bhp,
    scale,
    transform_zero_mode,
    zero_mode_symplectic_map,
)
from ccr_reduce.corpus import generate_corpus, load_corpus
from ccr_reduce.errors import QuadratureError
from ccr_reduce.quadrature import gl_nodes
from ccr_reduce.reduction import (
    AxisymmetricAmplitude,
    GowdySolution,
    ReducedSequence,
    axisym_domain,
    ordered_ns,
)

from conftest import random_field, random_s0_field


class TestProjectAxisymmetric:
    def test_radial_field_passthrough(self):
        # radial in (kx, ky): A(kappa, kz) = sqrt(kappa) * a(kappa, 0, kz)
        f = FieldVector(0.0, (GaussianPacket([0, 0, 0.5], [0.8, 0.8, 1.1], 0.7 + 0.1j),))
        A = project_axisymmetric(f)
        for kap, kz in ((0.5, 0.0), (1.3, -0.7)):
            expected = np.sqrt(kap) * f.amplitude(np.array([kap, 0.0, kz]))
            assert A.value(kap, kz) == pytest.approx(complex(expected), rel=1e-12)

    @pytest.mark.parametrize("f", [
        FieldVector(0.0, (GaussianPacket([1, 0, 0], [1, 1, 1], 1.0),)),
        # both phase kinds: a rotated anisotropic packet, and 2 pi n k_x + beta k_z
        add(apply_group(RotationElement(0.8), FieldVector(0.0, (
                GaussianPacket([0.9, -0.4, 0.3], [0.5, 1.1, 0.8], 0.6 - 0.3j),))),
            apply_group(BHPElement(1, 0.0, 0.7), FieldVector(0.0, (
                GaussianPacket([-0.5, 0.6, -0.2], [0.9, 0.7, 1.2], 0.4 + 0.5j),)))),
    ], ids=["packet", "two-term"])
    def test_against_angular_riemann_oracle(self, f):
        # the tensor grid against a brute-force ring mean of the full amplitude
        A = project_axisymmetric(f)
        kaps, kzs = np.array([0.4, 1.0, 1.7]), np.array([-0.6, 0.0, 0.9])
        grid = A.value(kaps, kzs)
        assert grid.shape == (3, 3)
        beta = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        for i, kap in enumerate(kaps):
            for j, kz in enumerate(kzs):
                K = np.stack([kap * np.cos(beta), kap * np.sin(beta),
                              np.full_like(beta, kz)], axis=-1)
                oracle = np.sqrt(kap) * np.mean(f.amplitude(K))
                assert grid[i, j] == pytest.approx(complex(oracle), abs=1e-12)

    def test_angular_rule_resolved_at_top_level(self):
        # the fixed n_angle has no error control: doubling it must not move A
        # on the finest grid of the seed-42 corpus
        amps = [project_axisymmetric(f) for f in load_corpus(generate_corpus(42, 6))]
        kmax, zlo, zhi, nk, nz = axisym_domain(amps)
        kap, _ = gl_nodes(int(nk * 2.0) + 8, 0.0, kmax)
        kz, _ = gl_nodes(int(nz * 2.0) + 8, zlo, zhi)
        for A in amps:
            vals = A.value(kap, kz)
            doubled = AxisymmetricAmplitude(A.source, 2 * A.n_angle).value(kap, kz)
            assert np.max(np.abs(doubled - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_boosted_term_rejected(self):
        f = apply_group(BHPElement(0, 0.5, 0.0),
                        FieldVector(0.0, (GaussianPacket([1, 0, 0], [1, 1, 1], 1.0),)))
        with pytest.raises(ValueError):
            project_axisymmetric(f)

    def test_axis_value_vanishes(self, rng):
        A = project_axisymmetric(random_field(rng))
        assert A.value(0.0, 0.3) == 0.0


class TestReducedFormsAxisym:
    def test_omega_diagonal_zero(self, rng, quad):
        A = project_axisymmetric(random_field(rng))
        om, mu_ = reduced_forms_axisym(A, A, quad)
        assert om == pytest.approx(0.0, abs=1e-10)
        assert mu_ > 0

    def test_matches_circle_average(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        om, mu_ = reduced_forms_axisym(project_axisymmetric(f1),
                                       project_axisymmetric(f2), quad)
        avg = average_form_circle("mu", f1, f2, quad)
        assert avg.value.real == pytest.approx(mu_, rel=1e-6)

    def test_reduced_bound(self, rng, quad):
        f1, f2 = random_field(rng), random_field(rng)
        A1, A2 = project_axisymmetric(f1), project_axisymmetric(f2)
        om, _ = reduced_forms_axisym(A1, A2, quad)
        _, m11 = reduced_forms_axisym(A1, A1, quad)
        _, m22 = reduced_forms_axisym(A2, A2, quad)
        assert 0.5 * abs(om) <= np.sqrt(m11 * m22) * (1 + 1e-9)


class TestProjectBhp:
    def test_zero_field(self):
        s = project_bhp(FieldVector(0.0, ()), QuadratureConfig(n_max=4))
        assert all(v == 0 for v in s.entries.values())

    def test_a0_magnitude_vs_substitution_oracle(self):
        # a(k) = exp(-|k|^2/2): |A_0| = sqrt(2 pi) * int |k|^(-1/2) e^(-k^2/2) dk;
        # oracle uses u = sqrt(k) on the half line, doubled by evenness
        f = FieldVector(0.0, (GaussianPacket([0, 0, 0], [1, 1, 1], 1.0),))
        s = project_bhp(f, QuadratureConfig(n_max=2))
        n_pts, u_hi = 200_000, 3.2
        du = u_hi / n_pts
        u = (np.arange(n_pts) + 0.5) * du                 # midpoint rule
        half = np.sum(2.0 * np.exp(-0.5 * u ** 4)) * du   # int k^(-1/2) e^{-k^2/2}, k>0
        oracle = np.sqrt(2 * np.pi) * 2.0 * half
        assert abs(s.entries[0]) == pytest.approx(oracle, rel=1e-8)

    def test_narrow_packet_tail(self):
        # width 0.2 centered at k_x = 1: slices |n| >= 3 are Gaussian-small
        f = FieldVector(0.0, (GaussianPacket([1.0, 0.3, -0.2], [0.2, 0.8, 0.9], 1.0),))
        s = project_bhp(f, QuadratureConfig(n_max=4))
        for n in (3, -3, 4, -4):
            assert abs(s.entries[n]) < 1e-10

    def test_zero_mode_flag(self, rng):
        quad = QuadratureConfig(n_max=3)
        assert project_bhp(random_s0_field(rng), quad).zero_mode_defined
        assert not project_bhp(random_field(rng, mass=0.0), quad).zero_mode_defined

    def test_off_axis_modes_vs_mpmath(self):
        # A_n = (sqrt(2 pi)/i) int (n^2+k^2)^(-1/4) a(n, k, 0) dk, n != 0,
        # integrated in k by mpmath at 30 digits from the closed-form packet
        c, w, coeff = (1.2, 0.4, -0.3), (0.8, 0.7, 0.9), 0.6 - 0.3j
        f = FieldVector(0.0, (GaussianPacket(c, w, coeff),))
        s = project_bhp(f, QuadratureConfig(rel_tol=1e-12, abs_tol=1e-15, n_max=2))
        with mpmath.workdps(30):
            for n in (-2, -1, 1, 2):
                def a_slice(k):
                    d = [(n - c[0]) / w[0], (k - c[1]) / w[1], (0 - c[2]) / w[2]]
                    return coeff * mpmath.exp(-sum(x * x for x in d) / 2)

                q = mpmath.quad(lambda k: (n * n + k * k) ** -0.25 * a_slice(k),
                                [-mpmath.inf, c[1], mpmath.inf])
                oracle = complex(mpmath.sqrt(2 * mpmath.pi) / 1j * q)
                assert s.entries[n] == pytest.approx(oracle, rel=1e-10)

    def test_unconverged_integral_raises(self, rng):
        # rel_tol 1e-16 is below what the adaptive rule can reach in double
        # precision: the projection must say so instead of returning
        f = random_s0_field(rng)
        with pytest.raises(QuadratureError):
            project_bhp(f, QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300, n_max=8))

    @given(n=st.integers(-3, 3), alpha=st.floats(-1.0, 1.0), beta=st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_boost_invariance_of_sequence(self, n, alpha, beta):
        # A_n is exactly invariant under the group; quadrature sees it too
        f = random_s0_field(np.random.default_rng(20240901))
        s0 = project_bhp(f, QuadratureConfig(n_max=4))
        s1 = project_bhp(apply_group(BHPElement(n, alpha, beta), f), QuadratureConfig(n_max=4))
        for m in s0.entries:
            assert s1.entries[m] == pytest.approx(s0.entries[m], rel=2e-7, abs=1e-9)


class TestReducedFormsBhp:
    def test_diagonal(self, rng):
        s = project_bhp(random_s0_field(rng), QuadratureConfig(n_max=4))
        om, mu_ = reduced_forms_bhp(s, s)
        assert om == 0.0
        assert mu_ == pytest.approx(sum(abs(v) ** 2 for v in s.entries.values()), rel=1e-12)

    def test_cauchy_schwarz(self, rng):
        for _ in range(25):
            e1 = {n: complex(rng.normal(), rng.normal()) for n in ordered_ns(5)}
            e2 = {n: complex(rng.normal(), rng.normal()) for n in ordered_ns(5)}
            s1, s2 = ReducedSequence(e1, True), ReducedSequence(e2, True)
            om, _ = reduced_forms_bhp(s1, s2)
            _, m11 = reduced_forms_bhp(s1, s1)
            _, m22 = reduced_forms_bhp(s2, s2)
            assert 0.5 * abs(om) <= np.sqrt(m11 * m22) * (1 + 1e-12) + 1e-15

    def test_truncation_mismatch(self, rng):
        s1 = project_bhp(random_s0_field(rng), QuadratureConfig(n_max=3))
        s2 = project_bhp(random_s0_field(rng), QuadratureConfig(n_max=4))
        with pytest.raises(ValueError):
            reduced_forms_bhp(s1, s2)

    def test_matches_averaged_bform_combination(self, rng, quad_bhp):
        # mu_hat = Re sum(A1* A2), omega_hat = -2 Im sum(A1* A2)
        from ccr_reduce import average_bform_bhp_reduced

        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        s1 = project_bhp(f1, quad_bhp)
        s2 = project_bhp(f2, quad_bhp)
        om, mu_ = reduced_forms_bhp(s1, s2)
        avg = average_bform_bhp_reduced(f1, f2, quad_bhp, sequences=(s1, s2)).value
        assert mu_ == avg.real and om == -2.0 * avg.imag

    def test_canonical_basis_gram_nondegenerate(self):
        # the real basis {e_n, i e_n} is mu_hat-orthonormal, so the reduced
        # scalar product is manifestly full rank on the truncated space
        n_max = 3
        basis = []
        for n in ordered_ns(n_max):
            for z in (1.0 + 0j, 1j):
                entries = {m: (z if m == n else 0j) for m in ordered_ns(n_max)}
                basis.append(ReducedSequence(entries, True))
        dim = len(basis)
        gram = np.array([[reduced_forms_bhp(a, b)[1] for b in basis] for a in basis])
        assert np.allclose(gram, np.eye(dim), atol=1e-15)


class TestNullSpace:
    def test_orbit_pair_is_rank_deficient_circle(self, rng, quad):
        f = random_field(rng)
        fields = [f, apply_group(RotationElement(1.3), f)]
        report = null_space_analysis(fields, "circle", quad)
        assert report["rank"] <= 1
        assert report["inclusion_holds"]

    def test_bhp_sample_inclusion(self, rng, quad_bhp):
        fields = [random_s0_field(rng) for _ in range(6)]
        fields.append(add(apply_group(BHPElement(1, 0.4, 0.6), fields[0]),
                          scale(fields[0], -1.0)))
        report = null_space_analysis(fields, "bhp", quad_bhp)
        assert report["rank"] <= 6
        assert report["inclusion_holds"]

    def test_axisym_rank_matches_projected_gram(self, rng, quad):
        fields = [random_field(rng) for _ in range(4)]
        fields.append(add(apply_group(RotationElement(0.8), fields[0]),
                          scale(fields[0], -1.0)))
        report = null_space_analysis(fields, "circle", quad)
        amps = [project_axisymmetric(f) for f in fields]
        gram = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                gram[i, j] = reduced_forms_axisym(amps[i], amps[j], quad)[1]
        evals = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        rank_proj = int(np.sum(evals > 1e-8 * evals.max()))
        assert report["rank"] == rank_proj

    def test_size_cap(self, rng, quad):
        with pytest.raises(ValueError):
            null_space_analysis([], "circle", quad)

    def test_given_sequences_match_projections(self, rng, quad_bhp):
        fields = [random_s0_field(rng) for _ in range(3)]
        seqs = [project_bhp(f, quad_bhp) for f in fields]
        passed = null_space_analysis(fields, "bhp", quad_bhp, sequences=seqs)
        assert passed == null_space_analysis(fields, "bhp", quad_bhp)
        with pytest.raises(ValueError, match="sequences"):
            null_space_analysis(fields, "bhp", quad_bhp, sequences=seqs[:2])
        with pytest.raises(ValueError, match="sequences"):
            null_space_analysis(fields, "circle", quad_bhp, sequences=seqs)


class TestGowdy:
    def test_identification_is_exact(self, rng):
        f1, f2 = random_s0_field(rng), random_s0_field(rng)
        s1 = project_bhp(f1, QuadratureConfig(n_max=5))
        s2 = project_bhp(f2, QuadratureConfig(n_max=5))
        c, d = gowdy_forms(gowdy_from_sequence(s1), gowdy_from_sequence(s2))
        om, mu_ = reduced_forms_bhp(s1, s2)
        assert c == om and d == mu_   # same finite sums, bit for bit

    def test_symplectic_diagonal(self):
        p = GowdySolution({1: 0.4 + 0.2j, -1: 0.1 - 0.3j}, 0j)
        c, d = gowdy_forms(p, p)
        assert c == 0.0
        assert d > 0

    def test_single_mode_value(self):
        # a_1 = 1 alone: psi(1, 0) = (J0(1) - i Y0(1) + c.c.) / (2 sqrt 2) = J0(1)/sqrt(2)
        p = GowdySolution({1: 1.0 + 0j, -1: 0.0 + 0j}, 0j)
        expected = bessel_j0(1.0) / np.sqrt(2.0)
        assert gowdy_value(p, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_mode_undefined(self, rng):
        s = project_bhp(random_field(rng, mass=0.0), QuadratureConfig(n_max=3))
        sol = gowdy_from_sequence(s)
        with pytest.raises(ZeroModeUndefinedError):
            gowdy_value(sol, 1.0, 0.0)
        sol2 = gowdy_from_sequence(s, zero_mode_choice=0.3 + 0.1j)
        gowdy_value(sol2, 1.0, 0.0)

    def test_log_zero_mode_term(self):
        p = GowdySolution({1: 0j, -1: 0j}, 0.5 + 0.25j)
        tau = 2.0
        expected = (0.5 + np.log(tau) * 0.25) / np.sqrt(np.pi)
        assert gowdy_value(p, tau, 1.1) == pytest.approx(expected, rel=1e-12)


class TestZeroModeMap:
    def test_identity_map(self):
        m = zero_mode_symplectic_map(np.eye(2))
        p = GowdySolution({1: 0.2 + 0j, -1: 0.1j}, 0.7 - 0.2j)
        q = transform_zero_mode(p, m)
        assert q.zero_mode == p.zero_mode

    def test_non_symplectic_rejected(self):
        with pytest.raises(NonSymplecticError):
            zero_mode_symplectic_map([[2.0, 0.0], [0.0, 1.0]])

    def test_symplectic_invariance_of_c(self, rng):
        m = zero_mode_symplectic_map([[np.cosh(0.4), np.sinh(0.4)],
                                      [np.sinh(0.4), np.cosh(0.4)]])
        p1 = GowdySolution({}, complex(rng.normal(), rng.normal()))
        p2 = GowdySolution({}, complex(rng.normal(), rng.normal()))
        c0, _ = gowdy_forms(p1, p2)
        c1, _ = gowdy_forms(transform_zero_mode(p1, m), transform_zero_mode(p2, m))
        assert c1 == pytest.approx(c0, rel=1e-12, abs=1e-14)

    def test_squeeze_scales_d(self):
        s = 0.35
        m = zero_mode_symplectic_map(np.diag([np.exp(s), np.exp(-s)]))
        p = GowdySolution({}, 1.0 + 0j)   # zero-mode vector (1, 0)
        _, d0 = gowdy_forms(p, p)
        q = transform_zero_mode(p, m)
        _, d1 = gowdy_forms(q, q)
        assert d1 == pytest.approx(np.exp(2 * s) * d0, rel=1e-12)
