"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion states its tolerance inline; oracles are the independent
routes built in the library (closed forms vs quadrature, averaging vs
restriction, series vs damped integral representation) or independent
test-side series.
"""

import math
import time

import numpy as np

from ccr_reduce import (
    BHPElement,
    RotationElement,
    add,
    apply_A,
    apply_group,
    average_bform_bhp_gave,
    average_bform_bhp_reduced,
    average_field_bhp,
    average_bform_circle,
    bessel_j0,
    bform,
    bhp_reduced_integrand,
    commutator_check,
    gowdy_forms,
    gowdy_from_sequence,
    hankel2_0,
    hankel2_0_integral,
    bessel_y0,
    mu,
    null_space_analysis,
    omega,
    project_axisymmetric,
    project_bhp,
    qf_bound_check,
    reduced_forms_axisym,
    reduced_forms_bhp,
    scale,
    substitution_check,
    zero_mode_divergence_probe,
)
from ccr_reduce.corpus import generate_corpus, load_corpus
from ccr_reduce.quadrature import QuadratureConfig
from ccr_reduce.reduction import ReducedSequence, axisym_domain, ordered_ns

from conftest import moved_pair_on_sphere, random_field, random_s0_field, reduced_average


def report(criterion, ok, detail):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_quasifree_bound():
    """Half |Omega| bounded by the mu diagonals; saturation on (f, Af)."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_margin = np.inf
    for _ in range(200):
        f1 = random_field(rng, n_terms=2, width_range=(0.4, 1.4))
        f2 = random_field(rng, width_range=(0.4, 1.4))
        lhs, rhs, holds = qf_bound_check(f1, f2)
        assert holds, (lhs, rhs)
        if rhs > 0:
            worst_margin = min(worst_margin, (rhs - lhs) / rhs + 1e-8)
    worst_sat = 0.0
    for _ in range(50):
        f = random_field(rng, n_terms=2)
        lhs, rhs, _ = qf_bound_check(f, apply_A(f))
        worst_sat = max(worst_sat, abs(lhs - rhs) / rhs)
    elapsed = time.time() - t0
    ok = worst_margin >= 0 and worst_sat <= 1e-8 and elapsed < 30
    report(1, ok, f"200 bound pairs, saturation error {worst_sat:.2e}, {elapsed:.1f}s")


def invariance_defect(g, f1, f2) -> float:
    """Largest change of Omega = -2 Im B and of mu = Re B when g acts on both fields.

    One B per pair gives both forms, as forms.omega and forms.mu do; the
    moved pair is integrated on the angular ladder, where g does not drop out.
    """
    moved = complex(moved_pair_on_sphere(g, f1, f2).value)
    fixed = complex(bform(f1, f2).value)
    return max(abs(-2.0 * moved.imag + 2.0 * fixed.imag), abs(moved.real - fixed.real))


def test_criterion_2_invariance():
    """Both forms invariant under both group actions at 1e-6 of scale."""
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    for _ in range(20):   # rotations, any mass
        f1, f2 = random_field(rng), random_field(rng)
        g = RotationElement(rng.uniform(0, 2 * np.pi))
        scale_ref = math.sqrt(mu(f1, f1).value * mu(f2, f2).value)
        worst = max(worst, invariance_defect(g, f1, f2) / scale_ref)
    for _ in range(20):   # the non-compact group, massless
        f1 = random_field(rng, mass=0.0, width_range=(0.6, 1.2))
        f2 = random_field(rng, mass=0.0, width_range=(0.6, 1.2))
        g = BHPElement(int(rng.integers(-2, 3)), rng.uniform(-1.0, 1.0),
                       rng.uniform(-2.0, 2.0))
        scale_ref = math.sqrt(mu(f1, f1).value * mu(f2, f2).value)
        worst = max(worst, invariance_defect(g, f1, f2) / scale_ref)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 120
    report(2, ok, f"worst invariance defect {worst:.2e} of scale, {elapsed:.1f}s")


def test_criterion_3_complex_structure_commutes():
    """[A, Phi_g] matrix elements vanish, including across quadrature routes."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in range(20):
        f1 = random_field(rng, mass=0.0)
        f2 = random_field(rng, mass=0.0)
        if k % 2 == 0:
            g = RotationElement(rng.uniform(0, 2 * np.pi))
        else:
            g = BHPElement(int(rng.integers(-1, 2)), rng.uniform(-0.8, 0.8),
                           rng.uniform(-1.5, 1.5))
        scale_ref = math.sqrt(mu(f1, f1).value * mu(f2, f2).value)
        lhs, rhs = commutator_check(f1, g, f2)
        worst = max(worst, abs(lhs - rhs) / scale_ref)
        # combined with invariance: mu(Phi_g f1, A Phi_g f2) = mu(f1, A f2)
        d = abs(moved_pair_on_sphere(g, f1, apply_A(f2)).value.real
                - mu(f1, apply_A(f2)).value)
        worst = max(worst, d / scale_ref)
    report(3, worst <= 1e-6, f"worst commutator element {worst:.2e} of scale")


def test_criterion_4_compact_reduction_theorem():
    """Averaging over the circle equals restriction to invariant amplitudes."""
    t0 = time.time()
    fields = load_corpus("bundled")
    assert len(fields) == 6
    quad = QuadratureConfig()
    amps = [project_axisymmetric(f) for f in fields]
    domain = axisym_domain(amps)
    worst = 0.0
    for i in range(6):
        for j in range(i, 6):
            avg = average_bform_circle(fields[i], fields[j], quad).value
            avg_mu, avg_om = avg.real, -2.0 * avg.imag
            om_hat, mu_hat = reduced_forms_axisym(amps[i], amps[j], quad, domain=domain)
            scale_ref = max(abs(mu_hat), abs(om_hat), 1e-6)
            worst = max(worst, abs(avg_mu - mu_hat) / scale_ref,
                        abs(avg_om - om_hat) / scale_ref)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60
    report(4, ok, f"21 pairs, worst relative defect {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_bhp_reduction_chain():
    """Sampled-g integrand identity, semi-analytic level, and sequence level."""
    rng = np.random.default_rng(505)
    quad = QuadratureConfig(n_max=6)
    pairs = [(random_s0_field(rng), random_s0_field(rng)) for _ in range(10)]
    worst_levels = 0.0
    for f1, f2 in pairs:
        red = reduced_average(f1, f2, quad)
        gave = average_bform_bhp_gave(f1, f2, quad)
        denom = max(abs(red.value), 1e-12)
        worst_levels = max(worst_levels, abs(gave.value - red.value) / denom)
    worst_identity = 0.0
    for f1, f2 in pairs[:10]:
        g = BHPElement(int(rng.integers(-1, 2)), rng.uniform(-0.9, 0.9),
                       rng.uniform(-1.5, 1.5))
        direct = bform(f1, apply_group(g, f2), quad)
        ref = bhp_reduced_integrand(f1, f2, g, quad)
        denom = max(abs(direct.value), abs(ref.value),
                    direct.error_estimate + ref.error_estimate, 1e-12)
        worst_identity = max(worst_identity, abs(direct.value - ref.value) / denom)
    h = lambda x: np.exp(-0.5 * x * x)
    lhs, rhs = substitution_check(h, support=12.0, n=1, ky=0.7)
    sub_err = abs(lhs - rhs) / abs(rhs)
    ok = worst_levels <= 1e-5 and worst_identity <= 1e-5 and sub_err <= 1e-8
    report(5, ok, f"levels {worst_levels:.2e}, sampled-g identity {worst_identity:.2e}, "
                  f"substitution {sub_err:.2e}")


def test_criterion_6_null_space_structure():
    """Orbit differences are null; numerical null(mu_G) inside null(Omega_G)."""
    rng = np.random.default_rng(606)
    quad = QuadratureConfig(n_max=6)
    worst = 0.0
    for _ in range(6):
        chi, psi = random_field(rng), random_field(rng)
        h = RotationElement(rng.uniform(0.3, 5.0))
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        ref = abs(average_bform_circle(chi, psi, quad).value.real) + 1.0
        val = average_bform_circle(chi, null_vec, quad).value
        worst = max(worst, abs(val.real) / ref, abs(2 * val.imag) / ref)
    for _ in range(6):
        chi, psi = random_s0_field(rng), random_s0_field(rng)
        h = BHPElement(int(rng.integers(-2, 3)), rng.uniform(-1, 1), rng.uniform(-2, 2))
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        ref = abs(reduced_average(chi, psi, quad).value) + 1.0
        val = reduced_average(chi, null_vec, quad).value
        worst = max(worst, abs(val.real) / ref, abs(2 * val.imag) / ref)
    circle_fields = [random_field(rng) for _ in range(8)]
    circle_fields.append(add(apply_group(RotationElement(1.1), circle_fields[0]),
                             scale(circle_fields[0], -1.0)))
    rep_c = null_space_analysis(circle_fields, "circle", quad)
    bhp_fields = [random_s0_field(rng) for _ in range(8)]
    bhp_fields.append(add(apply_group(BHPElement(1, 0.5, -0.4), bhp_fields[0]),
                          scale(bhp_fields[0], -1.0)))
    rep_b = null_space_analysis(bhp_fields, "bhp", quad)
    ok = worst <= 1e-6 and rep_c["inclusion_holds"] and rep_b["inclusion_holds"]
    report(6, ok, f"null annihilation {worst:.2e}; inclusion circle/bhp "
                  f"{rep_c['inclusion_holds']}/{rep_b['inclusion_holds']}")


def test_criterion_7_field_average_identity():
    """Damped direct quadrature equals the Hankel series at 9 probe points."""
    rng = np.random.default_rng(707)
    quad = QuadratureConfig(n_max=6)
    worst = 0.0
    worst_res = 0.0
    for _ in range(2):
        f = random_s0_field(rng)
        norm = math.sqrt(mu(f, f).value)
        f = scale(f, 1.0 / norm)
        seq = project_bhp(f, quad)
        for tau in (0.5, 1.0, 2.0):
            for sigma in (0.0, 1.0, np.pi):
                direct = average_field_bhp(f, tau, sigma, quad, path="direct")
                series = average_field_bhp(f, tau, sigma, quad, path="series",
                                           sequence=seq)
                worst = max(worst, abs(direct - series))
        h = 0.05
        for tau, sigma in ((1.0, 0.7), (1.6, 2.1)):
            def psi(dt=0.0, ds=0.0):
                return average_field_bhp(f, tau + dt, sigma + ds, quad, sequence=seq)
            c = psi()
            d2t = (-psi(2 * h) + 16 * psi(h) - 30 * c + 16 * psi(-h) - psi(-2 * h)) \
                / (12 * h * h)
            d1t = (-psi(2 * h) + 8 * psi(h) - 8 * psi(-h) + psi(-2 * h)) / (12 * h)
            d2s = (-psi(0, 2 * h) + 16 * psi(0, h) - 30 * c + 16 * psi(0, -h)
                   - psi(0, -2 * h)) / (12 * h * h)
            worst_res = max(worst_res, abs(-d2t - d1t / tau + d2s))
    ok = worst <= 1e-5 and worst_res <= 1e-4
    report(7, ok, f"path agreement {worst:.2e} absolute, wave residual {worst_res:.2e}")


def test_criterion_8_zero_mode_divergence():
    """Truncated n=0 average grows without bound off the flagged subspace."""
    rng = np.random.default_rng(808)
    f = random_field(rng, mass=0.0)
    vals = zero_mode_divergence_probe(f, (5.0, 10.0, 20.0, 40.0))
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    ratios = [vals[i + 1] / vals[i] for i in range(3)]
    s0_max = 0.0
    for fd in load_corpus(generate_corpus(88, 3, s0=True)):
        s0_max = max(s0_max, max(zero_mode_divergence_probe(fd, (5.0, 10.0, 20.0, 40.0))))
    ok = increasing and min(ratios) > 1.2 and s0_max < 1e-8
    report(8, ok, f"growth ratios {[f'{r:.2f}' for r in ratios]}, "
                  f"flagged-subspace max {s0_max:.2e}")


def test_criterion_9_gowdy_identification():
    """(C, D) equal the reduced forms exactly; the reduced bound holds."""
    rng = np.random.default_rng(909)
    quad = QuadratureConfig(n_max=6)
    exact = True
    for _ in range(3):
        s1 = project_bhp(random_s0_field(rng), QuadratureConfig(n_max=5))
        s2 = project_bhp(random_s0_field(rng), QuadratureConfig(n_max=5))
        c, d = gowdy_forms(gowdy_from_sequence(s1), gowdy_from_sequence(s2))
        om, mh = reduced_forms_bhp(s1, s2)
        exact = exact and (c == om) and (d == mh)
    bound = True
    for _ in range(100):
        e1 = {n: complex(rng.normal(), rng.normal()) * np.exp(-0.3 * n * n)
              for n in ordered_ns(6)}
        e2 = {n: complex(rng.normal(), rng.normal()) * np.exp(-0.3 * n * n)
              for n in ordered_ns(6)}
        s1, s2 = ReducedSequence(e1, True), ReducedSequence(e2, True)
        om, _ = reduced_forms_bhp(s1, s2)
        _, m11 = reduced_forms_bhp(s1, s1)
        _, m22 = reduced_forms_bhp(s2, s2)
        bound = bound and 0.5 * abs(om) <= math.sqrt(m11 * m22) * (1 + 1e-12) + 1e-15
    ok = exact and bound
    report(9, ok, f"bitwise identification {exact}, reduced bound on 100 pairs {bound}")


def test_criterion_10_special_functions():
    """J0 and H0 against independent series; integral route; Wronskian."""
    j0_series = sum((-1) ** m * (0.25) ** m / math.factorial(m) ** 2 for m in range(30))
    EULER = 0.5772156649015328606
    harm, y0_sum = 0.0, 0.0
    for m in range(1, 30):
        harm += 1.0 / m
        y0_sum += (-1) ** (m + 1) * harm * 0.25 ** m / math.factorial(m) ** 2
    y0_series = 2 / math.pi * ((math.log(0.5) + EULER) * j0_series + y0_sum)
    err_j = abs(bessel_j0(1.0) - j0_series)
    err_h = abs(hankel2_0(1.0) - complex(j0_series, -y0_series))
    err_int = max(abs(hankel2_0_integral(x).value - hankel2_0(x))
                  for x in (1.0, 5.0))
    hstep = 1e-5
    err_w = 0.0
    for x in (0.8, 3.0, 11.0):
        j0p = (bessel_j0(x + hstep) - bessel_j0(x - hstep)) / (2 * hstep)
        y0p = (bessel_y0(x + hstep) - bessel_y0(x - hstep)) / (2 * hstep)
        err_w = max(err_w, abs(bessel_j0(x) * y0p - j0p * bessel_y0(x) - 2 / (np.pi * x)))
    ok = err_j <= 1e-10 and err_h <= 1e-10 and err_int <= 1e-4 and err_w <= 1e-6
    report(10, ok, f"J0 {err_j:.1e}, H0 {err_h:.1e}, integral {err_int:.1e}, "
                   f"Wronskian {err_w:.1e}")


def test_criterion_11_measure_rescaling():
    """A Haar scale c, as the sqrt(c) sequence map, multiplies the average by c."""
    rng = np.random.default_rng(111)
    quad = QuadratureConfig(n_max=6)
    s1 = project_bhp(random_s0_field(rng), quad)
    s2 = project_bhp(random_s0_field(rng), quad)
    base_b = average_bform_bhp_reduced(s1, s2).value
    worst = 0.0
    for c in (0.5, 2.0, 10.0):
        mapped = average_bform_bhp_reduced(s1.rescaled(math.sqrt(c)),
                                           s2.rescaled(math.sqrt(c))).value
        worst = max(worst, abs(mapped - c * base_b) / abs(c * base_b))
    ok = worst <= 1e-10
    report(11, ok, f"worst rescaling defect {worst:.2e} at c in (0.5, 2, 10)")
