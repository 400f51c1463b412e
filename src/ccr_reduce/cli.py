"""Scenario runner: reproducible checks with JSON reports.

Every check row carries the two compared numbers, the tolerance, and the
oracle route that produced the reference, so reports are self-describing.
A fixed corpus and configuration give identical reports except for the
generated_at field.  Exit codes: 0 all checks pass, 1 any check failed, 2
usage, I/O or input errors, or an integral that cannot meet its tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import averaging, corpus, forms, reduction
from .errors import CcrReduceError
from .groups import BHPElement, RotationElement, apply_group
from .modes import add, scale
from .quadrature import QuadratureConfig

SCENARIOS = ("axisym", "bhp-average", "bhp-field", "nullspace", "weyl",
             "zero-mode", "bounds")


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    corpus: str
    output: str
    n_max: int = 8
    rel_tol: float = 1e-8
    csv_path: str = ""

    def quad(self) -> QuadratureConfig:
        return QuadratureConfig(rel_tol=self.rel_tol, n_max=self.n_max)


def _check(name, lhs, rhs, tol, oracle, relative=True, floor=0.0):
    # floor keeps relative comparisons meaningful when both sides are near
    # zero (antisymmetric diagonals and the like)
    lhs_f, rhs_f = float(lhs), float(rhs)
    denom = max(abs(lhs_f), abs(rhs_f), floor, 1e-300) if relative else 1.0
    ok = abs(lhs_f - rhs_f) <= tol * denom
    return {"name": name, "lhs": lhs_f, "rhs": rhs_f, "tol": tol,
            "pass": bool(ok), "oracle": oracle}


def _check_below(name, value, bound, oracle):
    return {"name": name, "lhs": float(value), "rhs": float(bound), "tol": bound,
            "pass": bool(float(value) <= float(bound)), "oracle": oracle}


def _scenario_bounds(fields, cfg, quad):
    checks = []
    for i in range(len(fields)):
        for j in range(i, len(fields)):
            lhs, rhs, holds = forms.qf_bound_check(fields[i], fields[j], quad)
            checks.append({"name": f"qf-bound[{i},{j}]", "lhs": lhs, "rhs": rhs,
                           "tol": quad.rel_tol, "pass": bool(holds),
                           "oracle": "closed-form-or-quadrature bform"})
    for i, f in enumerate(fields):
        lhs, rhs, _ = forms.qf_bound_check(f, forms.apply_A(f), quad)
        checks.append(_check(f"qf-saturation[{i}]", lhs, rhs, 1e-8,
                             "complex-structure identity"))
    extras = {"mu_diagonals": [forms.mu(f, f, quad).to_json() for f in fields]}
    return checks, [], extras


def _scenario_axisym(fields, cfg, quad):
    checks = []
    pairs = [(i, j) for i in range(len(fields)) for j in range(i, len(fields))][:21]
    amps = {i: reduction.project_axisymmetric(f) for i, f in
            {i: fields[i] for p in pairs for i in p}.items()}
    domain = reduction.axisym_domain(list(amps.values())) if amps else None
    for i, j in pairs:
        avg = averaging.average_bform_circle(fields[i], fields[j], quad).value
        avg_mu, avg_om = avg.real, -2.0 * avg.imag  # mu = Re B, Omega = -2 Im B
        om_hat, mu_hat = reduction.reduced_forms_axisym(amps[i], amps[j], quad,
                                                        domain=domain)
        pair_scale = abs(mu_hat) + 1e-9
        checks.append(_check(f"average=restriction mu[{i},{j}]", avg_mu,
                             mu_hat, 1e-6, "2D reduced-form quadrature",
                             floor=pair_scale))
        checks.append(_check(f"average=restriction omega[{i},{j}]", avg_om,
                             om_hat, 1e-6, "2D reduced-form quadrature",
                             floor=pair_scale))
    rows = []
    if cfg.csv_path and fields:
        a0 = amps[pairs[0][0]]
        kmax = a0.kappa_max()
        zlo, zhi = a0.kz_interval()
        kaps, kzs = np.linspace(0.0, kmax, 25), np.linspace(zlo, zhi, 25)
        grid = a0.value(kaps, kzs)
        for kap, row in zip(kaps, grid):
            for kz, v in zip(kzs, row):
                rows.append({"kappa": kap, "kz": kz,
                             "re_A": complex(v).real, "im_A": complex(v).imag})
    return checks, rows, {}


def _scenario_bhp_average(fields, cfg, quad):
    checks = []
    seqs = [reduction.project_bhp(f, quad) for f in fields]
    pairs = [(i, j) for i in range(len(fields)) for j in range(i + 1, len(fields))][:6]
    averages = []
    for i, j in pairs:
        red = averaging.average_bform_bhp_reduced(seqs[i], seqs[j])
        gave = averaging.average_bform_bhp_gave(fields[i], fields[j], quad)
        averages.append({"pair": [i, j], **red.to_json()})
        denom = max(abs(red.value), 1e-300)
        checks.append(_check_below(f"gave=reduced[{i},{j}]",
                                   abs(gave.value - red.value) / denom, 1e-5,
                                   "per-n double quadrature vs sequence sum"))
    if fields:
        f1, f2 = fields[0], fields[min(1, len(fields) - 1)]
        for g in (BHPElement(0, 0.0, 0.0), BHPElement(1, 0.0, 0.0),
                  BHPElement(1, 0.5, 0.8)):
            direct = forms.bform(f1, apply_group(g, f2), quad)
            reduced = averaging.bhp_reduced_integrand(f1, f2, g, quad)
            denom = max(abs(direct.value), abs(reduced.value), 1e-300)
            checks.append(_check_below(
                f"integrand-identity n={g.n},a={g.alpha},b={g.beta}",
                abs(direct.value - reduced.value) / denom, 1e-5,
                "transformed-pair quadrature vs reduced single integral"))
    h = lambda x: np.exp(-0.5 * x * x)
    lhs, rhs = averaging.substitution_check(h, support=12.0, n=1, ky=0.7)
    checks.append(_check("boost-substitution", lhs, rhs, 1e-8, "1D quadrature both sides"))
    return checks, [], {"averages": averages}


def _scenario_bhp_field(fields, cfg, quad):
    checks = []
    rows = []
    if not fields:
        return checks, rows, {}
    f = fields[0]
    norm = np.sqrt(max(forms.mu(f, f, quad).value, 1e-300))
    f = scale(f, 1.0 / norm)
    seq = reduction.project_bhp(f, quad)
    sigmas = np.array([0.0, 1.0, np.pi])
    for tau in (0.5, 1.0, 2.0):
        direct = averaging.average_field_bhp(f, tau, sigmas, quad, path="direct")
        series = averaging.average_field_bhp(f, tau, sigmas, quad, path="series", sequence=seq)
        for sigma, d, s in zip(sigmas, direct, series):
            checks.append(_check_below(f"field-average tau={tau},sigma={sigma:.3f}",
                                       abs(d - s), 1e-5,
                                       "contour boost integral x GL k_y rule vs Hankel series"))
    sol = reduction.gowdy_from_sequence(seq)
    h = 0.05
    for (tau, sigma) in ((1.0, 0.7), (1.5, 2.0)):
        res = _wave_residual(sol, tau, sigma, h)
        checks.append(_check_below(f"wave-equation residual ({tau},{sigma})",
                                   abs(res), 1e-4, "finite-difference stencil"))
    if cfg.csv_path:
        sigmas = np.linspace(0.0, 2 * np.pi, 25)
        for tau in np.linspace(0.5, 2.5, 21):
            rows.extend({"tau": tau, "sigma": sigma, "psi": float(psi)}
                        for sigma, psi in zip(sigmas, reduction.gowdy_value(sol, tau, sigmas)))
    return checks, rows, {}


def _wave_residual(sol, tau, sigma, h):
    # 4th-order stencils for psi_tt + psi_t / tau - psi_ss on the offsets -2h ... 2h
    d = h * np.arange(-2, 3)
    second = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
    first = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    along_t = np.array([reduction.gowdy_value(sol, tau + dt, sigma) for dt in d])
    along_s = reduction.gowdy_value(sol, tau, sigma + d)
    return float(-second @ along_t - (first @ along_t) / tau + second @ along_s)


def _scenario_nullspace(fields, cfg, quad):
    checks = []
    extras = {}
    sub = fields[:10]
    if sub and sub[0].mass == 0.0:
        psi, chi = sub[0], sub[-1]
        h = BHPElement(1, 0.7, -0.9)
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        seqs = [reduction.project_bhp(f, quad) for f in sub]
        s_psi, s_chi = seqs[0], seqs[-1]
        s_null = reduction.project_bhp(null_vec, quad)
        avg = averaging.average_bform_bhp_reduced(s_chi, s_null)
        scale_ref = abs(averaging.average_bform_bhp_reduced(s_chi, s_psi).value) + 1.0
        checks.append(_check_below("bhp-null-annihilated",
                                   abs(avg.value) / scale_ref, 1e-6,
                                   "sequence projection of (Phi_h - 1) psi"))
        report = reduction.null_space_analysis(sub, "bhp", quad, sequences=seqs)
        extras["bhp_gram"] = report
        checks.append(_check_below("bhp-null-inclusion",
                                   0.0 if report["inclusion_holds"] else 1.0, 0.5,
                                   "Gram eigenvalue threshold"))
    if sub:
        psi, chi = sub[0], sub[-1]
        h = RotationElement(1.1)
        null_vec = add(apply_group(h, psi), scale(psi, -1.0))
        avg_mu = averaging.average_bform_circle(chi, null_vec, quad).value.real
        scale_ref = abs(averaging.average_bform_circle(chi, psi, quad).value.real) + 1.0
        checks.append(_check_below("circle-null-annihilated",
                                   abs(avg_mu) / scale_ref, 1e-6,
                                   "trapezoid circle average"))
        report = reduction.null_space_analysis(sub[:6], "circle", quad)
        checks.append(_check_below("circle-null-inclusion",
                                   0.0 if report["inclusion_holds"] else 1.0, 0.5,
                                   "Gram eigenvalue threshold"))
        extras["circle_gram"] = report
    return checks, [], extras


def _scenario_weyl(fields, cfg, quad):
    checks = []
    if len(fields) < 2:
        return checks, [], {}
    w1 = forms.WeylWord(1.0 + 0j, fields[0])
    w2 = forms.WeylWord(1.0 + 0j, fields[1])
    star_prod = forms.weyl_multiply(forms.weyl_star(w1), w1, quad)
    checks.append(_check("star-identity-phase", star_prod.phase.real, 1.0, 1e-10,
                         "Weyl relations", relative=False))
    probe = np.array([0.3, -0.2, 0.5])
    checks.append(_check_below("star-identity-vector",
                               abs(star_prod.vector.amplitude(probe)), 1e-12,
                               "amplitude cancellation"))
    if len(fields) >= 3:
        w3 = forms.WeylWord(1.0 + 0j, fields[2])
        left = forms.weyl_multiply(forms.weyl_multiply(w1, w2, quad), w3, quad)
        right = forms.weyl_multiply(w1, forms.weyl_multiply(w2, w3, quad), quad)
        checks.append(_check_below("associativity-phase",
                                   abs(left.phase - right.phase), 1e-10,
                                   "2-cocycle identity"))
    return checks, [], {"star_product_word": star_prod.to_json()}


def _scenario_zero_mode(fields, cfg, quad):
    checks = []
    cutoffs = (5.0, 10.0, 20.0, 40.0)
    for i, f in enumerate(fields[:2]):
        vals = averaging.zero_mode_divergence_probe(f, cutoffs)
        if f.is_zero_mode_free():
            checks.append(_check_below(f"s0-flat[{i}]", max(vals), 1e-8,
                                       "truncated n=0 quadrature"))
        else:
            increasing = all(b > a for a, b in zip(vals, vals[1:]))
            # early doublings can sit on a transient; the asymptotic doubling
            # ratio tends to 2 once the cutoff clears the settling scale
            ratio = vals[-1] / max(vals[-2], 1e-300)
            checks.append({"name": f"diverges[{i}]", "lhs": ratio, "rhs": 1.2,
                           "tol": 0.0, "pass": bool(increasing and ratio > 1.2),
                           "oracle": "truncated n=0 quadrature at doubling cutoffs"})
    return checks, [], {}


_RUNNERS = {
    "bounds": _scenario_bounds,
    "axisym": _scenario_axisym,
    "bhp-average": _scenario_bhp_average,
    "bhp-field": _scenario_bhp_field,
    "nullspace": _scenario_nullspace,
    "weyl": _scenario_weyl,
    "zero-mode": _scenario_zero_mode,
}


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Execute a named scenario over a corpus and write its JSON report."""
    fields = corpus.load_corpus(cfg.corpus)
    quad = cfg.quad()
    checks, rows, extras = _RUNNERS[cfg.scenario](fields, cfg, quad)
    report = {
        "scenario": cfg.scenario,
        "config": asdict(cfg),
        "results": {"n_fields": len(fields), "n_checks": len(checks),
                    "n_failed": sum(0 if c["pass"] else 1 for c in checks),
                    **extras},
        "checks": checks,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    out = Path(cfg.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if cfg.csv_path and rows:
        with open(cfg.csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return report


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ccr-reduce",
                                description="group-averaging reduction scenarios")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write a JSON report")
    run.add_argument("--scenario", required=True, choices=SCENARIOS)
    run.add_argument("--corpus", required=True,
                     help="corpus JSON path, or 'bundled' for the 6-packet set")
    run.add_argument("--out", required=True, help="report output path")
    run.add_argument("--n-max", type=int, default=8)
    run.add_argument("--rel-tol", type=float, default=1e-8)
    run.add_argument("--csv", default="", help="optional CSV grid output path")

    gen = sub.add_parser("gen-corpus", help="write a deterministic packet corpus")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--mass", type=float, default=0.0)
    gen.add_argument("--s0", action="store_true",
                     help="antisymmetrize across k_x so fields are zero-mode free")
    gen.add_argument("--out", required=True)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-corpus":
            doc = corpus.generate_corpus(args.seed, args.size, mass=args.mass,
                                         s0=args.s0)
            corpus.dump_corpus(doc, args.out)
            return 0
        cfg = ScenarioConfig(scenario=args.scenario, corpus=args.corpus,
                             output=args.out, n_max=args.n_max, rel_tol=args.rel_tol,
                             csv_path=args.csv)
        report = run_scenario(cfg)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, CcrReduceError) as exc:
        print(f"ccr-reduce: error: {exc}", file=sys.stderr)
        return 2
    failed = report["results"]["n_failed"]
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['name']}: lhs={c['lhs']:.6g} rhs={c['rhs']:.6g}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
