"""Scenario benchmark for ccr-reduce.

    python3 bench/run.py --workload NAME [--seed 42] [--seconds 30] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  The load is a closed loop with one client:
one scenario process at a time, BLAS/OpenMP threads pinned to 1 and
`CCR_THREADS` unset.

Inputs.  The corpora come from the program's own `gen-corpus` (size 6,
plain and `--s0`) at the fixed seed REFERENCE_SEED.  `--seed` then draws
one real factor per field, a random sign times 2**u with u uniform in
[-1, 1], and multiplies every coefficient of that field by it.  The packet
geometry, and with it the work every adaptive ladder does, is the same for
every seed, so timings compare across seeds (the gen-corpus seed changes
the cost a lot: bhp-average alone ranges from about 4.5 s to 10.7 s over
gen-corpus seeds).  The checked quantities are scale-invariant, so another
`--seed` repeats the same check outcomes.  The factors are real because a
complex phase rotates the real-valued zero-mode average, whose divergence
check is not phase invariant.

Trace 0 runs the workload repeatedly for about `--seconds` seconds and
reports end-to-end metrics: medians over the repetitions of the summed
scenario wall time, process CPU time and set-up time (interpreter start,
`import ccr_reduce`, `load_corpus`), and of the largest peak RSS.  Trace 1
runs the workload untraced, traced, and untraced again, and reports
per-layer metrics from the traced run; the traced reports must equal the
untraced ones apart from `generated_at`.

Every report is checked (see gate.py).  The last stdout line is the JSON
result; run records and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gate
from workloads import END_TO_END, PER_LAYER, SCENARIOS, WORKLOADS, step_key

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_SEED = 42
RUN_LIMIT_S = 170  # the whole run, so that it ends within 180 s even if a step hangs
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def scenario_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CCR_THREADS"}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    # string hashing fixed, so set order cannot differ between traced and untraced runs
    env["PYTHONHASHSEED"] = "0"
    return env


def run_environment() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    load1 = os.getloadavg()[0]
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    env = scenario_env()
    return {"nproc": nproc, "python": platform.python_version(), **versions,
            "threads": {k: env[k] for k in THREAD_VARS},
            "CCR_THREADS": env.get("CCR_THREADS"),
            "load1_before": load1, "busy": load1 >= 0.75 * nproc}


def make_corpora(run_dir: Path, seed: int, env: dict) -> None:
    """gen-corpus output with one seeded real factor per field."""
    rng = random.Random(seed)
    for kind, extra in (("plain", []), ("s0", ["--s0"])):
        path = run_dir / f"corpus_{kind}.json"
        subprocess.run([sys.executable, "-m", "ccr_reduce.cli", "gen-corpus",
                        "--seed", str(REFERENCE_SEED), "--size", "6", "--out", str(path)]
                       + extra, env=env, check=True, timeout=RUN_LIMIT_S)
        doc = json.loads(path.read_text())
        for field in doc["fields"]:
            factor = rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-1.0, 1.0)
            for term in field["terms"]:
                c = complex(*term["coeff"]) * factor
                term["coeff"] = [c.real, c.imag]
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def run_step(pass_dir: Path, scenario: str, kind: str, rel_tol, env: dict,
             trace_id="", deadline=None) -> dict:
    """One scenario in a fresh process; returns its timing record and report."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--scenario", scenario,
           "--corpus", f"../../corpus_{kind}.json", "--out", "report.json"]
    if rel_tol is not None:
        cmd += ["--rel-tol", repr(rel_tol)]
    if trace_id:
        cmd += ["--trace", "spans.json", "--run-id", trace_id]
    launched = time.monotonic_ns()
    timeout = RUN_LIMIT_S if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd + ["--launched-ns", str(launched)], cwd=pass_dir,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"bench: {scenario} stopped after {timeout:.0f} s", file=sys.stderr)
        return {"ok": False, "returncode": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"ok": False, "returncode": proc.returncode}
    record = json.loads(lines[-1])
    record.update(ok=True, returncode=0,
                  report=json.loads((pass_dir / "report.json").read_text()))
    return record


def run_pass(run_dir: Path, label: str, steps, env: dict, deadline: float,
             trace=False) -> dict:
    out = {}
    for scenario, kind, rel_tol in steps:
        key = step_key(scenario, rel_tol)
        trace_id = f"{run_dir.name}/{label}/{key}" if trace else ""
        out[key] = run_step(run_dir / label / key, scenario, kind, rel_tol, env,
                            trace_id=trace_id, deadline=deadline)
    return out


def check_pass(records: dict, reference: dict, exact: bool, steps) -> tuple:
    """(attempted, failed) rows of one pass; `exact` compares against the
    reference values, otherwise only the pass flags gate."""
    attempted = failed = 0
    for scenario, _, rel_tol in steps:
        key = step_key(scenario, rel_tol)
        rec = records[key]
        rows = gate.reference_rows(rec["report"]) if rec["ok"] else None
        if exact:
            a, f = gate.compare(reference[key], rows)
        else:
            a, f = gate.count_passes(reference[key], rows)
        attempted += a
        failed += f
    return attempted, failed


def strip_timestamp(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "generated_at"}


def end_to_end(passes) -> dict:
    ok = [p for p in passes if all(r["ok"] for r in p.values())]
    if not ok:
        return {}

    def median(key, combine=sum):
        return statistics.median(combine(r[key] for r in p.values()) for p in ok)

    return {"wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
            "setup_s": median("setup_s"), "peak_rss_mb": median("peak_rss_mb", max)}


def per_layer(untraced: list, traced: dict, attempted: int, failed: int) -> dict:
    layers = {}
    derived = {}
    leggauss = {"hits": 0, "misses": 0}
    for rec in traced.values():
        if not rec["ok"]:
            continue
        for k in leggauss:
            leggauss[k] += rec["leggauss"][k]
        for name, entry in rec["layers"].items():
            if name == "derived":
                for k, v in entry.items():
                    derived[k] = derived.get(k, 0) + v
                continue
            acc = layers.setdefault(name, {})
            for k, v in entry.items():
                acc[k] = max(acc.get(k, 0.0), v) if k == "err_to_tol_max" \
                    else acc.get(k, 0) + v
    values = dict(derived)
    for k, v in leggauss.items():
        values[f"quadrature.leggauss.{k}"] = v
    for name, acc in layers.items():
        for k, v in acc.items():
            values[f"{name}.{k}"] = v
    spherical = layers.get("quadrature.adaptive_spherical", {})
    values["quadrature.adaptive_spherical.err_to_tol"] = spherical.get("err_to_tol_max", 0.0)
    project = layers.get("reduction.project_bhp", {})
    values["reduction.project_bhp.repeat_share"] = \
        project.get("repeats", 0) / project["calls"] if project.get("calls") else 0.0
    for s in SCENARIOS:
        values[f"cli.run_scenario.{s}.wall_s"] = statistics.mean(
            sum(r.get("wall_s", 0.0) for key, r in p.items() if key.split("@")[0] == s)
            for p in untraced)
    plain = statistics.mean(sum(r.get("wall_s", 0.0) for r in p.values()) for p in untraced)
    with_trace = sum(r.get("wall_s", 0.0) for r in traced.values())
    values["trace.overhead_share"] = with_trace / plain - 1.0 if plain else 0.0
    values["checks.failed_share"] = failed / attempted if attempted else 1.0
    return {name: values.get(name, 0) for name, *_ in PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's check rows as the reference rows")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ccr_reduce" / "cli.py").is_file():
        print(f"bench: no ccr_reduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    steps = WORKLOADS[args.workload]
    at_reference = args.seed == REFERENCE_SEED
    if args.write_reference and not at_reference:
        p.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    env = scenario_env()
    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    environment = run_environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    if environment["busy"]:
        print(f"WARNING: started on a busy machine (1-min load "
              f"{environment['load1_before']:.2f} on {environment['nproc']} cores)")

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    make_corpora(run_dir, args.seed, env)
    corpus_s = time.monotonic() - t_start

    passes = []
    t0 = time.monotonic()
    if args.trace:
        # untraced passes on both sides of the traced one, so that a drift in
        # machine speed does not read as tracing overhead
        passes.append(run_pass(run_dir, "untraced0", steps, env, deadline))
        traced = run_pass(run_dir, "traced", steps, env, deadline, trace=True)
        passes.append(run_pass(run_dir, "untraced1", steps, env, deadline))
    else:
        while not passes or (time.monotonic() - t0) * (len(passes) + 1) / len(passes) \
                <= args.seconds:
            passes.append(run_pass(run_dir, f"rep{len(passes)}", steps, env, deadline))

    reference = gate.load_reference() if gate.REFERENCE_FILE.is_file() else {}
    if args.write_reference:
        rows = {k: gate.reference_rows(r["report"]) for k, r in passes[0].items()}
        reference.update(rows)
        gate.REFERENCE_FILE.parent.mkdir(exist_ok=True)
        gate.REFERENCE_FILE.write_text(json.dumps(dict(sorted(reference.items())), indent=1)
                                       + "\n")
        print(f"wrote reference rows for {', '.join(rows)}")

    attempted = failed = 0
    for records in passes + ([traced] if args.trace else []):
        a, f = check_pass(records, reference, at_reference, steps)
        attempted += a
        failed += f
    same = True
    if args.trace:
        for key, rec in traced.items():
            plain = passes[0][key]
            if not (rec["ok"] and plain["ok"]) or \
                    strip_timestamp(rec["report"]) != strip_timestamp(plain["report"]):
                print(f"MISMATCH: traced report of {key} differs from the untraced one")
                same = False

    if args.trace:
        metrics = per_layer(passes, traced, attempted, failed)
        units = {name: unit for name, unit, *_ in PER_LAYER}
    else:
        metrics = end_to_end(passes)
        units = {name: unit for name, unit, *_ in END_TO_END}
    correct = failed == 0 and same and len(metrics) == len(units)

    moves = {name: f"  (moves {target})" for name, _, _, target in PER_LAYER} \
        if args.trace else {}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}{moves.get(name, '')}")
    print(f"repetitions {len(passes)}; checks attempted {attempted}, failed {failed}; "
          f"failed_share {failed / attempted if attempted else 1.0:.3g}; "
          f"corpus generation {corpus_s:.3f} s")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": environment, "correct": correct,
              "run_s": time.monotonic() - t_start,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "repetitions": [{k: {x: y for x, y in r.items() if x not in ("report", "layers")}
                               for k, r in p.items()} for p in passes]}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
