"""One scenario in a fresh interpreter, timed from outside the package.

Usage (run with the scenario's working directory as cwd):

    python3 bench/worker.py --launched-ns N --scenario S --corpus C --out R
        [--rel-tol T] [--trace SPANS.json --run-id ID]

`--launched-ns` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so interpreter start-up is part of the set-up time
(start-up, `import ccr_reduce` and a first `load_corpus`).  `wall_s` is the
`run_scenario` call, which loads the corpus again itself (a few ms), and
`cpu_s` is the user plus system time of the whole process.  The last stdout
line is a JSON record of the timings; the report itself is
written by `ccr_reduce.cli.run_scenario`.  Exit code 2 mirrors the CLI for
input errors; any other failure propagates as a crash.
"""

import time

STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--launched-ns", type=int, required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default="report.json")
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--trace", default="")
    p.add_argument("--run-id", default="")
    args = p.parse_args(argv)

    t_import = time.monotonic_ns()
    from ccr_reduce import cli, corpus, quadrature
    from ccr_reduce.errors import CcrReduceError

    overrides = {} if args.rel_tol is None else {"rel_tol": args.rel_tol}
    try:
        t_load = time.monotonic_ns()
        corpus.load_corpus(args.corpus)
        t_ready = time.monotonic_ns()
        record = {"setup_s": (t_ready - args.launched_ns) * 1e-9,
                  "start_s": (STARTED_NS - args.launched_ns) * 1e-9,
                  "import_s": (t_load - t_import) * 1e-9,
                  "load_corpus_s": (t_ready - t_load) * 1e-9}
        tracer = None
        if args.trace:
            # installed after the set-up load, so only the scenario's own
            # load_corpus is traced
            from tracer import Tracer

            tracer = Tracer(args.run_id)
            tracer.install()
        cfg = cli.ScenarioConfig(scenario=args.scenario, corpus=args.corpus,
                                 output=args.out, **overrides)
        w0 = time.perf_counter()
        cli.run_scenario(cfg)
        record["wall_s"] = time.perf_counter() - w0
    except (OSError, ValueError, KeyError, json.JSONDecodeError, CcrReduceError) as exc:
        print(f"worker: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    info = quadrature._leggauss.cache_info()
    record["leggauss"] = {"hits": info.hits, "misses": info.misses}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.summary()
        tracer.dump(args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
