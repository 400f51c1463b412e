"""Self-tests of the benchmark: python3 -m pytest bench/tests"""

import json
from pathlib import Path

import numpy as np
import pytest

import gate
import run
import tracer
from workloads import END_TO_END, PER_LAYER, WORKLOADS


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parent = [-1, 0, 1, 0]
    start = [0, 1, 2, 5]
    end = [10, 4, 3, 9]
    np.testing.assert_allclose(tracer.self_times(parent, start, end), [3, 2, 1, 4])


def test_tracer_rebinds_imported_copies_and_restores_them():
    from ccr_reduce import forms, quadrature

    original = quadrature.adaptive_spherical
    t = tracer.Tracer("test")
    t.install()
    try:
        assert forms.adaptive_spherical is quadrature.adaptive_spherical
        assert forms.adaptive_spherical is not original
        quadrature.gl_nodes(5, 0.0, 1.0)
    finally:
        t.uninstall()
    assert forms.adaptive_spherical is original
    summary = t.summary()
    assert summary["quadrature.gl_nodes"]["calls"] == 1
    assert summary["quadrature.gl_nodes"]["distinct_n"] == 1


def _row(lhs, rhs, tol=1e-6, ok=True, name="r"):
    return {"name": name, "lhs": lhs, "rhs": rhs, "tol": tol, "pass": ok}


def test_comparator_accepts_moves_within_tol_and_rejects_beyond():
    ref = [_row(2.0, 2.0)]
    assert gate.compare(ref, [_row(2.0 * (1 + 0.5e-6), 2.0)]) == (1, 0)
    assert gate.compare(ref, [_row(2.0 * (1 + 2e-6), 2.0)]) == (1, 1)


def test_bound_rows_fail_once_the_error_grows_past_its_reference():
    # limit max(100 * 3e-13, 1e-2 * 1e-5) = 1e-7
    bound = [_row(3e-13, 1e-5, tol=1e-5)]
    assert gate.compare(bound, [_row(1e-14, 1e-5, tol=1e-5)]) == (1, 0)
    assert gate.compare(bound, [_row(9e-8, 1e-5, tol=1e-5)]) == (1, 0)
    assert gate.compare(bound, [_row(9e-6, 1e-5, tol=1e-5)]) == (1, 1)
    assert gate.compare(bound, [_row(2e-5, 1e-5, tol=1e-5, ok=False)]) == (1, 1)
    # a reference error within a hundredth of the bound: the pass flag rules
    big = [_row(1e-6, 1e-4, tol=1e-4)]
    assert gate.compare(big, [_row(9e-5, 1e-4, tol=1e-4)]) == (1, 0)


def test_threshold_rows_accept_a_last_digit_move_only():
    ref = [_row(1.8545871062157762, 1.2, tol=0.0, name="diverges[0]")]
    last_digit = [_row(1.8545871062157758, 1.2, tol=0.0, name="diverges[0]")]
    assert gate.compare(ref, last_digit) == (1, 0)
    assert gate.compare(ref, [_row(1.86, 1.2, tol=0.0, name="diverges[0]")]) == (1, 1)
    assert gate.compare(ref, [_row(1.8545871062157762, 1.3, tol=0.0,
                                   name="diverges[0]")]) == (1, 1)


def test_comparator_uses_the_axisym_pair_floor():
    ref = [_row(0.5, 0.5, name="average=restriction mu[0,1]"),
           _row(0.0, -2e-19, name="average=restriction omega[0,1]")]
    small_move = [ref[0], _row(1e-9, 3e-19, name="average=restriction omega[0,1]")]
    assert gate.compare(ref, small_move) == (2, 0)
    big_move = [ref[0], _row(1e-6, 0.0, name="average=restriction omega[0,1]")]
    assert gate.compare(ref, big_move) == (2, 1)


def test_comparator_fails_flagged_missing_and_extra_rows():
    ref = [_row(1.0, 1.0, name="a"), _row(1.0, 1.0, name="b")]
    assert gate.compare(ref, [_row(1.0, 1.0, ok=False, name="a"),
                              _row(1.0, 1.0, name="c")]) == (3, 3)


def test_scenario_exiting_with_2_fails_all_its_rows(tmp_path):
    key = "nullspace"
    rec = run.run_step(tmp_path / "pass" / key, "nullspace", "missing", None,
                       run.scenario_env())
    assert rec == {"ok": False, "returncode": 2}
    steps = [("nullspace", "plain", None)]
    reference = gate.load_reference()
    n = len(reference[key])
    assert n > 0
    assert run.check_pass({key: rec}, reference, True, steps) == (n, n)
    assert run.check_pass({key: rec}, reference, False, steps) == (n, n)


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert doc["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bound}
                                 for n, u, b, bound in END_TO_END]
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b, _ in PER_LAYER]


@pytest.mark.parametrize("key", sorted(gate.load_reference()))
def test_reference_rows_pass_and_have_unique_names(key):
    rows = gate.load_reference()[key]
    assert all(r["pass"] for r in rows)
    assert len({r["name"] for r in rows}) == len(rows)
