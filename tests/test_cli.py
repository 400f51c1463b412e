import csv
import json
import subprocess
import sys
from unittest import mock

import pytest

from ccr_reduce import QuadratureConfig, project_axisymmetric, project_bhp, reduction
from ccr_reduce.cli import ScenarioConfig, main, run_scenario
from ccr_reduce.corpus import dump_corpus, generate_corpus, load_corpus


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ccr_reduce.cli", *args],
                          capture_output=True, text=True)


class TestCorpusGeneration:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_corpus(generate_corpus(11, 5), p1)
        dump_corpus(generate_corpus(11, 5), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_corpus_valid(self, tmp_path):
        p = tmp_path / "empty.json"
        dump_corpus(generate_corpus(3, 0), p)
        assert load_corpus(p) == []

    def test_size_cap(self):
        with pytest.raises(ValueError):
            generate_corpus(1, 65)

    def test_ranges(self):
        doc = generate_corpus(5, 20)
        for fd in doc["fields"]:
            for term in fd["terms"]:
                assert all(-3.0 <= c <= 3.0 for c in term["center"])
                assert all(0.3 <= w <= 1.5 for w in term["width"])

    def test_s0_corpus_projects_to_zero_mode_free(self):
        fields = load_corpus(generate_corpus(9, 3, s0=True))
        for f in fields:
            s = project_bhp(f, QuadratureConfig(n_max=2))
            assert abs(s.entries[0]) < 1e-10
            assert s.zero_mode_defined


class TestScenarioRunner:
    def test_bounds_scenario(self, tmp_path):
        corpus = tmp_path / "c.json"
        dump_corpus(generate_corpus(21, 4), corpus)
        out = tmp_path / "report.json"
        cfg = ScenarioConfig("bounds", str(corpus), str(out))
        report = run_scenario(cfg)
        assert report["results"]["n_failed"] == 0
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "bounds"
        for c in doc["checks"]:
            assert set(c) == {"name", "lhs", "rhs", "tol", "pass", "oracle"}

    def test_zero_mode_scenario(self, tmp_path):
        corpus = tmp_path / "c.json"
        dump_corpus(generate_corpus(31, 2), corpus)
        out = tmp_path / "report.json"
        report = run_scenario(ScenarioConfig("zero-mode", str(corpus), str(out)))
        names = [c["name"] for c in report["checks"]]
        assert any(n.startswith("diverges") for n in names)
        assert report["results"]["n_failed"] == 0

    def test_weyl_scenario(self, tmp_path):
        corpus = tmp_path / "c.json"
        dump_corpus(generate_corpus(41, 3), corpus)
        out = tmp_path / "report.json"
        report = run_scenario(ScenarioConfig("weyl", str(corpus), str(out)))
        assert report["results"]["n_failed"] == 0

    def test_axisym_csv_rows_equal_scalar_values(self, tmp_path):
        corpus = tmp_path / "c.json"
        dump_corpus(generate_corpus(42, 2), corpus)
        grid = tmp_path / "grid.csv"
        report = run_scenario(ScenarioConfig("axisym", str(corpus),
                                             str(tmp_path / "r.json"),
                                             csv_path=str(grid)))
        assert report["results"]["n_failed"] == 0
        A = project_axisymmetric(load_corpus(corpus)[0])
        with open(grid, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 625
        for row in rows:
            v = A.value(float(row["kappa"]), float(row["kz"]))
            assert (float(row["re_A"]), float(row["im_A"])) == (v.real, v.imag)

    def test_report_determinism_modulo_timestamp(self, tmp_path):
        corpus = tmp_path / "c.json"
        dump_corpus(generate_corpus(21, 3), corpus)
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_scenario(ScenarioConfig("bounds", str(corpus), str(out)))
            doc = json.loads(out.read_text())
            doc.pop("generated_at")
            doc["config"].pop("output")
            reports.append(json.dumps(doc, sort_keys=True))
        assert reports[0] == reports[1]


class TestCliProcess:
    def test_invalid_scenario_exits_2(self, tmp_path):
        res = run_cli("run", "--scenario", "nope", "--corpus", "x", "--out", "y")
        assert res.returncode == 2
        assert "invalid choice" in res.stderr

    def test_missing_corpus_exits_2(self, tmp_path):
        out = tmp_path / "r.json"
        res = run_cli("run", "--scenario", "bounds",
                      "--corpus", str(tmp_path / "missing.json"), "--out", str(out))
        assert res.returncode == 2

    def test_gen_and_run_roundtrip(self, tmp_path):
        corpus = tmp_path / "c.json"
        res = run_cli("gen-corpus", "--seed", "13", "--size", "3", "--out", str(corpus))
        assert res.returncode == 0
        out = tmp_path / "r.json"
        res = run_cli("run", "--scenario", "bounds", "--corpus", str(corpus),
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert "PASS" in res.stdout

    def test_bundled_corpus_loads(self):
        fields = load_corpus("bundled")
        assert len(fields) == 6

    def test_bhp_field_needs_zero_mode_free_corpus(self, tmp_path):
        corpus = tmp_path / "c.json"
        dump_corpus(generate_corpus(7, 2, s0=False), corpus)
        out = tmp_path / "r.json"
        assert main(["run", "--scenario", "bhp-field", "--corpus", str(corpus),
                     "--out", str(out)]) == 2


    def test_nullspace_on_s0_corpus_exits_0(self, tmp_path):
        # every s0 field has a zero ring mean, so the whole circle Gram is
        # roundoff: ranked against max mu(f_i, f_i) it has rank 0, and the
        # chi and psi projections come from the one projection of the span
        corpus = tmp_path / "c.json"
        dump_corpus(generate_corpus(42, 6, s0=True), corpus)
        out = tmp_path / "r.json"
        with mock.patch.object(reduction, "project_bhp", wraps=reduction.project_bhp) as spy:
            code = main(["run", "--scenario", "nullspace", "--corpus", str(corpus),
                         "--out", str(out)])
        assert code == 0
        assert spy.call_count == 6 + 1  # the span and the null vector, once each
        report = json.loads(out.read_text())
        assert report["results"]["circle_gram"]["rank"] == 0
        assert report["results"]["bhp_gram"]["rank"] == 6


GOOD_TERM = {"center": [0.5, -0.4, 0.3], "width": [0.8, 0.9, 1.0], "coeff": [0.6, -0.2],
             "actions": []}
GOOD_FIELD = {"mass": 0.0, "terms": [GOOD_TERM]}


class TestInvalidFieldInput:
    @staticmethod
    def run_bounds(tmp_path, mass=0.0, width=(0.8, 0.9, 1.0), coeff=(0.6, -0.2),
                   actions=(), scenario="bounds"):
        term = {"center": [0.5, -0.4, 0.3], "width": list(width),
                "coeff": list(coeff), "actions": list(actions)}
        corpus = tmp_path / "c.json"
        corpus.write_text(json.dumps({"fields": [{"mass": mass, "terms": [term]}]}))
        return main(["run", "--scenario", scenario, "--corpus", str(corpus),
                     "--out", str(tmp_path / "r.json")])

    def test_valid_field_passes(self, tmp_path):
        assert self.run_bounds(tmp_path) == 0

    def test_nan_width_exits_2(self, tmp_path):
        assert self.run_bounds(tmp_path, width=(0.8, float("nan"), 1.0)) == 2

    def test_infinite_coeff_exits_2(self, tmp_path):
        assert self.run_bounds(tmp_path, coeff=(float("inf"), 0.0)) == 2

    def test_boost_on_massive_field_exits_2(self, tmp_path):
        boost = {"kind": "bhp", "n": 0, "alpha": 0.5, "beta": 0.0}
        assert self.run_bounds(tmp_path, mass=1.0, actions=[boost]) == 2

    @pytest.mark.parametrize("doc, where", [
        ({"fields": None}, '"fields" list'),
        ([{"mass": 0.0, "terms": []}], '"fields" list'),
        ({"fields": [GOOD_FIELD, {"mass": 0.0, "terms": 5}]}, "field 1"),
        ({"fields": [GOOD_FIELD, {"mass": 0.0, "terms": [dict(GOOD_TERM, coeff=1.0)]}]},
         "field 1"),
        ({"fields": [GOOD_FIELD, {"mass": 0.0, "terms": [dict(GOOD_TERM, actions=[
            {"kind": "bhp", "n": 0, "alpha": None, "beta": 0.0}])]}]}, "field 1"),
    ], ids=["fields-null", "top-level-list", "terms-int", "coeff-float", "alpha-null"])
    def test_malformed_structure_exits_2(self, tmp_path, capsys, doc, where):
        corpus = tmp_path / "c.json"
        corpus.write_text(json.dumps(doc))
        assert main(["run", "--scenario", "bounds", "--corpus", str(corpus),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert where in capsys.readouterr().err
        with pytest.raises(ValueError, match=where):
            load_corpus(str(corpus))

    def test_axisym_with_boosted_term_exits_2(self, tmp_path, capsys):
        # a boosted term does not factorise in k_z, so it cannot be projected
        boost = {"kind": "bhp", "n": 0, "alpha": 0.5, "beta": 0.0}
        assert self.run_bounds(tmp_path, actions=[boost], scenario="axisym") == 2
        assert "boost-free" in capsys.readouterr().err

    def test_zero_mode_with_rotated_term_exits_2(self, tmp_path, capsys):
        # a rotation drags the frequency into the complex-evaluated slice
        rotation = {"kind": "rotation", "angle": 0.4}
        assert self.run_bounds(tmp_path, actions=[rotation], scenario="zero-mode") == 2
        assert "translation-only" in capsys.readouterr().err
