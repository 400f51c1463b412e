"""The benchmark tracer's hooks still match the package.

bench/tracer.py wraps package functions by module and attribute name, and
its counters read some arguments by position.  A rename or a reordered
parameter would otherwise surface only as a failed traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolve(module_name, attr_path):
    """The object the tracer replaces, looked up as Tracer.install does."""
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module_name}.{attr_path} is not defined on its owner"
    return vars(owner)[attr]


def params(fn):
    return list(inspect.signature(fn).parameters.values())


@pytest.mark.parametrize("module_name, attr_path", [spec[:2] for spec in tracer.SPECS])
def test_every_target_resolves_to_a_function(module_name, attr_path):
    assert callable(resolve(module_name, attr_path))


# counter (or span-name function) -> (position, parameter name) pairs it reads
POSITIONS = {
    tracer._count_amplitude: [(1, "K")],
    tracer._count_momentum_map: [(1, "K")],
    tracer._count_gl_nodes: [(0, "n")],
    tracer._count_spherical: [(2, "cfg")],
    tracer._count_spherical_grid: [(1, "nr"), (2, "ntheta"), (3, "nphi")],
    tracer._count_project_bhp: [(0, "f")],
    tracer._field_average_name: [(4, "path")],
}


@pytest.mark.parametrize("spec", [s for s in tracer.SPECS
                                  if s[3] in POSITIONS or s[2] in POSITIONS],
                         ids=lambda s: s[1])
def test_positional_reads_match_the_signatures(spec):
    module_name, attr_path, name, counter = spec
    ps = params(resolve(module_name, attr_path))
    for reader in (counter, name):
        for pos, expected in POSITIONS.get(reader, []):
            assert len(ps) > pos and ps[pos].name == expected, (
                f"{attr_path}: {reader.__name__} reads argument {pos} as {expected!r}, "
                f"the signature is {[p.name for p in ps]}")


def test_field_average_path_defaults_to_series():
    # an unnamed path is traced as the series route
    ps = params(resolve("ccr_reduce.averaging", "average_field_bhp"))
    assert ps[4].default == "series"


def test_traced_run_matches_untraced_run(tmp_path):
    # the counters read real results (the ladder's (value, err) pair, the
    # amplitude's points), and tracing must leave the report unchanged;
    # bhp-average integrates no spherical ladder, so a massless field whose
    # support box holds the origin runs one through evaluate_field
    from ccr_reduce import FieldVector, GaussianPacket, cli, evaluate_field
    from ccr_reduce.corpus import dump_corpus, generate_corpus

    corpus_path = tmp_path / "s0.json"
    dump_corpus(generate_corpus(42, 2, s0=True), corpus_path)

    def run(name):
        return cli.run_scenario(cli.ScenarioConfig("bhp-average", str(corpus_path),
                                                   str(tmp_path / name)))

    plain = run("plain.json")
    field = FieldVector(0.0, (GaussianPacket([0.2, -0.1, 0.3], [0.8, 0.8, 0.8], 1.0),))
    t = tracer.Tracer("smoke")
    t.install()
    try:
        traced = run("traced.json")
        evaluate_field(field, 0.5, [0.1, 0.0, -0.2])
    finally:
        t.uninstall()
    assert traced["checks"] == plain["checks"]
    assert traced["results"] == plain["results"]
    summary = t.summary()
    assert "err_to_tol_max" in summary["quadrature.adaptive_spherical"]
    assert summary["modes.FieldVector.amplitude"]["points"] > 0


def test_bhp_momentum_maps_invert_each_other():
    # the tracer wraps both maps by name, and the package itself reads only
    # the chain folds, so nothing else would notice if one map drifted
    import numpy as np
    from ccr_reduce import BHPElement

    rng = np.random.default_rng(11)
    K = rng.uniform(-3.0, 3.0, size=(64, 3))
    for _ in range(10):
        g = BHPElement(int(rng.integers(-2, 3)), rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0))
        for there, back in ((g.forward_momentum_map, g.inverse_momentum_map),
                            (g.inverse_momentum_map, g.forward_momentum_map)):
            assert np.max(np.abs(back(there(K)) - K)) <= 1e-12 * np.max(np.abs(K))
