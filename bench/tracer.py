"""Span recorder for the traced benchmark run.

The package is measured only from outside: `Tracer.install` replaces public
functions and methods of `ccr_reduce` with timing wrappers and rebinds every
module-level name that refers to a wrapped function (for example both
`quadrature.adaptive_spherical` and the copies imported into `forms` and
`averaging`).  Each call records one span (name, start, end, parent) in
flat in-memory arrays; the spans are written out once the scenario ends.
A layer's self time is its span duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _points(K) -> int:
    shape = np.shape(K)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _count_amplitude(tracer, counts, args, kwargs, result):
    K = args[1] if len(args) > 1 else kwargs["K"]
    counts["points"] += _points(K)
    if np.ndim(K) <= 1:
        counts["scalar_calls"] += 1


def _count_momentum_map(tracer, counts, args, kwargs, result):
    counts["points"] += _points(args[1] if len(args) > 1 else kwargs["K"])


def _count_axisym_value(tracer, counts, args, kwargs, result):
    counts["points"] += int(np.size(result))


def _count_gl_nodes(tracer, counts, args, kwargs, result):
    counts["n:" + str(int(args[0] if args else kwargs["n"]))] = 1


def _count_spherical(tracer, counts, args, kwargs, result):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    if cfg is None:
        from ccr_reduce.quadrature import DEFAULT_CONFIG as cfg
    value, err = result
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    counts["err_to_tol_max"] = max(counts["err_to_tol_max"], float(err) / tol)


def _count_spherical_grid(tracer, counts, args, kwargs, result):
    # a grid built directly under the ladder is one of its levels
    if tracer.caller_name() == "quadrature.adaptive_spherical":
        ladder = tracer.counts["quadrature.adaptive_spherical"]
        ladder["levels"] += 1
        ladder["points"] += int(np.prod([int(c) for c in args[1:4]]))


def _count_project_bhp(tracer, counts, args, kwargs, result):
    from ccr_reduce.modes import field_to_json

    key = json.dumps(field_to_json(args[0]), sort_keys=True)
    if key in counts.setdefault("_seen", set()):
        counts["repeats"] += 1
    counts["_seen"].add(key)


def _field_average_name(args, kwargs):
    path = args[4] if len(args) > 4 else kwargs.get("path", "series")
    return f"averaging.average_field_bhp.{path}"


# (module, attribute path, span name or name function, counter)
SPECS = (
    ("ccr_reduce.quadrature", "gl_nodes", "quadrature.gl_nodes", _count_gl_nodes),
    ("ccr_reduce.quadrature", "adaptive_spherical", "quadrature.adaptive_spherical",
     _count_spherical),
    ("ccr_reduce.quadrature", "adaptive_tensor3", "quadrature.adaptive_tensor3", None),
    ("ccr_reduce.quadrature", "spherical_grid", "quadrature.spherical_grid",
     _count_spherical_grid),
    ("ccr_reduce.modes", "FieldVector.amplitude", "modes.FieldVector.amplitude",
     _count_amplitude),
    ("ccr_reduce.groups", "apply_group", "groups.apply_group", None),
    ("ccr_reduce.groups", "BHPElement.forward_momentum_map",
     "groups.BHPElement.momentum_map", _count_momentum_map),
    ("ccr_reduce.groups", "BHPElement.inverse_momentum_map",
     "groups.BHPElement.momentum_map", _count_momentum_map),
    ("ccr_reduce.forms", "bform", "forms.bform", None),
    ("ccr_reduce.averaging", "average_bform_circle", "averaging.average_bform_circle", None),
    ("ccr_reduce.averaging", "bhp_reduced_integrand", "averaging.bhp_reduced_integrand",
     None),
    ("ccr_reduce.averaging", "average_bform_bhp_gave", "averaging.average_bform_bhp_gave",
     None),
    ("ccr_reduce.averaging", "average_bform_bhp_reduced",
     "averaging.average_bform_bhp_reduced", None),
    ("ccr_reduce.averaging", "average_field_bhp", _field_average_name, None),
    ("ccr_reduce.averaging", "zero_mode_divergence_probe",
     "averaging.zero_mode_divergence_probe", None),
    ("ccr_reduce.reduction", "project_bhp", "reduction.project_bhp", _count_project_bhp),
    ("ccr_reduce.reduction", "AxisymmetricAmplitude.value",
     "reduction.AxisymmetricAmplitude.value", _count_axisym_value),
    ("ccr_reduce.reduction", "AxisymmetricAmplitude.grid_values",
     "reduction.grid_values", None),
    ("ccr_reduce.reduction", "reduced_forms_axisym", "reduction.reduced_forms_axisym", None),
    ("ccr_reduce.reduction", "null_space_analysis", "reduction.null_space_analysis", None),
    ("ccr_reduce.reduction", "gowdy_value", "reduction.gowdy_value", None),
    ("ccr_reduce.specfun", "hankel2_0", "specfun.hankel2_0", None),
    ("ccr_reduce.corpus", "load_corpus", "corpus.load_corpus", None),
    ("ccr_reduce.cli", "run_scenario", "cli.run_scenario", None),
)


def self_times(parent, start, end) -> np.ndarray:
    """Per-span self time: duration minus the summed duration of its children.

    `parent[i]` is the index of span i's parent, or -1 for a root.  Calls
    are synchronous, so children never overlap one another inside a parent.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class Tracer:
    """Wraps the functions in SPECS and records one span per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, counter=None):
        fixed_id = self._name_id(name) if isinstance(name, str) else None
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self._name_id(name(args, kwargs))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self, self.counts[self.names[nid]], args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every SPECS target and rebind all module-level references."""
        importlib.import_module("ccr_reduce.cli")
        replaced = {}
        for module_name, attr_path, name, counter in SPECS:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(original, name, counter)
            self._set(owner, attr, wrapper)
            if not outer:
                replaced[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("ccr_reduce"):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])

    def caller_name(self):
        """Name of the innermost open span, or None at the top level."""
        return self.names[self.name[self._stack[-1]]] if self._stack else None

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per-name calls, self time and counters for this process."""
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        own = self_times(parent, self.start, self.end) * 1e-9
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=own, minlength=n_names)
        out = {}
        for i, nm in enumerate(self.names):
            entry = {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for key, val in self.counts.get(nm, {}).items():
                if not key.startswith("_") and not key.startswith("n:"):
                    entry[key] = float(val)
            distinct = [k for k in self.counts.get(nm, {}) if k.startswith("n:")]
            if distinct:
                entry["distinct_n"] = len(distinct)
            out[nm] = entry
        out.update(self._tree_counts(name, parent))
        return out

    def _tree_counts(self, name, parent) -> dict:
        """Counts that follow from which span called which."""
        ids = self._name_ids

        def callers(child: str, owner: str):
            """Indices of `owner` spans that called a `child` span directly."""
            idx = parent[name == ids[child]]
            idx = idx[idx >= 0]
            return np.unique(idx[name[idx] == ids[owner]])

        numeric = np.union1d(callers("quadrature.adaptive_spherical", "forms.bform"),
                             callers("quadrature.adaptive_tensor3", "forms.bform"))
        grid_calls = int(np.sum(name == ids["reduction.grid_values"]))
        grid_misses = callers("reduction.AxisymmetricAmplitude.value",
                              "reduction.grid_values").size
        # each level of the axisym ladder reads the grids of both fields
        axisym_levels = np.sum(np.isin(parent[name == ids["reduction.grid_values"]],
                                       np.flatnonzero(name == ids["reduction.reduced_forms_axisym"])))
        return {"derived": {"forms.bform.numeric_calls": int(numeric.size),
                            "reduction.grid_values.hits": grid_calls - grid_misses,
                            "reduction.grid_values.misses": grid_misses,
                            "reduction.reduced_forms_axisym.levels": int(axisym_levels) // 2}}

    def dump(self, path) -> None:
        """Write the spans as columns: name index, parent index, start, end."""
        doc = {"run_id": self.run_id, "names": self.names,
               "name": self.name.tolist(), "parent": self.parent.tolist(),
               "start_ns": self.start.tolist(), "end_ns": self.end.tolist()}
        with open(path, "w") as fh:
            json.dump(doc, fh)
