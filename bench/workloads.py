"""Workloads, end-to-end metrics and per-layer metrics of the benchmark.

Each workload is a list of scenario steps (scenario, corpus kind, rel_tol
override).  Every step runs in its own interpreter through
`ccr_reduce.cli.run_scenario`, one process at a time.

Why these workloads: each first optimisation target named in ROADMAP
(node generation, over-resolved spherical ladders, the axisymmetric grid)
has one workload that exercises it and one that bypasses it.
"""

WORKLOADS = {
    # ~95% in AxisymmetricAmplitude.value; 4 node-cache misses, no spherical
    # ladder and no QUADPACK: exercises z-separability / n_angle, bypasses
    # node generation and the spherical ladders
    "compact-axisym": [("axisym", "plain", None)],
    # most time in adaptive_spherical on boosted pairs (momentum maps,
    # numeric bform, bhp_reduced_integrand); sets the peak memory
    "bhp-crosscheck": [("bhp-average", "s0", None)],
    # node generation for many distinct sizes (zero-mode), scalar QUADPACK
    # callbacks (nullspace), the damped boost integral and Hankel series
    # (bhp-field); no spherical and no axisymmetric grid
    "gowdy-modes": [("zero-mode", "plain", None), ("nullspace", "plain", None),
                    ("bhp-field", "s0", None)],
    # the non-compact scenarios at a tolerance the ladders must actually
    # meet: shows the cost of a ladder that starts coarser
    "bhp-tight-tol": [("bhp-average", "s0", 1e-11), ("nullspace", "plain", 1e-11),
                      ("bhp-field", "s0", 1e-11)],
}

SCENARIOS = ("axisym", "bhp-average", "zero-mode", "nullspace", "bhp-field")


def step_key(scenario: str, rel_tol) -> str:
    return scenario if rel_tol is None else f"{scenario}@rel_tol={rel_tol:g}"


# name, unit, better, bound (share of the parent's median).  On a shared
# 2-core box the same run varies by up to 40% between neighbouring seconds
# (cpu time with it), so the time bounds are wide; peak RSS barely moves.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_GOWDY = "wall_s/cpu_s on gowdy-modes"
_CROSS = "wall_s/peak_rss_mb on bhp-crosscheck and bhp-tight-tol"
_AXI = "wall_s/peak_rss_mb on compact-axisym"

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("quadrature.gl_nodes.calls", "count", "lower", _GOWDY),
    ("quadrature.gl_nodes.self_s", "s", "lower", _GOWDY + "; none on compact-axisym"),
    ("quadrature.gl_nodes.distinct_n", "count", "lower", _GOWDY),
    ("quadrature.leggauss.hits", "count", "higher", _GOWDY),
    ("quadrature.leggauss.misses", "count", "lower", _GOWDY),
    ("quadrature.adaptive_spherical.calls", "count", "lower", _CROSS),
    ("quadrature.adaptive_spherical.levels", "count", "lower", _CROSS),
    ("quadrature.adaptive_spherical.points", "count", "lower", _CROSS),
    ("quadrature.adaptive_spherical.self_s", "s", "lower", _CROSS),
    ("quadrature.adaptive_spherical.err_to_tol", "ratio", "higher", _CROSS),
    ("quadrature.spherical_grid.self_s", "s", "lower", _CROSS),
    ("modes.FieldVector.amplitude.calls", "count", "lower", "wall_s on compact-axisym"),
    ("modes.FieldVector.amplitude.scalar_calls", "count", "lower", "wall_s on gowdy-modes"),
    ("modes.FieldVector.amplitude.points", "count", "lower", "wall_s on compact-axisym"),
    ("modes.FieldVector.amplitude.self_s", "s", "lower", "wall_s on compact-axisym"),
    ("groups.apply_group.calls", "count", "lower", "wall_s on bhp-crosscheck"),
    ("groups.BHPElement.momentum_map.points", "count", "lower", "wall_s on bhp-crosscheck"),
    ("groups.BHPElement.momentum_map.self_s", "s", "lower", "wall_s on bhp-crosscheck"),
    ("forms.bform.calls", "count", "lower", "wall_s on compact-axisym"),
    ("forms.bform.numeric_calls", "count", "lower", "wall_s on bhp-crosscheck"),
    ("forms.bform.self_s", "s", "lower",
     "wall_s on compact-axisym (closed form) and bhp-crosscheck (numeric)"),
    ("averaging.average_bform_circle.calls", "count", "lower", "wall_s on compact-axisym"),
    ("averaging.average_bform_circle.self_s", "s", "lower", "wall_s on compact-axisym"),
    ("averaging.bhp_reduced_integrand.self_s", "s", "lower", "wall_s on bhp-crosscheck"),
    ("averaging.average_bform_bhp_gave.self_s", "s", "lower", "wall_s on bhp-crosscheck"),
    ("averaging.average_bform_bhp_reduced.self_s", "s", "lower", "wall_s on bhp-crosscheck"),
    ("averaging.average_field_bhp.direct.self_s", "s", "lower", "wall_s on gowdy-modes"),
    ("averaging.average_field_bhp.series.self_s", "s", "lower", "wall_s on gowdy-modes"),
    ("averaging.zero_mode_divergence_probe.self_s", "s", "lower", "wall_s on gowdy-modes"),
    ("reduction.project_bhp.calls", "count", "lower", "wall_s on gowdy-modes and bhp-tight-tol"),
    ("reduction.project_bhp.self_s", "s", "lower", "wall_s on gowdy-modes and bhp-tight-tol"),
    ("reduction.project_bhp.repeat_share", "ratio", "lower",
     "wall_s on gowdy-modes and bhp-tight-tol"),
    ("reduction.AxisymmetricAmplitude.value.calls", "count", "lower", _AXI),
    ("reduction.AxisymmetricAmplitude.value.points", "count", "lower", _AXI),
    ("reduction.AxisymmetricAmplitude.value.self_s", "s", "lower", _AXI),
    ("reduction.grid_values.hits", "count", "higher", _AXI),
    ("reduction.grid_values.misses", "count", "lower", _AXI),
    ("reduction.reduced_forms_axisym.calls", "count", "lower", "wall_s on compact-axisym"),
    ("reduction.reduced_forms_axisym.levels", "count", "lower", "wall_s on compact-axisym"),
    ("reduction.null_space_analysis.self_s", "s", "lower", "wall_s on gowdy-modes"),
    ("reduction.gowdy_value.calls", "count", "lower", "wall_s on gowdy-modes"),
    ("reduction.gowdy_value.self_s", "s", "lower", "wall_s on gowdy-modes"),
    ("specfun.hankel2_0.calls", "count", "lower", "wall_s on gowdy-modes"),
    ("specfun.hankel2_0.self_s", "s", "lower", "wall_s on gowdy-modes"),
    ("corpus.load_corpus.self_s", "s", "lower", "setup_s on all workloads"),
) + tuple(
    (f"cli.run_scenario.{s}.wall_s", "s", "lower", "wall_s on the workloads running " + s)
    for s in SCENARIOS
) + (
    ("trace.overhead_share", "ratio", "lower", "none: cost of the traced run itself"),
    ("checks.failed_share", "ratio", "lower", "none: must stay 0 on every workload"),
)
