"""Per-layer metrics derived from one traced run.

A traced run traces every workload, so each per-layer metric is named
``<workload>.<layer metric>`` and listed only for the workloads that
exercise it: a layer a workload never calls would read 0 on every run.
Values are per iteration (totals over the traced iterations divided by
their number), except ``potential.worst_residual`` (the largest residual
seen) and the ``trace.*`` and ``setup.*`` figures, which describe their
own phase.  ``potential.harnack_large.s`` and ``setup.import_s`` belong
to the run, not to a workload.  ``None`` means the program no longer has
the name the metric needs: not measured.
"""

CLI, CELLS, MC = "cli_z41", "cells_box31", "mc_gasket6"
ALL = (CLI, CELLS, MC)
SOLVES = (CLI, CELLS)          # the workloads that build ball solvers

CONDITION_TAGS = ("BC", "VD", "wVC", "TC", "wTC", "TD", "ER", "rho_v",
                  "E_hom", "p0", "H", "Ebar", "HG", "g", "aVD", "adrv")

# layer self times; with trace.uncovered_s they add up to trace.wall_s
SELF_LAYERS = (("graph", ALL), ("kernels", ALL), ("potential", SOLVES),
               ("conditions", (CLI,)), ("walker", (MC,)), ("cli", (CLI, MC)))

# (metric, unit, kind, span or figure it reads, workloads exercising it)
_SPEC = [
    ("graph.eccentricities.s", "s", "s", "graph.eccentricities", (CLI,)),
    ("graph.load.s", "s", "s", "graph.load", (CLI, MC)),
    ("graph.WeightedGraph.s", "s", "s", "graph.WeightedGraph", (CLI, MC)),
    ("graph.ball.calls", "count", "calls", "graph.ball", ALL),
    ("graph.ball.s", "s", "s", "graph.ball", ALL),
    ("graph.shrink.s", "s", "s", "graph.shrink", (CLI,)),
    ("graph.host_frontier.calls", "count", "calls", "graph.host_frontier",
     (CLI,)),
    ("kernels.bfs_distances.calls", "count", "calls", "kernels.bfs_distances",
     ALL),
    ("kernels.bfs_distances.s", "s", "s", "kernels.bfs_distances", ALL),
    ("kernels.bfs_distances.vertices", "count", "counter",
     "kernels.bfs_distances", ALL),
    ("kernels.multi_source_distances_numpy.s", "s", "s",
     "kernels.multi_source_distances_numpy", (CLI,)),
    ("kernels.simulate_exits.s", "s", "s", "kernels.simulate_exits", (MC,)),
    ("kernels.simulate_exits.steps", "count", "counter",
     "kernels.simulate_exits", (MC,)),
    ("kernels.build_transition_profile.s", "s", "s",
     "kernels.build_transition_profile", (MC,)),
    ("potential.GreenOperator.calls", "count", "calls",
     "potential.GreenOperator", SOLVES),
    ("potential.GreenOperator.s", "s", "s", "potential.GreenOperator", SOLVES),
    ("potential.GreenOperator.unknowns", "count", "counter",
     "potential.GreenOperator", SOLVES),
    ("potential.factor.s", "s", "s", "potential.factor", SOLVES),
    ("potential.factor.lu_calls", "count", "counter", "potential.factor",
     SOLVES),
    ("potential.factor.cg_calls", "count", "counter", "potential.factor",
     (CELLS,)),
    ("potential.factor.reuse", "ratio", "reuse", "potential.factor", SOLVES),
    ("potential.mean_exit_time.s", "s", "s", "potential.mean_exit_time",
     SOLVES),
    ("potential.max_exit_time.s", "s", "s", "potential.max_exit_time",
     SOLVES),
    ("potential.dirichlet_potential.s", "s", "s",
     "potential.dirichlet_potential", SOLVES),
    ("potential.lambda_min.s", "s", "s", "potential.lambda_min", SOLVES),
    ("potential.lambda_min.iterations", "count", "counter",
     "potential.lambda_min", SOLVES),
    ("potential.harmonic_measure.s", "s", "s", "potential.harmonic_measure",
     SOLVES),
    ("potential.harmonic_measure.columns", "count", "counter",
     "potential.harmonic_measure", SOLVES),
    ("potential.hg_constant.s", "s", "s", "potential.hg_constant", SOLVES),
    ("potential.layered_lower_bound.s", "s", "s",
     "potential.layered_lower_bound", (CLI,)),
    ("potential.worst_residual", "rel", "max", "potential.worst_residual",
     SOLVES),
    ("conditions.auto_centers.s", "s", "s", "conditions.auto_centers", (CLI,)),
    ("conditions.valid_cells.s", "s", "s", "conditions.valid_cells", (CLI,)),
    ("conditions.ball_inside_host.calls", "count", "calls",
     "conditions.ball_inside_host", (CLI,)),
    ("conditions.verify_inequalities.self_s", "s", "self",
     "conditions.verify_inequalities", (CLI,)),
] + [
    (f"conditions.measure_condition.{tag}.s", "s", "s",
     f"conditions.measure_condition.{tag}", (CLI,))
    for tag in CONDITION_TAGS
] + [
    ("conditions.einstein_report.s", "s", "s", "conditions.einstein_report",
     (CLI,)),
    ("conditions.fit_exponents.s", "s", "s", "conditions.fit_exponents",
     (CLI,)),
    ("conditions.cache.calls", "count", "cache_calls", "conditions.cache",
     (CLI,)),
    ("conditions.cache.hit_ratio", "ratio", "cache_hits", "conditions.cache",
     (CLI,)),
    ("walker.mc_exit_time.self_s", "s", "self", "walker.mc_exit_time", (MC,)),
    ("cli.verify.s", "s", "s", "cli.verify", (CLI,)),
    ("cli.einstein.s", "s", "s", "cli.einstein", (CLI,)),
    ("cli.fit.s", "s", "s", "cli.fit", (CLI,)),
] + [
    (f"{layer}.self_s", "s", "layer_self", layer, wls)
    for layer, wls in SELF_LAYERS
] + [
    ("trace.wall_s", "s", "figure", "wall_s", ALL),
    ("trace.uncovered_s", "s", "figure", "uncovered_s", ALL),
    ("trace.overhead_s", "s", "figure", "overhead_s", ALL),
    ("trace.spans", "count", "figure", "spans", ALL),
    ("setup.build_s", "s", "figure", "build_s", ALL),
    ("setup.graph.WeightedGraph.s", "s", "setup_span", "graph.WeightedGraph",
     ALL),
]

# the spans whose hooks record solver regions and builds
REGION_SPANS = ("potential.factor", "potential.GreenOperator",
                "potential.dirichlet_potential", "potential.lambda_min")

# metrics of the whole traced run
RUN_METRICS = (("potential.harnack_large.s", "s"), ("setup.import_s", "s"))

UNITS = {f"{wl}.{name}": unit for name, unit, _, _, wls in _SPEC for wl in wls}
UNITS.update(RUN_METRICS)


def _span_base(span):
    """measure_condition spans are named per tag; the wrapper is one."""
    if span.startswith("conditions.measure_condition."):
        return "conditions.measure_condition"
    return span


def per_layer(tracer, workload, summary, n_iter, setup_summary, figures):
    """``<workload>.<metric>`` -> value (None: not measured)."""
    names = summary["names"]
    counters = summary["counters"]

    def measured(span):
        base = _span_base(span)
        return base in tracer.installed and base not in tracer.missing

    cache = [v for k, v in names.items() if k.startswith("conditions.cache.")]
    cache_calls = sum(v["calls"] for v in cache)
    out = {}
    for metric, _unit, kind, ref, workloads in _SPEC:
        if workload not in workloads:
            continue
        if kind in ("s", "calls", "self"):
            key = {"s": "s", "calls": "calls", "self": "self_s"}[kind]
            value = names.get(ref, {}).get(key, 0) / n_iter \
                if measured(ref) else None
        elif kind == "counter":
            ok = (measured(ref) and metric not in tracer.missing
                  and ref not in tracer.hook_errors)
            value = counters.get(metric, 0) / n_iter if ok else None
        elif kind == "max":
            value = counters.get(ref, 0.0)
        elif kind == "reuse":
            builds = counters.get("potential.factor.builds", 0)
            ok = measured(ref) and not any(
                span in tracer.hook_errors for span in REGION_SPANS)
            value = (summary["regions"] / builds if builds else 0.0) \
                if ok else None
        elif kind == "cache_calls":
            value = None if ref in tracer.missing else cache_calls / n_iter
        elif kind == "cache_hits":
            hits = sum(v["leaf_calls"] for v in cache)
            value = None if ref in tracer.missing else \
                (hits / cache_calls if cache_calls else 0.0)
        elif kind == "layer_self":
            value = sum(v["self_s"] for k, v in names.items()
                        if k.split(".")[0] == ref) / n_iter
        elif kind == "figure":
            value = figures[ref]
        elif kind == "setup_span":
            value = setup_summary["names"].get(ref, {}).get("s", 0.0) \
                if measured(ref) else None
        out[f"{workload}.{metric}"] = value
    return out
