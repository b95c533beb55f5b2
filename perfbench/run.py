#!/usr/bin/env python3
"""Benchmark einstein-lab end to end, or by layer with --trace 1.

    python3 perfbench/run.py --workload cli_z41 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # the three, one process

Run from the repository root; the program is imported from ``src/`` and
must not need installing.  A run repeats workload iterations until
``--seconds`` have passed (wall_s is their mean), sets the workload up
afresh between them now and then (setup_s is the median of those
set-ups) and checks every output.  ``--trace 1`` runs every workload, a
ninth of the time untraced and a ninth traced each, then one large
traced Harnack solve; the per-layer metrics come from the traced parts.
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics.  Details go to ``perfbench/out/``; see
perfbench/README.md.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "einstein_lab"

# switches that change the code path or the results of the program
PINNED_UNSET = ("EINSTEIN_LAB_THREADS", "EINSTEIN_LAB_CORRUPT",
                "EINSTEIN_LAB_NUMBA")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# set-up is short next to an iteration: repeat it (at least SETUP_MIN
# warm set-ups, about SETUP_SHARE of the iteration time) and take the median
SETUP_MIN, SETUP_SHARE = 3, 0.05
# Harnack constant on B(c, 18) of the 31^3 box: 7139 unknowns, above the
# solver switch, and one solve per each of its 1298 boundary vertices
HARNACK_LARGE = (31, 9)
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def purge_package():
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def import_lab():
    """The package and its CLI module (the package does not import it)."""
    lab = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    where = Path(lab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"{PACKAGE} imported from {where}, not from {SRC}")
    return lab


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict form of the build config
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "unset_for_run": list(PINNED_UNSET),
    }


def set_up(workload):
    """Import the package afresh and build the fixture.

    Returns the package, the set-up time and the import part of it."""
    purge_package()
    t0 = time.perf_counter()
    lab = import_lab()
    t1 = time.perf_counter()
    workload.build(lab)
    return lab, time.perf_counter() - t0, t1 - t0


def run_iterations(workload, lab, it, seconds, tracer=None, setups=None):
    """Repeat iterations until ``seconds`` pass (at least one).

    With ``setups``, the list of set-up times so far (the cold one
    first), set up afresh before an iteration whenever the warm set-ups
    took less than SETUP_SHARE of the iteration time.  Set-up samples then
    spread over the run as the iterations do, so both see the same mix of
    fast and slow periods of the host.  Returns the package in use too.
    """
    walls, ops, failures = [], 0, []
    t_end = time.perf_counter() + seconds
    while not workload.exhausted(it):
        if setups is not None:
            fresh = False
            while (len(setups) <= SETUP_MIN
                   or sum(setups[1:]) < SETUP_SHARE * sum(walls)):
                lab, dt, _ = set_up(workload)
                setups.append(dt)
                fresh = True
            if fresh:
                gc.collect()   # the purged modules' garbage, not timed
        try:
            if tracer is not None:
                tracer.enabled = True
            c0 = time.process_time()
            t0 = time.perf_counter()
            result = workload.iteration(lab, it)
            walls.append(time.perf_counter() - t0)
            workload.sample("cpu_s", time.process_time() - c0)
        finally:
            if tracer is not None:
                tracer.enabled = False
        n, bad = workload.check(lab, result)
        ops += n
        failures += bad
        it += 1
        if time.perf_counter() >= t_end:
            break
    return lab, walls, ops, failures, it


def tail(samples):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond
    it (nearest rank), as (percentile, value); None below 20 samples."""
    s = sorted(samples)
    n = len(s)
    fit = [p for p in TAIL_LADDER if n * (1 - p / 100) >= 10]
    if not fit:
        return None
    p = fit[-1]
    return p, s[max(math.ceil(p / 100 * n) - 1, 0)]


def workload_figures(w):
    """End-to-end figures that belong to one workload only."""
    sm = w.samples
    out = {"cpu_s": (statistics.mean(sm["cpu_s"]), "s",
                     "process CPU time of one iteration, mean")}
    if "verify_s" in sm:
        for cmd in ("verify", "einstein", "fit"):
            out[f"{cmd}_s"] = (statistics.median(sm[f"{cmd}_s"]), "s")
    if "cell_s" in sm:
        ms = [1000 * s for s in sm["cell_s"]]
        out["cell_ms_p50"] = (statistics.median(ms), "ms")
        t = tail(ms)
        if t:
            out["cell_ms_tail"] = (t[1], "ms", f"p{t[0]:g} of {len(ms)} cells")
    if sm.get("kernel_s"):
        out["walk_steps_per_s"] = (sum(sm["kernel_steps"])
                                   / sum(sm["kernel_s"]), "1/s")
    return out


def harnack_large(lab, tracer):
    """One traced harnack_constant above the solver switch."""
    potential = getattr(lab, "potential", None)
    if not callable(getattr(potential, "harnack_constant", None)):
        return None, []
    L, R = HARNACK_LARGE
    box, c = lab.generators.lattice_box(3, L)
    tracer.enabled = True
    t0 = time.perf_counter()
    try:
        H = potential.harnack_constant(box, c, R)
    finally:
        seconds = time.perf_counter() - t0
        tracer.enabled = False
    bad = [] if 1.0 <= H < math.inf else [f"harnack_large: H={H}"]
    return seconds, bad


def traced_part(w, lab, it, seconds, tracer):
    """Trace one fixture build, then iterations for ``seconds``."""
    tracer.install()
    try:
        lo = tracer.mark()
        tracer.enabled = True
        t0 = time.perf_counter()
        try:
            w.build(lab)
        finally:
            build_s = time.perf_counter() - t0
            tracer.enabled = False
        setup_summary = tracer.summary(lo)
        lo = tracer.mark()
        _, walls, ops, failures, _ = run_iterations(w, lab, it, seconds,
                                                    tracer)
        summary = tracer.summary(lo)
    finally:
        tracer.uninstall()
    return walls, ops, failures, build_s, setup_summary, summary


def run_workload(name, seed, seconds, reference, tracer=None):
    """One workload's run, traced after its untraced part when ``tracer``
    is given; returns the result and the outputs it saw."""
    from layers import per_layer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT)
    try:
        w = WORKLOADS[name](seed, workdir, reference)
        lab, cold_s, import_s = set_up(w)
        setups = [cold_s]
        fixture_bad = w.fixture_failures()
        lab, walls, ops, failures, it = run_iterations(
            w, lab, 0, seconds, setups=None if tracer else setups)
        result = {
            "workload": name, "seed": seed, "seconds": seconds,
            "environment": environment(),
            "fixture_sha256": w.recorded["fixture_sha256"],
            "iterations": len(walls), "iteration_s": walls,
            "setups_s": setups, "import_s": import_s,
        }
        if tracer is not None:
            walls_t, ops_t, bad, build_s, setup_summary, summary = \
                traced_part(w, lab, it, seconds, tracer)
            ops += ops_t
            failures += bad
            n = len(walls_t)
            figures = {
                "wall_s": statistics.mean(walls_t),
                "uncovered_s": (sum(walls_t) - summary["covered_s"]) / n,
                "overhead_s": statistics.mean(walls_t)
                - statistics.mean(walls),
                "spans": summary["spans"] / n,
                "build_s": build_s,
            }
            result["per_layer"] = per_layer(tracer, name, summary, n,
                                            setup_summary, figures)
            result.update(traced_iterations=n,
                          spans_by_name=summary["names"])
        else:
            result["end_to_end"] = {
                "wall_s": statistics.mean(walls),
                "setup_s": statistics.median(setups[1:]),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            result["figures"] = {
                "setup_cold_s": (setups[0], "s", "first set-up in the run"),
                **workload_figures(w)}
        result.update(attempted=ops, failed=len(failures),
                      failures=fixture_bad + failures,
                      correct=not (fixture_bad or failures))
        return result, w.recorded
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(seed, seconds, reference):
    """--trace 1: every workload, a ninth of ``seconds`` untraced and a
    ninth traced each, then one traced Harnack solve above the switch.
    Tracing every workload gives every per-layer metric a value in every
    traced run."""
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    results = []
    for name in WORKLOADS:
        res, _ = run_workload(name, seed, seconds / 9,
                              reference.get(name, {}), tracer)
        results.append(res)
    tracer.install()
    try:
        harnack_s, bad = harnack_large(import_lab(), tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-seed{seed}-spans.npz")
    run = {
        "potential.harnack_large.s": harnack_s,
        "setup.import_s": results[0]["import_s"],
    }
    return results, run, bad


def report(res):
    """Human-readable lines; every metric by name with its unit."""
    from layers import SELF_LAYERS, UNITS

    env = res["environment"]
    print(f"== {res['workload']}  seed {res['seed']}  "
          f"{res['iterations']} untraced iterations")
    print(f"   python {env['python']}  numpy {env['numpy']}  scipy "
          f"{env['scipy']}  nproc {env['nproc']}  blas {env['blas']} "
          f"{env['blas_threads']}  numba importable {env['numba_importable']}")
    print(f"   fixture sha256 {res['fixture_sha256']}")
    fail_ratio = res["failed"] / max(res["attempted"], 1)
    print(f"   {'fail_ratio':<52}{fail_ratio:>14.6g} ratio"
          f"   ({res['failed']} of {res['attempted']} operations)")
    for f in res["failures"][:10]:
        print(f"   FAILED {f}")
    if "end_to_end" in res:
        units = dict(END_TO_END)
        for k, v in res["end_to_end"].items():
            print(f"   {k:<52}{v:>14.6g} {units[k]}")
        for k, (v, unit, *note) in res["figures"].items():
            print(f"   {k:<52}{v:>14.6g} {unit}   {' '.join(note)}")
        return
    pl = res["per_layer"]
    for k, v in pl.items():
        shown = "not measured" if v is None else f"{v:.6g}"
        print(f"   {k:<52}{shown:>14} {UNITS[k]}")
    name = res["workload"]
    layer_sum = sum(pl[f"{name}.{layer}.self_s"]
                    for layer, wls in SELF_LAYERS if name in wls)
    uncovered = pl[f"{name}.trace.uncovered_s"]
    print(f"   layer self times {layer_sum:.4f} s + uncovered "
          f"{uncovered:.4f} s = {layer_sum + uncovered:.4f} s against traced "
          f"wall {pl[f'{name}.trace.wall_s']:.4f} s (means over "
          f"{res['traced_iterations']} traced iterations); tracing overhead "
          f"{pl[f'{name}.trace.overhead_s']:.4f} s per iteration")


def result_line(results, run=None):
    """The JSON object the last line of standard output carries: the
    end-to-end metrics (prefixed by workload when there are several), or
    for a traced run (``run`` given) every per-layer metric."""
    from layers import UNITS

    metrics = {}
    if run is None:
        units = dict(END_TO_END)
        for res in results:
            prefix = f"{res['workload']}." if len(results) > 1 else ""
            for k, v in res["end_to_end"].items():
                metrics[prefix + k] = {"value": v, "unit": units[k]}
    else:
        values = {}
        for res in results:
            values.update(res["per_layer"])
        values.update(run)
        metrics = {k: {"value": 0.0 if v is None else v, "unit": UNITS[k]}
                   for k, v in values.items()}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None):
    from workloads import DEFAULT_SEED, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"],
                    help="with --trace 1 every workload is traced")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's outputs as the reference "
                         f"(seed {DEFAULT_SEED} only) instead of checking")
    args = ap.parse_args(argv)
    if args.record and (args.seed != DEFAULT_SEED or args.trace):
        ap.error(f"--record needs --seed {DEFAULT_SEED} and --trace 0")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    for var in PINNED_UNSET:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))

    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        results, run, bad = traced_run(args.seed, args.seconds, reference)
        results[-1]["failures"] += bad
        results[-1]["failed"] += len(bad)
        results[-1]["correct"] = results[-1]["correct"] and not bad
        for res in results:
            report(res)
        for k, v in run.items():
            shown = "not measured" if v is None else f"{v:.6g}"
            print(f"   {k:<52}{shown:>14} s")
        (OUT / f"trace-seed{args.seed}.json").write_text(json.dumps(
            {"workloads": results, "run": run}, indent=1, sort_keys=True))
        line = result_line(results, run)
    else:
        names = list(WORKLOADS) if args.workload == "all" \
            else [args.workload]
        results = []
        for name in names:
            res, recorded = run_workload(
                name, args.seed, args.seconds,
                {} if args.record else reference.get(name, {}))
            if args.record:
                reference[name] = recorded
            report(res)
            (OUT / f"{name}-seed{args.seed}-trace0.json").write_text(
                json.dumps(res, indent=1, sort_keys=True))
            results.append(res)
        line = result_line(results)
    if args.record:
        ref_path.write_text(json.dumps(reference, indent=1, sort_keys=True)
                            + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
