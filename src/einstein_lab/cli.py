"""Command-line front end.

Exit codes are a stable contract: 0 success (all asserted inequalities
pass), 1 verified violation, 2 usage error (bad arguments, an unreadable
graph file or an unwritable output path), 3 margin violation, 4 solver
non-convergence or no current between the poles, 5 internal error (any
other exception, reported as one line, never a traceback).  JSON on
stdout is the machine interface (numbers at 12 significant digits, no
timestamp, so identical runs are byte-identical); CSV files are the
plotting interface.  File reports embed a manifest with a timestamp;
reports are otherwise reproducible byte-for-byte.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__, conditions, generators, graph, potential, walker
from .errors import ConvergenceError, MarginError, UnreachableError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_MARGIN = 3
EXIT_CONVERGENCE = 4
EXIT_INTERNAL = 5


def _sig12(x):
    if isinstance(x, float):
        if math.isnan(x):
            return None
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.12g}")
    return x


def _clean(obj):
    """Round floats, stringify non-finite values, recurse containers."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _sig12(float(obj))
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return _sig12(obj)


def _dump_json(obj, fh=None):
    # print() looks sys.stdout up per call, so a caller may redirect it
    print(json.dumps(_clean(obj), indent=2, sort_keys=True), file=fh)


def _write_csv(path, header, rows):
    """A CSV report: ``header``, then ``rows`` with every field rounded."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        wr = csv.writer(f, lineterminator="\n")
        wr.writerow(header)
        wr.writerows([_sig12(v) for v in row] for row in rows)


# execution metadata that cannot change results (determinism contract)
# and output destinations stay out of the manifest params
_NON_PARAMS = {"command", "func", "out_dir", "csv", "csv_prefix", "out"}


def _manifest(args, graph_info, seed=None, timestamp=False):
    man = {
        "tool": "einstein-lab",
        "version": __version__,
        "command": args.command,
        "graph": graph_info,
        "params": {
            k: v for k, v in sorted(vars(args).items())
            if k not in _NON_PARAMS and v is not None
        },
    }
    if seed is not None:
        man["seed"] = seed
    if timestamp:
        man["timestamp"] = datetime.now(timezone.utc).isoformat()
    return man


def _load_graph(path):
    g = graph.load(path)
    return g, {"path": path, "vertices": g.vertex_count,
               "edges": g.edge_count}


def _fields(given, text, need, count=1, sep=","):
    """``text`` split on ``sep`` into ``count`` ints (None: any number,
    empty fields skipped), or a usage error naming ``given``, the flag as
    written, and ``need``."""
    parts = text.split(sep)
    if count is None:
        parts = [t for t in parts if t]
        count = len(parts)
    try:
        if len(parts) != count:
            raise ValueError
        return [int(t) for t in parts]
    except ValueError:
        raise ValueError(f"{given}: need {need}") from None


def _int_list(flag, text):
    """A comma list of distinct ints: a repeat would list its cells twice."""
    values = _fields(f"{flag} {text}", text, "a comma list of integers", None)
    repeats = [v for i, v in enumerate(values) if v in values[:i]]
    if repeats:
        raise ValueError(f"{flag} {text}: {repeats[0]} repeated")
    return values


def _sidecar_center(path):
    """The center vertex ``generate`` wrote beside the graph file."""
    with open(path + ".center", encoding="utf-8") as f:
        return _fields(f"{path}.center", f.read().strip(), "a vertex id")[0]


def _parse_radii(text):
    """A comma list, or a dyadic ladder lo..hi; every radius is >= 1."""
    if ".." in text:
        lo, hi = _fields(f"--radii {text}", text, "lo..hi", 2, "..")
        radii = []
        R = lo
        while 1 <= R <= hi:
            radii.append(R)
            R *= 2
    else:
        radii = _int_list("--radii", text)
    if not radii or min(radii) < 1:
        raise ValueError(f"--radii {text}: need one or more radii, all >= 1")
    return radii


def _parse_centers(g, text, path):
    """autoK, sidecar or a comma list; at least one center, never a
    silent fall-back to the default ones."""
    if text.startswith("auto"):
        k, = _fields(f"--centers {text}", text[4:] or "5", "autoK")
        if k > 5:   # the host center and four quarter-diagonal vertices
            raise ValueError(f"--centers {text}: auto picks at most 5 centers")
        centers = conditions.auto_centers(g, k) if k >= 1 else []
    elif text == "sidecar":
        centers = [_sidecar_center(path)]
    else:
        centers = _int_list("--centers", text)
    if not centers:
        raise ValueError(f"--centers {text}: need one or more centers")
    return centers


# -- subcommands ---------------------------------------------------------------


# family -> (its size flag, its (graph, center) from the parsed flags)
FAMILIES = {
    "lattice": ("side", lambda a: generators.lattice_box(
        2 if a.dim is None else a.dim, a.side)),
    "sierpinski": ("level", lambda a: generators.sierpinski_gasket(a.level)),
    "vicsek": ("level", lambda a: generators.vicsek_tree(a.level)),
    "binary_tree": ("depth", lambda a: generators.binary_tree(a.depth)),
}


def cmd_generate(args):
    flag, construct = FAMILIES[args.family]
    if getattr(args, flag) is None:
        raise ValueError(f"generate --family {args.family} needs --{flag}")
    # a flag that the family or the weight rule ignores is refused
    reads = {flag, "dim"} if args.family == "lattice" else {flag}
    for name in sorted({"depth", "dim", "level", "side"} - reads):
        if getattr(args, name) is not None:
            raise ValueError(f"generate --family {args.family} "
                             f"does not read --{name}")
    if args.radial_lambda is not None and args.weight_rule != "radial":
        raise ValueError("generate --weight-rule unit does not read --lambda")
    g, center = construct(args)
    if args.weight_rule == "radial":
        lam = 1.0 if args.radial_lambda is None else args.radial_lambda
        g = generators.apply_radial_weights(g, center, lam)
    graph.save(g, args.out)
    with open(args.out + ".center", "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{center}\n")
    print(f"{g.vertex_count} vertices, {g.edge_count} edges, "
          f"center {center} -> {args.out}")
    return EXIT_OK


def _flag(name):
    return "--" + name.replace("_", "-")


def _ball(g, args, name):
    """The ball B(x,r) that compute flag --name gives as x,r."""
    text = getattr(args, name)
    return graph.ball(g, *_fields(f"{_flag(name)} {text}", text, "x,r", 2))


def _green(g, args):
    A = _ball(g, args, "A_ball")
    # one solve: the visits G^A(y,z) are g^A(y,z) mu(z)
    k = float(potential.column(g, A, args.z)[potential.locate(A, args.y)])
    return {"g": k, "G": k * float(g.mu[args.z])}


def _lambda(g, args):
    r = potential.lambda_min(g, _ball(g, args, "ball"))
    return {"lambda": r.lam, "iterations": r.iterations,
            "residual": r.residual}


# quantity -> (the flags it reads, its result from the graph and the
# flags); given --annulus, resistance takes the "resistance --annulus" row
COMPUTE = {
    "exit": (("x", "R"), lambda g, a: {
        "E": potential.mean_exit_time(g, a.x, a.R)}),
    "resistance": (("A_ball", "B_ball"), lambda g, a: {
        "rho": potential.resistance(g, _ball(g, a, "A_ball"),
                                    _ball(g, a, "B_ball")),
        "convention": "set-poles"}),
    "resistance --annulus": (("annulus",), lambda g, a: {
        "rho": potential.resistance_annulus(g, *_fields(
            f"--annulus {a.annulus}", a.annulus, "x,r,R", 3)),
        "convention": "annulus-surface"}),
    "green": (("A_ball", "y", "z"), _green),
    "lambda": (("ball",), _lambda),
    "harnack": (("x", "R"), lambda g, a: {
        "H": potential.harnack_constant(g, a.x, a.R)}),
    "hg": (("x", "R"), lambda g, a: dict(zip(
        ("g_low", "g_high", "hg"), potential.g_condition(g, a.x, a.R)))),
}


def cmd_compute(args):
    q = args.quantity
    if q == "resistance" and args.annulus:
        q += " --annulus"
    reads, result = COMPUTE[q]
    missing = [_flag(name) for name in reads if getattr(args, name) is None]
    if missing:
        raise ValueError(f"compute {q} needs {' and '.join(missing)}")
    # a flag that the quantity does not read is refused
    for name in dict.fromkeys(f for row in COMPUTE.values() for f in row[0]):
        if name not in reads and getattr(args, name) is not None:
            raise ValueError(f"compute {q} does not read {_flag(name)}")
    g, info = _load_graph(args.graph)
    _dump_json({"manifest": _manifest(args, info), "result": result(g, args)})
    return EXIT_OK


def _grid_for(args, g, path):
    centers = _parse_centers(g, args.centers, path)
    radii = _parse_radii(args.radii) if args.radii else None
    grid = conditions.default_grid(g, centers=centers, radii=radii)
    cells, _ = conditions.valid_cells(g, grid, 2)
    if not cells:
        raise MarginError("empty grid: host too small for the margins")
    return grid


def cmd_verify(args):
    g, info = _load_graph(args.graph)
    grid = _grid_for(args, g, args.graph)
    os.makedirs(args.out_dir, exist_ok=True)    # fail before the sweep
    checks = conditions.verify_inequalities(g, grid)
    reports = {}
    for tag in conditions.CONDITION_TAGS:
        try:
            reports[tag] = conditions.measure_condition(g, grid, tag)
        except (ValueError, *conditions.SOLVER_ERRORS) as exc:
            reports[tag] = None
            print(f"condition {tag}: skipped ({exc})", file=sys.stderr)

    failures = [c for c in checks if c.passed is False]
    payload = {
        "manifest": _manifest(args, info, timestamp=True),
        "grid": {"centers": list(grid.centers), "radii": list(grid.radii)},
        "inequalities": [{k: v for k, v in vars(c).items() if k != "rows"}
                         for c in checks],
        "conditions": {
            tag: None if rep is None else
            {k: v for k, v in vars(rep).items() if k not in ("rows", "tag")}
            for tag, rep in reports.items()
        },
    }
    with open(os.path.join(args.out_dir, "verify.json"), "w",
              encoding="utf-8", newline="\n") as f:
        _dump_json(payload, f)
    # condition rows fill the first six of the nine columns
    blocks = [(c.rows, ()) for c in checks] + [
        (rep.rows, ("", "", "")) for rep in filter(None, reports.values())]
    _write_csv(os.path.join(args.out_dir, "verify.csv"),
               ["check", "x", "r", "R", "detail", "lhs", "rhs", "slack", "ok"],
               ((*row, *pad) for rows, pad in blocks for row in rows))
    for c in failures:
        print(f"VIOLATION {c.check}: worst slack {c.worst_slack:.3e} "
              f"at {c.witness}")
    print(f"verify: {len(checks)} checks, {len(failures)} violations "
          f"-> {args.out_dir}")
    return EXIT_VIOLATION if failures else EXIT_OK


def cmd_einstein(args):
    g, info = _load_graph(args.graph)
    grid = _grid_for(args, g, args.graph)
    records, summary = conditions.einstein_report(g, grid)
    # files first: an unwritable path exits 2 with nothing on stdout
    if args.csv:
        _write_csv(args.csv, ["x", "R", "E2R", "rho", "v", "Q"],
                   ((r.x, r.R, r.E2R, r.rho, r.v, r.Q) for r in records))
    _dump_json({
        "manifest": _manifest(args, info),
        "records": [asdict(r) for r in records],
        "summary": asdict(summary),
    })
    return EXIT_OK


def cmd_fit(args):
    g, info = _load_graph(args.graph)
    if args.x == "center":
        x = conditions.auto_centers(g, 1)[0]
    elif args.x == "sidecar":
        x = _sidecar_center(args.graph)
    else:
        x, = _fields(f"--x {args.x}", args.x,
                     "center, sidecar or a vertex id")
    summ = conditions.fit_exponents(g, x, _parse_radii(args.radii))
    fits = {"alpha": summ.alpha, "beta": summ.beta, "gamma": summ.gamma}
    if args.csv_prefix:     # files first, as in cmd_einstein
        for name, fit in zip(("volume", "exit", "conductance"), fits.values()):
            _write_csv(f"{args.csv_prefix}_{name}.csv",
                       ["log_R", f"log_{name}"],
                       ((math.log(R), math.log(v))
                        for R, v in zip(fit.radii, fit.values)))
    _dump_json({
        "manifest": _manifest(args, info),
        **{exponent: {k: v for k, v in asdict(fit).items() if k != "values"}
           for exponent, fit in fits.items()},
        "erdim_residual": summ.erdim_residual,
    })
    return EXIT_OK


def cmd_mc(args):
    g, info = _load_graph(args.graph)
    cfg = walker.WalkConfig(seed=args.seed, n_walks=args.n,
                            step_cap=args.step_cap)
    est = walker.mc_exit_time(g, args.x, args.R, cfg)
    _dump_json({"manifest": _manifest(args, info, seed=args.seed),
                "estimate": asdict(est)})
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="einstein-lab",
        description="Potential-theoretic measurements on weighted graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("generate", help="emit a graph family fixture")
    sp.add_argument("--family", required=True, choices=list(FAMILIES))
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--side", type=int, default=None)
    sp.add_argument("--level", type=int, default=None)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--weight-rule", dest="weight_rule", default="unit",
                    choices=["unit", "radial"])
    sp.add_argument("--lambda", dest="radial_lambda", type=float, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("compute", help="one exact quantity as JSON")
    sp.add_argument("quantity", choices=[q for q in COMPUTE if " " not in q])
    sp.add_argument("--graph", required=True)
    sp.add_argument("--x", type=int)
    sp.add_argument("--R", type=int)
    sp.add_argument("--y", type=int)
    sp.add_argument("--z", type=int)
    sp.add_argument("--A-ball", dest="A_ball")
    sp.add_argument("--B-ball", dest="B_ball")
    sp.add_argument("--ball", dest="ball")
    sp.add_argument("--annulus", dest="annulus")
    sp.set_defaults(func=cmd_compute)

    for name, fn in (("verify", cmd_verify), ("einstein", cmd_einstein)):
        sp = sub.add_parser(name)
        sp.add_argument("--graph", required=True)
        sp.add_argument("--centers", default="auto5")
        sp.add_argument("--radii", default=None)
        if name == "verify":
            sp.add_argument("--out-dir", dest="out_dir", required=True)
        else:
            sp.add_argument("--csv", default=None)
        sp.set_defaults(func=fn)

    sp = sub.add_parser("fit", help="log-log exponent fits")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--x", default="center")
    sp.add_argument("--radii", required=True)
    sp.add_argument("--csv-prefix", dest="csv_prefix", default=None)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("mc", help="Monte Carlo exit-time estimate")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--n", type=int, default=10_000)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--step-cap", dest="step_cap", type=int, default=None)
    sp.set_defaults(func=cmd_mc)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarginError as exc:
        print(f"margin error: {exc}", file=sys.stderr)
        return EXIT_MARGIN
    except ConvergenceError as exc:
        print(f"convergence error: {exc} (residual={exc.residual})",
              file=sys.stderr)
        return EXIT_CONVERGENCE
    except UnreachableError as exc:
        print(f"unreachable: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
