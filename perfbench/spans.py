"""Span tracing of einstein_lab, installed from outside the program.

``Tracer.install`` replaces the public callables of the layer modules
with timing wrappers.  A wrapper is bound at every place the original
is bound inside the package, so calls through ``from .graph import
ball`` in ``conditions`` or ``walker`` are traced as well as calls
through ``graph.ball``.  A name the program no longer defines is listed
in ``Tracer.missing`` and its metrics are reported as not measured;
nothing is installed for it.

Each span records a name, a start, an end and its parent.  Spans stay
in memory (compact arrays) until the benchmark ends.  The self time of
a span is its duration minus the durations of its direct children.
"""

import functools
import hashlib
import inspect
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "einstein_lab"
LAYERS = ("graph", "_kernels", "potential", "conditions", "walker", "cli",
          "generators")


def layer_prefix(module_short):
    """Metric names must start with a letter, so ``_kernels`` -> ``kernels``."""
    return module_short.lstrip("_")


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos]


def _region_digest(region):
    region = np.unique(np.asarray(region, dtype=np.int64))
    return hashlib.blake2b(region.tobytes(), digest_size=16).digest()


class Tracer:
    """In-memory span store plus the counters the hooks fill."""

    def __init__(self):
        self.enabled = False
        self._ids = {}
        self.names = []
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_nested = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._depth = {}
        self.counters = {}
        self.regions = set()
        self._graph_serial = weakref.WeakKeyDictionary()
        self.installed = set()
        self.missing = set()
        self.hook_errors = {}
        self._restore = []

    # -- spans -----------------------------------------------------------

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        depth = self._depth.get(nid, 0)
        self.span_nested.append(depth > 0)
        self._depth[nid] = depth + 1
        self._stack.append(idx)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def close(self, idx):
        self.span_end[idx] = perf_counter()
        self._stack.pop()
        self._depth[self.span_name[idx]] -= 1

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def region(self, g, region):
        """Record the unknowns of one solver build as (graph, vertex set)."""
        try:
            serial = self._graph_serial.get(g)
            if serial is None:
                serial = self._graph_serial[g] = len(self._graph_serial)
        except TypeError:
            serial = id(g)
        self.regions.add((serial, _region_digest(region)))

    # -- phases ----------------------------------------------------------

    def mark(self):
        """Start a phase: counters and regions restart, spans continue."""
        self.counters = {}
        self.regions = set()
        return len(self.span_start)

    def summary(self, lo):
        """Per-name aggregates of the spans opened since ``mark()``."""
        hi = len(self.span_start)
        name = np.frombuffer(self.span_name, dtype=np.int64)[lo:hi]
        parent = np.frombuffer(self.span_parent, dtype=np.int64)[lo:hi] - lo
        nested = np.frombuffer(self.span_nested, dtype=np.int8)[lo:hi] != 0
        start = np.frombuffer(self.span_start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.span_end, dtype=np.float64)[lo:hi]
        dur = end - start
        n = hi - lo
        child = parent >= 0
        child_sum = np.bincount(parent[child], weights=dur[child], minlength=n)
        n_children = np.bincount(parent[child], minlength=n)
        self_t = dur - child_sum
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=np.where(nested, 0.0, dur),
                           minlength=k)
        selfs = np.bincount(name, weights=self_t, minlength=k)
        leaves = np.bincount(name, weights=(n_children == 0), minlength=k)
        per_name = {
            self.names[i]: {"calls": int(calls[i]), "s": float(incl[i]),
                            "self_s": float(selfs[i]),
                            "leaf_calls": int(leaves[i])}
            for i in range(k) if calls[i]
        }
        return {"spans": n, "covered_s": float(dur[~child].sum()),
                "names": per_name, "counters": dict(self.counters),
                "regions": len(self.regions)}

    def dump(self, path):
        """Write every span kept in memory to a compressed .npz file."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

    # -- wrapper installation ---------------------------------------------

    def _wrap(self, fn, name, hook=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name_of(args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except Exception as exc:  # a refactored signature
                    tracer.hook_errors.setdefault(name, repr(exc))
            return result

        traced.__perfbench_span__ = name
        return traced

    def _bind_everywhere(self, orig, wrapper):
        """Replace ``orig`` by ``wrapper`` in every package module."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _install_function(self, module_short, attr, name, hook=None,
                          name_of=None):
        mod = sys.modules.get(f"{PACKAGE}.{module_short}")
        orig = getattr(mod, attr, None) if mod is not None else None
        if not callable(orig):
            self.missing.add(name)
            return
        if hasattr(orig, "__perfbench_span__"):
            return
        self._bind_everywhere(orig, self._wrap(orig, name, hook, name_of))
        self.installed.add(name)

    def _install_method(self, module_short, cls_name, meth, name, hook=None):
        mod = sys.modules.get(f"{PACKAGE}.{module_short}")
        cls = getattr(mod, cls_name, None) if mod is not None else None
        orig = vars(cls).get(meth) if isinstance(cls, type) else None
        if not inspect.isfunction(orig):
            self.missing.add(name)
            return
        setattr(cls, meth, self._wrap(orig, name, hook))
        self._restore.append((cls, meth, orig))
        self.installed.add(name)

    def install(self):
        """Wrap the named hot spots with hooks, then every other public
        function of each layer module, then the QuantityCache methods."""
        for module_short, attr, name, hook, name_of in _NAMED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._install_method(module_short, cls_name, meth, name, hook)
            else:
                self._install_function(module_short, attr, name, hook,
                                       name_of)
        for module_short in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{module_short}")
            if mod is None:
                continue
            prefix = layer_prefix(module_short)
            for attr, val in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(val)
                        or val.__module__ != mod.__name__):
                    continue
                self._install_function(module_short, attr,
                                       f"{prefix}.{attr}")
        mod = sys.modules.get(f"{PACKAGE}.conditions")
        cache_cls = getattr(mod, "QuantityCache", None)
        if isinstance(cache_cls, type):
            for meth, val in list(vars(cache_cls).items()):
                if not meth.startswith("_") and inspect.isfunction(val):
                    self._install_method("conditions", "QuantityCache", meth,
                                         f"conditions.cache.{meth}")
        else:
            self.missing.add("conditions.cache")

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []


# -- hooks: counts measured where the work happens ---------------------------


def _bfs_hook(tracer, args, kwargs, dist):
    tracer.count("kernels.bfs_distances.vertices", int((dist >= 0).sum()))


def _simulate_hook(tracer, args, kwargs, result):
    tracer.count("kernels.simulate_exits.steps", int(result[0].sum()))


def _factor_hook(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 0, "M").shape[0]
    tracer.count("potential.factor.builds")
    limit = getattr(sys.modules.get(f"{PACKAGE}.potential"),
                    "DIRECT_SOLVE_LIMIT", None)
    if limit is None:
        tracer.missing.add("potential.factor.lu_calls")
        tracer.missing.add("potential.factor.cg_calls")
    elif n < limit:
        tracer.count("potential.factor.lu_calls")
    else:
        tracer.count("potential.factor.cg_calls")


def _green_hook(tracer, args, kwargs, result):
    op = args[0]
    tracer.count("potential.GreenOperator.unknowns", int(op.size))
    tracer.region(_arg(args, kwargs, 1, "g"), op.region)


def _residual(tracer, obj):
    res = getattr(obj, "residual", None)
    if isinstance(res, float):
        tracer.maximum("potential.worst_residual", res)


def _potential_hook(tracer, args, kwargs, field):
    g = _arg(args, kwargs, 0, "g")
    A = np.asarray(_arg(args, kwargs, 1, "A"), dtype=np.int64)
    B = np.asarray(_arg(args, kwargs, 2, "B_outer"), dtype=np.int64)
    tracer.region(g, np.setdiff1d(B, A))
    _residual(tracer, field)


def _lambda_hook(tracer, args, kwargs, eig):
    tracer.region(_arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "A"))
    tracer.count("potential.lambda_min.iterations", int(eig.iterations))
    _residual(tracer, eig)


def _harmonic_hook(tracer, args, kwargs, hm):
    tracer.count("potential.harmonic_measure.columns", int(hm.omega.shape[1]))


def _condition_name(args, kwargs):
    return f"conditions.measure_condition.{_arg(args, kwargs, 2, 'tag')}"


# (module, attribute or Class.method, span name, hook, span-name function)
_NAMED = (
    ("_kernels", "bfs_distances", "kernels.bfs_distances", _bfs_hook, None),
    ("_kernels", "simulate_exits", "kernels.simulate_exits", _simulate_hook,
     None),
    ("graph", "WeightedGraph.__init__", "graph.WeightedGraph", None, None),
    ("potential", "_make_solver", "potential.factor", _factor_hook, None),
    ("potential", "GreenOperator.__init__", "potential.GreenOperator",
     _green_hook, None),
    ("potential", "dirichlet_potential", "potential.dirichlet_potential",
     _potential_hook, None),
    ("potential", "lambda_min", "potential.lambda_min", _lambda_hook, None),
    ("potential", "harmonic_measure", "potential.harmonic_measure",
     _harmonic_hook, None),
    ("conditions", "measure_condition", "conditions.measure_condition", None,
     _condition_name),
    ("cli", "cmd_verify", "cli.verify", None, None),
    ("cli", "cmd_einstein", "cli.einstein", None, None),
    ("cli", "cmd_fit", "cli.fit", None, None),
    ("cli", "cmd_mc", "cli.mc", None, None),
    ("cli", "cmd_generate", "cli.generate", None, None),
)
