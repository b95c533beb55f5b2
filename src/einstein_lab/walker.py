"""Monte Carlo simulation of the reversible walk.

Used as an independent cross-check of the exact solvers.  Randomness is
counter-based: the uniform driving step t of walk w is a pure function
of (seed, w, t), so results are reproducible bit-for-bit regardless of
scheduling.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import MarginError
from .graph import ball


@dataclass
class WalkConfig:
    seed: int
    n_walks: int = 10_000
    step_cap: int | None = None     # None: 100 * R^2 at simulation time

    def __post_init__(self):
        RngStream(self.seed)        # the one seed-range check
        if self.n_walks <= 0:
            raise ValueError("n_walks must be positive")
        if self.step_cap is not None and self.step_cap <= 0:
            raise ValueError("step_cap must be positive")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n: int
    capped_count: int
    valid: bool


@dataclass
class RngStream:
    """Scalar stream for single-step sampling; advances a step counter."""
    seed: int
    stream: int = 0
    counter: int = 0

    def __post_init__(self):
        # the generator takes each argument mod 2^64: refuse what aliases
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed {self.seed} outside [0, 2^64)")
        if min(self.stream, self.counter) < 0:
            raise ValueError("stream and counter must be >= 0")

    def next_u01(self):
        u = _kernels.u01_py(self.seed, self.stream, self.counter)
        self.counter += 1
        return u


def step(g, x, rng: RngStream):
    """One step of the walk from x: neighbour y with probability
    mu_xy / mu(x), chosen by the batch kernel's ``_row_choice``."""
    x = g.check_vertex(x)
    key = np.array([x + rng.next_u01()])
    k = _kernels._row_choice(g.indptr, g.transition_profile(),
                             np.array([x]), key,
                             g.indptr[x + 1] - g.indptr[x] - 1)
    return int(g.indices[k[0]])


@dataclass(frozen=True)
class ExitSample:
    estimate: McEstimate
    exit_counts: dict            # exit vertex -> count over uncapped walks
    steps: np.ndarray = field(repr=False)


def _simulate(g, x, R, cfg: WalkConfig):
    x = g.check_vertex(x)
    if R < 1:
        raise ValueError("radius must be >= 1")
    region = ball(g, x, R)
    if region.size == g.vertex_count:
        raise MarginError(f"ball B({x},{R}) covers the whole host graph")
    in_region = np.zeros(g.vertex_count, dtype=bool)
    in_region[region] = True
    cap = cfg.step_cap if cfg.step_cap is not None else 100 * max(R * R, 1)
    steps, exit_vertex = _kernels.simulate_exits(
        g.indptr, g.indices, g.transition_profile(), in_region,
        x, cfg.n_walks, cap, cfg.seed,
    )
    exited = exit_vertex >= 0
    capped = int(cfg.n_walks - exited.sum())
    used = steps[exited].astype(np.float64)
    if used.size == 0:
        est = McEstimate(float("nan"), float("nan"), 0, capped, False)
        return ExitSample(est, {}, steps)
    mean = float(used.mean())
    std_error = float(used.std(ddof=1) / np.sqrt(used.size)) if used.size > 1 else 0.0
    valid = capped <= 0.01 * cfg.n_walks
    est = McEstimate(mean, std_error, int(used.size), capped, valid)
    verts, counts = np.unique(exit_vertex[exited], return_counts=True)
    return ExitSample(est, {int(v): int(c) for v, c in zip(verts, counts)}, steps)


def mc_exit_time(g, x, R, cfg: WalkConfig) -> McEstimate:
    """Monte Carlo estimate of E(x,R).  Capped walks are excluded from
    the mean but counted; more than 1% capped marks the estimate invalid."""
    return _simulate(g, x, R, cfg).estimate


def mc_exit_sample(g, x, R, cfg: WalkConfig) -> ExitSample:
    """Estimate plus the empirical exit-position counts, for comparison
    against the harmonic measure row omega(x, .)."""
    return _simulate(g, x, R, cfg)
