"""Monte Carlo simulation of the reversible walk.

Used as an independent cross-check of the exact solvers.  Every walk
runs in the one batch kernel, ``_kernels.simulate_exits``.  Randomness
is counter-based: the uniform driving step t of walk w is a pure
function of (seed, w, t), so results are reproducible bit-for-bit
regardless of scheduling.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graph import proper_ball


@dataclass
class WalkConfig:
    seed: int
    n_walks: int = 10_000
    step_cap: int | None = None     # None: 100 * R^2 at simulation time

    def __post_init__(self):
        # the generator takes the seed mod 2^64: refuse what aliases
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed {self.seed} outside [0, 2^64)")
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


@dataclass(frozen=True)
class ExitSample:
    estimate: McEstimate
    exit_counts: dict            # exit vertex -> count over uncapped walks


def _simulate(g, x, R, cfg: WalkConfig):
    region = proper_ball(g, x, R)
    in_region = np.zeros(g.vertex_count, dtype=bool)
    in_region[region] = True
    cap = cfg.step_cap if cfg.step_cap is not None else 100 * R * R
    steps, exit_vertex = _kernels.simulate_exits(
        g.indptr, g.indices, g.weights, g.mu, in_region,
        x, cfg.n_walks, cap, cfg.seed,
    )
    exited = exit_vertex >= 0
    capped = int(cfg.n_walks - exited.sum())
    used = steps[exited].astype(np.float64)
    if used.size == 0:
        est = McEstimate(float("nan"), float("nan"), 0, capped, False)
        return ExitSample(est, {})
    mean = float(used.mean())
    std_error = float(used.std(ddof=1) / np.sqrt(used.size)) if used.size > 1 else 0.0
    valid = capped <= 0.01 * cfg.n_walks
    est = McEstimate(mean, std_error, int(used.size), capped, valid)
    verts, counts = np.unique(exit_vertex[exited], return_counts=True)
    return ExitSample(est, {int(v): int(c) for v, c in zip(verts, counts)})


def mc_exit_time(g, x, R, cfg: WalkConfig) -> McEstimate:
    """Monte Carlo estimate of E(x,R).  Capped walks are excluded from
    the mean but counted; more than 1% capped marks the estimate invalid."""
    return _simulate(g, x, R, cfg).estimate


def mc_exit_sample(g, x, R, cfg: WalkConfig) -> ExitSample:
    """Estimate plus the empirical exit-position counts, for comparison
    against the exact exit law, ``potential.exit_law``."""
    return _simulate(g, x, R, cfg)
