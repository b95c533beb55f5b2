"""Hot inner loops.  BFS distances are scipy's csgraph over the graph's
weight CSR; the random-walk kernel is vectorized numpy and draws from a
counter-based generator (splitmix64-style finalizer keyed by ``(seed,
walk, step)``), so a simulation result does not depend on batching or
call order, and the scalar generator below reproduces any single draw.
"""

import numpy as np
from scipy.sparse import csgraph

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53


# -- counter-based generator ------------------------------------------------
#
# stream_key(seed, walk) = mix(seed ^ mix((walk+1) * GAMMA))
# u(seed, walk, step)    = mix(stream_key + (step+1) * GAMMA) >> 11, scaled
#
# mix is the splitmix64 finalizer; every quantity is a wrapping uint64.
# The scalar and vector versions below must stay in lockstep.


def _mix_py(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_key_py(seed: int, walk: int) -> int:
    return _mix_py((seed & _MASK) ^ _mix_py(((walk + 1) * _GAMMA) & _MASK))


def u01_py(seed: int, walk: int, step: int) -> float:
    key = stream_key_py(seed, walk)
    word = _mix_py((key + ((step + 1) * _GAMMA) & _MASK) & _MASK)
    return (word >> 11) * _INV53


def _mix_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def stream_keys_np(seed: int, walks: np.ndarray) -> np.ndarray:
    w = walks.astype(np.uint64)
    pre = _mix_np((w + np.uint64(1)) * np.uint64(_GAMMA))
    return _mix_np(np.uint64(seed & _MASK) ^ pre)


def _u01_np(keys: np.ndarray, step: int) -> np.ndarray:
    term = np.uint64(((step + 1) * _GAMMA) & _MASK)
    word = _mix_np(keys + term)
    return (word >> np.uint64(11)).astype(np.float64) * _INV53


# -- BFS distances -----------------------------------------------------------


def bfs_distances(W, sources):
    """Hop distances over the adjacency ``W`` from one source vertex or,
    for several, from the nearest of them; -1 where no source reaches.
    Stored weights play no role."""
    dist = csgraph.dijkstra(W, indices=sources, unweighted=True, min_only=True)
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int32)


# -- walk simulation ---------------------------------------------------------
#
# ``aug`` is the per-row cumulative transition profile shifted by the row
# index: aug[k] = source_vertex(k) + cum_prob(k), with the last entry of
# each row forced to source_vertex + 1.0 exactly.  Neighbour choice at
# vertex v with uniform u is the first k in row v with aug[k] > v + u,
# clamped to the row end; walker.step applies the same rule.


def build_transition_profile(indptr, indices, weights, mu):
    """aug array shared by the walk kernel and walker.step; rows of one
    degree k are one (rows, k) block, summed left to right."""
    deg = np.diff(indptr)
    aug = np.empty(weights.shape[0], dtype=np.float64)
    for k in np.unique(deg[deg > 0]):
        rows = np.flatnonzero(deg == k)
        at = indptr[rows, None] + np.arange(k)
        cum = np.cumsum(weights[at], axis=1) / mu[rows, None]
        cum[:, -1] = 1.0
        aug[at] = rows[:, None] + cum
    return aug


def simulate_exits(indptr, indices, aug, in_region, start, n_walks,
                   step_cap, seed):
    """Simulate ``n_walks`` killed walks from ``start``; vectorized over walks.

    Returns (steps, exit_vertex); exit_vertex is -1 for capped walks and
    steps then equals step_cap.
    """
    steps = np.full(n_walks, step_cap, dtype=np.int64)
    exit_vertex = np.full(n_walks, -1, dtype=np.int64)
    wid = np.arange(n_walks, dtype=np.int64)
    keys = stream_keys_np(seed, wid)
    pos = np.full(n_walks, start, dtype=np.int64)
    active = wid
    for t in range(step_cap):
        if active.size == 0:
            break
        u = _u01_np(keys[active], t)
        key = pos[active].astype(np.float64) + u
        k = np.searchsorted(aug, key, side="right")
        k = np.minimum(k, indptr[pos[active] + 1] - 1)
        nxt = indices[k].astype(np.int64)
        pos[active] = nxt
        out = ~in_region[nxt]
        if out.any():
            done = active[out]
            steps[done] = t + 1
            exit_vertex[done] = nxt[out]
            active = active[~out]
    return steps, exit_vertex
