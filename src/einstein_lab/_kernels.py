"""Hot inner loops.  BFS distances are scipy's csgraph over the graph's
weight CSR; the random-walk kernel is vectorized numpy and draws from a
counter-based generator (splitmix64-style finalizer keyed by ``(seed,
walk, step)``), so a simulation result does not depend on batching or
call order.  The scalar generator below reproduces any single draw; it
is the tests' reference for the vector one, which the kernel uses.
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


_S11, _S27, _S30, _S31 = (np.uint64(b) for b in (11, 27, 30, 31))


def _mix_np(z: np.ndarray) -> np.ndarray:
    """mix applied to ``z`` in place; returns ``z``."""
    tmp = z >> _S30
    z ^= tmp
    z *= np.uint64(_MIX1)
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX2)
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp
    return z


def stream_keys_np(seed: int, walks: np.ndarray) -> np.ndarray:
    pre = _mix_np((walks.astype(np.uint64) + np.uint64(1)) * np.uint64(_GAMMA))
    pre ^= np.uint64(seed & _MASK)
    return _mix_np(pre)


def _u01_np(keys: np.ndarray, step: int) -> np.ndarray:
    word = _mix_np(keys + np.uint64(((step + 1) * _GAMMA) & _MASK))
    word >>= _S11
    u = word.astype(np.float64)
    u *= _INV53
    return u


# -- BFS distances -----------------------------------------------------------


def bfs_distances(W, sources, limit=np.inf):
    """Hop distances over the adjacency ``W`` from one source vertex or,
    for several, from the nearest of them; -1 where none is within
    ``limit`` hops, where the search stops.  Weights play no role."""
    dist = csgraph.dijkstra(W, indices=sources, unweighted=True,
                            min_only=True, limit=limit + 0.5)
    dist[np.isinf(dist)] = -1
    return dist.astype(np.int32)


# -- walk simulation ---------------------------------------------------------
#
# ``aug`` is the per-row cumulative transition profile shifted by the row
# index: aug[k] = source_vertex(k) + cum_prob(k), with the last entry of
# each row forced to source_vertex + 1.0 exactly, so ``aug`` never
# decreases.  Neighbour choice at vertex v with uniform u is the first k
# in row v with aug[k] > v + u, clamped to the row's last entry (v + u can
# round up to v + 1.0).  ``_row_choice`` is that rule, the one
# simulate_exits calls; it reads row v only.


def build_transition_profile(indptr, indices, weights, mu):
    """aug array the walk kernel reads; rows of one degree k are one
    (rows, k) block, summed left to right."""
    deg = np.diff(indptr)
    aug = np.empty(weights.shape[0], dtype=np.float64)
    for k in np.unique(deg[deg > 0]):
        rows = np.flatnonzero(deg == k)
        at = indptr[rows, None] + np.arange(k)
        cum = np.cumsum(weights[at], axis=1) / mu[rows, None]
        cum[:, -1] = 1.0
        aug[at] = rows[:, None] + cum
    return aug


def _row_choice(indptr, aug, pos, key, span):
    """CSR index of the neighbour taken by each walker at vertex ``pos``
    with search key ``pos + u``: the first k in the row with aug[k] > key,
    else the row's last entry.

    Binary lifting over the row: the answer is the row start plus the
    count of row entries <= key, found in span.bit_length() rounds of one
    gather and compare, where ``span`` is at least every row's degree
    minus one.  Probes are clamped to the row's last entry, so no entry
    of another row is read.
    """
    k = indptr[pos]
    last = indptr[pos + 1]
    last -= 1
    for b in reversed(range(int(span).bit_length())):
        probe = k + ((1 << b) - 1)
        np.minimum(probe, last, out=probe)
        k += (aug[probe] <= key) << b
    return np.minimum(k, last, out=k)


def simulate_exits(indptr, indices, aug, in_region, start, n_walks,
                   step_cap, seed):
    """Simulate ``n_walks`` killed walks from ``start``; vectorized over walks.

    Walker state (id, stream key, position) is compacted as walks exit,
    and a step reads only the rows the walkers stand on, so its cost
    follows the number of live walkers and the degrees in the region,
    not the size of the host.

    Returns (steps, exit_vertex); exit_vertex is -1 for capped walks and
    steps then equals step_cap.
    """
    steps = np.full(n_walks, step_cap, dtype=np.int64)
    exit_vertex = np.full(n_walks, -1, dtype=np.int64)
    indptr = indptr.astype(np.intp)
    indices = indices.astype(np.intp)
    deg = np.diff(indptr)
    span = max(int(deg[in_region].max(initial=0)), int(deg[start])) - 1
    wid = np.arange(n_walks, dtype=np.int64)
    keys = stream_keys_np(seed, wid)
    pos = np.full(n_walks, start, dtype=np.intp)
    for t in range(step_cap):
        if wid.size == 0:
            break
        key = _u01_np(keys, t)
        key += pos
        nxt = indices[_row_choice(indptr, aug, pos, key, span)]
        out = ~in_region[nxt]
        if out.any():
            done = wid[out]
            steps[done] = t + 1
            exit_vertex[done] = nxt[out]
            stay = ~out
            wid, keys, nxt = wid[stay], keys[stay], nxt[stay]
        pos = nxt
    return steps, exit_vertex
