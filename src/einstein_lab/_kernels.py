"""Hot inner loops.  BFS distances are scipy's csgraph over the graph's
weight CSR; the random-walk kernel is vectorized numpy and draws from a
counter-based generator (splitmix64-style finalizer keyed by ``(seed,
walk, step)``), so a simulation result does not depend on batching or
call order.  The scalar generator below reproduces any single draw; it
is the tests' reference for the vector one, which the kernel uses.  A
walk step is one lookup in a table built per region at kernel entry;
only a draw that falls in a bucket straddling a transition threshold
searches its row, so every step takes the same neighbour as the search.
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


def _bits_np(keys: np.ndarray, step: int) -> np.ndarray:
    """The 64-bit mixed word of each stream at ``step``; u is its top 53
    bits, scaled."""
    return _mix_np(keys + np.uint64(((step + 1) * _GAMMA) & _MASK))


def _u01_np(keys: np.ndarray, step: int) -> np.ndarray:
    word = _bits_np(keys, step)
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
# round up to v + 1.0).  ``_row_choice`` is that rule; it reads row v only.
# The kernel builds ``aug`` at entry for the region's rows alone, from the
# host's weights and mu (``_region_csr``).
#
# simulate_exits evaluates the rule through a bucket table.  A bucket is
# the top BUCKET_BITS bits of the 53-bit word behind u, so bucket j holds
# the uniforms j * 2^-b <= u <= (j + 1) * 2^-b - 2^-53, b = BUCKET_BITS.
# The table has one int32 entry per (region vertex, bucket): the rule's
# choice when it is the same at both ends of the bucket, else AMBIGUOUS.
# A step is one gather; only ambiguous walkers run ``_row_choice`` on
# their exact key.  b = 8 puts about 1% of steps on a 4-neighbour row in
# an ambiguous bucket; b = 10 is no faster and costs 4 KiB per vertex.

BUCKET_BITS = 8                  # 1 KiB of table per region vertex
AMBIGUOUS = -1
_BUCKET_SHIFT = np.uint64(64 - BUCKET_BITS)


def build_transition_profile(ptr, rows, weights, mu):
    """aug entries of a CSR with row pointers ``ptr``, host vertex ids
    ``rows`` and measures ``mu`` per row; rows of one degree k are one
    (rows, k) block, summed left to right."""
    deg = np.diff(ptr)
    aug = np.empty(weights.shape[0], dtype=np.float64)
    for k in np.unique(deg):
        r = np.flatnonzero(deg == k)
        at = ptr[r, None] + np.arange(k)
        cum = np.cumsum(weights[at], axis=1) / mu[r, None]
        cum[:, -1] = 1.0
        aug[at] = rows[r, None] + cum
    return aug


def _row_choice(indptr, aug, pos, key, span):
    """CSR index of the neighbour taken by each walker in row ``pos`` of
    (indptr, aug) with search key v + u, v the row's vertex: the first k
    in the row with aug[k] > key, else the row's last entry.

    Binary lifting over the row: the answer is the row start plus the
    count of row entries <= key, found in span.bit_length() rounds of one
    gather and compare, where ``span`` is at least every row's degree
    minus one.  Probes are clamped to the row's last entry, so no entry
    of another row is read.  The answer never decreases as ``key`` grows,
    sorted row or not: at the first round where two keys part, the larger
    one adds 1 << b and the smaller can make up at most (1 << b) - 1.
    """
    k = indptr[pos]
    last = indptr[pos + 1]
    last -= 1
    for b in reversed(range(int(span).bit_length())):
        probe = k + ((1 << b) - 1)
        np.minimum(probe, last, out=probe)
        k += (aug[probe] <= key) << b
    return np.minimum(k, last, out=k)


def _region_csr(indptr, indices, weights, mu, in_region):
    """The walk's region as its own CSR: the sorted host ids ``rows``, row
    pointers and ``aug`` entries of those rows, and each entry's code,
    the neighbour's local id (index into ``rows``) or -2 - v for a host
    vertex v outside the region.  Reads only the region's rows."""
    rows = np.flatnonzero(in_region)
    first = indptr[rows]
    deg = indptr[rows + 1] - first
    ptr = np.zeros(rows.size + 1, dtype=np.intp)
    np.cumsum(deg, out=ptr[1:])
    at = np.repeat(first - ptr[:-1], deg) + np.arange(ptr[-1])
    nbr = indices[at]
    code = np.where(in_region[nbr], np.searchsorted(rows, nbr), -2 - nbr)
    aug = build_transition_profile(ptr, rows, weights[at], mu[rows])
    return rows, ptr, aug, code.astype(np.int32)


def _bucket_table(rows, ptr, aug, code):
    """(len(rows), 2^BUCKET_BITS) int32 table of the step from each region
    vertex: the code of the entry ``_row_choice`` picks at both ends of
    the bucket, or AMBIGUOUS where the two picks differ.  Arguments are
    ``_region_csr``'s.  Built one bucket at a time, so scratch stays the
    size of the region."""
    span = int(np.diff(ptr).max()) - 1
    local = np.arange(rows.size)
    width = 1 << (53 - BUCKET_BITS)              # 53-bit words per bucket
    table = np.empty((rows.size, 1 << BUCKET_BITS), dtype=np.int32)
    for j in range(table.shape[1]):
        lo = _row_choice(ptr, aug, local, rows + j * width * _INV53, span)
        hi = _row_choice(ptr, aug, local,
                         rows + ((j + 1) * width - 1) * _INV53, span)
        table[:, j] = np.where(lo == hi, code[lo], AMBIGUOUS)
    return table


def simulate_exits(indptr, indices, weights, mu, in_region, start, n_walks,
                   step_cap, seed):
    """Simulate ``n_walks`` killed walks from ``start``; vectorized over walks.

    Step t of walk w at vertex v moves by ``_row_choice`` with key
    v + u(seed, w, t), read from the region's bucket table.  This is
    exact: v + u rounds to a value that never decreases as u grows, and
    the rule's choice never decreases as the key grows, so a choice equal
    at both ends of a bucket is the choice for every u in it.  Walkers in
    an AMBIGUOUS bucket run ``_row_choice`` on their own key.  The result
    is the rule's, bit for bit, whatever BUCKET_BITS is.

    Walker state (id, stream key, table row) is compacted as walks exit.
    Only the region's rows are read, so memory and time follow the
    region and the number of live walkers, not the size of the host.

    Returns (steps, exit_vertex); exit_vertex is -1 for capped walks and
    steps then equals step_cap.  ``start`` must lie in the region
    (ValueError otherwise).
    """
    if not in_region[start]:
        raise ValueError(f"start {start} outside the walk region")
    steps = np.full(n_walks, step_cap, dtype=np.int64)
    exit_vertex = np.full(n_walks, -1, dtype=np.int64)
    rows, ptr, raug, code = _region_csr(indptr, indices, weights, mu,
                                        in_region)
    span = int(np.diff(ptr).max()) - 1
    table = _bucket_table(rows, ptr, raug, code).ravel()
    wid = np.arange(n_walks, dtype=np.int64)
    keys = stream_keys_np(seed, wid)
    # each walker's table row offset: local id << BUCKET_BITS
    base = np.full(n_walks, np.searchsorted(rows, start) << BUCKET_BITS)
    for t in range(step_cap):
        if wid.size == 0:
            break
        cell = _bits_np(keys, t)
        cell >>= _BUCKET_SHIFT
        cell = cell.view(np.int64)
        cell |= base
        nxt = table[cell]
        # freed before compaction allocates: peak RSS is 3 MB lower on
        # gasket 6, B(0,16), 100 000 walks
        del cell
        amb = np.flatnonzero(nxt == AMBIGUOUS)
        if amb.size:
            local = base[amb] >> BUCKET_BITS
            key = _u01_np(keys[amb], t)
            key += rows[local]
            nxt[amb] = code[_row_choice(ptr, raug, local, key, span)]
        out = np.flatnonzero(nxt < AMBIGUOUS)
        base = np.left_shift(nxt, BUCKET_BITS, dtype=np.int64)
        if out.size:
            done = wid[out]
            steps[done] = t + 1
            exit_vertex[done] = -2 - nxt[out]
            stay = np.ones(wid.size, dtype=bool)
            stay[out] = False
            wid, keys, base = wid[stay], keys[stay], base[stay]
    return steps, exit_vertex
