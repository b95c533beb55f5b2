"""Hot inner loops.  BFS distances are scipy's csgraph over the graph's
weight CSR, from the nearest of a set of sources or, for a family of
balls, from each source on its own.  The random-walk kernel is
vectorized numpy and draws from a counter-based generator
(splitmix64-style finalizer keyed by ``(seed, walk, step)``), so a
simulation result does not depend on batching or call order.  A walk
step is one lookup in a table built per region at kernel entry, whose
entries are the next row's offset in the table; only a draw that falls
in a bucket straddling a transition threshold searches its row, so every
step takes the same neighbour as the search.  The bucket is the top bits
of the draw's mixed word, read before the mix's last xor-shift, which
leaves them as they are.  A step works in buffers allocated at entry,
and a walker that exits hands its slot to a live one from the end of the
batch, so a step's bookkeeping follows its exits, not the batch size.
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
# Its last step, z ^= z >> 31, leaves the top 31 bits of z as they are,
# so the kernel reads a step's bucket before that step (``_mix_head``)
# and finishes the word only for the walkers that need their u.

_S11, _S27, _S30, _S31 = (np.uint64(b) for b in (11, 27, 30, 31))


def _mix_head(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """mix but its last xor-shift, applied to ``z`` in place with the
    scratch ``tmp`` of z's shape; returns ``z``."""
    np.right_shift(z, _S30, out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX1)
    np.right_shift(z, _S27, out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX2)
    return z


def _mix_np(z: np.ndarray) -> np.ndarray:
    """mix applied to ``z`` in place; returns ``z``."""
    tmp = np.empty_like(z)
    _mix_head(z, tmp)
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


def stream_keys_np(seed: int, walks: np.ndarray) -> np.ndarray:
    pre = _mix_np((walks.astype(np.uint64) + np.uint64(1)) * np.uint64(_GAMMA))
    pre ^= np.uint64(seed & _MASK)
    return _mix_np(pre)


def _u01_from_bits(word: np.ndarray) -> np.ndarray:
    """u of each mixed word: its top 53 bits, scaled to [0, 1)."""
    u = (word >> _S11).astype(np.float64)
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


_BLOCK = 1 << 16                # float64 distances per search: 512 KiB


def bfs_balls(W, sources, limit, labels):
    """For each source on its own, ``labels`` of the vertices of ``W``
    within ``limit`` hops of it, in vertex order, as one array per source.
    Sources are searched in chunks whose distance block holds at most 2^16
    float64 entries (512 KiB); a chunk holds at least one source, so a row
    on more than 2^16 vertices is the one block that is larger.  Nothing
    else the search allocates outlives its chunk."""
    step = max(1, _BLOCK // W.shape[0])
    balls = []
    for k in range(0, len(sources), step):
        dist = csgraph.dijkstra(W, indices=sources[k:k + step],
                                unweighted=True, limit=limit + 0.5)
        balls += [labels[np.flatnonzero(row != np.inf)] for row in dist]
    return balls


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
# The kernel stores a choice inside the region as that vertex's row
# offset, local id << b, so a walker's state plus its bucket is the
# index of its next entry.  A step is one gather; only ambiguous walkers
# run ``_row_choice`` on their exact key.  b = 8 puts about 1% of steps
# on a 4-neighbour row in an ambiguous bucket; b = 10 is no faster and
# costs 4 KiB per vertex.

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
    ``_region_csr``'s.  One ``_row_choice`` runs over both ends of every
    bucket of a chunk of rows, so scratch stays the size of the chunk."""
    span = int(np.diff(ptr).max()) - 1
    n_buckets = 1 << BUCKET_BITS
    ends = np.arange(n_buckets + 1) << (53 - BUCKET_BITS)   # 53-bit words
    u = np.concatenate([ends[:-1], ends[1:] - 1]) * _INV53  # low, high ends
    table = np.empty((rows.size, n_buckets), dtype=np.int32)
    for r in range(0, rows.size, 64):      # 2^15 keys a search at b = 8
        local = np.arange(r, min(r + 64, rows.size))
        key = rows[local, None] + u
        k = _row_choice(ptr, aug, np.repeat(local, u.size), key.ravel(),
                        span).reshape(local.size, 2, n_buckets)
        table[local] = np.where(k[:, 0] == k[:, 1], code[k[:, 0]], AMBIGUOUS)
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

    A step adds the step's counter to each stream key in a buffer
    allocated at entry and mixes it there, all but the last xor-shift
    (``_mix_head``): that shift keeps the top bits that pick the bucket.
    Table entries hold the next row's offset (local id << BUCKET_BITS),
    so the walker state ``nxt`` is that offset or a negative code, the
    cell is the bucket OR'd into it, and the step is one ``take`` whose
    index is in range by construction.  Only ambiguous walkers finish
    their word and take u from it.  Walker state (id, stream key, ``nxt``)
    lives in arrays cut to the live walkers, and the buffers are read as
    views of that length; each exiting walker's slot below the new end
    takes a live walker from the tail, so retiring costs O(exits) and no
    step allocates anything batch-sized but its sign mask.  Results are
    indexed by walk id, so the order of walkers in the arrays never
    shows.  Only the region's rows are read, so memory and time follow
    the region and the number of live walkers, not the size of the host.

    Returns (steps, exit_vertex); exit_vertex is -1 for capped walks and
    steps then equals step_cap.  ``start`` must lie in the region, and
    the region must have fewer than 2^(31 - BUCKET_BITS) vertices, so
    that every row offset fits an int32 (ValueError otherwise).
    """
    if not in_region[start]:
        raise ValueError(f"start {start} outside the walk region")
    rows, ptr, raug, code = _region_csr(indptr, indices, weights, mu,
                                        in_region)
    if rows.size >= 1 << (31 - BUCKET_BITS):
        raise ValueError(f"walk region of {rows.size} vertices: its row "
                         f"offsets pass int32 with {BUCKET_BITS} bucket bits")
    span = int(np.diff(ptr).max()) - 1
    # local ids become row offsets, in the table too, once here
    np.left_shift(code, BUCKET_BITS, out=code, where=code >= 0)
    table = _bucket_table(rows, ptr, raug, code).ravel()
    steps = np.full(n_walks, step_cap, dtype=np.int64)
    exit_vertex = np.full(n_walks, -1, dtype=np.int64)
    wid = np.arange(n_walks, dtype=np.int64)
    keys = stream_keys_np(seed, wid)
    nxt = np.full(n_walks, np.searchsorted(rows, start) << BUCKET_BITS,
                  dtype=np.int32)
    zbuf, cbuf = np.empty((2, n_walks), dtype=np.uint64)
    for t in range(step_cap):
        live = wid.size
        if live == 0:
            break
        z, cell = zbuf[:live], cbuf[:live]
        np.add(keys, np.uint64(((t + 1) * _GAMMA) & _MASK), out=z)
        _mix_head(z, cell)
        cell = np.right_shift(z, _BUCKET_SHIFT, out=cell).view(np.int64)
        cell |= nxt
        np.take(table, cell, out=nxt, mode="wrap")
        neg = np.flatnonzero(nxt < 0)
        if neg.size:
            amb = neg[nxt[neg] == AMBIGUOUS]
            if amb.size:
                local = cell[amb] >> BUCKET_BITS
                word = z[amb]
                key = _u01_from_bits(word ^ (word >> _S31))
                key += rows[local]
                nxt[amb] = code[_row_choice(ptr, raug, local, key, span)]
            out = neg[nxt[neg] < AMBIGUOUS]
            if out.size:
                done = wid[out]
                steps[done] = t + 1
                exit_vertex[done] = -2 - nxt[out]
                # move the tail's live walkers into the holes below the
                # new end, then cut the tail off (views: nothing copied)
                live -= out.size
                below = np.searchsorted(out, live)
                keep = np.ones(out.size, dtype=bool)
                keep[out[below:] - live] = False
                hole, fill = out[:below], np.flatnonzero(keep) + live
                for a in (wid, keys, nxt):
                    a[hole] = a[fill]
                wid, keys, nxt = wid[:live], keys[:live], nxt[:live]
    return steps, exit_vertex
