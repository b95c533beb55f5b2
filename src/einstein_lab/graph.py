"""Weighted-graph core: construction, metric structure and boundaries.

A :class:`WeightedGraph` is an immutable symmetric weighted adjacency with
the vertex measure mu(x) = sum of incident edge weights (a self-loop counts
once).  The random walk it induces moves to neighbour y with probability
mu_xy / mu(x).  Distances are hop counts (weights play no metric role), and
balls are open: B(x, R) = {y : d(x, y) < R}.  Only ``load`` and the
generators build a graph; every region a measurement reads (a ball, its
closure, a ball shrunk to one vertex) is sliced from the host's CSR.
"""

import functools
import inspect
import math
import warnings

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .errors import GraphFormatError, MarginError


class WeightedGraph:
    """Immutable connected graph built from an edge list, weights > 0.

    Each edge is stored both ways with its one weight, so mu_xy = mu_yx
    and the walk is reversible by construction.  The adjacency is held
    once, as ``matrix``: a scipy CSR that every BFS and every Dirichlet
    block slices, whose own arrays are the ``indptr``, ``indices`` and
    ``weights`` that the walk kernel reads.  Every reader of the edge set
    takes its upper triangle.  All arrays are frozen after construction.
    No per-center state is host-sized.  It holds one memo, ``_memo``,
    written only through ``_keep``: every derived quantity ``_per_graph``
    computes (a ball's entry is as long as the ball) and every solution
    ``potential.solve`` computes, one per system and right-hand side.
    """

    def __init__(self, vertex_count, edges):
        n = int(vertex_count)
        if n <= 0:
            raise GraphFormatError("vertex_count must be positive")
        uvw = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
        ids = uvw[:, :2]
        whole = (np.isfinite(ids) & (np.trunc(ids) == ids)).all(axis=1)
        ends = np.sort(ids, axis=1)
        inside = whole & ((ends >= 0) & (ends < n)).all(axis=1)
        lo, hi = np.where(inside, np.transpose(ends), 0).astype(np.int64)
        w = uvw[:, 2]
        bad_w = ~((0.0 < w) & (w < math.inf))
        dup = np.ones(w.size, dtype=bool)
        dup[np.unique(lo * n + hi, return_index=True)[1]] = False
        bad = ~inside | bad_w | dup
        if bad.any():
            # the first offending edge, its checks in the order above
            i = int(np.argmax(bad))
            if not whole[i]:
                raise GraphFormatError(f"edge ({edges[i][0]},{edges[i][1]}) "
                                       "has a non-integer end")
            u, v = int(edges[i][0]), int(edges[i][1])
            if not inside[i]:
                raise GraphFormatError(f"edge ({u},{v}) out of range")
            if bad_w[i]:
                raise GraphFormatError(f"edge ({u},{v}) has weight "
                                       f"{float(w[i])!r}, not positive and "
                                       "finite")
            raise GraphFormatError(f"duplicate edge {(min(u, v), max(u, v))}")
        off = lo != hi
        W = sp.csr_matrix((np.concatenate([w, w[off]]),
                           (np.concatenate([lo, hi[off]]),
                            np.concatenate([hi, lo[off]]))), shape=(n, n))
        self._init_csr(W)

    def _init_csr(self, matrix):
        """The rest of ``__init__`` once the symmetric CSR is built:
        measure, frozen arrays, memos and the connectivity check."""
        n = matrix.shape[0]
        self.vertex_count = n
        self.matrix = matrix
        self.indptr, self.indices = matrix.indptr, matrix.indices
        self.weights = matrix.data
        self.mu = np.zeros(n, dtype=np.float64)
        np.add.at(self.mu, np.repeat(np.arange(n), np.diff(self.indptr)),
                  self.weights)
        if np.any(self.mu <= 0):
            raise GraphFormatError("isolated vertex (graph must be connected)")
        for arr in (self.indptr, self.indices, self.weights, self.mu):
            arr.setflags(write=False)

        self._memo = {}                 # key -> value, through _keep

        if int(_kernels.bfs_distances(matrix, 0).min()) < 0:
            raise GraphFormatError("graph is not connected")

    @property
    def edges(self):
        """Edge list [(u, v, w)] sorted by (u, v), rebuilt on each access."""
        return list(zip(*(a.tolist() for a in self._upper())))

    @property
    def edge_count(self):
        """Number of edges: the upper triangle's size, with no tuples built."""
        return int(self._upper()[0].size)

    def _upper(self):
        """The CSR's entries with u <= v as arrays (u, v, w) in CSR order:
        each edge once, as the list sorted by (u, v), self-loops
        included."""
        rows = np.repeat(np.arange(self.vertex_count), np.diff(self.indptr))
        up = rows <= self.indices
        return rows[up], self.indices[up], self.weights[up]

    # -- basic accessors ----------------------------------------------------

    def check_vertex(self, x):
        x = int(x)
        if not (0 <= x < self.vertex_count):
            raise ValueError(f"vertex id {x} out of range")
        return x


def _keep(g, key, value):
    """Store value in ``g._memo`` under key and return it, an ndarray
    frozen first: the one writer of the memo, so every cached array is
    read-only and ``_as_vertex_set`` may hand it on uncopied."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    g._memo[key] = value
    return value


def _per_graph(fn):
    """Memoize fn(g, *args) in ``g._memo`` under (fn, *args), through
    ``_keep`` on a miss; a call that raises stores nothing.  Arguments are
    positional and hashable."""
    @functools.wraps(fn)
    def memoized(g, *args):
        key = (fn, *args)
        return g._memo[key] if key in g._memo else _keep(g, key, fn(g, *args))
    return memoized


@_per_graph
def eccentricities(g):
    """Exact eccentricity of every vertex from a few BFS.

    Bounds lo <= ecc <= hi per vertex (Takes & Kosters, "Computing the
    eccentricity distribution of large graphs", 2013): a source v of
    eccentricity e gives every w max(d(v,w), e - d(v,w)) <= ecc(w) <=
    e + d(v,w), from one BFS out of v.  Sources alternate between the
    open vertex of least lo and of greatest hi (smallest id on ties);
    each source closes, so at most n BFS.
    """
    n = g.vertex_count
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, n, dtype=np.int64)
    open_ = np.ones(n, dtype=bool)
    least_lo = True
    while open_.any():
        v = int(np.argmin(np.where(open_, lo, n)) if least_lo
                else np.argmax(np.where(open_, hi, -1)))
        least_lo = not least_lo
        d = _kernels.bfs_distances(g.matrix, v)
        e = int(d.max())
        lo = np.maximum(lo, np.maximum(d, e - d))
        hi = np.minimum(hi, e + d)
        open_ &= lo != hi
    return lo


@_per_graph
def host_frontier(g):
    """Vertices where the host was truncated.

    A cut vertex shows two signals at once: it lost neighbours (degree
    below the host maximum) and it sits metrically extremal (maximal
    eccentricity).  Either signal alone misfires - gasket outer edges
    attain the maximal eccentricity but keep full degree, and fractal
    trees carry legitimate low-degree tips deep inside - so the frontier
    is their intersection: path endpoints, box corners, the far corners
    of a gasket, the extreme tips of a fractal tree.  Degree-regular
    hosts have an empty frontier.
    """
    ecc = eccentricities(g)
    deg = np.diff(g.indptr)
    mask = (deg < deg.max()) & (ecc == ecc.max())
    return np.flatnonzero(mask).astype(np.int64)


@_per_graph
def host_reach(g, x):
    """The largest K for which B(x,K) lies strictly inside the host:
    min(ecc(x), d(x, frontier minus x)), from one BFS out of x.  B(x,K) =
    {d < K} is proper iff K <= ecc(x), and holds no frontier vertex but x
    iff each lies at distance >= K."""
    x = g.check_vertex(x)
    d = _kernels.bfs_distances(g.matrix, x)
    frontier = host_frontier(g)
    return int(np.min(d[frontier[frontier != x]], initial=d.max()))


@_per_graph
def ball(g, x, radius):
    """Open ball {y : d(x,y) < radius} as a sorted, read-only vertex array,
    from a BFS that stops at the last whole distance below the radius."""
    x = g.check_vertex(x)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return np.empty(0, dtype=np.int64)
    d = _kernels.bfs_distances(g.matrix, x, np.ceil(radius) - 1)
    return np.flatnonzero(d >= 0).astype(np.int64)


def fill_balls(g, x, reach, ys, radius):
    """Memoize ball(g, y, radius) for every y in ``ys`` from one
    multi-source search on the subgraph induced by S = B(x, reach).  The
    caller guarantees d(x, y) + radius <= reach for each y, so B(y, radius)
    and every shortest path inside it lie in S, and the search inside S
    finds the host's ball.  Radii are integers >= 1.  A ball already
    memoized is not searched again; each one is kept under ball's key as
    the sorted int64 array ``ball`` returns.  The key's function is ball
    unwrapped to the end, so a wrapper bound over ``ball`` shares it."""
    fn = inspect.unwrap(ball)
    todo = [y for y in map(int, ys) if (fn, y, radius) not in g._memo]
    if not todo:
        return
    S = ball(g, x, reach)
    local = np.searchsorted(S, todo)
    if np.any(np.append(S, -1)[local] != todo):
        raise ValueError(f"a partner lies outside B({x},{reach})")
    for y, B in zip(todo, _kernels.bfs_balls(_subgraph(g, S)[0], local,
                                             radius - 1, S)):
        _keep(g, (fn, y, radius), B)


def proper_ball(g, x, radius, what="ball"):
    """B(x, radius) as the region of a killed walk: x is a vertex, the
    radius is at least 1 (ValueError), and the ball is not the whole host
    (MarginError), in that order."""
    x = g.check_vertex(x)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    B = ball(g, x, radius)
    if B.size == g.vertex_count:
        raise MarginError(f"{what} B({x},{radius}) covers the whole host "
                          "graph")
    return B


@_per_graph
def volume(g, x, radius):
    """mu-measure V(x,R) of the open ball."""
    return float(g.mu[ball(g, x, radius)].sum())


def annulus_volume(g, x, r, R):
    """v(x,r,R) = V(x,R) - V(x,r)."""
    if not (R > r >= 0):
        raise ValueError("annulus requires R > r >= 0")
    return volume(g, x, R) - volume(g, x, r)


def _as_vertex_set(g, A):
    """A as a sorted int64 vertex array without repeats.  A read-only, 1-D,
    int64, strictly increasing array (an array the memo kept, such as a
    ball) is returned itself; anything else is copied through np.unique."""
    if not (isinstance(A, np.ndarray) and A.ndim == 1
            and A.dtype == np.int64 and not A.flags.writeable
            and np.all(A[1:] > A[:-1])):
        A = np.unique(np.asarray(A, dtype=np.int64))
    if A.size and (A[0] < 0 or A[-1] >= g.vertex_count):
        raise ValueError("vertex id out of range")
    return A


def _entries(g, rows):
    """The rows' CSR slices: for each of their entries, row after row, the
    row's index into ``rows`` and the entry's position in the CSR."""
    hi = g.indptr[rows + 1]
    counts = hi - g.indptr[rows]
    i = np.repeat(np.arange(rows.size), counts)
    return i, np.arange(i.size) + (hi - np.cumsum(counts))[i]


def _gather(g, rows, cols):
    """W[rows][:, cols] as triplets (i, j, w) in CSR order, i indexing
    ``rows`` and j the sorted ``cols``; reads the rows' entries only."""
    i, pos = _entries(g, rows)
    nbr = g.indices[pos]
    j = np.searchsorted(cols, nbr)
    hit = np.append(cols, -1)[j] == nbr
    return i[hit], j[hit], g.weights[pos[hit]]


def _subgraph(g, C):
    """The subgraph induced by the sorted vertex set C, as a CSR over
    indices into C, and the triplets (i, j, w) it holds, from C's rows."""
    i, j, w = _gather(g, C, C)
    indptr = np.r_[0, np.cumsum(np.bincount(i, minlength=C.size))]
    return sp.csr_matrix((w, j, indptr), shape=(C.size, C.size)), (i, j, w)


def closure(g, A):
    """A together with every vertex adjacent to A, from A's CSR slices."""
    A = _as_vertex_set(g, A)
    if A.size == 0:
        raise ValueError("closure of the empty set")
    return np.union1d(A, g.indices[_entries(g, A)[1]])


def boundary(g, A):
    """External boundary: closure(A) minus A."""
    A = _as_vertex_set(g, A)
    return np.setdiff1d(closure(g, A), A, assume_unique=True)


def min_transition(g):
    """Smallest one-step transition probability p0 = min mu_xy / mu(x) and
    the first directed edge (x, y) attaining it."""
    p = np.minimum.reduceat(g.weights, g.indptr[:-1]) / g.mu
    x = int(np.argmin(p))
    lo, hi = g.indptr[x], g.indptr[x + 1]
    return float(p[x]), (x, int(g.indices[lo + np.argmin(g.weights[lo:hi])]))


# -- text format -------------------------------------------------------------
#
# First line "n m", then m lines "u v w" (0-based ids, decimal weight).
# Lines starting with '#' are comments.  save() writes edges sorted by
# (min, max) endpoint, which makes load/save a byte-stable round trip on
# canonical files.


def save(g, path):
    edges = g.edges
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{g.vertex_count} {len(edges)}\n")
        for u, v, w in edges:
            f.write(f"{u} {v} {w!r}\n")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln for ln in map(str.strip, f)
                 if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError(f"{path}: empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:      # a field count or a number that does not parse
        raise GraphFormatError(f"{path}: header must be 'n m'") from None
    if len(lines) - 1 != m:
        raise GraphFormatError(
            f"{path}: expected {m} edge lines, found {len(lines) - 1}"
        )
    return WeightedGraph(n, _edge_rows(path, lines[1:]))


def _edge_rows(path, rows):
    """The edge lines "u v w" as an (m, 3) array, parsed by numpy in bulk
    with int64 ids, so "2.5" or "1.0" is no id (numpy releases that read
    such an id "via a float" only warn; that warning is an error here).
    A line numpy refuses sends every line through Python's int and float,
    which take a few more spellings (1_000, other digit scripts) and name
    the first bad line; so does an empty list, on which numpy warns."""
    if rows:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                uvw = np.loadtxt(rows, dtype="i8,i8,f8", comments=None,
                                 ndmin=1)
            return np.column_stack([uvw[f] for f in uvw.dtype.names])
        except ValueError:
            pass
    edges = []
    for ln in rows:
        try:
            u, v, w = ln.split()
            edges.append((int(u), int(v), float(w)))
        except ValueError:
            raise GraphFormatError(f"{path}: bad edge line {ln!r}") from None
    return edges
