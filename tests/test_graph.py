import itertools
import math
import sys
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from einstein_lab import _kernels, graph
from einstein_lab._kernels import bfs_distances
from einstein_lab.conditions import auto_centers, ball_inside_host
from einstein_lab.errors import GraphFormatError
from einstein_lab.graph import (WeightedGraph, annulus_volume, ball, boundary,
                                closure, eccentricities, load, min_transition,
                                save, shrink, sphere, volume)
from einstein_lab.generators import (apply_radial_weights, binary_tree,
                                     lattice_box, sierpinski_gasket,
                                     vicsek_tree)


def path_graph(n, w=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)])


def stored_graph(indptr, indices, weights):
    """CSR arrays taken as given, through the constructor's ``_init_csr``:
    each x->y needs a stored y->x, but the two weights may differ (a
    non-reversible walk, which no edge list can build)."""
    n = int(indptr.shape[0]) - 1
    g = WeightedGraph.__new__(WeightedGraph)
    g._init_csr(sp.csr_matrix((weights, indices, indptr), shape=(n, n)))
    return g


def _corrupt_graph(g, u, v, delta):
    """g with ``delta`` added to the stored weight of u->v alone."""
    w = g.weights.copy()
    row = slice(g.indptr[u], g.indptr[u + 1])
    w[g.indptr[u] + np.flatnonzero(g.indices[row] == v)[0]] += delta
    return stored_graph(g.indptr, g.indices, w)


@st.composite
def connected_graphs(draw, w_min=0.25, w_max=4.0):
    """Random tree plus extra edges, weights in [w_min, w_max]."""
    n = draw(st.integers(min_value=2, max_value=24))
    weights = st.floats(min_value=w_min, max_value=w_max,
                        allow_nan=False, allow_infinity=False)
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges[(u, v)] = draw(weights)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        key = (min(u, v), max(u, v))
        if key[0] != key[1] and key not in edges:
            edges[key] = draw(weights)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


@st.composite
def stored_walks(draw, bases=None):
    """Graphs built by ``stored_graph`` over a connected pattern (drawn from
    ``connected_graphs`` or from ``bases``' edge lists) whose two
    directions carry independent weights from a small set, so tied minima
    and asymmetric stored weights are common, plus a few extra entries,
    each stored with its mirror (self-loops among them)."""
    base = draw(connected_graphs()) if bases is None else \
        WeightedGraph(*draw(bases))
    n = base.vertex_count
    weights = st.sampled_from([0.5, 1.0, 1.0 + 2.0 ** -40, 2.0])
    symmetric = draw(st.booleans())
    W = {}
    for u, v, _ in base.edges:
        W[(u, v)] = draw(weights)
        W[(v, u)] = W[(u, v)] if symmetric else draw(weights)
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        W.setdefault((x, y), draw(weights))
        W.setdefault((y, x), W[(x, y)] if symmetric else draw(weights))
    keys = sorted(W)
    rows = np.array([x for x, _ in keys], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return stored_graph(
        indptr, np.array([y for _, y in keys], dtype=np.int64),
        np.array([W[k] for k in keys], dtype=np.float64))


def graph_reference(n, edges):
    """The per-edge loop construction: validation in input order, the
    sorted edge list, the symmetric CSR and mu."""
    canon = {}
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range")
        if not 0.0 < w < math.inf:
            raise GraphFormatError(f"edge ({u},{v}) has weight {w!r}, "
                                   "not positive and finite")
        key = (u, v) if u <= v else (v, u)
        if key in canon:
            raise GraphFormatError(f"duplicate edge {key}")
        canon[key] = w
    edges = sorted((u, v, w) for (u, v), w in canon.items())
    entries = []
    for u, v, w in edges:
        entries.append((u, v, w))
        if u != v:
            entries.append((v, u, w))
    entries.sort(key=lambda e: (e[0], e[1]))
    indptr = [0] * (n + 1)
    mu = [0.0] * n
    for x, _, w in entries:
        indptr[x + 1] += 1
        mu[x] += w
    for x in range(n):
        indptr[x + 1] += indptr[x]
    return {"edges": edges, "indptr": indptr,
            "indices": [y for _, y, _ in entries],
            "weights": [w for _, _, w in entries], "mu": mu}


def assert_matches_reference(g, ref):
    assert g.edges == ref["edges"]
    assert all(type(u) is int and type(v) is int and type(w) is float
               for u, v, w in g.edges)
    for name in ("indptr", "indices", "weights", "mu"):
        assert getattr(g, name).tolist() == ref[name], name
    assert g.indptr is g.matrix.indptr and g.indices is g.matrix.indices
    assert g.weights is g.matrix.data


def shrink_reference(g, A):
    """The per-edge loop contraction: kept edges relabelled, crossing
    weights summed per outside vertex in edge-list order."""
    inA = [False] * g.vertex_count
    for x in A:
        inA[x] = True
    old_to_new = [-1] * g.vertex_count
    a = 0
    for x in range(g.vertex_count):
        if not inA[x]:
            old_to_new[x] = a
            a += 1
    cross = {}
    edges = []
    for u, v, w in g.edges:
        if inA[u] and inA[v]:
            continue
        if not inA[u] and not inA[v]:
            edges.append((old_to_new[u], old_to_new[v], w))
        else:
            nx = old_to_new[v if inA[u] else u]
            cross[nx] = cross.get(nx, 0.0) + w
    for nx, w in sorted(cross.items()):
        edges.append((nx, a, w))
    return graph_reference(a + 1, edges), a, old_to_new


def host_profile(g):
    """The walk kernel's profile rule over every row of the host."""
    return _kernels.build_transition_profile(
        g.indptr, np.arange(g.vertex_count), g.weights, g.mu)


def profile_reference(g):
    """One cumulative sum per row."""
    aug = np.empty(g.weights.shape[0])
    for x in range(g.vertex_count):
        lo, hi = g.indptr[x], g.indptr[x + 1]
        cum = np.cumsum(g.weights[lo:hi]) / g.mu[x]
        cum[-1] = 1.0
        aug[lo:hi] = x + cum
    return aug.tolist()


def lattice_reference(d, L):
    """Per-vertex loop over the box: row-major ids, one edge to the next
    vertex along each axis."""
    edges = []
    for coords in itertools.product(range(L), repeat=d):
        x = sum(c * L ** (d - 1 - ax) for ax, c in enumerate(coords))
        for ax, c in enumerate(coords):
            if c + 1 < L:
                edges.append((x, x + L ** (d - 1 - ax), 1.0))
    center = sum(L // 2 * L ** ax for ax in range(d))
    return graph_reference(L ** d, edges), center


# order-sensitive sums: 2**-53 twice then 1.0 is 1 + 2**-52, 1.0 first
# absorbs both
ORDER_WEIGHTS = st.sampled_from([1.0, 2.0 ** -53, 0.1, 0.7, 3.0])


@st.composite
def edge_lists(draw, hub=False):
    """(n, edges) of a connected graph with self-loops, in shuffled order
    and orientation; with ``hub`` vertex 0 has degree 8 or more."""
    n = draw(st.integers(min_value=9 if hub else 2, max_value=14))
    edges = {(0, k): draw(ORDER_WEIGHTS) for k in range(1, 9)} if hub else {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.setdefault((u, v), draw(ORDER_WEIGHTS))
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        u, v = sorted(draw(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1))))
        edges.setdefault((u, v), draw(ORDER_WEIGHTS))
    items = draw(st.permutations(sorted(edges.items())))
    flips = draw(st.lists(st.booleans(), min_size=len(items),
                          max_size=len(items)))
    return n, [(v, u, w) if f else (u, v, w)
               for ((u, v), w), f in zip(items, flips)]


@st.composite
def malformed_edge_lists(draw):
    """Edge lists mixing out-of-range ids, bad weights and duplicates."""
    n = draw(st.integers(min_value=1, max_value=5))
    ends = st.integers(min_value=-1, max_value=n)
    weights = st.sampled_from([1.0, 0.5, 0.0, -1.0, math.inf, -math.inf,
                               math.nan])
    return n, draw(st.lists(st.tuples(ends, ends, weights), max_size=10))


def min_transition_reference(g):
    """Per-vertex loop: the first vertex, then the first edge in its row,
    that attains the smallest transition probability."""
    best = None
    for x in range(g.vertex_count):
        for k in range(g.indptr[x], g.indptr[x + 1]):
            val = float(g.weights[k] / g.mu[x])
            if best is None or val < best[0]:
                best = (val, (x, int(g.indices[k])))
    return best


def adjacency(g):
    """Neighbour lists read from the edge list, not from the CSR."""
    adj = [[] for _ in range(g.vertex_count)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_reference(adj, sources):
    dist = [-1] * len(adj)
    queue = deque(sources)
    for s in sources:
        dist[s] = 0
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class TestConstruction:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 1, 0.0)])

    @pytest.mark.parametrize("w", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_nonfinite_weight(self, w, tmp_path):
        with pytest.raises(GraphFormatError, match="positive and finite"):
            WeightedGraph(2, [(0, 1, w)])
        path = tmp_path / "g.txt"
        path.write_text(f"2 1\n0 1 {w!r}\n")
        with pytest.raises(GraphFormatError):
            load(path)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 2, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_self_loop_counted_once_in_mu(self):
        g = WeightedGraph(2, [(0, 0, 3.0), (0, 1, 1.0)])
        assert g.mu[0] == 4.0
        assert g.mu[1] == 1.0

    def test_arrays_immutable(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            g.weights[0] = 2.0
        with pytest.raises(ValueError):
            g.matrix.data[0] = 2.0
        with pytest.raises(ValueError):
            g.matrix.indices[0] = 2

    @given(connected_graphs())
    @settings(max_examples=30, deadline=None)
    def test_reversibility(self, g):
        # mu(x) P(x,y) == mu(y) P(y,x) reduces to symmetric stored weights
        W = {}
        for x in range(g.vertex_count):
            for k in range(g.indptr[x], g.indptr[x + 1]):
                W[(x, int(g.indices[k]))] = float(g.weights[k])
        for (x, y), w in W.items():
            assert abs(w - W[(y, x)]) <= 1e-12 * w


class TestArrayConstruction:
    """The array code against the per-edge and per-vertex loops."""

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_graph_matches_loop(self, case):
        n, edges = case
        assert_matches_reference(WeightedGraph(n, edges),
                                 graph_reference(n, edges))

    @given(malformed_edge_lists())
    @settings(max_examples=200, deadline=None)
    @example((3, [(0, 3, math.nan), (0, 1, 1.0)]))
    @example((3, [(0, 1, 1.0), (2, 2, 0.0), (1, 0, 1.0)]))
    @example((3, [(1, 2, 1.0), (2, 1, math.inf), (0, 1, 1.0)]))
    def test_first_error_matches_loop(self, case):
        n, edges = case
        messages = []
        for build in (graph_reference, WeightedGraph):
            try:
                build(n, edges)
                messages.append(None)
            except GraphFormatError as exc:
                messages.append(str(exc))
        ref, got = messages
        if ref is None:
            # a well-formed list may still leave the graph disconnected
            assert got in (None, "graph is not connected",
                           "isolated vertex (graph must be connected)")
        else:
            assert got == ref

    @given(edge_lists(), st.data())
    @settings(max_examples=60, deadline=None)
    @example((4, [(0, 1, 2.0 ** -53), (0, 2, 2.0 ** -53), (0, 3, 1.0),
                  (1, 1, 0.7), (0, 0, 0.1)]), None)
    def test_shrink_matches_loop(self, case, data):
        g = WeightedGraph(*case)
        n = g.vertex_count
        A = [1, 2, 3] if data is None else data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1,
                     unique=True))
        if len(set(A)) == n:
            return
        ref, a, old_to_new = shrink_reference(g, A)
        sr = shrink(g, A)
        assert_matches_reference(sr.graph, ref)
        assert (sr.a, sr.old_to_new.tolist()) == (a, old_to_new)

    @given(st.one_of(edge_lists(hub=True).map(lambda c: WeightedGraph(*c)),
                     stored_walks(edge_lists(hub=True))))
    @settings(max_examples=60, deadline=None)
    def test_transition_profile_matches_loop(self, g):
        assert np.diff(g.indptr).max() >= 8
        assert host_profile(g).tolist() == profile_reference(g)

    @given(st.sampled_from([1, 2, 3]), st.sampled_from([3, 5, 7, 9]))
    @settings(max_examples=12, deadline=None)
    def test_lattice_box_matches_loop(self, d, L):
        g, c = lattice_box(d, L)
        ref, center = lattice_reference(d, L)
        assert_matches_reference(g, ref)
        assert c == center


class TestOneAdjacency:
    """The CSR is the only stored adjacency; the edge list is read off its
    upper triangle."""

    def test_no_stored_edge_list(self):
        g = path_graph(4)
        h = stored_graph(g.indptr, g.indices, g.weights)
        for x in (g, h, shrink(g, [0, 1]).graph, shrink(h, [3]).graph):
            assert "edges" not in vars(x)
            assert x.edges == x.edges and x.edges is not x.edges

    @given(stored_walks())
    @settings(max_examples=60, deadline=None)
    def test_from_csr_edges_are_upper_triangle(self, g):
        upper = [(x, int(y), float(w)) for x in range(g.vertex_count)
                 for y, w in zip(g.indices[g.indptr[x]:g.indptr[x + 1]],
                                 g.weights[g.indptr[x]:g.indptr[x + 1]])
                 if x <= y]
        assert g.edges == upper
        assert g.edge_count == len(upper)

    @pytest.mark.parametrize("entry, merged", [(2, 1.5), (3, 1.0)],
                             ids=["upper", "lower"])
    def test_shrink_reads_stored_upper_entry(self, entry, merged):
        # path 0-1-2-3 stores 1->2 at entry 2 and 2->1 at entry 3; the
        # merged edge 1-a carries the upper entry's weight
        g = path_graph(4)
        w = g.weights.copy()
        w[entry] = 1.5
        h = stored_graph(g.indptr, g.indices, w)
        assert shrink(h, [2, 3]).graph.edges == [(0, 1, 1.0), (1, 2, merged)]


class TestMetric:
    def test_path_distances(self):
        g = path_graph(5)
        assert bfs_distances(g.matrix, 0).tolist() == [0, 1, 2, 3, 4]

    def test_distance_to_self_is_zero(self):
        g, c = lattice_box(2, 5)
        assert bfs_distances(g.matrix, c)[c] == 0

    def test_5x5_box_max_distance_from_center(self):
        g, c = lattice_box(2, 5)
        assert bfs_distances(g.matrix, c).max() == 4

    def test_invalid_vertex(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="out of range"):
            ball(g, 7, 2)
        with pytest.raises(ValueError, match="out of range"):
            sphere(g, -1, 1)

    def test_path_ball_and_volume(self):
        g = path_graph(5)
        assert ball(g, 2, 2).tolist() == [1, 2, 3]
        assert volume(g, 2, 2) == 6.0

    def test_unit_ball_is_center(self):
        g, c = lattice_box(2, 7)
        assert ball(g, c, 1).tolist() == [c]

    def test_ball_memoized_read_only(self):
        g, c = lattice_box(2, 7)
        B = ball(g, c, 2)
        assert ball(g, c, 2) is B and not B.flags.writeable
        # keyed by the radius as given: B(c, 2.5) is {d <= 2}, not B(c, 2)
        assert ball(g, c, 2.5).tolist() == ball(g, c, 3).tolist() != \
            B.tolist()

    def test_ball_zero_empty(self):
        g = path_graph(3)
        assert ball(g, 1, 0).size == 0

    def test_ball_zero_checks_its_center(self):
        # the radius-0 ball of a vertex that does not exist is refused,
        # and no memo entry is kept for it
        g = path_graph(3)
        with pytest.raises(ValueError, match="vertex id 1000000000 out of"):
            ball(g, 10**9, 0)
        assert g._memo == {}

    def test_per_graph_memo_keys_on_the_function(self):
        # one dict per graph; a key leads with the undecorated function
        g, c = lattice_box(2, 7)
        B, V = ball(g, c, 2), volume(g, c, 2)
        assert g._memo[ball.__wrapped__, c, 2] is B
        assert g._memo[volume.__wrapped__, c, 2] == V
        assert len(g._memo) == 2

    def test_lattice_volume_doubling_values(self):
        # exact open-ball diamond counts; V(c,2R)/V(c,R) = 5 exactly at
        # the R=2 anchor and decays towards the continuum value 4
        g, c = lattice_box(2, 41)
        assert volume(g, c, 4) / volume(g, c, 2) == 5.0
        assert volume(g, c, 16) / volume(g, c, 8) == pytest.approx(4.2566, abs=1e-3)
        assert volume(g, c, 32) / volume(g, c, 16) <= 4.5

    @given(connected_graphs(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bfs_matches_deque_reference(self, g, data):
        n = g.vertex_count
        adj = adjacency(g)
        ref = [bfs_reference(adj, [v]) for v in range(n)]
        ecc = [max(d) for d in ref]
        assert eccentricities(g).tolist() == ecc
        # the truncation frontier: short of the top degree, at the top
        # eccentricity
        frontier = [v for v in range(n) if len(adj[v]) <
                    max(map(len, adj)) and ecc[v] == max(ecc)]
        for v, d in enumerate(ref):
            assert bfs_distances(g.matrix, v).tolist() == d
            for R in range(ecc[v] + 2):
                assert bfs_distances(g.matrix, v, R).tolist() == \
                    [k if k <= R else -1 for k in d]
                assert ball(g, v, R).tolist() == \
                    [y for y in range(n) if d[y] < R]
                # a radius between whole distances keeps {d < radius}
                assert ball(g, v, R + 0.5).tolist() == \
                    [y for y in range(n) if d[y] <= R]
                assert sphere(g, v, R).tolist() == \
                    [y for y in range(n) if d[y] == R]
                assert ball_inside_host(g, v, R) == (ecc[v] >= R and all(
                    d[f] >= R for f in frontier if f != v))
        A = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n, unique=True))
        multi = bfs_distances(g.matrix, A).tolist()
        assert multi == bfs_reference(adj, A)
        assert multi == [min(ref[a][v] for a in A) for v in range(n)]
        expect = sorted(set(A).union(*(adj[a] for a in A)))
        assert closure(g, A).tolist() == expect

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_volume_monotone_and_total(self, g):
        x = 0
        diam = int(eccentricities(g)[x])
        vols = [volume(g, x, R) for R in range(1, diam + 2)]
        assert all(b >= a for a, b in zip(vols, vols[1:]))
        assert vols[-1] == pytest.approx(g.total_measure())

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_ball_is_union_of_spheres(self, g):
        x = 0
        for R in (1, 2, 4):
            expect = sum(float(g.mu[sphere(g, x, k)].sum()) for k in range(R))
            assert volume(g, x, R) == pytest.approx(expect)


# hosts whose eccentricities the bound-based sweep must reproduce exactly
ECC_HOSTS = {
    "z41": lambda: lattice_box(2, 41)[0],
    "line129": lambda: lattice_box(1, 129)[0],
    "box7^3": lambda: lattice_box(3, 7)[0],
    "gasket6": lambda: sierpinski_gasket(6)[0],
    "vicsek4": lambda: vicsek_tree(4)[0],
    "tree9": lambda: binary_tree(9)[0],
    "radial_z41": lambda: apply_radial_weights(*lattice_box(2, 41), 0.5),
    "z21_corrupt": lambda: _corrupt_graph(lattice_box(2, 21)[0], 220, 221,
                                          0.5),
}


def eccentricities_reference(g):
    """One BFS per vertex: the largest hop distance out of it."""
    return [int(bfs_distances(g.matrix, v).max())
            for v in range(g.vertex_count)]


def count_bfs(monkeypatch):
    """Route ``_kernels.bfs_distances`` through a counter of the calls
    made from each function."""
    calls = {}
    bfs = _kernels.bfs_distances

    def counted(W, *args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return bfs(W, *args, **kwargs)

    monkeypatch.setattr(_kernels, "bfs_distances", counted)
    return calls


class TestEccentricities:
    """Exact eccentricities from BFS bounds, against one BFS per vertex."""

    @given(st.one_of(stored_walks(), stored_walks(edge_lists(hub=True))))
    @settings(max_examples=80, deadline=None)
    def test_stored_walks_match_reference(self, g):
        assert eccentricities(g).tolist() == eccentricities_reference(g)

    @pytest.mark.parametrize("host", sorted(ECC_HOSTS))
    def test_hosts_match_reference(self, host, monkeypatch):
        g = ECC_HOSTS[host]()
        calls = count_bfs(monkeypatch)
        ecc = eccentricities(g)
        assert calls["eccentricities"] <= g.vertex_count
        monkeypatch.undo()
        assert ecc.tolist() == eccentricities_reference(g)

    def test_few_bfs_on_z41(self, monkeypatch):
        g, _ = lattice_box(2, 41)
        calls = count_bfs(monkeypatch)
        eccentricities(g)
        assert calls["eccentricities"] <= 5

    def test_few_bfs_for_sweep_choices_on_z201(self, monkeypatch):
        g, _ = lattice_box(2, 201)
        calls = count_bfs(monkeypatch)
        auto_centers(g)
        graph.host_frontier(g)
        assert calls["eccentricities"] <= 8


class TestBoundary:
    def test_path_boundary(self):
        g = path_graph(5)
        assert boundary(g, [2]).tolist() == [1, 3]

    def test_boundary_of_everything_empty(self):
        g = path_graph(4)
        assert boundary(g, [0, 1, 2, 3]).size == 0

    def test_closure(self):
        g = path_graph(5)
        assert closure(g, [2]).tolist() == [1, 2, 3]

    def test_lattice_ball_boundary_is_sphere(self):
        g, c = lattice_box(2, 41)
        assert boundary(g, ball(g, c, 3)).tolist() == sphere(g, c, 3).tolist()


class TestShrink:
    def test_path_two_endpoints(self):
        g = path_graph(3)
        sr = shrink(g, [0, 2])
        assert sr.graph.vertex_count == 2
        assert sr.graph.edges == [(0, 1, 2.0)]
        assert sr.a == 1

    def test_singleton_is_relabel(self):
        g = path_graph(4)
        sr = shrink(g, [3])
        assert sr.graph.vertex_count == 4
        assert sorted(w for _, _, w in sr.graph.edges) == [1.0, 1.0, 1.0]
        assert eccentricities(sr.graph)[sr.a] == 3

    def test_four_cycle_opposite_pair(self):
        from einstein_lab.potential import resistance
        g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
        sr = shrink(g, [0, 2])
        assert sr.graph.vertex_count == 3
        assert sorted(w for _, _, w in sr.graph.edges) == [2.0, 2.0]
        # parallel-path reduction: a sees each remaining vertex at rho 1/2
        assert resistance(sr.graph, [sr.a], [sr.a, 0]) == pytest.approx(0.5)

    def test_rejects_empty_and_total(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            shrink(g, [])
        with pytest.raises(ValueError):
            shrink(g, [0, 1, 2])

    @given(connected_graphs())
    @settings(max_examples=25, deadline=None)
    def test_cut_weight_preserved(self, g):
        A = [v for v in range(g.vertex_count) if v % 2 == 0]
        if not A or len(A) == g.vertex_count:
            return
        inA = np.zeros(g.vertex_count, dtype=bool)
        inA[A] = True
        crossing = sum(w for u, v, w in g.edges if inA[u] != inA[v])
        sr = shrink(g, A)
        at_a = sum(w for u, v, w in sr.graph.edges if sr.a in (u, v))
        assert at_a == pytest.approx(crossing)
        assert sr.graph.mu[sr.a] == pytest.approx(crossing)


class TestVertexSets:
    """closure, boundary and shrink read their vertex set by one rule: ids
    in [0, n), repeats counted once."""

    @pytest.mark.parametrize("A", [[-1], [5], [2, 9]])
    @pytest.mark.parametrize("op", [closure, boundary, shrink],
                             ids=["closure", "boundary", "shrink"])
    def test_out_of_range_refused(self, op, A):
        # numpy would wrap -1 to the last vertex and index past n raw
        with pytest.raises(ValueError, match="vertex id out of range"):
            op(path_graph(5), A)

    def test_repeats_are_a_set(self):
        g = path_graph(5)
        assert closure(g, [2, 2]).tolist() == [1, 2, 3]
        assert boundary(g, [3, 2, 3]).tolist() == [1, 4]
        # six ids, four vertices: not the whole vertex set
        sr = shrink(g, [0, 0, 1, 1, 2, 3])
        assert (sr.a, sr.graph.edges) == (1, [(0, 1, 1.0)])
        assert sr.old_to_new.tolist() == [-1, -1, -1, -1, 0]


class TestP0:
    def test_path_interior(self):
        assert min_transition(path_graph(3))[0] == 0.5

    def test_regular_graph(self):
        cycle = WeightedGraph(5, [(i, (i + 1) % 5, 1.0) for i in range(5)])
        assert min_transition(cycle)[0] == pytest.approx(1 / 2)

    def test_vicsek_hub_degree(self):
        g, _ = vicsek_tree(3)
        p0 = min_transition(g)[0]
        assert p0 == pytest.approx(1 / 4)
        # the hub's degree meets the bound deg <= 1/p0 exactly
        assert np.diff(g.indptr).max() == pytest.approx(1 / p0)

    @given(stored_walks())
    @settings(max_examples=60, deadline=None)
    def test_min_transition_matches_loop(self, g):
        assert min_transition(g) == min_transition_reference(g)


class TestTextFormat:
    def test_round_trip_byte_stable(self, tmp_path):
        g, _ = lattice_box(2, 5)
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save(g, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_and_weights(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a comment\n3 2\n0 1 2.5\n1 2 0.5\n")
        g = load(p)
        assert g.vertex_count == 3
        assert g.edges == [(0, 1, 2.5), (1, 2, 0.5)]

    def test_bad_header(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3\n")
        with pytest.raises(GraphFormatError):
            load(p)

    # a field that is not the number it stands for names the file and
    # the line, as a wrong field count does
    @pytest.mark.parametrize("text, message", [
        ("3 1\n1 x 1.0\n", "bad edge line '1 x 1.0'"),
        ("3 1\n1 2 abc\n", "bad edge line '1 2 abc'"),
        ("3 1\n1 2.5 1.0\n", "bad edge line '1 2.5 1.0'"),
        ("3 two\n0 1 1.0\n", "header must be 'n m'")],
        ids=["vertex", "weight", "fractional-vertex", "header"])
    def test_number_that_does_not_parse(self, tmp_path, text, message):
        p = tmp_path / "g.txt"
        p.write_text(text)
        with pytest.raises(GraphFormatError) as info:
            load(p)
        assert str(info.value) == f"{p}: {message}"

    def test_wrong_edge_count(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 2\n0 1 1.0\n")
        with pytest.raises(GraphFormatError):
            load(p)

    def test_disconnected_rejected_at_load(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("4 2\n0 1 1.0\n2 3 1.0\n")
        with pytest.raises(GraphFormatError):
            load(p)


def test_annulus_volume_is_difference():
    g, c = lattice_box(2, 21)
    assert annulus_volume(g, c, 2, 5) == volume(g, c, 5) - volume(g, c, 2)
    with pytest.raises(ValueError):
        annulus_volume(g, c, 5, 5)
