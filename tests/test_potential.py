import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from einstein_lab.conditions import default_grid, valid_cells
from einstein_lab.errors import ConvergenceError, MarginError, UnreachableError
from einstein_lab.generators import (apply_radial_weights, lattice_box,
                                     sierpinski_gasket)
from einstein_lab.graph import (WeightedGraph, ball, boundary,
                                eccentricities, shrink, volume)
from einstein_lab import potential
from einstein_lab.potential import (GreenOperator, exit_times, g_condition,
                                    harmonic_measure,
                                    harnack_constant, hg_constant, lambda_min,
                                    layered_lower_bound, max_exit_time,
                                    mean_exit_time, resistance,
                                    resistance_annulus, shrunk_exit_time)
from einstein_lab.walker import WalkConfig, mc_exit_time
from test_graph import (adjacency, bfs_reference, connected_graphs,
                        edge_lists, stored_walks)


def path_graph(n, w=1.0):
    return WeightedGraph(n, [(i, i + 1, w) for i in range(n - 1)])


def subnormal_tail():
    """5-vertex path with weights 1, 1, 1e-320, 1e-320: the exit-time
    solve on {1, 2, 3} comes back NaN and infinite."""
    return WeightedGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1e-320),
                             (3, 4, 1e-320)])


def split_path():
    """65-vertex unit path with weight 1e-320 on edges 28-29 and 35-36:
    the block on 29..35 is decoupled in float64, so M is singular."""
    return WeightedGraph(65, [(i, i + 1, 1e-320 if i in (28, 35) else 1.0)
                              for i in range(64)])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=16))
    weights = st.floats(min_value=0.25, max_value=4.0,
                        allow_nan=False, allow_infinity=False)
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges[(u, v)] = draw(weights)
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        key = (min(u, v), max(u, v))
        if key[0] != key[1] and key not in edges:
            edges[key] = draw(weights)
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


# every kind of graph the lab accepts: hub rows, self-loops, and stored
# walks with asymmetric weights
ACCEPTED_GRAPHS = st.one_of(
    connected_graphs(),
    edge_lists(hub=True).map(lambda c: WeightedGraph(*c)),
    stored_walks(),
    stored_walks(edge_lists(hub=True)),
)


class TestDirichlet:
    def test_empty_interior_is_boundary_data(self):
        # B = A leaves nothing to solve: the potential is 1 on A and 0 on
        # its cut, so the one unit edge carries a unit current
        assert resistance(path_graph(3), [0], [0]) == 1.0

    def test_source_sink_overlap_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="source must lie inside"):
            resistance(g, [0, 3], [0, 1, 2])


class TestResistance:
    def test_series_path(self):
        g = path_graph(5)
        assert resistance(g, [0], [0, 1, 2, 3]) == pytest.approx(4.0)

    def test_single_edge_conductance(self):
        g = WeightedGraph(2, [(0, 1, 2.0)])
        assert resistance(g, [0], [0]) == pytest.approx(0.5)

    def test_energy_equals_current(self):
        g, c = lattice_box(2, 21)
        A = ball(g, c, 2)
        B = ball(g, c, 6)
        values = capacity_potential(g, A, B)
        energy = sum(w * (values[u] - values[v]) ** 2 for u, v, w in g.edges)
        assert 1.0 / resistance(g, A, B) == pytest.approx(energy, rel=1e-9)

    def test_annulus_surface_convention_on_line(self):
        # interior of Z: rho(x,r,R) = (R-r)/2, two chains of R-r edges
        g, c = lattice_box(1, 129)
        for r, R in ((2, 4), (4, 8), (2, 8), (8, 32)):
            assert resistance_annulus(g, c, r, R) == pytest.approx(
                (R - r) / 2, rel=1e-10)

    def test_annulus_monotone(self):
        g, c = lattice_box(2, 41)
        assert resistance_annulus(g, c, 2, 8) >= resistance_annulus(g, c, 2, 6)
        assert resistance_annulus(g, c, 2, 8) >= resistance_annulus(g, c, 3, 8)

    def test_outer_ball_must_be_proper(self):
        g = path_graph(5)
        with pytest.raises(MarginError):
            resistance_annulus(g, 2, 1, 10)

    @pytest.mark.parametrize("side", [41, 401])
    def test_warm_resistance_costs_its_ball(self, side):
        # with its balls memoized, rho(x,2,8) works on B(x,8) and the cut
        # of B(x,3) only: about 36 KiB on either host, where one float64
        # per vertex of 401x401 alone is 1.2 MiB
        g, c = lattice_box(2, side)
        ball(g, c + 1, 3)
        ball(g, c + 1, 8)
        resistance_annulus(g, c, 2, 8)
        tracemalloc.start()
        try:
            resistance_annulus(g, c + 1, 2, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def layered_reference(g, A, B):
    """The bound as a loop over the edge list, in its sorted order."""
    dA = bfs_reference(adjacency(g), A)
    sink = set(range(g.vertex_count)) - set(B.tolist())
    L = min(dA[v] for v in sink)
    cross = [0.0] * L
    for u, v, w in g.edges:
        lo, hi = sorted((dA[u], dA[v]))
        if hi == lo + 1 and lo < L:
            cross[lo] += w
    return float(np.sum(1.0 / np.array(cross))), L


class TestLayeredBound:
    @given(ACCEPTED_GRAPHS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_edge_loop(self, g, data):
        # any A inside any proper B, B not necessarily connected
        n = g.vertex_count
        B = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1),
                                              min_size=1, max_size=n - 1))))
        A = data.draw(st.lists(st.sampled_from(B.tolist()), min_size=1))
        assert layered_lower_bound(g, A, B) == layered_reference(g, A, B)

    def test_refuses_bad_sets(self):
        g = path_graph(5)
        for A, B, message in (([], [0, 1], "source set is empty"),
                              ([0, 2], [0, 1], "source touches the sink"),
                              ([0], range(5), "sink is empty")):
            with pytest.raises(ValueError, match=message):
                layered_lower_bound(g, A, B)

    @pytest.mark.parametrize("side", [41, 401])
    def test_warm_bound_costs_its_ball(self, side):
        # with its balls memoized, the bound for B(x,4) in B(x,8) reads
        # closure(B(x,8)) only: about 38 KiB on either host, where one
        # int32 per vertex of 401x401 alone is 628 KiB
        g, c = lattice_box(2, side)
        A, B = ball(g, c + 1, 4), ball(g, c + 1, 8)
        layered_lower_bound(g, ball(g, c, 4), ball(g, c, 8))
        tracemalloc.start()
        try:
            layered_lower_bound(g, A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_self_loops_and_sum_order(self):
        # the first shell crossing sums to 1 + 2**-52 in edge order and
        # to 1.0 when the 1.0 edge comes first: the order is observable
        tiny = 2.0 ** -53
        g = WeightedGraph(6, [(0, 0, 3.0), (0, 3, tiny), (0, 4, tiny),
                              (1, 2, 1.0), (2, 2, 0.9), (2, 5, 1e6),
                              (3, 5, 1e6), (4, 5, 1e6)])
        A, B = np.array([0, 1]), np.arange(5)
        bound, L = layered_lower_bound(g, A, B)
        assert (bound, L) == layered_reference(g, A, B)
        assert bound != 1.0 + 1.0 / 3e6
        for r, R in ((1, 1), (1, 2), (2, 2)):
            A, B = ball(g, 5, r), ball(g, 5, R)
            assert layered_lower_bound(g, A, B) == layered_reference(g, A, B)

    def test_subnormal_crossing_unreachable(self):
        # the crossing 28-29 is 1e-320, whose reciprocal overflows
        g = split_path()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnreachableError, match="below float64"):
                layered_lower_bound(g, ball(g, 32, 2), ball(g, 32, 4))
            assert layered_lower_bound(g, ball(g, 32, 8), ball(g, 32, 16)) \
                == (4.5, 9)

    def test_path_exact(self):
        g = path_graph(5)
        bound, L = layered_lower_bound(g, [0], [0, 1, 2, 3])
        assert bound == pytest.approx(4.0)
        assert L == 4

    def test_k4(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1),
                              (1, 2, 1), (1, 3, 1), (2, 3, 1)])
        bound, _ = layered_lower_bound(g, [0], [0, 1, 2])
        assert bound == pytest.approx(1 / 3)
        assert bound <= resistance(g, [0], [0, 1, 2]) + 1e-12

    def test_lattice_annulus(self):
        g, c = lattice_box(2, 41)
        A, B = ball(g, c, 2), ball(g, c, 8)
        bound, L = layered_lower_bound(g, A, B)
        rho = resistance(g, A, B)
        assert bound <= rho * (1 + 1e-9)
        assert L == 7     # from the closed ball {d<=1} to {d>=8}
        v = volume(g, c, 8) - volume(g, c, 2)
        assert bound * v >= L * L * (1 - 1e-9)


class TestGreen:
    def test_singleton_one_visit(self):
        g = path_graph(3)
        op = GreenOperator(g, [1])
        assert op.visits(1, 1) == pytest.approx(1.0)
        assert op.kernel(1, 1) == pytest.approx(0.5)

    def test_diagonal_is_point_resistance(self):
        g, c = lattice_box(2, 21)
        op = GreenOperator(g, ball(g, c, 4))
        rho = resistance(g, [c], ball(g, c, 4))
        assert op.kernel(c, c) == pytest.approx(rho, rel=1e-8)

    @given(small_graphs())
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_exit_identity(self, g):
        region = ball(g, 0, 2)
        if region.size == g.vertex_count:
            return
        op = GreenOperator(g, region)
        cols = np.column_stack([op.column(z) for z in region])
        assert np.allclose(cols, cols.T, rtol=1e-9, atol=1e-12)
        e = op.exit_times()
        for i, y in enumerate(region):
            total = sum(op.kernel(int(y), int(z)) * g.mu[z] for z in region)
            assert total == pytest.approx(e[i], rel=1e-8)

    def test_whole_graph_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            GreenOperator(g, [0, 1, 2])

    @pytest.mark.parametrize("v", [-1, 0, 1, 5, 7, 8, 10, 11])
    def test_ids_outside_region_rejected(self, v):
        # below, between and above the region; -1 must not wrap to 9
        g = path_graph(10)
        op = GreenOperator(g, [2, 3, 4, 6, 9])
        with pytest.raises(ValueError, match="not in region"):
            op.local(v)
        with pytest.raises(ValueError, match="not in region"):
            op.kernel(v, 3)
        assert [op.local(y) for y in (2, 3, 4, 6, 9)] == [0, 1, 2, 3, 4]

    def test_residual_is_worst_checked_solve(self):
        g, c = lattice_box(2, 21)
        op = GreenOperator(g, ball(g, c, 5))
        assert op.residual == 0.0
        rhs = np.zeros(op.size)
        rhs[op.local(c)] = 1.0
        seen = [potential._relative_residual(op._M, op.column(c), rhs),
                potential._relative_residual(op._M, op.exit_times(), op.mu)]
        assert op.residual == max(seen)
        assert 0.0 < op.residual <= potential.SOLVE_TOL

    def test_nan_solve_is_convergence_error(self):
        # a NaN residual must fail the contract, not pass as 0.0
        op = GreenOperator(subnormal_tail(), [1, 2, 3])
        with pytest.raises(ConvergenceError) as exc:
            op.exit_times()
        assert math.isnan(exc.value.residual)
        assert op.residual == 0.0

    def test_singular_factor_is_convergence_error(self):
        g = split_path()
        with pytest.raises(ConvergenceError, match="exactly singular"):
            GreenOperator(g, ball(g, 32, 8))
        with pytest.raises(ConvergenceError, match="exactly singular"):
            mean_exit_time(g, 32, 8)
        with pytest.raises(ConvergenceError, match="exactly singular"):
            lambda_min(g, ball(g, 32, 8))


class TestExitTimes:
    def test_unit_ball_one_step(self):
        g, c = lattice_box(2, 7)
        assert mean_exit_time(g, c, 1) == pytest.approx(1.0)

    def test_gamblers_ruin(self):
        g, c = lattice_box(1, 21)
        for R in (1, 2, 3):
            assert mean_exit_time(g, c, R) == pytest.approx(R * R, rel=1e-10)

    def test_monotone_unit_steps(self):
        g, c = lattice_box(2, 21)
        values = [mean_exit_time(g, c, R) for R in range(1, 8)]
        for a, b in zip(values, values[1:]):
            assert b >= a + 1 - 1e-9

    def test_raising_call_stores_nothing(self):
        # B(c,100) covers the host: the MarginError is raised again on
        # every call, and no value is kept under the call's key
        g, c = lattice_box(2, 7)
        for _ in range(2):
            with pytest.raises(MarginError):
                mean_exit_time(g, c, 100)
        assert not any(k[0] is mean_exit_time.__wrapped__ for k in g._memo)

    def test_cold_exit_times_leave_no_host_arrays(self):
        # a ball is found by a BFS that stops at its radius and only the
        # ball is kept: 50 new centers on a 201x201 host must not leave a
        # host-length array (158 KiB of int32 each) behind
        g, c = lattice_box(2, 201)
        mean_exit_time(g, c - 1, 4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(50):
                mean_exit_time(g, c + k, 4)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2 ** 20

    def test_exit_field_positive_and_max(self):
        g, c = lattice_box(1, 21)
        op = GreenOperator(g, ball(g, c, 4))
        e = op.exit_times()
        assert op.region[np.argmax(e)] == c
        assert e.max() == pytest.approx(16.0)
        assert np.all(e >= 1 - 1e-12)

    def test_ebar_at_least_center_value(self):
        g, c = lattice_box(2, 21)
        assert max_exit_time(g, c, 5) >= mean_exit_time(g, c, 5) - 1e-12

    def test_margin_error_on_whole_graph(self):
        g = path_graph(5)
        with pytest.raises(MarginError):
            mean_exit_time(g, 2, 40)


def count_factors(monkeypatch):
    """A list that grows by one per factorization from here on."""
    factors = []
    make_solver = potential._make_solver
    monkeypatch.setattr(potential, "_make_solver",
                        lambda M: factors.append(M.shape) or make_solver(M))
    return factors


def fresh_exit_times(g, region):
    """The exit-time vector of a new GreenOperator, bypassing the memo."""
    return GreenOperator(g, region).exit_times()


class TestExitMemo:
    def test_translates_share_one_solve(self, monkeypatch):
        g, c = lattice_box(2, 41)
        factors = count_factors(monkeypatch)
        e0, e1 = mean_exit_time(g, c, 4), mean_exit_time(g, c + 1, 4)
        assert len(factors) == 1
        ebar = max_exit_time(g, c, 4)
        assert len(factors) == 1
        fresh, _ = lattice_box(2, 41)
        for x, value in ((c, e0), (c + 1, e1)):
            B = ball(fresh, x, 4)
            E = fresh_exit_times(fresh, B)
            assert value == float(E[np.searchsorted(B, x)])
        assert ebar == float(E.max())

    @given(small_graphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_fresh_operator(self, g, data):
        regions = [proper_subsets(data, g) for _ in range(3)]
        for region in regions + regions[::-1]:
            E = exit_times(g, region)
            assert E.tobytes() == fresh_exit_times(g, region).tobytes()
        assert len(g._exit_times) <= len({r.tobytes() for r in regions})

    def test_equal_length_streams_of_other_shapes(self):
        # {5, 6} has n = 2 and two off-diagonal entries, eight vertices
        # with no edge between them n = 8 and none: both hash 64 bytes
        g = WeightedGraph(20, [(i, i + 1, 1.0 + i / 8) for i in range(19)])
        pair, spread = np.array([5, 6]), np.arange(1, 17, 2)
        for region in (pair, spread, pair, spread):
            assert exit_times(g, region).tobytes() == \
                fresh_exit_times(g, region).tobytes()
        assert len(g._exit_times) == 2

    def test_key_carries_the_shapes(self):
        # one system's arrays are the other's bytes cut elsewhere
        mu = np.array([1.5, 2.5, 3.5, 4.5])
        key = potential._system_key
        empty = np.empty(0, dtype=np.int64)
        four = key(4, empty, empty, np.empty(0), mu)
        one = key(1, mu[:1].view(np.int64), mu[1:2].view(np.int64), mu[2:3],
                  mu[3:])
        assert four != one

    def test_failed_solve_is_not_stored(self):
        g = split_path()
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="exactly singular"):
                mean_exit_time(g, 32, 8)
        assert g._exit_times == {}

    def test_second_pass_builds_nothing(self, monkeypatch):
        # one vector per distinct system, and every one of them kept
        g, _ = sierpinski_gasket(5)
        first = [mean_exit_time(g, x, 3) for x in range(g.vertex_count)]
        factors = count_factors(monkeypatch)
        assert [mean_exit_time(g, x, 3)
                for x in range(g.vertex_count)] == first
        assert factors == []
        keys = set()
        for x in range(g.vertex_count):
            B = ball(g, x, 3)
            keys.add(potential._system_key(
                B.size, *potential._gather(g, B, B), g.mu[B]))
        assert len(g._exit_times) == len(keys) < g.vertex_count

    def test_miss_gathers_once(self, monkeypatch):
        g, c = lattice_box(2, 21)
        calls = []
        gather = potential._gather
        monkeypatch.setattr(potential, "_gather",
                            lambda *a: calls.append(a) or gather(*a))
        factors = count_factors(monkeypatch)
        E = exit_times(g, ball(g, c, 3))
        assert len(factors) == 1 and len(calls) == 1
        assert E.tobytes() == fresh_exit_times(g, ball(g, c, 3)).tobytes()

    def test_returned_vector_is_read_only(self):
        g, c = lattice_box(2, 21)
        E = exit_times(g, ball(g, c, 3))
        with pytest.raises(ValueError, match="read-only"):
            E[0] = 0.0
        assert exit_times(g, ball(g, c + 1, 3)) is E


class TestVertexSet:
    def test_memoized_ball_is_returned_itself(self):
        g, c = lattice_box(2, 21)
        B = ball(g, c, 3)
        assert potential._as_vertex_set(g, B) is B

    def test_other_input_is_sorted_and_deduplicated(self):
        g = path_graph(10)
        repeated = np.array([1, 1, 3])
        descending = np.array([7, 4, 2])
        narrow = np.array([2, 4, 7], dtype=np.int32)
        for A in (repeated, descending, narrow):
            A.setflags(write=False)
        for A, want in (([5, 2, 5, 0], [0, 2, 5]), (repeated, [1, 3]),
                        (descending, [2, 4, 7]), (narrow, [2, 4, 7])):
            got = potential._as_vertex_set(g, A)
            assert got.dtype == np.int64 and got.tolist() == want

    def test_writable_input_is_never_aliased(self):
        g = path_graph(10)
        A = np.array([2, 4, 7])
        got = potential._as_vertex_set(g, A)
        assert got.tolist() == [2, 4, 7]
        assert not np.shares_memory(got, A)

    def test_out_of_range_refused(self):
        g = path_graph(10)
        frozen = np.array([3, 10])
        frozen.setflags(write=False)
        for A in ([-1, 2], [3, 10], frozen):
            with pytest.raises(ValueError, match="out of range"):
                potential._as_vertex_set(g, A)


def shrunk_host_exit_time(g, x, R):
    """E_a(T_B) with A = B(x,R) shrunk in the whole host and B = B(x,2R):
    the definition shrunk_exit_time must meet bit for bit."""
    sr = shrink(g, ball(g, x, R))
    keep = sr.old_to_new[ball(g, x, 2 * R)]
    region = np.sort(np.append(keep[keep >= 0], sr.a))
    return float(exit_times(sr.graph, region)[region.size - 1])


class TestShrunkExitTime:
    @given(ACCEPTED_GRAPHS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_shrunk_ball_equals_shrunk_host(self, g, data):
        # both solve the same system, so a weight ratio beyond float64
        # fails both alike, with the same residual
        x = data.draw(st.integers(0, g.vertex_count - 1))
        R = data.draw(st.sampled_from([1, 2, 3]))
        assume(ball(g, x, 2 * R).size < g.vertex_count)
        got = outcome(shrunk_exit_time, g, x, R)
        want = outcome(shrunk_host_exit_time, g, x, R)
        if isinstance(want, ConvergenceError):
            assert (str(got), repr(got.residual)) == \
                (str(want), repr(want.residual))
        else:
            assert got == want

    def test_radial_z15_cells(self):
        # the cE<rm cells of the radial z15 sweep, whose weights span
        # e^{-0.5 d}: the last bits of E are the host shrink's
        g = apply_radial_weights(*lattice_box(2, 15), 0.5)
        cells = valid_cells(g, default_grid(g), 2)[0]
        assert cells
        for x, R in cells:
            assert shrunk_exit_time(g, x, R) == \
                shrunk_host_exit_time(g, x, R)


class TestLambdaMin:
    def test_singleton_no_loop(self):
        g = path_graph(3)
        r = lambda_min(g, [1])
        assert r.lam == pytest.approx(1.0)
        assert r.residual <= 1e-9

    def test_two_vertex_characteristic_polynomial(self):
        g = path_graph(3)
        r = lambda_min(g, [0, 1])
        assert r.lam == pytest.approx(1 - 1 / math.sqrt(2), rel=1e-9)

    def test_range_bounds(self):
        g, c = lattice_box(2, 21)
        r = lambda_min(g, ball(g, c, 5))
        assert 0 < r.lam <= 2

    def test_lrv_product_bound(self):
        g, c = lattice_box(2, 21)
        lam = lambda_min(g, ball(g, c, 8)).lam
        prod = lam * resistance_annulus(g, c, 4, 8) * volume(g, c, 4)
        assert prod <= 1 + 1e-8

    def test_convergence_error_reports_residual(self, monkeypatch):
        g, c = lattice_box(2, 21)
        monkeypatch.setattr(potential, "EIGEN_MAXITER", 1)
        with pytest.raises(ConvergenceError) as exc:
            lambda_min(g, ball(g, c, 8))
        assert exc.value.residual > 0


class TestHarmonicMeasure:
    def test_path_symmetric_split(self):
        g = path_graph(5)
        hm = harmonic_measure(g, 2, 2)
        assert hm.boundary.tolist() == [0, 4]
        assert hm.row(2).tolist() == pytest.approx([0.5, 0.5])

    def test_rows_sum_to_one_nonnegative(self):
        g, c = lattice_box(2, 21)
        hm = harmonic_measure(g, c, 4)
        assert np.all(hm.omega >= -1e-12)
        assert np.allclose(hm.omega.sum(axis=1), 1.0, atol=1e-9)

    def test_lattice_exit_law_obeys_diamond_geometry(self):
        # from the center of an l1 ball the walk exits most often through
        # the flat diagonal faces and least often at the four axis tips
        g, c = lattice_box(2, 41)
        hm = harmonic_measure(g, c, 4)
        row = hm.row(c)
        L = 41
        ci, cj = divmod(c, L)
        idx = {int(z): k for k, z in enumerate(hm.boundary)}
        diag = [row[idx[(ci + di) * L + (cj + dj)]]
                for di, dj in ((2, 2), (2, -2), (-2, 2), (-2, -2))]
        axis = [row[idx[(ci + di) * L + (cj + dj)]]
                for di, dj in ((4, 0), (-4, 0), (0, 4), (0, -4))]
        assert diag == pytest.approx([diag[0]] * 4, rel=1e-9)
        assert axis == pytest.approx([axis[0]] * 4, rel=1e-9)
        assert min(diag) > max(axis)
        assert row.max() == pytest.approx(max(diag), rel=1e-12)


class TestHarnack:
    def test_single_boundary_vertex(self):
        g = path_graph(4)      # B(1,2) = {0,1,2}, boundary {3}
        assert harnack_constant(g, 1, 1) == pytest.approx(1.0)

    def test_path_center_trivial_half_ball(self):
        g = path_graph(7)
        assert harnack_constant(g, 3, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("omega, want", [
        ([[0.5, 0.25], [0.25, 0.75]], 3.0),
        ([[0.5, 0.0], [0.5, 0.0]], 1.0),          # a kernel zero everywhere
        ([[0.5, 0.0], [0.25, 0.5]], math.inf),    # ... or only somewhere
        ([[0.9, 0.1], [0.9, 0.1]], 1.0),
    ])
    def test_ratio_rule(self, monkeypatch, omega, want):
        # inf where a kernel vanishes on part of the half ball, else the
        # largest max/min ratio over kernels, never below 1
        g = path_graph(5)
        monkeypatch.setattr(potential, "harmonic_measure", lambda g, x, R:
                            potential.HarmonicMeasure(np.array([1, 2]),
                                                      np.array([0, 4]),
                                                      np.array(omega)))
        assert harnack_constant(g, 2, 2) == want

    def test_lattice_values(self):
        g, c = lattice_box(2, 41)
        got = [harnack_constant(g, c, R) for R in (2, 3, 4)]
        assert got == pytest.approx([4.125581395348839, 6.816918719524865,
                                     8.775867231455527], rel=1e-9)
        assert all(math.isfinite(h) and h >= 1 for h in got)


class TestGreenRatios:
    def test_path_profile_exact(self):
        # B = B(4,4) on the 9-path: kernel 2 at the center, linear decay
        g = path_graph(9)
        assert hg_constant(g, 4, 2) == pytest.approx(2 / 3, rel=1e-10)
        lo, hi, hg = g_condition(g, 4, 2)
        assert hg == hg_constant(g, 4, 2)
        assert lo == pytest.approx(1.5 * 6 / 16, rel=1e-10)
        assert hi == pytest.approx(1.0 * 6 / 16, rel=1e-10)

    def test_lattice_green_ratio_band(self):
        # rho(x,R,2R) is comparable to the kernel extremes on each side
        # of the annulus boundary: the measured expression of (G-cap)
        g, c = lattice_box(2, 41)
        for R in (2, 4, 8):
            lo, hi, _ = potential._green_ball_profile(g, c, R)
            rho = resistance_annulus(g, c, R, 2 * R)
            assert 0.5 <= hi / rho <= 2.5
            assert 0.5 <= lo / rho <= 2.5

    def test_margin_guard(self):
        g = path_graph(7)
        for quantity in (hg_constant, g_condition):
            for R, error in ((4, MarginError), (0, ValueError)):
                with pytest.raises(error):
                    quantity(g, 3, R)


@pytest.fixture(scope="module")
def hostile():
    from einstein_lab.generators import apply_radial_weights
    g, c = lattice_box(2, 33)
    return apply_radial_weights(g, c, 0.25), c


class TestSolveContracts:
    """Exponentially decaying radial weights push the R=32 systems past
    float64: the solvers must refuse rather than return garbage."""

    def test_exit_solve_refuses_past_residual_contract(self, hostile):
        g, c = hostile
        with pytest.raises(ConvergenceError) as exc:
            mean_exit_time(g, c, 32)
        assert exc.value.residual > potential.SOLVE_TOL

    def test_lambda_guards_against_subresolution_eigenvalue(self, hostile):
        g, c = hostile
        with pytest.raises(ConvergenceError):
            lambda_min(g, ball(g, c, 32))

    def test_moderate_radii_still_fine(self, hostile):
        g, c = hostile
        assert mean_exit_time(g, c, 4) > 1
        assert 0 < lambda_min(g, ball(g, c, 4)).lam <= 1


def test_exit_time_green_consistency_on_gasket():
    g, corner = sierpinski_gasket(4)
    region = ball(g, corner, 6)
    op = GreenOperator(g, region)
    e = op.exit_times()
    loc = op.local(corner)
    assert e[loc] == pytest.approx(mean_exit_time(g, corner, 6), rel=1e-10)
    assert float(op.column(corner) @ op.mu) == pytest.approx(e[loc], rel=1e-9)


# -- the ball-local gather against the scipy slicing it replaced --------------

# connected graphs, graphs with self-loops, a hub of degree >= 8 and weights
# whose sums depend on their order (1 + 2**-53 + 2**-53), and stored walks
# (the test helper ``stored_graph``) whose two directions carry different
# weights
GATHER_GRAPHS = st.one_of(
    connected_graphs(),
    edge_lists(hub=True).map(lambda c: WeightedGraph(*c)),
    stored_walks(),
    stored_walks(edge_lists(hub=True)),
)


def proper_subsets(data, g, min_size=1):
    n = g.vertex_count
    picked = data.draw(st.sets(st.integers(0, n - 1), min_size=min_size,
                               max_size=n - 1))
    return np.array(sorted(picked), dtype=np.int64)


def dirichlet_matrix_reference(g, region):
    M = (sp.diags(g.mu[region]) - g.matrix[region][:, region]).tocsc()
    M.sort_indices()
    return M


def rhs_reference(g, interior, A):
    return np.asarray(g.matrix[interior][:, A].sum(axis=1)).ravel()


def omega_reference(g, x, R):
    """One sparse column of W[B, boundary] per solve."""
    B = ball(g, x, R)
    bnd = boundary(g, B)
    op = GreenOperator(g, B)
    W = g.matrix[B][:, bnd].tocsc()
    omega = np.empty((B.size, bnd.size))
    for k in range(bnd.size):
        omega[:, k] = op.solve(W[:, k].toarray().ravel())
    return omega


def current_out_reference(g, A, values):
    """A loop over the rows of A with a host-length membership mask."""
    inA = np.zeros(g.vertex_count, dtype=bool)
    inA[A] = True
    total = 0.0
    for x in A:
        lo, hi = g.indptr[x], g.indptr[x + 1]
        nbr = g.indices[lo:hi]
        w = g.weights[lo:hi]
        outside = ~inA[nbr]
        total += float(np.sum(w[outside] * (values[x] - values[nbr[outside]])))
    return total


def capacity_potential(g, A, B):
    """The host-length potential, 1 on A and 0 off B, solved on B minus A
    from the reference right-hand side."""
    interior = np.setdiff1d(B, A)
    values = np.zeros(g.vertex_count)
    values[A] = 1.0
    if interior.size:
        values[interior] = GreenOperator(g, interior).solve(
            rhs_reference(g, interior, A))
    return values


def resistance_reference(g, A, B):
    """The current out of A for the reference capacity potential: 1/rho."""
    return current_out_reference(g, A, capacity_potential(g, A, B))


def cut_degree(g, A):
    """Most cut neighbours of one row of A."""
    inA = np.isin(np.arange(g.vertex_count), A)
    return max((int(np.sum(~inA[g.indices[g.indptr[x]:g.indptr[x + 1]]]))
                for x in A), default=0)


def cut_weight(g, A):
    """Total weight of the entries from A to its complement."""
    outside = ~np.isin(np.arange(g.vertex_count), A)
    return float(g.matrix[A][:, outside].sum())


def lambda_min_reference(g, A):
    """Inverse iteration on the conjugated S = D^-1/2 M D^-1/2 with its
    own factor: (lam, iterations)."""
    region = np.unique(np.asarray(A, dtype=np.int64))
    M = (sp.diags(g.mu[region]) - g.matrix[region][:, region]).tocsr()
    d = np.sqrt(g.mu[region])
    S = (sp.diags(1.0 / d) @ M @ sp.diags(1.0 / d)).tocsc()
    solve = potential._make_solver(S)
    v = np.ones(region.size) / np.sqrt(region.size)
    for it in range(1, potential.EIGEN_MAXITER + 1):
        w = solve(v)
        w /= np.linalg.norm(w)
        Sw = S @ w
        lam = float(w @ Sw)
        if np.linalg.norm(Sw - lam * w) <= potential.EIGEN_TOL:
            if lam <= 0.0:
                raise ConvergenceError("below numerical resolution")
            return lam, it
        v = w
    raise ConvergenceError("no convergence")


def outcome(fn, *args):
    """fn's value, or the ConvergenceError or UnreachableError it raises."""
    try:
        return fn(*args)
    except (ConvergenceError, UnreachableError) as exc:
        return exc


class TestGather:
    @given(GATHER_GRAPHS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_dirichlet_matrix_matches_slicing(self, g, data):
        region = proper_subsets(data, g)
        M = potential._dirichlet_matrix(g, region)
        ref = dirichlet_matrix_reference(g, region)
        M.sort_indices()
        assert M.format == "csc" and M.shape == ref.shape
        assert M.indptr.tolist() == ref.indptr.tolist()
        assert M.indices.tolist() == ref.indices.tolist()
        assert M.data.tolist() == ref.data.tolist()

    def test_dirichlet_matrix_cancelled_diagonal(self):
        # mu(1) = 2**-53 + 1.0 rounds to 1.0, so mu - w_self is exactly 0
        # and is no stored entry
        g = WeightedGraph(3, [(0, 1, 2.0 ** -53), (1, 1, 1.0), (0, 2, 1.0)])
        region = np.array([1])
        M = potential._dirichlet_matrix(g, region)
        assert M.nnz == 0 == dirichlet_matrix_reference(g, region).nnz

    @given(GATHER_GRAPHS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_harmonic_measure_matches_column_loop(self, g, data):
        # both solve through GreenOperator, so a weight ratio beyond
        # float64 fails both alike
        x = data.draw(st.integers(0, g.vertex_count - 1))
        R = data.draw(st.integers(1, int(eccentricities(g)[x])))
        got = outcome(harmonic_measure, g, x, R)
        want = outcome(omega_reference, g, x, R)
        if isinstance(want, ConvergenceError):
            assert str(got) == str(want)
        else:
            assert got.omega.tolist() == want.tolist()

    @given(GATHER_GRAPHS, st.data())
    @settings(max_examples=80, deadline=None)
    def test_current_out_matches_row_loop(self, g, data):
        # 1/rho is the current out of A: the potential's right-hand side
        # summed in scipy's row order, the cut row by row in CSR order.
        # Both solve through GreenOperator, so a weight ratio beyond
        # float64 fails both alike, and a current that rounding cancels
        # to <= 1e-300 is refused
        B = proper_subsets(data, g)
        A = np.array(sorted(data.draw(st.sets(st.sampled_from(B.tolist()),
                                              min_size=1,
                                              max_size=B.size))))
        got = outcome(resistance, g, A, B)
        want = outcome(resistance_reference, g, A, B)
        if isinstance(want, ConvergenceError):
            assert str(got) == str(want)
        elif cut_degree(g, A) < 8:
            if want > 1e-300:
                assert got == 1.0 / want
            else:
                assert isinstance(got, UnreachableError)
        else:
            # numpy sums 8 or more terms pairwise; the row sum here is
            # sequential.  The terms w (1 - u) may cancel (u can round past
            # 1), so they agree to rounding of the cut's weight
            current = 0.0 if isinstance(got, UnreachableError) else 1.0 / got
            assert current == pytest.approx(want, rel=1e-12,
                                            abs=1e-12 * cut_weight(g, A))

    def test_current_out_hub_row_sums_in_order(self):
        # nine cut neighbours: the row sums in CSR order, so 1 + 7 * 2**-53
        # + 1 rounds to 2.0; numpy's pairwise np.sum in the loop gives
        # 2 + 2**-50
        w = [1.0] + [2.0 ** -53] * 7 + [1.0]
        g = WeightedGraph(10, [(0, k, w[k - 1]) for k in range(1, 10)])
        got = resistance(g, [0], [0])
        assert got == 0.5
        assert resistance_reference(g, [0], [0]) == 2.0 + 2.0 ** -50
        assert got == pytest.approx(1.0 / resistance_reference(g, [0], [0]),
                                    rel=1e-12)

    @given(GATHER_GRAPHS, st.data())
    @settings(max_examples=40, deadline=None)
    def test_lambda_min_matches_conjugated_loop(self, g, data):
        region = proper_subsets(data, g)
        got = outcome(lambda_min, g, region)
        want = outcome(lambda_min_reference, g, region)
        if isinstance(want, ConvergenceError):
            assert isinstance(got, ConvergenceError)
        elif isinstance(got, ConvergenceError):
            # the inner solves are checked now, so a region whose weights
            # float64 cannot resolve is refused where the old loop
            # returned a number; only an ill-conditioned M may do that
            M = potential._dirichlet_matrix(g, region).toarray()
            assert np.linalg.cond(M) * np.finfo(float).eps * M.shape[0] > \
                potential.SOLVE_TOL
        else:
            assert got.lam == pytest.approx(want[0], rel=1e-12)

    @pytest.mark.parametrize("host, R", [
        ((2, 21), 4), ((2, 21), 8), ((3, 9), 3)],
        ids=["z21-R4", "z21-R8", "box9-R3"])
    def test_fixture_solves_match_references(self, host, R):
        # bit for bit where the arithmetic is unchanged, and the same
        # eigen iteration count
        g, c = lattice_box(*host)
        B = ball(g, c, R)
        assert np.array_equal(harmonic_measure(g, c, R).omega,
                              omega_reference(g, c, R))
        A = ball(g, c, R // 2)
        assert resistance(g, A, B) == 1.0 / resistance_reference(g, A, B)
        got = lambda_min(g, B)
        lam, iterations = lambda_min_reference(g, B)
        assert got.lam == pytest.approx(lam, rel=1e-12)
        assert got.iterations == iterations


def mc_exit_time_small(g, x, R):
    return mc_exit_time(g, x, R, WalkConfig(seed=1, n_walks=10))


@pytest.mark.parametrize("quantity", [
    mean_exit_time, max_exit_time, harmonic_measure, harnack_constant,
    hg_constant, g_condition, mc_exit_time_small],
    ids=lambda f: f.__name__)
def test_one_ball_rule(quantity):
    # every quantity on B(x,R) refuses a vertex outside the graph and a
    # radius below 1 (ValueError), and a ball that is the whole host
    # (MarginError); B(c,21) covers z21, whose center has eccentricity 20
    g, c = lattice_box(2, 21)
    for x, R, error, message in (
            (c, 0, ValueError, "radius must be >= 1"),
            (c, 0.5, ValueError, "radius must be >= 1"),
            (-1, 2, ValueError, "vertex id -1 out of range"),
            (c, 21, MarginError, "covers the whole host graph")):
        with pytest.raises(error, match=message):
            quantity(g, x, R)


# z41 vertex id = 41 i + j; a lattice automorphism maps B(x,R) onto
# B(sigma x, R), so every quantity of the ball must agree at x and sigma x
Z41_SYMMETRIES = {
    "reflection": lambda i, j: (j, i),
    "rotation": lambda i, j: (j, 40 - i),
}


def ball_quantities(g, x, R):
    """Every per-cell quantity of the sweep at (x, R), as floats."""
    return [volume(g, x, R), mean_exit_time(g, x, R), max_exit_time(g, x, R),
            resistance_annulus(g, x, R, 2 * R),
            lambda_min(g, ball(g, x, 2 * R)).lam, harnack_constant(g, x, R),
            *g_condition(g, x, R),
            *layered_lower_bound(g, ball(g, x, R), ball(g, x, 2 * R)),
            shrunk_exit_time(g, x, R)]


@pytest.fixture(scope="module")
def z41():
    return lattice_box(2, 41)[0]


@pytest.mark.parametrize("sigma", Z41_SYMMETRIES)
@pytest.mark.parametrize("x", [420, 430, 845, 1000])
def test_lattice_symmetry_oracle(z41, sigma, x):
    # an oracle with no reference value: it checks the solver and every
    # ball-local gather at once, on balls clipped by the host's sides too
    i, j = Z41_SYMMETRIES[sigma](*divmod(x, 41))
    for R in (2, 4, 8):
        assert ball_quantities(z41, 41 * i + j, R) == pytest.approx(
            ball_quantities(z41, x, R), rel=1e-12, abs=0)


# 9^3 box vertex id = 81 i + 9 j + k; permuting the axes is an automorphism
BOX9_SYMMETRIES = {
    "swap": lambda i, j, k: (k, j, i),
    "cycle": lambda i, j, k: (j, k, i),
}


@pytest.fixture(scope="module")
def box9():
    return lattice_box(3, 9)[0]


@pytest.mark.parametrize("sigma", BOX9_SYMMETRIES)
@pytest.mark.parametrize("x", [284, 105, 43])
def test_box_symmetry_oracle(box9, sigma, x):
    # centers (3,4,5), (1,2,6) and (0,4,7): the box clips B(x,2R) at
    # R = 4 for all three, and at R = 2 for the last two
    i, j, k = BOX9_SYMMETRIES[sigma](*np.unravel_index(x, (9, 9, 9)))
    for R in (2, 4):
        assert ball_quantities(box9, 81 * i + 9 * j + k, R) == pytest.approx(
            ball_quantities(box9, x, R), rel=1e-12, abs=0)


def test_gasket8_mirror_pair_harnack():
    # 6747 and 3646 are mirror images in the level-8 gasket, so H agrees
    # at R = 64; B(x,128) has 5339 unknowns and 132 boundary columns,
    # each solved on the ball's one LU factor
    g, _ = sierpinski_gasket(8)
    assert harnack_constant(g, 3646, 64) == pytest.approx(
        harnack_constant(g, 6747, 64), rel=1e-12, abs=0)
