import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from einstein_lab import _kernels, cli, conditions, potential
from einstein_lab.conditions import (SweepGrid, auto_centers, default_grid,
                                     dyadic_radii, einstein_report,
                                     fit_exponents, measure_condition,
                                     radius_pairs, valid_cells,
                                     verify_inequalities)
from einstein_lab.errors import ConvergenceError, MarginError
from einstein_lab.generators import (apply_radial_weights, binary_tree,
                                     lattice_box, sierpinski_gasket,
                                     vicsek_tree)
from einstein_lab.graph import WeightedGraph, ball, host_frontier, save, volume
from einstein_lab.potential import (GreenOperator, g_condition,
                                    mean_exit_time, resistance_annulus)
from test_graph import count_searches, stored_walks
from test_potential import count_factors, kernel, unit


def reversibility_reference(g):
    """Per-edge loop: the largest relative asymmetry of the stored weights
    and the first directed edge attaining it, (0, 0) when none is
    asymmetric."""
    worst, pair = 0.0, (0, 0)
    for x in range(g.vertex_count):
        for k in range(g.indptr[x], g.indptr[x + 1]):
            y = int(g.indices[k])
            row = range(g.indptr[y], g.indptr[y + 1])
            wyx = next((float(g.weights[j]) for j in row
                        if g.indices[j] == x), 0.0)
            wxy = float(g.weights[k])
            asym = abs(wxy - wyx) / max(wxy, wyx, 1e-300)
            if asym > worst:
                worst, pair = asym, (x, y)
    return worst, pair


@pytest.fixture(scope="module")
def z41():
    return lattice_box(2, 41)


@pytest.fixture(scope="module")
def z129():
    return lattice_box(1, 129)


class TestGrids:
    def test_auto_centers_lattice_quarter_diagonals(self, z41):
        g, c = z41
        got = auto_centers(g)
        # (20,20) plus the four (10,10)-type diagonal vertices
        assert got == [840, 420, 1260, 440, 1240]

    def test_auto_centers_line(self, z129):
        g, c = z129
        assert auto_centers(g) == [64, 32, 96]

    # the sweep's centers and exclusion frontier, pinned on each family
    @pytest.mark.parametrize("host, centers, frontier", [
        ("gasket5", [82, 130, 258, 252, 136], [0, 185, 365]),
        ("vicsek3", [0, 31, 35, 66, 70],
         [2, 3, 4, 7, 8, 10, 12, 13, 14, 17, 18, 20, 28, 29, 30, 40, 41, 42,
          62, 63, 64, 75, 76, 78, 86, 87, 88, 90, 91, 92, 94, 95, 96, 98, 99,
          100]),
        ("tree7", [0, 7, 11, 9, 13], list(range(127, 255))),
        ("box7^3", [171, 107, 241, 109, 127],
         [0, 6, 42, 48, 294, 300, 336, 342]),
        ("z41", [840, 420, 1260, 440, 1240], [0, 40, 1640, 1680]),
    ])
    def test_sweep_choices_pinned(self, host, centers, frontier):
        g = {"gasket5": lambda: sierpinski_gasket(5),
             "vicsek3": lambda: vicsek_tree(3),
             "tree7": lambda: binary_tree(7),
             "box7^3": lambda: lattice_box(3, 7),
             "z41": lambda: lattice_box(2, 41)}[host]()[0]
        assert auto_centers(g) == centers
        assert host_frontier(g).tolist() == frontier

    def test_dyadic_ladder_respects_margin(self, z41):
        g, c = z41
        assert dyadic_radii(g, [c]) == [2, 4, 8, 16]

    def test_valid_cells_and_skips(self, z41):
        g, c = z41
        grid = SweepGrid((c,), (2, 8, 32))
        cells, skipped = valid_cells(g, grid, 2)
        assert cells == [(c, 2), (c, 8)]
        assert len(skipped) == 1 and skipped[0][1] == 32
        assert "not strictly inside" in skipped[0][2]

    def test_periphery_cells_excluded(self, z129):
        # B(32, 2*24) swallows the path endpoint 0: truncation bias
        g, c = z129
        cells, skipped = valid_cells(g, SweepGrid((32,), (8, 24)), 2)
        assert cells == [(32, 8)]
        assert [R for _, R, _ in skipped] == [24]

    def test_radius_pairs_excludes_thin_annuli(self):
        grid = SweepGrid((0,), (2, 3, 4, 8))
        pairs = radius_pairs(grid)
        assert (2, 3) not in pairs
        assert (2, 4) in pairs and (4, 8) in pairs

    def test_empty_grid_margin_error(self):
        g, c = lattice_box(1, 5)
        with pytest.raises(MarginError):
            default_grid(g, centers=[c])


class TestMeasureCondition:
    def test_vd_exact_lattice_anchor(self, z41):
        g, c = z41
        grid = default_grid(g)
        rep = measure_condition(g, grid, "VD")
        assert rep.constant == pytest.approx(5.0)
        assert rep.extremizer == (840, 2)
        assert rep.cells == 16    # quarter-diagonal R=16 balls touch corners

    def test_td_is_four_on_line(self, z129):
        g, c = z129
        rep = measure_condition(g, default_grid(g), "TD")
        assert rep.constant == pytest.approx(4.0, rel=1e-9)

    def test_wvc_at_least_one(self, z41):
        g, c = z41
        rep = measure_condition(g, default_grid(g), "wVC")
        assert rep.constant >= 1.0
        assert len(rep.extremizer) == 3

    def test_wvc_degenerate_y_range_is_identity(self, z41):
        # B(x,1) = {x}: the comparison collapses to V(x,1)/V(x,1)
        g, c = z41
        rep = measure_condition(g, SweepGrid((c,), (1,)), "wVC")
        assert rep.constant == 1.0
        assert rep.extremizer == (c, c, 1)

    @pytest.mark.parametrize("make", [
        lambda: lattice_box(2, 41), lambda: sierpinski_gasket(6),
        lambda: vicsek_tree(4), lambda: binary_tree(7),
        lambda: lattice_box(3, 9)],
        ids=["z41", "gasket6", "vicsek4", "tree7", "box9"])
    def test_cover_count_matches_set_greedy(self, make):
        # the mask over B(x,2R) keeps the set loop's greedy order: the
        # next ball is centered at the smallest vertex still uncovered
        g, _ = make()
        for x, R in valid_cells(g, default_grid(g), 2)[0]:
            uncovered = set(ball(g, x, 2 * R).tolist())
            K = 0
            while uncovered:
                uncovered -= set(ball(g, min(uncovered), R).tolist())
                K += 1
            assert conditions._cover_count(g, x, R) == K

    def test_p0_lattice(self, z41):
        g, c = z41
        rep = measure_condition(g, default_grid(g), "p0")
        assert rep.constant == pytest.approx(0.25)
        assert rep.details["max_degree"] == 4

    def test_anti_doubling_multipliers(self, z41):
        g, c = z41
        grid = default_grid(g)
        assert measure_condition(g, grid, "aVD").constant == 2.0
        assert measure_condition(g, grid, "adrv").constant == 2.0

    def test_anti_doubling_not_achieved(self):
        # geometrically decaying weights make the ball volume saturate,
        # so no dyadic multiplier doubles it
        g, c = lattice_box(1, 65)
        h = apply_radial_weights(g, c, 0.25)
        rep = measure_condition(h, SweepGrid((c,), (2, 4)), "aVD")
        assert math.isnan(rep.constant)
        assert "not achieved" in rep.note

    def test_adrv_margin_exhausted_reports_not_achieved(self, z41):
        g, c = z41
        rep = measure_condition(g, SweepGrid((c,), (16,)), "adrv")
        assert math.isnan(rep.constant)
        assert "not achieved" in rep.note

    def test_extremizer_reproduces_constant(self, z41):
        g, c = z41
        grid = default_grid(g)
        rep = measure_condition(g, grid, "TD")
        x, R = rep.extremizer[0], rep.extremizer[-1]
        again = mean_exit_time(g, x, 2 * R) / mean_exit_time(g, x, R)
        assert again == pytest.approx(rep.constant, rel=1e-10)

    def test_refinement_monotone(self, z41):
        g, c = z41
        coarse = measure_condition(g, SweepGrid((c,), (8,)), "VD")
        fine = measure_condition(g, SweepGrid((c,), (2, 4, 8)), "VD")
        assert fine.constant >= coarse.constant

    def test_tables_look_up_names_at_call_time(self, z41, monkeypatch):
        # tracers wrap module functions after import; a table entry
        # holding the original would bypass the wrapper
        g, c = z41
        seen = []
        green, harnack = conditions.g_condition, conditions.harnack_constant
        volume = conditions.annulus_volume
        monkeypatch.setattr(conditions, "g_condition", lambda *a:
                            seen.append("green") or green(*a))
        monkeypatch.setattr(conditions, "harnack_constant", lambda *a:
                            seen.append("H") or harnack(*a))
        monkeypatch.setattr(conditions, "annulus_volume", lambda *a:
                            seen.append("v") or volume(*a))
        grid = SweepGrid((c,), (2, 4))
        measure_condition(g, grid, "H")
        measure_condition(g, grid, "HG")
        conditions.CHECKS["crv>r2"]("crv>r2", g, grid)
        assert seen == ["H", "H", "green", "green", "v"]

    def test_hg_and_g_share_one_green_solve(self, monkeypatch):
        # a fresh graph: memos outlive a sweep
        g, c = lattice_box(2, 41)
        grid = SweepGrid((c,), (2, 4))
        factors = count_factors(monkeypatch)
        measure_condition(g, grid, "HG")
        measure_condition(g, grid, "g")
        assert len(factors) == 2

    def test_one_dispatch_in_report_order(self, z41, monkeypatch):
        assert conditions.CONDITION_TAGS == (
            "BC", "VD", "wVC", "TC", "wTC", "TD", "ER", "rho_v", "E_hom",
            "p0", "H", "Ebar", "HG", "g", "aVD", "adrv")
        g, c = z41
        grid = SweepGrid((c,), (2,))
        calls = []
        monkeypatch.setitem(conditions.CONDITIONS, "p0", lambda *a:
                            calls.append(a) or "report")
        assert measure_condition(g, grid, "p0") == "report"
        assert calls == [("p0", g, grid)]

    def test_unknown_tag(self, z41):
        g, c = z41
        with pytest.raises(ValueError):
            measure_condition(g, default_grid(g), "XYZ")

    def test_margin_exhaustion(self):
        g, c = lattice_box(2, 9)
        with pytest.raises(MarginError):
            measure_condition(g, SweepGrid((c,), (16,)), "VD")

    def test_homogeneity_blows_up_under_radial_weights(self):
        # negative control: lam != 1 breaks (E)-homogeneity measurably
        g, c = lattice_box(2, 33)
        grid = default_grid(g)
        unit = measure_condition(g, grid, "E_hom")
        skew = measure_condition(apply_radial_weights(g, c, 2.0), grid,
                                 "E_hom")
        assert skew.constant > unit.constant * 1.05


class TestVerifySuite:
    @pytest.mark.parametrize("make", [
        lambda: lattice_box(2, 21),
        lambda: lattice_box(1, 65),
        lambda: sierpinski_gasket(4),
        lambda: vicsek_tree(3),
        lambda: binary_tree(6),
    ])
    def test_zero_violations(self, make):
        g, c = make()
        results = verify_inequalities(g, default_grid(g))
        for r in results:
            assert r.passed is not False, (r.check, r.witness, r.worst_slack)

    def test_series_law_exact_equality_on_line(self, z129):
        g, c = z129
        results = verify_inequalities(g, default_grid(g))
        series = next(r for r in results if r.check == "series")
        assert series.passed
        assert abs(series.worst_slack) <= 1e-12   # chains tile exactly

    def test_constant_bearing_check_reported_not_asserted(self, z41):
        g, c = z41
        results = verify_inequalities(g, default_grid(g))
        te = next(r for r in results if r.check == "te<rv")
        assert te.passed is None
        assert te.constant > 0

    def test_solver_breakdown_becomes_failure_rows(self):
        # float64-hostile weights: the suite must complete and report
        # per-cell solver refusals as data instead of raising
        g, c = lattice_box(2, 33)
        h = apply_radial_weights(g, c, 0.25)
        results = verify_inequalities(h, default_grid(h))
        assert any(r.passed is False for r in results)
        solver_rows = [row for r in results for row in r.rows
                       if isinstance(row[4], str) and
                       row[4].startswith("solver:")]
        assert solver_rows
        # sane cells are still evaluated and pass
        crv = next(r for r in results if r.check == "crv>r2")
        assert crv.passed

    @given(stored_walks())
    @settings(max_examples=60, deadline=None)
    def test_reversibility_matches_loop(self, g):
        worst, (x, y) = reversibility_reference(g)
        got = conditions.CHECKS["reversibility"]("reversibility", g, None)
        slack = -worst / max(worst, 1e-300)
        ok = slack >= -conditions.REVERSIBILITY_TOL
        assert (got.passed, got.worst_slack, got.witness) == \
            (ok, slack, (x, y, 0))
        assert got.rows == [("reversibility", x, y, 0,
                             "max relative asymmetry", worst, 0.0, slack, ok)]

    def test_nan_slack_takes_witness(self):
        # rhs = inf makes the slack NaN: the row fails and must name the
        # witness even though the passing rows have finite slacks
        check = conditions.Check(
            1, lambda g, grid, m: [(0, 1, 1), (0, 2, 2), (0, 3, 3)],
            lambda g, x, r, R: [(1.0, math.inf if r == 2 else 2.0 - r / 4,
                                 "")])
        res = check("nan", None, None)
        assert [row[-1] for row in res.rows] == [True, False, True]
        assert res.passed is False
        assert res.witness == (0, 2, 2) and math.isnan(res.worst_slack)

    @staticmethod
    def breakdown_check(cells, nan_cell=None):
        """A check over ``cells`` whose observer raises ConvergenceError,
        except at ``nan_cell``, whose rhs = inf gives a NaN slack."""
        def observe(g, x, r, R):
            if (x, r, R) == nan_cell:
                return [(1.0, math.inf, "")]
            raise ConvergenceError(f"no convergence at {r}", residual=1.0)
        return conditions.Check(1, lambda g, grid, m: cells, observe)

    def test_solver_rows_keep_first_witness(self):
        res = self.breakdown_check([(0, 1, 1), (0, 2, 2)])("cg", None, None)
        assert [row[4] for row in res.rows] == \
            ["solver: no convergence at 1", "solver: no convergence at 2"]
        assert res.passed is False and res.worst_slack == -math.inf
        assert res.witness == (0, 1, 1)

    def test_nan_row_keeps_witness_over_solver_row(self):
        res = self.breakdown_check([(0, 1, 1), (0, 2, 2)], nan_cell=(0, 1, 1))(
            "cg", None, None)
        assert [row[-1] for row in res.rows] == [False, False]
        assert res.witness == (0, 1, 1) and math.isnan(res.worst_slack)

    def test_corrupted_weights_fail_reversibility(self, z41):
        from test_graph import _corrupt_graph
        g, c = z41
        bad = _corrupt_graph(g, c, c + 1, 0.25)
        results = verify_inequalities(bad, SweepGrid((c,), (2,)))
        rev = next(r for r in results if r.check == "reversibility")
        assert rev.passed is False
        assert rev.witness[:2] == (c, c + 1)

    @pytest.mark.parametrize("side", [41, 401])
    def test_warm_ce_rm_cell_costs_its_ball(self, side):
        # with B(x,4), B(x,8) and rho(x,3,8) memoized, one cE<rm cell
        # shrinks the closure of B(x,8) only: a shrunk copy of 401x401
        # alone is tens of megabytes
        g, c = lattice_box(2, side)
        resistance_annulus(g, c + 1, 3, 8)
        observe = conditions.CHECKS["cE<rm"].observe
        tracemalloc.start()
        try:
            rows = list(observe(g, c + 1, 4, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 1
        assert peak < 256 * 1024


def reference_center_kernel(g, x, R):
    """lE<rm's g^A(x,x), A = B(x,R), from an operator of its own."""
    return kernel(GreenOperator(g, ball(g, x, R)), x, x)


def reference_g_condition(g, x, R):
    """g_condition's (c_low, C_high, hg) from an operator of its own on
    B(x,2R)."""
    B2 = ball(g, x, 2 * R)
    op = GreenOperator(g, B2)
    gx = op.solve(unit(op, x))
    inner = np.isin(B2, ball(g, x, R))
    e2r = float(gx @ op.mu)
    lo, hi = float(gx[inner].min()), float(gx[~inner].max())
    V = volume(g, x, R)
    return lo * V / e2r, hi * V / e2r, hi / lo


CENTER_HOSTS = {
    "z41": lambda: lattice_box(2, 41)[0],
    "gasket6": lambda: sierpinski_gasket(6)[0],
    "z15-radial": lambda: apply_radial_weights(*lattice_box(2, 15), 0.5),
}


class TestCenterColumn:
    """lE<rm, HG and g read one memoized Green column per center ball."""

    @pytest.mark.parametrize("host", list(CENTER_HOSTS))
    def test_equals_an_operator_per_quantity(self, host):
        g = CENTER_HOSTS[host]()
        cells, _ = valid_cells(g, default_grid(g), 2)
        assert cells
        for x, R in cells:
            assert conditions._center_kernel(g, x, R) == \
                reference_center_kernel(g, x, R)
            assert g_condition(g, x, R) == reference_g_condition(g, x, R)

    def test_g_after_le_rm_builds_nothing(self, monkeypatch):
        # lE<rm at (x, 2R) solves the column of B(x,2R) that g reads at
        # (x, R)
        g, c = lattice_box(2, 41)
        conditions.CHECKS["lE<rm"]("lE<rm", g, SweepGrid((c,), (8,)))
        factors = count_factors(monkeypatch)
        g_condition(g, c, 4)
        assert factors == []


class TestOneSolvePath:
    """Every annulus resistance and center column of a sweep comes from
    potential.solve's memo and equals a fresh operator's solve bit for
    bit."""

    @pytest.mark.parametrize("host", list(CENTER_HOSTS))
    def test_sweep_solves_equal_fresh_operators(self, host, monkeypatch):
        g = CENTER_HOSTS[host]()
        grid = default_grid(g)
        columns, column = [], potential.column

        def recorded(g, A, z):
            gz = column(g, A, z)
            columns.append((A, z, gz))
            return gz

        for module in (conditions, potential):
            monkeypatch.setattr(module, "column", recorded)
        verify_inequalities(g, grid)
        for tag in conditions.CONDITION_TAGS:
            measure_condition(g, grid, tag)
        monkeypatch.undo()
        annulus = potential.resistance_annulus.__wrapped__
        rhos = [(key[1:], rho) for key, rho in g._memo.items()
                if key[0] is annulus]
        assert rhos and columns
        for A, z, gz in columns:
            op = GreenOperator(g, A)
            assert gz.tobytes() == op.solve(unit(op, z)).tobytes()
        monkeypatch.setattr(potential, "solve", lambda g, A, rhs:
                            GreenOperator(g, A).solve(rhs))
        for args, rho in rhos:
            assert annulus(g, *args) == rho


class TestOneMemo:
    def test_second_sweep_solves_nothing(self, z41, monkeypatch):
        # every quantity of the suite and of the conditions is memoized on
        # the graph, so a second sweep reads them all back
        g, c = z41
        grid = default_grid(g)

        def sweep():
            verify_inequalities(g, grid)
            for tag in conditions.CONDITION_TAGS:
                measure_condition(g, grid, tag)

        sweep()
        factors, bfs_calls = count_factors(monkeypatch), []
        bfs, balls = _kernels.bfs_distances, _kernels.bfs_balls
        for module in (_kernels, conditions, potential):
            monkeypatch.setattr(module, "bfs_distances", lambda *a:
                                bfs_calls.append(a) or bfs(*a))
        monkeypatch.setattr(_kernels, "bfs_balls", lambda *a:
                            bfs_calls.append(a) or balls(*a))
        searches = count_searches(monkeypatch)
        sweep()
        assert factors == [] and bfs_calls == [] and searches == []

    def test_z41_verify_searches_per_partner_chunk(self, tmp_path,
                                                   monkeypatch):
        # wVC, TC, wTC, lmarkov and lminE<rv pair a cell with every y of a
        # ball or a sphere; one search per chunk of partners, not one per
        # partner, keeps z41's verify well under one search per ball (2281)
        path = str(tmp_path / "z41.txt")
        save(lattice_box(2, 41)[0], path)
        searches = count_searches(monkeypatch)
        assert cli.main(["verify", "--graph", path,
                         "--out-dir", str(tmp_path / "rep")]) == cli.EXIT_OK
        assert len(searches) <= 500


class TestEinstein:
    def test_spread_and_records(self, z41):
        g, c = z41
        records, summary = einstein_report(g, default_grid(g))
        assert summary.cells == len(records) == 16
        assert summary.spread == pytest.approx(summary.max_Q / summary.min_Q)
        assert summary.spread <= 10
        for r in records:
            assert r.Q == pytest.approx(r.E2R / (r.rho * r.v))
            assert r.rho * r.v >= r.R ** 2 * (1 - 1e-9)

    def test_spread_invariant_under_global_rescale(self, z41):
        g, c = z41
        scaled = WeightedGraph(g.vertex_count,
                               [(u, v, 7.0 * w) for u, v, w in g.edges])
        grid = default_grid(g)
        _, s1 = einstein_report(g, grid)
        _, s7 = einstein_report(scaled, grid)
        assert s7.min_Q == pytest.approx(s1.min_Q, rel=1e-9)
        assert s7.max_Q == pytest.approx(s1.max_Q, rel=1e-9)
        assert s7.spread == pytest.approx(s1.spread, rel=1e-9)

    def test_empty_grid_rejected(self):
        g, c = lattice_box(1, 9)
        with pytest.raises(MarginError):
            einstein_report(g, SweepGrid((c,), (16,)))


class TestFits:
    def test_line_exponents_exact(self):
        g, c = lattice_box(1, 257)
        summ = fit_exponents(g, c, [4, 8, 16, 32, 64])
        assert summ.beta.exponent == pytest.approx(2.0, abs=1e-9)
        assert summ.gamma.exponent == pytest.approx(-1.0, abs=1e-9)
        assert summ.beta.r2 == pytest.approx(1.0, abs=1e-9)
        assert abs(summ.erdim_residual) <= 0.1

    def test_gasket_erdim_consistency(self):
        g, corner = sierpinski_gasket(6)
        summ = fit_exponents(g, corner, [3, 6, 12, 24])
        assert abs(summ.erdim_residual) <= 0.25
        assert summ.beta.exponent == pytest.approx(math.log(5, 2), abs=0.2)

    def test_insufficient_radii(self, z41):
        g, c = z41
        with pytest.raises(ValueError):
            fit_exponents(g, c, [2, 4, 8])          # only 3
        with pytest.raises(ValueError):
            fit_exponents(g, c, [8, 16, 32, 64])    # margins cut to < 4


class TestDoubling:
    """Doubling of the annulus resistance on the 4R cells that the
    ``series`` check asserts."""

    def test_line_constants_exact(self, z129):
        g, c = z129
        # rho additive along the line: rho(R,4R)/rho(R,2R) = 3 exactly,
        # rho(R,4R)/rho(2R,4R) = 3/2 exactly, product (C1-1)(C2-1) = 1
        margin = conditions.CHECKS["series"].margin
        cells, _ = valid_cells(g, default_grid(g), margin)
        assert cells
        for x, R in cells:
            r14 = resistance_annulus(g, x, R, 4 * R)
            assert r14 / resistance_annulus(g, x, R, 2 * R) == pytest.approx(3.0, rel=1e-9)
            assert r14 / resistance_annulus(g, x, 2 * R, 4 * R) == \
                pytest.approx(1.5, rel=1e-9)

    def test_saturating_tree_reported_not_asserted(self):
        # independent oracle: from the root, level k feeds 2^(k+1)
        # parallel unit edges, so rho(root,r,R) = sum 2^-(k+1) over
        # r <= k < R; the geometric tail makes C1 saturate toward 1
        g, root = binary_tree(9)
        oracle = lambda r, R: sum(2.0 ** -(k + 1) for k in range(r, R))
        for r, R in ((2, 4), (2, 8), (4, 8)):
            got = resistance_annulus(g, root, r, R)
            assert got == pytest.approx(oracle(r, R), rel=1e-10)
        grid = SweepGrid((root,), (2,))
        margin = conditions.CHECKS["series"].margin
        assert valid_cells(g, grid, margin)[0] == [(root, 2)]
        c1 = resistance_annulus(g, root, 2, 8) / \
            resistance_annulus(g, root, 2, 4)
        assert c1 == pytest.approx(1.3125)     # the 1+eps regime


class TestStrongAntiDoubling:
    def test_quadratic_floor(self, z129):
        # E(x,R) >= R^2/2 wherever B(x,2R) fits, on the ladder's radii
        # and their multiples 2R, 3R and 4R
        g, c = z129
        grid = default_grid(g)
        cells = [(x, L * R) for R in grid.radii for L in (1, 2, 3, 4)
                 for x in grid.centers
                 if conditions.ball_inside_host(g, x, 2 * L * R)]
        assert cells
        for x, R in cells:
            assert mean_exit_time(g, x, R) >= 0.5 * R * R
