"""Sweep engine: measure lettered-condition constants, assert proved
inequalities, compute Einstein-relation statistics and fit exponents.

Validity margins.  A cell (x, R) is valid for a check with margin
multiplier m when the enlarged ball B(x, m*R) lies strictly inside the
host (see ball_inside_host); everything else is excluded with a
recorded reason.  Constant-free theorem inequalities are asserted at
1e-8 relative tolerance; constant-bearing statements are reported as
measured constants, never pass/failed.

Both sweeps are tables in report order, and every entry is called as
``entry(name, g, grid)``.  CONDITIONS gives each ratio-type tag its
margin, its pairing of cells and its value; CHECKS gives each proved
inequality its margin, cell source and observer.  The few measurements
of another shape sit in the same tables as plain functions.  Entries
look up module functions when they run, never at import.  Every
quantity an entry reads per cell is memoized on the graph by
``graph._per_graph``, so a second sweep on the same graph solves nothing.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._kernels import bfs_distances
from .errors import ConvergenceError, MarginError, UnreachableError
from .graph import (_per_graph, annulus_volume, ball, boundary,
                    eccentricities, host_reach, min_transition, volume)
from .potential import (
    GreenOperator,
    g_condition,
    harnack_constant,
    lambda_min,
    layered_lower_bound,
    max_exit_time,
    mean_exit_time,
    resistance_annulus,
    shrunk_exit_time,
)

REL_TOL = 1e-8
REVERSIBILITY_TOL = 1e-12

# per-cell solver breakdowns the suite records as failing rows
SOLVER_ERRORS = (ConvergenceError, UnreachableError, MarginError)


# -- grids --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepGrid:
    centers: tuple
    radii: tuple


def ball_inside_host(g, x, K):
    """True when B(x,K) lies strictly inside the host: the ball is a
    proper subset and stays off the truncation frontier (so no clipped
    neighbourhoods leak into the evaluation).  x itself may sit on the
    frontier - a distinguished corner is a legitimate blow-up point."""
    return K <= host_reach(g, x)


def valid_cells(g, grid, m):
    """Cells whose enlarged ball B(x, m*R) fits strictly inside the
    host, plus the excluded cells as (x, R, reason)."""
    cells, skipped = [], []
    for x in grid.centers:
        for R in grid.radii:
            if ball_inside_host(g, x, m * R):
                cells.append((int(x), int(R)))
            else:
                skipped.append((
                    int(x), int(R),
                    f"B({x},{m}*{R}) not strictly inside the host"))
    return cells, skipped


def radius_pairs(grid):
    """(r, R) pairs with R > r from the grid ladder, thin annuli excluded."""
    rs = sorted(set(grid.radii))
    return [(r, R) for i, r in enumerate(rs) for R in rs[i + 1:] if R - r >= 2]


def auto_centers(g, count=5):
    """Host center plus quarter-diagonal vertices, chosen intrinsically.

    The host center minimizes eccentricity (smallest id breaks ties).
    Far poles are picked greedily on the farthest sphere, and each
    quarter-diagonal is the median geodesic midpoint between the center
    and a pole; on lattice boxes this lands exactly on the diagonal
    (L/4, L/4)-type vertices.
    """
    ecc = eccentricities(g)
    c = int(np.argmin(ecc))
    D = int(ecc[c])
    dc = bfs_distances(g.matrix, c)
    far = np.flatnonzero(dc == D).astype(np.int64)
    poles = {}                  # pole -> its host distances, in pick order
    cand = int(far[0])
    while cand not in poles:
        poles[cand] = bfs_distances(g.matrix, cand)
        if len(poles) == min(4, far.size):
            break
        score = np.min(np.stack([d[far] for d in poles.values()]), axis=0)
        cand = int(far[int(np.argmax(score))])
    h = D // 2
    out = [c]
    if h >= 1:
        for dp in poles.values():
            mids = np.flatnonzero((dc == h) & (dp == D - h))
            if mids.size:
                out.append(int(mids[mids.size // 2]))
    return list(dict.fromkeys(out))[:count]


def dyadic_radii(g, centers):
    """Dyadic ladder 2, 4, 8, ... while 2R <= every center's eccentricity."""
    ecc = min(eccentricities(g)[g.check_vertex(x)] for x in centers)
    radii = []
    R = 2
    while 2 * R <= ecc:
        radii.append(R)
        R *= 2
    return radii


def default_grid(g, centers=None, radii=None):
    centers = list(centers) if centers else auto_centers(g)
    radii = list(radii) if radii else dyadic_radii(g, centers)
    if not radii:
        raise MarginError("host graph too small for any valid radius")
    return SweepGrid(tuple(centers), tuple(radii))


# -- shared quantities ----------------------------------------------------------


@_per_graph
def _lam(g, x, R):
    """lambda(x,R), the smallest Dirichlet eigenvalue of B(x,R)."""
    return lambda_min(g, ball(g, x, R)).lam


@_per_graph
def _layered(g, x, r, R):
    """(layered bound, shell count) between B(x,r) and the exterior of
    B(x,R)."""
    return layered_lower_bound(g, ball(g, x, r), ball(g, x, R))


@_per_graph
def _center_kernel(g, x, R):
    """g^A(x,x) = rho({x}, complement A) with A = B(x,R)."""
    return GreenOperator(g, ball(g, x, R)).kernel(x, x)


def _w(g, x, R):
    """rho(x,R,2R) * v(x,R,2R), the Einstein product."""
    return resistance_annulus(g, x, R, 2 * R) * annulus_volume(g, x, R, 2 * R)


# -- condition measurement ------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    tag: str
    constant: float
    extremizer: tuple | None
    cells: int
    note: str = ""
    details: dict = field(default_factory=dict)
    rows: list = field(default_factory=list, repr=False)


@dataclass(frozen=True)
class Condition:
    """A ratio-type condition.  Its constant is the largest
    num(x, R) / den(y, R) over the grid, where y is paired with the cell
    (x, R) as ``pairs`` says: "self" (y = x), "ball" (y in B(x,R)) or
    "centers" (every other grid center that keeps the margin).  Without
    ``den`` the value is num itself."""
    margin: int
    pairs: str
    num: Callable
    den: Callable | None = None
    detail: str = ""

    def __call__(self, tag, g, grid):
        cells, note = _cells_with_note(g, grid, self.margin)
        found = []                  # (value, extremizer, csv row)
        for x, R in cells:
            top = self.num(g, x, R)
            if self.pairs == "self":
                val = top if self.den is None else top / self.den(g, x, R)
                found.append((val, (x, R), (tag, x, R, R, self.detail, val)))
                continue
            for y in _partners(g, grid, self, x, R):
                val = top / self.den(g, y, R)
                found.append((val, (x, y, R),
                              (tag, x, y, R, self.detail, val)))
        if not found:
            raise MarginError(f"no valid cells for condition {tag}")
        best = max(found, key=lambda f: f[0])
        return ConditionReport(tag, float(best[0]), best[1], len(cells),
                               note=note, rows=[f[2] for f in found])


def _cells_with_note(g, grid, m):
    cells, skipped = valid_cells(g, grid, m)
    return cells, _skip_note(skipped)


def _skip_note(skipped):
    return "; ".join(f"skip ({x},{R}): {reason}" for x, R, reason in skipped)


def _partners(g, grid, cond, x, R):
    """The y that a "ball" or "centers" condition pairs with (x, R)."""
    if cond.pairs == "ball":
        return [int(y) for y in ball(g, x, R)]
    return [int(y) for y in grid.centers
            if y != x and ball_inside_host(g, y, cond.margin * R)]


def _cover_count(g, x, R):
    """Greedy number of R-balls that cover B(x,2R)."""
    uncovered = set(int(v) for v in ball(g, x, 2 * R))
    K = 0
    while uncovered:
        uncovered -= set(int(v) for v in ball(g, min(uncovered), R))
        K += 1
    return float(K)


def _p0_report(tag, g, grid):
    p0, edge = min_transition(g)
    return ConditionReport(tag, p0, edge, g.vertex_count,
                           details={"max_degree": int(np.diff(g.indptr).max()),
                                    "degree_bound": 1.0 / p0})


def _anti_doubling_report(tag, g, grid):
    """Smallest dyadic A with 2 q(x,R) <= q(x,AR) on every cell where
    B(x, k*A*R) fits: q = V with k = 1 (aVD), q = rho v with k = 2 (adrv)."""
    cells, note = _cells_with_note(g, grid, 2)
    k = 1 if tag == "aVD" else 2
    q = volume if tag == "aVD" else _w
    for A in (2, 4, 8, 16):
        sub = [(x, R) for (x, R) in cells
               if ball_inside_host(g, x, k * A * R)]
        if not sub:
            break
        if all(2 * q(g, x, R) <= q(g, x, A * R) * (1 + REL_TOL)
               for x, R in sub):
            return ConditionReport(tag, float(A), None, len(sub), note=note)
    return ConditionReport(tag, float("nan"), None, len(cells),
                           note=(note + "; " if note else "")
                           + "not achieved in range")


def _er_report(tag, g, grid):
    """The Einstein spread max Q / min Q over einstein_report's records."""
    records, s = einstein_report(g, grid)
    return ConditionReport(
        tag, s.spread, s.argmax, s.cells, note=_skip_note(s.skipped),
        details={"min_Q": s.min_Q, "max_Q": s.max_Q},
        rows=[(tag, r.x, r.R, r.R, "Q", r.Q) for r in records])


def _g_report(tag, g, grid):
    """Green bounds (c_low, C_high) per cell; the constant is max C_high."""
    cells, note = _cells_with_note(g, grid, 2)
    if not cells:
        raise MarginError(f"no valid cells for condition {tag}")
    bounds = [g_condition(g, x, R) for x, R in cells]
    los = [lo for lo, _, _ in bounds]
    his = [hi for _, hi, _ in bounds]
    k = int(np.argmax(his))
    rows = [(tag, x, R, R, "c_low", lo) for (x, R), lo in zip(cells, los)] \
        + [(tag, x, R, R, "C_high", hi) for (x, R), hi in zip(cells, his)]
    return ConditionReport(
        tag, float(his[k]), cells[k], len(cells), note=note,
        details={"c_low_min": float(min(los)), "C_high_max": float(max(his))},
        rows=rows,
    )


# every tag in report order; the time comparisons TC, wTC, TD and E_hom
# take the wider 3R margin
CONDITIONS = {
    "BC": Condition(2, "self", _cover_count, detail="greedy"),
    "VD": Condition(2, "self", lambda g, x, R: volume(g, x, 2 * R),
                    lambda g, y, R: volume(g, y, R)),
    "wVC": Condition(2, "ball", lambda g, x, R: volume(g, x, R),
                     lambda g, y, R: volume(g, y, R)),
    "TC": Condition(3, "ball", lambda g, x, R: mean_exit_time(g, x, 2 * R),
                    lambda g, y, R: mean_exit_time(g, y, R)),
    "wTC": Condition(3, "ball", lambda g, x, R: mean_exit_time(g, x, R),
                     lambda g, y, R: mean_exit_time(g, y, R)),
    "TD": Condition(3, "self", lambda g, x, R: mean_exit_time(g, x, 2 * R),
                    lambda g, y, R: mean_exit_time(g, y, R)),
    "ER": _er_report,
    "rho_v": Condition(2, "centers", _w, _w),
    "E_hom": Condition(3, "centers", lambda g, x, R: mean_exit_time(g, x, R),
                       lambda g, y, R: mean_exit_time(g, y, R)),
    "p0": _p0_report,
    "H": Condition(2, "self", lambda g, x, R: harnack_constant(g, x, R)),
    "Ebar": Condition(2, "self", lambda g, x, R: max_exit_time(g, x, R),
                      lambda g, y, R: mean_exit_time(g, y, R)),
    "HG": Condition(2, "self", lambda g, x, R: g_condition(g, x, R)[2]),
    "g": _g_report,
    "aVD": _anti_doubling_report,
    "adrv": _anti_doubling_report,
}
CONDITION_TAGS = tuple(CONDITIONS)


def measure_condition(g, grid, tag):
    """Empirical best constant for one lettered condition over the grid."""
    cond = CONDITIONS.get(tag)
    if cond is None:
        raise ValueError(f"unknown condition tag {tag!r}")
    return cond(tag, g, grid)


# -- inequality suite -----------------------------------------------------------


@dataclass(frozen=True)
class InequalityResult:
    check: str
    passed: bool | None        # None: constant-bearing, reported not asserted
    worst_slack: float
    witness: tuple | None
    constant: float | None
    cells: int
    rows: list = field(repr=False, default_factory=list)


def _rel_slack(lhs, rhs):
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return (rhs - lhs) / scale


@dataclass(frozen=True)
class Check:
    """A proved inequality lhs <= rhs, asserted at REL_TOL on every cell
    (x, r, R) that ``cells(g, grid, margin)`` lists; ``observe(g, x, r,
    R)`` yields the cell's (lhs, rhs, detail) observations."""
    margin: int
    cells: Callable
    observe: Callable

    def __call__(self, name, g, grid):
        rows = []
        worst, witness = math.inf, None
        for cell in self.cells(g, grid, self.margin):
            for lhs, rhs, detail, slack in self._observations(g, cell):
                rows.append((name, *cell, detail, lhs, rhs, slack,
                             slack >= -REL_TOL))
                # a NaN slack (an infinite side) fails and ranks below
                # every number; the first of equal slacks keeps the witness
                if slack < worst or (math.isnan(slack) and
                                     not math.isnan(worst)):
                    worst, witness = slack, cell
        if not rows:
            return InequalityResult(name, True, math.inf, None, None, 0)
        return InequalityResult(name, all(r[-1] for r in rows), worst,
                                witness, None, len(rows), rows)

    def _observations(self, g, cell):
        """(lhs, rhs, detail, slack) per observation.  A solver breakdown
        is a failing row of slack -inf, ranked like any other: the suite
        reports, it never aborts mid-sweep."""
        try:
            for lhs, rhs, detail in self.observe(g, *cell):
                yield lhs, rhs, detail, _rel_slack(lhs, rhs)
        except SOLVER_ERRORS as exc:
            yield math.nan, math.nan, f"solver: {exc}", -math.inf


def _ball_cells(g, grid, m):
    return [(x, R, R) for x, R in valid_cells(g, grid, m)[0]]


def _pair_cells(g, grid, m):
    """Ball pairs B(x,r) in B(x,R) from the ladder where B(x, max(m r, R))
    fits."""
    pairs = radius_pairs(grid)
    return [(x, r, R) for x in grid.centers for r, R in pairs
            if ball_inside_host(g, x, max(m * r, R))]


def _lebar_cells(g, grid, m):
    """Ball cells at R and at 2R, wherever the host reaches that far."""
    ecc = eccentricities(g)
    return [(x, RR, RR) for x, R in valid_cells(g, grid, m)[0]
            for RR in (R, 2 * R) if ecc[g.check_vertex(x)] >= RR]


def _lmarkov_cells(g, grid, m):
    """(x, r, R) with r in {1, R/2, R} where B(x, R+r) fits."""
    return [(x, r, R) for x, R in valid_cells(g, grid, m)[0]
            for r in sorted({1, R // 2, R} - {0})
            if ball_inside_host(g, x, R + r)]


def _reversibility(name, g, grid):
    """mu(x)P(x,y) == mu(y)P(y,x) on the stored weights: one row for the
    largest relative asymmetry, asserted at REVERSIBILITY_TOL."""
    W = g.matrix.tocoo()                # stored entries in CSR order
    wxy = W.data
    wyx = np.asarray(g.matrix.T[W.row, W.col]).ravel()
    asym = np.abs(wxy - wyx) / np.maximum(np.maximum(wxy, wyx), 1e-300)
    k = int(np.argmax(asym))
    worst = float(asym[k])
    pair = (int(W.row[k]), int(W.col[k]), 0) if worst > 0 else (0, 0, 0)
    slack = _rel_slack(worst, 0.0)
    ok = slack >= -REVERSIBILITY_TOL
    return InequalityResult(name, ok, slack, pair, None, 1, [
        (name, *pair, "max relative asymmetry", worst, 0.0, slack, ok)])


def _te_rv(name, g, grid):
    """E(x,2R) <= C rho(x,R,5R) v(x,R,5R) on cells with a 5R margin; the
    constant C is reported, not asserted."""
    rows = []
    best = None
    for x, R in valid_cells(g, grid, 5)[0]:
        try:
            val = mean_exit_time(g, x, 2 * R) / (
                resistance_annulus(g, x, R, 5 * R)
                * annulus_volume(g, x, R, 5 * R))
        except SOLVER_ERRORS as exc:
            rows.append((name, x, R, R, f"solver: {exc}",
                         math.nan, math.nan, math.nan, False))
            continue
        rows.append((name, x, R, R, "C", val, math.nan, math.nan, True))
        if best is None or val > best[0]:
            best = (val, (x, R, R))
    return InequalityResult(
        name, None, math.inf, best[1] if best else None,
        best[0] if best else None, len(rows), rows)


def _lmarkov(g, x, r, R):
    """Superadditivity E(x,R+r) >= E(x,R) + min over S(x,R) of E(y,r)."""
    # S(x,R) is the boundary of B(x,R): no BFS once the ball is memoized
    zs = boundary(g, ball(g, x, R))
    if zs.size:
        bump = min(mean_exit_time(g, int(y), r) for y in zs)
        yield (mean_exit_time(g, x, R) + bump, mean_exit_time(g, x, R + r),
               "")


def _le_rm(g, x, r, R):
    """E_x(T_A) <= rho({x}, complement A) mu(A) with A = B(x,R)."""
    yield (mean_exit_time(g, x, R), _center_kernel(g, x, R) * volume(g, x, R),
           "")


def _rho_v_sets(g, x, R):
    """rho(A, complement B) v(x,R,2R) with A = B(x,R) = {d <= R-1} and
    B = B(x,2R)."""
    return (resistance_annulus(g, x, R - 1, 2 * R)
            * annulus_volume(g, x, R, 2 * R))


def _lmin_e_rv(g, x, r, R):
    """min over S(x,3R/2) of E(z,R/2) <= rho v, for even R."""
    if R % 2:
        return
    zs = boundary(g, ball(g, x, 3 * R // 2))
    if zs.size:
        yield (min(mean_exit_time(g, int(z), R // 2) for z in zs),
               _rho_v_sets(g, x, R), "")


def _pra_l2(g, x, r, R):
    """d(A, complement B)^2 <= (layered bound) v(x,r,R)."""
    bound, L = _layered(g, x, r, R)
    yield float(L * L), bound * annulus_volume(g, x, r, R), ""


def _llcce(g, x, r, R):
    """The chain rho(x,R,2R) V(x,R) <= 1/lambda(x,2R) <= Ebar(x,2R)."""
    lam_inv = 1.0 / _lam(g, x, 2 * R)
    yield (resistance_annulus(g, x, R, 2 * R) * volume(g, x, R), lam_inv,
           "rhoV<=1/lam")
    yield lam_inv, max_exit_time(g, x, 2 * R), "1/lam<=Ebar"


# the suite in report order; te<rv needs a 5R margin, the series law 4R
CHECKS = {
    "reversibility": _reversibility,
    # lambda(B) rho(A, complement B) mu(A) <= 1 on ball pairs; with
    # A = B(x,r) = {d <= r-1} that resistance is rho(x,r-1,R)
    "llrv": Check(2, _pair_cells, lambda g, x, r, R: [(
        _lam(g, x, R) * resistance_annulus(g, x, r - 1, R) * volume(g, x, r),
        1.0, "")]),
    # lambda(x,2R) rho(x,R,2R) V(x,R) <= 1
    "lrvb": Check(2, _ball_cells, lambda g, x, r, R: [(
        _lam(g, x, 2 * R) * resistance_annulus(g, x, R, 2 * R)
        * volume(g, x, R), 1.0, "")]),
    # 1/lambda(A) <= Ebar(A) on balls
    "lebar": Check(2, _lebar_cells, lambda g, x, r, R: [(
        1.0 / _lam(g, x, R), max_exit_time(g, x, R), "")]),
    "lmarkov": Check(3, _lmarkov_cells, _lmarkov),
    "lE<rm": Check(2, _ball_cells, _le_rm),
    # on the graph with A = B(x,R) shrunk to a point a: E_a(T_B) <= rho v
    "cE<rm": Check(2, _ball_cells, lambda g, x, r, R: [(
        shrunk_exit_time(g, x, R), _rho_v_sets(g, x, R), "")]),
    "lminE<rv": Check(2, _ball_cells, _lmin_e_rv),
    "pra>l2": Check(2, _pair_cells, _pra_l2),
    # the layered bound never exceeds rho(A, complement B)
    "layered": Check(2, _pair_cells, lambda g, x, r, R: [(
        _layered(g, x, r, R)[0], resistance_annulus(g, x, r - 1, R),
        "bound<=rho")]),
    # rho(x,r,R) v(x,r,R) >= (R-r)^2
    "crv>r2": Check(2, _pair_cells, lambda g, x, r, R: [(
        float((R - r) ** 2),
        resistance_annulus(g, x, r, R) * annulus_volume(g, x, r, R), "")]),
    "te<rv": _te_rv,
    # series law: rho(x,R,4R) >= rho(x,R,2R) + rho(x,2R,4R).
    # Exact under the annulus-surface convention: every unit of current
    # crosses S(x,2R), and shorting that sphere splits the annulus into
    # the two sub-annuli with no shared edge layer.
    "series": Check(4, _ball_cells, lambda g, x, r, R: [(
        resistance_annulus(g, x, R, 2 * R)
        + resistance_annulus(g, x, 2 * R, 4 * R),
        resistance_annulus(g, x, R, 4 * R), "")]),
    "llcce": Check(2, _ball_cells, _llcce),
}


def verify_inequalities(g, grid):
    """Run the proved-inequality suite; failures are data, not errors."""
    return [check(name, g, grid) for name, check in CHECKS.items()]


# -- Einstein relation -----------------------------------------------------------


@dataclass(frozen=True)
class EinsteinRecord:
    x: int
    R: int
    E2R: float
    rho: float
    v: float
    Q: float


@dataclass(frozen=True)
class EinsteinSummary:
    min_Q: float
    max_Q: float
    spread: float
    argmin: tuple
    argmax: tuple
    cells: int
    skipped: tuple


def einstein_report(g, grid):
    """Records Q = E(x,2R)/(rho v) where B(x,2R) fits, and the spread."""
    cells, skipped = valid_cells(g, grid, 2)
    if not cells:
        raise MarginError("empty grid: no valid Einstein cells")

    def one(cell):
        x, R = cell
        e2 = mean_exit_time(g, x, 2 * R)
        rho = resistance_annulus(g, x, R, 2 * R)
        v = annulus_volume(g, x, R, 2 * R)
        if rho * v < (R * R) * (1 - REL_TOL):
            raise AssertionError(
                f"rho*v below the (R-r)^2 floor at ({x},{R})")
        return EinsteinRecord(x, R, e2, rho, v, e2 / (rho * v))

    records = [one(cell) for cell in cells]
    qs = [r.Q for r in records]
    i_min, i_max = int(np.argmin(qs)), int(np.argmax(qs))
    summary = EinsteinSummary(
        min_Q=float(qs[i_min]), max_Q=float(qs[i_max]),
        spread=float(qs[i_max] / qs[i_min]),
        argmin=(records[i_min].x, records[i_min].R),
        argmax=(records[i_max].x, records[i_max].R),
        cells=len(records),
        skipped=tuple(skipped),
    )
    return records, summary


# -- exponent fits ----------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    exponent: float
    stderr: float
    r2: float
    radii: tuple
    values: tuple           # the series fitted against radii


@dataclass(frozen=True)
class ExponentSummary:
    alpha: ExponentFit
    beta: ExponentFit
    gamma: ExponentFit
    erdim_residual: float


def _loglog_fit(radii, values):
    x = np.log(np.asarray(radii, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    stderr = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else 0.0
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return ExponentFit(slope, stderr, r2, tuple(int(r) for r in radii),
                       tuple(values))


def fit_exponents(g, x, radii):
    """Log-log fits: volume -> alpha, exit time -> beta, annulus
    conductance 1/rho(x,R,2R) -> gamma; residual beta - (alpha - gamma)."""
    radii = sorted(set(int(R) for R in radii))
    radii = [R for R in radii if ball_inside_host(g, x, 2 * R)]
    if len(radii) < 4:
        raise ValueError("need at least 4 valid radii for exponent fits")
    alpha = _loglog_fit(radii, [volume(g, x, R) for R in radii])
    beta = _loglog_fit(radii, [mean_exit_time(g, x, R) for R in radii])
    gamma = _loglog_fit(radii, [1.0 / resistance_annulus(g, x, R, 2 * R)
                                for R in radii])
    resid = beta.exponent - (alpha.exponent - gamma.exponent)
    return ExponentSummary(alpha, beta, gamma, float(resid))
