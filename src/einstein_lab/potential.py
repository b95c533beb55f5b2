r"""Exact solvers for the potential theory of the reversible walk.

All quantities reduce to linear systems in the weighted Dirichlet
Laplacian restricted to a region A:

    M = (D - W)|_A,   D = diag(mu),   W = symmetric edge weights.

M is the matrix of mu(x)(I - P^A) on A, so the Green kernel of the
killed walk is simply g^A = M^{-1} (symmetric), visit counts are
G^A(y,z) = g^A(y,z) mu(z), and exit times solve M E = mu|_A.

Ball conventions.  Balls are open, B(x,R) = {d < R}.  The annulus
resistance rho(x,r,R) is measured between the *inner surface* of the
annulus and the exterior: the closed ball {d <= r} is the source pole
and Gamma \ B(x,R) the sink.  With this convention the shells between
consecutive radii tile without overlap, which makes the series law
rho(x,R,4R) >= rho(x,R,2R) + rho(x,2R,4R) an exact cut identity on every
graph (cutting at the sphere S(x,2R) and shorting it can only lower the
resistance).  Set-valued resistances rho(A, Gamma \ B) take their poles
literally.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ._kernels import bfs_distances
from .errors import ConvergenceError, MarginError, UnreachableError
from .graph import (_as_vertex_set, _gather, _keep, _per_graph, _subgraph,
                    ball, boundary, closure, proper_ball, volume)

SOLVE_TOL = 1e-10
EIGEN_TOL = 1e-9
EIGEN_MAXITER = 10_000


# -- linear algebra plumbing -------------------------------------------------


def _dirichlet_matrix(g, region, triplets=None):
    """(D - W)|_region in CSC: mu - w on a self-loop, exact zeros dropped.
    ``triplets`` are the region's ``_gather``, when the caller has them."""
    i, j, w = _gather(g, region, region) if triplets is None else triplets
    k = np.arange(region.size)
    M = sp.csc_matrix((np.r_[g.mu[region], -w], (np.r_[k, i], np.r_[k, j])),
                      shape=(k.size, k.size))
    M.eliminate_zeros()
    return M


def _make_solver(M):
    """Factor M once with scipy's sparse LU (default column ordering) and
    return its raw solve(b); every region, whatever its size, takes this
    one factor.  A singular factor raises ConvergenceError, and
    GreenOperator.solve checks the residual contract.
    """
    try:
        return spla.splu(M).solve
    except RuntimeError as exc:         # "Factor is exactly singular"
        raise ConvergenceError(
            f"LU factor of {M.shape[0]} unknowns failed: {exc}") from None


def _relative_residual(M, x, b):
    bnorm = np.linalg.norm(b)
    return float(np.linalg.norm(M @ x - b) / bnorm) if bnorm else 0.0


def locate(region, v):
    """Position of vertex v in the sorted region."""
    i = int(np.searchsorted(region, v))
    if i == region.size or region[i] != v:
        raise ValueError(f"vertex {v} not in region")
    return i


def _region(g, A):
    """A as the region of a killed walk: neither empty nor the host."""
    A = _as_vertex_set(g, A)
    if A.size == 0:
        raise ValueError("region is empty")
    if A.size == g.vertex_count:
        raise ValueError("region must be a proper subset (killed walk)")
    return A


# -- resistance ---------------------------------------------------------------


def resistance(g, A, B_outer):
    """Effective resistance between A and the complement of B_outer.

    Solves the capacity potential u (1 on A, 0 off B_outer, harmonic on
    B_outer minus A) and returns 1 over the current leaving A; every
    array is the size of B_outer or of A's cut, never of the host."""
    return _capacity(g, A, B_outer)[0]


def _capacity(g, A, B_outer):
    """(rho(A, complement of B_outer), B_outer minus A, the capacity
    potential u on it, the weight of A's cut): ``resistance``'s solve,
    whose u is kept by ``solve`` for the next caller of the same pair."""
    A = _as_vertex_set(g, A)
    B = _as_vertex_set(g, B_outer)
    if A.size == 0:
        raise ValueError("source set is empty")
    interior = np.setdiff1d(B, A, assume_unique=True)
    if interior.size != B.size - A.size:
        raise ValueError("source must lie inside B_outer")
    if B.size == g.vertex_count:
        raise ValueError("sink is empty (B_outer covers the host)")
    u = np.empty(0)
    if interior.size:
        # a row sums as its first entry plus the sum of the rest
        # (np.add.reduceat, scipy's row-sum order): the order the pinned
        # verify.csv digests were computed in
        i, _, w = _gather(g, interior, A)
        rows, starts = np.unique(i, return_index=True)
        rhs = np.bincount(rows, np.add.reduceat(w, starts), interior.size)
        u = solve(g, interior, rhs)
    # sum of mu_xy (1 - u(y)) over the cut, per row of A in CSR order,
    # then row after row; u is 0 on the cut outside B_outer
    cut = boundary(g, A)
    k = np.searchsorted(interior, cut)
    u_cut = np.where(np.append(interior, -1)[k] == cut, np.append(u, 0.0)[k],
                     0.0)
    i, j, w = _gather(g, A, cut)
    current = float(np.cumsum(np.bincount(i, w * (1.0 - u_cut[j]),
                                          A.size))[-1])
    if current <= 1e-300:
        raise UnreachableError("no current flows from source to sink")
    return 1.0 / current, interior, u, float(w.sum())


@_per_graph
def resistance_annulus(g, x, r, R):
    """rho(x,r,R): source is the closed ball {d <= r}, sink the exterior
    of B(x,R); the resistance of the annulus between its surfaces."""
    if not (R > r >= 0):
        raise ValueError("annulus requires R > r >= 0")
    B = proper_ball(g, x, R, what="outer ball")
    source = ball(g, x, r + 1)      # {d <= r}
    return resistance(g, source, B)


def layered_lower_bound(g, A, B_outer):
    """Sum of shell-crossing reciprocals: a resistance lower bound.

    Shells are distance classes from A; shorting each class gives a
    series chain whose resistance sum_i 1/mu(E_i) can only be smaller
    than the true rho(A, complement of B_outer).  Returns the bound and
    the shell count L = d(A, complement of B_outer).  Reads C =
    closure(B_outer) only, where every crossing edge lies.
    """
    A = _as_vertex_set(g, A)
    B = _as_vertex_set(g, B_outer)
    if A.size == 0:
        raise ValueError("source set is empty")
    if B.size == g.vertex_count:
        raise ValueError("sink is empty")
    if np.setdiff1d(A, B, assume_unique=True).size:
        raise ValueError("source touches the sink")
    C = closure(g, B)
    W, (i, j, w) = _subgraph(g, C)
    dA = bfs_distances(W, np.searchsorted(C, A))
    # a vertex of C that the BFS inside C misses is farther than L
    d_out = np.delete(dA, np.searchsorted(C, B))
    L = int(d_out[d_out >= 0].min())
    # each edge once (i <= j), in edge-list order since the relabel keeps
    # it; a self-loop never steps
    du, dv = dA[i], dA[j]
    lo = np.minimum(du, dv)
    step = (i <= j) & (np.abs(du - dv) == 1) & (lo < L)
    cross = np.bincount(lo[step], weights=w[step], minlength=L)
    if np.any(cross <= 0):
        raise UnreachableError("empty shell crossing")
    with np.errstate(over="ignore"):
        bound = float(np.sum(1.0 / cross))
    if bound == np.inf:
        raise UnreachableError("shell crossing below float64 resolution")
    return bound, L


# -- Green operator -----------------------------------------------------------


class GreenOperator:
    """The Dirichlet system M = (D - W)|_A of a region A, assembled and
    factored once.  Every solve is checked against the relative residual
    SOLVE_TOL; ``residual`` is the worst one seen so far."""

    def __init__(self, g, region, triplets=None):
        region = _region(g, region)
        self.region = region
        self.size = int(region.size)
        self.mu = g.mu[region]
        self._M = _dirichlet_matrix(g, region, triplets)
        self._raw_solve = _make_solver(self._M)
        self.residual = 0.0

    def solve(self, rhs):
        """M^{-1} rhs, refused when it misses the residual contract
        (extreme weight ratios can push even a pivoted LU past float64)."""
        x = self._raw_solve(rhs)
        res = _relative_residual(self._M, x, rhs)
        if not res <= SOLVE_TOL:        # a NaN residual fails too
            raise ConvergenceError(
                f"linear solve on {self.size} unknowns missed the residual "
                f"contract", residual=res)
        self.residual = max(self.residual, res)
        return x


# -- one keyed solve per system and right-hand side ---------------------------


def _system_key(n, i, j, w, mu, rhs):
    """Digest of the Dirichlet system on n unknowns with off-diagonal
    triplets (i, j, w) and diagonal mu, and of its right-hand side: every
    input of its assembly, its factor and its solve.  The shapes lead, so
    two systems whose arrays concatenate to the same bytes still differ."""
    h = hashlib.blake2b(np.array([n, w.size], dtype=np.int64).tobytes())
    for a in (i, j, w, mu, rhs):
        h.update(a.tobytes())
    return h.digest()


def solve(g, A, rhs):
    """M^{-1} rhs on the region A, read-only: the one path to a single
    right-hand side.  Kept in ``g._memo`` under (solve, key of the system
    and rhs), so a translate of a system solved before costs a gather and
    a hash.  A miss factors the triplets just hashed and keeps the vector
    through ``_keep``; a failed solve stores nothing.  The memo holds
    vectors, never factors."""
    A = _region(g, A)
    triplets = _gather(g, A, A)
    key = (solve, _system_key(A.size, *triplets, g.mu[A], rhs))
    if key in g._memo:
        return g._memo[key]
    return _keep(g, key, GreenOperator(g, A, triplets).solve(rhs))


def column(g, A, z):
    """g^A(., z) over the region A, read-only: ``solve`` at e_z."""
    A = _region(g, A)
    e = np.zeros(A.size)
    e[locate(A, z)] = 1.0
    return solve(g, A, e)


def exit_times(g, region):
    """E_z(T_A) for z in the region A, read-only: ``solve`` of M E = mu."""
    region = _as_vertex_set(g, region)
    return solve(g, region, g.mu[region])


@_per_graph
def mean_exit_time(g, x, R):
    """E(x,R): expected exit time of B(x,R) started at its center."""
    B = proper_ball(g, x, R)
    return float(exit_times(g, B)[locate(B, x)])


@_per_graph
def max_exit_time(g, x, R):
    """Ebar(x,R): worst-case expected exit time over starting points."""
    return float(exit_times(g, proper_ball(g, x, R)).max())


@_per_graph
def shrunk_exit_time(g, x, R):
    """E'_a(T_B), B = B(x,2R), once A = B(x,R) is shrunk to a vertex a,
    read off the capacity potential u of A against the complement of B;
    no shrunk graph is built.  The shrunk walk's Green kernel has g'(a,y)
    = u(y) g'(a,a) and g'(a,a) = rho(A, complement of B), so

        E'_a(T_B) = rho (mu'(a) + sum over B minus A of u mu),

    mu'(a) the weight of A's cut (Telcs, arXiv 0801.2336; Doyle & Snell,
    1984).  The symmetry g'(a,y) = g'(y,a) needs M symmetric, which holds
    on every graph the constructor builds.  rho is resistance_annulus(g,
    x, R-1, 2R) bit for bit, and u is its solve, kept by ``solve``."""
    A = proper_ball(g, x, R)
    B = proper_ball(g, x, 2 * R, what="outer ball")
    rho, interior, u, mu_a = _capacity(g, A, B)
    return rho * (mu_a + float(u @ g.mu[interior]))


# -- smallest Dirichlet eigenvalue ---------------------------------------------


@dataclass(frozen=True)
class EigenResult:
    lam: float
    iterations: int
    residual: float


def lambda_min(g, A):
    """Smallest eigenvalue of (I - P^A)|_A via inverse iteration.

    The operator is conjugated by mu^{1/2} into S = D^{-1/2} M D^{-1/2},
    whose eigenvalues are the original operator's; S^{-1} v = d M^{-1} d v
    is solved through the region's GreenOperator.  Stops on the Rayleigh
    residual.
    """
    op = GreenOperator(g, A)
    d = np.sqrt(op.mu)
    v = np.ones(op.size) / np.sqrt(op.size)
    res = np.inf
    for it in range(1, EIGEN_MAXITER + 1):
        w = d * op.solve(d * v)
        w /= np.linalg.norm(w)
        Sw = (op._M @ (w / d)) / d
        lam = float(w @ Sw)
        res = float(np.linalg.norm(Sw - lam * w))
        v = w
        if res <= EIGEN_TOL:
            if lam <= 0.0:
                # the operator is positive definite, so a non-positive
                # Rayleigh quotient means the eigenvalue sits below
                # float64 resolution (e.g. exponentially decaying
                # weights); report inability rather than garbage
                raise ConvergenceError(
                    "smallest eigenvalue below numerical resolution",
                    residual=res, iterations=it)
            return EigenResult(lam, it, res)
    raise ConvergenceError(
        f"inverse iteration did not converge in {EIGEN_MAXITER} steps",
        residual=res, iterations=EIGEN_MAXITER,
    )


# -- exit law and Harnack-type constants --------------------------------------


def exit_law(g, x, R):
    """(boundary of B = B(x,R), P_x(exit at z)): the law sums g^B(x,y) w(y,z)
    over y, from the memoized center column by the symmetry of g^B."""
    B = proper_ball(g, x, R)
    bnd = boundary(g, B)
    i, j, w = _gather(g, B, bnd)
    return bnd, np.bincount(j, column(g, B, x)[i] * w, bnd.size)


@_per_graph
def harnack_constant(g, x, R):
    """Extremal Harnack ratio over non-negative functions harmonic in
    B(x,2R), maximised on the half ball B(x,R).

    Every such function is a non-negative combination of the exit
    kernels omega(., z) = M^{-1} w(., z), and a ratio of non-negative
    combinations is bounded by the extreme per-kernel ratio, so the
    maximum over kernels is the exact supremum over the cone.  One
    operator solves the kernels one z at a time, keeping each one's max
    and min over the half ball.  Returns inf when a kernel vanishes
    somewhere on the half ball (flagging host disconnection).
    """
    if R < 1:
        raise ValueError("radius must be >= 1")
    B = proper_ball(g, x, 2 * R)
    bnd = boundary(g, B)
    op = GreenOperator(g, B)
    half = np.isin(B, ball(g, x, R))
    i, j, w = _gather(g, B, bnd)
    # each kernel's entries contiguous and, by a stable sort, in gather
    # order: the order the pinned H values sum each right-hand side in
    order = np.argsort(j, kind="stable")
    i, w = i[order], w[order]
    cuts = np.r_[0, np.cumsum(np.bincount(j, minlength=bnd.size))].tolist()
    top, bot = np.empty((2, bnd.size))
    for k in range(bnd.size):
        s = slice(cuts[k], cuts[k + 1])
        kernel = op.solve(np.bincount(i[s], w[s], B.size))[half]
        top[k], bot[k] = kernel.max(), kernel.min()
    if np.any((bot <= 0.0) & (top > 0.0)):
        return float("inf")
    live = bot > 0.0
    return float(np.max(top[live] / bot[live], initial=1.0))


def hg_constant(g, x, R):
    """sup over the annulus of g^{B(x,2R)}(x,.) divided by the inf over
    B(x,R); the measured constant of the Green-kernel Harnack bound."""
    return g_condition(g, x, R)[2]


@_per_graph
def g_condition(g, x, R):
    """From the center column of B(x,2R), split ball/annulus: the bounds
    (min over B(x,R) of g) V/E and (max over the annulus of g) V/E, then
    hg_constant's ratio sup/inf."""
    if R < 1:
        raise ValueError("radius must be >= 1")
    B2 = proper_ball(g, x, 2 * R, what="outer ball")
    inner = np.isin(B2, ball(g, x, R))
    if inner.all():
        raise MarginError("annulus B(x,2R) \\ B(x,R) is empty")
    gx = column(g, B2, x)
    e2r = float(gx @ g.mu[B2])      # E(x,2R) via the visit identity
    inf_ball, sup_ann = float(gx[inner].min()), float(gx[~inner].max())
    V = volume(g, x, R)
    return inf_ball * V / e2r, sup_ann * V / e2r, sup_ann / inf_ball
