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
from .graph import (WeightedGraph, _as_vertex_set, _per_graph, ball,
                    boundary, closure, proper_ball, shrink, volume)

SOLVE_TOL = 1e-10
EIGEN_TOL = 1e-9
EIGEN_MAXITER = 10_000


# -- linear algebra plumbing -------------------------------------------------


def _gather(g, rows, cols):
    """W[rows][:, cols] as triplets (i, j, w) in CSR order, i indexing
    ``rows`` and j the sorted ``cols``; reads the rows' entries only."""
    hi = g.indptr[rows + 1]
    counts = hi - g.indptr[rows]
    i = np.repeat(np.arange(rows.size), counts)
    pos = np.arange(i.size) + (hi - np.cumsum(counts))[i]
    nbr = g.indices[pos]
    j = np.searchsorted(cols, nbr)
    hit = np.append(cols, -1)[j] == nbr
    return i[hit], j[hit], g.weights[pos[hit]]


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


def _locate(region, v):
    """Position of vertex v in the sorted region."""
    i = int(np.searchsorted(region, v))
    if i == region.size or region[i] != v:
        raise ValueError(f"vertex {v} not in region")
    return i


# -- resistance ---------------------------------------------------------------


def resistance(g, A, B_outer):
    """Effective resistance between A and the complement of B_outer.

    Solves the capacity potential u (1 on A, 0 off B_outer, harmonic on
    B_outer minus A) and returns 1 over the current leaving A; every
    array is the size of B_outer or of A's cut, never of the host."""
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
        u = GreenOperator(g, interior).solve(rhs)
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
    return 1.0 / current


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
    i, j, w = _gather(g, C, C)
    indptr = np.r_[0, np.cumsum(np.bincount(i, minlength=C.size))]
    dA = bfs_distances(sp.csr_matrix((w, j, indptr), shape=(C.size, C.size)),
                       np.searchsorted(C, A))
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
    factored once and reused across right-hand sides.  Every solve is
    checked against the relative residual SOLVE_TOL; ``residual`` is the
    worst one seen so far.  kernel(y,z) is g^A(y,z) = M^{-1}(y,z); it is
    exactly symmetric because M is.  ``triplets``: as for
    ``_dirichlet_matrix``."""

    def __init__(self, g, region, triplets=None):
        region = _as_vertex_set(g, region)
        if region.size == 0:
            raise ValueError("region is empty")
        if region.size == g.vertex_count:
            raise ValueError("region must be a proper subset (killed walk)")
        self.graph = g
        self.region = region
        self.size = int(region.size)
        self.mu = g.mu[region]
        self._M = _dirichlet_matrix(g, region, triplets)
        self._raw_solve = _make_solver(self._M)
        self.residual = 0.0

    def local(self, v):
        return _locate(self.region, v)

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

    def column(self, z):
        """g^A(., z) over the region."""
        rhs = np.zeros(self.size)
        rhs[self.local(z)] = 1.0
        return self.solve(rhs)

    def kernel(self, y, z):
        return float(self.column(z)[self.local(y)])

    def visits(self, y, z):
        """G^A(y,z): expected visits to z by the walk killed outside A."""
        return self.kernel(y, z) * float(self.graph.mu[z])

    def exit_times(self):
        """E_z(T_A) for z in the region: solves M E = mu."""
        return self.solve(self.mu)


# -- exit times ----------------------------------------------------------------


def _system_key(n, i, j, w, mu):
    """Digest of the Dirichlet system on n unknowns with off-diagonal
    triplets (i, j, w) and diagonal mu: every input of its assembly, its
    factor and its solve.  The shapes lead, so two systems whose arrays
    concatenate to the same bytes still differ."""
    h = hashlib.blake2b(np.array([n, w.size], dtype=np.int64).tobytes())
    for a in (i, j, w, mu):
        h.update(a.tobytes())
    return h.digest()


def exit_times(g, region):
    """E_z(T_A) for z in the region A, read-only: the one path to an
    exit-time vector.  Vectors are memoized per graph in ``g._exit_times``
    under the system's key, so a ball that is a translate of one solved
    before (same triplets, same mu, in the same order) costs a gather and
    a hash.  A miss factors the triplets just hashed; a failed solve
    raises and stores nothing.  The memo holds one vector per distinct
    system the graph has solved, one float per vertex of its region."""
    region = _as_vertex_set(g, region)
    triplets = _gather(g, region, region)
    key = _system_key(region.size, *triplets, g.mu[region])
    E = g._exit_times.get(key)
    if E is None:
        E = GreenOperator(g, region, triplets).exit_times()
        E.setflags(write=False)
        g._exit_times[key] = E
    return E


@_per_graph
def mean_exit_time(g, x, R):
    """E(x,R): expected exit time of B(x,R) started at its center."""
    B = proper_ball(g, x, R)
    return float(exit_times(g, B)[_locate(B, x)])


@_per_graph
def max_exit_time(g, x, R):
    """Ebar(x,R): worst-case expected exit time over starting points."""
    return float(exit_times(g, proper_ball(g, x, R)).max())


@_per_graph
def shrunk_exit_time(g, x, R):
    """E_a(T_B), B = B(x,2R), once A = B(x,R) is shrunk to a vertex a.
    Only C = closure(B) is shrunk, rebuilt from its gather's edges (i <= j):
    it holds B's edges in order, so the system is the shrunk host's.  The
    shrunk graph dies at return, so its solve skips the exit-time memo."""
    A = proper_ball(g, x, R)
    B = proper_ball(g, x, 2 * R, what="outer ball")
    C = closure(g, B)
    i, j, w = _gather(g, C, C)
    up = i <= j
    sr = shrink(WeightedGraph(C.size, np.column_stack([i[up], j[up], w[up]])),
                np.searchsorted(C, A))
    keep = sr.old_to_new[np.searchsorted(C, B)]
    region = np.append(keep[keep >= 0], sr.a)
    return float(GreenOperator(sr.graph, region).exit_times()[-1])


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


# -- harmonic measure and Harnack-type constants -------------------------------


@dataclass(frozen=True)
class HarmonicMeasure:
    region: np.ndarray
    boundary: np.ndarray
    omega: np.ndarray         # shape (|region|, |boundary|), rows sum to 1

    def row(self, y):
        return self.omega[_locate(self.region, y)]


def harmonic_measure(g, x, R):
    """Exit-position law omega(y,z) = P_y(walk leaves B(x,R) at z)."""
    B = proper_ball(g, x, R)
    bnd = boundary(g, B)
    op = GreenOperator(g, B)
    i, j, w = _gather(g, B, bnd)
    omega = np.zeros((B.size, bnd.size), dtype=np.float64)
    omega[i, j] = w
    for k in range(bnd.size):
        omega[:, k] = op.solve(omega[:, k])
    return HarmonicMeasure(B, bnd, omega)


@_per_graph
def harnack_constant(g, x, R):
    """Extremal Harnack ratio over non-negative functions harmonic in
    B(x,2R), maximised on the half ball B(x,R).

    Every such function is a non-negative combination of the exit
    kernels omega(., z), and a ratio of non-negative combinations is
    bounded by the extreme per-kernel ratio, so the maximum over kernels
    is the exact supremum over the cone.  Returns inf when a kernel
    vanishes somewhere on the half ball (flagging host disconnection).
    """
    if R < 1:
        raise ValueError("radius must be >= 1")
    hm = harmonic_measure(g, x, 2 * R)
    rows = hm.omega[np.isin(hm.region, ball(g, x, R))]
    top = rows.max(axis=0)
    bot = rows.min(axis=0)
    if np.any((bot <= 0.0) & (top > 0.0)):
        return float("inf")
    live = bot > 0.0
    return float(np.max(top[live] / bot[live], initial=1.0))


def _green_ball_profile(g, x, R):
    """One Green solve on B(x,2R): kernel row at x, split annulus/ball."""
    if R < 1:
        raise ValueError("radius must be >= 1")
    B2 = proper_ball(g, x, 2 * R, what="outer ball")
    sel_inner = np.isin(B2, ball(g, x, R))
    if sel_inner.all():
        raise MarginError("annulus B(x,2R) \\ B(x,R) is empty")
    op = GreenOperator(g, B2)
    gx = op.column(x)
    e2r = float(gx @ op.mu)          # E(x,2R) via the visit identity
    return float(gx[sel_inner].min()), float(gx[~sel_inner].max()), e2r


def hg_constant(g, x, R):
    """sup over the annulus of g^{B(x,2R)}(x,.) divided by the inf over
    B(x,R); the measured constant of the Green-kernel Harnack bound."""
    return g_condition(g, x, R)[2]


@_per_graph
def g_condition(g, x, R):
    """From one Green solve: the bounds (min over B(x,R) of g) V/E and (max
    over the annulus of g) V/E, then hg_constant's ratio sup/inf."""
    inf_ball, sup_ann, e2r = _green_ball_profile(g, x, R)
    V = volume(g, x, R)
    return inf_ball * V / e2r, sup_ann * V / e2r, sup_ann / inf_ball
