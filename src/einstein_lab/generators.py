"""Deterministic graph families used to exercise the measurements.

Every constructor returns ``(graph, center)`` where ``center`` is the
distinguished vertex (lattice midpoint, gasket corner, tree hub/root).
Vertex ids follow first appearance in the family's construction order
(row-major on the lattice, heap order on the binary tree), so outputs
are reproducible byte-for-byte.
"""

import numpy as np

from ._kernels import bfs_distances
from .graph import WeightedGraph

RADIAL_LAMBDA_MIN = 0.25
RADIAL_LAMBDA_MAX = 4.0


def _first_seen(points):
    """Distinct rows by first appearance, and each row's index among them."""
    rows, first, inverse = np.unique(points, axis=0, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)
    ids = np.empty_like(order)
    ids[order] = np.arange(order.size)
    return rows[order], ids[inverse.reshape(-1)]


def _unit_edges(u, v):
    """Edge rows (u, v, 1.0)."""
    return np.column_stack([u, v, np.ones(len(u))])


def lattice_box(d, L):
    """L^d box of Z^d with nearest-neighbour unit edges; L odd so the
    center is unique.  Vertex ids are row-major coordinates."""
    if d not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    if L < 3 or L % 2 == 0:
        raise ValueError("side length must be odd and >= 3")
    ids = np.arange(L ** d).reshape((L,) * d)
    # each vertex paired with its successor along every axis
    u = np.concatenate([np.delete(ids, -1, axis=ax).ravel() for ax in range(d)])
    v = np.concatenate([np.delete(ids, 0, axis=ax).ravel() for ax in range(d)])
    return WeightedGraph(L ** d, _unit_edges(u, v)), (L ** d - 1) // 2


def _gasket(level):
    """The level-k gasket's vertex coordinates and edges as id pairs."""
    cell = np.arange(3 ** level)
    unit = np.array([[0, 0], [1, 0], [0, 1]])
    corner = sum(unit[cell // 3 ** e % 3] << e for e in range(level))
    coords, ids = _first_seen((corner[:, None] + unit).reshape(-1, 2))
    # each cell's 3-clique: (c, c+(1,0)), (c, c+(0,1)), (c+(1,0), c+(0,1))
    return coords, ids.reshape(-1, 3)[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2)


def sierpinski_gasket(level):
    """Level-k pre-fractal gasket: (3^(k+1)+3)/2 vertices, 3^(k+1) edges.

    Built on skewed integer coordinates: the outer triangle has corners
    (0,0), (2^k,0), (0,2^k) and unit cells are 3-cliques, taken depth
    first: base-3 digit e of a cell's index picks the sub-triangle at
    (0,0), (1,0) or (0,1) times 2^e.  Cell corners c, c+(1,0), c+(0,1)
    are numbered in turn, so corner (0,0) is vertex 0.
    """
    if not (1 <= level <= 10):
        raise ValueError("gasket level must be in 1..10")
    coords, pairs = _gasket(level)
    return WeightedGraph(len(coords), _unit_edges(*pairs.T)), 0


def _vicsek(level):
    """The level-k Vicsek tree's vertex coordinates and edges as id pairs."""
    arm = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    segs = np.column_stack([np.zeros_like(arm), arm])    # hub end first
    for e in range(level - 1):
        shift = np.vstack([[0, 0], 2 * 3 ** e * arm])
        segs = (segs + np.tile(shift, 2)[:, None]).reshape(-1, 4)
    ends = np.unique(segs, axis=0).reshape(-1, 2)
    coords, ids = _first_seen(np.vstack([[0, 0], ends]))
    return coords, ids[1:].reshape(-1, 2)


def vicsek_tree(level):
    """Plus-sign fractal tree: 4*5^(k-1)+1 vertices, one fewer edges.

    Level 1 is a hub with four diagonal arms; each further level glues
    five copies corner-to-corner, keeping a tree of maximum degree 4.
    The hub is vertex 0; the ends of the sorted segments follow.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    coords, pairs = _vicsek(level)
    return WeightedGraph(len(coords), _unit_edges(*pairs.T)), 0


def binary_tree(depth):
    """Complete binary tree with 2^(depth+1)-1 vertices; root is 0."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    c = np.arange(1, 2 ** (depth + 1) - 1)
    return WeightedGraph(c.size + 1, _unit_edges((c - 1) // 2, c)), 0


def apply_radial_weights(g, root, lam):
    """Reweight edges to lam^(distance of the edge from root).

    The edge level is the smaller endpoint distance; lam != 1 breaks the
    spatial homogeneity of resistance and exit times on purpose, giving
    negative-control fixtures.  lam is clamped to keep one-step
    probabilities bounded away from zero.
    """
    if not (RADIAL_LAMBDA_MIN <= lam <= RADIAL_LAMBDA_MAX):
        raise ValueError(
            f"radial lambda must lie in [{RADIAL_LAMBDA_MIN}, {RADIAL_LAMBDA_MAX}]"
        )
    d = bfs_distances(g.matrix, g.check_vertex(root))
    u, v, w = g._upper()
    # numpy's array power differs from Python's ``**`` in the last bit for
    # some (lam, k), so the powers are one table built with ``**``
    power = np.array([lam ** k for k in range(d.max() + 1)], dtype=float)
    w = w * power[np.minimum(d[u], d[v])]
    return WeightedGraph(g.vertex_count, np.column_stack([u, v, w]))
