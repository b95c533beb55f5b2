"""Deterministic graph families used to exercise the measurements.

Every constructor returns ``(graph, center)`` where ``center`` is the
distinguished vertex (lattice midpoint, gasket corner, tree hub/root).
Vertex numbering is construction order, so outputs are reproducible
byte-for-byte.
"""

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph

RADIAL_LAMBDA_MIN = 0.25
RADIAL_LAMBDA_MAX = 4.0


@dataclass(frozen=True)
class FamilySpec:
    family: str          # lattice | sierpinski | vicsek | binary_tree
    size: int            # side length L, fractal level k, or depth
    dim: int = 2         # lattice only
    weight_rule: str = "unit"   # unit | radial
    radial_lambda: float = 1.0


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
    edges = np.column_stack([u, v, np.ones(u.size)])
    return WeightedGraph(L ** d, edges), (L ** d - 1) // 2


def sierpinski_gasket(level):
    """Level-k pre-fractal gasket: (3^(k+1)+3)/2 vertices, 3^(k+1) edges.

    Built on skewed integer coordinates: the outer triangle has corners
    (0,0), (2^k,0), (0,2^k) and unit cells are 3-cliques.
    """
    if not (1 <= level <= 8):
        raise ValueError("gasket level must be in 1..8")
    ids = {}
    edges = []

    def vid(p):
        if p not in ids:
            ids[p] = len(ids)
        return ids[p]

    def rec(x, y, s):
        if s == 1:
            a, b, c = vid((x, y)), vid((x + 1, y)), vid((x, y + 1))
            edges.append((a, b, 1.0))
            edges.append((a, c, 1.0))
            edges.append((b, c, 1.0))
            return
        h = s // 2
        rec(x, y, h)
        rec(x + h, y, h)
        rec(x, y + h, h)

    rec(0, 0, 2 ** level)
    corner = ids[(0, 0)]
    return WeightedGraph(len(ids), edges), corner


def vicsek_tree(level):
    """Plus-sign fractal tree: 4*5^(k-1)+1 vertices, one fewer edges.

    Level 1 is a hub with four diagonal arms; each further level glues
    five copies corner-to-corner, keeping the structure a tree with
    maximum degree 4.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    # coordinate edge set, grown by translation; copies share corners
    pts = {(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    segs = {((0, 0), (1, 1)), ((0, 0), (1, -1)),
            ((0, 0), (-1, 1)), ((0, 0), (-1, -1))}
    span = 1
    for _ in range(1, level):
        shift = 2 * span
        new_pts = set(pts)
        new_segs = set(segs)
        for dx, dy in ((shift, shift), (shift, -shift),
                       (-shift, shift), (-shift, -shift)):
            for (x, y) in pts:
                new_pts.add((x + dx, y + dy))
            for (p, q) in segs:
                new_segs.add(((p[0] + dx, p[1] + dy), (q[0] + dx, q[1] + dy)))
        pts, segs = new_pts, new_segs
        span *= 3

    ids = {}

    def vid(p):
        if p not in ids:
            ids[p] = len(ids)
        return ids[p]

    vid((0, 0))
    edges = []
    for p, q in sorted(segs):
        edges.append((vid(p), vid(q), 1.0))
    return WeightedGraph(len(ids), edges), ids[(0, 0)]


def binary_tree(depth):
    """Complete binary tree with 2^(depth+1)-1 vertices; root is 0."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = 2 ** (depth + 1) - 1
    edges = []
    for child in range(1, n):
        edges.append(((child - 1) // 2, child, 1.0))
    return WeightedGraph(n, edges), 0


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
    d = g.distances(root)
    u, v, w = g._upper()
    # numpy's array power differs from Python's ``**`` in the last bit for
    # some (lam, k), so the powers are one table built with ``**``
    power = np.array([lam ** k for k in range(d.max() + 1)], dtype=float)
    w = w * power[np.minimum(d[u], d[v])]
    return WeightedGraph(g.vertex_count, np.column_stack([u, v, w]))


def build(spec: FamilySpec):
    """Construct the family described by ``spec``; returns (graph, center)."""
    if spec.family == "lattice":
        g, center = lattice_box(spec.dim, spec.size)
    elif spec.family == "sierpinski":
        g, center = sierpinski_gasket(spec.size)
    elif spec.family == "vicsek":
        g, center = vicsek_tree(spec.size)
    elif spec.family == "binary_tree":
        g, center = binary_tree(spec.size)
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.weight_rule == "radial":
        g = apply_radial_weights(g, center, spec.radial_lambda)
    elif spec.weight_rule != "unit":
        raise ValueError(f"unknown weight rule {spec.weight_rule!r}")
    return g, center
