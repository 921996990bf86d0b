"""Structured triangulations of the unit square and their refinement hierarchy.

A level with ``n`` cells per side splits each grid cell along one diagonal,
giving ``2*n**2`` triangles, ``3*n**2 + 2*n`` edges and ``(n+1)**2``
vertices.  The diagonal's direction alternates with the parity of the cell:
cells with even ``i + j`` use the lower-left to upper-right diagonal, odd
cells the lower-right to upper-left one.  The alternation matters twice
over: the pattern reproduces itself under midpoint refinement (so coarse
edges are unions of fine edges and the spaces nest exactly), and every
corner of the square meets a diagonal, so no vertex star degenerates to a
single triangle.  With one diagonal direction throughout, two corners would
have one-triangle stars, and the vertex-patch smoothers of ``multigrid``
would lose a noticeable constant in the mass-matrix limit.  Their patches
come from ``vertex_patches``: one sorted array of edge ids per vertex.

Vertices are numbered row-major (x fastest), triangles cell-major (bottom
triangle first), and edges in three structured blocks: horizontal, vertical,
diagonal.  Every edge is stored from its lower-numbered to its
higher-numbered vertex; its unit normal is the tangent rotated by -90
degrees.  That global orientation is what the per-triangle signs below
encode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeshLevel",
    "build_level",
    "build_hierarchy",
    "vertex_patches",
]


@dataclass(frozen=True)
class MeshLevel:
    """One structured triangulation of the unit square.

    Attributes
    ----------
    n : cells per side.
    vertices : (nv, 2) float array of coordinates.
    triangles : (nt, 3) int array, counterclockwise.
    edges : (ne, 2) int array, lower vertex id first.
    triangle_edges : (nt, 3) int array; entry ``a`` is the edge opposite
        local vertex ``a``.
    triangle_edge_signs : (nt, 3) int array in {-1, +1}; +1 where the global
        edge normal coincides with the triangle's outward normal.
    """

    n: int
    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    triangle_edges: np.ndarray
    triangle_edge_signs: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def areas(self) -> np.ndarray:
        """Signed triangle areas (all equal to ``1/(2 n^2)`` and positive)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def build_level(n: int) -> MeshLevel:
    """Triangulate the unit square with ``n`` cells per side."""
    if n < 1:
        raise ValueError(f"cells per side must be >= 1, got {n}")
    m = n + 1

    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
    vertices = np.column_stack([ii.ravel() / n, jj.ravel() / n]).astype(float)

    def vid(i, j):
        return j * m + i

    ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ci = ci.ravel()
    cj = cj.ravel()
    even = (ci + cj) % 2 == 0
    a = vid(ci, cj)
    b = vid(ci + 1, cj)
    c = vid(ci + 1, cj + 1)
    d = vid(ci, cj + 1)
    # Even cells carry the a-c diagonal, odd cells the b-d one.  The bottom
    # triangle (the one containing the cell's bottom edge) comes first.
    bottom = np.column_stack([a, b, np.where(even, c, d)])
    top = np.column_stack([np.where(even, a, b), c, d])
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = bottom
    triangles[1::2] = top

    # Structured edge blocks: horizontal, vertical, diagonal; each block scans
    # rows bottom-up.  All three run lower vertex id -> higher vertex id
    # (for the odd-cell diagonal that is b -> d since b < d row-major).
    hi, hj = np.meshgrid(np.arange(n), np.arange(m), indexing="xy")
    horiz = np.column_stack([vid(hi.ravel(), hj.ravel()), vid(hi.ravel() + 1, hj.ravel())])
    vi, vj = np.meshgrid(np.arange(m), np.arange(n), indexing="xy")
    vert = np.column_stack([vid(vi.ravel(), vj.ravel()), vid(vi.ravel(), vj.ravel() + 1)])
    diag = np.column_stack([np.where(even, a, b), np.where(even, c, d)])
    edges = np.vstack([horiz, vert, diag]).astype(np.int64)

    # Edge opposite local vertex a, walked as part of the ccw boundary; the
    # walk agreeing with the stored low->high direction means the outward
    # normal is the global one.  Edge ids are closed-form in the block
    # layout, indexed by the lower vertex (i, j): horizontal j*n + i,
    # vertical n*m + j*m + i, diagonal 2*n*m + j*n + (leftmost i), the
    # diagonal's cell index.
    u = triangles[:, [1, 2, 0]]
    w = triangles[:, [2, 0, 1]]
    lo, up = np.minimum(u, w), np.maximum(u, w)
    i0, j0, i1, j1 = lo % m, lo // m, up % m, up // m
    triangle_edges = np.where(
        j0 == j1, j0 * n + i0,
        np.where(i0 == i1, n * m + j0 * m + i0, 2 * n * m + j0 * n + np.minimum(i0, i1)),
    )
    triangle_edge_signs = np.where(u < w, 1, -1)

    return MeshLevel(
        n=n,
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        triangle_edges=triangle_edges,
        triangle_edge_signs=triangle_edge_signs,
    )


def build_hierarchy(n0: int, num_levels: int) -> list:
    """Uniformly refined levels, coarsest first, with ``n0 * 2**k`` cells per
    side on level k."""
    if n0 < 1:
        raise ValueError(f"coarsest cells per side must be >= 1, got {n0}")
    if num_levels < 1:
        raise ValueError(f"need at least one level, got {num_levels}")
    return [build_level(n0 * 2**k) for k in range(num_levels)]


def vertex_patches(level: MeshLevel) -> list:
    """Edge stars, one per mesh vertex in ascending vertex order.

    A patch is the sorted array of ids of the edges having the vertex as an
    endpoint.  With the alternating diagonals an interior vertex has 8 of
    them when the diagonals of all four surrounding cells meet there and 4
    otherwise; corners and boundary vertices have fewer.  Every edge of the
    mesh belongs to exactly two patches — one per endpoint.
    """
    ends = level.edges.ravel()
    # A stable sort keeps each vertex's edge ids ascending.
    edge_of = np.argsort(ends, kind="stable") // 2
    return np.split(edge_of, np.cumsum(np.bincount(ends, minlength=level.num_vertices))[:-1])
