"""Lowest-order finite element matrices on one mesh level.

Spaces per level: S — piecewise constants, V — lowest-order H(div) elements
(one normal-flux degree of freedom per edge, global normal fixed by the mesh
edge orientation), C — continuous piecewise linears.  On a triangle T with
vertices p_0, p_1, p_2 the local flux basis is phi_a(x) = (x - p_a) / (2|T|),
which has unit total flux through the edge opposite p_a and divergence
1/|T|; the global basis function of an edge is the local one times the
orientation sign recorded in the mesh.

Assembled objects (sparse CSR unless noted):

- ``mass_s``      (NS, NS)  diagonal of triangle areas
- ``mass_v``      (NV, NV)  flux mass matrix (edge-midpoint quadrature,
                            exact for the quadratic integrand)
- ``hdiv``        (NV, NV)  mass_v + <div .,div .>
- ``grad``        (NV, NS)  discrete gradient in dual form:
                            grad[e, t] = -<indicator_t, div psi_e>
- ``curl``        (NV, NC)  <rot of the hat function, psi_e>

``hdiv - mass_v == grad @ inv(mass_s) @ grad.T`` holds exactly, which ties
the two independently assembled sign conventions together (tested).

``assemble_all`` assembles a list of levels, coarsest first, as
``mesh.build_hierarchy`` returns it; each ``LevelMatrices`` carries its mesh,
so the assembled list is the hierarchy from then on.  Beyond the level
matrices the module builds the dense dual scalar operator
(``laplacian_dual``) and the flux embedding from one level into its uniform
refinement (``assemble_prolongation``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import MeshLevel

__all__ = [
    "LevelMatrices",
    "assemble",
    "assemble_all",
    "laplacian_dual",
    "assemble_prolongation",
]


@dataclass(frozen=True)
class LevelMatrices:
    """Sparse operators of one level, plus its index in the hierarchy."""

    index: int
    mesh: MeshLevel
    mass_s: sp.csr_matrix
    mass_v: sp.csr_matrix
    hdiv: sp.csr_matrix
    grad: sp.csr_matrix
    curl: sp.csr_matrix


def assemble(level: MeshLevel, index: int = 0) -> LevelMatrices:
    """Assemble all level matrices at once (vectorized over triangles)."""
    pts = level.vertices[level.triangles]          # (nt, 3, 2)
    area = level.areas()                            # (nt,)
    nt, nv_local = level.num_triangles, 3
    te = level.triangle_edges                       # (nt, 3)
    s = level.triangle_edge_signs.astype(float)     # (nt, 3)
    NS, NV, NC = level.num_triangles, level.num_edges, level.num_vertices

    # Edge midpoints (the quadrature points), local basis values there.
    mids = 0.5 * (pts[:, [1, 2, 0], :] + pts[:, [2, 0, 1], :])      # (nt, 3, 2)
    # vals[t, a, q, :] = phi_a(midpoint q)
    vals = (mids[:, None, :, :] - pts[:, :, None, :]) / (2.0 * area)[:, None, None, None]

    w = (area / 3.0)[:, None, None]
    local_mass = np.einsum("taqx,tbqx->tab", vals, vals) * w        # (nt, 3, 3)
    signed_mass = s[:, :, None] * s[:, None, :] * local_mass
    rows = np.broadcast_to(te[:, :, None], (nt, 3, 3)).ravel()
    cols = np.broadcast_to(te[:, None, :], (nt, 3, 3)).ravel()
    mass_v = sp.coo_matrix((signed_mass.ravel(), (rows, cols)), shape=(NV, NV)).tocsr()

    dd = (s[:, :, None] * s[:, None, :]) / area[:, None, None]
    divdiv = sp.coo_matrix((dd.ravel(), (rows, cols)), shape=(NV, NV)).tocsr()

    tcols = np.broadcast_to(np.arange(nt)[:, None], (nt, 3)).ravel()
    grad = sp.coo_matrix(((-s).ravel(), (te.ravel(), tcols)), shape=(NV, NS)).tocsr()

    # rot of the hat function of local vertex a is the constant vector
    # (p_{a+2} - p_{a+1}) / (2|T|); pair it with phi_b via the centroid rule
    # (exact: the integrand is affine).
    rot = (pts[:, [2, 0, 1], :] - pts[:, [1, 2, 0], :]) / (2.0 * area)[:, None, None]
    cen = pts.mean(axis=1)                                          # (nt, 2)
    phi_cen = (cen[:, None, :] - pts) / (2.0 * area)[:, None, None]  # (nt, 3, 2)
    kdata = np.einsum("tbx,tax->tba", s[:, :, None] * phi_cen, rot) * area[:, None, None]
    krows = np.broadcast_to(te[:, :, None], (nt, 3, 3)).ravel()
    kcols = np.broadcast_to(level.triangles[:, None, :], (nt, 3, 3)).ravel()
    curl = sp.coo_matrix((kdata.ravel(), (krows, kcols)), shape=(NV, NC)).tocsr()

    mass_s = sp.diags(area).tocsr()
    return LevelMatrices(
        index=index,
        mesh=level,
        mass_s=mass_s,
        mass_v=mass_v,
        hdiv=(mass_v + divdiv).tocsr(),
        grad=grad,
        curl=curl,
    )


def assemble_all(levels: list) -> list:
    return [assemble(lvl, k) for k, lvl in enumerate(levels)]


def laplacian_dual(lm: LevelMatrices) -> np.ndarray:
    """Dense dual form of the S-space operator grad* grad (symmetric PSD...
    in fact positive definite: the discrete gradient has full column rank)."""
    lu = spla.splu(lm.mass_v.tocsc())
    X = lu.solve(lm.grad.toarray())
    A = lm.grad.T @ X
    return 0.5 * (A + A.T)


def assemble_prolongation(coarse: MeshLevel, fine: MeshLevel) -> sp.csr_matrix:
    """Flux coefficient embedding from ``coarse`` into ``fine``, its uniform
    refinement (``fine.n == 2 * coarse.n``; any other pair is a ValueError).

    Normal traces are reproduced exactly, so the embedding is pointwise.
    """
    n_c, n_f = coarse.n, fine.n
    if n_f != 2 * n_c:
        raise ValueError(f"fine level (n={n_f}) is not the refinement of the "
                         f"coarse level (n={n_c})")
    mf = n_f + 1

    # Fine-edge midpoints in units of 1/(2 n_f): integer and exact.
    ex = fine.edges % mf
    ey = fine.edges // mf
    ax = ex.sum(axis=1)
    ay = ey.sum(axis=1)
    # Containing coarse cell (one coarse cell spans 4 of those units) and the
    # bottom/top triangle within it, minding the cell's diagonal direction;
    # midpoints on the diagonal resolve to the bottom triangle, which is valid
    # either way because normal traces of the coarse basis are continuous
    # across coarse edges.
    ci = np.minimum(ax // 4, n_c - 1)
    cj = np.minimum(ay // 4, n_c - 1)
    lx = ax - 4 * ci
    ly = ay - 4 * cj
    even = (ci + cj) % 2 == 0
    bottom = np.where(even, ly <= lx, lx + ly <= 4)
    tri = 2 * (cj * n_c + ci) + np.where(bottom, 0, 1)

    pts = coarse.vertices[coarse.triangles[tri]]          # (ne_f, 3, 2)
    area_c = 1.0 / (2.0 * n_c * n_c)
    mid = np.column_stack([ax / (2.0 * n_f), ay / (2.0 * n_f)])
    phi = (mid[:, None, :] - pts) / (2.0 * area_c)        # (ne_f, 3, 2)
    vec = fine.vertices[fine.edges[:, 1]] - fine.vertices[fine.edges[:, 0]]
    normal_times_len = np.column_stack([vec[:, 1], -vec[:, 0]])
    data = np.einsum("eax,ex->ea", phi, normal_times_len)
    data *= coarse.triangle_edge_signs[tri].astype(float)
    rows = np.broadcast_to(np.arange(fine.num_edges)[:, None], data.shape)
    cols = coarse.triangle_edges[tri]
    flux = sp.coo_matrix(
        (data.ravel(), (rows.ravel(), cols.ravel())),
        shape=(fine.num_edges, coarse.num_edges),
    ).tocsr()
    flux.eliminate_zeros()
    return flux
