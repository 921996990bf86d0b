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
- ``grad``        (NV, NS)  discrete gradient in dual form:
                            grad[e, t] = -<indicator_t, div psi_e>
- ``grad_t``      (NS, NV)  its transpose, stored as a CSR copy for speed:
                            a ``grad.T`` CSC view gives the same bits but
                            ``@ x`` took 16.2 against 14.4 us at n = 32 and
                            511 against 400 us at n = 256 (one thread,
                            2 vCPUs)

The H(div) matrix ``hdiv`` (NV, NV), ``mass_v + <div .,div .>``, is derived,
not stored: the divergence of a flux is piecewise constant, so the div-div
form is ``grad @ inv(mass_s) @ grad.T`` and the property builds
``mass_v + grad @ diags(1 / area) @ grad_t`` on each read.  Its three
readers (the coarse pencil, the patch classes at n = 4 and the property
checks' meshes at n <= 8) read it once per level.

``assemble_all`` assembles a list of levels, coarsest first, as
``mesh.build_hierarchy`` returns it; each ``LevelMatrices`` carries its mesh.
The multilevel set-up takes the meshes themselves and assembles only the
coarsest and the finest level (``multigrid.multilevel_setup``).  Beyond the
level matrices the module builds the rotated-gradient pairing
``assemble_curl`` (NV, NC), ``<rot of the hat function, psi_e>``, where it is
read; the sparse dual scalar operator ``laplacian_dual``, a cell-centred
stencil of at most five entries per row, which no other module reads (only
the tests and ``bench/tracer.py`` do); and the flux embedding from one level
into its uniform refinement (``assemble_prolongation``).
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
    "assemble_curl",
    "laplacian_dual",
    "assemble_prolongation",
]

FILL_TOL = 1e-12  # roundoff fill dropped from laplacian_dual, relative to its largest entry


@dataclass(frozen=True)
class LevelMatrices:
    """Sparse operators of one level, plus its index in the hierarchy."""

    index: int
    mesh: MeshLevel
    mass_s: sp.csr_matrix
    mass_v: sp.csr_matrix
    grad: sp.csr_matrix
    grad_t: sp.csr_matrix

    @property
    def hdiv(self) -> sp.csr_matrix:
        """``mass_v + grad inv(mass_s) grad.T``, canonical CSR, built anew."""
        dd = self.grad @ sp.diags(1.0 / self.mass_s.diagonal()) @ self.grad_t
        return (self.mass_v + dd).sorted_indices()


def assemble(level: MeshLevel, index: int = 0) -> LevelMatrices:
    """Assemble all level matrices at once (vectorized over triangles)."""
    pts = level.vertices[level.triangles]          # (nt, 3, 2)
    area = level.areas()                            # (nt,)
    nt = level.num_triangles
    te = level.triangle_edges                       # (nt, 3)
    s = level.triangle_edge_signs.astype(float)     # (nt, 3)
    NS, NV = level.num_triangles, level.num_edges

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

    tcols = np.broadcast_to(np.arange(nt)[:, None], (nt, 3)).ravel()
    grad = sp.coo_matrix(((-s).ravel(), (te.ravel(), tcols)), shape=(NV, NS)).tocsr()

    mass_s = sp.diags(area).tocsr()
    return LevelMatrices(
        index=index,
        mesh=level,
        mass_s=mass_s,
        mass_v=mass_v,
        grad=grad,
        grad_t=grad.T.tocsr(),
    )


def assemble_all(levels: list) -> list:
    return [assemble(lvl, k) for k, lvl in enumerate(levels)]


def assemble_curl(level: MeshLevel) -> sp.csr_matrix:
    """The (NV, NC) pairing of the rotated hat functions with the flux basis.

    rot of the hat function of local vertex a is the constant vector
    (p_{a+2} - p_{a+1}) / (2|T|); it is paired with phi_b by the centroid
    rule (exact: the integrand is affine).
    """
    pts = level.vertices[level.triangles]           # (nt, 3, 2)
    area = level.areas()
    s = level.triangle_edge_signs.astype(float)
    rot = (pts[:, [2, 0, 1], :] - pts[:, [1, 2, 0], :]) / (2.0 * area)[:, None, None]
    cen = pts.mean(axis=1)                                          # (nt, 2)
    phi_cen = (cen[:, None, :] - pts) / (2.0 * area)[:, None, None]  # (nt, 3, 2)
    kdata = np.einsum("tbx,tax->tba", s[:, :, None] * phi_cen, rot) * area[:, None, None]
    nt = level.num_triangles
    krows = np.broadcast_to(level.triangle_edges[:, :, None], (nt, 3, 3)).ravel()
    kcols = np.broadcast_to(level.triangles[:, None, :], (nt, 3, 3)).ravel()
    return sp.coo_matrix((kdata.ravel(), (krows, kcols)),
                         shape=(level.num_edges, level.num_vertices)).tocsr()


def laplacian_dual(lm: LevelMatrices) -> sp.csr_matrix:
    """The dual form ``grad.T inv(mass_v) grad`` of the S-space operator
    grad* grad, sparse (symmetric positive definite: the discrete gradient
    has full column rank).

    One SuperLU factorization of ``mass_v`` in symmetric mode gives
    ``mass_v = P.T L diag(u) L.T P``, so the operator is ``Y.T diag(1/u) Y``
    with ``Y = inv(L) P grad``.  Y is sparse: the sweep
    ``Y <- P grad - (L - I) Y`` reaches its exact fixed point in a few
    passes, as ``L - I`` is strictly lower triangular.  The product then
    zeroes entries at or below ``FILL_TOL`` of the largest: roundoff fill
    when n is not a power of two, after which no row has more than five
    entries (n = 3, 5, 12, 24); at n = 1, 2, 4, 8, 16 nothing is dropped.
    """
    nv = lm.mass_v.shape[0]
    lu = spla.splu(lm.mass_v.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   options=dict(SymmetricMode=True))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise np.linalg.LinAlgError("the factorization of the flux mass matrix "
                                    "pivoted off its symmetric ordering")
    b = lm.grad.tocsr()[np.argsort(lu.perm_r)]  # P grad: row j moves to perm_r[j]
    strict = (lu.L - sp.eye(nv)).tocsr()
    y, prev = b, None
    while prev is None or (y != prev).nnz:
        prev, y = y, (b - strict @ y).tocsr()
    a = (y.T @ sp.diags(1.0 / lu.U.diagonal()) @ y).tocsr()
    a = (0.5 * (a + a.T)).tocsr()
    a.data[np.abs(a.data) <= FILL_TOL * np.abs(a.data).max()] = 0.0
    a.eliminate_zeros()
    return a


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
