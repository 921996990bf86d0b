"""Additive multilevel preconditioner for fractional flux-space operators.

The preconditioner acts on a dual vector of the finest level and returns a
coefficient vector.  Every level contributes the same operation, the inverse
s-power ``modes diag(lambda**-s) modes.T`` of one ``spectral.SpectralPair``:

- restriction of dual data is the transposed coefficient embedding, applied
  level by level (projections onto coarser spaces need no mass solve in the
  dual representation);
- on the coarsest level the pair is the full pencil (hdiv, mass_v), so its
  inverse s-power is the exact fractional solve;
- on level k >= 1 the pair holds the eigenpairs of the pencil restricted to
  the edges meeting each mesh vertex, every patch mode scattered onto the
  level's edges as one column of a sparse matrix, so its inverse s-power is
  the vertex-patch (additive Schwarz) smoother;
- coefficient contributions are carried up through the embeddings and added.

Nothing but the scaling ``lambda**-s`` depends on the exponent: the pairs and
the embeddings are built once from the assembled levels
(``multilevel_setup(lms)``, the list ``fem.assemble_all`` returns, coarsest
first; each level carries its mesh), and ``AdditiveMultigrid(setup, s)``
takes the preconditioner of any exponent from that one setup.

All sums run in a fixed order (levels ascending; within a level the patch
modes by ascending patch size, then ascending vertex), so repeated
applications are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import LevelMatrices, assemble_prolongation
from .mesh import vertex_patches
from .spectral import SpectralPair, generalized_eig, solve_power
from .vectors import retag, untag

__all__ = [
    "MultilevelSetup",
    "AdditiveMultigrid",
    "precompute_patches",
    "multilevel_setup",
]


def _patch_pair(lm: LevelMatrices, patches) -> SpectralPair:
    """The patch smoother of one level as a pair with sparse modes: column j
    of patch p holds that patch's j-th mass-orthonormal mode on its edges."""
    by_size = {}
    for edge_ids in patches:
        by_size.setdefault(len(edge_ids), []).append(edge_ids)
    rows, cols, vals, lams = [], [], [], []
    offset = 0
    for size in sorted(by_size):
        dofs = np.vstack(by_size[size])
        # Gather the blocks [p, i, j] = (dofs[p, i], dofs[p, j]) from the
        # sparse matrices: a dense copy of a level is NV^2 floats.
        r, c = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
        A, M = (np.asarray(m[r.ravel(), c.ravel()]).reshape(r.shape)
                for m in (lm.hdiv, lm.mass_v))
        Linv = np.linalg.inv(np.linalg.cholesky(M))
        w, Q = np.linalg.eigh(Linv @ A @ np.transpose(Linv, (0, 2, 1)))
        modes = np.transpose(Linv, (0, 2, 1)) @ Q  # [p, i, j]: mode j of patch p at dofs[p, i]
        rows.append(r.ravel())
        cols.append(np.broadcast_to(np.arange(offset, offset + w.size).reshape(-1, 1, size),
                                    r.shape).ravel())
        offset += w.size
        vals.append(modes.ravel())
        lams.append(w.ravel())
    eigenvalues = np.concatenate(lams)
    modes = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(lm.mesh.num_edges, eigenvalues.size))
    return SpectralPair(eigenvalues=eigenvalues, modes=modes, mass=None,
                        space="V", level=lm.index)


def precompute_patches(lms) -> list:
    """The patch pair of every level but the coarsest."""
    return [_patch_pair(lm, vertex_patches(lm.mesh)) for lm in lms[1:]]


@dataclass(frozen=True)
class MultilevelSetup:
    """The exponent-independent part of the additive multilevel solver on one
    list of assembled levels; ``multilevel_setup`` builds it."""

    level_pairs: tuple     # flux pencil of level 0, then the patch pair of each finer level
    prolongations: tuple   # flux embeddings, level k -> k+1
    finest: LevelMatrices


def multilevel_setup(lms) -> MultilevelSetup:
    """Diagonalize the coarse pencil, eigendecompose every vertex patch and
    assemble the embeddings, once for all exponents."""
    return MultilevelSetup(
        level_pairs=(generalized_eig(lms[0].hdiv, lms[0].mass_v, space="V", level=0),
                     *precompute_patches(lms)),
        prolongations=tuple(assemble_prolongation(c.mesh, f.mesh)
                            for c, f in zip(lms, lms[1:])),
        finest=lms[-1],
    )


class AdditiveMultigrid:
    """Sum over levels of the inverse s-power of each level's pair: the exact
    coarse fractional solve plus the per-level patch smoothers."""

    def __init__(self, setup: MultilevelSetup, s: float):
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"exponent must lie in [0, 1], got {s}")
        self.setup = setup
        self.s = s
        self.finest_index = setup.finest.index
        self.dim = setup.finest.mesh.num_edges

    def apply(self, d):
        """Dual vector in, coefficient vector out."""
        vals = untag(d, "V", self.finest_index, "dual")
        if vals.shape != (self.dim,):
            raise ValueError(f"expected dual vector of length {self.dim}, got {vals.shape}")

        pairs, pros = self.setup.level_pairs, self.setup.prolongations
        duals = [vals]
        for P in reversed(pros):
            duals.append(P.T @ duals[-1])
        duals.reverse()
        acc = solve_power(pairs[0], self.s, duals[0])
        for P, pair, dual in zip(pros, pairs[1:], duals[1:]):
            acc = P @ acc + solve_power(pair, self.s, dual)
        return retag(d, "coefficient", acc)
