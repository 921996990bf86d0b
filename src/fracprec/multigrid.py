"""Additive multilevel preconditioner for fractional flux-space operators.

The preconditioner acts on a dual vector of the finest level and returns a
coefficient vector.  Every level contributes the same operation, the inverse
s-power ``modes diag(lambda**-s) modes.T`` of one ``spectral.SpectralPair``:

- restriction of dual data is the transposed coefficient embedding, applied
  level by level (projections onto coarser spaces need no mass solve in the
  dual representation);
- on the coarsest level the pair is the full pencil (hdiv, mass_v), so its
  inverse s-power is the exact fractional solve;
- on level k >= 1 the pair holds the pencil's eigenpairs on the edges of each
  vertex, one eigensolve per vertex class, as columns of a sparse matrix, so
  its inverse s-power is the vertex-patch (additive Schwarz) smoother;
- coefficient contributions are carried up through the embeddings and added.

Nothing but the scaling ``lambda**-s`` depends on the exponent: the pairs,
the embeddings and their transposes (the dual restrictions, stored in CSR
form) are built once from the assembled levels (``multilevel_setup(lms)``,
the list ``fem.assemble_all`` returns, coarsest first; each level carries
its mesh).  ``AdditiveMultigrid(setup, s)`` takes the preconditioner of any
exponent from that one setup and computes the scaling once, as one
``spectral.PowerMap`` per level, so an apply runs only the sparse and dense
products.

All sums run in a fixed order (levels ascending; within a level the patch
modes by ascending patch size, then ascending vertex), so repeated
applications are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .fem import LevelMatrices, assemble, assemble_prolongation
from .mesh import build_level, vertex_patches
from .spectral import SpectralPair, _block_modes, generalized_eig
from .vectors import retag, untag

__all__ = [
    "MultilevelSetup",
    "AdditiveMultigrid",
    "precompute_patches",
    "multilevel_setup",
]


def _vertex_class(n: int) -> np.ndarray:
    """Key of each vertex of ``build_level(n)``, row-major: its place on the
    boundary in x and y, and whether its four cells' diagonals meet there."""
    k = np.arange(n + 1)
    side = np.minimum(k, 1) + (k == n)
    return (6 * side + 2 * side[:, None] + (k + k[:, None]) % 2).ravel()


@cache
def _patch_classes() -> tuple:
    """Size, eigenvalues and mass-orthonormal modes of the patch of each key
    on ``build_level(4)`` (every ``_vertex_class`` of an even n), padded to 8."""
    lm = assemble(build_level(4))
    keys, first = np.unique(_vertex_class(4), return_index=True)
    patches = vertex_patches(lm.mesh)
    dofs = np.array([np.resize(patches[v], 8) for v in first])  # each cycled to 8 edges
    A, M = (m.toarray()[dofs[:, :, None], dofs[:, None, :]] for m in (lm.hdiv, lm.mass_v))
    sizes, w, q = np.zeros(18, dtype=int), np.zeros((18, 8)), np.zeros((18, 8, 8))
    for i, (key, v) in enumerate(zip(keys, first)):
        k = sizes[key] = patches[v].size
        pair = generalized_eig(A[i, :k, :k], M[i, :k, :k])
        w[key, :k], q[key, :k, :k] = pair.eigenvalues, pair.modes
    return sizes, w, q


def _patch_pair(lm: LevelMatrices, patches) -> SpectralPair:
    """The patch smoother of one level as a pair with sparse modes from
    ``_block_modes``: column j of patch p holds the j-th mode of p's vertex
    class on p's edges.  Only hdiv - mass_v depends on n, as 1/area = 2 n^2:
    w becomes 1 + (n/4)^2 (w - 1)."""
    if lm.mesh.n % 2:
        raise ValueError(f"patch levels are refinements, so n is even; got n={lm.mesh.n}")
    (sizes, w, q), key = _patch_classes(), _vertex_class(lm.mesh.n)
    size = sizes[key]
    edges, first = np.concatenate(patches), np.cumsum(size) - size
    groups, lams = [], []
    for k in np.unique(size):
        on = np.flatnonzero(size == k)  # ascending vertex
        groups.append((edges[first[on, None] + np.arange(k)], q[key[on], :k, :k]))
        lams.append(1 + (lm.mesh.n / 4) ** 2 * (w[key[on], :k].ravel() - 1))
    modes, eigenvalues = _block_modes(groups, lm.mesh.num_edges), np.concatenate(lams)
    return SpectralPair(eigenvalues=eigenvalues, modes=modes, mass=None, space="V", level=lm.index)


def precompute_patches(lms) -> list:
    """The patch pair of every level but the coarsest."""
    return [_patch_pair(lm, vertex_patches(lm.mesh)) for lm in lms[1:]]


@dataclass(frozen=True)
class MultilevelSetup:
    """The exponent-independent part of the additive multilevel solver on one
    list of assembled levels; ``multilevel_setup`` builds it."""

    level_pairs: tuple     # flux pencil of level 0, then the patch pair of each finer level
    prolongations: tuple   # flux embeddings, level k -> k+1
    restrictions: tuple    # their transposes in CSR form: dual restrictions, level k+1 -> k
    finest: LevelMatrices


def multilevel_setup(lms) -> MultilevelSetup:
    """Diagonalize the coarse pencil, take every vertex patch's modes from its
    class and assemble the embeddings, once for all exponents."""
    prolongations = tuple(assemble_prolongation(c.mesh, f.mesh) for c, f in zip(lms, lms[1:]))
    return MultilevelSetup(
        level_pairs=(generalized_eig(lms[0].hdiv, lms[0].mass_v, space="V", level=0),
                     *precompute_patches(lms)),
        prolongations=prolongations,
        restrictions=tuple(P.T.tocsr() for P in prolongations),
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
        self.powers = tuple(pair.inverse_power(s) for pair in setup.level_pairs)

    def apply(self, d):
        """Dual vector in, coefficient vector out."""
        vals = untag(d, "V", self.finest_index, "dual")
        if vals.shape != (self.dim,):
            raise ValueError(f"expected dual vector of length {self.dim}, got {vals.shape}")

        duals = [vals]
        for R in reversed(self.setup.restrictions):
            duals.append(R @ duals[-1])
        duals.reverse()
        acc = self.powers[0](duals[0])
        for P, power, dual in zip(self.setup.prolongations, self.powers[1:], duals[1:]):
            acc = P @ acc + power(dual)
        return retag(d, "coefficient", acc)
