"""Additive multilevel preconditioner for fractional flux-space operators.

The preconditioner acts on a dual vector of the finest level and returns a
coefficient vector.  It sums one exact fractional solve on the coarsest
level with, on every finer level, a vertex-patch smoother built from local
eigendecompositions:

- restriction of dual data is the transposed coefficient embedding, applied
  level by level (projections onto coarser spaces need no mass solve in the
  dual representation);
- on the coarsest level the full pencil (hdiv, mass_v) is diagonalized and
  the inverse s-power applied exactly;
- on level k >= 1 every mesh vertex contributes the inverse s-power of the
  pencil restricted to the edges meeting that vertex, scattered back;
- coefficient contributions are carried up through the embeddings and added.

Nothing but the smoother scaling depends on the exponent: the coarse
pencil, the patch eigendecompositions and the embeddings are built once per
hierarchy (``multilevel_setup``), and ``AdditiveMultigrid(setup, s)`` takes
the preconditioner of any exponent from that one setup.

All sums run in a fixed order (levels ascending; within a level the patch
batches by ascending patch size, each batch in ascending vertex order), so
repeated applications are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import assemble_prolongation
from .fem import LevelMatrices
from .spectral import SpectralPair, generalized_eig, solve_power
from .vectors import retag, untag

__all__ = [
    "PatchSolverGroup",
    "PatchSmoother",
    "MultilevelSetup",
    "AdditiveMultigrid",
    "precompute_patches",
    "multilevel_setup",
]


@dataclass(frozen=True)
class PatchSolverGroup:
    """All patches of one size on one level, eigendecomposed as a batch.

    ``dofs[p]`` are the edge indices of patch p (ascending vertex order
    across p); ``eigenvalues[p]``/``modes[p]`` diagonalize the local pencil
    (hdiv restricted, mass_v restricted) with mass-orthonormal modes.
    """

    dofs: np.ndarray         # (npatch, size) int
    eigenvalues: np.ndarray  # (npatch, size)
    modes: np.ndarray        # (npatch, size, size)


def _group_patches(lm, patches) -> list:
    by_size = {}
    for edge_ids in patches:
        by_size.setdefault(len(edge_ids), []).append(edge_ids)
    groups = []
    for size in sorted(by_size):
        dofs = np.vstack(by_size[size])
        # Gather the blocks [p, i, j] = (dofs[p, i], dofs[p, j]) from the
        # sparse matrices: a dense copy of a level is NV^2 floats.
        rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
        A, M = (np.asarray(m[rows.ravel(), cols.ravel()]).reshape(rows.shape)
                for m in (lm.hdiv, lm.mass_v))
        L = np.linalg.cholesky(M)
        Linv = np.linalg.inv(L)
        w, Q = np.linalg.eigh(Linv @ A @ np.transpose(Linv, (0, 2, 1)))
        modes = np.transpose(Linv, (0, 2, 1)) @ Q
        groups.append(PatchSolverGroup(dofs=dofs, eigenvalues=w, modes=modes))
    return groups


def precompute_patches(hierarchy, lms) -> list:
    """Per-level patch eigendecompositions; entry 0 is None (exact there)."""
    from .mesh import vertex_patches

    out = [None]
    for k in range(1, len(lms)):
        out.append(_group_patches(lms[k], vertex_patches(hierarchy.levels[k])))
    return out


class PatchSmoother:
    """Patch smoother of one level at one exponent: the sum over vertex
    patches of the local inverse s-power, dual vector in, coefficients out."""

    def __init__(self, groups, s):
        self.groups = groups
        self.scaled = [g.eigenvalues ** (-s) for g in groups]  # fixed at build time

    def apply(self, dual: np.ndarray) -> np.ndarray:
        out = np.zeros_like(dual)
        for g, lam in zip(self.groups, self.scaled):
            x = dual[g.dofs]
            y = np.einsum("pji,pj->pi", g.modes, x)
            z = np.einsum("pij,pj->pi", g.modes, lam * y)
            np.add.at(out, g.dofs.ravel(), z.ravel())
        return out


@dataclass(frozen=True)
class MultilevelSetup:
    """The exponent-independent part of the additive multilevel solver on one
    hierarchy; ``multilevel_setup`` builds it."""

    patch_groups: tuple        # per level; entry 0 is None (exact there)
    prolongations: tuple       # flux embeddings, level k -> k+1
    coarse_pair: SpectralPair  # flux pencil of level 0
    finest: LevelMatrices


def multilevel_setup(hierarchy, lms) -> MultilevelSetup:
    """Diagonalize the coarse pencil, eigendecompose every vertex patch and
    assemble the embeddings, once for all exponents."""
    if len(lms) != hierarchy.num_levels:
        raise ValueError("one assembled level per mesh level is required")
    return MultilevelSetup(
        patch_groups=tuple(precompute_patches(hierarchy, lms)),
        prolongations=tuple(assemble_prolongation(hierarchy, k)
                            for k in range(hierarchy.num_levels - 1)),
        coarse_pair=generalized_eig(lms[0].hdiv, lms[0].mass_v, space="V", level=0),
        finest=lms[-1],
    )


class AdditiveMultigrid:
    """Sum of an exact coarse fractional solve and per-level patch smoothers."""

    def __init__(self, setup: MultilevelSetup, s: float):
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"exponent must lie in [0, 1], got {s}")
        self.setup = setup
        self.s = s
        self.finest_index = setup.finest.index
        self.dim = setup.finest.mesh.num_edges
        # Level 0 is solved exactly and has no smoother.
        self.smoothers = [None] + [PatchSmoother(g, s) for g in setup.patch_groups[1:]]

    @property
    def num_levels(self) -> int:
        return len(self.smoothers)

    def apply(self, d):
        """Dual vector in, coefficient vector out."""
        vals = untag(d, "V", self.finest_index, "dual")
        if vals.shape != (self.dim,):
            raise ValueError(f"expected dual vector of length {self.dim}, got {vals.shape}")

        pros = self.setup.prolongations
        J = self.num_levels
        duals = [None] * J
        duals[J - 1] = vals
        for k in range(J - 2, -1, -1):
            duals[k] = pros[k].T @ duals[k + 1]
        acc = solve_power(self.setup.coarse_pair, self.s, duals[0])
        for k in range(1, J):
            acc = pros[k - 1] @ acc
            acc += self.smoothers[k].apply(duals[k])
        return retag(d, "coefficient", acc)
