"""Additive multilevel preconditioner for fractional flux-space operators.

The preconditioner acts on a dual vector of the finest level and returns a
coefficient vector.  Every level contributes the same operation, the inverse
s-power ``modes diag(lambda**-s) modes.T`` of its modes:

- on the coarsest level the modes are the full pencil (hdiv, mass_v), so
  their inverse s-power is the exact fractional solve;
- on level k >= 1 they are the pencil's eigenpairs on the edges of each
  vertex, one eigensolve per vertex class, so their inverse s-power is the
  vertex-patch (additive Schwarz) smoother;
- dual data moves down by the transposed coefficient embedding P' of each
  level (projections onto coarser spaces need no mass solve in the dual
  representation), and coefficients move up by P and are added.

Level k >= 1 is stored as one sparse frame ``U = [P | Q]``: the columns of
the embedding of level k - 1, then the patch modes Q, as one CSR matrix from
``spectral._block_modes``, its transpose a CSC view.  So an apply takes one
sparse product per level on the way down, ``U.T @ d``, whose first entries
are the coarser dual ``P' d`` and the rest the patch coefficients ``Q' d``,
and one on the way up, ``U @ [acc; lambda**-s Q' d]``, which adds ``P acc``
and the smoother in one sum; the coarse solve is two dense products.

Nothing but the scaling ``lambda**-s`` depends on the exponent: the coarse
pair and the frames are built once from the meshes (``multilevel_setup``
of the list ``mesh.build_hierarchy`` returns, coarsest first), which
assembles only the coarsest level, for its pencil, and the finest, kept for
the operators on top.  ``AdditiveMultigrid(setup, s)`` takes
the preconditioner of any exponent from that one setup and computes the
scaling once, so an apply runs only the sparse and dense products.

All sums run in a fixed order (levels ascending; within a frame's row the
embedding's columns, then the patch modes by ascending patch size, then
ascending vertex), so repeated applications are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .fem import LevelMatrices, assemble, assemble_prolongation
from .mesh import MeshLevel, build_level, vertex_patches
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
    """Eigenvalues and mass-orthonormal modes of the patch of each key on
    ``build_level(4)`` (every ``_vertex_class`` of an even n), padded to 8."""
    lm = assemble(build_level(4))
    keys, first = np.unique(_vertex_class(4), return_index=True)
    edges, start = vertex_patches(lm.mesh)
    dofs = np.array([np.resize(edges[start[v]:start[v + 1]], 8) for v in first])  # cycled to 8
    A, M = (m.toarray()[dofs[:, :, None], dofs[:, None, :]] for m in (lm.hdiv, lm.mass_v))
    w, q = np.zeros((18, 8)), np.zeros((18, 8, 8))
    for i, (key, v) in enumerate(zip(keys, first)):
        k = start[v + 1] - start[v]
        pair = generalized_eig(A[i, :k, :k], M[i, :k, :k])
        w[key, :k], q[key, :k, :k] = pair.eigenvalues, pair.modes
    return w, q


def _patch_frame(mesh: MeshLevel, prolongation) -> tuple:
    """The frame of ``mesh`` and the eigenvalues of its patch modes: the
    CSR ``[P | Q]`` from ``_block_modes``, whose first columns are the
    embedding ``prolongation`` of the coarser level's fluxes and whose column
    j of patch p in Q holds the j-th mode of p's vertex class on p's edges.
    Only hdiv - mass_v depends on n, as 1/area = 2 n^2: w becomes
    1 + (n/4)^2 (w - 1)."""
    (w, q), key = _patch_classes(), _vertex_class(mesh.n)
    edges, start = vertex_patches(mesh)
    size = np.diff(start)
    groups, lams = [], []
    for k in np.unique(size):
        on = np.flatnonzero(size == k)  # ascending vertex
        groups.append((edges[start[on, None] + np.arange(k)], q[:, :k, :k], key[on]))
        lams.append(1 + (mesh.n / 4) ** 2 * (w[key[on], :k].ravel() - 1))
    return _block_modes(groups, mesh.num_edges, lead=prolongation), np.concatenate(lams)


def precompute_patches(levels) -> list:
    """``(frame, patch eigenvalues)`` of every mesh but the coarsest.  The
    embedding refuses a level that does not refine the one before, so every
    patch level has an even n, whose vertex classes are all in the table."""
    return [_patch_frame(f, assemble_prolongation(c, f)) for c, f in zip(levels, levels[1:])]


@dataclass(frozen=True)
class MultilevelSetup:
    """The exponent-independent part of the additive multilevel solver on one
    mesh hierarchy; ``multilevel_setup`` builds it.  Level k >= 1 is
    ``frames[k - 1]`` with ``patch_eigenvalues[k - 1]``; the transposed
    frames are views taken with the setup."""

    coarse: SpectralPair       # flux pencil of level 0
    frames: tuple              # CSR [P | Q] of each finer level: embedding, then patch modes
    patch_eigenvalues: tuple   # eigenvalue of each of Q's columns, per finer level
    finest: LevelMatrices      # the finest level's matrices, with its mesh
    frames_t: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "frames_t", tuple(U.T for U in self.frames))


def multilevel_setup(levels) -> MultilevelSetup:
    """Diagonalize the coarse pencil and frame every finer level's embedding
    with the modes its vertex patches take from their classes, once for all
    exponents.  ``levels`` are meshes, coarsest first; only the coarsest and
    the finest are assembled, each once."""
    lms = {k: assemble(levels[k], k) for k in {0, len(levels) - 1}}
    # The coarse eigensolve, the largest stage at scale, runs before any frame exists.
    coarse = generalized_eig(lms[0].hdiv, lms[0].mass_v, space="V", level=0)
    patches = precompute_patches(levels)
    return MultilevelSetup(
        coarse=coarse,
        frames=tuple(U for U, _ in patches),
        patch_eigenvalues=tuple(w for _, w in patches),
        finest=lms[len(levels) - 1],
    )


class AdditiveMultigrid:
    """Sum over levels of the inverse s-power of each level's modes: the
    exact coarse fractional solve plus the per-level patch smoothers."""

    def __init__(self, setup: MultilevelSetup, s: float):
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"exponent must lie in [0, 1], got {s}")
        self.setup = setup
        self.s = s
        self.finest_index = setup.finest.index
        self.dim = setup.finest.mesh.num_edges
        self.coarse_scale = setup.coarse.eigenvalues ** -s
        self.scales = tuple(w ** -s for w in setup.patch_eigenvalues)

    def apply(self, d):
        """Dual vector in, coefficient vector out."""
        vals = untag(d, "V", self.finest_index, "dual")
        if vals.shape != (self.dim,):
            raise ValueError(f"expected dual vector of length {self.dim}, got {vals.shape}")

        # Down: U.T @ dual is the coarser dual, then the patch coefficients,
        # which are scaled in place.
        frame_duals = []
        for Ut, scale in zip(reversed(self.setup.frames_t), reversed(self.scales)):
            t = Ut @ vals
            vals = t[:-scale.size]
            t[-scale.size:] *= scale
            frame_duals.append(t)
        acc = self.setup.coarse.sandwich(self.coarse_scale, vals)
        # Up: the coarse coefficients take their place before the patch
        # coefficients, and U @ t is one sum per level.
        for U, t in zip(self.setup.frames, reversed(frame_duals)):
            t[:acc.size] = acc
            acc = U @ t
        return retag(d, "coefficient", acc)
