"""Fractional powers of symmetric definite pencils via full diagonalization.

For a pencil (A, M) with A symmetric positive semi-definite and M symmetric
positive definite, ``generalized_eig`` computes all eigenpairs
``A @ modes == M @ modes @ diag(eigenvalues)`` with M-orthonormal modes,
by one dense generalized symmetric eigensolve.  The scalar pencil
of a whole structured mesh needs no dense eigensolve: ``fourier_pair``
splits it by the mesh's translations into one 8 x 8 block per wavenumber of
the oddly reflected mesh, and its modes are a frame applied by FFT
(:class:`FourierModes`).
Powers of the operator represented by the pencil are then diagonal in that
basis.  A pair builds a fixed-exponent :class:`PowerMap` for either
orientation used throughout:

- ``pair.inverse_power(s)``:  dual -> coefficient, ``modes @ diag(w**-s) @ modes.T @ d``
  (the inverse s-power; s=1 solves A x = d, s=0 solves M x = d);
- ``pair.forward_power(s)``:  coefficient -> dual,
  ``M @ modes @ diag(w**s) @ modes.T @ M @ c`` (the forward s-power; s=1 is
  A @ c, s=0 is M @ c).

They are inverses of each other at the same exponent.  Only the scaling
depends on the exponent, and a map computes it once, when it is built; the
transposed modes are built once per pair.  So a map applied inside a Krylov
loop creates no sparse transpose and evaluates no power.  ``solve_power``
and ``apply_power`` build the map and apply it once.  Maps accept either a
plain array or a :class:`~fracprec.vectors.TaggedVector`; tagged input is
checked against the pair's space/level tags on every apply and returned
re-tagged with the opposite representation.  The inverse power also takes a
pair with no mass whose modes are sparse and outnumber the dimension: the
vertex-patch smoother of one ``multigrid`` level.

The flux pencil ``(hdiv, mass_v)`` of a level needs no eigensolve of its
own.  By the discrete Helmholtz split, rotated-gradient fields have
eigenvalue 1 and each scalar eigenpair ``(alpha, phi)`` of
``(grad.T inv(mass_v) grad, mass_s)`` gives the flux eigenpair
``(1 + alpha, inv(mass_v) grad phi)``, so the forward power is

    mass_v + grad @ Phi @ diag(((1 + alpha)**s - 1) / alpha) @ Phi.T @ grad.T,

which ``helmholtz_power`` builds from the scalar pair alone, with no
``mass_v`` solve.

When only the eigenvalues of the scalar pencil are needed, as for table 2 and
``inf_sup_constant``, ``scalar_spectrum`` reads them off the same blocks
restricted to odd functions, with no n x n mesh, no modes and no FFT.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .fem import LevelMatrices, assemble
from .mesh import build_level
from .vectors import retag, untag

__all__ = [
    "SpectralPair",
    "PowerMap",
    "FourierModes",
    "PencilError",
    "generalized_eig",
    "fourier_pair",
    "helmholtz_power",
    "solve_power",
    "apply_power",
    "inf_sup_constant",
    "scalar_spectrum",
    "densify",
]

RESIDUAL_TOL = 1e-10  # eigen residual bound, relative to the largest eigenvalue


class PencilError(RuntimeError):
    """The pencil is not symmetric definite, lost accuracy or exceeds memory."""


def available_memory(meminfo: str = "/proc/meminfo",
                     memory_max: str = "/sys/fs/cgroup/memory.max") -> float:
    """The smaller of ``MemAvailable`` in ``meminfo`` and a numeric cgroup
    limit in ``memory_max``, in bytes; a missing file or the limit ``max``
    leaves the other, and infinity where neither is set."""
    have = float("inf")
    with suppress(OSError, StopIteration), open(meminfo) as info:
        have = next(int(ln.split()[1]) * 1024 for ln in info if ln.startswith("MemAvailable:"))
    with suppress(OSError, ValueError), open(memory_max) as limit:
        have = min(have, int(limit.read()))
    return have


def require_memory(need: int, what: str) -> None:
    """Raise PencilError, naming both byte counts, if ``need`` exceeds ``available_memory()``."""
    if need > (have := available_memory()):
        raise PencilError(f"{what} needs {need} bytes, more than the {have} bytes available")


@dataclass(frozen=True)
class PowerMap:
    """One pair's power at one fixed exponent, as a map between the two
    representations: ``SpectralPair.inverse_power``, ``.forward_power`` and
    ``helmholtz_power`` build it.  It holds the exponent's scaling, computed
    once; ``kernel`` is the pair's exponent-independent product, which holds
    the transposed modes.  A tagged input must carry the pair's space and
    level and the representation ``rep``; the output has the other
    representation.
    """

    space: str | None
    level: int | None
    rep: str  # the representation taken
    kernel: Callable  # (scale, values) -> values
    scale: np.ndarray

    def __call__(self, x):
        vals = untag(x, self.space, self.level, self.rep)
        return retag(x, "dual" if self.rep == "coefficient" else "coefficient",
                     self.kernel(self.scale, vals))


@dataclass(frozen=True)
class SpectralPair:
    """Eigenpairs of a symmetric definite operator: ``inverse_power(s)`` is
    ``modes diag(eigenvalues**-s) modes.T``.

    ``generalized_eig`` returns the full, square decomposition of a pencil
    with its mass and dense modes.  The modes may also have more columns
    than rows: the sparse patch modes of a multilevel smoother, whose pair
    has no mass (``None``) and is used only for the inverse power, and the
    :class:`FourierModes` frame of ``fourier_pair``.

    The transposed modes are built with the pair (CSR for sparse modes), so
    no apply builds one.
    """

    eigenvalues: np.ndarray
    modes: object  # dense, sparse or FourierModes, dim x number of eigenvalues
    mass: object  # sparse or dense symmetric positive definite matrix, or None
    space: str | None = None
    level: int | None = None
    _modes_t: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        modes_t = self.modes.T.tocsr() if sp.issparse(self.modes) else self.modes.T
        object.__setattr__(self, "_modes_t", modes_t)

    @property
    def dim(self) -> int:
        return self.modes.shape[0]

    def sandwich(self, scale: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``modes diag(scale) modes.T x``, ``scale`` one entry per eigenvalue."""
        return self.modes @ (scale * (self._modes_t @ x))

    def _forward(self, scale, c):
        return self.mass @ self.sandwich(scale, self.mass @ c)

    def inverse_power(self, s: float) -> PowerMap:
        """Dual -> coefficient map of the inverse s-power (s=1 solves A x = d,
        s=0 solves M x = d)."""
        return PowerMap(self.space, self.level, "dual", self.sandwich, self.eigenvalues ** -s)

    def forward_power(self, s: float) -> PowerMap:
        """Coefficient -> dual map of the forward s-power
        ``M modes diag(eigenvalues**s) modes.T M`` (s=1 is A, s=0 is M)."""
        return PowerMap(self.space, self.level, "coefficient", self._forward, self.eigenvalues ** s)


def helmholtz_power(scalar: SpectralPair, lm: LevelMatrices, s: float) -> PowerMap:
    """Coefficient -> dual map of the forward s-power of the flux pencil
    ``(hdiv, mass_v)`` of level ``lm``, from its scalar pair ``scalar``:
    ``mass_v + grad modes diag(gain) modes.T grad.T`` with the gain
    ``((1 + alpha)**s - 1) / alpha`` on the scalar eigenvalues alpha."""
    alpha = scalar.eigenvalues
    gain = np.expm1(s * np.log1p(alpha)) / alpha

    def kernel(gain, c):
        return lm.mass_v @ c + lm.grad @ scalar.sandwich(gain, lm.grad_t @ c)

    return PowerMap("V", scalar.level, "coefficient", kernel, gain)


def densify(op) -> np.ndarray:
    """Dense array of a sparse or dense matrix."""
    return op.toarray() if hasattr(op, "toarray") else np.asarray(op, dtype=float)


def _symmetric(mat) -> bool:
    """max |X - X.T| <= 1e-10 * max(1, max |X|); sparse input is checked in
    sparse form, which is cheap next to a strided pass over a dense copy."""
    if sp.issparse(mat):
        mat = sp.csr_matrix(mat)
        return abs(mat - mat.T).max() <= 1e-10 * max(1.0, abs(mat).max())
    mat = np.asarray(mat, dtype=float)
    return np.abs(mat - mat.T).max() <= 1e-10 * max(1.0, np.abs(mat).max())


def generalized_eig(a_mat, m_mat, space: str | None = None,
                    level: int | None = None) -> SpectralPair:
    """All eigenpairs of (a_mat, m_mat), M-orthonormal, ascending, from one
    dense generalized solve (``scipy.linalg.eigh``, driver ``gvd``).

    The decomposition is validated column by column: the residual
    ``A phi - lambda M phi`` must stay below ``RESIDUAL_TOL * max |lambda|``,
    else PencilError.

    Refused before any allocation if the dense arrays exceed the available
    memory.  Measured with tracemalloc (n = 208 and 800), the call peaks at
    four n x n arrays, the matrices eigh factors and twice n^2 of workspace,
    plus a dense copy of each sparse operand, which is what is counted.
    """
    n = a_mat.shape[0]
    copies = sp.issparse(a_mat) + sp.issparse(m_mat)
    require_memory(8 * n * n * (4 + copies), f"the dense eigensolve of dimension {n}")
    if not _symmetric(a_mat):
        raise PencilError("left matrix is not symmetric")
    if not _symmetric(m_mat):
        raise PencilError("mass matrix is not symmetric")
    mass_op = sp.csr_matrix(m_mat) if sp.issparse(m_mat) else densify(m_mat)
    try:
        w, phi = sla.eigh(densify(a_mat), densify(mass_op), driver="gvd")
    except sla.LinAlgError as err:
        raise PencilError(f"mass matrix is not positive definite: {err}") from err
    if w.min() <= 0:
        raise PencilError(f"pencil is not positive definite (min eigenvalue {w.min():.3e})")
    residual = np.linalg.norm(a_mat @ phi - (mass_op @ phi) * w, axis=0).max()
    if residual > RESIDUAL_TOL * np.abs(w).max():
        raise PencilError("eigen residual exceeds tolerance")
    return SpectralPair(eigenvalues=w, modes=phi, mass=mass_op, space=space, level=level)


@dataclass(frozen=True)
class FourierModes:
    """The modes of ``fourier_pair`` as a frame over the doubled torus.

    ``.T @ x`` reflects x oddly onto the torus, takes the real 2-D FFT over
    its n x n macro-cells and applies each wavenumber's conjugate-transposed
    block eigenvectors; ``@ c`` applies the block eigenvectors, the inverse
    FFT and reads the unit square's quadrant back.  The coefficients are
    complex, eight per wavenumber, and outnumber the triangles.  The signs
    carry the inverse triangle area, so ``modes @ (modes.T @ x)`` is
    ``x / area``, as for the mass-orthonormal modes of the pencil.  Both
    products take only vectors of the frame's width: any other shape is a
    ``ValueError``.
    """

    reflect: np.ndarray  # (n, n, 8) triangle at each torus position
    signs: np.ndarray  # (n, n, 8) the odd reflection's signs over the triangle area
    blocks: np.ndarray  # (n, n // 2 + 1, 8, 8) eigenvectors per wavenumber
    blocks_h: np.ndarray  # their conjugate transposes
    quadrant: np.ndarray  # (NS,) flat torus position of each triangle
    transposed: bool = False

    @property
    def shape(self) -> tuple:
        shape = (self.quadrant.size, self.blocks.size // 8)
        return shape[::-1] if self.transposed else shape

    @property
    def T(self) -> FourierModes:
        return replace(self, transposed=not self.transposed)

    def __matmul__(self, x):
        if x.shape != (self.shape[1],):
            raise ValueError(f"frame of shape {self.shape} cannot take shape {x.shape}")
        # The 2-D FFTs as two 1-D ones: the same transform, less overhead per call.
        if self.transposed:
            torus = np.fft.fft(np.fft.rfft(x[self.reflect] * self.signs, axis=1), axis=0)
            return (self.blocks_h @ torus[..., None]).ravel()
        torus = (self.blocks @ x.reshape(*self.blocks.shape[:-1], 1))[..., 0]
        n = self.reflect.shape[1]
        return np.fft.irfft(np.fft.ifft(torus, axis=0), n, axis=1).ravel()[self.quadrant]


def _symbol_rows(n: int, rows):
    """For each ky in ``rows``, the Bloch symbols ``G(k)^H inv(M_V(k)) G(k)``
    at k = (kx, ky), kx = 0, ..., n // 2, as one (n // 2 + 1, 8, 8) array,
    unscaled by the triangle area: each edge of ``build_level(2)`` on x = 1
    or y = 1 is folded onto the next macro-cell's edge with its Bloch phase."""
    cell = assemble(build_level(2))
    # Edge midpoints in quarters; an edge on x = 1 (y = 1) is the next
    # macro-cell's edge on x = 0 (y = 0).
    x, y = np.rint(2 * cell.mesh.vertices[cell.mesh.edges].sum(axis=1)).astype(int).T
    owned = (x < 4) & (y < 4)
    column = np.zeros((4, 4), dtype=int)
    column[x[owned], y[owned]] = np.arange(owned.sum())
    fold = (np.arange(x.size), column[x % 4, y % 4])
    mass_v, grad = cell.mass_v.toarray(), cell.grad.toarray()
    half = n // 2 + 1
    bloch = np.zeros((half, x.size, owned.sum()), dtype=complex)
    for ky in rows:
        bloch[:, fold[0], fold[1]] = np.exp(
            2j * np.pi / n * (np.outer(np.arange(half), x == 4) + ky * (y == 4)))
        bloch_h = bloch.conj().transpose(0, 2, 1)
        g = bloch_h @ grad
        yield g.conj().transpose(0, 2, 1) @ np.linalg.solve(bloch_h @ mass_v @ bloch, g)


def fourier_pair(lm: LevelMatrices) -> SpectralPair:
    """The scalar pencil ``(grad.T inv(mass_v) grad, mass_s)`` of a level of
    ``mesh.build_level``, diagonalized by the mesh's translations: the fast
    diagonalization of Lynch, Rice & Thomas (Numer. Math. 1964) in the form
    local Fourier analysis uses it.

    Reflected oddly in x = 1 and y = 1, the n x n mesh becomes the torus
    [0, 2]^2 of 2n x 2n cells, whose alternating diagonals repeat with
    period two: it is n x n translates of one macro-cell of 2 x 2 cells,
    8 triangles and 12 edges.  Odd functions form an invariant subspace of
    the torus pencil, on which it is the pencil of the square, so every
    power of the square's pencil is the torus power read back on the
    quadrant.  The 2-D FFT over the macro-cells splits the torus pencil into
    one Hermitian 8 x 8 block per wavenumber (``_symbol_rows``).
    Lowest-order ``mass_v`` and ``grad`` do not depend on the cell size, so
    the triangle area scales the eigenvalues and nothing else.  The real FFT
    keeps n (n // 2 + 1) wavenumbers.  The torus constant, the one null mode,
    is orthogonal to every odd function: its eigenvector is zeroed and its
    eigenvalue set to 1.

    Returns a SpectralPair on the level's ``mass_s``, space "S" and index,
    with :class:`FourierModes` and the eigenvalues in their column order.
    """
    n = lm.mesh.n
    area, half = 0.5 / n**2, n // 2 + 1
    w, blocks = np.empty((n, half, 8)), np.empty((n, half, 8, 8), dtype=complex)
    for ky, symbol in enumerate(_symbol_rows(n, range(n))):
        w[ky], blocks[ky] = np.linalg.eigh(symbol)
    blocks[0, 0, :, 0] = 0.0
    w[0, 0, 0] = area

    # Torus cell (i, j) is cell (i, j) of the square, mirrored in x = 1 for
    # i >= n and in y = 1 for j >= n, with one minus sign per mirror; the
    # y-mirror swaps a cell's bottom and top triangles.
    j, i, c = np.meshgrid(np.arange(2 * n), np.arange(2 * n), [0, 1], indexing="ij")
    flip_x, flip_y = i >= n, j >= n
    tri = 2 * (np.where(flip_y, 2 * n - 1 - j, j) * n + np.where(flip_x, 2 * n - 1 - i, i))

    def macro(torus):  # (2n, 2n, 2) -> (n, n, 8): macro-cell row, column, local triangle
        return torus.reshape(n, 2, n, 2, 2).transpose(0, 2, 1, 3, 4).reshape(n, n, 8)

    reflect, first = macro(tri + (c ^ flip_y)), macro(~(flip_x | flip_y))
    quadrant = np.empty(2 * n * n, dtype=np.int64)
    quadrant[reflect[first]] = np.flatnonzero(first)
    modes = FourierModes(reflect, macro(np.where(flip_x ^ flip_y, -1.0, 1.0) / area), blocks,
                         blocks.conj().transpose(0, 1, 3, 2).copy(), quadrant)
    return SpectralPair(eigenvalues=(w / area).ravel(), modes=modes, mass=lm.mass_s,
                        space="S", level=lm.index)


def scalar_spectrum(n: int) -> np.ndarray:
    """All 2 n^2 eigenvalues, ascending, of the scalar pencil
    ``(grad.T inv(mass_v) grad, mass_s)`` of ``mesh.build_level(n)``: the
    Bloch symbols of ``fourier_pair`` on the odd functions of the torus.

    With ``w = exp(2 pi i / n)``, the FFT coefficients of a function odd in
    x satisfy ``F(kx, ky) = -w**kx P_x F(-kx, ky)``, P_x flipping ii in the
    local order 4 jj + 2 ii + c, and likewise in y, P_y flipping jj and c.
    So each orbit {(+-kx, +-ky)}, kx, ky = 0, ..., n // 2, holds the
    eigenvalues of one block, restricted to the -1 eigenspace of ``w**k P``
    on each axis where k = -k (mod n): 2 n^2 in all, without the torus
    constant, which is even."""
    half, area, eye = n // 2 + 1, 0.5 / n**2, np.eye(8)
    sign = {0: 1.0, n / 2: -1.0}  # w**k at each k = -k (mod n)

    def odd(k, flip):  # the projector onto the coefficients odd under one mirror
        return (eye - sign[k] * eye[np.arange(8) ^ flip]) / 2 if k in sign else eye

    odd_x = np.array([odd(kx, 2) for kx in range(half)])  # P_x flips bit 1
    parts = []
    for ky, symbol in enumerate(_symbol_rows(n, range(half))):
        proj = odd_x @ odd(ky, 5)  # P_y flips bits 2 and 0
        # Positive odd eigenvalues above a 0 per even direction; trace(proj) counts them.
        w = np.linalg.eigvalsh(proj @ symbol @ proj)
        parts.append(w[np.arange(8) >= 8 - np.trace(proj, axis1=1, axis2=2)[:, None]])
    return np.sort(np.concatenate(parts)) / area


def solve_power(pair: SpectralPair, s: float, d):
    """Inverse s-power applied to a dual vector; returns coefficients."""
    return pair.inverse_power(s)(d)


def apply_power(pair: SpectralPair, s: float, c):
    """Forward s-power applied to a coefficient vector; returns a dual vector."""
    return pair.forward_power(s)(c)


def power_matrix(pair: SpectralPair, s: float) -> np.ndarray:
    """Dense coefficient -> dual matrix of the forward s-power
    ``M modes diag(eigenvalues**s) modes.T M``."""
    modes, m = densify(pair.modes), densify(pair.mass)
    return m @ ((modes * pair.eigenvalues**s) @ modes.T) @ m


def inf_sup_constant(lm: LevelMatrices) -> float:
    """The constant beta relating the two S-space energies: beta**2 is the
    smallest eigenvalue of the pencil (grad.T inv(hdiv) grad, mass_s), which
    is ``a / (1 + a)`` for the smallest scalar eigenvalue a, by the Woodbury
    identity on ``hdiv = mass_v + grad inv(mass_s) grad.T``."""
    a = scalar_spectrum(lm.mesh.n)[0]
    return float(np.sqrt(a / (1.0 + a)))
