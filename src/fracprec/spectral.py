"""Fractional powers of symmetric definite pencils via full diagonalization.

For a pencil (A, M) with A symmetric positive semi-definite and M symmetric
positive definite, ``generalized_eig`` computes all eigenpairs
``A @ modes == M @ modes @ diag(eigenvalues)`` with M-orthonormal modes,
by one dense generalized symmetric eigensolve.  The scalar pencil
of a whole structured mesh needs no dense eigensolve: ``fourier_pair``
splits it by sine transforms into one real block of at most 8 x 8 per orbit
of wavenumbers, and its modes are a square basis applied by two dense
DST-II products and the blocks' eigenvectors (:class:`FourierModes`).
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
transposed modes are a view taken once per pair.  So a map applied inside a
Krylov loop creates no sparse transpose and evaluates no power.  ``solve_power``
and ``apply_power`` build the map and apply it once.  Maps accept either a
plain array or a :class:`~fracprec.vectors.TaggedVector`; tagged input is
checked against the pair's space/level tags on every apply and returned
re-tagged with the opposite representation.  The block eigenvectors of the
orbits are one CSR matrix from ``_block_modes``, which also builds each
``multigrid`` level's frame: its embedding's columns, then its vertex
patches' modes.

The flux pencil ``(hdiv, mass_v)`` of a level needs no eigensolve of its
own.  By the discrete Helmholtz split, rotated-gradient fields have
eigenvalue 1 and each scalar eigenpair ``(alpha, phi)`` of
``(grad.T inv(mass_v) grad, mass_s)`` gives the flux eigenpair
``(1 + alpha, inv(mass_v) grad phi)``, so the forward power is

    mass_v + grad @ Phi @ diag(((1 + alpha)**s - 1) / alpha) @ Phi.T @ grad.T,

which ``helmholtz_power`` builds from the scalar pair alone, with no
``mass_v`` solve.

When only the eigenvalues of the scalar pencil are needed, as for table 2 and
``inf_sup_constant``, ``scalar_spectrum`` reads them off the same orbit
blocks, with no n x n mesh, no modes and no sine transform.

Every command computes on one thread of numpy's and scipy's bundled
OpenBLAS: ``tables.run_table1``, ``run_table2`` and ``run_table3`` and each
``verify`` check wrap themselves in ``_one_blas_thread``, which sets every
pool to one thread and gives it its previous count back on return.  The
dense matrices on these paths are small, and a second thread costs more
than the work: on 2 vCPUs the 56-dimensional coarse ``generalized_eig`` of
the default grids took 0.8 to 1.3 ms on one thread against 1.3 to 8.0 ms on
two, in five fresh processes each.  The roundoff of a threaded BLAS call
depends on the thread count; on one thread the bytes of every command do
not.
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np
import scipy
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


@cache
def _openblas_pools() -> tuple:
    """``(get, set)`` thread-count entry points of each OpenBLAS that numpy and
    scipy bundle (numpy's is the 64-bit-integer build); empty where neither
    ships one."""
    pools = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for suffix in ("64_", ""):
                get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pools.append((get, put))
                    break
    return tuple(pools)


@contextmanager
def _one_blas_thread():
    """Run the body (or, as a decorator, each call) on one OpenBLAS thread,
    restoring every pool's previous count on the way out (why: see the
    module docstring)."""
    pools = _openblas_pools()
    before = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, before):
            put(count)


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
    with its mass and dense modes, and ``fourier_pair`` the square
    :class:`FourierModes` basis.

    The transposed modes are a view taken with the pair (CSC for CSR modes):
    no apply builds one, and no mode set is stored twice.
    """

    eigenvalues: np.ndarray
    modes: object  # dense, sparse or FourierModes, dim x number of eigenvalues
    mass: object  # sparse or dense symmetric positive definite matrix (None: inverse power only)
    space: str | None = None
    level: int | None = None
    _modes_t: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_modes_t", self.modes.T)

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
    """The modes of ``fourier_pair``: a real, square basis of sine products
    times one eigenblock per frequency orbit.

    ``.T @ x`` takes the orthonormal DST-II of x over the cells of each row
    and over the triangles of each column (``sy @ x @ sx.T``, x as 2n rows
    of n cells) and applies the transposed ``blocks``; ``@ c`` applies
    ``blocks`` and the transposed sine transforms.  ``blocks`` holds the
    orbit eigenvectors over the square root of the triangle area, on the rows
    of their flat sine indices, so ``modes @ (modes.T @ x)`` is ``x / area``,
    as for the mass-orthonormal modes of the pencil; ``.T`` transposes it as
    a view.  Both products take only vectors of the basis's length: any
    other shape is a ``ValueError``.
    """

    sx: np.ndarray  # (n, n) orthonormal DST-II over the cells of a row
    sy: np.ndarray  # (2n, 2n) orthonormal DST-II over the triangles of a column
    blocks: object  # (NS, NS) CSR: the orbit eigenvectors over sqrt(area); CSC once transposed
    transposed: bool = False

    @property
    def shape(self) -> tuple:
        return self.blocks.shape

    @property
    def T(self) -> FourierModes:
        return replace(self, blocks=self.blocks.T, transposed=not self.transposed)

    def __matmul__(self, x):
        if x.shape != (self.shape[1],):
            raise ValueError(f"basis of shape {self.shape} cannot take shape {x.shape}")
        n = self.sx.shape[0]
        # Triangle 2 (j n + i) + c is row t = 2 j + c, column i of the sine grid.
        if self.transposed:
            grid = self.sy @ x.reshape(n, n, 2).transpose(0, 2, 1).reshape(2 * n, n) @ self.sx.T
            return self.blocks @ grid.ravel()
        grid = self.sy.T @ (self.blocks @ x).reshape(2 * n, n) @ self.sx
        return grid.reshape(n, 2, n).transpose(0, 2, 1).ravel()


def _block_modes(blocks, dim: int, lead=None):
    """The CSR (dim, modes) matrix in which, for each group ``(dofs, q, which)``
    in the list ``blocks`` (dofs (b, k), q (c, k, k), which (b,)), column j
    of block i holds ``q[which[i], :, j]`` on the rows ``dofs[i]``; columns
    go block by block, then by j, after the columns of the sparse matrix
    ``lead`` if one is given, and exact zeros are not stored.  Scattered in
    place with scipy's 32-bit index into CSC arrays, which are dropped once
    the CSR is built: the CSR is the one copy, and its arrays hold exactly
    its entries."""
    head = sp.csc_matrix((dim, 0)) if lead is None else lead.tocsc()
    indptr = np.r_[head.indptr, head.nnz + np.concatenate(
        [np.full(d.size, d.shape[1]) for d, _, _ in blocks]).cumsum()]
    rows, vals, start = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1]), head.nnz
    rows[:start], vals[:start] = head.indices, head.data
    del head  # copied: no third copy of the lead's entries at the conversion
    for dofs, q, which in blocks:
        size = dofs.size * dofs.shape[1]
        rows[start:start + size].reshape(*dofs.shape, -1)[...] = dofs[:, None, :]
        # Block i transposed, gathered into place: mode "clip" writes to out
        # unbuffered, so no (b, k, k) temporary is made.
        np.take(q.transpose(0, 2, 1), which, axis=0, mode="clip",
                out=vals[start:start + size].reshape(*dofs.shape, -1))
        start += size
    modes = sp.csc_matrix((vals, rows, indptr), shape=(dim, indptr.size - 1))
    modes.eliminate_zeros()
    return modes.tocsr()


@cache
def _macro_cell() -> tuple:
    """Edge midpoints ``x``, ``y`` of ``build_level(2)`` in quarters, the
    ``fold`` of each edge on x = 1 (y = 1) onto the next macro-cell's edge on
    x = 0 (y = 0), and dense ``mass_v`` and ``grad``; the same for every n."""
    cell = assemble(build_level(2))
    x, y = np.rint(2 * cell.mesh.vertices[cell.mesh.edges].sum(axis=1)).astype(int).T
    owned = (x < 4) & (y < 4)
    column = np.zeros((4, 4), dtype=int)
    column[x[owned], y[owned]] = np.arange(owned.sum())
    fold = (np.arange(x.size), column[x % 4, y % 4])
    return x, y, fold, cell.mass_v.toarray(), cell.grad.toarray()


def _symbol_rows(n: int):
    """For each ky = 0, ..., n // 2, the Bloch symbols ``G(k)^H inv(M_V(k))
    G(k)`` at k = (kx, ky), kx = 0, ..., n // 2, as one (n // 2 + 1, 8, 8)
    array, unscaled by the triangle area, each folded edge with its phase."""
    x, y, fold, mass_v, grad = _macro_cell()
    half = n // 2 + 1
    bloch = np.zeros((half, x.size, fold[1].max() + 1), dtype=complex)
    for ky in range(half):
        bloch[:, fold[0], fold[1]] = np.exp(
            2j * np.pi / n * (np.outer(np.arange(half), x == 4) + ky * (y == 4)))
        bloch_h = bloch.conj().transpose(0, 2, 1)
        g = bloch_h @ grad
        yield g.conj().transpose(0, 2, 1) @ np.linalg.solve(bloch_h @ mass_v @ bloch, g)


def _dst2(length: int) -> np.ndarray:
    """The orthonormal DST-II ``sin(pi m (t + 1/2) / length)``, m = 1..length."""
    m = np.arange(1, length + 1)
    sine = np.sin(np.pi / length * m[:, None] * (np.arange(length) + 0.5))
    return sine / np.linalg.norm(sine, axis=1, keepdims=True)


def _sine_orbits(n: int, length: int) -> list:
    """The rows of ``_dst2(length)`` grouped by orbit.  Row m, extended by the
    same formula, is ``(e^{i theta} - e^{-i theta}) / 2i``: over macro-cells
    of 2 length / n positions it lives at the wavenumbers +-m (mod n).  For
    each orbit size, returns the orbits' wavenumbers k = min(m, -m) (mod n),
    their members m and each member's normalized component at k over one
    macro-cell, all with the same phase."""
    m = np.arange(1, length + 1)
    rep = np.minimum(m % n, -m % n)
    by_rep = m[np.argsort(rep, kind="stable")]
    size = np.bincount(rep)[rep[by_rep - 1]]
    classes = []
    for d in np.unique(size):
        members = by_rep[size == d].reshape(-1, d)
        k = rep[members[:, 0] - 1, None]
        theta = np.pi / length * members[..., None] * (np.arange(2 * length // n) + 0.5)
        comp = (((members - k) % n == 0)[..., None] * np.exp(1j * theta)
                - ((members + k) % n == 0)[..., None] * np.exp(-1j * theta))
        classes.append((k[:, 0], members, comp / np.linalg.norm(comp, axis=-1, keepdims=True)))
    return classes


def _orbit_blocks(n: int):
    """The square's scalar pencil in the sine basis, unscaled by the area: for
    each row ky = 0, ..., n // 2 and orbit size, the real blocks of the orbits
    (kx, ky) as (orbits, size, size) and the flat sine indices (my - 1) n + mx - 1
    of their rows as (orbits, size).  Each block is the symbol at (kx, ky) in
    the members' components on the triangles 4b + 2a + c: y's at 2b + c times x's at a."""
    row = {ky: (my, cy) for ks, mys, cys in _sine_orbits(n, 2 * n)
           for ky, my, cy in zip(ks, mys, cys)}
    x_classes = _sine_orbits(n, n)
    for ky, symbol in enumerate(_symbol_rows(n)):
        my, cy = row[ky]
        for kx, mx, cx in x_classes:
            v = np.einsum("jbc,xia->xbacji", cy.reshape(-1, 2, 2), cx).reshape(kx.size, 8, -1)
            yield ((v.conj().transpose(0, 2, 1) @ symbol[kx] @ v).real,
                   ((my[:, None] - 1) * n + mx[:, None] - 1).reshape(kx.size, -1))


def fourier_pair(lm: LevelMatrices) -> SpectralPair:
    """The scalar pencil ``(grad.T inv(mass_v) grad, mass_s)`` of a level of
    ``mesh.build_level``, diagonalized by sine transforms and one small
    block per frequency orbit: the fast diagonalization of Lynch, Rice &
    Thomas (Numer. Math. 1964) in its sine form.

    Reflected oddly in x = 1 and y = 1, the n x n mesh becomes the torus
    [0, 2]^2 of 2n x 2n cells, whose alternating diagonals repeat with
    period two: it is n x n translates of one macro-cell of 2 x 2 cells,
    8 triangles and 12 edges.  Odd functions form an invariant subspace of
    the torus pencil, on which it is the pencil of the square, and the
    torus pencil is one Hermitian 8 x 8 Bloch symbol per wavenumber
    (``_symbol_rows``).  A product of DST-II rows over the cells of a row
    (``sin(pi mx (i + 1/2) / n)``) and over the triangles t = 2j + c of a
    column (``sin(pi my (t + 1/2) / 2n)``) is odd and lives at the
    wavenumbers (+-mx, +-my) (mod n), so the sine basis splits the square's
    pencil into one real block per orbit (kx, ky), kx, ky = 0, ..., n // 2,
    with 8, 4 or 2 members (``_orbit_blocks``).  Each block is the symbol at
    (kx, ky) in the members' Bloch components (``_sine_orbits``); the other
    wavenumbers of the orbit are its mirror images and add the same real
    part.  Lowest-order ``mass_v`` and ``grad`` do not depend on the cell
    size, so the triangle area scales the eigenvalues and nothing else.

    Returns a SpectralPair on the level's ``mass_s``, space "S" and index,
    with :class:`FourierModes` and the eigenvalues in their column order.
    """
    n = lm.mesh.n
    area = 0.5 / n**2
    w, groups = [], []
    for block, index in _orbit_blocks(n):
        lam, q = np.linalg.eigh(block)
        w.append(lam.ravel())
        groups.append((index, q / np.sqrt(area), np.arange(len(q))))
    modes = FourierModes(_dst2(n), _dst2(2 * n), _block_modes(groups, 2 * n * n))
    return SpectralPair(eigenvalues=np.concatenate(w) / area, modes=modes, mass=lm.mass_s,
                        space="S", level=lm.index)


def scalar_spectrum(n: int) -> np.ndarray:
    """All 2 n^2 eigenvalues, ascending, of the scalar pencil
    ``(grad.T inv(mass_v) grad, mass_s)`` of ``mesh.build_level(n)``: those
    of ``fourier_pair``'s orbit blocks, with no mesh, no modes and no sine
    transform."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(block).ravel()
                                   for block, _ in _orbit_blocks(n)])) / (0.5 / n**2)


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
