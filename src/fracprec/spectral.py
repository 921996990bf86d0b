"""Fractional powers of symmetric definite pencils via full diagonalization.

For a pencil (A, M) with A symmetric positive semi-definite and M symmetric
positive definite, ``generalized_eig`` computes all eigenpairs
``A @ modes == M @ modes @ diag(eigenvalues)`` with M-orthonormal modes.  A
sparse diagonal M, such as the triangle masses, is scaled away first, so the
scalar pencil is diagonalized as a standard symmetric problem.  Given the
orbits of a symmetry group of the pencil (``mesh.mirror_orbits``: the mesh's
mirrors and half-turn), that problem splits exactly into one block per
character of the group in the Walsh basis over the orbits; each block is
diagonalized on its own and the modes stay in block form
(:class:`BlockModes`), a quarter of the dense bytes for four blocks.
Powers of the operator represented by the pencil are then diagonal in that
basis.  Each pair type builds a fixed-exponent :class:`PowerMap` for either
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

A :class:`HelmholtzPair` stands for the flux pencil ``(hdiv, mass_v)`` of one
level without diagonalizing it.  By the discrete Helmholtz split,
rotated-gradient fields have eigenvalue 1 and each scalar eigenpair
``(alpha, phi)`` of ``(grad.T inv(mass_v) grad, mass_s)`` gives the flux
eigenpair ``(1 + alpha, inv(mass_v) grad phi)``, so the forward power is

    mass_v + grad @ Phi @ diag(((1 + alpha)**s - 1) / alpha) @ Phi.T @ grad.T,

which its ``forward_power`` evaluates from the scalar pair alone, with no
flux eigensolve and no ``mass_v`` solve.

When only the two extreme eigenvalues of the scalar pencil are needed,
``scalar_extremes`` finds them by Lanczos on sparse factorizations, with no
dense matrix and no full diagonalization.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import LevelMatrices
from .vectors import retag, untag

__all__ = [
    "SpectralPair",
    "PowerMap",
    "BlockModes",
    "HelmholtzPair",
    "PencilError",
    "generalized_eig",
    "solve_power",
    "apply_power",
    "inf_sup_constant",
    "scalar_extremes",
    "densify",
]

RESIDUAL_TOL = 1e-10  # eigen residual bound, relative to the largest eigenvalue
BLOCK_TOL = 1e-12  # symmetry-block coupling and orbit mass spread, relative to the largest entry


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
    ``HelmholtzPair.forward_power`` build it.  It holds the exponent's
    scaling, computed once; ``kernel`` is the pair's exponent-independent
    product, which holds the transposed modes.  A tagged input must carry the
    pair's space and level and the representation ``rep``; the output has
    the other representation.
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
    with its mass, its modes dense or, split by symmetry, a
    :class:`BlockModes`.  The modes may also be sparse and have more columns than
    rows, as the patch modes of a multilevel smoother do; such a pair has no
    mass (``None``) and is used only for the inverse power.

    What every power shares is built with the pair: the modes in the column
    order their products run in (block-major for :class:`BlockModes`, so an
    apply does not reorder), their transpose (CSR for sparse modes, so no
    apply builds one) and the eigenvalues in that order.
    """

    eigenvalues: np.ndarray
    modes: object  # dense, sparse or BlockModes, dim x number of eigenvalues
    mass: object  # sparse or dense symmetric positive definite matrix, or None
    space: str | None = None
    level: int | None = None
    _factors: tuple = field(init=False, repr=False, compare=False)  # modes, modes.T, spectrum

    def __post_init__(self):
        modes, spectrum = self.modes, self.eigenvalues
        if isinstance(modes, BlockModes):
            spectrum = np.empty_like(spectrum)
            spectrum[modes.order] = self.eigenvalues
            modes = replace(modes, order=None)
        modes_t = modes.T.tocsr() if sp.issparse(modes) else modes.T
        object.__setattr__(self, "_factors", (modes, modes_t, spectrum))

    @property
    def dim(self) -> int:
        return self.modes.shape[0]

    def sandwich(self, scale: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``modes diag(scale) modes.T x``, ``scale`` in the column order of
        ``spectrum`` (block-major for :class:`BlockModes`)."""
        modes, modes_t, _ = self._factors
        return modes @ (scale * (modes_t @ x))

    @property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues in the column order ``sandwich`` runs in."""
        return self._factors[2]

    def _forward(self, scale, c):
        return self.mass @ self.sandwich(scale, self.mass @ c)

    def inverse_power(self, s: float) -> PowerMap:
        """Dual -> coefficient map of the inverse s-power (s=1 solves A x = d,
        s=0 solves M x = d)."""
        return PowerMap(self.space, self.level, "dual", self.sandwich, self.spectrum ** -s)

    def forward_power(self, s: float) -> PowerMap:
        """Coefficient -> dual map of the forward s-power
        ``M modes diag(eigenvalues**s) modes.T M`` (s=1 is A, s=0 is M)."""
        return PowerMap(self.space, self.level, "coefficient", self._forward, self.spectrum ** s)


@dataclass(frozen=True)
class HelmholtzPair:
    """The flux pencil ``(hdiv, mass_v)`` of one level, held as its scalar
    pencil ``(grad.T inv(mass_v) grad, mass_s)`` plus the level's ``grad``,
    its stored transpose ``grad_t`` and ``mass_v``.

    Has the forward power only.
    """

    scalar: SpectralPair
    lm: LevelMatrices

    space = "V"

    @property
    def level(self):
        return self.scalar.level

    @property
    def modes(self):
        return self.scalar.modes

    @property
    def grad(self):
        return self.lm.grad

    @property
    def mass(self):
        return self.lm.mass_v

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    def _forward(self, gain, c):
        return self.mass @ c + self.grad @ self.scalar.sandwich(gain, self.lm.grad_t @ c)

    def forward_power(self, s: float) -> PowerMap:
        """Coefficient -> dual map of the forward s-power, with the gain
        ``((1 + alpha)**s - 1) / alpha`` on the scalar eigenvalues alpha."""
        alpha = self.scalar.spectrum
        gain = np.expm1(s * np.log1p(alpha)) / alpha
        return PowerMap(self.space, self.level, "coefficient", self._forward, gain)

    def inverse_power(self, s: float):
        raise TypeError("a HelmholtzPair supports the forward power only")


def densify(op) -> np.ndarray:
    """Dense array of a sparse or dense matrix or of :class:`BlockModes`."""
    return op.toarray() if hasattr(op, "toarray") else np.asarray(op, dtype=float)


def _symmetric(mat) -> bool:
    """max |X - X.T| <= 1e-10 * max(1, max |X|); sparse input is checked in
    sparse form, which is cheap next to a strided pass over a dense copy."""
    if sp.issparse(mat):
        mat = sp.csr_matrix(mat)
        return abs(mat - mat.T).max() <= 1e-10 * max(1.0, abs(mat).max())
    mat = np.asarray(mat, dtype=float)
    return np.abs(mat - mat.T).max() <= 1e-10 * max(1.0, np.abs(mat).max())


def _diagonal(mat) -> np.ndarray | None:
    """The diagonal of a sparse matrix with no off-diagonal entries, else None."""
    if sp.issparse(mat):
        diag = mat.diagonal()
        if mat.count_nonzero() == np.count_nonzero(diag):
            return diag
    return None


def generalized_eig(a_mat, m_mat, space: str | None = None,
                    level: int | None = None, orbits=None) -> SpectralPair:
    """All eigenpairs of (a_mat, m_mat), M-orthonormal, ascending.

    A sparse ``m_mat`` with no off-diagonal entries, such as ``mass_s``, is
    scaled away: with ``r = diag(m)^-1/2`` the standard problem ``r A r`` is
    diagonalized and the modes are ``r psi``.  Given ``orbits``, the
    ``(dim/g, g)`` table of a group of g symmetries of the pencil
    (``mesh.mirror_orbits``), ``r A r`` is first split into g blocks
    ``U_k.T r A r U_k``, one per character k, where ``U_k`` has the entries
    of column k of the normalized Sylvester–Hadamard matrix on the orbits;
    each block is diagonalized on its own and the modes are kept in that
    form (:class:`BlockModes`).  Coupling between the blocks beyond
    roundoff, or a mass that is not constant on the orbits, is a
    PencilError.  Without orbits the modes are a dense array.  Any other
    mass goes to the generalized solver.

    The decomposition is validated column by column: the residual
    ``A phi - lambda M phi`` must stay below ``RESIDUAL_TOL * max |lambda|``;
    if it does not, the modes are re-orthonormalized in the M inner product
    and checked once more.  On the diagonal route this runs one block and a
    few hundred columns at a time.

    Refused before any allocation if the dense arrays exceed the available
    memory.  Measured with tracemalloc, the generalized route peaks at four
    n x n arrays (the matrices eigh factors and twice n^2 of workspace) plus
    a dense copy of each sparse operand.  The diagonal route peaks at
    ``(g + 3) * (n/g)**2`` dense values, g = 1 without orbits: the modes of
    the blocks already done and the last block's eigensolve, four (n/g)^2
    arrays; the residual check stays within that bound.  Sparse copies of
    ``r A r`` and its Walsh transform come on top.
    """
    n = a_mat.shape[0]
    diag = _diagonal(m_mat)
    if diag is None:
        if orbits is not None:
            raise PencilError("mirror blocks need a sparse diagonal mass")
        copies = sp.issparse(a_mat) + sp.issparse(m_mat)
        require_memory(8 * n * n * (4 + copies), f"the dense eigensolve of dimension {n}")
    else:
        orbits = np.arange(n)[:, None] if orbits is None else np.asarray(orbits)
        m, g = orbits.shape
        require_memory(8 * (g + 3) * m * m, f"the dense eigensolve of dimension {n}"
                       + (f" in {g} blocks" if g > 1 else ""))
    if not _symmetric(a_mat):
        raise PencilError("left matrix is not symmetric")
    if not _symmetric(m_mat):
        raise PencilError("mass matrix is not symmetric")
    mass_op = sp.csr_matrix(m_mat) if sp.issparse(m_mat) else densify(m_mat)
    if diag is not None:
        modes, w = _diagonal_eig(a_mat, diag, orbits, mass_op)
        return SpectralPair(eigenvalues=w, modes=modes, mass=mass_op, space=space, level=level)

    try:
        w, phi = sla.eigh(densify(a_mat), densify(mass_op), driver="gvd")
    except sla.LinAlgError as err:
        raise PencilError(f"mass matrix is not positive definite: {err}") from err
    _check_positive(w)
    scale = RESIDUAL_TOL * np.abs(w).max()
    if _residual(a_mat, mass_op, phi, w) > scale:
        # Fix up M-orthonormality and try once more.
        gram = phi.T @ (mass_op @ phi)
        phi = phi @ np.linalg.inv(np.linalg.cholesky(gram).T)
        if _residual(a_mat, mass_op, phi, w) > scale:
            raise PencilError("eigen residual exceeds tolerance after re-orthonormalization")
    return SpectralPair(eigenvalues=w, modes=phi, mass=mass_op, space=space, level=level)


def _check_positive(w: np.ndarray) -> None:
    if w.min() <= 0:
        raise PencilError(f"pencil is not positive definite (min eigenvalue {w.min():.3e})")


def _residual(a_mat, mass_op, phi: np.ndarray, w: np.ndarray) -> float:
    """The largest column norm of ``A phi - M phi diag(w)``."""
    return np.linalg.norm(a_mat @ phi - (mass_op @ phi) * w, axis=0).max()


def _diagonal_eig(a_mat, diag: np.ndarray, orbits: np.ndarray, mass_op):
    """Modes and ascending eigenvalues of (a_mat, diag(diag)), one Walsh
    block of ``orbits`` at a time; see ``generalized_eig``."""
    n = a_mat.shape[0]
    m, g = orbits.shape
    if not (diag > 0).all():
        raise PencilError("mass matrix is not positive definite: "
                          f"diagonal entry {diag.min():.3e}")
    if not np.array_equal(np.sort(orbits, axis=None), np.arange(n)):
        raise PencilError("the orbits do not partition the pencil's rows")
    if np.abs(diag[orbits] - diag[orbits[:, :1]]).max() > BLOCK_TOL * diag.max():
        raise PencilError("mass matrix is not constant on the orbits")
    root = 1.0 / np.sqrt(diag)
    r_mat = sp.diags(root)
    # U = [U_0 ... U_{g-1}]: column k*m + r is character k on orbit r.
    walsh = sla.hadamard(g) / np.sqrt(g)
    u_mat = sp.csr_matrix((np.repeat(walsh, m, axis=1).ravel(),
                           (np.tile(orbits.T, g).ravel(), np.tile(np.arange(n), g))),
                          shape=(n, n))
    split = sp.csr_matrix(u_mat.T @ (r_mat @ a_mat @ r_mat) @ u_mat)
    rows = np.repeat(np.arange(n), np.diff(split.indptr))
    coupling = rows // m != split.indices // m
    if coupling.any() and abs(split.data[coupling]).max() > BLOCK_TOL * abs(split.data).max():
        raise PencilError("the pencil couples its symmetry blocks beyond roundoff")
    ws, blocks = [], []
    for k in range(g):
        w, psi = sla.eigh(densify(split[k * m:(k + 1) * m, k * m:(k + 1) * m]), driver="evd")
        ws.append(w)
        blocks.append(psi)
    w = np.concatenate(ws)
    _check_positive(w)

    scale = RESIDUAL_TOL * np.abs(w).max()
    modes = BlockModes(orbits, root, walsh, blocks, np.argsort(w, kind="stable"))
    step = max(1, m // (2 * g))  # residual columns at a time: temporaries below 2 m^2

    def residual(k):
        return max(_residual(a_mat, mass_op, modes.block_columns(k, slice(c, c + step)),
                             ws[k][c:c + step]) for c in range(0, m, step))

    for k in range(g):
        if residual(k) > scale:
            # Fix up orthonormality, which is M-orthonormality of the modes, and try once more.
            psi = blocks[k]
            blocks[k] = psi @ np.linalg.inv(np.linalg.cholesky(psi.T @ psi).T)
            if residual(k) > scale:
                raise PencilError("eigen residual exceeds tolerance after re-orthonormalization")
    return (modes.toarray() if g == 1 else modes), w[modes.order]


@dataclass(frozen=True)
class BlockModes:
    """The modes ``r U blockdiag(psi_0, ..., psi_{g-1})`` of a diagonal-mass
    pencil split by a symmetry group (``generalized_eig`` with ``orbits``),
    held in that form: ``@`` gathers a vector or matrix by orbit, applies the
    Walsh transform and one product per block, and scatters back, so the
    dense ``n x n`` modes are never formed.  Column p is the block-major
    column ``order[p]``, so the columns follow the ascending eigenvalues;
    with ``order`` None they stay block-major, as ``SpectralPair`` applies
    them.  ``.T`` is the transposed view; ``toarray`` the dense matrix.
    """

    orbits: np.ndarray  # (m, g), column j the image of column 0 under element j
    scale: np.ndarray  # r = diag(mass)^-1/2
    walsh: np.ndarray  # (g, g) normalized Sylvester-Hadamard matrix, symmetric
    blocks: list  # g dense (m, m) block eigenvectors psi_k
    order: np.ndarray | None  # ascending eigenvalue p -> block-major column order[p]
    transposed: bool = False

    @property
    def shape(self) -> tuple:
        return (self.scale.size, self.scale.size)

    @property
    def nbytes(self) -> int:
        arrays = (self.orbits, self.scale, self.order, *self.blocks)
        return sum(a.nbytes for a in arrays if a is not None)

    @property
    def T(self) -> BlockModes:
        return replace(self, transposed=not self.transposed)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        m, g = self.orbits.shape
        rows = self.scale.reshape(-1, *[1] * (x.ndim - 1))
        out = np.empty((g, m, *x.shape[1:]))  # one product per block, block-major
        if self.transposed:  # psi_k.T U_k.T r x, then reordered
            z = self.walsh @ (rows * x)[self.orbits.T].reshape(g, -1)
            for psi, zk, ok in zip(self.blocks, z.reshape(out.shape), out):
                np.matmul(psi.T, zk, out=ok)
            out = out.reshape(x.shape)
            return out if self.order is None else out[self.order]
        c = x
        if self.order is not None:
            c = np.empty_like(x)
            c[self.order] = x
        for psi, ck, ok in zip(self.blocks, c.reshape(out.shape), out):
            np.matmul(psi, ck, out=ok)
        y = np.empty_like(x)
        y[self.orbits.T] = (self.walsh @ out.reshape(g, -1)).reshape(out.shape)
        return rows * y

    def block_columns(self, k: int, cols: slice) -> np.ndarray:
        """Dense columns ``cols`` of block k's modes ``r U_k psi_k``."""
        psi = self.blocks[k][:, cols]
        out = np.empty((self.scale.size, psi.shape[1]))
        for j, row in enumerate(self.orbits.T):
            out[row] = self.walsh[j, k] * psi
        out *= self.scale[:, None]
        return out

    def toarray(self) -> np.ndarray:
        m, g = self.orbits.shape
        dense = np.empty(self.shape)
        # block-major column -> its position
        where = np.arange(m * g) if self.order is None else np.argsort(self.order)
        for k in range(g):
            dense[:, where[k * m:(k + 1) * m]] = self.block_columns(k, slice(None))
        return dense.T if self.transposed else dense


def solve_power(pair: SpectralPair, s: float, d):
    """Inverse s-power applied to a dual vector; returns coefficients."""
    return pair.inverse_power(s)(d)


def apply_power(pair: SpectralPair | HelmholtzPair, s: float, c):
    """Forward s-power applied to a coefficient vector; returns a dual vector."""
    return pair.forward_power(s)(c)


def power_matrix(pair: SpectralPair, s: float, dual_form: bool = False) -> np.ndarray:
    """Dense matrix of the s-power: dual->coefficient by default, or the
    coefficient->dual (forward) form, which needs the pair's mass."""
    modes = densify(pair.modes)
    if dual_form:
        core = (modes * pair.eigenvalues**s) @ modes.T
        m = densify(pair.mass)
        return m @ core @ m
    return (modes * pair.eigenvalues ** (-s)) @ modes.T


def inf_sup_constant(lm: LevelMatrices) -> float:
    """The constant beta relating the two S-space energies: beta**2 is the
    smallest eigenvalue of the pencil (grad.T inv(hdiv) grad, mass_s)."""
    lu = spla.splu(lm.hdiv.tocsc())
    B0 = lm.grad.T @ lu.solve(lm.grad.toarray())
    a = lm.mass_s.diagonal()
    scaled = B0 / np.sqrt(np.outer(a, a))
    w = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))
    return float(np.sqrt(w[0]))


def scalar_extremes(lm: LevelMatrices) -> tuple[float, float]:
    """The smallest and largest eigenvalues of the scalar pencil
    (grad.T inv(mass_v) grad, mass_s), from sparse factorizations.

    With ``mass_s`` diagonal, the pencil is the symmetric operator
    ``K = D grad.T inv(mass_v) grad D``, ``D = mass_s^-1/2``.  Lanczos on K
    (one LU of ``mass_v``) gives the largest eigenvalue; Lanczos on inv(K),
    applied through one LU of the saddle matrix [[mass_v, grad], [grad.T, 0]],
    gives the reciprocal of the smallest.  The start vector is a fixed
    pseudo-random one, so the result is reproducible bit for bit; a symmetric
    one such as all ones lies in an invariant subspace of the mesh's
    symmetries, where Lanczos breaks down early and ARPACK restarts from a
    random vector of its own.
    """
    nv, ns = lm.grad.shape
    root = np.sqrt(lm.mass_s.diagonal())  # D^-1
    grad = lm.grad.tocsc()
    mass_lu = spla.splu(lm.mass_v.tocsc())
    saddle_lu = spla.splu(sp.bmat([[lm.mass_v, grad], [grad.T, None]], format="csc"))

    def forward(x):
        return grad.T @ mass_lu.solve(grad @ (x / root)) / root

    def inverse(y):
        # [[M, G], [G.T, 0]] [u; p] = [0; -f] gives p = inv(G.T inv(M) G) f.
        return root * saddle_lu.solve(np.concatenate([np.zeros(nv), -root * y]))[nv:]

    start = np.random.default_rng(0).uniform(-1.0, 1.0, ns)

    def largest(apply):
        op = spla.LinearOperator((ns, ns), matvec=apply, dtype=float)
        return float(spla.eigsh(op, k=1, which="LA", tol=0, v0=start,
                                return_eigenvectors=False)[0])

    return 1.0 / largest(inverse), largest(forward)
