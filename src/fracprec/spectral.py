"""Fractional powers of symmetric definite pencils via full diagonalization.

For a pencil (A, M) with A symmetric positive semi-definite and M symmetric
positive definite, ``generalized_eig`` computes all eigenpairs
``A @ modes == M @ modes @ diag(eigenvalues)`` with M-orthonormal modes.  A
sparse diagonal M, such as the triangle masses, is scaled away first, so the
scalar pencil is diagonalized as a standard symmetric problem.
Powers of the operator represented by the pencil are then diagonal in that
basis.  Two application routines cover both orientations used throughout:

- ``solve_power(pair, s, d)``:  dual -> coefficient, ``modes @ diag(w**-s) @ modes.T @ d``
  (the inverse s-power; s=1 solves A x = d, s=0 solves M x = d);
- ``apply_power(pair, s, c)``:  coefficient -> dual,
  ``M @ modes @ diag(w**s) @ modes.T @ M @ c`` (the forward s-power; s=1 is
  A @ c, s=0 is M @ c).

They are inverses of each other at the same exponent.  Both accept either a
plain array or a :class:`~fracprec.vectors.TaggedVector`; tagged input is
checked against the pair's space/level tags and returned re-tagged with the
opposite representation.

A :class:`HelmholtzPair` stands for the flux pencil ``(hdiv, mass_v)`` of one
level without diagonalizing it.  By the discrete Helmholtz split,
rotated-gradient fields have eigenvalue 1 and each scalar eigenpair
``(alpha, phi)`` of ``(grad.T inv(mass_v) grad, mass_s)`` gives the flux
eigenpair ``(1 + alpha, inv(mass_v) grad phi)``, so the forward power is

    mass_v + grad @ Phi @ diag(((1 + alpha)**s - 1) / alpha) @ Phi.T @ grad.T,

which ``apply_power`` evaluates from the scalar pair alone, with no flux
eigensolve and no ``mass_v`` solve.

When only the two extreme eigenvalues of the scalar pencil are needed,
``scalar_extremes`` finds them by Lanczos on sparse factorizations, with no
dense matrix and no full diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import LevelMatrices
from .vectors import retag, untag

__all__ = [
    "SpectralPair",
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


class PencilError(RuntimeError):
    """The pencil is not symmetric definite, lost accuracy or exceeds memory."""


def available_memory() -> float:
    """``MemAvailable`` of /proc/meminfo in bytes; infinity where it is missing."""
    try:
        with open("/proc/meminfo") as info:
            return next(int(ln.split()[1]) * 1024 for ln in info if ln.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return float("inf")


def require_memory(need: int, what: str) -> None:
    """Raise PencilError, naming both byte counts, if ``need`` exceeds ``available_memory()``."""
    if need > (have := available_memory()):
        raise PencilError(f"{what} needs {need} bytes, more than the {have} bytes available")


@dataclass(frozen=True)
class SpectralPair:
    """Full eigendecomposition of a symmetric definite pencil."""

    eigenvalues: np.ndarray
    modes: np.ndarray
    mass: object  # sparse or dense symmetric positive definite matrix
    space: str | None = None
    level: int | None = None

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class HelmholtzPair:
    """The flux pencil ``(hdiv, mass_v)`` of one level, held as its scalar
    pencil ``(grad.T inv(mass_v) grad, mass_s)`` plus ``grad`` and ``mass_v``.

    Supports the forward power only (``apply_power``).
    """

    scalar: SpectralPair
    grad: object  # sparse discrete gradient, dual form (edges x triangles)
    mass: object  # mass_v

    space = "V"

    @property
    def level(self):
        return self.scalar.level

    @property
    def modes(self) -> np.ndarray:
        return self.scalar.modes

    @property
    def dim(self) -> int:
        return self.grad.shape[0]


def densify(op, dim: int | None = None) -> np.ndarray:
    """Dense array of a sparse or dense matrix, or of a linear map given as a
    callable, applied column by column to the ``dim`` unit vectors (for
    desk-size checks)."""
    if callable(op):
        return np.column_stack([np.asarray(op(col)) for col in np.eye(dim)])
    return op.toarray() if sp.issparse(op) else np.asarray(op, dtype=float)


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
                    level: int | None = None) -> SpectralPair:
    """All eigenpairs of (a_mat, m_mat), M-orthonormal, ascending.

    A sparse ``m_mat`` with no off-diagonal entries, such as ``mass_s``, is
    scaled away: with ``r = diag(m)^-1/2`` the standard problem ``r A r`` is
    diagonalized and the modes are ``r psi``.  Any other mass goes to the
    generalized solver.  The decomposition is validated column by column: the
    residual ``A phi - lambda M phi`` must stay below
    ``RESIDUAL_TOL * max |lambda|``; if it does not, the modes are
    re-orthonormalized in the M inner product and checked once more.

    Refused before any allocation if the dense arrays exceed the available
    memory.  Measured with tracemalloc, either route peaks at four n x n
    arrays (the matrices eigh factors and twice n^2 of workspace), plus a
    dense copy of each sparse operand on the generalized route; the diagonal
    route densifies only the scaled ``r A r``, which is one of the four.
    """
    n = a_mat.shape[0]
    diag = _diagonal(m_mat)
    copies = 0 if diag is not None else sp.issparse(a_mat) + sp.issparse(m_mat)
    require_memory(8 * n * n * (4 + copies), f"the dense eigensolve of dimension {n}")
    if not _symmetric(a_mat):
        raise PencilError("left matrix is not symmetric")
    if not _symmetric(m_mat):
        raise PencilError("mass matrix is not symmetric")
    mass_op = sp.csr_matrix(m_mat) if sp.issparse(m_mat) else densify(m_mat)
    if diag is None:
        try:
            w, phi = sla.eigh(densify(a_mat), densify(mass_op), driver="gvd")
        except sla.LinAlgError as err:
            raise PencilError(f"mass matrix is not positive definite: {err}") from err
    else:
        if not (diag > 0).all():
            raise PencilError("mass matrix is not positive definite: "
                              f"diagonal entry {diag.min():.3e}")
        root = 1.0 / np.sqrt(diag)
        r_mat = sp.diags(root)
        w, phi = sla.eigh(densify(r_mat @ a_mat @ r_mat), driver="evd")
        phi *= root[:, None]
    if w[0] <= 0:
        raise PencilError(f"pencil is not positive definite (min eigenvalue {w[0]:.3e})")

    scale = RESIDUAL_TOL * np.abs(w).max()
    resid = a_mat @ phi - (mass_op @ phi) * w
    if np.linalg.norm(resid, axis=0).max() > scale:
        # Fix up M-orthonormality and try once more.
        gram = phi.T @ (mass_op @ phi)
        phi = phi @ np.linalg.inv(np.linalg.cholesky(gram).T)
        resid = a_mat @ phi - (mass_op @ phi) * w
        if np.linalg.norm(resid, axis=0).max() > scale:
            raise PencilError("eigen residual exceeds tolerance after re-orthonormalization")
    return SpectralPair(eigenvalues=w, modes=phi, mass=mass_op, space=space, level=level)


def solve_power(pair: SpectralPair, s: float, d):
    """Inverse s-power applied to a dual vector; returns coefficients."""
    if isinstance(pair, HelmholtzPair):
        raise TypeError("a HelmholtzPair supports the forward power only")
    vals = untag(d, pair.space, pair.level, "dual")
    out = pair.modes @ (pair.eigenvalues ** (-s) * (pair.modes.T @ vals))
    return retag(d, "coefficient", out)


def apply_power(pair: SpectralPair | HelmholtzPair, s: float, c):
    """Forward s-power applied to a coefficient vector; returns a dual vector."""
    vals = untag(c, pair.space, pair.level, "coefficient")
    if isinstance(pair, HelmholtzPair):
        alpha, phi = pair.scalar.eigenvalues, pair.modes
        gain = np.expm1(s * np.log1p(alpha)) / alpha  # ((1 + alpha)**s - 1) / alpha
        out = pair.mass @ vals + pair.grad @ (phi @ (gain * (phi.T @ (pair.grad.T @ vals))))
    else:
        out = pair.mass @ (pair.modes @ (pair.eigenvalues**s * (pair.modes.T @ (pair.mass @ vals))))
    return retag(c, "dual", out)


def power_matrix(pair: SpectralPair, s: float, dual_form: bool = False) -> np.ndarray:
    """Dense matrix of the s-power: dual->coefficient by default, or the
    coefficient->dual (forward) form."""
    if dual_form:
        core = (pair.modes * pair.eigenvalues**s) @ pair.modes.T
        m = densify(pair.mass)
        return m @ core @ m
    return (pair.modes * pair.eigenvalues ** (-s)) @ pair.modes.T


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
