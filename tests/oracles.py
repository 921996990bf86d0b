"""Brute-force references shared by several test modules."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fracprec.fem import LevelMatrices
from fracprec.krylov import IndefinitenessError
from fracprec import spectral
from fracprec.spectral import generalized_eig


def densify(op, dim: int | None = None) -> np.ndarray:
    """Dense array of a matrix, or of a linear map given as a callable,
    applied column by column to the ``dim`` unit vectors."""
    if callable(op):
        return np.column_stack([np.asarray(op(col)) for col in np.eye(dim)])
    return spectral.densify(op)


def pencil_condition(a_map, b_map, dim: int) -> float:
    """Exact condition number of the pencil (a, b): both maps must be
    symmetric with the same orientation; applies-only input is materialized
    column by column (intended for desk-size verification)."""
    A = densify(a_map, dim)
    B = densify(b_map, dim)
    for name, M in (("first", A), ("second", B)):
        if np.abs(M - M.T).max() > 1e-9 * max(1.0, np.abs(M).max()):
            raise IndefinitenessError(f"{name} map is not symmetric")
    w = generalized_eig(0.5 * (A + A.T), 0.5 * (B + B.T)).eigenvalues
    return float(w[-1] / w[0])


# The powers as they were computed before the fixed-exponent maps: the
# scaling and every sparse transpose made anew on each call.  The maps must
# reproduce them bit for bit.

def modes_product(modes, x, transposed=False):
    """``modes @ x`` (or ``modes.T @ x``)."""
    return (modes.T if transposed else modes) @ x


def solve_power(pair, s: float, d: np.ndarray) -> np.ndarray:
    """``modes diag(eigenvalues**-s) modes.T d``."""
    scaled = pair.eigenvalues ** (-s) * modes_product(pair.modes, d, transposed=True)
    return modes_product(pair.modes, scaled)


def helmholtz_power(scalar, lm, s: float, c: np.ndarray) -> np.ndarray:
    """Forward s-power of the flux pencil of ``lm`` from its scalar pair:
    ``mass_v + grad Phi diag(((1 + alpha)**s - 1) / alpha) Phi.T grad.T``."""
    alpha = scalar.eigenvalues
    gain = np.expm1(s * np.log1p(alpha)) / alpha
    inner = gain * modes_product(scalar.modes, lm.grad.T @ c, transposed=True)
    return lm.mass_v @ c + lm.grad @ modes_product(scalar.modes, inner)


def multigrid_apply(setup, s: float, d: np.ndarray) -> np.ndarray:
    """The additive multilevel preconditioner as a loop over the levels'
    inverse s-powers, restricting with ``P.T``."""
    pairs, pros = setup.level_pairs, setup.prolongations
    duals = [d]
    for P in reversed(pros):
        duals.append(P.T @ duals[-1])
    duals.reverse()
    acc = solve_power(pairs[0], s, duals[0])
    for P, pair, dual in zip(pros, pairs[1:], duals[1:]):
        acc = P @ acc + solve_power(pair, s, dual)
    return acc


# The extremes of the scalar pencil as table 2 found them before it read the
# exact spectrum: Lanczos (ARPACK) on two sparse factorizations.

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
