"""Brute-force references shared by several test modules."""

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fracprec.fem import LevelMatrices
from fracprec.krylov import IndefinitenessError
from fracprec import spectral, verify
from fracprec.spectral import generalized_eig


def densify(op, dim: int | None = None) -> np.ndarray:
    """Dense array of a matrix, or of a linear map given as a callable,
    applied column by column to the ``dim`` unit vectors."""
    if callable(op):
        return np.column_stack([np.asarray(op(col)) for col in np.eye(dim)])
    return spectral.densify(op)


def inverse_power_matrix(pair, s: float) -> np.ndarray:
    """Dense dual -> coefficient matrix ``modes diag(eigenvalues**-s) modes.T``."""
    modes = densify(pair.modes)
    return (modes * pair.eigenvalues ** (-s)) @ modes.T


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


# The vertex patches as ``mesh.vertex_patches`` built them before it sorted
# the edge ends: one Python list per vertex, filled edge by edge.

def vertex_patches(level) -> list:
    """Sorted int64 edge ids of each vertex's star, in ascending vertex order."""
    edge_of = [[] for _ in range(level.num_vertices)]
    for e, (a, b) in enumerate(level.edges):
        edge_of[a].append(e)
        edge_of[b].append(e)
    return [np.asarray(sorted(ids), dtype=np.int64) for ids in edge_of]


# The smoother-bound and stable-decomposition checks as they were computed
# before they moved to each level's flux eigenbasis: the dense pencils of the
# smoother matrix, the inverse s-power and the s-power dual form.

def _smoother_matrix(ops, k: int, s: float) -> np.ndarray:
    """Dense dual-to-coefficient matrix of the level-k patch smoother."""
    R = inverse_power_matrix(ops.setup.level_pairs[k], s)
    return 0.5 * (R + R.T)


def check_smoother_bound(ops, s_grid=verify.DEFAULT_GRID, tol=1e-8):
    """``verify.check_smoother_bound`` on the pencils
    ``(smoother matrix, inverse s-power)``, one ``generalized_eig`` each."""
    K0 = K1 = C1 = c = 0.0
    worst = np.inf
    for k in range(1, ops.num_levels):
        spectra = {s: generalized_eig(_smoother_matrix(ops, k, s),
                                      inverse_power_matrix(ops.pairs[k], s)).eigenvalues
                   for s in {0.0, 1.0, *s_grid}}
        w0, w1 = spectra[0.0], spectra[1.0]
        K0 = max(K0, w0[-1])
        K1 = max(K1, w1[-1])
        c = max(c, 1.0 / w0[0])
        for s in s_grid:
            top = spectra[s][-1]
            C1 = max(C1, top)
            bound = w0[-1] ** (1.0 - s) * w1[-1] ** s
            worst = min(worst, (bound - top) / bound)
    return verify.InequalityReport(
        "smoother-upper-bound", tuple(s_grid), worst, tol,
        {"K0": K0, "K1": K1, "C1": C1, "c": c},
    )


def check_stable_decomposition(ops, s_grid=verify.DEFAULT_GRID, tol=1e-9):
    """``verify.check_stable_decomposition`` on the dense pencil of the
    inverted smoother matrix against the s-power dual form ``Ff``, restricted
    to ``null_space(P' Ff)``."""
    C2 = 0.0
    growth = 1.0
    lam_min = np.inf
    worst = np.inf
    for s in s_grid:
        prev = None
        for k in range(1, ops.num_levels):
            Ff = ops.dual_form(k, s)
            Rinv = np.linalg.inv(_smoother_matrix(ops, k, s))
            Z = sla.null_space(ops.embeddings[k - 1].T @ Ff)
            w = generalized_eig(Z.T @ (0.5 * (Rinv + Rinv.T)) @ Z, Z.T @ Ff @ Z).eigenvalues
            C2 = max(C2, w[-1])
            lam_min = min(lam_min, w[0])
            if prev is not None:
                worst = min(worst, w[0] / prev[0] - 0.5)
                growth = max(growth, w[-1] / prev[-1])
            prev = w
    return verify.InequalityReport(
        "stable-decomposition", tuple(s_grid), worst, tol,
        {"C2": C2, "C2_growth": growth, "lambda_min": lam_min},
    )
