"""Brute-force references shared by several test modules."""

import numpy as np

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


def helmholtz_power(pair, s: float, c: np.ndarray) -> np.ndarray:
    """Forward s-power of a HelmholtzPair:
    ``mass_v + grad Phi diag(((1 + alpha)**s - 1) / alpha) Phi.T grad.T``."""
    alpha = pair.scalar.eigenvalues
    gain = np.expm1(s * np.log1p(alpha)) / alpha
    inner = gain * modes_product(pair.modes, pair.grad.T @ c, transposed=True)
    return pair.mass @ c + pair.grad @ modes_product(pair.modes, inner)


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
