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
