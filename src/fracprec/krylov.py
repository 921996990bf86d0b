"""Preconditioned conjugate gradients on tagged vectors.

The operator and the preconditioner map in opposite directions between the
coefficient and dual representations, so every inner product in the
recurrence is a plain duality pairing — no mass matrix appears.  Convergence
is declared when the preconditioned residual norm, relative to the initial
one, falls below the tolerance:

    sqrt( <precond(r_k), r_k> / <precond(r_0), r_0> ) <= tol

The CG scalars feed the usual Lanczos tridiagonal matrix, whose extreme
eigenvalues estimate the condition number of the preconditioned operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .vectors import TaggedVector, pair

__all__ = ["SolveReport", "IndefinitenessError", "pcg", "lanczos_condition"]


class IndefinitenessError(RuntimeError):
    """A quadratic form that must be positive came out nonpositive."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    converged: bool
    cond_estimate: float
    residual_history: np.ndarray = field(repr=False)


def lanczos_condition(alphas, betas) -> float:
    """Condition estimate from the CG coefficients.

    ``alphas[j]`` are the step lengths, ``betas[j]`` the direction updates;
    the tridiagonal matrix they define has the Ritz values of the
    preconditioned operator.
    """
    k = len(alphas)
    if k <= 1:
        return 1.0
    # ``betas`` has k - 1 entries on convergence, k at the iteration cap.
    a, b = np.asarray(alphas, dtype=float), np.asarray(betas[:k - 1], dtype=float)
    diag = 1.0 / a
    diag[1:] += b / a[:-1]
    w = sla.eigh_tridiagonal(diag, np.sqrt(b) / a[:-1], eigvals_only=True)
    return float(w[-1] / w[0])


def pcg(op, precond, rhs: TaggedVector, x0: TaggedVector, tol: float, maxit: int = 200):
    """Solve op(x) = rhs, returning ``(x, SolveReport)``.

    ``op`` maps x-like vectors to rhs-like vectors, ``precond`` the other way
    round; ``rhs`` and ``x0`` must live in the same space and level with
    opposite representations (the tag checks inside :func:`pair` enforce all
    of this on every iteration).
    """
    rhs.require(space=x0.space, level=x0.level)
    if rhs.rep == x0.rep:
        raise ValueError("rhs and initial guess must use opposite representations")

    x = x0
    r = rhs - op(x)
    z = precond(r)
    rz0 = pair(r, z)
    if rz0 < 0:
        raise IndefinitenessError(f"preconditioner form negative at start: {rz0:.3e}")
    if rz0 == 0.0:
        return x, SolveReport(0, True, 1.0, np.array([0.0]))

    history = [1.0]
    alphas: list = []
    betas: list = []
    rz = rz0
    p = z
    converged = False
    iterations = 0
    for _ in range(maxit):
        Ap = op(p)
        pAp = pair(p, Ap)
        if pAp <= 0:
            raise IndefinitenessError(f"operator form nonpositive: {pAp:.3e}")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        z = precond(r)
        rz_next = pair(r, z)
        if rz_next < 0:
            if abs(rz_next) > 1e-14 * rz0:
                raise IndefinitenessError(f"preconditioner form negative: {rz_next:.3e}")
            rz_next = 0.0
        alphas.append(alpha)
        iterations += 1
        rel = float(np.sqrt(rz_next / rz0))
        history.append(rel)
        if rel <= tol:
            converged = True
            break
        beta = rz_next / rz
        betas.append(beta)
        p = z + beta * p
        rz = rz_next

    return x, SolveReport(
        iterations=iterations,
        converged=converged,
        cond_estimate=lanczos_condition(alphas, betas),
        residual_history=np.asarray(history),
    )
