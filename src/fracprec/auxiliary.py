"""Preconditioner for negative fractional powers of the scalar operator.

For exponents s in [-1, 0] the preconditioner sandwiches a flux-space solve
between the discrete gradient and its transpose,

    B_s = grad.T  o  (inverse (1+s)-power on the flux space)  o  grad,

mapping scalar coefficient vectors to scalar dual vectors.  The inner solve
is either the exact spectral inverse power (reference) or the additive
multilevel preconditioner at exponent 1+s (practical), taken from the
hierarchy's one exponent-independent ``multigrid.MultilevelSetup``.  At
s = -1 the exact variant reproduces the inverse scalar operator's action
identically, because the inner solve degenerates to a flux mass solve.

The exact preconditioned spectrum needs no Krylov iterations and no flux
eigensolve.  With the scalar pencil eigenvalues alpha of
(grad.T inv(mass_v) grad, mass_s), the gradient field inv(mass_v) grad phi of
each scalar mode phi is a flux mode with eigenvalue 1 + alpha, and the
rotated-gradient modes are invisible to the sandwich, so the preconditioned
operator has the eigenvalues r^(1+s) with r = alpha / (1 + alpha).  Its
condition number is (r_max / r_min)^(1+s), and r_min is the squared inf-sup
constant (``exact_condition_number``).

The brute-force route is kept as the small-mesh oracle for that closed form:
with the flux pencil modes Phi_V (eigenvalues mu) and scalar pencil modes
Phi_S, the preconditioned operator is similar to

    diag(alpha^(s/2)) @ E.T @ diag(mu^-(1+s)) @ E @ diag(alpha^(s/2)),

with the coupling matrix E = Phi_V.T @ grad @ Phi_S computed once per level
and shared across exponents (``make_aux_spectrum_context``,
``aux_pencil_eigenvalues``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import LevelMatrices
from .multigrid import AdditiveMultigrid, MultilevelSetup
from .spectral import SpectralPair
from .vectors import retag, untag

__all__ = [
    "AuxiliaryPreconditioner",
    "build_exact",
    "build_multigrid",
    "AuxSpectrumContext",
    "make_aux_spectrum_context",
    "aux_pencil_eigenvalues",
    "exact_condition_number",
]


def _check_exponent(s: float) -> None:
    if not -1.0 <= s <= 0.0:
        raise ValueError(f"exponent must lie in [-1, 0], got {s}")


class AuxiliaryPreconditioner:
    """grad.T composed with an inner flux solve composed with grad; the
    level's stored ``grad_t`` applies grad.T."""

    def __init__(self, lm: LevelMatrices, inner):
        self.lm = lm
        self.inner = inner

    def apply(self, u):
        vals = untag(u, "S", self.lm.index, "coefficient")
        flux_dual = self.lm.grad @ vals
        flux_coeff = self.inner(flux_dual)
        return retag(u, "dual", self.lm.grad_t @ flux_coeff)


def build_exact(s: float, lm: LevelMatrices, flux_pair: SpectralPair) -> AuxiliaryPreconditioner:
    """Reference variant: exact inverse (1+s)-power on the flux space."""
    _check_exponent(s)
    return AuxiliaryPreconditioner(lm, flux_pair.inverse_power(1.0 + s))


def build_multigrid(s: float, setup: MultilevelSetup) -> AuxiliaryPreconditioner:
    """Practical variant: the additive multilevel solver of ``setup`` at
    exponent 1+s; one setup serves every exponent."""
    _check_exponent(s)
    return AuxiliaryPreconditioner(setup.finest, AdditiveMultigrid(setup, 1.0 + s).apply)


@dataclass(frozen=True)
class AuxSpectrumContext:
    """Exponent-independent pieces of the exact preconditioned spectrum."""

    scalar_eigenvalues: np.ndarray
    flux_eigenvalues: np.ndarray
    coupling: np.ndarray  # flux modes.T @ grad @ scalar modes


def make_aux_spectrum_context(
    lm: LevelMatrices, flux_pair: SpectralPair, scalar_pair: SpectralPair
) -> AuxSpectrumContext:
    coupling = flux_pair.modes.T @ (lm.grad @ scalar_pair.modes)
    return AuxSpectrumContext(
        scalar_eigenvalues=scalar_pair.eigenvalues,
        flux_eigenvalues=flux_pair.eigenvalues,
        coupling=coupling,
    )


def aux_pencil_eigenvalues(ctx: AuxSpectrumContext, s: float) -> np.ndarray:
    """All eigenvalues of the exactly preconditioned scalar s-power."""
    _check_exponent(s)
    w = ctx.flux_eigenvalues ** -(1.0 + s)
    core = (ctx.coupling * w[:, None]).T @ ctx.coupling
    a = ctx.scalar_eigenvalues ** (s / 2.0)
    return np.linalg.eigvalsh(core * np.outer(a, a))


def exact_condition_number(scalar_eigenvalues: np.ndarray, s: float) -> float:
    """Condition number of the exactly preconditioned scalar s-power,
    ``(r_max / r_min)^(1+s)`` with ``r = alpha / (1 + alpha)`` over the
    scalar pencil eigenvalues ``alpha``.  Only the extremes matter: the full
    spectrum or any array that holds its smallest and largest value will do,
    such as the two ends of ``spectral.scalar_spectrum``."""
    _check_exponent(s)
    r = scalar_eigenvalues / (1.0 + scalar_eigenvalues)
    return float((r.max() / r.min()) ** (1.0 + s))
