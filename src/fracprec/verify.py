"""Numerical checks of the operator inequalities behind the preconditioners.

Every check phrases its inequality as an eigenvalue statement about a
difference or quotient pencil — no per-vector sampling — and reports the
worst (most negative) margin found over its parameter grid, normalized by
the spectral radius of the operator involved.  A report passes when that
margin is no worse than ``-tol``.  An empty grid, an exponent outside
[0, 1], a tolerance outside (0, 1) or no trials is refused with ValueError
before any work.  Each check decomposes each matrix once for its whole
exponent grid.  The two smoother checks work in each level's flux
eigenbasis, where the exponent enters only through diagonal scalings of two
products built once per level.

The matrix-level checks (operator Jensen, Loewner-Heinz) run hundreds of
randomized trials on dense matrices of dimension at most 40.  A trial
decomposes its two matrices once, builds their powers for the whole grid as
one stacked broadcast product and takes every exponent's smallest eigenvalue
of the difference from one eigenvalue-only call on that stack: at these
sizes most of a LAPACK call is wrapper overhead, so three calls per trial
cost less than one per exponent.  The mesh-level
checks share one fixture, ``MeshOperators``: the actual discrete operators on
the 4-level hierarchy n = 1, 2, 4, 8.  They verify

  * the one-sided coarse-restriction inequality for fractional powers (with
    its adjoint form, and the fact that the fractional coarse projection is
    a projection only at the endpoint exponents),
  * the commuting identity  (level power) o (fractional projection chain)
    = (dual restriction chain) o (finest power) on its three coarsest levels,
  * the two-sided spectral bounds of the gradient-sandwich preconditioner,
  * invariance of the discrete Helmholtz subspaces under fractional powers,
  * the smoother upper bound, its endpoint interpolation, and the
    stable-decomposition lower-bound constant of the additive multilevel
    solver.

The last two double as measurements: the constants they estimate (K0, K1,
C1, C2, the splitting stability c) are reported alongside the pass flag.

Every check, and the ``MeshOperators`` set-up, computes on one thread of
numpy's and scipy's bundled OpenBLAS through ``spectral._one_blas_thread``,
the limiter the table runners share, and gives each pool its previous thread
count back on return.  At these sizes (at most 208 rows) a second thread
costs more than the work: on 2 vCPUs, two threads against one,
``check_helmholtz_invariance`` took 0.43 s against 0.09 s,
``check_stable_decomposition`` 0.31 s against 0.04 s and
``check_noninheritance`` 0.27 s against 0.09 s.  The roundoff of a threaded
BLAS call depends on the thread count; on one thread the reported margins,
and so the bytes of ``fracprec props``, do not.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .fem import assemble_all, assemble_curl
from .mesh import build_hierarchy
from .multigrid import multilevel_setup
from .spectral import (_one_blas_thread, generalized_eig, inf_sup_constant, power_matrix,
                       scalar_spectrum)
from .auxiliary import aux_pencil_eigenvalues, make_aux_spectrum_context

__all__ = [
    "InequalityReport",
    "DEFAULT_GRID",
    "check_jensen",
    "check_loewner_heinz",
    "check_noninheritance",
    "check_projection_identity",
    "check_aux_bounds",
    "check_helmholtz_invariance",
    "check_smoother_bound",
    "check_stable_decomposition",
    "run_all",
    "report_text",
    "report_csv",
]

DEFAULT_GRID = tuple(np.round(np.linspace(0.0, 1.0, 11), 1))
_LARGEST_TRIAL_DIM = 40  # the random matrices of the matrix-level checks


@dataclass(frozen=True)
class InequalityReport:
    name: str
    grid: tuple
    worst: float  # most negative normalized margin seen (>= 0: no violation)
    tol: float
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst >= -self.tol

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = "".join(f"  {k}={v:.4g}" for k, v in sorted(self.constants.items()))
        return f"{status}  {self.name}: worst margin {self.worst:+.3e} (tol {self.tol:g}){extra}"


def _refuse_bad_input(s_grid, tol, trials=1) -> None:
    """Raise ValueError for fewer than one trial, an empty exponent grid, an
    exponent outside [0, 1] or a tolerance outside (0, 1)."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if len(s_grid) == 0:
        raise ValueError("no exponents given")
    for s in s_grid:
        if not 0.0 <= s <= 1.0:  # also rejects nan
            raise ValueError(f"exponent {s} outside [0, 1]")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must be strictly between 0 and 1, got {tol}")


def _min_eig(sym: np.ndarray) -> float:
    return float(sla.eigh(0.5 * (sym + sym.T), eigvals_only=True)[0])


def _psd_eigh(symmetric: np.ndarray) -> tuple:
    """Eigenvalues and orthonormal eigenvectors of a PSD matrix
    (symmetrized, negative roundoff eigenvalues clipped to zero)."""
    w, V = np.linalg.eigh(0.5 * (symmetric + symmetric.T))
    return np.clip(w, 0.0, None), V


def _stacked_min_eigs(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each symmetrized matrix of a ``(g, k, k)``
    stack, from one eigenvalue-only call."""
    return np.linalg.eigvalsh(0.5 * (stack + stack.swapaxes(-1, -2)))[:, 0]


def _power_stack(w: np.ndarray, V: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``V diag(w^e) V'`` for each exponent e of the array s, as one
    ``(len(s), rows, rows)`` broadcast product."""
    return (V * w ** s[:, None, None]) @ V.T


def _jensen_trials(trials: int, seed: int):
    """The random pairs ``(T, A)`` of ``check_jensen``: a contraction T of
    m x k and a PSD A of m x m, 2 <= m <= 40."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(2, _LARGEST_TRIAL_DIM + 1))
        k = int(rng.integers(1, m + 1))
        T = rng.standard_normal((m, k))
        norm = np.linalg.norm(T, 2)
        if norm > 1.0:
            T /= norm * (1.0 + 1e-12)
        C = rng.standard_normal((m, m))
        yield T, C.T @ C


def _jensen_margins(T: np.ndarray, A: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``lambda_min((T' A T)^s - T' A^s T) / max(||A||, 1)^s`` for each
    exponent of the array s.  ``T' A^s T = U diag(w^s) U'`` with
    ``A = V diag(w) V'`` and ``U = T' V``."""
    w, V = _psd_eigh(A)
    wr, Vr = _psd_eigh(T.T @ A @ T)
    diff = _power_stack(wr, Vr, s) - _power_stack(w, T.T @ V, s)
    return _stacked_min_eigs(diff) / max(w[-1], 1.0) ** s


def _loewner_heinz_trials(trials: int, seed: int):
    """The random pairs ``(A, B)`` of ``check_loewner_heinz``: PSD matrices
    of m x m, 2 <= m <= 40, with ``B - A`` PSD."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(2, _LARGEST_TRIAL_DIM + 1))
        C = rng.standard_normal((m, m))
        A = C.T @ C
        D = rng.standard_normal((int(rng.integers(1, m + 1)), m))
        yield A, A + D.T @ D


def _loewner_heinz_margins(A: np.ndarray, B: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``lambda_min(B^s - A^s) / max(||B||, 1)^s`` for each exponent of the
    array s; B is PSD, so its largest eigenvalue is its 2-norm."""
    wa, Va = _psd_eigh(A)
    wb, Vb = _psd_eigh(B)
    diff = _power_stack(wb, Vb, s) - _power_stack(wa, Va, s)
    return _stacked_min_eigs(diff) / max(wb[-1], 1.0) ** s


@_one_blas_thread()
def check_jensen(trials=200, s_grid=DEFAULT_GRID, seed=20, tol=1e-9):
    """T' A^s T <= (T' A T)^s for contractions T and symmetric PSD A."""
    _refuse_bad_input(s_grid, tol, trials)
    s = np.asarray(s_grid, dtype=float)
    worst = min(_jensen_margins(T, A, s).min() for T, A in _jensen_trials(trials, seed))
    return InequalityReport("operator-jensen", tuple(s_grid), float(worst), tol)


@_one_blas_thread()
def check_loewner_heinz(trials=200, s_grid=DEFAULT_GRID, seed=21, tol=1e-9):
    """A <= B implies A^s <= B^s for s in [0, 1]."""
    _refuse_bad_input(s_grid, tol, trials)
    s = np.asarray(s_grid, dtype=float)
    worst = min(_loewner_heinz_margins(A, B, s).min()
                for A, B in _loewner_heinz_trials(trials, seed))
    return InequalityReport("loewner-heinz", tuple(s_grid), float(worst), tol)


class MeshOperators:
    """Dense level operators on the hierarchy n = 1, 2, 4, 8, shared by the
    mesh checks.

    Holds, per level: the flux pencil eigendecomposition, the dual-form
    matrix for any exponent, and the embedding (prolongation) matrices
    between consecutive levels; the flux-eigenbasis products of the smoother
    checks are built on first use (``eigenbasis``).  ``lms`` are the
    assembled levels, coarsest first; the coarse pencil, and the embeddings
    and patch modes of the smoothers, copied out of the frames, come from
    their ``multigrid.MultilevelSetup``.
    """

    @_one_blas_thread()
    def __init__(self):
        self.lms = assemble_all(build_hierarchy(1, 4))
        self.setup = multilevel_setup(self.lms)
        self.pairs = [self.setup.coarse] + [
            generalized_eig(lm.hdiv, lm.mass_v, space="V", level=k)
            for k, lm in enumerate(self.lms[1:], start=1)
        ]
        self.embeddings = [U[:, :lm.mesh.num_edges].toarray()
                           for U, lm in zip(self.setup.frames, self.lms)]

    @property
    def num_levels(self) -> int:
        return len(self.lms)

    def dual_form(self, k: int, s: float) -> np.ndarray:
        return power_matrix(self.pairs[k], s)

    @cached_property
    def eigenbasis(self) -> dict:
        """Level k >= 1 -> ``(G, K)``, the exponent-independent products in
        the level's M-orthonormal flux modes V: ``G = V' M Q`` holds the
        patch modes Q of the smoother in that basis, and
        ``K = null_space(P' M V)`` spans the coordinates y whose dual
        ``M V y`` restricts to zero on level k - 1."""
        products = {}
        for k in range(1, self.num_levels):
            mass_modes = self.pairs[k].mass @ self.pairs[k].modes
            patch_modes = self.setup.frames[k - 1][:, self.lms[k - 1].mesh.num_edges:]
            products[k] = ((patch_modes.T @ mass_modes).T,
                           sla.null_space(self.embeddings[k - 1].T @ mass_modes))
        return products

    def smoother_gram(self, k: int, s: float) -> np.ndarray:
        """``C_s = D^(s/2) G diag(lam^-s) G' D^(s/2)`` of level k >= 1, with D
        the flux eigenvalues and lam the patch eigenvalues: the level-k patch
        smoother ``R_s`` in the flux eigenbasis, scaled on both sides by
        ``D^(s/2)``, so its eigenvalues are those of the pencil
        ``(R_s, inv F_s)``."""
        G, _ = self.eigenbasis[k]
        scaled = G * (self.pairs[k].eigenvalues ** (0.5 * s))[:, None]
        return (scaled * self.setup.patch_eigenvalues[k - 1] ** -s) @ scaled.T


def _fractional_projection(Fc: np.ndarray, Ff: np.ndarray, P: np.ndarray) -> np.ndarray:
    """The coarse-restriction map defined by matching s-power duals against
    every coarse function: inv(Fc) P' Ff, from the coarse and fine s-power
    dual forms and the embedding P."""
    return np.linalg.solve(Fc, P.T @ Ff)


@_one_blas_thread()
def check_noninheritance(ops: MeshOperators, s_grid=DEFAULT_GRID, tol=1e-9):
    """Fractional powers are not inherited under coarsening, but one-sided:
    the coarse s-power form dominates the restricted fine one.  Also checks
    the adjoint form and that the fractional coarse projection composed with
    the embedding is the identity only at s in {0, 1}."""
    _refuse_bad_input(s_grid, tol)
    worst = np.inf
    defects = {}
    for s in s_grid:
        Fc = ops.dual_form(0, s)
        scale = sla.eigh(Fc, eigvals_only=True)[-1]
        for k in range(ops.num_levels - 1):
            P = ops.embeddings[k]
            Ff = ops.dual_form(k + 1, s)
            scale_f = sla.eigh(Ff, eigvals_only=True)[-1]
            worst = min(worst, _min_eig(Fc - P.T @ Ff @ P) / scale)
            # Adjoint form: the projected coarse form is dominated by the
            # fine one.
            Ps = _fractional_projection(Fc, Ff, P)
            worst = min(worst, _min_eig(Ff - Ps.T @ Fc @ Ps) / scale_f)
            Fc, scale = Ff, scale_f
        # On the finest pair, endpoints collapse to genuine projections;
        # strictly inside (0,1) they must not (the composed map fails to
        # reproduce coarse functions).
        defect = np.linalg.norm(Ps @ P - np.eye(P.shape[1]), 2)
        if s in (0.0, 1.0):
            worst = min(worst, tol - defect)  # defect itself must be ~ 0
        elif defect <= 1e-6:
            worst = min(worst, -1.0)  # a projection where there must not be one
        if s in (0.0, 0.5, 1.0):
            defects[f"projection_defect_s={s:g}"] = defect
    return InequalityReport("coarse-power-noninheritance", tuple(s_grid), worst, tol, defects)


@_one_blas_thread()
def check_projection_identity(ops: MeshOperators, s_grid=DEFAULT_GRID, tol=1e-10):
    """(level power) o (fractional projection chain) equals
    (dual restriction chain) o (finest power), level by level, on the three
    coarsest levels (n = 1, 2, 4)."""
    _refuse_bad_input(s_grid, tol)
    J = 3
    worst = np.inf
    for s in s_grid:
        Fh = Ff = ops.dual_form(J - 1, s)
        chain = np.eye(Fh.shape[0])
        proj = np.eye(Fh.shape[0])
        for k in range(J - 2, -1, -1):
            Fc = ops.dual_form(k, s)
            chain = ops.embeddings[k].T @ chain  # dual restriction to level k
            proj = _fractional_projection(Fc, Ff, ops.embeddings[k]) @ proj
            lhs = Fc @ proj
            rhs = chain @ Fh
            worst = min(worst, -np.abs(lhs - rhs).max() / np.abs(rhs).max())
            Ff = Fc
    return InequalityReport("power-projection-commutes", tuple(s_grid), worst, tol)


@_one_blas_thread()
def check_aux_bounds(ops: MeshOperators, t_grid=DEFAULT_GRID, tol=1e-9):
    """Eigenvalues of the gradient-sandwich pencil lie in [beta^(2(1-t)), 1]:
    grad' (flux -(1-t)-power) grad against the scalar t-power dual form.  With
    the flux pair's M-orthonormal modes V, ``V V' = inv(M)``, so the scalar
    operator ``grad' inv(M) grad`` is ``E' E``, ``E = V' grad``."""
    _refuse_bad_input(t_grid, tol)
    lm, flux_pair = ops.lms[-1], ops.pairs[-1]
    E = flux_pair.modes.T @ lm.grad
    scalar_pair = generalized_eig(E.T @ E, lm.mass_s, space="S", level=lm.index)
    ctx = make_aux_spectrum_context(lm, flux_pair, scalar_pair)
    beta_sq = inf_sup_constant(lm) ** 2
    worst = np.inf
    for t in t_grid:
        w = aux_pencil_eigenvalues(ctx, -t)
        worst = min(worst, float(w[0]) - beta_sq ** (1.0 - t), 1.0 - float(w[-1]))
    return InequalityReport(
        "gradient-sandwich-bounds", tuple(t_grid), worst, tol,
        {"beta^-2": 1.0 / beta_sq},
    )


@_one_blas_thread()
def check_helmholtz_invariance(ops: MeshOperators, s_grid=DEFAULT_GRID, tol=1e-9):
    """Fractional powers of the flux operator preserve the Helmholtz split:
    rotated-gradient fields are fixed vectors (eigenvalue 1 for every s),
    gradient fields stay gradient fields, and on them the s-power acts with
    eigenvalues (1 + scalar eigenvalue)^s."""
    _refuse_bad_input(s_grid, tol)
    lm, vpair = ops.lms[-1], ops.pairs[-1]
    M = lm.mass_v.toarray()
    Minv_grad = np.linalg.solve(M, lm.grad.toarray())  # gradient fields, coefficients
    grad_mass = Minv_grad.T @ M @ Minv_grad
    curl = assemble_curl(lm.mesh).toarray()[:, 1:]  # rotated gradients, dual; drop the constant
    Minv_curl = np.linalg.solve(M, curl)
    alpha = scalar_spectrum(lm.mesh.n)
    worst = np.inf
    for s in s_grid:
        Fs = power_matrix(vpair, s)
        curl_image = Fs @ Minv_curl
        worst = min(worst, -np.abs(curl_image - curl).max() / np.abs(curl).max())
        cross = Minv_grad.T @ curl_image
        worst = min(worst, -np.abs(cross).max() / sla.eigh(Fs, eigvals_only=True)[-1])
        w = generalized_eig(Minv_grad.T @ Fs @ Minv_grad, grad_mass).eigenvalues
        expect = np.sort((1.0 + alpha) ** s)
        worst = min(worst, -np.abs(w - expect).max() / expect[-1])
    return InequalityReport("helmholtz-invariance", tuple(s_grid), worst, tol)


@_one_blas_thread()
def check_smoother_bound(ops: MeshOperators, s_grid=DEFAULT_GRID, tol=1e-8):
    """Patch-smoother upper bound: the smoother form is dominated by a
    constant times the inverse s-power form, with the constant interpolating
    the endpoint constants K0 (mass solve) and K1 (full solve) as
    K0^(1-s) K1^s.

    The constants are the eigenvalues of the pencil ``(R_s, inv F_s)`` of the
    smoother ``R_s`` and the s-power form ``F_s``.  With ``x = M V z`` and
    ``z = D^(s/2) y`` in the level's M-orthonormal flux modes V (eigenvalues
    D), it is the symmetric ``C_s = D^(s/2) G diag(lam^-s) G' D^(s/2)``, with
    ``G = V' M Q`` the patch modes (eigenvalues lam): one eigenvalue-only
    solve per level and exponent.
    """
    _refuse_bad_input(s_grid, tol)
    K0 = K1 = C1 = c = 0.0
    worst = np.inf
    for k in range(1, ops.num_levels):
        spectra = {s: sla.eigh(ops.smoother_gram(k, s), eigvals_only=True)
                   for s in {0.0, 1.0, *s_grid}}
        w0, w1 = spectra[0.0], spectra[1.0]
        K0 = max(K0, w0[-1])
        K1 = max(K1, w1[-1])
        c = max(c, 1.0 / w0[0])  # splitting stability of the patch cover
        for s in s_grid:
            top = spectra[s][-1]
            C1 = max(C1, top)
            bound = w0[-1] ** (1.0 - s) * w1[-1] ** s
            worst = min(worst, (bound - top) / bound)
    return InequalityReport(
        "smoother-upper-bound", tuple(s_grid), worst, tol,
        {"K0": K0, "K1": K1, "C1": C1, "c": c},
    )


@_one_blas_thread()
def check_stable_decomposition(ops: MeshOperators, s_grid=DEFAULT_GRID, tol=1e-9):
    """Multilevel splitting on the complement of the fractional coarse
    projection: pencil of the inverse smoother form against the s-power form.

    Its smallest eigenvalue is what the preconditioner's lower spectral bound
    rests on; we require it not to collapse between consecutive levels
    (finer/coarser ratio above 1/2).  The largest eigenvalue is the
    splitting constant C2, only conjectured to be level-independent and so
    reported, not asserted.  Both are taken on ``ker P_s = ker(P' F_s)``, as
    the coarse s-power form in ``P_s = inv(F_c) P' F_s`` is invertible.

    In the level's flux modes, ``x = V y``: ``P' F_s x = P' M V D^s y``, so
    ``ker P_s`` is spanned by ``V D^-s K``, ``K = null_space(P' M V)``.
    With ``J = D^(-s/2) K`` the pencil is ``(J' inv(C_s) J, J' J)``, ``C_s``
    as in ``check_smoother_bound``: one Cholesky factorization of ``C_s`` and
    one eigenvalue-only solve of the complement's order per level and
    exponent.
    """
    _refuse_bad_input(s_grid, tol)
    decay_floor = 0.5
    C2 = 0.0
    growth = 1.0
    lam_min = np.inf
    worst = np.inf
    for s in s_grid:
        prev = None
        for k in range(1, ops.num_levels):
            _, K = ops.eigenbasis[k]
            J = K * (ops.pairs[k].eigenvalues ** (-0.5 * s))[:, None]
            W = sla.solve_triangular(sla.cholesky(ops.smoother_gram(k, s), lower=True),
                                     J, lower=True)
            w = sla.eigh(W.T @ W, J.T @ J, eigvals_only=True)
            C2 = max(C2, w[-1])
            lam_min = min(lam_min, w[0])
            if prev is not None:
                worst = min(worst, w[0] / prev[0] - decay_floor)
                growth = max(growth, w[-1] / prev[-1])
            prev = w
    return InequalityReport(
        "stable-decomposition", tuple(s_grid), worst, tol,
        {"C2": C2, "C2_growth": growth, "lambda_min": lam_min},
    )


def run_all(trials=200, s_grid=DEFAULT_GRID, seed=7, tol=1e-9):
    """Run every check; returns the list of reports in a fixed order.

    Raises ValueError, before any work, for fewer than one trial, an empty
    exponent grid, an exponent outside [0, 1] or a tolerance outside (0, 1).
    """
    _refuse_bad_input(s_grid, tol, trials)
    ops = MeshOperators()
    return [
        check_jensen(trials, s_grid, seed, tol),
        check_loewner_heinz(trials, s_grid, seed + 1, tol),
        check_noninheritance(ops, s_grid, tol),
        check_projection_identity(ops, s_grid, max(tol, 1e-10)),
        check_aux_bounds(ops, s_grid, tol),
        check_helmholtz_invariance(ops, s_grid, tol),
        check_smoother_bound(ops, s_grid, max(tol, 1e-8)),
        check_stable_decomposition(ops, s_grid, tol),
    ]


def report_text(reports) -> str:
    lines = [str(r) for r in reports]
    failed = sum(not r.passed for r in reports)
    lines.append(f"{len(reports) - failed}/{len(reports)} checks passed")
    return "\n".join(lines)


def report_csv(reports, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["name", "grid", "worst", "tol", "passed", "constants"])
    for r in reports:
        consts = ";".join(f"{k}={v:.6g}" for k, v in sorted(r.constants.items()))
        writer.writerow([r.name, " ".join(f"{g:g}" for g in r.grid),
                         f"{r.worst:.6e}", f"{r.tol:g}", int(r.passed), consts])
