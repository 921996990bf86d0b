"""Experiment grids: iteration counts and condition numbers.

Three grids are produced, mirroring the package's three headline results:

  1. the positive-power flux operator preconditioned by the additive
     multilevel solver (PCG iterations + Lanczos condition estimates),
  2. the exact gradient-sandwich preconditioner for negative scalar powers
     (exact condition numbers, no Krylov iterations),
  3. the multilevel gradient-sandwich preconditioner for negative scalar
     powers (PCG + estimates).

All three rest on the scalar pencil (grad.T inv(mass_v) grad, mass_s) of the
finest mesh, which the mesh's translations split into one 8 x 8 block per
wavenumber of the oddly reflected mesh.  Grids 1 and 3 diagonalize it in a
sine basis, one real block per orbit of wavenumbers
(``spectral.fourier_pair``): grid 3 uses it as the operator, and grid 1
applies the flux operator's powers through it by the discrete Helmholtz
split (``spectral.helmholtz_power``).  Grid 2 needs only its two extreme
eigenvalues, for the closed-form exact condition numbers and the inf-sup
constant (``auxiliary.exact_condition_number``); it reads them off the
same orbit blocks' eigenvalues (``spectral.scalar_spectrum``) and builds
no mesh.  The only flux pencil ever diagonalized is the coarsest
mesh's, for the multilevel coarse solve.  Grids 1 and 3 build one
``multigrid.MultilevelSetup`` per size, with that coarse pencil and one
sparse frame per finer level (its embedding and its vertex patches' modes),
take every exponent's preconditioner from it and drop it before the next
size's is built; the set-up assembles only the coarsest and finest
levels.  Each cell builds its operator once, as a fixed-exponent map
(``spectral.PowerMap``), and its preconditioner once, with each level's
scaling computed (``multigrid.AdditiveMultigrid``), before its PCG starts.

Each run computes on one thread of numpy's and scipy's bundled OpenBLAS
(``spectral._one_blas_thread``, set once per run and restored on return,
also when the run is refused).  Every dense matrix of the default grids is
small enough that a second thread buys nothing and can cost more than the
work: on 2 vCPUs the n = 32 set-up took 47 to 63 ms on one thread against
39 to 113 ms on two (medians of five calls, in eight fresh processes each),
of which ``fourier_pair`` is about 10 ms.  Only a large coarse eigensolve
gains from threads: at n = 256 its 3136 rows take 7.7 s on one thread
against 4.5 s on two.

Cells are seeded individually from (seed, table, exponent, size), so a grid
is reproducible cell by cell no matter which subset or order is run, and
re-running a configuration writes byte-identical output, whatever
``OPENBLAS_NUM_THREADS`` is.  The table column label ``N`` is the system
dimension: edge count for grid 1, triangle count for grids 2 and 3.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .auxiliary import build_multigrid, exact_condition_number
from .krylov import IndefinitenessError, pcg
from .mesh import build_hierarchy
from .multigrid import AdditiveMultigrid, multilevel_setup
from .spectral import (_one_blas_thread, fourier_pair, helmholtz_power, require_memory,
                       scalar_spectrum)
from .vectors import TaggedVector

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "TableResult",
    "default_config",
    "run_table1",
    "run_table2",
    "run_table3",
]

POSITIVE_S = tuple(round(0.1 * i, 1) for i in range(11))
NEGATIVE_S = tuple(round(-1.0 + 0.1 * i, 1) for i in range(11))

# Every setting each command reads, with its default; the CLI offers exactly
# these options and ``validate`` checks exactly these settings.
SETTINGS = {
    "1": dict(s_values=POSITIVE_S, sizes=(8, 16, 32), levels=4, tol=1e-9, maxit=200, seed=7),
    "2": dict(s_values=NEGATIVE_S, sizes=(16, 32), seed=7),
    "3": dict(s_values=NEGATIVE_S, sizes=(8, 16, 32), levels=4, tol=1e-10, maxit=200, seed=7),
    "props": dict(s_values=POSITIVE_S, tol=1e-9, seed=7, trials=200),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One command's settings; None for a setting the command does not read."""

    table: str
    s_values: tuple | None = None
    sizes: tuple | None = None  # finest mesh subdivisions n per column
    levels: int | None = None
    tol: float | None = None
    maxit: int | None = None
    seed: int | None = None
    trials: int | None = None  # randomized trials per property check


def default_config(table: str, **overrides) -> ExperimentConfig:
    """The command's settings with ``overrides`` applied.  This is where sizes
    enter, so each is read here, once, as a subdivision count n or a system
    dimension N (``resolve_size``); the config holds subdivisions n."""
    table = str(table)
    if table not in SETTINGS:
        raise ValueError(f"unknown table {table!r}; expected 1, 2, 3 or props")
    unread = sorted(set(overrides) - set(SETTINGS[table]))
    if unread:
        raise ValueError(f"table {table} does not read {', '.join(unread)}")
    cfg = ExperimentConfig(table, **{**SETTINGS[table], **overrides})
    if "sizes" in SETTINGS[table]:
        cfg = replace(cfg, sizes=_distinct_sizes(cfg.sizes, table))
    return cfg


def resolve_size(value: int, table: str) -> int:
    """Accept either a mesh subdivision count n (small values) or a system
    dimension N (values of 100 and up), returning n."""
    if value < 100:
        return value
    if table == "1":  # N = 3n^2 + 2n (edge count)
        n = (math.isqrt(1 + 3 * value) - 1) / 3
    else:  # N = 2n^2 (triangle count)
        n = math.isqrt(value // 2)
    n = int(round(n))
    expected = 3 * n * n + 2 * n if table == "1" else 2 * n * n
    if expected != value:
        raise ValueError(f"{value} is not a valid system dimension for this grid")
    return n


def _distinct_sizes(sizes: tuple, table: str | None = None) -> tuple:
    """Sizes as distinct subdivisions n.  With a table, each size is first
    read by ``resolve_size``; without one, sizes are already subdivisions."""
    if any(v < 1 for v in sizes):
        raise ValueError("sizes must be at least 1")
    ns = tuple(resolve_size(v, table) if table else v for v in sizes)
    for i, n in enumerate(ns):
        if n in ns[:i]:
            raise ValueError(f"sizes {sizes[ns.index(n)]} and {sizes[i]} "
                             f"are the same grid (n={n})")
    return ns


def validate(cfg: ExperimentConfig) -> ExperimentConfig:
    """Check the settings the command reads; returns the config with -0.0
    exponents read as 0.0, so ``validate(validate(cfg)) == validate(cfg)``.
    A run too large for the available memory raises PencilError."""
    reads = SETTINGS[cfg.table]
    if "sizes" in reads:
        _distinct_sizes(cfg.sizes)
    # -0 is the exponent 0: one cell, one label, one report grid point.
    cfg = replace(cfg, s_values=tuple(s + 0.0 for s in cfg.s_values))
    if not cfg.s_values or "sizes" in reads and not cfg.sizes:
        raise ValueError(f"no {'sizes' if cfg.s_values else 'exponents'} given")
    lo, hi = (0.0, 1.0) if cfg.table in ("1", "props") else (-1.0, 0.0)
    for i, s in enumerate(cfg.s_values):
        if not lo <= s <= hi:
            raise ValueError(f"exponent {s} outside [{lo}, {hi}]")
        if s in cfg.s_values[:i]:
            raise ValueError(f"exponent {s} given twice")
    if cfg.seed < 0:
        raise ValueError("seed must be non-negative")
    for name in ("levels", "maxit", "trials"):
        if name in reads and getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be at least 1")
    if "tol" in reads and not 0 < cfg.tol < 1:  # also rejects nan
        raise ValueError("tolerance must be strictly between 0 and 1")
    if "levels" in reads:
        step = 2 ** (cfg.levels - 1)
        for n in cfg.sizes:
            if n % step or n < step:
                raise ValueError(
                    f"finest size n={n} does not refine down over {cfg.levels} levels "
                    f"(needs a multiple of {step})"
                )
        # Bytes at the largest size, checked last: the coarse flux pencil's
        # eigensolve as ``generalized_eig`` counts it, six NV0 x NV0 arrays,
        # plus what the set-up holds besides it (the coarsest and finest
        # levels' sparse matrices, the frames and their temporaries, then the
        # sine basis of the fine scalar pencil).  In fresh processes
        # tracemalloc measures at most 182 doubles per fine edge at n = 8,
        # 96 to 124 at n = 12 to 64, 49 at n = 128 and 114 at n = 256 on 7
        # levels, counted as 200.  The peak falls in ``fourier_pair`` at
        # n = 8 and 12, 69 and 46 above what the multilevel set-up keeps,
        # and in the frame stage from n = 16 on.
        n = max(cfg.sizes)
        n0 = n // step
        nv, nv0 = 3 * n * n + 2 * n, 3 * n0 * n0 + 2 * n0
        require_memory(8 * (6 * nv0 ** 2 + 200 * nv), f"the set-up at n={n}")
    if cfg.table == "2":
        # ``scalar_spectrum`` at the largest size: 4 doubles per triangle, 2048 per
        # wavenumber of a row, and 8192; tracemalloc measures 0.43 to 0.90 of it
        # in fresh processes, n = 1 to 512, and the whole table 0.43 to 0.94.
        n = max(cfg.sizes)
        require_memory(8 * (8 * n * n + 2048 * (n // 2 + 1) + 8192), f"the spectrum at n={n}")
    return cfg


@dataclass(frozen=True)
class CellResult:
    s: float
    size: int  # system dimension N
    iters: int | None
    cond: float
    converged: bool
    note: str = ""


@dataclass
class TableResult:
    table: str
    config: ExperimentConfig
    columns: tuple  # N per size column
    cells: dict = field(default_factory=dict)  # (s, column N) -> CellResult
    reference: dict = field(default_factory=dict)  # table 2: s -> beta^(-2(1+s))

    @property
    def failed(self) -> bool:
        return any(not c.converged for c in self.cells.values())

    def _cell_text(self, s, N) -> str:
        cell = self.cells[(s, N)]
        if self.table == "2":
            return f"{cell.cond:.3f}"
        text = f"{cell.iters}({cell.cond:.1f})" if cell.iters is not None else "error"
        return text if cell.converged else text + "*"

    def to_markdown(self) -> str:
        header = ["s"] + [f"N={N}" for N in self.columns]
        if self.reference:
            header.append("beta^-2(1+s)")
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "---|" * len(header)]
        for s in self.config.s_values:
            row = [_label(s)] + [self._cell_text(s, N) for N in self.columns]
            if self.reference:
                row.append(f"{self.reference[s]:.3f}")
            lines.append("| " + " | ".join(row) + " |")
        notes = [c.note for c in self.cells.values() if c.note]
        if self.failed:
            lines.append("")
            lines.append("`*` did not converge within the iteration cap"
                         + ("; " + "; ".join(sorted(set(notes))) if notes else ""))
        return "\n".join(lines) + "\n"

    def to_csv(self, stream) -> None:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["table", "s", "N", "iters", "cond", "seed", "tol"])
        tol = "exact" if self.config.tol is None else f"{self.config.tol:g}"
        for s in self.config.s_values:
            for N in self.columns:
                cell = self.cells[(s, N)]
                writer.writerow([
                    self.table, _label(s), N,
                    "" if cell.iters is None else cell.iters,
                    f"{cell.cond:.6g}", self.config.seed, tol,
                ])
            if self.reference:
                writer.writerow([self.table, _label(s), "ref", "",
                                 f"{self.reference[s]:.6g}", self.config.seed, tol])

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            buf = io.StringIO()
            self.to_csv(buf)
            return buf.getvalue()
        return self.to_markdown()


def _is_tenth(s: float) -> bool:
    return abs(s) == round(abs(s) * 10) / 10


def _label(s: float) -> str:
    """Grid exponents print with one decimal; any other exponent prints exactly."""
    return f"{s:.1f}" if _is_tenth(s) else repr(float(s))


def _cell_rng(seed: int, table_no: int, s: float, n: int):
    # Multiples of 0.1 are keyed in tenths (the frozen default grids depend
    # on those streams); any other exponent on its exact binary value, so
    # distinct exponents never share a stream.
    key = [int(round(abs(s) * 10))] if _is_tenth(s) else list(abs(s).as_integer_ratio())
    return np.random.default_rng([seed, table_no, *key, n])


class _HierarchySetup:
    """Per-size state shared by every exponent: the multilevel setup
    (``multigrid.multilevel_setup``) and the finest level's scalar pair
    (``spectral.fourier_pair``)."""

    def __init__(self, n: int, cfg: ExperimentConfig):
        self.n = n
        self.multilevel = multilevel_setup(build_hierarchy(n // 2 ** (cfg.levels - 1), cfg.levels))
        self.scalar = fourier_pair(self.multilevel.finest)


def _run_krylov_cell(setup: _HierarchySetup, s: float, cfg: ExperimentConfig) -> CellResult:
    # Table 1 solves for flux coefficients, table 3 for scalar duals.
    fine = setup.multilevel.finest
    space, rep, dim = (("V", "dual", fine.mesh.num_edges) if cfg.table == "1"
                       else ("S", "coefficient", fine.mesh.num_triangles))
    rng = _cell_rng(cfg.seed, int(cfg.table), s, setup.n)
    try:
        if cfg.table == "1":
            precond = AdditiveMultigrid(setup.multilevel, s).apply
            op = helmholtz_power(setup.scalar, fine, s)
        else:
            precond = build_multigrid(s, setup.multilevel).apply
            op = setup.scalar.inverse_power(-s)
        rhs = TaggedVector(space, fine.index, rep, rng.uniform(-1, 1, dim))
        x0 = TaggedVector(space, fine.index, op.rep, rng.uniform(-1, 1, dim))
        _, report = pcg(op, precond, rhs, x0, tol=cfg.tol, maxit=cfg.maxit)
        return CellResult(s, dim, report.iterations, report.cond_estimate, report.converged)
    except IndefinitenessError as err:
        return CellResult(s, dim, None, float("nan"), False, note=str(err))


def _run_krylov_table(cfg: ExperimentConfig) -> TableResult:
    cfg = validate(cfg)
    result = TableResult(cfg.table, cfg, ())
    for n in cfg.sizes:
        setup = _HierarchySetup(n, cfg)
        for s in cfg.s_values:
            cell = _run_krylov_cell(setup, s, cfg)
            result.cells[(s, cell.size)] = cell
        result.columns += (cell.size,)
        del setup  # one size's set-up alive at a time, as ``validate`` counts
    return result


@_one_blas_thread()
def run_table1(cfg: ExperimentConfig | None = None) -> TableResult:
    return _run_krylov_table(cfg or default_config("1"))


@_one_blas_thread()
def run_table3(cfg: ExperimentConfig | None = None) -> TableResult:
    return _run_krylov_table(cfg or default_config("3"))


@_one_blas_thread()
def run_table2(cfg: ExperimentConfig | None = None) -> TableResult:
    cfg = validate(cfg or default_config("2"))
    result = TableResult("2", cfg, ())
    finest = max(cfg.sizes)
    for n in cfg.sizes:
        extremes = scalar_spectrum(n)[[0, -1]]
        N = 2 * n * n
        result.columns += (N,)
        for s in cfg.s_values:
            result.cells[(s, N)] = CellResult(s, N, None, exact_condition_number(extremes, s), True)
        if n == finest:  # beta^2 = min alpha / (1 + alpha) on the finest mesh
            beta_sq = extremes[0] / (1.0 + extremes[0])
    result.reference = {s: beta_sq ** -(1.0 + s) for s in cfg.s_values}
    return result

