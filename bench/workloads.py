"""The four benchmark workloads, and how their results are graded.

Each workload calls one public entry point of fracprec with the workload
seed and grades every cell against a copy of the frozen acceptance grids
(``tests/test_acceptance.py``) at the acceptance tolerances.  Columns are
system dimensions N.  ``small`` selects reduced sizes for the benchmark's
self-test; the graded columns shrink with it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from fracprec import tables, verify

from tracer import VERIFY_CHECKS

# (iterations, condition estimate) per column N = 208, 800, 3136, 12416.
FLUX_GRID_REFERENCE = {
    0.0: ((20, 4.9), (21, 4.9), (21, 4.9), (21, 4.9)),
    0.1: ((20, 4.6), (21, 4.9), (22, 5.2), (23, 5.5)),
    0.2: ((22, 5.6), (24, 6.2), (25, 6.8), (27, 7.4)),
    0.3: ((24, 6.6), (26, 7.5), (27, 8.1), (28, 8.6)),
    0.4: ((26, 8.0), (28, 8.7), (29, 9.2), (29, 9.6)),
    0.5: ((27, 9.2), (30, 9.8), (30, 10.3), (30, 10.5)),
    0.6: ((29, 10.4), (31, 10.9), (31, 11.3), (31, 11.5)),
    0.7: ((30, 11.6), (32, 12.1), (32, 12.4), (32, 12.5)),
    0.8: ((31, 13.0), (33, 13.4), (33, 13.5), (33, 13.7)),
    0.9: ((32, 14.5), (35, 14.9), (34, 14.9), (34, 15.0)),
    1.0: ((33, 16.1), (36, 16.5), (36, 16.6), (35, 16.5)),
}
FLUX_COLUMNS = (208, 800, 3136, 12416)

# Exact condition numbers per column N = 512, 2048.
EXACT_COND_REFERENCE = {
    -1.0: (1.000, 1.000),
    -0.9: (1.005, 1.005),
    -0.8: (1.010, 1.010),
    -0.7: (1.015, 1.015),
    -0.6: (1.020, 1.020),
    -0.5: (1.025, 1.025),
    -0.4: (1.030, 1.030),
    -0.3: (1.035, 1.035),
    -0.2: (1.040, 1.040),
    -0.1: (1.045, 1.045),
    0.0: (1.050, 1.051),
}
EXACT_COLUMNS = (512, 2048)
BETA_INV_SQ, BETA_TOL = 1.051, 0.001

# (iterations, condition estimate) per column N = 128, 512, 2048, 8192.
SCALAR_GRID_REFERENCE = {
    -1.0: ((18, 4.3), (19, 4.4), (20, 4.6), (21, 4.6)),
    -0.9: ((17, 3.7), (19, 3.7), (19, 3.7), (19, 3.7)),
    -0.8: ((17, 3.2), (18, 3.2), (18, 3.2), (18, 3.2)),
    -0.7: ((17, 2.9), (18, 2.9), (18, 2.9), (18, 3.0)),
    -0.6: ((17, 2.8), (18, 3.0), (18, 3.1), (19, 3.1)),
    -0.5: ((18, 3.2), (19, 3.3), (20, 3.4), (20, 3.6)),
    -0.4: ((19, 3.6), (21, 3.8), (21, 3.8), (22, 4.4)),
    -0.3: ((19, 4.0), (22, 4.2), (22, 4.2), (24, 5.3)),
    -0.2: ((20, 4.5), (23, 4.8), (24, 5.1), (26, 6.2)),
    -0.1: ((21, 5.1), (25, 5.4), (26, 6.1), (28, 7.2)),
    0.0: ((22, 5.8), (27, 6.2), (28, 7.4), (30, 8.3)),
}
SCALAR_COLUMNS = (128, 512, 2048, 8192)

ITERS_TOL = 3


@dataclass(frozen=True)
class Grade:
    attempted: int
    failed: int
    problems: tuple  # one line per failed cell or check


def _grade_krylov(result, reference, all_columns, columns, cond_tol) -> Grade:
    problems = []
    attempted = 0
    for s, row in reference.items():
        for N, (want_iters, want_cond) in zip(all_columns, row):
            if N not in columns:
                continue
            attempted += 1
            cell = result.cells.get((s, N))
            if cell is None:
                problems.append(f"s={s} N={N}: missing")
            elif not cell.converged or cell.iters is None:
                problems.append(f"s={s} N={N}: did not converge {cell.note}".rstrip())
            elif (abs(cell.iters - want_iters) > ITERS_TOL
                  or abs(cell.cond - want_cond) > cond_tol * want_cond):
                problems.append(f"s={s} N={N}: {cell.iters}({cell.cond:.3f}), "
                                f"frozen {want_iters}({want_cond})")
    return Grade(attempted, len(problems), tuple(problems))


def _grade_exact(result, columns) -> Grade:
    problems = []
    attempted = 0
    for s, row in EXACT_COND_REFERENCE.items():
        for N, want in zip(EXACT_COLUMNS, row):
            if N not in columns:
                continue
            attempted += 1
            cell = result.cells.get((s, N))
            if cell is None:
                problems.append(f"s={s} N={N}: missing")
            elif not abs(cell.cond - want) <= 0.002:
                problems.append(f"s={s} N={N}: {cell.cond:.4f}, frozen {want}")
    attempted += 1
    beta = result.reference.get(0.0, float("nan"))
    if not abs(beta - BETA_INV_SQ) <= BETA_TOL:
        problems.append(f"beta^-2 = {beta:.4f}, frozen {BETA_INV_SQ} +- {BETA_TOL}")
    return Grade(attempted, len(problems), tuple(problems))


def _grade_props(reports, names) -> Grade:
    problems = [f"{r.name}: worst margin {r.worst:+.3e} (tol {r.tol:g})"
                for r in reports if not r.passed]
    got = {r.name for r in reports}
    problems += [f"{name}: missing" for name in names if name not in got]
    return Grade(len(names), len(problems), tuple(problems))


def _table_cells(result) -> str:
    return repr((sorted(result.cells.items()), sorted(result.reference.items())))


def _props_cells(reports) -> str:
    return repr([(r.name, r.worst, sorted(r.constants.items())) for r in reports])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable  # (seed, small) -> raw result of the entry point
    grade: Callable  # (raw result, columns) -> Grade
    render: Callable  # raw result -> the text a user sees
    cells: Callable  # raw result -> full-precision cell text
    boundary: tuple  # layers called once per cell; their time is solve_s
    columns: tuple  # graded columns at full size
    small_columns: tuple  # graded columns at reduced size
    seed7_sha256: str  # sha256 of the rendered output at seed 7, at this commit
    rows: int = 11  # boundary calls per column

    def expected_calls(self, small: bool) -> int:
        return self.rows * len(self.small_columns if small else self.columns)


def _table(runner, table, small_sizes):
    def run(seed, small):
        overrides = {"seed": seed}
        if small:
            overrides["sizes"] = small_sizes
        return runner(tables.default_config(table, **overrides))
    return run


def _props(seed, small):
    if small:
        return verify.run_all(trials=20, s_grid=(0.0, 0.5, 1.0), seed=seed)
    return verify.run_all(trials=200, seed=seed)


def _markdown(result) -> str:
    return result.to_markdown()


# Report names in the order verify.run_all produces them.
PROPS_REPORTS = (
    "operator-jensen",
    "loewner-heinz",
    "coarse-power-noninheritance",
    "power-projection-commutes",
    "gradient-sandwich-bounds",
    "helmholtz-invariance",
    "smoother-upper-bound",
    "stable-decomposition",
)

WORKLOADS = {
    "flux_grid": Workload(
        name="flux_grid",
        run=_table(tables.run_table1, "1", (8,)),
        grade=lambda r, cols: _grade_krylov(r, FLUX_GRID_REFERENCE, FLUX_COLUMNS, cols, 0.10),
        render=_markdown,
        cells=_table_cells,
        boundary=("krylov.pcg",),
        columns=(208, 800, 3136),
        small_columns=(208,),
        seed7_sha256="b5b0253d5a77989c7d319657abd5b3902c40c180b32d4cb6e1b12e2bee8967ab",
    ),
    "scalar_grid": Workload(
        name="scalar_grid",
        run=_table(tables.run_table3, "3", (8,)),
        grade=lambda r, cols: _grade_krylov(r, SCALAR_GRID_REFERENCE, SCALAR_COLUMNS, cols, 0.15),
        render=_markdown,
        cells=_table_cells,
        boundary=("krylov.pcg",),
        columns=(128, 512, 2048),
        small_columns=(128,),
        seed7_sha256="1f654ebe72033ee9e79796b04d04a0c8d2973ad0f910055e26bf9cebc107bd7e",
    ),
    "exact_cond": Workload(
        name="exact_cond",
        run=_table(tables.run_table2, "2", (16,)),
        grade=_grade_exact,
        render=_markdown,
        cells=_table_cells,
        boundary=("auxiliary.exact_condition_number",),
        columns=(512, 2048),
        small_columns=(512,),
        seed7_sha256="85dcb1a7fe65f47f8c3f6ef248e2e4112fe28df5a48d2eadd040f2288fdb35fd",
    ),
    "props": Workload(
        name="props",
        run=_props,
        grade=_grade_props,
        render=verify.report_text,
        cells=_props_cells,
        boundary=tuple(f"verify.{name}" for name in VERIFY_CHECKS),
        columns=PROPS_REPORTS,
        small_columns=PROPS_REPORTS,
        seed7_sha256="7654d293c83ab7d429a1475841f3f938961f11fb34f5234aa225371de66a8870",
        rows=1,
    ),
}
