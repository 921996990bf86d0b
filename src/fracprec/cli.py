"""Command-line entry point: run the experiment grids or the property suite.

Examples:

    fracprec table1                      # default sizes, markdown to stdout
    fracprec table3 --sizes 8,16 --format csv --out t3.csv
    fracprec table1 --sizes 64 --max-dense 8192    # the large optional column
    fracprec table1 --levels 1 --s-list 0          # exact coarse solve only
    fracprec props --trials 500
"""

from __future__ import annotations

import argparse
import io
import re
import sys

from . import tables
from .verify import report_csv, report_text


def _parse_floats(text: str):
    try:
        return tuple(float(tok) for tok in re.split(r"[,\s]+", text) if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}")


def _parse_ints(text: str):
    try:
        return tuple(int(tok) for tok in re.split(r"[,\s]+", text) if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracprec",
        description="Multilevel preconditioners for fractional operators: "
        "experiment grids and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("table1", "PCG grid for the positive-power flux operator with the "
         "additive multilevel preconditioner"),
        ("table2", "exact condition numbers of the gradient-sandwich "
         "preconditioner (no Krylov iterations)"),
        ("table3", "PCG grid for negative scalar powers with the multilevel "
         "gradient-sandwich preconditioner"),
        ("props", "operator-inequality property suite with measured constants"),
    ]
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--s-list", type=_parse_floats, metavar="S,S,...",
                       help="exponents to run (default: the full grid in steps "
                       "of 0.1); write --s-list=-1,-0.5 for negative values")
        p.add_argument("--sizes", type=_parse_ints, metavar="N,N,...",
                       help="finest sizes: mesh subdivisions (values under 100) "
                       "or system dimensions (values of 100 and up)")
        p.add_argument("--levels", type=int, metavar="J",
                       help="number of mesh levels (default 4)")
        p.add_argument("--tol", type=float,
                       help="solver tolerance (defaults: 1e-9 for table1, "
                       "1e-10 for table3; table2 is an exact eigensolve)")
        p.add_argument("--maxit", type=int, help="iteration cap (default 200)")
        p.add_argument("--seed", type=int, help="base seed (default 7)")
        p.add_argument("--format", choices=("markdown", "csv"), dest="fmt",
                       help="output format (default markdown; props prints text)")
        p.add_argument("--out", metavar="PATH", help="write output to this file")
        p.add_argument("--max-dense", type=int, dest="max_dense",
                       help="dense eigensolve size cap (raise for the largest "
                       "columns, e.g. 8192 for table1 --sizes 64)")
        if name == "props":
            p.add_argument("--trials", type=int,
                           help="randomized trials per matrix check (default 200)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    table = {"table1": "1", "table2": "2", "table3": "3", "props": "props"}[args.command]

    overrides = {}
    for attr, key in [("s_list", "s_values"), ("sizes", "sizes"), ("levels", "levels"),
                      ("tol", "tol"), ("maxit", "maxit"), ("seed", "seed"),
                      ("fmt", "fmt"), ("out", "out"),
                      ("max_dense", "max_dense"), ("trials", "trials")]:
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    try:
        cfg = tables.validate(tables.default_config(table, **overrides))
    except ValueError as err:
        parser.error(str(err))

    if table == "props":
        reports = tables.run_props(cfg)
        if cfg.fmt == "csv":
            buf = io.StringIO()
            report_csv(reports, buf)
            text = buf.getvalue()
        else:
            text = report_text(reports) + "\n"
        failed = any(not r.passed for r in reports)
    else:
        runner = {"1": tables.run_table1, "2": tables.run_table2, "3": tables.run_table3}
        result = runner[table](cfg)
        text = result.render(cfg.fmt)
        failed = result.failed

    if cfg.out:
        with open(cfg.out, "w", newline="") as handle:
            handle.write(text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
