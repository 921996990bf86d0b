"""Command-line entry point: run the experiment grids or the property suite.

Examples:

    fracprec table1                      # default sizes, markdown to stdout
    fracprec table3 --sizes 8,16 --format csv --out t3.csv
    fracprec table1 --sizes 64           # the large optional column, ~20 s, ~330 MiB
    fracprec table1 --levels 1 --s-list 0          # exact coarse solve only
    fracprec props --trials 500
"""

from __future__ import annotations

import argparse
import io
import re
import sys

from . import tables, verify
from .spectral import PencilError


def _parse_list(cast, what):
    def parse(text: str):
        try:
            return tuple(cast(tok) for tok in re.split(r"[,\s]+", text) if tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a list of {what}: {text!r}")
    return parse


# The option of each setting in ``tables.SETTINGS``: flag, type, help.
_OPTIONS = {
    "s_values": ("--s-list", _parse_list(float, "numbers"), "comma-separated exponents, "
                 "the full grid in steps of 0.1 by default; write --s-list=-1,-0.5 for "
                 "negative values"),
    "sizes": ("--sizes", _parse_list(int, "integers"), "comma-separated finest sizes: "
              "mesh subdivisions (under 100) or system dimensions (100 and up)"),
    "levels": ("--levels", int, "mesh levels"),
    "tol": ("--tol", float, "tolerance"),
    "maxit": ("--maxit", int, "iteration cap"),
    "seed": ("--seed", int, "base seed"),
    "trials": ("--trials", int, "randomized trials per matrix check"),
}

_COMMANDS = {
    "table1": ("1", "PCG grid for the positive-power flux operator with the "
               "additive multilevel preconditioner"),
    "table2": ("2", "exact condition numbers of the gradient-sandwich "
               "preconditioner (no Krylov iterations)"),
    "table3": ("3", "PCG grid for negative scalar powers with the multilevel "
               "gradient-sandwich preconditioner"),
    "props": ("props", "operator-inequality property suite with measured constants"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracprec",
        description="Multilevel preconditioners for fractional operators: "
        "experiment grids and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (table, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for setting, default in tables.SETTINGS[table].items():
            flag, kind, text = _OPTIONS[setting]
            if setting != "s_values":  # the exponent grid is too long to print
                text += " (default %(default)s)"
            p.add_argument(flag, dest=setting, type=kind, default=default, help=text)
        p.add_argument("--format", choices=("markdown", "csv"), default="markdown",
                       dest="fmt", help="output format (default markdown; props "
                       "prints text)")
        p.add_argument("--out", metavar="PATH", help="write output to this file")
        p.set_defaults(parser=p)  # option and settings errors print this command's usage
    return parser


def main(argv=None) -> int:
    namespace, unknown = build_parser().parse_known_args(argv)
    settings = vars(namespace)
    table = _COMMANDS[settings.pop("command")][0]
    parser, fmt, out = settings.pop("parser"), settings.pop("fmt"), settings.pop("out")
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        cfg = tables.validate(tables.default_config(table, **settings))
    except (ValueError, PencilError) as err:  # bad settings, or too large for memory
        parser.error(str(err))
    if out:  # an unwritable path is refused now, not after the run
        try:
            open(out, "a").close()
        except OSError as err:
            parser.error(f"cannot write {out}: {err.strerror}")

    if table == "props":
        reports = verify.run_all(trials=cfg.trials, s_grid=cfg.s_values, seed=cfg.seed,
                                 tol=cfg.tol)
        if fmt == "csv":
            buf = io.StringIO()
            verify.report_csv(reports, buf)
            text = buf.getvalue()
        else:
            text = verify.report_text(reports) + "\n"
        failed = any(not r.passed for r in reports)
    else:
        runner = {"1": tables.run_table1, "2": tables.run_table2, "3": tables.run_table3}
        result = runner[table](cfg)
        text = result.render(fmt)
        failed = result.failed

    if out:
        with open(out, "w", newline="") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
