"""Benchmark runner for fracprec.

Run from the repository root:

    python3 bench/run.py --workload flux_grid --seed 7 --seconds 20 --trace 0

One run is one fresh process.  BLAS threads are capped at the number of
usable cores before numpy is imported.  After a warm-up call at reduced size,
the workload's entry point is called repeatedly until the next call would
end past ``--seconds`` (at least twice untraced).  Every call is graded
against the frozen acceptance grids, and every call must give the same cells.

``--trace 0`` reports the end-to-end metrics, as medians over the calls:

    wall_s       one call of the entry point; imports excluded
    setup_s      wall_s minus the time inside the per-cell boundary calls
    solve_s      time inside the per-cell boundary calls
    peak_rss_mb  ru_maxrss of this process

``--trace 1`` adds one call with every layer of ``tracer.LAYERS`` wrapped and
reports the per-layer metrics of that call, the tracing overhead (traced
wall_s minus the untraced median) and the span coverage (layer self times
over wall_s).  Its cells must equal the untraced ones exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the run's
fail ratio.  Details (environment, samples, problems, table hashes and, when
traced, the spans) go to ``bench/results/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, NESTING, Tracer, layer_table, spans_json

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

WORKLOAD_NAMES = ("flux_grid", "scalar_grid", "exact_cond", "props")

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict:
    """Per-layer metric name -> unit, in the order they are reported."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if name in NESTING:
            units[f"{name}.self_s"] = "s"
    units.update({
        "spectral.generalized_eig.max_dim": "count",
        "spectral.generalized_eig.dense_mb": "MB",
        "spectral.apply_power.gb_per_s": "GB/s",
        "krylov.iterations": "count",
        "trace.overhead_s": "s",
        "trace.coverage": "ratio",
    })
    return units


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (numpy and scipy ship their own)."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    def blas(pkg) -> str:
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": nproc,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _openblas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


@dataclass
class Call:
    wall: float
    solve: float
    grade: object  # workloads.Grade
    table_sha: str | None
    cells_sha: str | None
    spans: list
    origin: float


def one_call(spec, seed: int, small: bool, layers) -> Call:
    """Call the workload's entry point once with ``layers`` wrapped."""
    from workloads import Grade, sha256  # imports fracprec, so not before main()

    tracer = Tracer(layers)
    raw = error = None
    with tracer.installed():
        origin = perf_counter()
        try:
            raw = spec.run(seed, small)
        except Exception:  # a cell that raises is a failed cell, not a crash
            error = traceback.format_exc()
        wall = perf_counter() - origin
    boundary = [sp for sp in tracer.spans if sp[0] in spec.boundary]
    solve = sum(end - start for _, start, end, _, _ in boundary)
    expected = spec.expected_calls(small)
    if error is not None:
        grade = Grade(expected, expected, (f"entry point raised:\n{error}",))
    else:
        grade = spec.grade(raw, spec.small_columns if small else spec.columns)
        if len(boundary) != expected:
            problem = (f"{len(boundary)} boundary calls ({', '.join(spec.boundary)}), "
                       f"expected {expected}: the run failed and solve_s={solve:.6f}"
                       " is not a per-cell time")
            grade = Grade(grade.attempted, grade.attempted, grade.problems + (problem,))
    return Call(
        wall=wall,
        solve=solve,
        grade=grade,
        table_sha=None if raw is None else sha256(spec.render(raw)),
        cells_sha=None if raw is None else sha256(spec.cells(raw)),
        spans=tracer.spans,
        origin=origin,
    )


def measure(spec, seed: int, seconds: float, trace: bool, small: bool = False):
    """Untraced calls for ``seconds`` (at least 2, or 1 before a traced call),
    then the traced call if asked for."""
    if not small:
        one_call(spec, seed, True, spec.boundary)  # warm-up: lazy imports, BLAS pools
    calls = []
    start = perf_counter()
    while True:
        calls.append(one_call(spec, seed, small, spec.boundary))
        typical = statistics.median(c.wall for c in calls)
        if len(calls) >= (1 if trace else 2) and perf_counter() - start + typical > seconds:
            break
    traced = one_call(spec, seed, small, tuple(LAYERS)) if trace else None
    return calls, traced


def end_to_end_metrics(calls) -> dict:
    return {
        "wall_s": statistics.median(c.wall for c in calls),
        "setup_s": statistics.median(c.wall - c.solve for c in calls),
        "solve_s": statistics.median(c.solve for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(traced: Call, calls) -> dict:
    table = layer_table(traced.spans)
    metrics = {}
    for name in LAYERS:
        row = table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"]
        metrics[f"{name}.s"] = row["s"]
        if name in NESTING:
            metrics[f"{name}.self_s"] = row["self_s"]

    def extras(layer, key):
        return [extra[key] for name, _, _, _, extra in traced.spans
                if name == layer and extra is not None]

    max_dim = max(extras("spectral.generalized_eig", "dim"), default=0)
    apply_s = table.get("spectral.apply_power", {"s": 0.0})["s"]
    untraced_wall = statistics.median(c.wall for c in calls)
    metrics.update({
        "spectral.generalized_eig.max_dim": max_dim,
        # Computed: both densified operands and the modes, 8 bytes a value.
        "spectral.generalized_eig.dense_mb": 3 * 8 * max_dim**2 / 1e6,
        "spectral.apply_power.gb_per_s":
            sum(extras("spectral.apply_power", "bytes")) / apply_s / 1e9 if apply_s else 0.0,
        "krylov.iterations": sum(extras("krylov.pcg", "iterations")),
        "trace.overhead_s": traced.wall - untraced_wall,
        "trace.coverage": sum(row["self_s"] for row in table.values()) / traced.wall,
    })
    return metrics


def summarise(spec, seed, calls, traced, small=False) -> dict:
    """The run's result: the four contract keys plus details for the results file."""
    everything = calls + ([traced] if traced else [])
    attempted = sum(c.grade.attempted for c in everything)
    failed = sum(c.grade.failed for c in everything)
    problems = sorted({p for c in everything for p in c.grade.problems})
    outputs = {(c.table_sha, c.cells_sha) for c in everything}
    if len(outputs) != 1:
        problems.append(f"calls gave {len(outputs)} different outputs; "
                        "traced and untraced calls must give identical cells")
    if traced:
        values = per_layer_metrics(traced, calls)
        units = per_layer_units()
    else:
        values = end_to_end_metrics(calls)
        units = END_TO_END
    table_sha, cells_sha = sorted(outputs, key=str)[0]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "details": {
            "workload": spec.name,
            "seed": seed,
            "small": small,
            "samples": len(calls),
            "wall_s": [c.wall for c in calls],
            "solve_s": [c.solve for c in calls],
            "table_sha256": table_sha,
            "table_matches_seed7": table_sha == spec.seed7_sha256 if seed == 7 and not small else None,
            "cells_sha256": cells_sha,
            "problems": problems,
            "spans": spans_json(traced.spans, traced.origin) if traced else None,
        },
    }


def _report(result: dict, env: dict, path: Path) -> None:
    details = result["details"]
    print(f"workload {details['workload']}  seed {details['seed']}  "
          f"calls {details['samples']} untraced")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"table_sha256 {details['table_sha256']}  cells_sha256 {details['cells_sha256']}")
    if details["table_matches_seed7"] is not None:
        print(f"table bytes match the frozen seed-7 output: {details['table_matches_seed7']}")
    print(f"fail_ratio {result['failed']}/{result['attempted']}")
    for problem in details["problems"]:
        print(f"problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"details in {path.relative_to(ROOT)}")
    public = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(public))


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "fracprec" / "__init__.py").is_file():
        print(f"error: no fracprec sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    env = environment(nproc)
    spec = WORKLOADS[args.workload]
    calls, traced = measure(spec, args.seed, args.seconds, bool(args.trace))
    result = summarise(spec, args.seed, calls, traced)
    result["details"]["environment"] = env
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    _report(result, env, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
