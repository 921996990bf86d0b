import io
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracprec import cli, multigrid, spectral, tables
from fracprec.auxiliary import exact_condition_number
from fracprec.fem import assemble, assemble_all, laplacian_dual
from fracprec.krylov import IndefinitenessError
from fracprec.mesh import build_hierarchy, build_level
from fracprec.spectral import FourierModes, fourier_pair, generalized_eig

from oracles import mode_orbit


class TestSizeResolution:
    def test_small_values_are_subdivisions(self):
        assert tables.resolve_size(8, "1") == 8
        assert tables.resolve_size(32, "3") == 32

    def test_edge_counts_for_flux_grid(self):
        for N, n in [(208, 8), (800, 16), (3136, 32), (12416, 64)]:
            assert tables.resolve_size(N, "1") == n

    def test_triangle_counts_for_scalar_grids(self):
        for N, n in [(128, 8), (512, 16), (2048, 32), (8192, 64)]:
            assert tables.resolve_size(N, "2") == n
            assert tables.resolve_size(N, "3") == n

    def test_invalid_dimension_rejected(self):
        with pytest.raises(ValueError):
            tables.resolve_size(209, "1")
        with pytest.raises(ValueError):
            tables.resolve_size(500, "3")


class TestConfig:
    def test_defaults_per_table(self):
        c1 = tables.default_config("1")
        assert c1.sizes == (8, 16, 32) and c1.tol == 1e-9 and c1.levels == 4
        assert c1.s_values == tables.POSITIVE_S
        c2 = tables.default_config("2")
        assert c2.sizes == (16, 32) and c2.tol is None
        assert c2.s_values == tables.NEGATIVE_S
        c3 = tables.default_config("3")
        assert c3.sizes == (8, 16, 32) and c3.tol == 1e-10

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            tables.default_config("4")

    def test_overrides(self):
        cfg = tables.default_config("1", sizes=(8,), tol=1e-6, seed=11)
        assert cfg.sizes == (8,) and cfg.tol == 1e-6 and cfg.seed == 11

    def test_default_config_resolves_dimensions(self):
        cfg = tables.default_config("1", sizes=(800,), levels=4)
        assert cfg.sizes == (16,)

    def test_validate_rejects_unrefinable_sizes(self):
        with pytest.raises(ValueError):
            tables.validate(tables.default_config("1", sizes=(9,)))
        with pytest.raises(ValueError):
            tables.validate(tables.default_config("3", sizes=(4,), levels=4))

    def test_validate_rejects_wrong_sign_exponents(self):
        with pytest.raises(ValueError):
            tables.validate(tables.default_config("1", s_values=(-0.5,)))
        with pytest.raises(ValueError):
            tables.validate(tables.default_config("3", s_values=(0.5,)))
        with pytest.raises(ValueError):
            tables.validate(tables.default_config("2", s_values=(0.1,)))

    @pytest.mark.parametrize("table, setting", [
        ("2", dict(levels=3)), ("props", dict(sizes=(8,))), ("1", dict(trials=5)),
        ("2", dict(max_dense=5)),
    ])
    def test_unread_setting_rejected(self, table, setting):
        with pytest.raises(ValueError, match="does not read"):
            tables.default_config(table, **setting)

    def test_validate_reads_negative_zero_as_zero(self):
        cfg = tables.validate(tables.default_config("props", s_values=(-0.0, 0.5)))
        assert [math.copysign(1.0, s) for s in cfg.s_values] == [1.0, 1.0]
        with pytest.raises(ValueError, match="twice"):
            tables.validate(tables.default_config("3", s_values=(0.0, -0.0)))

    def test_validate_rejects_bad_solver_settings(self):
        with pytest.raises(ValueError):
            tables.validate(tables.default_config("1", tol=0.0))
        with pytest.raises(ValueError):
            tables.validate(tables.default_config("1", maxit=0))


@pytest.fixture(scope="module")
def small_table1():
    cfg = tables.default_config("1", sizes=(4,), levels=2, s_values=(0.0, 0.5))
    return tables.run_table1(cfg)


@pytest.fixture(scope="module")
def small_table3():
    cfg = tables.default_config("3", sizes=(4,), levels=2, s_values=(-1.0, -0.5))
    return tables.run_table3(cfg)


class TestTableRuns:
    def test_flux_grid_cells(self, small_table1):
        assert small_table1.columns == (56,)  # 3n^2 + 2n edges at n = 4
        assert not small_table1.failed
        for (s, N), cell in small_table1.cells.items():
            assert cell.converged and cell.iters >= 1
            assert cell.cond >= 1.0

    def test_scalar_grid_cells(self, small_table3):
        assert small_table3.columns == (32,)  # 2n^2 triangles at n = 4
        assert not small_table3.failed
        for cell in small_table3.cells.values():
            assert cell.converged and cell.cond >= 1.0

    def test_cells_independent_of_grid_subset(self, small_table3):
        cfg = tables.default_config("3", sizes=(4,), levels=2, s_values=(-0.5,))
        single = tables.run_table3(cfg)
        assert single.cells[(-0.5, 32)] == small_table3.cells[(-0.5, 32)]

    def test_rerun_is_byte_identical(self, small_table1):
        again = tables.run_table1(small_table1.config)
        assert again.render("csv") == small_table1.render("csv")
        assert again.render("markdown") == small_table1.render("markdown")

    def test_markdown_layout(self, small_table1):
        lines = small_table1.to_markdown().splitlines()
        assert lines[0] == "| s | N=56 |"
        assert len(lines) == 2 + len(small_table1.config.s_values)
        assert lines[2].startswith("| 0.0 | ")

    def test_csv_layout(self, small_table1):
        buf = io.StringIO()
        small_table1.to_csv(buf)
        rows = buf.getvalue().splitlines()
        assert rows[0] == "table,s,N,iters,cond,seed,tol"
        assert len(rows) == 1 + 2  # one row per (s, N)
        assert rows[1].startswith("1,0.0,56,")
        assert rows[1].endswith(",7,1e-09")

    def test_unconverged_cells_are_flagged(self):
        cfg = tables.default_config(
            "1", sizes=(4,), levels=2, s_values=(0.5,), tol=1e-12, maxit=1
        )
        result = tables.run_table1(cfg)
        assert result.failed
        text = result.to_markdown()
        assert "*" in text and "did not converge" in text


class TestOneBlasThread:
    """Each run computes on one OpenBLAS thread and hands each pool back with
    the thread count it had, also when it is refused."""

    @staticmethod
    def counts(pools):
        return [get() for get, _ in pools]

    @pytest.mark.parametrize("run, cfg, routines", [
        (tables.run_table1, dict(table="1", sizes=(8,), levels=2, s_values=(0.5,)),
         {"scipy.linalg.eigh", "numpy.linalg.eigh"}),
        (tables.run_table2, dict(table="2", sizes=(8,), s_values=(-0.5,)),
         {"numpy.linalg.eigvalsh"}),
        (tables.run_table3, dict(table="3", sizes=(8,), levels=2, s_values=(-0.5,)),
         {"scipy.linalg.eigh", "numpy.linalg.eigh"}),
    ], ids=["table1", "table2", "table3"])
    def test_runs_compute_on_one_thread_and_restore_the_count(self, pools, monkeypatch,
                                                              run, cfg, routines):
        assert pools  # the numpy and scipy wheels each bundle an OpenBLAS
        seen = []
        for owner, name in ((spectral.sla, "eigh"), (np.linalg, "eigh"),
                            (np.linalg, "eigvalsh")):
            def probe(*args, inner=getattr(owner, name),
                      routine=f"{owner.__name__}.{name}", **kwargs):
                seen.append((routine, self.counts(pools)))
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, probe)
        run(tables.default_config(**cfg))
        assert {routine for routine, _ in seen} == routines
        assert all(counts == [1] * len(pools) for _, counts in seen)
        assert self.counts(pools) == [2] * len(pools)

    def test_a_refused_run_restores_the_count(self, pools, monkeypatch):
        with pytest.raises(ValueError, match="does not refine down"):
            tables.run_table1(tables.default_config("1", sizes=(8,), levels=5))
        monkeypatch.setattr(spectral, "available_memory", lambda: 1000)
        with pytest.raises(spectral.PencilError, match="more than the 1000 bytes"):
            tables.run_table3(tables.default_config("3", sizes=(8,)))
        with pytest.raises(spectral.PencilError, match="more than the 1000 bytes"):
            tables.run_table2(tables.default_config("2", sizes=(8,)))
        assert self.counts(pools) == [2] * len(pools)


class TestExponentKeys:
    def test_off_grid_exponents_get_their_own_row_and_stream(self):
        cfg = tables.default_config("3", sizes=(4,), levels=2, s_values=(-0.2, -0.25))
        result = tables.run_table3(cfg)
        rows = result.to_markdown().splitlines()[2:]
        assert [r.split(" | ")[0] for r in rows] == ["| -0.2", "| -0.25"]
        assert [r.split(",")[1] for r in result.render("csv").splitlines()[1:]] == [
            "-0.2", "-0.25"]
        draws = [tables._cell_rng(7, 3, s, 4).uniform(size=4) for s in (-0.2, -0.25)]
        assert not np.array_equal(*draws)

    def test_grid_exponents_keep_their_seeds(self):
        for table_no, grid in ((1, tables.POSITIVE_S), (3, tables.NEGATIVE_S)):
            for i, s in enumerate(grid):
                tenths = i if table_no == 1 else 10 - i
                want = np.random.default_rng([7, table_no, tenths, 8]).uniform(size=4)
                got = tables._cell_rng(7, table_no, s, 8).uniform(size=4)
                np.testing.assert_array_equal(got, want)


@pytest.fixture(scope="module")
def small_table2():
    cfg = tables.default_config("2", sizes=(4, 8), s_values=(-1.0, -0.5, 0.0))
    return tables.run_table2(cfg)


class TestExactConditionGrid:
    def test_columns_and_values(self, small_table2):
        assert small_table2.columns == (32, 128)
        for cell in small_table2.cells.values():
            assert cell.iters is None and cell.converged
            assert 1.0 - 1e-9 <= cell.cond <= 1.06

    def test_left_endpoint_is_identity(self, small_table2):
        for N in small_table2.columns:
            assert small_table2.cells[(-1.0, N)].cond == pytest.approx(1.0, abs=1e-9)

    def test_reference_column(self, small_table2):
        assert small_table2.reference[-1.0] == pytest.approx(1.0)
        # Finest-mesh inf-sup constant, raised to -(1+s).
        beta_sq = small_table2.reference[0.0] ** -1
        for s, ref in small_table2.reference.items():
            assert ref == pytest.approx(beta_sq ** -(1.0 + s), rel=1e-12)
        # Computed condition numbers approach the reference from below.
        for (s, N), cell in small_table2.cells.items():
            assert cell.cond <= small_table2.reference[s] * (1 + 1e-6)

    def test_reference_column_is_the_finest_size(self):
        runs = [tables.run_table2(tables.default_config("2", sizes=sizes, s_values=(-0.5, 0.0)))
                for sizes in ((8, 4), (4, 8))]
        assert runs[0].reference == runs[1].reference

    def test_cells_match_dense_eigenvalues(self):
        # Oracle: the closed forms on the full dense spectrum of the pencil.
        result = tables.run_table2(tables.default_config("2", sizes=(16,)))
        lm = assemble_all(build_hierarchy(16, 1))[-1]
        alpha = generalized_eig(laplacian_dual(lm), lm.mass_s).eigenvalues
        beta_sq = alpha[0] / (1.0 + alpha[0])
        for s in tables.NEGATIVE_S:
            cond = exact_condition_number(alpha, s)
            assert f"{result.cells[(s, 512)].cond:.6g}" == f"{cond:.6g}"
            assert f"{result.reference[s]:.6g}" == f"{beta_sq ** -(1.0 + s):.6g}"

    def test_render_includes_reference(self, small_table2):
        text = small_table2.to_markdown()
        assert text.splitlines()[0] == "| s | N=32 | N=128 | beta^-2(1+s) |"
        buf = io.StringIO()
        small_table2.to_csv(buf)
        ref_rows = [r for r in buf.getvalue().splitlines() if ",ref," in r]
        assert len(ref_rows) == 3
        assert all(r.endswith(",7,exact") for r in ref_rows)


class TestCli:
    def test_stdout_run(self, capsys):
        code = cli.main(["table2", "--sizes", "4", "--s-list=-1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "| s | N=32 | beta^-2(1+s) |"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "grid.csv"
        code = cli.main([
            "table2", "--sizes", "4", "--s-list=-1,0", "--format", "csv",
            "--out", str(target),
        ])
        assert code == 0
        assert f"wrote {target}" in capsys.readouterr().out
        content = target.read_text()
        assert content.splitlines()[0] == "table,s,N,iters,cond,seed,tol"

    def test_matches_library_call(self, capsys):
        code = cli.main(["table3", "--sizes", "4", "--levels", "2",
                         "--s-list=-0.5", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        cfg = tables.default_config("3", sizes=(4,), levels=2, s_values=(-0.5,))
        assert out == tables.run_table3(cfg).render("csv")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["table1", "--sizes", "9"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            cli.main(["table1", "--s-list", "abc"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["table1", "--levels", "0"],
        ["table3", "--seed=-3"],
        ["props", "--seed=-3"],
    ])
    def test_bad_levels_or_seed_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["props", "--s-list", "2"], "exponent 2.0 outside [0.0, 1.0]"),
        (["props", "--s-list=-0.5"], "exponent -0.5 outside [0.0, 1.0]"),
        (["table2", "--sizes", "4", "--s-list=-0.2,-0.2"], "exponent -0.2 given twice"),
        (["table3", "--sizes", "8,128"], "sizes 8 and 128 are the same grid (n=8)"),
        (["table1", "--sizes", "8,208"], "sizes 8 and 208 are the same grid (n=8)"),
        (["table2", "--sizes="], "no sizes given"),
        (["props", "--s-list="], "no exponents given"),
        (["table2", "--sizes", "0"], "sizes must be at least 1"),
        (["table2", "--sizes=-4"], "sizes must be at least 1"),
        (["table1", "--sizes", "0"], "sizes must be at least 1"),
        (["table3", "--sizes=8,-8"], "sizes must be at least 1"),
    ])
    def test_bad_exponents_or_repeated_sizes_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(message)

    @pytest.mark.parametrize("argv", [
        ["table2", "--levels", "3"], ["table2", "--tol", "1e-3"], ["table2", "--maxit", "5"],
        ["props", "--sizes", "64"], ["props", "--levels", "7"], ["props", "--maxit", "1"],
        ["props", "--max-dense", "5"],
        ["table1", "--bogus"], ["table2", "--bogus"], ["table3", "--bogus"],
        ["props", "--bogus"],
        ["table2", "--max-dense", "5"], ["table2", "--max-dense=-1"],
    ])
    def test_option_the_command_does_not_read_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: fracprec {argv[0]} ")
        assert lines[-1] == (f"fracprec {argv[0]}: error: unrecognized arguments: "
                             + " ".join(argv[1:]))

    @pytest.mark.parametrize("argv, message", [
        (["props", "--trials", "0"], "trials must be at least 1"),
        (["props", "--trials=-3"], "trials must be at least 1"),
    ])
    def test_no_trials_is_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(message)

    @pytest.mark.parametrize("argv, message", [
        (["table1", "--levels", "0"], "levels must be at least 1"),
        (["table2", "--sizes="], "no sizes given"),
        (["table3", "--s-list", "0.5"], "exponent 0.5 outside [-1.0, 0.0]"),
        (["props", "--tol", "0"], "tolerance must be strictly between 0 and 1"),
        (["props", "--tol", "nan"], "tolerance must be strictly between 0 and 1"),
        (["table1", "--sizes", "8", "--s-list", "0.5", "--tol", "nan"],
         "tolerance must be strictly between 0 and 1"),
        (["table3", "--sizes", "8", "--s-list=-0.5", "--tol", "inf"],
         "tolerance must be strictly between 0 and 1"),
        (["table3", "--tol", "1"], "tolerance must be strictly between 0 and 1"),
    ])
    def test_settings_error_prints_the_command_usage(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: fracprec {argv[0]} ")
        assert lines[-1].startswith(f"fracprec {argv[0]}: error: ")
        assert lines[-1].endswith(message)

    def test_out_into_missing_directory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tables, "run_table2", None)  # refused before any work
        target = tmp_path / "missing" / "x.md"
        with pytest.raises(SystemExit) as err:
            cli.main(["table2", "--sizes", "4", "--s-list=-0.5", "--out", str(target)])
        assert err.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(
            f"error: cannot write {target}: No such file or directory")
        assert not target.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_onto_a_full_device_is_usage_error(self, capsys):
        # Opening for appending succeeds; only the final write finds no space.
        with pytest.raises(SystemExit) as err:
            cli.main(["table2", "--sizes", "4", "--s-list=-0.5", "--out", "/dev/full"])
        assert err.value.code == 2
        assert capsys.readouterr().err.rstrip().endswith(
            "error: cannot write /dev/full: No space left on device")

    def test_table2_csv_is_labelled_exact(self, capsys):
        code = cli.main(["table2", "--sizes", "4", "--s-list=-0.5", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        cfg = tables.default_config("2", sizes=(4,), s_values=(-0.5,))
        assert out == tables.run_table2(cfg).render("csv")
        assert out.splitlines()[1].endswith(",exact")

    def test_unconverged_run_exits_1(self, capsys):
        code = cli.main(["table1", "--sizes", "4", "--levels", "2",
                         "--s-list", "0.5", "--maxit", "1"])
        assert code == 1
        assert "*" in capsys.readouterr().out

    def test_indefinite_cell_renders_error_and_exits_1(self, monkeypatch, capsys):
        def indefinite(*args, **kwargs):
            raise IndefinitenessError("operator form nonpositive: -1.000e+00")

        monkeypatch.setattr(tables, "pcg", indefinite)
        code = cli.main(["table1", "--sizes", "4", "--levels", "2", "--s-list", "0.5"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[2] == "| 0.5 | error* |"
        assert lines[-1] == ("`*` did not converge within the iteration cap; "
                             "operator form nonpositive: -1.000e+00")

    @pytest.mark.parametrize("argv", [
        ["table1", "--sizes", "4", "--levels", "2", "--s-list", "0.5"],
        ["table2", "--sizes", "4", "--s-list=-0.5"],
        ["table3", "--sizes", "4", "--levels", "2", "--s-list=-0.5"],
        ["props", "--trials", "2", "--s-list", "0.5"],
    ], ids=["table1", "table2", "table3", "props"])
    def test_csv_lines_end_in_newline_only(self, argv, capsys):
        code = cli.main(argv + ["--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.endswith("\n") and "\r" not in out

    def test_props_subcommand(self, capsys):
        code = cli.main(["props", "--trials", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "8/8 checks passed" in out

    @staticmethod
    def stdout_per_thread_count(argv):
        """The command's stdout under OPENBLAS_NUM_THREADS 1 and 2, one
        process per count: OpenBLAS reads the variable when it loads."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return [
            subprocess.run(
                [sys.executable, "-m", "fracprec.cli", *argv],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]

    def test_props_bytes_do_not_depend_on_the_blas_thread_count(self):
        outs = self.stdout_per_thread_count(["props", "--trials", "5", "--s-list", "0,0.5,1"])
        assert "8/8 checks passed" in outs[0]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        ["table1", "--sizes", "8", "--s-list", "0,0.5,1"],
        ["table3", "--sizes", "8", "--s-list=-1,-0.5,0"],
    ], ids=["table1", "table3"])
    def test_table_bytes_do_not_depend_on_the_blas_thread_count(self, argv):
        outs = self.stdout_per_thread_count(argv + ["--format", "csv"])
        assert len(outs[0].splitlines()) == 1 + 3  # header and three cells
        assert outs[0] == outs[1]


# ``fracprec table2`` output frozen when table 2 still took its two
# eigenvalues by Lanczos on sparse factorizations.  At n = 1 and 2 every
# wavenumber is its own conjugate, so these sizes pin the odd restriction
# of ``spectral.scalar_spectrum``; n = 3 and 5 are odd.
TABLE2_FROZEN = {
    ("1,2,3,5", "markdown"): """\
| s | N=2 | N=8 | N=18 | N=50 | beta^-2(1+s) |
|---|---|---|---|---|---|
| -1.0 | 1.000 | 1.000 | 1.000 | 1.000 | 1.000 |
| -0.9 | 1.001 | 1.003 | 1.005 | 1.005 | 1.005 |
| -0.8 | 1.003 | 1.007 | 1.009 | 1.010 | 1.010 |
| -0.7 | 1.004 | 1.010 | 1.014 | 1.014 | 1.015 |
| -0.6 | 1.005 | 1.014 | 1.018 | 1.019 | 1.020 |
| -0.5 | 1.007 | 1.017 | 1.023 | 1.024 | 1.025 |
| -0.4 | 1.008 | 1.021 | 1.028 | 1.029 | 1.030 |
| -0.3 | 1.009 | 1.024 | 1.032 | 1.034 | 1.035 |
| -0.2 | 1.011 | 1.027 | 1.037 | 1.039 | 1.040 |
| -0.1 | 1.012 | 1.031 | 1.042 | 1.044 | 1.045 |
| 0.0 | 1.014 | 1.034 | 1.046 | 1.049 | 1.050 |
""",
    ("1,2,3,5", "csv"): """\
table,s,N,iters,cond,seed,tol
2,-1.0,2,,1,7,exact
2,-1.0,8,,1,7,exact
2,-1.0,18,,1,7,exact
2,-1.0,50,,1,7,exact
2,-1.0,ref,,1,7,exact
2,-0.9,2,,1.00134,7,exact
2,-0.9,8,,1.0034,7,exact
2,-0.9,18,,1.00454,7,exact
2,-0.9,50,,1.00479,7,exact
2,-0.9,ref,,1.00491,7,exact
2,-0.8,2,,1.00269,7,exact
2,-0.8,8,,1.0068,7,exact
2,-0.8,18,,1.00909,7,exact
2,-0.8,50,,1.00961,7,exact
2,-0.8,ref,,1.00983,7,exact
2,-0.7,2,,1.00404,7,exact
2,-0.7,8,,1.01022,7,exact
2,-0.7,18,,1.01367,7,exact
2,-0.7,50,,1.01445,7,exact
2,-0.7,ref,,1.01479,7,exact
2,-0.6,2,,1.00538,7,exact
2,-0.6,8,,1.01365,7,exact
2,-0.6,18,,1.01826,7,exact
2,-0.6,50,,1.01931,7,exact
2,-0.6,ref,,1.01977,7,exact
2,-0.5,2,,1.00673,7,exact
2,-0.5,8,,1.0171,7,exact
2,-0.5,18,,1.02288,7,exact
2,-0.5,50,,1.0242,7,exact
2,-0.5,ref,,1.02477,7,exact
2,-0.4,2,,1.00809,7,exact
2,-0.4,8,,1.02055,7,exact
2,-0.4,18,,1.02752,7,exact
2,-0.4,50,,1.02911,7,exact
2,-0.4,ref,,1.0298,7,exact
2,-0.3,2,,1.00944,7,exact
2,-0.3,8,,1.02401,7,exact
2,-0.3,18,,1.03218,7,exact
2,-0.3,50,,1.03404,7,exact
2,-0.3,ref,,1.03485,7,exact
2,-0.2,2,,1.0108,7,exact
2,-0.2,8,,1.02749,7,exact
2,-0.2,18,,1.03686,7,exact
2,-0.2,50,,1.039,7,exact
2,-0.2,ref,,1.03992,7,exact
2,-0.1,2,,1.01215,7,exact
2,-0.1,8,,1.03098,7,exact
2,-0.1,18,,1.04157,7,exact
2,-0.1,50,,1.04398,7,exact
2,-0.1,ref,,1.04503,7,exact
2,0.0,2,,1.01351,7,exact
2,0.0,8,,1.03448,7,exact
2,0.0,18,,1.04629,7,exact
2,0.0,50,,1.04899,7,exact
2,0.0,ref,,1.05015,7,exact
""",
    ("4,8", "markdown"): """\
| s | N=32 | N=128 | beta^-2(1+s) |
|---|---|---|---|
| -1.0 | 1.000 | 1.000 | 1.000 |
| -0.9 | 1.005 | 1.005 | 1.005 |
| -0.8 | 1.009 | 1.010 | 1.010 |
| -0.7 | 1.014 | 1.015 | 1.015 |
| -0.6 | 1.019 | 1.020 | 1.020 |
| -0.5 | 1.024 | 1.025 | 1.025 |
| -0.4 | 1.029 | 1.030 | 1.030 |
| -0.3 | 1.033 | 1.035 | 1.035 |
| -0.2 | 1.038 | 1.040 | 1.040 |
| -0.1 | 1.043 | 1.045 | 1.045 |
| 0.0 | 1.048 | 1.050 | 1.050 |
""",
    ("4,8", "csv"): """\
table,s,N,iters,cond,seed,tol
2,-1.0,32,,1,7,exact
2,-1.0,128,,1,7,exact
2,-1.0,ref,,1,7,exact
2,-0.9,32,,1.00471,7,exact
2,-0.9,128,,1.00489,7,exact
2,-0.9,ref,,1.00493,7,exact
2,-0.8,32,,1.00944,7,exact
2,-0.8,128,,1.0098,7,exact
2,-0.8,ref,,1.00989,7,exact
2,-0.7,32,,1.01419,7,exact
2,-0.7,128,,1.01474,7,exact
2,-0.7,ref,,1.01488,7,exact
2,-0.6,32,,1.01897,7,exact
2,-0.6,128,,1.01971,7,exact
2,-0.6,ref,,1.01988,7,exact
2,-0.5,32,,1.02376,7,exact
2,-0.5,128,,1.02469,7,exact
2,-0.5,ref,,1.02491,7,exact
2,-0.4,32,,1.02858,7,exact
2,-0.4,128,,1.0297,7,exact
2,-0.4,ref,,1.02997,7,exact
2,-0.3,32,,1.03342,7,exact
2,-0.3,128,,1.03474,7,exact
2,-0.3,ref,,1.03505,7,exact
2,-0.2,32,,1.03829,7,exact
2,-0.2,128,,1.0398,7,exact
2,-0.2,ref,,1.04016,7,exact
2,-0.1,32,,1.04318,7,exact
2,-0.1,128,,1.04488,7,exact
2,-0.1,ref,,1.04529,7,exact
2,0.0,32,,1.04809,7,exact
2,0.0,128,,1.04999,7,exact
2,0.0,ref,,1.05045,7,exact
""",
}


@pytest.mark.parametrize("sizes, fmt", list(TABLE2_FROZEN))
def test_table2_output_is_frozen(sizes, fmt, capsys):
    assert cli.main(["table2", "--sizes", sizes, "--format", fmt]) == 0
    assert capsys.readouterr().out == TABLE2_FROZEN[sizes, fmt]


# Tables 1 and 3 on sizes whose sine orbits have 2 and 4 members as well as
# 8: n = 5 is odd and n = 6 not a power of two.  Frozen when the fine scalar
# pencil was still split on the doubled torus by FFT.
SMALL_GRIDS_FROZEN = {
    "table1 --levels 1 --sizes 5 --s-list 0,1": """\
| s | N=85 |
|---|---|
| 0.0 | 1(1.0) |
| 1.0 | 1(1.0) |
""",
    "table3 --levels 1 --sizes 5 --s-list=-1,0 --format csv": """\
table,s,N,iters,cond,seed,tol
3,-1.0,50,1,1,7,1e-10
3,0.0,50,5,1.04861,7,1e-10
""",
    "table1 --levels 2 --sizes 6 --s-list 0.5": """\
| s | N=120 |
|---|---|
| 0.5 | 21(5.1) |
""",
}


@pytest.mark.parametrize("argv", list(SMALL_GRIDS_FROZEN))
def test_odd_and_non_power_of_two_sizes_are_frozen(argv, capsys):
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == SMALL_GRIDS_FROZEN[argv]


def dense_estimate(cfg):
    """The byte count ``validate`` hands to the memory guard."""
    needs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "require_memory", lambda need, what: needs.append(need))
        tables.validate(cfg)
    return needs[0]


class TestMemoryGuard:
    """Budgets are injected through ``spectral.available_memory``; nothing
    large is allocated."""

    def test_run_too_large_for_memory_is_usage_error(self, monkeypatch, capsys):
        def no_setup(*args):
            raise AssertionError("set up before the memory check")

        monkeypatch.setattr(spectral, "available_memory", lambda: 1000)
        # The hierarchy is the first thing a size's set-up builds.
        monkeypatch.setattr(tables, "build_hierarchy", no_setup)
        with pytest.raises(SystemExit) as err:
            cli.main(["table1", "--sizes", "8"])
        assert err.value.code == 2
        # 8 * (6*5^2 + 200*208) at n = 8, n0 = 1
        assert capsys.readouterr().err.rstrip().endswith(
            "error: the set-up at n=8 needs 334000 bytes, "
            "more than the 1000 bytes available")

    def test_table2_too_large_for_memory_is_usage_error(self, monkeypatch, capsys):
        def no_spectrum(n):
            raise AssertionError("computed before the memory check")

        monkeypatch.setattr(spectral, "available_memory", lambda: 1000)
        monkeypatch.setattr(tables, "scalar_spectrum", no_spectrum)
        with pytest.raises(SystemExit) as err:
            cli.main(["table2", "--sizes", "8,2000000"])
        assert err.value.code == 2
        # 8 * (8*1000^2 + 2048*501 + 8192) at n = 1000
        assert capsys.readouterr().err.rstrip().endswith(
            "error: the spectrum at n=1000 needs 72273920 bytes, "
            "more than the 1000 bytes available")

    def test_largest_size_sets_the_estimate(self, monkeypatch):
        cfg = tables.default_config("3", sizes=(8, 32, 16))
        need = dense_estimate(cfg)
        assert need == dense_estimate(replace(cfg, sizes=(32,)))
        assert need > dense_estimate(replace(cfg, sizes=(16,)))
        monkeypatch.setattr(spectral, "available_memory", lambda: need)
        tables.validate(cfg)
        monkeypatch.setattr(spectral, "available_memory", lambda: need - 1)
        with pytest.raises(spectral.PencilError, match=f"n=32 needs {need} bytes"):
            tables.validate(cfg)

    @pytest.mark.parametrize("table", ["1", "3"])
    @pytest.mark.parametrize("levels", [1, 4])
    def test_setup_assembles_only_the_coarsest_and_finest_levels(self, table, levels,
                                                                 monkeypatch):
        # Counted where ``multigrid`` binds ``fem.assemble``; no middle level
        # is assembled, and at one level the coarsest is the finest.
        multigrid._patch_classes()  # the class table assembles its own level once per process
        calls, inner = [], multigrid.assemble

        def counted(level, index=0):
            calls.append(index)
            return inner(level, index)

        monkeypatch.setattr(multigrid, "assemble", counted)
        cfg = tables.validate(tables.default_config(table, sizes=(16,), levels=levels))
        setup = tables._HierarchySetup(16, cfg)
        assert sorted(calls) == sorted({0, levels - 1})
        finest = setup.multilevel.finest
        assert (finest.index, finest.mesh.n) == (levels - 1, 16)

    @pytest.mark.parametrize("table", ["1", "3"])
    def test_fine_scalar_modes_are_a_sine_basis(self, table):
        # At n = 16: 7 x 7 orbits of 8 sine products, 2 x 7 + 7 x 2 of 4
        # and 2 x 2 of 2, one coefficient per triangle.
        setup = tables._HierarchySetup(16, tables.default_config(table, sizes=(16,)))
        modes = setup.scalar.modes
        assert isinstance(modes, FourierModes) and modes.shape == (512, 512)
        assert (modes.sx.shape, modes.sy.shape) == ((16, 16), (32, 32))
        orbit = np.ravel_multi_index(mode_orbit(modes), (16, 16))
        size, count = np.unique(np.bincount(orbit)[orbit], return_counts=True)
        assert dict(zip(size.tolist(), count.tolist())) == {8: 392, 4: 112, 2: 8}

    def test_fourier_pair_allocates_no_dense_pencil(self):
        # At n = 128 one NS x NS array alone would be 32768 doubles per
        # triangle; the set-up stays below 64 (it measures 39).
        lm = assemble(build_level(128))
        spectral._macro_cell.cache_clear()  # bound a fresh process's first call
        tracemalloc.start()
        try:
            fourier_pair(lm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 64 * lm.mesh.num_triangles

    @pytest.mark.parametrize("table", ["1", "3"])
    def test_estimate_bounds_what_the_setup_allocates(self, table):
        # An upper bound at n = 8, 12 (3 levels), 16, 24 and 32, and a tight
        # one at n = 32.
        for n in (8, 12, 16, 24, 32):
            cfg = tables.default_config(table, sizes=(n,), levels=3 if n == 12 else 4)
            need = dense_estimate(cfg)
            multigrid._patch_classes.cache_clear()  # bound a fresh process's first call
            tracemalloc.start()
            try:
                tables._HierarchySetup(n, tables.validate(cfg))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= need
        assert need / 2 <= peak

    def test_one_set_up_alive_at_a_time(self):
        # The estimate counts the largest size alone, so a smaller size run
        # first must leave nothing behind that the largest one adds to.
        peaks = []
        for sizes in ((16, 32), (32,)):
            cfg = tables.default_config("1", sizes=sizes, s_values=(0.5,))
            multigrid._patch_classes.cache_clear()  # bound a fresh process's first call
            tracemalloc.start()
            try:
                tables.run_table1(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.05 * peaks[1]

    def test_table2_estimate_bounds_what_the_spectrum_allocates(self):
        # An upper bound at n = 8, 12, 16, 24, 32 and 64, and a tight one at 64.
        for n in (8, 12, 16, 24, 32, 64):
            cfg = tables.validate(tables.default_config("2", sizes=(n,)))
            need = dense_estimate(cfg)
            spectral._macro_cell.cache_clear()  # bound a fresh process's first call
            tracemalloc.start()
            try:
                tables.run_table2(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= need
        assert need / 2 <= peak
