import csv
import io
from functools import partial

import numpy as np
import pytest

import oracles
from fracprec import spectral, verify
from fracprec.fem import assemble, assemble_all, assemble_prolongation, laplacian_dual
from fracprec.mesh import build_hierarchy, build_level
from fracprec.multigrid import multilevel_setup
from fracprec.spectral import generalized_eig

EXPECTED_ORDER = [
    "operator-jensen",
    "loewner-heinz",
    "coarse-power-noninheritance",
    "power-projection-commutes",
    "gradient-sandwich-bounds",
    "helmholtz-invariance",
    "smoother-upper-bound",
    "stable-decomposition",
]


@pytest.fixture(scope="module")
def reports():
    # Reduced trial count keeps this fast; the acceptance run uses the full
    # defaults.
    return verify.run_all(trials=60)


@pytest.fixture(scope="module")
def by_name(reports):
    return {r.name: r for r in reports}


class TestReportObject:
    def test_pass_fail_threshold(self):
        ok = verify.InequalityReport("demo", (0.5,), -5e-10, 1e-9)
        bad = verify.InequalityReport("demo", (0.5,), -2e-9, 1e-9)
        assert ok.passed and not bad.passed
        assert str(ok).startswith("pass")
        assert str(bad).startswith("FAIL")

    def test_constants_rendered(self):
        r = verify.InequalityReport("demo", (0.0,), 0.0, 1e-9, {"K0": 2.5})
        assert "K0=2.5" in str(r)


class TestSuite:
    def test_all_checks_pass(self, reports):
        assert [r.name for r in reports] == EXPECTED_ORDER
        for r in reports:
            assert r.passed, str(r)

    def test_grids_recorded(self, reports):
        for r in reports:
            assert r.grid == verify.DEFAULT_GRID

    def test_projection_defects(self, by_name):
        consts = by_name["coarse-power-noninheritance"].constants
        # The fractional coarse projection composed with the embedding is the
        # identity only at the endpoint exponents.
        assert consts["projection_defect_s=0"] <= 1e-9
        assert consts["projection_defect_s=1"] <= 1e-9
        assert consts["projection_defect_s=0.5"] > 0.1

    def test_smoother_constants(self, by_name):
        consts = by_name["smoother-upper-bound"].constants
        assert consts["K0"] == pytest.approx(2.5, abs=0.01)
        assert consts["c"] == pytest.approx(2.0 / 3.0, abs=0.01)
        assert consts["K0"] <= consts["C1"] <= consts["K1"] + 1e-9
        # The interpolation bound is attained at the endpoint exponents.
        assert abs(by_name["smoother-upper-bound"].worst) <= 1e-8

    def test_gradient_sandwich_reports_inf_sup(self, by_name):
        assert by_name["gradient-sandwich-bounds"].constants["beta^-2"] == pytest.approx(
            1.0506, abs=1e-3
        )

    def test_decomposition_floor(self, by_name):
        consts = by_name["stable-decomposition"].constants
        assert consts["lambda_min"] == pytest.approx(1.0 / 3.0, abs=0.01)
        assert consts["C2"] >= 1.0


class TestIndividualChecks:
    def test_jensen_endpoint_exponents_are_exact(self):
        r = verify.check_jensen(trials=20, s_grid=(0.0, 1.0))
        assert r.worst >= -1e-12

    def test_loewner_heinz_small_grid(self):
        r = verify.check_loewner_heinz(trials=20, s_grid=(0.3, 0.8))
        assert r.passed

    def test_random_checks_deterministic(self):
        a = verify.check_jensen(trials=10, seed=99)
        b = verify.check_jensen(trials=10, seed=99)
        assert a.worst == b.worst

    def test_stable_decomposition_takes_the_exact_complement(self, ops, monkeypatch):
        # ker P_s = ker(P' Ff) has NV_k - NV_(k-1) columns at every exponent:
        # the one eigensolve per level and exponent has that order.
        calls = counting(monkeypatch, verify.sla, "eigh")
        grid = (0.0, 0.5, 1.0)
        verify.check_stable_decomposition(ops, grid)
        assert [a.shape for a, _ in calls] == [(m, m) for m in (11, 40, 152)] * len(grid)

    def test_aux_bounds_custom_grid(self, ops):
        r = verify.check_aux_bounds(ops, t_grid=(0.0, 0.5, 1.0))
        assert r.passed and r.grid == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_flux_modes_give_the_scalar_operator(self, n):
        # What check_aux_bounds reads: with M-orthonormal flux modes V,
        # V V' = inv(M), so (V' grad)' (V' grad) = grad' inv(M) grad.
        lm = assemble(build_level(n))
        E = generalized_eig(lm.hdiv, lm.mass_v).modes.T @ lm.grad
        A = laplacian_dual(lm).toarray()
        np.testing.assert_allclose(E.T @ E, A, rtol=0, atol=1e-14 * np.abs(A).max())


@pytest.fixture(scope="module")
def ops():
    return verify.MeshOperators()


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call."""
    calls, inner = [], getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestOnceOnlyWork:
    """Each check decomposes each matrix, and builds each form, once for its
    whole exponent grid."""

    GRID = (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("check", [verify.check_jensen, verify.check_loewner_heinz])
    def test_matrix_checks_make_one_eigh_per_matrix(self, check, monkeypatch):
        # Per trial: one decomposition of each of two matrices for the whole
        # grid, plus one eigenvalue-only call on the stack of the differences,
        # one per exponent.
        scipy_calls = counting(monkeypatch, verify.sla, "eigh")
        decompositions = counting(monkeypatch, verify.np.linalg, "eigh")
        stacks = counting(monkeypatch, verify.np.linalg, "eigvalsh")
        check(trials=3, s_grid=self.GRID)
        assert scipy_calls == []
        assert len(decompositions) == 3 * 2
        assert [args[0].shape[0] for args in stacks] == [len(self.GRID)] * 3

    def test_smoother_bound_solves_each_pencil_once(self, ops, monkeypatch):
        calls = counting(monkeypatch, verify.sla, "eigh")
        verify.check_smoother_bound(ops, self.GRID)
        assert len(calls) == (ops.num_levels - 1) * len(self.GRID)

    def test_noninheritance_builds_each_dual_form_once(self, ops, monkeypatch):
        calls = counting(monkeypatch, verify.MeshOperators, "dual_form")
        verify.check_noninheritance(ops, self.GRID)
        assert len(calls) == ops.num_levels * len(self.GRID)
        assert len({(k, s) for _, k, s in calls}) == len(calls)


class TestOtherGrids:
    """A grid without the endpoint exponents still reports the endpoint
    constants, equal to those of the default grid."""

    def test_smoother_constants_without_the_endpoints(self, ops, by_name):
        r = verify.check_smoother_bound(ops, (0.3, 0.7))
        default = by_name["smoother-upper-bound"].constants
        assert r.passed
        for name in ("K0", "K1", "c"):
            assert r.constants[name] == default[name], name

    def test_projection_defects_only_at_reported_exponents(self, ops, by_name):
        r = verify.check_noninheritance(ops, (0.0, 0.3, 1.0))
        default = by_name["coarse-power-noninheritance"].constants
        assert r.passed
        assert r.constants == {key: default[key] for key in
                               ("projection_defect_s=0", "projection_defect_s=1")}


@pytest.mark.parametrize("grid", [verify.DEFAULT_GRID, (0.3, 0.7)], ids=["default", "0.3,0.7"])
@pytest.mark.parametrize("name", ["check_smoother_bound", "check_stable_decomposition"])
def test_eigenbasis_checks_match_the_dense_pencils(ops, name, grid):
    fast = getattr(verify, name)(ops, grid)
    dense = getattr(oracles, name)(ops, grid)
    assert fast.worst == pytest.approx(dense.worst, rel=1e-10)
    assert fast.constants.keys() == dense.constants.keys()
    for key, value in dense.constants.items():
        assert fast.constants[key] == pytest.approx(value, rel=1e-10), key


@pytest.mark.parametrize("grid", [verify.DEFAULT_GRID, (0.3, 0.7)], ids=["default", "0.3,0.7"])
@pytest.mark.parametrize("name, seed, draw, margins, atol", [
    # T' A T can be nearly singular: on two of these Jensen trials its
    # smallest eigenvalue is 1e-7 of its norm.  There syevr (the loop) and
    # syevd (the stack) round that eigenvalue differently, x^s for small s
    # magnifies the difference, and the routes part by up to 2.5e-11 (at
    # s = 0.2).  Against 40-digit margins of the same matrices, on those two
    # trials and s = 0.1 to 0.4, the loop is off by up to 2.6e-11 and the
    # stack by up to 5.2e-12.
    ("check_jensen", 7, verify._jensen_trials, verify._jensen_margins, 1e-10),
    ("check_loewner_heinz", 8, verify._loewner_heinz_trials, verify._loewner_heinz_margins,
     1e-12),
], ids=["jensen", "loewner-heinz"])
def test_stacked_matrix_checks_match_the_exponent_loop(name, seed, draw, margins, atol, grid):
    # The seeds are those of run_all, so these are the trials props prints.
    pairs, loop = getattr(oracles, name)(200, grid, seed)
    drawn = list(draw(200, seed))
    assert len(drawn) == len(pairs)
    for got, want in zip(drawn, pairs):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    with spectral._one_blas_thread():
        stacked = np.array([margins(*pair, np.asarray(grid)) for pair in drawn])
    np.testing.assert_allclose(stacked, loop, rtol=0, atol=atol)
    assert getattr(verify, name)(200, grid, seed).worst == stacked.min()


class TestViolationsAreCaught:
    """Past s = 1 both inequalities can fail, and the stacked margins go
    negative on the failing exponent only.  The public checks refuse s > 1,
    so the margins are taken directly."""

    S = np.array([1.0, 2.0])

    def test_loewner_heinz_at_two(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        B = np.array([[2.0, 1.0], [1.0, 1.0]])  # B - A = diag(1, 0)
        margins = verify._loewner_heinz_margins(A, B, self.S)
        # B^2 - A^2 = [[3, 1], [1, 0]], and ||B|| = (3 + sqrt 5) / 2.
        assert abs(margins[0]) < 1e-14
        expected = (3.0 - np.sqrt(13.0)) / 2.0 / ((3.0 + np.sqrt(5.0)) / 2.0) ** 2
        assert margins[1] == pytest.approx(expected, rel=1e-12)

    def test_jensen_at_two(self):
        T = np.array([[1.0], [0.0]])  # the contraction onto the first coordinate
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        margins = verify._jensen_margins(T, A, self.S)
        # (T' A T)^2 - T' A^2 T = 1 - 2, and ||A|| = 2.
        assert abs(margins[0]) < 1e-14
        assert margins[1] == pytest.approx(-0.25, rel=1e-12)


class TestRunAllInput:
    """Invalid input is refused before any check runs or any operator is
    built, by ``run_all`` and by each check called on its own."""

    MESH_CHECKS = ("check_noninheritance", "check_projection_identity", "check_aux_bounds",
                   "check_helmholtz_invariance", "check_smoother_bound",
                   "check_stable_decomposition")

    @pytest.mark.parametrize("kwargs, message", [
        ({"trials": 0}, "trials"),
        ({"trials": -3}, "trials"),
        ({"s_grid": ()}, "no exponents"),
        ({"s_grid": (1.5,)}, r"outside \[0, 1\]"),
        ({"s_grid": (0.5, -0.1)}, r"outside \[0, 1\]"),
        ({"s_grid": (float("nan"),)}, r"outside \[0, 1\]"),
        ({"tol": 0.0}, "tolerance"),
        ({"tol": 1.0}, "tolerance"),
        ({"tol": float("nan")}, "tolerance"),
    ])
    def test_refused_before_any_work(self, kwargs, message, monkeypatch):
        # The mesh checks take no trials, and get no operators: any work
        # before the refusal would fail on them.
        grid, tol = kwargs.get("s_grid", verify.DEFAULT_GRID), kwargs.get("tol", 1e-9)
        calls = [partial(getattr(verify, name), **kwargs)
                 for name in ("check_jensen", "check_loewner_heinz")]
        if "trials" not in kwargs:
            calls += [partial(getattr(verify, name), None, grid, tol) for name in self.MESH_CHECKS]
        started = []
        for name in ("MeshOperators", "check_jensen"):
            monkeypatch.setattr(verify, name, lambda *a, **k: started.append(a))
        with pytest.raises(ValueError, match=message):
            verify.run_all(**kwargs)
        assert started == []
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


class TestSharedFixture:
    """``run_all`` builds one ``MeshOperators`` for all six mesh checks; its
    levels are the operators the checks would build for themselves."""

    MATRICES = ("mass_s", "mass_v", "hdiv", "grad")

    def test_run_all_builds_the_mesh_operators_once(self, monkeypatch):
        built, assembled = [], []
        init, assemble = verify.MeshOperators.__init__, verify.assemble_all

        def counting_init(self):
            built.append(self)
            init(self)

        def counting_assemble(levels):
            lms = assemble(levels)
            assembled.append([lm.mesh.n for lm in lms])
            return lms

        monkeypatch.setattr(verify.MeshOperators, "__init__", counting_init)
        monkeypatch.setattr(verify, "assemble_all", counting_assemble)
        verify.run_all(trials=1, s_grid=(0.5,))
        assert len(built) == 1
        assert assembled == [[1, 2, 4, 8]]

    def test_eigenbasis_is_built_on_first_use(self):
        # The constructor is the whole set-up of a run; the flux-eigenbasis
        # products belong to the two smoother checks that read them.
        ops = verify.MeshOperators()
        assert "eigenbasis" not in vars(ops)
        verify.check_smoother_bound(ops, (0.5,))
        assert sorted(vars(ops)["eigenbasis"]) == [1, 2, 3]

    @staticmethod
    def assert_pairs_equal(a, b):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.modes, b.modes)

    def test_levels_equal_the_operators_built_alone(self):
        ops = verify.MeshOperators()
        # Finest level: what the gradient-sandwich and Helmholtz checks read.
        # The references are built on the fixture's one BLAS thread, so the
        # comparison can stay bitwise.
        fine = assemble_all(build_hierarchy(8, 1))[-1]
        for name in self.MATRICES:
            assert np.array_equal(getattr(ops.lms[-1], name).toarray(),
                                  getattr(fine, name).toarray()), name
        with spectral._one_blas_thread():
            fine_pair = generalized_eig(fine.hdiv, fine.mass_v, space="V", level=0)
        self.assert_pairs_equal(ops.pairs[-1], fine_pair)
        # Three coarsest levels: what the projection identity reads.
        lms = assemble_all(build_hierarchy(1, 3))
        with spectral._one_blas_thread():
            setup = multilevel_setup(lms)
            pairs = [setup.coarse] + [
                generalized_eig(lm.hdiv, lm.mass_v, space="V", level=lm.index)
                for lm in lms[1:]
            ]
        for k in range(3):
            self.assert_pairs_equal(ops.pairs[k], pairs[k])
        for k in range(2):
            want = assemble_prolongation(lms[k].mesh, lms[k + 1].mesh).toarray()
            assert np.array_equal(ops.embeddings[k], want)


class TestOneBlasThread:
    """The set-up and every check run on one OpenBLAS thread, and hand each
    pool back with the thread count it had."""

    @staticmethod
    def counts(pools):
        return [get() for get, _ in pools]

    def probe_eigh(self, monkeypatch, pools):
        """Record ``(routine, thread counts)`` at each symmetric eigensolve
        that ``verify`` calls: scipy's ``eigh`` and numpy's ``eigh`` and
        ``eigvalsh``."""
        seen = []

        def probe(owner, name):
            inner, routine = getattr(owner, name), f"{owner.__name__}.{name}"

            def wrapper(*args, **kwargs):
                seen.append((routine, self.counts(pools)))
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        probe(verify.sla, "eigh")
        probe(verify.np.linalg, "eigh")
        probe(verify.np.linalg, "eigvalsh")
        return seen

    def test_checks_compute_on_one_thread_and_restore_the_count(self, pools, monkeypatch):
        assert pools  # the numpy and scipy wheels each bundle an OpenBLAS
        seen = self.probe_eigh(monkeypatch, pools)
        ops = verify.MeshOperators()
        set_up = len(seen)
        assert set_up > 0
        verify.check_jensen(trials=2, s_grid=(0.5,))
        assert {routine for routine, _ in seen[set_up:]} == {"numpy.linalg.eigh",
                                                             "numpy.linalg.eigvalsh"}
        jensen = len(seen)
        verify.check_helmholtz_invariance(ops, (0.5,))
        verify.check_stable_decomposition(ops, (0.5,))
        assert len(seen) > jensen
        assert all(counts == [1] * len(pools) for _, counts in seen)
        assert self.counts(pools) == [2] * len(pools)

    def test_a_refused_call_restores_the_count(self, pools):
        with pytest.raises(ValueError, match="trials"):
            verify.check_jensen(trials=0)
        with pytest.raises(ValueError, match="no exponents"):
            verify.check_smoother_bound(None, ())
        assert self.counts(pools) == [2] * len(pools)

    def test_without_openblas_the_checks_still_run(self, pools, monkeypatch):
        monkeypatch.setattr(spectral, "_openblas_pools", lambda: ())
        seen = self.probe_eigh(monkeypatch, pools)
        reports = verify.run_all(trials=1, s_grid=(0.5,))
        assert all(r.passed for r in reports)
        # Nothing found, nothing set: the pools keep their two threads.
        assert seen and all(counts == [2] * len(pools) for _, counts in seen)


class TestRendering:
    def test_text_summary(self, reports):
        text = verify.report_text(reports)
        lines = text.splitlines()
        assert len(lines) == len(reports) + 1
        assert lines[-1] == f"{len(reports)}/{len(reports)} checks passed"

    def test_csv_round_trip(self, reports):
        buf = io.StringIO()
        verify.report_csv(reports, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["name", "grid", "worst", "tol", "passed", "constants"]
        assert len(rows) == len(reports) + 1
        assert all(row[4] == "1" for row in rows[1:])
        assert [row[0] for row in rows[1:]] == EXPECTED_ORDER
