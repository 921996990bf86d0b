import numpy as np
import pytest
import scipy.linalg as sla

from fracprec.krylov import IndefinitenessError, lanczos_condition, pcg
from fracprec.vectors import TaggedVector

from oracles import pencil_condition


def random_spd(rng, n, spread=100.0):
    # Controlled spectrum so the exact condition number is known.
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, spread, n)
    return (Q * lam) @ Q.T, lam


def matrix_op(A, rep):
    return lambda v: TaggedVector(v.space, v.level, rep, A @ v.values)


def identity_precond(v):
    return TaggedVector(v.space, v.level, "coefficient", v.values)


def tagged_system(rng, A):
    n = A.shape[0]
    x_true = rng.uniform(-1, 1, n)
    rhs = TaggedVector("V", 0, "dual", A @ x_true)
    x0 = TaggedVector("V", 0, "coefficient", rng.uniform(-1, 1, n))
    return matrix_op(A, "dual"), rhs, x0, x_true


class TestPcg:
    def test_exact_precond_recovers_solution_in_one_step(self):
        rng = np.random.default_rng(10)
        A, _ = random_spd(rng, 40)
        op, rhs, x0, x_true = tagged_system(rng, A)
        Ainv = np.linalg.inv(A)
        x, report = pcg(op, matrix_op(Ainv, "coefficient"), rhs, x0, tol=1e-12)
        assert report.converged and report.iterations <= 2
        assert report.cond_estimate == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(x.values, x_true, atol=1e-9)

    def test_unpreconditioned_cond_estimate_matches_spectrum(self):
        rng = np.random.default_rng(11)
        A, lam = random_spd(rng, 60, spread=50.0)
        op, rhs, x0, x_true = tagged_system(rng, A)
        x, report = pcg(op, identity_precond, rhs, x0, tol=1e-10, maxit=500)
        assert report.converged
        np.testing.assert_allclose(x.values, x_true, atol=1e-7)
        true_cond = lam[-1] / lam[0]
        assert report.cond_estimate == pytest.approx(true_cond, rel=0.05)
        # Ritz values are interior to the spectrum, so the estimate is a
        # lower bound up to roundoff.
        assert report.cond_estimate <= true_cond * (1 + 1e-8)

    def test_cond_estimate_matches_exact_pencil_condition(self):
        rng = np.random.default_rng(12)
        A, _ = random_spd(rng, 80, spread=200.0)
        C = rng.standard_normal((80, 80))
        B = C @ C.T + 80 * np.eye(80)
        op, rhs, x0, _ = tagged_system(rng, A)
        _, report = pcg(op, matrix_op(B, "coefficient"), rhs, x0, tol=1e-12, maxit=500)
        # The preconditioned spectrum is that of B A, i.e. of the pencil
        # (B A B, B); both entries are symmetric.
        exact = pencil_condition(B @ A @ B, B, 80)
        assert report.cond_estimate == pytest.approx(exact, rel=0.05)

    def test_residual_history_invariants(self):
        rng = np.random.default_rng(13)
        A, _ = random_spd(rng, 30)
        op, rhs, x0, _ = tagged_system(rng, A)
        _, report = pcg(op, identity_precond, rhs, x0, tol=1e-8, maxit=500)
        hist = report.residual_history
        assert hist[0] == 1.0
        assert len(hist) == report.iterations + 1
        assert hist[-1] <= 1e-8
        # Stopped at the first crossing: everything before it is above tol.
        assert np.all(hist[:-1] > 1e-8)

    def test_error_monotone_in_operator_norm(self):
        # CG minimizes the operator-norm error over growing Krylov spaces, so
        # raising the iteration cap must never increase it.
        rng = np.random.default_rng(14)
        A, _ = random_spd(rng, 25)
        x_true = rng.uniform(-1, 1, 25)
        rhs = TaggedVector("V", 0, "dual", A @ x_true)
        op = matrix_op(A, "dual")
        errs = []
        for k in range(1, 26):
            x0 = TaggedVector("V", 0, "coefficient", np.zeros(25))
            x, _ = pcg(op, identity_precond, rhs, x0, tol=1e-16, maxit=k)
            e = x.values - x_true
            errs.append(float(e @ A @ e))
        assert all(b <= a * (1 + 1e-10) for a, b in zip(errs, errs[1:]))

    def test_zero_initial_residual_returns_immediately(self):
        rng = np.random.default_rng(15)
        A, _ = random_spd(rng, 10)
        x_true = rng.uniform(-1, 1, 10)
        rhs = TaggedVector("V", 0, "dual", A @ x_true)
        x0 = TaggedVector("V", 0, "coefficient", x_true)
        x, report = pcg(matrix_op(A, "dual"), identity_precond, rhs, x0, tol=1e-10)
        assert report.iterations == 0 and report.converged
        np.testing.assert_allclose(x.values, x_true)

    def test_caller_vectors_are_not_written(self):
        # x, r and p are updated in place: on copies, never on x0 or rhs.
        rng = np.random.default_rng(17)
        A, _ = random_spd(rng, 20)
        op, rhs, x0, x_true = tagged_system(rng, A)
        x0_before, rhs_before = x0.values.copy(), rhs.values.copy()
        x, report = pcg(op, identity_precond, rhs, x0, tol=1e-10, maxit=100)
        assert report.converged and report.iterations > 1
        np.testing.assert_allclose(x.values, x_true, atol=1e-8)
        assert np.array_equal(x0.values, x0_before) and np.array_equal(rhs.values, rhs_before)
        assert not np.shares_memory(x.values, x0.values)
        # Also when the first residual is zero and no iteration runs.
        A = np.diag([1.0, 2.0, 4.0])
        guess = TaggedVector("V", 0, "coefficient", np.ones(3))
        rhs = TaggedVector("V", 0, "dual", A @ guess.values)
        x, report = pcg(matrix_op(A, "dual"), identity_precond, rhs, guess, tol=1e-10)
        assert report.iterations == 0 and np.array_equal(x.values, guess.values)
        assert not np.shares_memory(x.values, guess.values)

    def test_an_iteration_builds_only_the_maps_outputs(self, monkeypatch):
        # Per iteration, the operator's and the preconditioner's output are
        # the only tagged vectors built; tags are still checked by both maps
        # and by every pairing.
        rng = np.random.default_rng(18)
        A, _ = random_spd(rng, 30)
        op, rhs, x0, _ = tagged_system(rng, A)
        built, init = [], TaggedVector.__post_init__

        def counted(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(TaggedVector, "__post_init__", counted)
        counts = []
        for maxit in (3, 4):
            built.clear()
            _, report = pcg(op, identity_precond, rhs, x0, tol=1e-14, maxit=maxit)
            assert report.iterations == maxit
            counts.append(len(built))
        assert counts[1] - counts[0] == 2

    def test_rejects_same_rep_rhs_and_guess(self):
        rhs = TaggedVector("V", 0, "dual", np.ones(3))
        x0 = TaggedVector("V", 0, "dual", np.ones(3))
        with pytest.raises(ValueError):
            pcg(lambda v: v, lambda v: v, rhs, x0, tol=1e-9)

    def test_indefinite_operator_raises(self):
        A = np.diag([1.0, -1.0, 2.0])
        rhs = TaggedVector("V", 0, "dual", np.array([1.0, 1.0, 1.0]))
        x0 = TaggedVector("V", 0, "coefficient", np.zeros(3))
        with pytest.raises(IndefinitenessError):
            pcg(matrix_op(A, "dual"), identity_precond, rhs, x0, tol=1e-9)

    def test_indefinite_preconditioner_raises(self):
        rng = np.random.default_rng(16)
        A, _ = random_spd(rng, 5)
        op, rhs, x0, _ = tagged_system(rng, A)
        flipped = matrix_op(-np.eye(5), "coefficient")
        with pytest.raises(IndefinitenessError):
            pcg(op, flipped, rhs, x0, tol=1e-9)

    @pytest.mark.parametrize("flip, raises", [(1e-20, False), (1e-6, True)])
    def test_negative_preconditioner_form_after_the_start(self, flip, raises):
        # The identity on the first residual, then its negative scaled by
        # ``flip``: a negative form within 1e-14 of the first one is
        # roundoff, read as zero (converged); beyond that it raises.
        rng = np.random.default_rng(16)
        A, _ = random_spd(rng, 5)
        op, rhs, x0, _ = tagged_system(rng, A)
        calls = []

        def precond(r):
            calls.append(r)
            return identity_precond(r) * (1.0 if len(calls) == 1 else -flip)

        if raises:
            with pytest.raises(IndefinitenessError, match="preconditioner form negative:"):
                pcg(op, precond, rhs, x0, tol=1e-9)
        else:
            _, report = pcg(op, precond, rhs, x0, tol=1e-9)
            assert report.converged and report.iterations == 1
            assert report.residual_history[-1] == 0.0

    def test_maxit_reached_reports_unconverged(self):
        rng = np.random.default_rng(17)
        A, _ = random_spd(rng, 50, spread=1e6)
        op, rhs, x0, _ = tagged_system(rng, A)
        _, report = pcg(op, identity_precond, rhs, x0, tol=1e-14, maxit=5)
        assert not report.converged and report.iterations == 5


def lanczos_condition_loop(alphas, betas) -> float:
    """The tridiagonal built entry by entry."""
    k = len(alphas)
    if k <= 1:
        return 1.0
    diag = np.empty(k)
    diag[0] = 1.0 / alphas[0]
    for j in range(1, k):
        diag[j] = 1.0 / alphas[j] + betas[j - 1] / alphas[j - 1]
    off = np.array([np.sqrt(betas[j]) / alphas[j] for j in range(k - 1)])
    w = sla.eigh_tridiagonal(diag, off, eigvals_only=True)
    return float(w[-1] / w[0])


class TestLanczosCondition:
    @pytest.mark.parametrize("extra", [0, 1], ids=["converged", "capped"])
    def test_matches_the_entrywise_loop(self, extra):
        # betas has k - 1 entries when PCG converges and k at the iteration cap.
        rng = np.random.default_rng(extra)
        for k in range(2, 40):
            alphas = list(rng.uniform(0.01, 2.0, k))
            betas = list(rng.uniform(0.0, 1.0, k - 1 + extra))
            assert lanczos_condition(alphas, betas) == lanczos_condition_loop(alphas, betas)

    def test_no_steps_and_single_step(self):
        assert lanczos_condition([], []) == 1.0
        assert lanczos_condition([0.5], []) == 1.0

    def test_two_steps_match_dense_tridiagonal(self):
        alphas = [0.4, 0.7]
        betas = [0.3]
        diag = np.array([1 / 0.4, 1 / 0.7 + 0.3 / 0.4])
        off = np.array([np.sqrt(0.3) / 0.4])
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        w = np.linalg.eigvalsh(T)
        assert lanczos_condition(alphas, betas) == pytest.approx(w[-1] / w[0], rel=1e-12)

    def test_recovers_exact_spectrum_at_full_dimension(self):
        # On an n-dimensional problem run to n steps the tridiagonal matrix
        # carries the full spectrum of the (preconditioned) operator.
        rng = np.random.default_rng(18)
        A, lam = random_spd(rng, 12, spread=30.0)
        op, rhs, x0, _ = tagged_system(rng, A)
        _, report = pcg(op, identity_precond, rhs, x0, tol=1e-15, maxit=12)
        assert report.cond_estimate == pytest.approx(lam[-1] / lam[0], rel=1e-6)


class TestPencilCondition:
    def test_identical_maps(self):
        A = np.diag([1.0, 2.0, 3.0])
        assert pencil_condition(A, A, 3) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_vs_identity(self):
        assert pencil_condition(np.diag([1.0, 2.0]), np.eye(2), 2) == pytest.approx(2.0)

    def test_accepts_callables(self):
        A = np.diag([2.0, 5.0])
        cond = pencil_condition(lambda v: A @ v, np.eye(2), 2)
        assert cond == pytest.approx(2.5)

    def test_invariant_under_congruence(self):
        rng = np.random.default_rng(19)
        A, lam = random_spd(rng, 15, spread=40.0)
        C = rng.standard_normal((15, 15)) + 15 * np.eye(15)
        assert pencil_condition(C.T @ A @ C, C.T @ C, 15) == pytest.approx(
            lam[-1] / lam[0], rel=1e-9
        )

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 3.0], [0.0, 1.0]])
        with pytest.raises(IndefinitenessError):
            pencil_condition(M, np.eye(2), 2)
