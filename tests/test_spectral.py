import numpy as np
import pytest
import scipy.sparse as sp

from fracprec import spectral
from fracprec.fem import assemble, laplacian_dual
from fracprec.mesh import build_level
from fracprec.spectral import (
    PencilError,
    apply_power,
    generalized_eig,
    inf_sup_constant,
    power_matrix,
    scalar_extremes,
    solve_power,
)
from fracprec.vectors import TaggedVector, TagError


def random_spd_pencil(rng, n):
    C = rng.standard_normal((n, n))
    A = C.T @ C + 0.5 * np.eye(n)
    B = rng.standard_normal((n, n))
    M = B @ B.T / n + np.eye(n)
    return A, M


class TestGeneralizedEig:
    def test_matches_nonsymmetric_route(self):
        # Oracle: plain eig of inv(M) @ A, a different algorithm entirely.
        rng = np.random.default_rng(42)
        A, M = random_spd_pencil(rng, 12)
        pair = generalized_eig(A, M)
        oracle = np.sort(np.linalg.eigvals(np.linalg.solve(M, A)).real)
        np.testing.assert_allclose(pair.eigenvalues, oracle, rtol=1e-10)

    def test_modes_mass_orthonormal(self):
        rng = np.random.default_rng(1)
        A, M = random_spd_pencil(rng, 20)
        pair = generalized_eig(A, M)
        np.testing.assert_allclose(pair.modes.T @ M @ pair.modes, np.eye(20), atol=1e-10)

    def test_eigen_residual(self):
        rng = np.random.default_rng(2)
        A, M = random_spd_pencil(rng, 15)
        pair = generalized_eig(A, M)
        resid = A @ pair.modes - M @ pair.modes * pair.eigenvalues
        assert np.linalg.norm(resid, axis=0).max() <= 1e-10 * pair.eigenvalues.max()

    def test_rejects_asymmetric(self):
        # On the generalized route (dense mass) and the diagonal one.
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        for a in (A, sp.csr_matrix(A)):
            for mass in (np.eye(2), sp.eye(2, format="csr")):
                with pytest.raises(PencilError, match="left matrix is not symmetric"):
                    generalized_eig(a, mass)

    def test_rejects_asymmetric_mass(self):
        # Caught up front: LAPACK would read only one triangle of it.
        M = np.array([[2.0, 0.5], [0.0, 2.0]])
        for mass in (M, sp.csr_matrix(M)):
            with pytest.raises(PencilError, match="mass matrix is not symmetric"):
                generalized_eig(np.eye(2), mass)

    def test_rejects_indefinite_mass(self):
        # Dense, then sparse diagonal with a negative and with a zero entry.
        for mass in (np.diag([1.0, -1.0]), sp.diags([1.0, -1.0], format="csr"),
                     sp.diags([1.0, 0.0], format="csr")):
            with pytest.raises(PencilError, match="mass matrix is not positive definite"):
                generalized_eig(np.eye(2), mass)

    def test_memory_guard(self, monkeypatch):
        # Budget injected, nothing large allocated: eigh's four 40 x 40 arrays,
        # plus one dense copy per sparse operand on the generalized route; a
        # sparse diagonal mass takes the standard route, which copies neither.
        tridiag = sp.diags([0.1, 1.0, 0.1], [-1, 0, 1], shape=(40, 40), format="csr")
        for a, m, need in [(np.eye(40), np.eye(40), 51200),
                           (sp.eye(40), tridiag, 76800),
                           (sp.eye(40), sp.eye(40, format="csr"), 51200)]:
            monkeypatch.setattr(spectral, "available_memory", lambda: need - 1)
            with pytest.raises(PencilError, match=f"needs {need} bytes, more than the "
                                                  f"{need - 1} bytes available"):
                generalized_eig(a, m)
            monkeypatch.setattr(spectral, "available_memory", lambda: need)
            assert generalized_eig(a, m).dim == 40

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_diagonal_mass_matches_the_generalized_route(self, n):
        # The standard route for a sparse diagonal mass against the
        # generalized solver on the same pencil with the mass densified.
        lm = assemble(build_level(n))
        A = laplacian_dual(lm)
        pair = generalized_eig(A, lm.mass_s)
        general = generalized_eig(A, lm.mass_s.toarray())
        np.testing.assert_allclose(pair.eigenvalues, general.eigenvalues, rtol=1e-12)
        gram = pair.modes.T @ (lm.mass_s @ pair.modes)
        np.testing.assert_allclose(gram, np.eye(pair.dim), rtol=0, atol=1e-12)

    def test_available_memory_is_read(self):
        assert 0 < spectral.available_memory()


class TestPowers:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.A, self.M = random_spd_pencil(rng, 18)
        self.pair = generalized_eig(self.A, self.M)
        self.rng = rng

    def test_endpoints(self):
        c = self.rng.uniform(-1, 1, 18)
        np.testing.assert_allclose(apply_power(self.pair, 1.0, c), self.A @ c, atol=1e-10)
        np.testing.assert_allclose(apply_power(self.pair, 0.0, c), self.M @ c, atol=1e-10)
        d = self.rng.uniform(-1, 1, 18)
        np.testing.assert_allclose(
            solve_power(self.pair, 1.0, d), np.linalg.solve(self.A, d), atol=1e-10
        )
        np.testing.assert_allclose(
            solve_power(self.pair, 0.0, d), np.linalg.solve(self.M, d), atol=1e-10
        )

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
    def test_round_trip(self, s):
        c = self.rng.uniform(-1, 1, 18)
        back = solve_power(self.pair, s, apply_power(self.pair, s, c))
        np.testing.assert_allclose(back, c, atol=1e-10)

    def test_semigroup_via_mass_rewrap(self):
        d = self.rng.uniform(-1, 1, 18)
        for s1, s2 in [(0.25, 0.5), (0.1, 0.9), (0.5, 0.5)]:
            step = solve_power(self.pair, s1, d)
            two = solve_power(self.pair, s2, apply_power(self.pair, 0.0, step))
            np.testing.assert_allclose(
                two, solve_power(self.pair, s1 + s2, d), atol=1e-10
            )

    def test_half_twice_equals_inverse(self):
        d = self.rng.uniform(-1, 1, 18)
        half = solve_power(self.pair, 0.5, d)
        again = solve_power(self.pair, 0.5, apply_power(self.pair, 0.0, half))
        np.testing.assert_allclose(again, np.linalg.solve(self.A, d), atol=1e-10)

    def test_power_matrix_consistent(self):
        d = self.rng.uniform(-1, 1, 18)
        np.testing.assert_allclose(
            power_matrix(self.pair, 0.3) @ d, solve_power(self.pair, 0.3, d), atol=1e-12
        )
        np.testing.assert_allclose(
            power_matrix(self.pair, 0.3, dual_form=True) @ d,
            apply_power(self.pair, 0.3, d),
            atol=1e-10,
        )

    def test_tagged_vectors_flip_rep(self):
        lm = assemble(build_level(1))
        pair = generalized_eig(lm.hdiv, lm.mass_v, space="V", level=0)
        d = TaggedVector("V", 0, "dual", np.ones(5))
        out = solve_power(pair, 0.5, d)
        assert (out.space, out.level, out.rep) == ("V", 0, "coefficient")
        back = apply_power(pair, 0.5, out)
        assert back.rep == "dual"
        np.testing.assert_allclose(back.values, d.values, atol=1e-12)
        with pytest.raises(TagError):
            solve_power(pair, 0.5, TaggedVector("V", 0, "coefficient", np.ones(5)))
        with pytest.raises(TagError):
            solve_power(pair, 0.5, TaggedVector("S", 0, "dual", np.ones(5)))


class TestMeshPencils:
    @pytest.mark.parametrize("n", [1, 2])
    def test_hdiv_pencil_floor(self, n):
        # hdiv = mass + divdiv dominates mass, so eigenvalues are >= 1; the
        # value 1 is attained exactly on the rotated-gradient subspace, whose
        # dimension is the vertex count minus one.
        lm = assemble(build_level(n))
        pair = generalized_eig(lm.hdiv, lm.mass_v, space="V", level=0)
        ones = np.isclose(pair.eigenvalues, 1.0, atol=1e-9).sum()
        assert ones == (n + 1) ** 2 - 1
        assert pair.eigenvalues[0] >= 1 - 1e-12

    def test_hdiv_spectrum_intertwines_with_scalar_pencil(self):
        # The non-unit hdiv eigenvalues are exactly 1 + (scalar eigenvalues):
        # gradients of scalar eigenfunctions are hdiv eigenfunctions.
        lm = assemble(build_level(2))
        vpair = generalized_eig(lm.hdiv, lm.mass_v)
        spair = generalized_eig(laplacian_dual(lm), lm.mass_s.toarray())
        nc = (2 + 1) ** 2 - 1
        np.testing.assert_allclose(
            np.sort(vpair.eigenvalues[nc:]), np.sort(1.0 + spair.eigenvalues), rtol=1e-9
        )

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_inf_sup_in_range(self, n):
        lm = assemble(build_level(n))
        beta = inf_sup_constant(lm)
        assert 0.9 < beta <= 1.0 + 1e-12

    def test_inf_sup_matches_pencil_route(self):
        import scipy.sparse.linalg as spla

        lm = assemble(build_level(2))
        lu = spla.splu(lm.hdiv.tocsc())
        B0 = lm.grad.T @ lu.solve(lm.grad.toarray())
        pair = generalized_eig(0.5 * (B0 + B0.T), lm.mass_s.toarray())
        assert inf_sup_constant(lm) == pytest.approx(np.sqrt(pair.eigenvalues[0]), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_scalar_extremes_match_dense_spectrum(self, n):
        lm = assemble(build_level(n))
        dense = generalized_eig(laplacian_dual(lm), lm.mass_s).eigenvalues[[0, -1]]
        got = scalar_extremes(lm)
        np.testing.assert_allclose(got, dense, rtol=1e-10)
        assert scalar_extremes(lm) == got  # fixed start vector: bit for bit
