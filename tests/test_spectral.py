import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from fracprec import spectral
from fracprec.fem import assemble, laplacian_dual
from fracprec.mesh import build_level, mirror_orbits
from fracprec.spectral import (
    BlockModes,
    HelmholtzPair,
    PencilError,
    apply_power,
    densify,
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

    def test_available_memory_takes_the_smaller_cgroup_limit(self, tmp_path):
        # Files written here, not the host's: MemAvailable is 4000 kB.
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal:    8000 kB\nMemAvailable:    4000 kB\n")
        limit, missing = tmp_path / "memory.max", str(tmp_path / "missing")
        for text, expect in [("1024000\n", 1024000), ("8192000\n", 4096000), ("max\n", 4096000)]:
            limit.write_text(text)
            assert spectral.available_memory(str(meminfo), str(limit)) == expect
        assert spectral.available_memory(str(meminfo), missing) == 4096000
        limit.write_text("8192000\n")
        assert spectral.available_memory(missing, str(limit)) == 8192000
        assert spectral.available_memory(missing, missing) == float("inf")


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


class TestMirrorBlocks:
    """The scalar pencil split by ``mesh.mirror_orbits`` against the dense
    route on the same pencil."""

    @staticmethod
    def pencils(n):
        lm = assemble(build_level(n))
        A = laplacian_dual(lm)
        return lm, A, generalized_eig(A, lm.mass_s), generalized_eig(
            A, lm.mass_s, orbits=mirror_orbits(lm.mesh))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_matches_the_dense_route(self, n):
        lm, A, dense, blocks = self.pencils(n)
        assert isinstance(blocks.modes, BlockModes) and isinstance(dense.modes, np.ndarray)
        np.testing.assert_allclose(blocks.eigenvalues, dense.eigenvalues, rtol=1e-12)
        phi = densify(blocks.modes)
        np.testing.assert_allclose(phi.T @ (lm.mass_s @ phi), np.eye(blocks.dim),
                                   rtol=0, atol=1e-12)
        rng = np.random.default_rng(n)
        d = rng.uniform(-1, 1, blocks.dim)
        c = rng.uniform(-1, 1, lm.mesh.num_edges)
        for s in (0.0, 0.3, 1.0):
            want = solve_power(dense, s, d)
            np.testing.assert_allclose(solve_power(blocks, s, d), want,
                                       rtol=0, atol=1e-12 * np.abs(want).max())
            want = apply_power(HelmholtzPair(dense, lm), s, c)
            got = apply_power(HelmholtzPair(blocks, lm), s, c)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [3, 4])
    def test_block_modes_act_as_their_dense_matrix(self, n):
        _, _, reference, blocks = self.pencils(n)
        modes, phi = blocks.modes, densify(blocks.modes)
        assert modes.shape == modes.T.shape == phi.shape
        np.testing.assert_array_equal(densify(modes.T), phi.T)
        x = np.random.default_rng(0).uniform(-1, 1, (blocks.dim, 3))
        for op, dense in ((modes, phi), (modes.T, phi.T)):
            np.testing.assert_allclose(op @ x, dense @ x, rtol=0, atol=1e-13)
            np.testing.assert_allclose(op @ x[:, 0], dense @ x[:, 0], rtol=0, atol=1e-13)
        g = blocks.modes.orbits.shape[1]
        assert sum(b.nbytes for b in modes.blocks) == phi.nbytes // g < modes.nbytes
        for dual_form in (False, True):
            want = power_matrix(reference, 0.3, dual_form)
            np.testing.assert_allclose(power_matrix(blocks, 0.3, dual_form), want,
                                       rtol=0, atol=1e-12 * np.abs(want).max())

    def test_without_orbits_the_modes_are_the_scaled_standard_ones(self):
        # g = 1: one block, the scaled problem r A r itself, modes dense.
        lm = assemble(build_level(4))
        A = laplacian_dual(lm)
        root = 1.0 / np.sqrt(lm.mass_s.diagonal())
        w, psi = sla.eigh((sp.diags(root) @ A @ sp.diags(root)).toarray(), driver="evd")
        pair = generalized_eig(A, lm.mass_s)
        np.testing.assert_array_equal(pair.eigenvalues, w)
        np.testing.assert_array_equal(pair.modes, psi * root[:, None])

    def test_rejects_a_pencil_that_is_not_mirror_invariant(self):
        lm = assemble(build_level(4))
        A = laplacian_dual(lm).tolil()
        i, j = A[0].nonzero()[1][-1], 0
        A[i, j] = A[j, i] = A[i, j] * (1 + 1e-3)
        with pytest.raises(PencilError, match="couples its symmetry blocks"):
            generalized_eig(A.tocsr(), lm.mass_s, orbits=mirror_orbits(lm.mesh))

    def test_rejects_a_mass_that_varies_on_an_orbit(self):
        lm = assemble(build_level(4))
        mass = lm.mass_s.diagonal().copy()
        mass[0] *= 1.5
        with pytest.raises(PencilError, match="not constant on the orbits"):
            generalized_eig(laplacian_dual(lm), sp.diags(mass, format="csr"),
                            orbits=mirror_orbits(lm.mesh))

    def test_rejects_orbits_with_a_dense_mass_or_that_miss_rows(self):
        lm = assemble(build_level(2))
        orbits = mirror_orbits(lm.mesh)
        with pytest.raises(PencilError, match="need a sparse diagonal mass"):
            generalized_eig(laplacian_dual(lm), lm.mass_s.toarray(), orbits=orbits)
        with pytest.raises(PencilError, match="do not partition"):
            generalized_eig(laplacian_dual(lm), lm.mass_s, orbits=orbits[:, [0, 0, 2, 3]])

    def test_memory_guard_counts_one_block_at_a_time(self, monkeypatch):
        # n = 8: four blocks of 32; the modes (4 * 32^2) plus one eigensolve
        # (3 * 32^2), against 4 * 128^2 without the split.
        lm = assemble(build_level(8))
        need = 8 * 7 * 32 * 32
        monkeypatch.setattr(spectral, "available_memory", lambda: need - 1)
        with pytest.raises(PencilError, match=f"dimension 128 in 4 blocks needs {need} bytes"):
            generalized_eig(laplacian_dual(lm), lm.mass_s, orbits=mirror_orbits(lm.mesh))
        monkeypatch.setattr(spectral, "available_memory", lambda: need)
        assert generalized_eig(laplacian_dual(lm), lm.mass_s,
                               orbits=mirror_orbits(lm.mesh)).dim == 128
