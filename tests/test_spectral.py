import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from fracprec import spectral
from fracprec.fem import assemble, laplacian_dual
from fracprec.mesh import build_hierarchy, build_level
from fracprec.multigrid import multilevel_setup
from fracprec.spectral import (
    FourierModes,
    PencilError,
    apply_power,
    fourier_pair,
    generalized_eig,
    helmholtz_power,
    inf_sup_constant,
    power_matrix,
    scalar_spectrum,
    solve_power,
)
from fracprec.vectors import TaggedVector, TagError

from oracles import inverse_power_matrix, mode_orbit, scalar_extremes, sine_orbit


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
        # Dense and sparse operands, the mass a dense and a sparse identity.
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
        # Dense, then sparse with a negative and with a zero diagonal entry.
        for mass in (np.diag([1.0, -1.0]), sp.diags([1.0, -1.0], format="csr"),
                     sp.diags([1.0, 0.0], format="csr")):
            with pytest.raises(PencilError, match="mass matrix is not positive definite"):
                generalized_eig(np.eye(2), mass)

    def test_rejects_singular_operator(self):
        # A positive definite mass, dense and sparse, against a singular
        # left matrix.
        for mass in (np.eye(2), sp.eye(2, format="csr")):
            with pytest.raises(PencilError, match="pencil is not positive definite"):
                generalized_eig(np.diag([1.0, 0.0]), mass)

    def test_memory_guard(self, monkeypatch):
        # Budget injected, nothing large allocated: eigh's four 40 x 40 arrays,
        # plus one dense copy per sparse operand, a sparse identity mass too.
        tridiag = sp.diags([0.1, 1.0, 0.1], [-1, 0, 1], shape=(40, 40), format="csr")
        for a, m, need in [(np.eye(40), np.eye(40), 51200),
                           (sp.eye(40), tridiag, 76800),
                           (sp.eye(40), sp.eye(40, format="csr"), 76800)]:
            monkeypatch.setattr(spectral, "available_memory", lambda: need - 1)
            with pytest.raises(PencilError, match=f"needs {need} bytes, more than the "
                                                  f"{need - 1} bytes available"):
                generalized_eig(a, m)
            monkeypatch.setattr(spectral, "available_memory", lambda: need)
            assert generalized_eig(a, m).dim == 40

    def test_rejects_a_residual_above_tolerance(self, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 0.0)
        A, M = random_spd_pencil(np.random.default_rng(3), 10)
        with pytest.raises(PencilError, match="eigen residual exceeds tolerance"):
            generalized_eig(A, M)

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
            inverse_power_matrix(self.pair, 0.3) @ d, solve_power(self.pair, 0.3, d), atol=1e-12
        )
        np.testing.assert_allclose(
            power_matrix(self.pair, 0.3) @ d,
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
        # beta**2 as the smallest eigenvalue of (grad.T inv(hdiv) grad, mass_s),
        # by one SuperLU factorization of hdiv and a dense solve.
        import scipy.sparse.linalg as spla

        for n in (1, 2, 4, 8, 16):
            lm = assemble(build_level(n))
            lu = spla.splu(lm.hdiv.tocsc())
            B0 = lm.grad.T @ lu.solve(lm.grad.toarray())
            pair = generalized_eig(0.5 * (B0 + B0.T), lm.mass_s.toarray())
            want = np.sqrt(pair.eigenvalues[0])
            assert inf_sup_constant(lm) == pytest.approx(want, rel=1e-12), n


class TestScalarSpectrum:
    """The square's exact scalar spectrum read off the sine-basis orbit
    blocks (``scalar_spectrum``) against the dense route and the Lanczos
    extremes."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 16])
    def test_matches_the_dense_spectrum(self, n):
        lm = assemble(build_level(n))
        dense = generalized_eig(laplacian_dual(lm), lm.mass_s).eigenvalues
        got = scalar_spectrum(n)
        assert got.shape == (2 * n * n,) and (np.diff(got) >= 0).all()
        np.testing.assert_allclose(got, dense, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 33])
    def test_the_masked_torus_constant_stays_out(self, n):
        # The lowest eigenvalue lies near 2 pi^2: the torus constant, which is
        # even, stays out.
        got = scalar_spectrum(n)
        assert got.size == 2 * n * n and got[0] > 19

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 33, 48, 64, 100])
    def test_largest_is_36_n_squared(self, n):
        assert scalar_spectrum(n)[-1] == pytest.approx(36 * n * n, rel=1e-13, abs=0)

    def test_extremes_match_lanczos(self):
        lm = assemble(build_level(32))
        np.testing.assert_allclose(scalar_spectrum(32)[[0, -1]], scalar_extremes(lm), rtol=1e-10)


def sine_basis(modes):
    """Dense (triangle, sine index) matrix of the sine products: triangle
    2 (j n + i) + c takes sy at row t = 2j + c times sx at column i."""
    n = modes.sx.shape[0]
    j, i, c = np.meshgrid(np.arange(n), np.arange(n), [0, 1], indexing="ij")
    t, i = (2 * j + c).ravel(), i.ravel()
    return np.einsum("yt,xt->tyx", modes.sy[:, t], modes.sx[:, i]).reshape(2 * n * n, -1)


class TestBlockModes:
    """``_block_modes``, the one scatter of both block mode sets."""

    def test_matches_a_dense_scatter_of_ragged_groups(self):
        rng = np.random.default_rng(3)
        dim, groups = 9, []
        for b, k in ((2, 3), (3, 1), (1, 4)):
            dofs = np.array([rng.permutation(dim)[:k] for _ in range(b)])
            groups.append((dofs, rng.uniform(-1, 1, (b, k, k)), np.arange(b)))
        groups[0][1][1, 2, 0] = 0.0  # an exact zero is not stored
        # A table of 2 blocks for 3 more, gathered by index.
        groups.append((np.array([rng.permutation(dim)[:2] for _ in range(3)]),
                       rng.uniform(-1, 1, (2, 2, 2)), np.array([1, 0, 1])))
        dense, col = np.zeros((dim, 2 * 3 + 3 * 1 + 1 * 4 + 3 * 2)), 0
        for dofs, q, which in groups:
            for rows, block in zip(dofs, q[which]):
                # column j of a block holds block[:, j]
                dense[np.ix_(rows, col + np.arange(rows.size))] = block
                col += rows.size
        modes = spectral._block_modes(groups, dim)
        assert modes.format == "csr" and modes.has_sorted_indices
        assert modes.nnz == 2 * 9 + 3 * 1 + 1 * 16 - 1 + 3 * 4 and np.all(modes.data != 0)
        np.testing.assert_array_equal(modes.toarray(), dense)

    def test_no_mode_set_stores_an_exact_zero(self):
        # Both mode sets hold roundoff zeros of their eigensolves, which are
        # dropped, and each stored array holds exactly the kept entries.
        fine = fourier_pair(assemble(build_level(32))).modes.blocks
        frames = multilevel_setup(build_hierarchy(4, 4)).frames
        for modes in (fine, *frames):
            assert modes.nnz > 0 and np.all(modes.data != 0)
            for array, size in ((modes.data, modes.nnz), (modes.indices, modes.nnz),
                                (modes.indptr, modes.shape[0] + 1)):
                owner = array if array.base is None else array.base
                assert array.size == size and owner.nbytes == array.nbytes

    def test_lead_columns_come_first(self):
        rng = np.random.default_rng(4)
        lead = sp.random(7, 3, density=0.5, format="csr", random_state=rng)
        groups = [(np.array([[0, 4], [6, 2]]), rng.uniform(-1, 1, (2, 2, 2)), np.arange(2))]
        modes = spectral._block_modes(groups, 7, lead=lead)
        assert modes.format == "csr" and modes.has_sorted_indices and modes.shape == (7, 7)
        np.testing.assert_array_equal(modes[:, :3].toarray(), lead.toarray())
        np.testing.assert_array_equal(modes[:, 3:].toarray(),
                                      spectral._block_modes(groups, 7).toarray())
        assert modes.data.size == modes.nnz == lead.nnz + 8


class TestFourierPair:
    """The scalar pencil diagonalized by the mesh's translations
    (``fourier_pair``) against the dense generalized route on the same
    pencil."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16])
    def test_matches_the_dense_route(self, n):
        lm = assemble(build_level(n))
        dense = generalized_eig(laplacian_dual(lm), lm.mass_s.toarray(), space="S", level=0)
        pair = fourier_pair(lm)
        assert isinstance(pair.modes, FourierModes)
        assert (pair.space, pair.level, pair.dim) == ("S", 0, dense.dim)
        rng = np.random.default_rng(n)
        x = rng.uniform(-1, 1, pair.dim)
        c = rng.uniform(-1, 1, lm.mesh.num_edges)
        for s in (0.0, 0.3, 1.0):
            for got, want in ((solve_power(pair, s, x), solve_power(dense, s, x)),
                              (apply_power(pair, s, x), apply_power(dense, s, x)),
                              (helmholtz_power(pair, lm, s)(c),
                               helmholtz_power(dense, lm, s)(c))):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_sine_factors_are_orthonormal_dst2(self, n):
        modes = fourier_pair(assemble(build_level(n))).modes
        for sine, length in ((modes.sx, n), (modes.sy, 2 * n)):
            np.testing.assert_allclose(sine @ sine.T, np.eye(length), rtol=0, atol=1e-14)
            m, t = np.arange(1, length + 1)[:, None], np.arange(length) + 0.5
            np.testing.assert_allclose(sine / sine[:, :1], np.sin(np.pi * m * t / length)
                                       / np.sin(np.pi * m * 0.5 / length), atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 4, 6])
    def test_modes_are_a_square_basis(self, n):
        # One coefficient per triangle, one square block per orbit of 2, 4 or
        # 8 sine indices, and the synthesis undoes the analysis up to the mass.
        lm = assemble(build_level(n))
        pair = fourier_pair(lm)
        modes, ns = pair.modes, lm.mesh.num_triangles
        assert modes.shape == modes.T.shape == (ns, ns) == (ns, pair.eigenvalues.size)
        row_orbit = np.ravel_multi_index(sine_orbit(n), (n, n))
        col_orbit = np.ravel_multi_index(mode_orbit(modes), (n, n))
        coo = modes.blocks.tocoo()
        np.testing.assert_array_equal(row_orbit[coo.row], col_orbit[coo.col])
        size = np.bincount(row_orbit)
        np.testing.assert_array_equal(np.bincount(col_orbit, minlength=size.size), size)
        assert set(size[size > 0]) <= {2, 4, 8}
        # Each row and column holds at most its orbit's size of entries, and at
        # least one (exact zeros are not stored).
        for nnz, orbit in ((np.diff(modes.blocks.indptr), row_orbit),
                           (np.diff(modes.blocks.tocsc().indptr), col_orbit)):
            assert nnz.min() >= 1 and (nnz <= size[orbit]).all()
        assert pair.eigenvalues.min() > 19  # no torus constant to mask
        x = np.random.default_rng(n).uniform(-1, 1, ns)
        want = x / lm.mass_s.diagonal()
        np.testing.assert_allclose(modes @ (modes.T @ x), want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_sine_basis_splits_the_dense_pencil_by_orbit(self, n):
        lm = assemble(build_level(n))
        grad = lm.grad.toarray()
        phi = sine_basis(fourier_pair(lm).modes)
        coupling = phi.T @ grad.T @ np.linalg.solve(lm.mass_v.toarray(), grad) @ phi
        kx, ky = sine_orbit(n)
        other = (kx[:, None] != kx) | (ky[:, None] != ky)
        assert np.abs(coupling).max() == pytest.approx(18, rel=1e-12)
        assert np.abs(coupling[other]).max(initial=0) <= 1e-12 * 18

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_each_orbit_has_the_dense_pencils_eigenvalues(self, n):
        # The dense pencil restricted to one orbit's sine products has the
        # eigenvalues fourier_pair gives that orbit's block.
        lm = assemble(build_level(n))
        pair = fourier_pair(lm)
        grad, mass_s = lm.grad.toarray(), lm.mass_s.toarray()
        stiff = grad.T @ np.linalg.solve(lm.mass_v.toarray(), grad)
        phi = sine_basis(pair.modes)
        kx, ky = sine_orbit(n)
        slot_kx, slot_ky = mode_orbit(pair.modes)
        for orbit in sorted(set(zip(kx, ky))):
            phi_o = phi[:, (kx == orbit[0]) & (ky == orbit[1])]
            want = sla.eigh(phi_o.T @ stiff @ phi_o, phi_o.T @ mass_s @ phi_o, eigvals_only=True)
            got = np.sort(pair.eigenvalues[(slot_kx == orbit[0]) & (slot_ky == orbit[1])])
            assert got.size == want.size and got.size in (2, 4, 8)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("extra", [3, -1], ids=["too-long", "too-short"])
    def test_rejects_a_vector_of_the_wrong_length(self, extra):
        # As the dense and sparse pairs do: not a silent truncation, not an
        # IndexError from the gather.
        pair = fourier_pair(assemble(build_level(4)))
        with pytest.raises(ValueError):
            pair.inverse_power(0.5)(np.ones(pair.dim + extra))
        for modes in (pair.modes, pair.modes.T):
            with pytest.raises(ValueError, match="cannot take shape"):
                modes @ np.ones(modes.shape[1] + extra)

