import tracemalloc
from functools import cache

import numpy as np
import pytest
import scipy.linalg as sla

from fracprec import multigrid
from fracprec.fem import assemble, assemble_all, assemble_prolongation
from fracprec.mesh import build_hierarchy, build_level, vertex_patches
from fracprec.multigrid import AdditiveMultigrid, multilevel_setup, precompute_patches
from fracprec.spectral import generalized_eig, power_matrix, solve_power
from fracprec.vectors import TaggedVector, TagError

from oracles import densify, frame_parts, patch_pair


@pytest.fixture(scope="module")
def two_level():
    return assemble_all(build_hierarchy(1, 2))


@pytest.fixture(scope="module")
def three_level():
    return assemble_all(build_hierarchy(1, 3))


def test_levels_that_do_not_refine_are_refused():
    # Each patch level is framed by its embedding, so it is a refinement and
    # its n is even: the vertex classes of odd n are not all in the table.
    lms = assemble_all([build_level(2), build_level(3)])
    for build in (multilevel_setup, precompute_patches):
        with pytest.raises(ValueError, match=r"n=3.*n=2"):
            build(lms)


class TestSingleLevel:
    def test_coarse_only_is_exact_inverse_power(self):
        lms = assemble_all(build_hierarchy(2, 1))
        pair = generalized_eig(lms[0].hdiv, lms[0].mass_v)
        rng = np.random.default_rng(0)
        d = rng.uniform(-1, 1, lms[0].mesh.num_edges)
        setup = multilevel_setup(lms)
        for s in (0.0, 0.3, 1.0):
            mg = AdditiveMultigrid(setup, s)
            np.testing.assert_allclose(mg.apply(d), solve_power(pair, s, d), atol=1e-12)

    def test_zero_power_single_level_is_mass_solve(self):
        lms = assemble_all(build_hierarchy(2, 1))
        mg = AdditiveMultigrid(multilevel_setup(lms), 0.0)
        rng = np.random.default_rng(1)
        c = rng.uniform(-1, 1, lms[0].mesh.num_edges)
        np.testing.assert_allclose(mg.apply(lms[0].mass_v @ c), c, atol=1e-11)


@cache
def hierarchy_setup(n0, num_levels):
    lms = assemble_all(build_hierarchy(n0, num_levels))
    return lms, multilevel_setup(lms)


HIERARCHIES = [(1, 2), (1, 4), (3, 3), (4, 4), (2, 5), (5, 3)]


class TestSmoother:
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n0, num_levels, k", [
        (n0, num_levels, k) for n0, num_levels in HIERARCHIES for k in range(1, num_levels)])
    def test_matches_the_patch_eigen_oracle(self, n0, num_levels, k, s):
        # Each level's smoother from the class table against the one solved
        # patch by patch; the roundoff of either grows about like n^2.
        lms, setup = hierarchy_setup(n0, num_levels)
        oracle = patch_pair(lms[k], vertex_patches(lms[k].mesh))
        d = np.random.default_rng(k).uniform(-1, 1, lms[k].mesh.num_edges)
        want = solve_power(oracle, s, d)
        got = solve_power(frame_parts(setup, k)[1], s, d)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 16])
    def test_patch_pencils_are_scaled_translates_of_their_class(self, n):
        # The class table rests on this: every patch's mass block is its class
        # representative's on build_level(4), and its hdiv - mass_v block is
        # the representative's times (n / 4)^2.
        def blocks(level):
            lm = assemble(level)
            A, M = lm.hdiv.toarray(), lm.mass_v.toarray()
            return [(M[np.ix_(ix, ix)], (A - M)[np.ix_(ix, ix)]) for ix in vertex_patches(level)]

        key, rep_key = multigrid._vertex_class(n), multigrid._vertex_class(4)
        assert np.unique(key).size == (9 if n == 2 else 14)
        rep = blocks(build_level(4))
        for (M, D), k in zip(blocks(build_level(n)), key):
            M4, D4 = rep[np.flatnonzero(rep_key == k)[0]]
            assert np.abs(M - M4).max() <= 1e-13 * np.abs(M4).max()
            assert np.abs(D - (n / 4) ** 2 * D4).max() <= 1e-13 * (n / 4) ** 2 * np.abs(D4).max()

    def test_one_class_table_per_process(self, monkeypatch):
        # The coarse pencil, then one solve per vertex class, once.
        calls, inner = [], multigrid.generalized_eig

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(multigrid, "generalized_eig", counted)
        multigrid._patch_classes.cache_clear()
        multilevel_setup(assemble_all(build_hierarchy(4, 4)))
        assert len(calls) == 1 + 14
        multilevel_setup(assemble_all(build_hierarchy(2, 4)))
        assert len(calls) == 1 + 14 + 1

    def test_patch_setup_never_densifies_the_level(self):
        # At n = 32 one dense copy of the 3136 x 3136 flux matrix is 75 MiB;
        # scattering the class modes onto the patches needs far less.
        lms = assemble_all(build_hierarchy(4, 4))
        multigrid._patch_classes.cache_clear()  # bound a fresh process's first call
        tracemalloc.start()
        try:
            precompute_patches(lms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_patch_pencil_floor(self, two_level):
        # Local pencils inherit the unit floor of the global one.
        for w in multilevel_setup(two_level).patch_eigenvalues:
            assert w.min() >= 1 - 1e-10

    @pytest.mark.parametrize("n0, num_levels", HIERARCHIES)
    def test_frames_lead_with_the_embeddings(self, n0, num_levels):
        # Frame k holds the embedding of level k - 1 bitwise, then as many
        # patch modes as it has patch eigenvalues, and is applied transposed
        # through a view of its one copy.
        lms, setup = hierarchy_setup(n0, num_levels)
        assert len(setup.frames) == len(setup.patch_eigenvalues) == num_levels - 1
        for U, Ut, w, coarse, fine in zip(setup.frames, setup.frames_t,
                                          setup.patch_eigenvalues, lms, lms[1:]):
            P = assemble_prolongation(coarse.mesh, fine.mesh)
            assert U.format == "csr" and U.has_sorted_indices
            assert U.shape == (fine.mesh.num_edges, coarse.mesh.num_edges + w.size)
            assert (U[:, :P.shape[1]] != P).nnz == 0
            assert Ut.format == "csc" and np.shares_memory(Ut.data, U.data)


class TestPreconditioner:
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_symmetric_positive(self, three_level, s):
        lms = three_level
        mg = AdditiveMultigrid(multilevel_setup(lms), s)
        B = densify(mg.apply, mg.dim)
        np.testing.assert_allclose(B, B.T, atol=1e-11)
        assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 0

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_preconditioned_spectrum_bounded(self, three_level, s):
        # The whole point: eigenvalues of B applied to the fractional
        # operator stay in a narrow band.  Desk-size bound, generous.
        lms = three_level
        mg = AdditiveMultigrid(multilevel_setup(lms), s)
        pair = generalized_eig(lms[-1].hdiv, lms[-1].mass_v)
        F = power_matrix(pair, s)
        B = densify(mg.apply, mg.dim)
        w = sla.eigh(F, np.linalg.inv(0.5 * (B + B.T)), eigvals_only=True)
        assert w.min() > 0
        assert w.max() / w.min() < 25.0

    def test_one_setup_serves_many_exponents(self, three_level):
        lms = three_level
        rng = np.random.default_rng(4)
        d = rng.uniform(-1, 1, lms[-1].mesh.num_edges)
        fresh = AdditiveMultigrid(multilevel_setup(lms), 0.5).apply(d)
        setup = multilevel_setup(lms)
        for s in (0.3, 1.0):
            AdditiveMultigrid(setup, s).apply(d)
        np.testing.assert_allclose(AdditiveMultigrid(setup, 0.5).apply(d), fresh, atol=0)

    def test_consecutive_applies_are_independent(self, three_level):
        # An apply returns a fresh array: the next apply does not overwrite it.
        lms = three_level
        mg = AdditiveMultigrid(multilevel_setup(lms), 0.3)
        d1, d2 = np.random.default_rng(6).uniform(-1, 1, (2, lms[-1].mesh.num_edges))
        first = mg.apply(d1)
        kept = first.copy()
        second = mg.apply(d2)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept) and not np.array_equal(first, second)
        assert np.array_equal(mg.apply(d1), kept)

    def test_deterministic_apply(self, three_level):
        lms = three_level
        mg = AdditiveMultigrid(multilevel_setup(lms), 0.3)
        rng = np.random.default_rng(5)
        d = rng.uniform(-1, 1, lms[-1].mesh.num_edges)
        assert (mg.apply(d) == mg.apply(d)).all()

    def test_tag_discipline(self, two_level):
        lms = two_level
        mg = AdditiveMultigrid(multilevel_setup(lms), 0.5)
        dim = lms[-1].mesh.num_edges
        out = mg.apply(TaggedVector("V", 1, "dual", np.ones(dim)))
        assert (out.space, out.level, out.rep) == ("V", 1, "coefficient")
        with pytest.raises(TagError):
            mg.apply(TaggedVector("V", 1, "coefficient", np.ones(dim)))
        with pytest.raises(TagError):
            mg.apply(TaggedVector("V", 0, "dual", np.ones(dim)))
        with pytest.raises(ValueError):
            mg.apply(np.ones(dim - 1))

    def test_exponent_range_enforced(self, two_level):
        lms = two_level
        setup = multilevel_setup(lms)
        with pytest.raises(ValueError):
            AdditiveMultigrid(setup, -0.1)
        with pytest.raises(ValueError):
            AdditiveMultigrid(setup, 1.1)
