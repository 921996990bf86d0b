import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from fracprec.fem import assemble_all
from fracprec.mesh import build_hierarchy, vertex_patches
from fracprec.multigrid import (
    AdditiveMultigrid,
    PatchSmoother,
    multilevel_setup,
    precompute_patches,
)
from fracprec.spectral import densify, generalized_eig, power_matrix, solve_power
from fracprec.vectors import TaggedVector, TagError


@pytest.fixture(scope="module")
def two_level():
    hier = build_hierarchy(1, 2)
    lms = assemble_all(hier)
    return hier, lms


@pytest.fixture(scope="module")
def three_level():
    hier = build_hierarchy(1, 3)
    lms = assemble_all(hier)
    return hier, lms


class TestSingleLevel:
    def test_coarse_only_is_exact_inverse_power(self):
        hier = build_hierarchy(2, 1)
        lms = assemble_all(hier)
        pair = generalized_eig(lms[0].hdiv, lms[0].mass_v)
        rng = np.random.default_rng(0)
        d = rng.uniform(-1, 1, lms[0].mesh.num_edges)
        setup = multilevel_setup(hier, lms)
        for s in (0.0, 0.3, 1.0):
            mg = AdditiveMultigrid(setup, s)
            np.testing.assert_allclose(mg.apply(d), solve_power(pair, s, d), atol=1e-12)

    def test_zero_power_single_level_is_mass_solve(self):
        hier = build_hierarchy(2, 1)
        lms = assemble_all(hier)
        mg = AdditiveMultigrid(multilevel_setup(hier, lms), 0.0)
        rng = np.random.default_rng(1)
        c = rng.uniform(-1, 1, lms[0].mesh.num_edges)
        np.testing.assert_allclose(mg.apply(lms[0].mass_v @ c), c, atol=1e-11)


class TestSmoother:
    def test_unit_power_matches_subspace_inverses(self, two_level):
        # At exponent 1 each patch applies the plain inverse of the local
        # matrix; rebuild that from scratch with dense inverses.
        hier, lms = two_level
        smoother = PatchSmoother(precompute_patches(hier, lms)[1], 1.0)
        fine = lms[1]
        dim = fine.mesh.num_edges
        oracle = np.zeros((dim, dim))
        A = fine.hdiv.toarray()
        for p in vertex_patches(hier.levels[1]):
            ix = p.edge_ids
            oracle[np.ix_(ix, ix)] += np.linalg.inv(A[np.ix_(ix, ix)])
        rng = np.random.default_rng(2)
        d = rng.uniform(-1, 1, dim)
        np.testing.assert_allclose(smoother.apply(d), oracle @ d, atol=1e-10)

    def test_zero_power_matches_subspace_mass_inverses(self, two_level):
        hier, lms = two_level
        smoother = PatchSmoother(precompute_patches(hier, lms)[1], 0.0)
        fine = lms[1]
        dim = fine.mesh.num_edges
        oracle = np.zeros((dim, dim))
        M = fine.mass_v.toarray()
        for p in vertex_patches(hier.levels[1]):
            ix = p.edge_ids
            oracle[np.ix_(ix, ix)] += np.linalg.inv(M[np.ix_(ix, ix)])
        rng = np.random.default_rng(3)
        d = rng.uniform(-1, 1, dim)
        np.testing.assert_allclose(smoother.apply(d), oracle @ d, atol=1e-10)

    def test_patch_setup_never_densifies_the_level(self):
        # At n = 32 one dense copy of the 3136 x 3136 flux matrix is 75 MiB;
        # gathering the patch blocks from the sparse matrices needs far less.
        hier = build_hierarchy(4, 4)
        lms = assemble_all(hier)
        tracemalloc.start()
        try:
            precompute_patches(hier, lms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_patch_pencil_floor(self, two_level):
        # Local pencils inherit the unit floor of the global one.
        hier, lms = two_level
        data = precompute_patches(hier, lms)
        for g in data[1]:
            assert g.eigenvalues.min() >= 1 - 1e-10


class TestPreconditioner:
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_symmetric_positive(self, three_level, s):
        hier, lms = three_level
        mg = AdditiveMultigrid(multilevel_setup(hier, lms), s)
        B = densify(mg.apply, mg.dim)
        np.testing.assert_allclose(B, B.T, atol=1e-11)
        assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 0

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_preconditioned_spectrum_bounded(self, three_level, s):
        # The whole point: eigenvalues of B applied to the fractional
        # operator stay in a narrow band.  Desk-size bound, generous.
        hier, lms = three_level
        mg = AdditiveMultigrid(multilevel_setup(hier, lms), s)
        pair = generalized_eig(lms[-1].hdiv, lms[-1].mass_v)
        F = power_matrix(pair, s, dual_form=True)
        B = densify(mg.apply, mg.dim)
        w = sla.eigh(F, np.linalg.inv(0.5 * (B + B.T)), eigvals_only=True)
        assert w.min() > 0
        assert w.max() / w.min() < 25.0

    def test_one_setup_serves_many_exponents(self, three_level):
        hier, lms = three_level
        rng = np.random.default_rng(4)
        d = rng.uniform(-1, 1, lms[-1].mesh.num_edges)
        fresh = AdditiveMultigrid(multilevel_setup(hier, lms), 0.5).apply(d)
        setup = multilevel_setup(hier, lms)
        for s in (0.3, 1.0):
            AdditiveMultigrid(setup, s).apply(d)
        np.testing.assert_allclose(AdditiveMultigrid(setup, 0.5).apply(d), fresh, atol=0)

    def test_deterministic_apply(self, three_level):
        hier, lms = three_level
        mg = AdditiveMultigrid(multilevel_setup(hier, lms), 0.3)
        rng = np.random.default_rng(5)
        d = rng.uniform(-1, 1, lms[-1].mesh.num_edges)
        assert (mg.apply(d) == mg.apply(d)).all()

    def test_tag_discipline(self, two_level):
        hier, lms = two_level
        mg = AdditiveMultigrid(multilevel_setup(hier, lms), 0.5)
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
        hier, lms = two_level
        setup = multilevel_setup(hier, lms)
        with pytest.raises(ValueError):
            AdditiveMultigrid(setup, -0.1)
        with pytest.raises(ValueError):
            AdditiveMultigrid(setup, 1.1)
