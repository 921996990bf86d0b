import numpy as np
import pytest

from fracprec.auxiliary import (
    aux_pencil_eigenvalues,
    build_exact,
    build_multigrid,
    exact_condition_number,
    make_aux_spectrum_context,
)
from fracprec.fem import assemble_all, laplacian_dual
from fracprec.mesh import build_hierarchy
from fracprec.multigrid import AdditiveMultigrid, multilevel_setup
from fracprec.spectral import generalized_eig, inf_sup_constant, power_matrix
from fracprec.vectors import TaggedVector, TagError

from oracles import densify, pencil_condition

S_GRID = [-1.0, -0.8, -0.5, -0.3, 0.0]


def dense(aux):
    """Dense matrix of a sandwich preconditioner, column by column."""
    return densify(aux.apply, aux.lm.mesh.num_triangles)


@pytest.fixture(scope="module")
def single_level():
    lms = assemble_all(build_hierarchy(4, 1))
    lm = lms[-1]
    flux_pair = generalized_eig(lm.hdiv, lm.mass_v, space="V", level=0)
    scalar_pair = generalized_eig(laplacian_dual(lm), lm.mass_s, space="S", level=0)
    return lms, flux_pair, scalar_pair


@pytest.fixture(scope="module")
def ctx(single_level):
    lms, flux_pair, scalar_pair = single_level
    return make_aux_spectrum_context(lms[-1], flux_pair, scalar_pair)


@pytest.fixture(scope="module")
def alpha(single_level):
    return single_level[2].eigenvalues


@pytest.fixture(scope="module")
def two_level():
    return build_hierarchy(2, 2)


class TestExactVariant:
    def test_s_minus_one_reproduces_scalar_operator(self, single_level):
        # At the left endpoint the inner solve is a plain flux mass solve, so
        # the sandwich collapses to the scalar operator itself.
        lms, flux_pair, _ = single_level
        lm = lms[-1]
        B = dense(build_exact(-1.0, lm, flux_pair))
        A = laplacian_dual(lm).toarray()
        np.testing.assert_allclose(B, A, atol=1e-10 * np.abs(A).max())

    def test_apply_matches_matrix(self, single_level):
        lms, flux_pair, _ = single_level
        lm = lms[-1]
        aux = build_exact(-0.4, lm, flux_pair)
        rng = np.random.default_rng(30)
        u = rng.uniform(-1, 1, lm.mesh.num_triangles)
        out = aux.apply(TaggedVector("S", 0, "coefficient", u))
        assert (out.space, out.level, out.rep) == ("S", 0, "dual")
        np.testing.assert_allclose(out.values, dense(aux) @ u, atol=1e-12)

    def test_raw_array_passthrough(self, single_level):
        lms, flux_pair, _ = single_level
        lm = lms[-1]
        aux = build_exact(-0.4, lm, flux_pair)
        rng = np.random.default_rng(31)
        u = rng.uniform(-1, 1, lm.mesh.num_triangles)
        raw = aux.apply(u)
        assert isinstance(raw, np.ndarray)
        tagged = aux.apply(TaggedVector("S", 0, "coefficient", u))
        np.testing.assert_allclose(raw, tagged.values)

    def test_zero_maps_to_zero(self, single_level):
        lms, flux_pair, _ = single_level
        lm = lms[-1]
        aux = build_exact(-0.7, lm, flux_pair)
        out = aux.apply(np.zeros(lm.mesh.num_triangles))
        np.testing.assert_array_equal(out, 0.0)

    def test_tag_discipline(self, single_level):
        lms, flux_pair, _ = single_level
        lm = lms[-1]
        aux = build_exact(-0.5, lm, flux_pair)
        n = lm.mesh.num_triangles
        with pytest.raises(TagError):
            aux.apply(TaggedVector("S", 0, "dual", np.ones(n)))
        with pytest.raises(TagError):
            aux.apply(TaggedVector("V", 0, "coefficient", np.ones(lm.mesh.num_edges)))
        with pytest.raises(TagError):
            aux.apply(TaggedVector("S", 1, "coefficient", np.ones(n)))

    def test_exponent_outside_range_rejected(self, single_level):
        lms, flux_pair, _ = single_level
        lm = lms[-1]
        for bad in (0.5, -1.2, 1.0):
            with pytest.raises(ValueError):
                build_exact(bad, lm, flux_pair)


class TestSpectrum:
    def test_condition_is_one_at_left_endpoint(self, alpha):
        assert exact_condition_number(alpha, -1.0) == pytest.approx(1.0, abs=1e-9)

    def test_smallest_eigenvalue_at_zero_is_inf_sup_squared(self, single_level, ctx, alpha):
        # At s = 0 the bottom of the preconditioned spectrum is exactly the
        # squared inf-sup constant (two very different computations of the
        # same pencil minimum); the top approaches 1 from below under
        # refinement, so the condition number is bounded by beta**-2.
        lms, _, _ = single_level
        beta_sq = inf_sup_constant(lms[-1]) ** 2
        w = aux_pencil_eigenvalues(ctx, 0.0)
        assert w[0] == pytest.approx(beta_sq, rel=1e-8)
        assert w[-1] <= 1.0 + 1e-12
        assert exact_condition_number(alpha, 0.0) <= 1.0 / beta_sq + 1e-9

    def test_eigenvalues_within_theoretical_bounds(self, single_level, ctx):
        lms, _, _ = single_level
        beta_sq = inf_sup_constant(lms[-1]) ** 2
        for s in S_GRID:
            w = aux_pencil_eigenvalues(ctx, s)
            assert w[0] >= beta_sq ** (1.0 + s) - 1e-9
            assert w[-1] <= 1.0 + 1e-9

    def test_condition_monotone_in_exponent(self, alpha):
        grid = np.round(np.linspace(-1.0, 0.0, 11), 1)
        conds = [exact_condition_number(alpha, s) for s in grid]
        assert all(b >= a - 1e-12 for a, b in zip(conds, conds[1:]))

    def test_matches_brute_force_pencil(self, single_level, alpha):
        # Same number via the generic path: the preconditioner against the
        # inverse of the fractional operator it targets.
        lms, flux_pair, scalar_pair = single_level
        lm = lms[-1]
        dim = lm.mesh.num_triangles
        for s in (-0.5, -0.2):
            B = dense(build_exact(s, lm, flux_pair))
            op_inverse = power_matrix(scalar_pair, -s)
            brute = pencil_condition(B, op_inverse, dim)
            assert brute == pytest.approx(exact_condition_number(alpha, s), rel=1e-8)

    def test_exponent_outside_range_rejected(self, ctx, alpha):
        for bad in (0.1, -1.01):
            with pytest.raises(ValueError):
                aux_pencil_eigenvalues(ctx, bad)
            with pytest.raises(ValueError):
                exact_condition_number(alpha, bad)


class TestMultigridVariant:
    def test_composition_matches_manual(self, two_level):
        s = -0.6
        setup = multilevel_setup(two_level)
        lm = setup.finest
        aux = build_multigrid(s, setup)
        mg = AdditiveMultigrid(setup, 1.0 + s)
        rng = np.random.default_rng(32)
        u = rng.uniform(-1, 1, lm.mesh.num_triangles)
        got = aux.apply(TaggedVector("S", 1, "coefficient", u))
        expected = lm.grad.T @ mg.apply(lm.grad @ u)
        assert (got.space, got.level, got.rep) == ("S", 1, "dual")
        np.testing.assert_allclose(got.values, expected, atol=1e-12)

    def test_single_level_collapses_to_exact(self, single_level):
        # With one mesh level the multilevel inner solve is just the exact
        # coarse solve, so both variants produce the same matrix.
        lms, flux_pair, _ = single_level
        setup = multilevel_setup([lms[-1].mesh])
        for s in (-1.0, -0.5, 0.0):
            dense_mg = dense(build_multigrid(s, setup))
            dense_exact = dense(build_exact(s, lms[-1], flux_pair))
            np.testing.assert_allclose(
                dense_mg, dense_exact, atol=1e-10 * np.abs(dense_exact).max()
            )

    def test_symmetric_positive_definite(self, two_level):
        B = dense(build_multigrid(-0.5, multilevel_setup(two_level)))
        np.testing.assert_allclose(B, B.T, atol=1e-10 * np.abs(B).max())
        assert np.linalg.eigvalsh(0.5 * (B + B.T))[0] > 0

    def test_exponent_outside_range_rejected(self, two_level):
        setup = multilevel_setup(two_level)
        with pytest.raises(ValueError):
            build_multigrid(0.3, setup)
        with pytest.raises(ValueError):
            build_multigrid(-1.3, setup)
