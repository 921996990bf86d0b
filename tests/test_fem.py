import dataclasses
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from fracprec import fem
from fracprec.fem import (assemble, assemble_all, assemble_curl, assemble_prolongation,
                          laplacian_dual)
from fracprec.mesh import build_hierarchy, build_level
from fracprec.vectors import TaggedVector, TagError

import oracles


def flux_mass_oracle(level):
    """Flux mass matrix by an unrelated quadrature (degree-3 exact 4-point
    rule), straight from the definition."""
    M = np.zeros((level.num_edges, level.num_edges))
    qb = np.array(
        [[1 / 3, 1 / 3, 1 / 3], [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
    )
    qw = np.array([-27 / 48, 25 / 48, 25 / 48, 25 / 48])
    for t, tri in enumerate(level.triangles):
        p = level.vertices[tri]
        area = level.areas()[t]
        for a in range(3):
            for b in range(3):
                ea, eb = level.triangle_edges[t, a], level.triangle_edges[t, b]
                sa, sb = level.triangle_edge_signs[t, [a, b]]
                acc = 0.0
                for lam, w in zip(qb, qw):
                    x = lam @ p
                    acc += w * ((x - p[a]) @ (x - p[b])) / (2 * area) ** 2
                M[ea, eb] += sa * sb * acc * area
    return M


class TestAssembly:
    def test_mass_s_unit_cell(self):
        lm = assemble(build_level(1))
        np.testing.assert_allclose(lm.mass_s.toarray(), 0.5 * np.eye(2))

    def test_grad_unit_cell(self):
        # Hand-derived from the edge orientations of the n=1 mesh.
        lm = assemble(build_level(1))
        expected = np.array(
            [[-1, 0], [0, 1], [0, 1], [-1, 0], [1, -1]], dtype=float
        )
        np.testing.assert_allclose(lm.grad.toarray(), expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_flux_mass_against_quadrature_oracle(self, n):
        level = build_level(n)
        lm = assemble(level)
        np.testing.assert_allclose(lm.mass_v.toarray(), flux_mass_oracle(level), atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_divdiv_equals_grad_route(self, n):
        # Two independent sign conventions must meet: hdiv - mass_v ==
        # grad @ inv(mass_s) @ grad.T holds exactly against <div.,div.>
        # assembled from local divergences, down to the sorted CSR arrays.
        level = build_level(n)
        lm = assemble(level)
        hdiv, expected = lm.hdiv, (lm.mass_v + oracles.divdiv(level)).tocsr()
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(hdiv, name), getattr(expected, name)), name

    def test_hdiv_is_derived_not_stored(self):
        assert "hdiv" not in {f.name for f in dataclasses.fields(fem.LevelMatrices)}

    @pytest.mark.parametrize("n", [1, 2])
    def test_curl_against_quadrature_oracle(self, n):
        # Rebuild the rotated-gradient pairings from scratch: hat gradients
        # from the affine interpolation system, fluxes by 4-point quadrature.
        level = build_level(n)
        lm = assemble(level)
        K = np.zeros((level.num_edges, level.num_vertices))
        qb = np.array(
            [[1 / 3, 1 / 3, 1 / 3], [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
        )
        qw = np.array([-27 / 48, 25 / 48, 25 / 48, 25 / 48])
        for t, tri in enumerate(level.triangles):
            p = level.vertices[tri]
            area = level.areas()[t]
            V = np.column_stack([np.ones(3), p])
            for a in range(3):
                coef = np.linalg.solve(V, np.eye(3)[a])  # hat = c0 + c1 x + c2 y
                rot = np.array([coef[2], -coef[1]])
                for b in range(3):
                    e, sgn = level.triangle_edges[t, b], level.triangle_edge_signs[t, b]
                    acc = 0.0
                    for lam, w in zip(qb, qw):
                        x = lam @ p
                        acc += w * (rot @ (x - p[b])) / (2 * area)
                    K[e, tri[a]] += sgn * acc * area
        np.testing.assert_allclose(assemble_curl(level).toarray(), K, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_curl_columns_divergence_free(self, n):
        level = build_level(n)
        lm = assemble(level)
        lu = spla.splu(lm.mass_v.tocsc())
        assert np.abs(lm.grad.T @ lu.solve(assemble_curl(level).toarray())).max() < 1e-12

    def test_curl_kills_constants(self):
        level = build_level(3)
        assert np.abs(assemble_curl(level) @ np.ones(level.num_vertices)).max() < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_curl_orthogonal_to_gradients(self, n):
        level = build_level(n)
        lm = assemble(level)
        lu = spla.splu(lm.mass_v.tocsc())
        orth = assemble_curl(level).toarray().T @ lu.solve(lm.grad.toarray())
        assert np.abs(orth).max() < 1e-12

    def test_boundary_flux_of_constant(self):
        # grad applied to the constant 1 picks out (minus) the net outward
        # boundary flux of each basis function: +-1 on boundary edges, 0 inside.
        level = build_level(3)
        lm = assemble(level)
        d = lm.grad @ np.ones(level.num_triangles)
        mid = 0.5 * (level.vertices[level.edges[:, 0]] + level.vertices[level.edges[:, 1]])
        tang = level.vertices[level.edges[:, 1]] - level.vertices[level.edges[:, 0]]
        normal = np.column_stack([tang[:, 1], -tang[:, 0]])
        probe = mid + 0.25 * normal
        outside = (probe < 0).any(axis=1) | (probe > 1).any(axis=1)
        expected = np.zeros(level.num_edges)
        boundary = np.bincount(level.triangle_edges.ravel()) == 1
        expected[boundary] = np.where(outside[boundary], -1.0, 1.0)
        np.testing.assert_allclose(d, expected, atol=1e-12)

    def test_laplacian_dual_spd(self):
        lm = assemble(build_level(2))
        A = laplacian_dual(lm).toarray()
        np.testing.assert_allclose(A, A.T, atol=1e-14)
        assert np.linalg.eigvalsh(A).min() > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12])
    def test_laplacian_dual_matches_dense_solve(self, n):
        # The sparse triangular route against a dense solve with all of grad.
        lm = assemble(build_level(n))
        grad = lm.grad.toarray()
        dense = grad.T @ np.linalg.solve(lm.mass_v.toarray(), grad)
        A = laplacian_dual(lm)
        assert sp.issparse(A)
        assert np.diff(A.tocsr().indptr).max() <= 5  # a cell-centred stencil
        np.testing.assert_allclose(A.toarray(), dense, rtol=0, atol=1e-14 * np.abs(dense).max())

    @pytest.mark.parametrize("n", [6, 8, 16, 32])
    def test_laplacian_dual_drops_only_roundoff_fill(self, n, monkeypatch):
        # At powers of two the product has no fill, so the drop leaves the
        # matrix as it was, bit for bit; elsewhere it removes the fill
        # (72 entries a row at n = 6) down to the cell stencil.
        lm = assemble(build_level(n))
        A = laplacian_dual(lm)
        monkeypatch.setattr(fem, "FILL_TOL", 0.0)
        kept = laplacian_dual(lm)
        assert np.diff(A.indptr).max() <= 5
        if n & (n - 1) == 0:
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(A, name), getattr(kept, name))
        else:
            assert kept.nnz > 10 * A.nnz

    def test_laplacian_dual_refuses_a_pivoted_factorization(self):
        # A zero diagonal block forces SuperLU off the symmetric ordering.
        lm = assemble(build_level(1))
        mass = sp.block_diag([[[0.0, 1.0], [1.0, 0.0]], sp.eye(3)], format="csr")
        with pytest.raises(np.linalg.LinAlgError, match="symmetric ordering"):
            laplacian_dual(replace(lm, mass_v=mass))


class TestProlongation:
    def setup_method(self):
        self.levels = build_hierarchy(2, 2)
        self.lms = assemble_all(self.levels)
        self.flux = assemble_prolongation(*self.levels)

    def test_shapes(self):
        c, f = self.levels
        assert self.flux.shape == (f.num_edges, c.num_edges)

    def test_halves_of_coarse_edges_carry_half_flux(self):
        coarse, fine = self.levels
        for e in range(coarse.num_edges):
            # The two fine edges lying on coarse edge e, found by geometry.
            pa, pb = coarse.vertices[coarse.edges[e]]
            rel = fine.vertices[fine.edges] - pa
            d = pb - pa
            t = rel @ d / (d @ d)
            collinear = np.abs(rel[..., 0] * d[1] - rel[..., 1] * d[0]) < 1e-12
            on = collinear & (t > -1e-12) & (t < 1 + 1e-12)
            kids = np.flatnonzero(on.all(axis=1))
            assert len(kids) == 2
            for k in kids:
                assert self.flux[k, e] == pytest.approx(0.5)

    def test_flux_mass_nested(self):
        # Exact embedding: the Galerkin products reproduce the coarse matrices.
        c, f = self.lms
        P = self.flux
        np.testing.assert_allclose(
            (P.T @ f.mass_v @ P).toarray(), c.mass_v.toarray(), atol=1e-13
        )
        np.testing.assert_allclose(
            (P.T @ f.hdiv @ P).toarray(), c.hdiv.toarray(), atol=1e-12
        )

    def test_divergence_commutes_with_embedding(self):
        c, f = self.lms
        # Cell injection: each fine triangle takes the value of the coarse
        # triangle containing its centroid.
        cen = f.mesh.vertices[f.mesh.triangles].mean(axis=1)
        p = c.mesh.vertices[c.mesh.triangles]
        T = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        lam = np.linalg.solve(T[None], (cen[:, None, :] - p[None, :, 0])[..., None])[..., 0]
        inside = (lam >= -1e-12).all(axis=2) & (lam.sum(axis=2) <= 1 + 1e-12)
        assert (inside.sum(axis=1) == 1).all()
        nf = f.mesh.num_triangles
        cells = sp.csr_matrix(
            (np.ones(nf), (np.arange(nf), inside.argmax(axis=1))),
            shape=(nf, c.mesh.num_triangles),
        )
        left = (f.grad.T @ self.flux).toarray()
        right = (f.mass_s @ cells @ np.diag(1 / c.mass_s.diagonal())) @ c.grad.T.toarray()
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_larger_hierarchy_nested(self):
        levels = build_hierarchy(1, 3)
        lms = assemble_all(levels)
        for k in range(2):
            P = assemble_prolongation(levels[k], levels[k + 1])
            np.testing.assert_allclose(
                (P.T @ lms[k + 1].hdiv @ P).toarray(), lms[k].hdiv.toarray(), atol=1e-12
            )

    def test_refuses_a_pair_that_is_not_a_refinement(self):
        with pytest.raises(ValueError, match=r"n=3.*n=2"):
            assemble_prolongation(build_level(2), build_level(3))
        with pytest.raises(ValueError, match=r"n=2.*n=2"):
            assemble_prolongation(build_level(2), build_level(2))


class TestHelmholtz:
    @staticmethod
    def split(lm, tau):
        """Split flux coefficients into a gradient part and a rotated-gradient
        part: ``(u, q)`` with ``grad @ u + curl @ q == mass_v @ tau`` (dual
        form of ``tau = grad_h u + rot q``).  The vertex function q is pinned
        to zero at vertex 0; without the pin the vertex system is singular
        (rot kills constants)."""
        u = np.linalg.solve(laplacian_dual(lm).toarray(), lm.grad.T @ tau)
        lu = spla.splu(lm.mass_v.tocsc())
        K = assemble_curl(lm.mesh).toarray()
        C = K.T @ lu.solve(K)
        rhs = K.T @ tau
        q = np.zeros(lm.mesh.num_vertices)
        q[1:] = np.linalg.solve(0.5 * (C + C.T)[1:, 1:], rhs[1:])
        return u, q

    @pytest.mark.parametrize("n", [2, 4])
    def test_reconstruction_and_orthogonality(self, n):
        lm = assemble(build_level(n))
        rng = np.random.default_rng(42)
        tau = rng.uniform(-1, 1, lm.mesh.num_edges)
        u, q = self.split(lm, tau)
        du = lm.grad @ u
        kq = assemble_curl(lm.mesh) @ q
        np.testing.assert_allclose(du + kq, lm.mass_v @ tau, atol=1e-10)
        lu = spla.splu(lm.mass_v.tocsc())
        assert abs(du @ lu.solve(kq)) < 1e-10

    def test_pythagoras(self):
        lm = assemble(build_level(3))
        rng = np.random.default_rng(7)
        tau = rng.uniform(-1, 1, lm.mesh.num_edges)
        u, q = self.split(lm, tau)
        lu = spla.splu(lm.mass_v.tocsc())
        du = lm.grad @ u
        kq = assemble_curl(lm.mesh) @ q
        total = tau @ lm.mass_v @ tau
        np.testing.assert_allclose(
            du @ lu.solve(du) + kq @ lu.solve(kq), total, rtol=1e-10
        )

    def test_pin_is_set(self):
        lm = assemble(build_level(2))
        _, q = self.split(lm, np.ones(lm.mesh.num_edges))
        assert q[0] == 0.0


class TestVectors:
    def test_pairing_requires_opposite_reps(self):
        a = TaggedVector("S", 0, "coefficient", np.ones(3))
        b = TaggedVector("S", 0, "dual", np.full(3, 2.0))
        from fracprec.vectors import pair

        assert pair(a, b) == pytest.approx(6.0)
        with pytest.raises(TagError):
            pair(a, a)
        with pytest.raises(TagError):
            pair(a, TaggedVector("V", 0, "dual", np.ones(3)))

    def test_arithmetic_preserves_tags(self):
        a = TaggedVector("V", 1, "dual", np.arange(3.0))
        b = TaggedVector("V", 1, "dual", np.ones(3))
        c = a + 2.0 * b - b
        assert (c.space, c.level, c.rep) == ("V", 1, "dual")
        np.testing.assert_allclose(c.values, np.arange(3.0) + 1)
        with pytest.raises(TagError):
            a + TaggedVector("V", 0, "dual", np.ones(3))
