import numpy as np
import pytest

from fracprec.mesh import build_hierarchy, build_level, vertex_patches

import oracles


def parent_triangles(coarse, fine):
    """Coarse triangle containing each fine triangle's centroid (barycentric
    test over all coarse triangles)."""
    cen = fine.vertices[fine.triangles].mean(axis=1)
    p = coarse.vertices[coarse.triangles]
    T = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    lam = np.linalg.solve(T[None], (cen[:, None, :] - p[None, :, 0])[..., None])[..., 0]
    inside = (lam >= -1e-12).all(axis=2) & (lam.sum(axis=2) <= 1 + 1e-12)
    assert (inside.sum(axis=1) == 1).all()
    return inside.argmax(axis=1)


def fine_edges_on(coarse, fine, e):
    """Fine edges lying on coarse edge e (both endpoints on the segment)."""
    pa, pb = coarse.vertices[coarse.edges[e]]
    rel = fine.vertices[fine.edges] - pa
    d = pb - pa
    cross = rel[..., 0] * d[1] - rel[..., 1] * d[0]
    t = rel @ d / (d @ d)
    on = (np.abs(cross) < 1e-12) & (t > -1e-12) & (t < 1 + 1e-12)
    return np.flatnonzero(on.all(axis=1))


class TestLevelCounts:
    def test_unit_cell(self):
        lvl = build_level(1)
        assert lvl.num_vertices == 4
        assert lvl.num_triangles == 2
        assert lvl.num_edges == 5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_count_formulas(self, n):
        lvl = build_level(n)
        assert lvl.num_vertices == (n + 1) ** 2
        assert lvl.num_triangles == 2 * n * n
        assert lvl.num_edges == 3 * n * n + 2 * n

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_euler_formula(self, n):
        lvl = build_level(n)
        assert lvl.num_vertices - lvl.num_edges + lvl.num_triangles == 1

    def test_areas_positive_and_uniform(self):
        lvl = build_level(3)
        a = lvl.areas()
        np.testing.assert_allclose(a, 1.0 / 18.0, rtol=1e-14)

    def test_triangles_counterclockwise(self):
        lvl = build_level(4)
        assert (lvl.areas() > 0).all()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_level(0)
        with pytest.raises(ValueError):
            build_hierarchy(0, 2)
        with pytest.raises(ValueError):
            build_hierarchy(2, 0)


class TestEdgesAndIncidence:
    def test_edges_low_to_high(self):
        lvl = build_level(3)
        assert (lvl.edges[:, 0] < lvl.edges[:, 1]).all()

    def test_every_edge_in_one_or_two_triangles(self):
        lvl = build_level(3)
        counts = np.bincount(lvl.triangle_edges.ravel(), minlength=lvl.num_edges)
        assert set(counts.tolist()) <= {1, 2}
        # 4n boundary edges on the square
        assert (counts == 1).sum() == 4 * lvl.n

    def test_signs_cancel_on_interior_edges(self):
        # The two triangles sharing an edge see opposite outward normals.
        lvl = build_level(4)
        total = np.zeros(lvl.num_edges)
        for t in range(lvl.num_triangles):
            for a in range(3):
                total[lvl.triangle_edges[t, a]] += lvl.triangle_edge_signs[t, a]
        interior = np.bincount(lvl.triangle_edges.ravel()) == 2
        np.testing.assert_array_equal(total[interior], 0)
        np.testing.assert_array_equal(np.abs(total[~interior]), 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_incidence_matches_per_triangle_loop(self, n):
        # Oracle: look every triangle side up among the rows of ``edges``.
        lvl = build_level(n)
        index = {(a, b): e for e, (a, b) in enumerate(lvl.edges.tolist())}
        tri_edges = np.empty_like(lvl.triangles)
        signs = np.empty_like(lvl.triangles)
        for t, tri in enumerate(lvl.triangles.tolist()):
            for a in range(3):
                u, w = tri[(a + 1) % 3], tri[(a + 2) % 3]
                e = index[(min(u, w), max(u, w))]
                tri_edges[t, a] = e
                signs[t, a] = 1 if u < w else -1
        np.testing.assert_array_equal(lvl.triangle_edges, tri_edges)
        np.testing.assert_array_equal(lvl.triangle_edge_signs, signs)

    def test_triangle_edges_opposite_vertex(self):
        lvl = build_level(2)
        for t, tri in enumerate(lvl.triangles):
            for a in range(3):
                e = lvl.triangle_edges[t, a]
                assert tri[a] not in lvl.edges[e]
                assert set(lvl.edges[e]) <= set(tri)


class TestHierarchy:
    def test_level_sizes(self):
        levels = build_hierarchy(1, 4)
        assert [lvl.n for lvl in levels] == [1, 2, 4, 8]
        assert levels[-1].num_edges == 208

    def test_single_level(self):
        levels = build_hierarchy(8, 1)
        assert len(levels) == 1
        assert levels[0].num_triangles == 128

    def test_vertices_nested(self):
        coarse, fine = build_hierarchy(2, 2)
        # Coarse vertex (i, j) lies at fine vertex (2i, 2j).
        for j in range(coarse.n + 1):
            for i in range(coarse.n + 1):
                c = j * (coarse.n + 1) + i
                f = 2 * j * (fine.n + 1) + 2 * i
                np.testing.assert_allclose(coarse.vertices[c], fine.vertices[f])

    def test_edge_children_cover_parent(self):
        coarse, fine = build_hierarchy(2, 2)
        kids = np.array([fine_edges_on(coarse, fine, e) for e in range(coarse.num_edges)])
        assert kids.shape == (coarse.num_edges, 2)
        assert len(np.unique(kids)) == 2 * coarse.num_edges
        for e in range(coarse.num_edges):
            a, b = coarse.edges[e]
            pa, pb = coarse.vertices[a], coarse.vertices[b]
            mid = 0.5 * (pa + pb)
            # One half runs from the lower endpoint to the midpoint, the
            # other from the midpoint to the upper endpoint.
            halves = [fine.vertices[fine.edges[k]] for k in kids[e]]
            if not any(np.allclose(p, pa) for p in halves[0]):
                halves.reverse()
            assert any(np.allclose(p, pa) for p in halves[0])
            assert any(np.allclose(p, mid) for p in halves[0])
            assert any(np.allclose(p, pb) for p in halves[1])
            assert any(np.allclose(p, mid) for p in halves[1])

    def test_triangle_children_partition(self):
        coarse, fine = build_hierarchy(2, 2)
        parents = parent_triangles(coarse, fine)
        np.testing.assert_array_equal(np.bincount(parents), 4)
        for c in range(coarse.num_triangles):
            kids = np.flatnonzero(parents == c)
            np.testing.assert_allclose(fine.areas()[kids].sum(), coarse.areas()[c], rtol=1e-14)
            # Every child vertex lies in the parent (barycentric test).
            p = coarse.vertices[coarse.triangles[c]]
            T = np.column_stack([p[1] - p[0], p[2] - p[0]])
            for v in fine.triangles[kids].ravel():
                lam = np.linalg.solve(T, fine.vertices[v] - p[0])
                assert lam.min() > -1e-12 and lam.sum() < 1 + 1e-12


def brute_force_star(level, v):
    """Patch oracle straight from the edge list."""
    return [e for e, (a, b) in enumerate(level.edges) if v in (a, b)]


class TestVertexPatches:
    def test_matches_brute_force(self):
        lvl = build_level(2)
        patches = vertex_patches(lvl)
        assert len(patches) == lvl.num_vertices
        for v, edge_ids in enumerate(patches):
            assert edge_ids.tolist() == brute_force_star(lvl, v)

    def test_star_sizes_n2(self):
        # All four cell diagonals of the 2x2 grid meet at the center vertex,
        # so it has the full 8-triangle star; every corner meets exactly one
        # diagonal and no boundary vertex is left with a single triangle.
        lvl = build_level(2)
        triangles = np.bincount(lvl.triangles.ravel())
        sizes = {v: (triangles[v], len(p)) for v, p in enumerate(vertex_patches(lvl))}
        center = 1 * 3 + 1
        assert sizes[center] == (8, 8)
        assert sizes[0] == (2, 3)          # corner (0, 0)
        assert sizes[2] == (2, 3)          # corner (1, 0)
        assert sizes[6] == (2, 3)          # corner (0, 1)
        assert sizes[8] == (2, 3)          # corner (1, 1)
        assert sizes[1] == (2, 3)          # boundary midpoint (1/2, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 128])
    def test_matches_the_edge_loop(self, n):
        lvl = build_level(n)
        got, want = vertex_patches(lvl), oracles.vertex_patches(lvl)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_each_edge_in_exactly_two_patches(self):
        lvl = build_level(4)
        count = np.zeros(lvl.num_edges, dtype=int)
        for edge_ids in vertex_patches(lvl):
            count[edge_ids] += 1
        np.testing.assert_array_equal(count, 2)
