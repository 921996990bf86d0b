"""The fixed-exponent maps of tables 1 and 3 against the per-call formulas
they replace (``oracles``), bit for bit but for the order of the
preconditioner's up-sweep sums, and what a PCG iteration pays."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from fracprec import tables
from fracprec.auxiliary import build_multigrid
from fracprec.multigrid import AdditiveMultigrid
from fracprec.spectral import FourierModes, helmholtz_power
from fracprec.vectors import TaggedVector, TagError

import oracles

TABLE_S = {"1": (0.0, 0.3, 1.0), "3": (-1.0, -0.3, 0.0)}


@pytest.fixture(scope="module", params=[("1", 8), ("1", 16), ("3", 8), ("3", 16)],
                ids=lambda p: f"table{p[0]}-n{p[1]}")
def setup(request):
    table, n = request.param
    return table, tables._HierarchySetup(n, tables.default_config(table, sizes=(n,)))


def system_dim(table, hs):
    """Edges for table 1, triangles for table 3."""
    mesh = hs.multilevel.finest.mesh
    return mesh.num_edges if table == "1" else mesh.num_triangles


def test_operator_map_is_the_per_call_formula(setup):
    table, hs = setup
    fine, scalar = hs.multilevel.finest, hs.scalar
    assert isinstance(scalar.modes, FourierModes)
    x = np.random.default_rng(0).uniform(-1, 1, system_dim(table, hs))
    for s in TABLE_S[table]:
        if table == "1":
            got = helmholtz_power(scalar, fine, s)(x)
            want = oracles.helmholtz_power(scalar, fine, s, x)
        else:
            got, want = scalar.inverse_power(-s)(x), oracles.solve_power(scalar, -s, x)
        assert np.array_equal(got, want)


def test_preconditioner_is_the_level_loop(setup):
    # Down, each frame's transposed product is bitwise the restriction and
    # the patch coefficients taken apart; up, U @ [acc; y] adds P @ acc and
    # Q @ y in one sum where the loop adds two, so they part by roundoff.
    table, hs = setup
    fine, ml = hs.multilevel.finest, hs.multilevel
    rng = np.random.default_rng(1)
    for k, Ut in enumerate(ml.frames_t, start=1):
        P, patch = oracles.frame_parts(ml, k)
        x = rng.uniform(-1, 1, Ut.shape[1])
        assert np.array_equal(Ut @ x, np.r_[P.T.tocsr() @ x, patch.modes.T @ x])
    d = rng.uniform(-1, 1, fine.mesh.num_edges)
    u = rng.uniform(-1, 1, fine.mesh.num_triangles)
    for s in TABLE_S[table]:
        if table == "1":
            got = AdditiveMultigrid(ml, s).apply(d)
            want = oracles.multigrid_apply(ml, s, d)
        else:
            got = build_multigrid(s, ml).apply(u)
            want = fine.grad.T @ oracles.multigrid_apply(ml, 1.0 + s, fine.grad @ u)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_maps_check_the_tags(setup):
    table, hs = setup
    k, dim = hs.multilevel.finest.index, system_dim(table, hs)
    space, other = ("V", "S") if table == "1" else ("S", "V")
    if table == "1":
        maps = [(helmholtz_power(hs.scalar, hs.multilevel.finest, 0.3), "coefficient"),
                (AdditiveMultigrid(hs.multilevel, 0.3).apply, "dual")]
    else:
        maps = [(hs.scalar.inverse_power(0.3), "dual"),
                (build_multigrid(-0.3, hs.multilevel).apply, "coefficient")]
    flip = {"dual": "coefficient", "coefficient": "dual"}
    for power, rep in maps:
        out = power(TaggedVector(space, k, rep, np.ones(dim)))
        assert (out.space, out.level, out.rep) == (space, k, flip[rep])
        for bad in (TaggedVector(other, k, rep, np.ones(dim)),
                    TaggedVector(space, k - 1, rep, np.ones(dim)),
                    TaggedVector(space, k, flip[rep], np.ones(dim))):
            with pytest.raises(TagError):
                power(bad)


@pytest.mark.parametrize("table", ["1", "3"])
def test_pcg_iterations_build_no_sparse_transpose(table, monkeypatch):
    # One cell run twice from one set-up: capped at 3 iterations, then to
    # convergence.  The sparse transposes a cell creates must not grow with
    # its iterations.
    cfg = tables.default_config(table, sizes=(8,))
    hs = tables._HierarchySetup(8, cfg)
    calls = []
    for cls in (sp.csr_matrix, sp.csc_matrix, sp.csr_array, sp.csc_array):
        def counted(self, *args, _transpose=cls.transpose, **kwargs):
            calls.append(type(self).__name__)
            return _transpose(self, *args, **kwargs)
        monkeypatch.setattr(cls, "transpose", counted)
    s = cfg.s_values[5]
    counts, iters = [], []
    for maxit in (3, cfg.maxit):
        calls.clear()
        cell = tables._run_krylov_cell(hs, s, replace(cfg, maxit=maxit))
        counts.append(len(calls))
        iters.append(cell.iters)
    assert iters[0] == 3 < iters[1]
    assert counts[0] == counts[1]


def test_sparse_modes_are_stored_once():
    # The transposed modes a pair keeps are a view of its modes, and so are
    # the transposed frames of the multilevel set-up, which keeps no other
    # sparse matrix: no embedding and no restriction of its own.
    hs = tables._HierarchySetup(8, tables.default_config("1", sizes=(8,)))
    ml, scalar = hs.multilevel, hs.scalar
    assert np.shares_memory(scalar._modes_t.blocks.data, scalar.modes.blocks.data)
    assert len(ml.frames) == len(ml.frames_t) == 3
    for U, Ut in zip(ml.frames, ml.frames_t):
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(Ut, name), getattr(U, name))
    kept = [m for value in vars(ml).values()
            for m in (value if isinstance(value, tuple) else (value,)) if sp.issparse(m)]
    assert [id(m) for m in kept] == [id(m) for m in (*ml.frames, *ml.frames_t)]


@pytest.mark.parametrize("table, products", [("1", 6), ("3", 8)])
def test_one_sparse_product_per_level_and_direction(table, products, monkeypatch):
    # At 4 levels: one transposed frame product per level down and one frame
    # product up; the sandwich adds grad and grad.T.  The coarse solve is dense.
    hs = tables._HierarchySetup(8, tables.default_config(table, sizes=(8,)))
    ml, calls = hs.multilevel, []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        def counted(self, other, _matmul=cls.__matmul__):
            calls.append(type(self).__name__)
            return _matmul(self, other)
        monkeypatch.setattr(cls, "__matmul__", counted)
    if table == "1":
        precond, x = AdditiveMultigrid(ml, 0.5).apply, np.ones(ml.finest.mesh.num_edges)
    else:
        precond, x = build_multigrid(-0.5, ml).apply, np.ones(ml.finest.mesh.num_triangles)
    precond(x)
    assert len(ml.frames) == 3 and len(calls) == products
