"""The fixed-exponent maps of tables 1 and 3 against the per-call formulas
they replace (``oracles``), bit for bit, and what a PCG iteration pays."""

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
    table, hs = setup
    fine = hs.multilevel.finest
    rng = np.random.default_rng(1)
    d = rng.uniform(-1, 1, fine.mesh.num_edges)
    u = rng.uniform(-1, 1, fine.mesh.num_triangles)
    for s in TABLE_S[table]:
        if table == "1":
            got = AdditiveMultigrid(hs.multilevel, s).apply(d)
            assert np.array_equal(got, oracles.multigrid_apply(hs.multilevel, s, d))
        else:
            got = build_multigrid(s, hs.multilevel).apply(u)
            flux = oracles.multigrid_apply(hs.multilevel, 1.0 + s, fine.grad @ u)
            assert np.array_equal(got, fine.grad.T @ flux)


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
