"""Property tests (derandomized hypothesis): size resolution, tag algebra
and PCG on random SPD pencils."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracprec.krylov import pcg, pencil_condition
from fracprec.tables import resolve_size
from fracprec.vectors import REPS, SPACES, TagError, TaggedVector, pair

derandomized = settings(derandomize=True, database=None, max_examples=200, deadline=None)

DIMENSION = {  # system dimension N of the grid with n cells per side
    "1": lambda n: 3 * n * n + 2 * n,
    "2": lambda n: 2 * n * n,
    "3": lambda n: 2 * n * n,
}
VALID = {table: {dim(n) for n in range(1, 3000)} for table, dim in DIMENSION.items()}


@derandomized
@given(st.sampled_from(sorted(DIMENSION)), st.integers(1, 2000))
def test_resolve_size_round_trip(table, n):
    N = DIMENSION[table](n)
    assume(N >= 100)  # smaller values are read as n itself
    assert resolve_size(N, table) == n


@derandomized
@given(st.sampled_from(sorted(DIMENSION)), st.integers(100, 2 * 10**6))
def test_resolve_size_rejects_non_dimensions(table, value):
    if value in VALID[table]:
        assert DIMENSION[table](resolve_size(value, table)) == value
    else:
        with pytest.raises(ValueError):
            resolve_size(value, table)


tags = st.tuples(st.sampled_from(SPACES), st.integers(0, 6), st.sampled_from(REPS))
finite = st.floats(-1e6, 1e6, allow_nan=False)


def vector(tag, values):
    return TaggedVector(*tag, np.asarray(values))


@derandomized
@given(tags, st.lists(st.tuples(finite, finite), min_size=1, max_size=8), finite)
def test_algebra_keeps_tags(tag, pairs, alpha):
    a = vector(tag, [p[0] for p in pairs])
    b = vector(tag, [p[1] for p in pairs])
    for out in (a + b, a - b, alpha * a, a * alpha, -a):
        assert (out.space, out.level, out.rep) == tag
    np.testing.assert_array_equal((a + b).values, a.values + b.values)
    np.testing.assert_array_equal((a - b).values, a.values - b.values)
    np.testing.assert_array_equal((alpha * a).values, a.values * alpha)


@derandomized
@given(tags, tags, st.lists(finite, min_size=1, max_size=8))
def test_mismatched_tags_raise(tag_a, tag_b, values):
    assume(tag_a != tag_b)
    a, b = vector(tag_a, values), vector(tag_b, values)
    with pytest.raises(TagError):
        a + b
    with pytest.raises(TagError):
        a - b


def random_spd(rng, dim):
    C = rng.standard_normal((dim, dim))
    return C @ C.T + 0.1 * dim * np.eye(dim)


@derandomized
@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_pcg_on_random_spd_pencils(dim, seed):
    rng = np.random.default_rng(seed)
    A = random_spd(rng, dim)  # operator: coefficient -> dual
    B = random_spd(rng, dim)  # preconditioner: dual -> coefficient
    tol = 1e-8
    rhs = TaggedVector("V", 0, "dual", rng.standard_normal(dim))
    x0 = TaggedVector("V", 0, "coefficient", rng.standard_normal(dim))
    op = lambda v: TaggedVector("V", 0, "dual", A @ v.values)
    precond = lambda r: TaggedVector("V", 0, "coefficient", B @ r.values)
    x, report = pcg(op, precond, rhs, x0, tol=tol)
    assert report.converged and report.residual_history[-1] <= tol
    # The returned iterate, not only the recurrence, meets the tolerance.
    r0, r = rhs - op(x0), rhs - op(x)
    assert np.sqrt(pair(precond(r), r) / pair(precond(r0), r0)) <= 10 * tol
    # Ritz values lie inside the spectrum of B A, the pencil (A, inv(B)).
    Binv = np.linalg.inv(B)
    exact = pencil_condition(A, 0.5 * (Binv + Binv.T), dim)
    assert report.cond_estimate <= exact * (1 + 1e-8)
