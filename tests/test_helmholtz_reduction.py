"""The Helmholtz-reduced spectral reference against the dense flux pencil.

The grids diagonalize only the scalar pencil of the finest mesh; these
checks hold the reduced forward power, the closed-form condition numbers and
the inf-sup constant to the brute-force flux-pencil route on small meshes.
"""

import numpy as np
import pytest

from fracprec.auxiliary import (
    aux_pencil_eigenvalues,
    exact_condition_number,
    make_aux_spectrum_context,
)
from fracprec.fem import assemble_all, laplacian_dual
from fracprec.mesh import build_hierarchy
from fracprec.spectral import (
    HelmholtzPair,
    apply_power,
    generalized_eig,
    inf_sup_constant,
    solve_power,
)
from fracprec.tables import NEGATIVE_S
from fracprec.vectors import TaggedVector, TagError


@pytest.fixture(scope="module", params=[2, 4, 8])
def level(request):
    lm = assemble_all(build_hierarchy(request.param, 1))[-1]
    flux_pair = generalized_eig(lm.hdiv, lm.mass_v, space="V", level=0)
    scalar_pair = generalized_eig(laplacian_dual(lm), lm.mass_s, space="S", level=0)
    return lm, flux_pair, scalar_pair


@pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
def test_forward_power_matches_flux_pencil(level, s):
    lm, flux_pair, scalar_pair = level
    reduced = HelmholtzPair(scalar_pair, lm)
    rng = np.random.default_rng(40)
    for _ in range(3):
        c = rng.uniform(-1, 1, lm.mesh.num_edges)
        dense = apply_power(flux_pair, s, c)
        got = apply_power(reduced, s, c)
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)


def test_closed_form_condition_matches_coupling_route(level):
    lm, flux_pair, scalar_pair = level
    ctx = make_aux_spectrum_context(lm, flux_pair, scalar_pair)
    for s in NEGATIVE_S:
        w = aux_pencil_eigenvalues(ctx, s)
        assert exact_condition_number(scalar_pair.eigenvalues, s) == pytest.approx(
            w[-1] / w[0], rel=1e-10
        )


def test_smallest_ratio_is_inf_sup_squared(level):
    lm, _, scalar_pair = level
    alpha = scalar_pair.eigenvalues
    r_min = (alpha / (1.0 + alpha)).min()
    assert r_min == pytest.approx(inf_sup_constant(lm) ** 2, rel=1e-10)


def test_reduced_pair_tags(level):
    lm, _, scalar_pair = level
    reduced = HelmholtzPair(scalar_pair, lm)
    ne = lm.mesh.num_edges
    assert reduced.dim == ne and reduced.modes is scalar_pair.modes
    out = apply_power(reduced, 0.5, TaggedVector("V", 0, "coefficient", np.ones(ne)))
    assert (out.space, out.level, out.rep) == ("V", 0, "dual")
    for bad in (TaggedVector("V", 0, "dual", np.ones(ne)),
                TaggedVector("V", 1, "coefficient", np.ones(ne)),
                TaggedVector("S", 0, "coefficient", np.ones(lm.mesh.num_triangles))):
        with pytest.raises(TagError):
            apply_power(reduced, 0.5, bad)
    with pytest.raises(TypeError):
        solve_power(reduced, 0.5, TaggedVector("V", 0, "dual", np.ones(ne)))
