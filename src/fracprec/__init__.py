"""Multilevel preconditioners for fractional powers of discrete gradient and
H(div) operators on structured triangulations of the unit square.

The package builds nested meshes whose cells alternate their split diagonal,
assembles lowest-order flux / piecewise-constant / vertex element matrices,
applies fractional operator powers through dense pencil eigendecompositions,
and combines exact coarse fractional solves with vertex-patch fractional
smoothers into an additive multilevel preconditioner.  Sandwiching that
solver between the discrete gradient and its transpose preconditions
negative fractional powers of the scalar operator.  Krylov utilities,
operator-inequality checks, and experiment-grid runners sit on top.
"""

from .vectors import SPACES, REPS, TagError, TaggedVector, pair
from .mesh import (
    MeshHierarchy,
    MeshLevel,
    VertexPatch,
    build_hierarchy,
    build_level,
    vertex_patches,
)
from .fem import (
    LevelMatrices,
    apply_curl,
    apply_grad,
    apply_grad_transpose,
    assemble,
    assemble_all,
    assemble_prolongation,
    helmholtz_decompose,
    laplacian_dual,
)
from .spectral import (
    HelmholtzPair,
    PencilError,
    SpectralPair,
    apply_power,
    densify,
    generalized_eig,
    inf_sup_constant,
    power_matrix,
    solve_power,
)
from .multigrid import (
    AdditiveMultigrid,
    MultilevelSetup,
    PatchSmoother,
    multilevel_setup,
    precompute_patches,
)
from .auxiliary import (
    AuxiliaryPreconditioner,
    AuxSpectrumContext,
    aux_pencil_eigenvalues,
    build_exact,
    build_multigrid,
    exact_condition_number,
    make_aux_spectrum_context,
)
from .krylov import IndefinitenessError, SolveReport, lanczos_condition, pcg, pencil_condition
from .tables import (
    CellResult,
    ExperimentConfig,
    TableResult,
    default_config,
    run_props,
    run_table1,
    run_table2,
    run_table3,
)
from .verify import InequalityReport, run_all as run_property_checks

__version__ = "0.1.0"

__all__ = [
    "SPACES", "REPS", "TagError", "TaggedVector", "pair",
    "MeshHierarchy", "MeshLevel", "VertexPatch",
    "build_hierarchy", "build_level", "vertex_patches",
    "LevelMatrices",
    "apply_curl", "apply_grad", "apply_grad_transpose",
    "assemble", "assemble_all", "assemble_prolongation",
    "helmholtz_decompose", "laplacian_dual",
    "HelmholtzPair", "PencilError", "SpectralPair",
    "apply_power", "densify", "generalized_eig", "inf_sup_constant", "power_matrix",
    "solve_power",
    "AdditiveMultigrid", "MultilevelSetup", "PatchSmoother", "multilevel_setup",
    "precompute_patches",
    "AuxiliaryPreconditioner", "AuxSpectrumContext", "aux_pencil_eigenvalues",
    "build_exact", "build_multigrid", "exact_condition_number", "make_aux_spectrum_context",
    "IndefinitenessError", "SolveReport", "lanczos_condition", "pcg", "pencil_condition",
    "CellResult", "ExperimentConfig", "TableResult", "default_config",
    "run_props", "run_table1", "run_table2", "run_table3",
    "InequalityReport", "run_property_checks",
    "__version__",
]
