"""Multilevel preconditioners for fractional powers of discrete gradient and
H(div) operators on structured triangulations of the unit square.

The package builds nested meshes whose cells alternate their split diagonal,
assembles lowest-order flux / piecewise-constant / vertex element matrices,
applies fractional operator powers through pencil eigendecompositions (dense
on coarse meshes and patches, by FFT for the fine scalar pencil), and
combines exact coarse fractional solves with vertex-patch fractional
smoothers into an additive multilevel preconditioner.  Sandwiching that
solver between the discrete gradient and its transpose preconditions
negative fractional powers of the scalar operator.  Krylov utilities,
operator-inequality checks, and experiment-grid runners sit on top.

The top level exports the names of the README's Library example plus the
error types; everything else is reached through its module
(``fracprec.spectral.helmholtz_power``, ``fracprec.verify.check_jensen``, ...).
"""

from .vectors import TagError, TaggedVector
from .mesh import build_hierarchy
from .fem import assemble_all
from .spectral import PencilError, apply_power, generalized_eig, solve_power
from .multigrid import AdditiveMultigrid, multilevel_setup
from .auxiliary import build_exact, build_multigrid
from .krylov import IndefinitenessError, pcg
from .tables import run_table1, run_table2, run_table3
from .verify import run_all as run_property_checks

__version__ = "0.1.0"

__all__ = [
    "build_hierarchy", "assemble_all",
    "generalized_eig", "solve_power", "apply_power",
    "multilevel_setup", "AdditiveMultigrid",
    "build_exact", "build_multigrid",
    "pcg", "TaggedVector",
    "run_table1", "run_table2", "run_table3",
    "run_property_checks",
    "TagError", "PencilError", "IndefinitenessError",
    "__version__",
]
