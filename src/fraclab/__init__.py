"""fraclab: numerical laboratory for the two fractional Laplacians of a bounded domain.

Builds the spectral ("Navier") and restricted ("Dirichlet") fractional
operators on box grids, verifies their comparison properties at matrix
level, solves the weighted extension problem that realizes both forms, and
estimates critical Sobolev constants against the closed-form value.
"""

__version__ = "0.1.0"

from .analysis import (
    QuotientResult,
    SobolevSetup,
    SweepRow,
    dilation_sweep,
    extremal_function,
    gamma,
    lp_norm,
    minimize_quotient,
    rayleigh_quotient,
    sobolev_constant_closed_form,
)
from .domain import (
    BoxGrid,
    GridFunction,
    SubDomain,
    dilate,
    extend_by_zero,
    make_box,
    make_shape,
    parse_shape_spec,
)
from .extension import (
    ExtensionMesh,
    ExtensionSolution,
    default_grading,
    energy_identity_check,
    extension_constant,
    extension_ordering_check,
    graded_mesh,
    solve_extension,
    trace_limit,
)
from .linalg import (
    EigenDecomposition,
    eigendecompose,
    eigenvalues,
    spectral_power,
    sym_matrix,
)
from .operators import (
    SpectrumComparison,
    SymOperator,
    compare_spectra,
    difference_operator,
    dirichlet_operator,
    fourier_form,
    monotonicity_check,
    navier_operator,
)

__all__ = [
    "__version__",
    "BoxGrid", "SubDomain", "GridFunction",
    "make_box", "make_shape", "parse_shape_spec",
    "extend_by_zero", "dilate",
    "EigenDecomposition", "sym_matrix", "eigendecompose", "eigenvalues", "spectral_power",
    "SymOperator", "SpectrumComparison",
    "navier_operator", "dirichlet_operator",
    "fourier_form", "difference_operator", "compare_spectra", "monotonicity_check",
    "ExtensionMesh", "ExtensionSolution", "graded_mesh", "default_grading",
    "solve_extension", "energy_identity_check", "trace_limit",
    "extension_ordering_check",
    "SobolevSetup", "QuotientResult", "SweepRow",
    "gamma", "extension_constant", "sobolev_constant_closed_form",
    "extremal_function", "lp_norm", "rayleigh_quotient",
    "minimize_quotient", "dilation_sweep",
]
