"""Effective conductivity of doubly periodic composites with circular
inclusions: lattice kernels, structural sums, series expansions, a direct
functional-equation solver and Monte Carlo ensemble averaging."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    EffcondError,
    GenerationError,
    InvalidCellError,
    NearSingularityError,
)
from .lattice import Cell, eisenstein, lattice_sum, make_cell
from .geometry import (
    DiskConfiguration,
    EnsembleDescriptor,
    load_configuration,
    regular_array,
    rsa_generate,
    save_configuration,
    trial_seed,
)
from .esums import esum, esum_nn, kernel_matrix
from .series import (
    ClusterCoefficients,
    EffectiveResult,
    a13,
    cluster_coeffs,
    lambda_cluster,
    lambda_contrast,
    lambda_dilute,
    lambda_pade,
    zeta1,
)
from .solver import SolveResult, TaylorField, solve_contrast
from .pipeline import (
    EnsembleStats,
    compare_methods,
    parse_quantity,
    run_ensemble,
    write_run,
)

__all__ = [
    "Cell",
    "ClusterCoefficients",
    "ConvergenceError",
    "DiskConfiguration",
    "DomainError",
    "EffcondError",
    "EffectiveResult",
    "EnsembleDescriptor",
    "EnsembleStats",
    "GenerationError",
    "InvalidCellError",
    "NearSingularityError",
    "SolveResult",
    "TaylorField",
    "a13",
    "cluster_coeffs",
    "compare_methods",
    "eisenstein",
    "esum",
    "esum_nn",
    "kernel_matrix",
    "lambda_cluster",
    "lambda_contrast",
    "lambda_dilute",
    "lambda_pade",
    "lattice_sum",
    "load_configuration",
    "make_cell",
    "parse_quantity",
    "regular_array",
    "rsa_generate",
    "run_ensemble",
    "save_configuration",
    "solve_contrast",
    "trial_seed",
    "write_run",
    "zeta1",
]
