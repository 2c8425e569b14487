"""The package's public surface is the explicit list below.

A change that adds or removes a name in effcond.__all__ updates this list,
so the surface grows or shrinks only on purpose.  The solver's controls are
pinned the same way.
"""

import inspect

import effcond
from effcond.solver import DEFAULT_DEGREE

PUBLIC = {
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
}


def test_all_is_the_public_surface():
    assert len(effcond.__all__) == len(set(effcond.__all__))
    assert set(effcond.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(effcond, name) is not None, name


def test_solver_controls_are_pinned():
    P = inspect.Parameter
    want = [
        ("config", P.POSITIONAL_OR_KEYWORD, P.empty),
        ("rho", P.POSITIONAL_OR_KEYWORD, P.empty),
        ("degree", P.KEYWORD_ONLY, DEFAULT_DEGREE),
        ("tolerance", P.KEYWORD_ONLY, 1e-13),
        ("max_iterations", P.KEYWORD_ONLY, 200),
    ]
    params = inspect.signature(effcond.solve_contrast).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == want
