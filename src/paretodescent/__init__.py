"""Multiobjective steepest descent with certified inexact directions.

Solves min F(x) over R^n for a continuously differentiable F: R^n -> R^m in
the Pareto sense: descend along directions drawn from the regularized
min-max subproblem, with dyadic Armijo steps, until a certified Pareto
critical point.  Directions may be sigma-approximate; every emitted
direction carries a machine-checkable certificate.
"""

from .diagnostics import (
    CheckOutcome,
    DiagnosticsSummary,
    check_level_set,
    check_monotone,
    check_proximity,
    check_quasi_fejer,
    check_summability,
    run_diagnostics,
)
from .direction import DirectionResult, solve_exact, solve_sigma_approx
from .linesearch import LineSearchError, StepResult, armijo_step
from .objective import MultiObjective, NonFiniteError, as_point
from .oracle import (
    ViolationReport,
    brute_force_direction,
    check_gradient_characterization,
    check_weak_pareto_local,
    finite_diff_jacobian,
    kkt_direction,
    sample_quasiconvex,
    sufficient_sigma_condition,
)
from .problems import ProblemDescriptor, UnknownProblemError, get_problem, list_problems, make_quad_pair
from .solver import IterationRecord, RunReport, SolverConfig, run

__version__ = "0.1.0"

__all__ = [
    "CheckOutcome",
    "DiagnosticsSummary",
    "DirectionResult",
    "IterationRecord",
    "LineSearchError",
    "MultiObjective",
    "NonFiniteError",
    "ProblemDescriptor",
    "RunReport",
    "SolverConfig",
    "StepResult",
    "UnknownProblemError",
    "ViolationReport",
    "armijo_step",
    "as_point",
    "brute_force_direction",
    "check_gradient_characterization",
    "check_level_set",
    "check_monotone",
    "check_proximity",
    "check_quasi_fejer",
    "check_summability",
    "check_weak_pareto_local",
    "finite_diff_jacobian",
    "get_problem",
    "kkt_direction",
    "list_problems",
    "make_quad_pair",
    "run",
    "run_diagnostics",
    "sample_quasiconvex",
    "solve_exact",
    "solve_sigma_approx",
    "sufficient_sigma_condition",
]
