"""Multiobjective steepest descent with certified inexact directions.

Solves min F(x) over R^n for a continuously differentiable F: R^n -> R^m in
the Pareto sense: descend along directions drawn from the regularized
min-max subproblem, with dyadic Armijo steps, until a certified Pareto
critical point.  Directions may be sigma-approximate; every emitted
direction carries a machine-checkable certificate.
"""

# the package re-publishes each library module's public names, listed once
# in that module's __all__; the command-line module keeps its own
from . import diagnostics, direction, linesearch, objective, oracle, problems, solver
from .diagnostics import *
from .direction import *
from .linesearch import *
from .objective import *
from .oracle import *
from .problems import *
from .solver import *

__version__ = "0.1.0"

__all__ = [name for module in (diagnostics, direction, linesearch, objective, oracle, problems, solver)
           for name in module.__all__]
