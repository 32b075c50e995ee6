"""Outer loop: criticality test, inexact direction, Armijo step, update."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direction import EPS_CRITICAL, DirectionResult, solve_sigma_approx
from .linesearch import LineSearchError, armijo_step
from .objective import MultiObjective, NonFiniteError, as_point

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "RunReport",
    "run",
    "TERMINATION_CRITICAL",
    "TERMINATION_MAX_ITER",
    "TERMINATION_LINESEARCH",
    "TERMINATION_SUBPROBLEM",
    "TERMINATION_NUMERICAL",
]

TERMINATION_CRITICAL = "critical_point"
TERMINATION_MAX_ITER = "max_iter"
TERMINATION_LINESEARCH = "linesearch_failure"
TERMINATION_SUBPROBLEM = "subproblem_failure"
TERMINATION_NUMERICAL = "numerical_failure"
_TERMINATIONS = (TERMINATION_CRITICAL, TERMINATION_MAX_ITER, TERMINATION_LINESEARCH,
                 TERMINATION_SUBPROBLEM, TERMINATION_NUMERICAL)


@dataclass(frozen=True)
class SolverConfig:
    beta: float = 0.5
    sigma: float = 0.0
    eps_critical: float = EPS_CRITICAL
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.0 <= self.sigma < 1.0:
            raise ValueError(f"sigma must lie in [0, 1), got {self.sigma}")
        if not 0.0 < self.eps_critical < math.inf:
            raise ValueError("eps_critical must be positive and finite")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    """One visited point.  Stepped records have j >= 0 and satisfy x_next =
    x + t*v exactly, with t = 2**-j; the terminal record has j = -1 and t = 0.
    ``weights`` is the dual w of the direction solve, NaN on a numerical failure."""

    k: int
    x: np.ndarray
    Fx: np.ndarray
    v: np.ndarray
    weights: np.ndarray
    alpha_upper: float
    alpha_lower: float
    j: int
    sigma_certified: bool
    inner_iterations: int

    @property
    def t(self) -> float:
        return 2.0 ** -self.j if self.j >= 0 else 0.0


@dataclass(frozen=True)
class RunReport:
    """The visited points, why the run stopped, and the config it ran with."""

    records: tuple[IterationRecord, ...]
    termination: str
    config: SolverConfig

    @property
    def final_x(self) -> np.ndarray:
        return self.records[-1].x

    @property
    def final_alpha(self) -> float:
        return self.records[-1].alpha_upper

    @property
    def iterations(self) -> int:
        """Number of descent steps taken."""
        return len(self.records) - 1

    @property
    def total_inner_iterations(self) -> int:
        return sum(r.inner_iterations for r in self.records)

    @property
    def stepped_records(self) -> tuple[IterationRecord, ...]:
        return tuple(r for r in self.records if r.j >= 0)


def _record(k: int, x, Fx, res: DirectionResult, j: int = -1) -> IterationRecord:
    return IterationRecord(k=k, x=x, Fx=Fx, v=res.v, weights=res.weights,
                           alpha_upper=res.alpha_upper, alpha_lower=res.alpha_lower, j=j,
                           sigma_certified=res.sigma_certified, inner_iterations=res.inner_iterations)


def run(problem: MultiObjective, x0, cfg: SolverConfig | None = None) -> RunReport:
    """Descend from ``x0`` until a certified critical point or a cap.

    Each iteration solves the direction subproblem at x^k (the subproblem
    inherits the solver's eps_critical so its criticality certificate and
    the outer stop test agree), takes the largest dyadic Armijo step, and
    sets x^{k+1} = x^k + t_k * v^k.  Failures terminate the run with a
    status in the report; they are never raised.  A value F(x^k) or a
    Jacobian with non-finite entries, or a Gram matrix J J^T that overflows,
    ends the run with ``numerical_failure``: its terminal record has v = 0,
    NaN weights and alpha bounds, and no inner iterations.  The Jacobian is
    not requested at a point whose F is not finite.

    The record list always ends with a terminal record (j = -1) for the last
    visited point, so a run that starts at a critical point has exactly one
    record.  A run is deterministic: identical inputs reproduce the
    trajectory bit for bit.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    x = as_point(x0, problem.n)
    records: list[IterationRecord] = []
    k = 0
    termination = None
    while termination is None:
        Fx = problem.evaluate(x, require_finite=False)
        try:
            if not np.isfinite(Fx).all():
                raise NonFiniteError("F(x) has non-finite entries")
            res = solve_sigma_approx(problem.jacobian(x), cfg.sigma, eps_critical=cfg.eps_critical)
        except NonFiniteError:
            records.append(IterationRecord(k, x, Fx, np.zeros(problem.n), np.full(problem.m, math.nan),
                                           alpha_upper=math.nan, alpha_lower=math.nan, j=-1,
                                           sigma_certified=False, inner_iterations=0))
            return RunReport(records=tuple(records), termination=TERMINATION_NUMERICAL, config=cfg)
        if res.critical:
            termination = TERMINATION_CRITICAL
        elif not res.sigma_certified:
            termination = TERMINATION_SUBPROBLEM
        elif k >= cfg.max_iter:
            termination = TERMINATION_MAX_ITER
        else:
            try:
                st = armijo_step(problem, x, Fx, res.v, res.slopes, cfg.beta)
            except LineSearchError:
                termination = TERMINATION_LINESEARCH
            else:
                records.append(_record(k, x, Fx, res, st.j))
                x = x + records[-1].t * res.v
                k += 1
    records.append(_record(k, x, Fx, res))
    return RunReport(records=tuple(records), termination=termination, config=cfg)
