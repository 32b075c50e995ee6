"""Vector-valued Armijo backtracking over dyadic step lengths."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import count

import numpy as np

from .objective import MultiObjective

__all__ = ["StepResult", "LineSearchError", "armijo_step"]


class LineSearchError(RuntimeError):
    """No dyadic step met the Armijo target while it still asked for a decrease."""


@dataclass(frozen=True)
class StepResult:
    """The accepted j; the run's record forms t = 2**-j.  It stays a class,
    not a bare int, because the bench's tracer reads ``.j``."""

    j: int


def armijo_step(
    problem: MultiObjective,
    x: np.ndarray,
    Fx: np.ndarray,
    v: np.ndarray,
    Jv: np.ndarray,
    beta: float,
) -> StepResult:
    """Largest t = 2**-j, j = 0, 1, ..., with componentwise sufficient decrease.

    Accepts the first (largest) dyadic step satisfying

        F(x + t*v) <= F(x) + beta * t * Jv      in every component,

    compared with zero slack.  ``Jv`` is the vector of directional slopes
    J(x) @ v, passed in so the caller computes it exactly once.  Trial values
    that come back non-finite count as failures, so backtracking recovers from
    overflow regions.  The target is formed and compared on Python floats, and
    x + t*v with numpy's warnings off, so no overflow warns.  Raises
    ``LineSearchError`` once the target lies below F(x) in no component
    (beta*t*Jv rounded away against F(x), a Jv with no negative entry, or a NaN
    target), where a trial could pass by rounding alone; that signals either a
    non-descent direction due to numerical error or an objective inconsistent
    with its Jacobian.  Every search ends by j = 1075, where 2**-1075 is 0.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    Fx, Jv = np.asarray(Fx, dtype=float).tolist(), np.asarray(Jv, dtype=float).tolist()
    with np.errstate(all="ignore"):
        for j in count():
            t = 2.0 ** (-j)
            target = [f + (beta * t) * s for f, s in zip(Fx, Jv)]
            if not any(map(operator.lt, target, Fx)):
                raise LineSearchError(f"Armijo target F(x) + beta*t*J v lies below F(x) in no "
                                      f"component at t = 2**-{j}")
            trial = problem.evaluate(x + t * v, require_finite=False).tolist()
            if all(map(operator.le, trial, target)) and all(map(math.isfinite, trial)):
                return StepResult(j=j)
