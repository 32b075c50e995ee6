"""Vector-valued Armijo backtracking over dyadic step lengths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import MultiObjective

__all__ = ["StepResult", "LineSearchError", "armijo_step"]


class LineSearchError(RuntimeError):
    """No dyadic step up to 2**-max_j satisfied the sufficient-decrease test."""


@dataclass(frozen=True)
class StepResult:
    t: float  # accepted step, exactly 2**-j
    j: int


def armijo_step(
    problem: MultiObjective,
    x: np.ndarray,
    Fx: np.ndarray,
    v: np.ndarray,
    Jv: np.ndarray,
    beta: float,
    max_j: int = 60,
) -> StepResult:
    """Largest t = 2**-j, j = 0, 1, ..., with componentwise sufficient decrease.

    Accepts the first (largest) dyadic step satisfying

        F(x + t*v) <= F(x) + beta * t * Jv      in every component,

    compared with zero slack.  ``Jv`` is the vector of directional slopes
    J(x) @ v, passed in so the caller computes it exactly once.  Trial values
    that come back non-finite count as failures, so backtracking recovers
    from overflow regions.  Raises ``LineSearchError`` after max_j rejections
    past j=0, which signals either a non-descent direction due to numerical
    error or an objective inconsistent with its Jacobian.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if max_j < 0:
        raise ValueError("max_j must be nonnegative")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    Fx = np.asarray(Fx, dtype=float)
    Jv = np.asarray(Jv, dtype=float)
    for j in range(max_j + 1):
        t = 2.0 ** (-j)
        trial = problem.evaluate(x + t * v, require_finite=False)
        if np.isfinite(trial).all() and (trial <= Fx + (beta * t) * Jv).all():
            return StepResult(t=t, j=j)
    raise LineSearchError(
        f"Armijo condition not met for any t = 2**-j with j <= {max_j}"
    )
