"""Evaluable vector objectives F: R^n -> R^m with Jacobian access."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["MultiObjective", "NonFiniteError", "as_point"]


class NonFiniteError(ValueError):
    """An objective value or Jacobian came back with non-finite entries."""


def as_point(x, n: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float64 vector, optionally of length ``n``."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {p.shape}")
    if n is not None and p.size != n:
        raise ValueError(f"point has length {p.size}, expected {n}")
    if not np.isfinite(p).all():
        raise ValueError("point contains non-finite entries")
    return p


@dataclass(frozen=True)
class MultiObjective:
    """A continuously differentiable map F: R^n -> R^m with criteria rows.

    Parameters
    ----------
    n : int
        Input dimension.
    m : int
        Number of criteria.
    f : callable
        Maps a length-n vector to a length-m vector of criterion values.
    jac : callable, optional
        Maps a length-n vector to the (m, n) matrix whose row i is the
        gradient of criterion i.  When absent, a central-difference
        approximation with per-coordinate step 1e-6 * max(1, |x_j|) is
        substituted and flagged via ``jacobian_is_approximate``.
    name : str
        Optional identifier used in reports.

    Instances are immutable and safe to share across concurrent runs.
    """

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive integers")

    @property
    def jacobian_is_approximate(self) -> bool:
        return self.jac is None

    def evaluate(self, x, *, require_finite: bool = True) -> np.ndarray:
        """Return F(x) as a length-m float vector.

        With ``require_finite=False`` a non-finite trial point or value is
        tolerated and returned as-is (NaN-filled for a non-finite input);
        line searches use this to treat overflow regions as rejections.
        """
        if require_finite:
            x = as_point(x, self.n)
        else:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            if x.size != self.n:
                raise ValueError(f"point has length {x.size}, expected {self.n}")
            if not np.isfinite(x).all():
                return np.full(self.m, np.nan)
        with np.errstate(all="ignore"):
            y = np.atleast_1d(np.asarray(self.f(x), dtype=float))
        if y.shape != (self.m,):
            raise ValueError(
                f"objective '{self.name}' returned shape {y.shape}, expected ({self.m},)"
            )
        if require_finite and not np.isfinite(y).all():
            raise NonFiniteError(
                f"objective '{self.name}' returned non-finite values at {x!r}"
            )
        return y

    def jacobian(self, x) -> np.ndarray:
        """Return the (m, n) Jacobian at x; row i is the gradient of criterion i."""
        x = as_point(x, self.n)
        if self.jac is None:
            from .oracle import finite_diff_jacobian

            return finite_diff_jacobian(self, x)
        J = np.atleast_2d(np.asarray(self.jac(x), dtype=float))
        if J.shape != (self.m, self.n):
            raise ValueError(
                f"jacobian of '{self.name}' has shape {J.shape}, expected ({self.m}, {self.n})"
            )
        if not np.isfinite(J).all():
            raise NonFiniteError(f"jacobian of '{self.name}' has non-finite entries at {x!r}")
        return J
