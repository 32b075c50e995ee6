"""Evaluable vector objectives F: R^n -> R^m with Jacobian access."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["MultiObjective", "NonFiniteError", "as_point"]


class NonFiniteError(ValueError):
    """An objective value or Jacobian came back with non-finite entries."""


def as_point(x, n: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float64 vector, optionally of length ``n``;
    a non-finite entry raises ``NonFiniteError``."""
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    elif p.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {p.shape}")
    if n is not None and p.size != n:
        raise ValueError(f"point has length {p.size}, expected {n}")
    if not np.isfinite(p).all():
        raise NonFiniteError("point contains non-finite entries")
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
        substituted.  It calls ``f`` directly, 2n times, so a subclass's
        ``evaluate`` override does not see the difference points.
    name : str
        Optional identifier used in reports.

    ``f`` and ``jac`` must return the same bits for the same x: the
    diagnostics recompute J(x^k) and test each Armijo step at zero slack.
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

    def evaluate(self, x, *, require_finite: bool = True) -> np.ndarray:
        """Return F(x) as a length-m float vector.

        With ``require_finite=False`` a non-finite trial point or value is
        tolerated and returned as-is (NaN-filled for a non-finite input);
        line searches use this to treat overflow regions as rejections.
        """
        try:
            x = as_point(x, self.n)
        except NonFiniteError:
            if require_finite:
                raise
            return np.full(self.m, np.nan)
        with np.errstate(all="ignore"):
            y = np.asarray(self.f(x), dtype=float)
        if y.ndim == 0:
            y = y.reshape(1)
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
        """Return the (m, n) Jacobian at x; row i is the gradient of criterion i.
        An overflow in ``jac`` warns of nothing and raises ``NonFiniteError``."""
        x = as_point(x, self.n)
        if self.jac is None:
            return self._central_differences(x)
        with np.errstate(all="ignore"):
            J = np.asarray(self.jac(x), dtype=float)
        if J.shape != (self.m, self.n):
            raise ValueError(
                f"jacobian of '{self.name}' has shape {J.shape}, expected ({self.m}, {self.n})"
            )
        if not np.isfinite(J).all():
            raise NonFiniteError(f"jacobian of '{self.name}' has non-finite entries at {x!r}")
        return J

    def _central_differences(self, x: np.ndarray) -> np.ndarray:
        """Central-difference Jacobian with step h_j = 1e-6 * max(1, |x_j|).

        Calls ``f`` on a fresh point per evaluation, x + h_j e_j then
        x - h_j e_j for j ascending, with the bits of those sums: off
        coordinate j the plus point holds x + 0.0 (a -0.0 reads +0.0) and the
        minus point x itself.  A perturbed point or a difference that is not
        finite raises ``NonFiniteError``.  The result is C-contiguous.
        """
        n, m = self.n, self.m
        with np.errstate(all="ignore"):
            h = 1e-6 * np.maximum(1.0, np.abs(x))
            hi, lo = x + h, x - h
            if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
                raise NonFiniteError(
                    f"central-difference point of '{self.name}' overflows near {x!r}"
                )
            plus = x + 0.0
            values = []
            for j in range(n):
                p = plus.copy()
                p[j] = hi[j]
                values.append(self.f(p))
                p = x.copy()
                p[j] = lo[j]
                values.append(self.f(p))
            Y = np.array(values, dtype=float)
            if Y.ndim == 1:
                Y = Y.reshape(2 * n, 1)
            if Y.shape != (2 * n, m):
                raise ValueError(
                    f"objective '{self.name}' returned shape {Y.shape[1:]}, expected ({m},)"
                )
            J = np.subtract(Y[0::2].T, Y[1::2].T, out=np.empty((m, n)))
            J /= 2.0 * h
        if not np.isfinite(J).all():
            raise NonFiniteError(
                f"central-difference jacobian of '{self.name}' has non-finite entries at {x!r}"
            )
        return J
