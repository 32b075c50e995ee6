"""References that the package does not ship: a simplex-grid direction
oracle and the central-difference Jacobian for Jacobian-free problems.

``brute_force_direction`` estimates the steepest-descent subproblem's
optimal value on an exhaustive simplex grid, with no dual solve.  The
objective module computes its own central differences, which must match
``finite_diff_jacobian`` bit for bit.  Like ``paretodescent.oracle``, this
module imports only the objective module of the package, so it shares no
logic with the code it checks.
"""

from __future__ import annotations

import itertools

import numpy as np

from paretodescent.objective import MultiObjective, NonFiniteError, as_point


def _simplex_grid(bounds: list[tuple[float, float]], step: float) -> np.ndarray:
    """Feasible simplex points whose first m-1 coordinates run over the given
    ranges with the given step; the last coordinate is 1 - sum."""
    axes = []
    for lo, hi in bounds:
        lo = max(lo, 0.0)
        hi = min(hi, 1.0)
        n_steps = max(int(np.floor((hi - lo) / step + 1e-9)), 0)
        axes.append(lo + step * np.arange(n_steps + 1))
    free = np.array(list(itertools.product(*axes)), dtype=float)
    last = 1.0 - free.sum(axis=1)
    keep = last >= -1e-12
    free = free[keep]
    last = np.maximum(last[keep], 0.0)
    return np.column_stack([free, last])


def brute_force_direction(J, *, refinement_rounds: int = 2) -> tuple[np.ndarray, np.ndarray, float]:
    """Exhaustively minimize 0.5*||J^T w||^2 over a simplex grid.

    The grid's weight-space step is 1e-3 for m <= 2, else 1e-2, and each
    refinement round shrinks it tenfold around the incumbent.  Returns
    (w, v, alpha) with v = -J^T w and alpha = -0.5*||J^T w||^2, an estimate
    of the optimal subproblem value with error on the order of the refined
    step times ||J||^2.  Guarded to m <= 4 since the grid grows
    exponentially with the number of criteria.
    """
    if refinement_rounds < 0:
        raise ValueError("refinement_rounds must be nonnegative")
    J = np.atleast_2d(np.asarray(J, dtype=float))
    m = J.shape[0]
    if m > 4:
        raise ValueError(f"grid oracle supports m <= 4 criteria, got m={m}")
    if m == 1:
        w = np.array([1.0])
        v = -(J.T @ w)
        return w, v, -0.5 * float(v @ v)

    def best_on(points: np.ndarray) -> tuple[np.ndarray, float]:
        vals = 0.5 * np.sum((points @ J) ** 2, axis=1)
        i = int(np.argmin(vals))
        return points[i], float(vals[i])

    step = 1e-3 if m <= 2 else 1e-2
    w_best, psi_best = best_on(_simplex_grid([(0.0, 1.0)] * (m - 1), step))
    for _ in range(refinement_rounds):
        window, step = step, step / 10.0
        bounds = [(w_best[i] - window, w_best[i] + window) for i in range(m - 1)]
        pts = np.vstack([_simplex_grid(bounds, step), w_best])
        w_best, psi_best = best_on(pts)
    v = -(J.T @ w_best)
    return w_best, v, -psi_best


def finite_diff_jacobian(problem: MultiObjective, x, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian, one coordinate at a time.

    With ``h=None`` the step is 1e-6 * max(1, |x_j|) per coordinate (the same
    rule the objective module uses for Jacobian-free problems); an explicit
    ``h`` must be positive.  Error is O(h^2) for smooth problems.  A
    perturbed point, value or difference that is not finite raises
    ``NonFiniteError``.
    """
    if h is not None and h <= 0:
        raise ValueError("finite-difference step h must be positive")
    x = as_point(x, problem.n)
    J = np.empty((problem.m, problem.n))
    for jcol in range(problem.n):
        hj = h if h is not None else 1e-6 * max(1.0, abs(x[jcol]))
        e = np.zeros(problem.n)
        e[jcol] = hj
        with np.errstate(all="ignore"):
            hi, lo = x + e, x - e
            if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
                raise NonFiniteError(f"finite-difference point overflows near {x!r}")
            J[:, jcol] = (problem.evaluate(hi) - problem.evaluate(lo)) / (2.0 * hj)
    if not np.all(np.isfinite(J)):
        raise NonFiniteError(f"non-finite finite-difference Jacobian near {x!r}")
    return J
