"""Independent brute-force and sampling oracles used to validate the solver.

Everything here is deliberately naive: exhaustive simplex grids, central
differences, and seeded random sampling.  Tests lean on these to check the
production code paths, so none of them may share logic with the modules
they validate.  ``finite_diff_jacobian`` is the test reference for the
objective module's own central differences, which must match it bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .objective import MultiObjective, NonFiniteError, as_point

__all__ = [
    "ViolationReport",
    "brute_force_direction",
    "kkt_direction",
    "finite_diff_jacobian",
    "sample_quasiconvex",
    "check_gradient_characterization",
    "check_weak_pareto_local",
    "sufficient_sigma_condition",
]

DEFAULT_BOX = (-10.0, 10.0)


@dataclass(frozen=True)
class ViolationReport:
    trials: int
    checked: int
    violations: int
    max_violation: float
    worst_input: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.violations == 0


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


def kkt_direction(J) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact direction by exhaustive support enumeration.

    For every candidate support S of the simplex weights, solves the
    equality-constrained stationarity system on that face and keeps the
    feasible candidate with the smallest 0.5*||J^T w||^2.  Finite and
    deterministic, and immune to the anisotropy that can trap the grid
    refinement, so it pins v to linear-solver accuracy.  Same m <= 4 guard
    as the grid (2^m - 1 faces).
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    m = J.shape[0]
    if m > 4:
        raise ValueError(f"support enumeration supports m <= 4 criteria, got m={m}")
    G = J @ J.T
    best: tuple[float, np.ndarray] | None = None
    for r in range(1, m + 1):
        for S in itertools.combinations(range(m), r):
            k = len(S)
            A = np.zeros((k + 1, k + 1))
            A[:k, :k] = G[np.ix_(S, S)]
            A[:k, k] = 1.0
            A[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            wS = sol[:k]
            if np.any(wS < -1e-9):
                continue
            w = np.zeros(m)
            w[list(S)] = np.clip(wS, 0.0, None)
            total = w.sum()
            if total <= 0.0:
                continue
            w /= total
            psi = 0.5 * float(np.sum((J.T @ w) ** 2))
            if best is None or psi < best[0]:
                best = (psi, w)
    psi, w = best
    return w, -(J.T @ w), -psi


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


def sample_quasiconvex(
    problem: MultiObjective,
    trials: int,
    seed: int,
    box: tuple[float, float] = DEFAULT_BOX,
) -> ViolationReport:
    """Segment test for quasi-convexity.

    Draws pairs (x, y) uniformly in the box and t in [0, 1], then checks

        F((1-t)x + t*y) <= max(F(x), F(y))   componentwise,

    with 1e-10 slack.  Deterministic for a fixed seed.  A sampling check,
    not a proof: zero violations is evidence, one violation is a disproof.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    violations = 0
    max_violation = 0.0
    worst = None
    for _ in range(trials):
        x = rng.uniform(box[0], box[1], size=problem.n)
        y = rng.uniform(box[0], box[1], size=problem.n)
        t = rng.uniform()
        mid = problem.evaluate((1.0 - t) * x + t * y)
        cap = np.maximum(problem.evaluate(x), problem.evaluate(y))
        viol = float(np.max(mid - cap))
        if viol > 1e-10:
            violations += 1
            if viol > max_violation:
                max_violation = viol
                worst = (x, y, t)
    return ViolationReport(trials, trials, violations, max_violation, worst)


def check_gradient_characterization(
    problem: MultiObjective,
    trials: int,
    seed: int,
    box: tuple[float, float] = DEFAULT_BOX,
) -> ViolationReport:
    """First-order quasi-convexity test on sampled pairs.

    Whenever F(y) is strictly below F(x) in every component, a quasi-convex
    F must satisfy J(x) @ (y - x) <= 0 componentwise; violations beyond
    1e-10 are counted.  ``checked`` reports how many pairs triggered the
    premise.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    checked = 0
    violations = 0
    max_violation = 0.0
    worst = None
    for _ in range(trials):
        x = rng.uniform(box[0], box[1], size=problem.n)
        y = rng.uniform(box[0], box[1], size=problem.n)
        if not np.all(problem.evaluate(y) < problem.evaluate(x)):
            continue
        checked += 1
        viol = float(np.max(problem.jacobian(x) @ (y - x)))
        if viol > 1e-10:
            violations += 1
            if viol > max_violation:
                max_violation = viol
                worst = (x, y)
    return ViolationReport(trials, checked, violations, max_violation, worst)


def check_weak_pareto_local(
    problem: MultiObjective,
    x_star,
    radius: float,
    trials: int,
    seed: int,
) -> bool:
    """Sampled non-domination test around ``x_star``.

    Draws points uniformly in the ball of the given radius and returns True
    iff no sample improves on F(x_star) by more than 1e-10 in every
    component simultaneously.  A sampling check, not a proof of weak Pareto
    optimality.
    """
    if trials < 1 or radius <= 0:
        raise ValueError("trials must be >= 1 and radius positive")
    x_star = as_point(x_star, problem.n)
    f_star = problem.evaluate(x_star)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        u = rng.standard_normal(problem.n)
        nrm = float(np.linalg.norm(u))
        if nrm == 0.0:
            continue
        r = radius * rng.uniform() ** (1.0 / problem.n)
        y = x_star + (r / nrm) * u
        if np.all(f_star - problem.evaluate(y) > 1e-10):
            return False
    return True


def sufficient_sigma_condition(J, v, sigma: float) -> bool:
    """Cross-check inequality: max_i <g_i, v> <= -(1 - sigma/2) * ||v||^2.

    For a scalarization-compatible v this is sufficient (not necessary) for
    v to be sigma-approximate; kept oracle-side only, the production
    certificate is the duality-gap one.
    """
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"sigma must lie in [0, 1), got {sigma}")
    J = np.atleast_2d(np.asarray(J, dtype=float))
    v = np.asarray(v, dtype=float)
    return float(np.max(J @ v)) <= -(1.0 - 0.5 * sigma) * float(v @ v)
