"""Independent brute-force and sampling oracles used to validate the solver.

Everything here is deliberately naive: exhaustive simplex grids, central
differences, and seeded random sampling.  Tests lean on these to check the
production code paths, so none of them may share logic with the modules
they validate.  ``kkt_direction`` and ``finite_diff_jacobian`` serve the
tests and the benchmark and are not exported; the latter is the reference for
the objective module's own central differences, which must match it bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .objective import MultiObjective, NonFiniteError, as_point

__all__ = [
    "ViolationReport",
    "brute_force_direction",
    "sample_quasiconvex",
    "check_gradient_characterization",
    "check_weak_pareto_local",
]

DEFAULT_BOX = (-10.0, 10.0)


@dataclass(frozen=True)
class ViolationReport:
    trials: int
    checked: int
    violations: int
    max_violation: float

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

    Known limit: on near-parallel gradients with norms near 1e5, lstsq on
    the ill-conditioned bordered system can miss the optimal face, and the
    alpha returned then lies below the lower bound that a certified dual w
    proves (-1.14e10 against -1.12e10 at m = 2, n = 171; 15 of 3 793
    certified m <= 4 draws).  Tests trust it only where a certified w does
    not refute it.
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


def _tally(viol) -> tuple[int, float]:
    """Count the violations above 1e-10 and keep the largest (0.0 if none)."""
    over = np.array(viol, dtype=float)
    over = over[over > 1e-10]
    return over.size, float(over.max(initial=0.0))


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
    All ``trials * (2n + 1)`` uniforms are drawn in one call and held at
    once, each trial's x, y and t in the order a one-trial-at-a-time loop
    draws them, so a seed tests the same points bit for bit as that loop.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = problem.n
    draws = np.random.default_rng(seed).uniform(
        [box[0]] * (2 * n) + [0.0], [box[1]] * (2 * n) + [1.0], size=(trials, 2 * n + 1))
    viol = [float(np.max(problem.evaluate((1.0 - t) * x + t * y)
                         - np.maximum(problem.evaluate(x), problem.evaluate(y))))
            for x, y, t in ((row[:n], row[n:-1], row[-1]) for row in draws)]
    return ViolationReport(trials, trials, *_tally(viol))


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
    premise.  All ``trials * 2n`` coordinates are drawn in one call and held
    at once, in the order a one-pair-at-a-time loop draws them, so a seed
    tests the same pairs bit for bit as that loop.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    pairs = np.random.default_rng(seed).uniform(box[0], box[1], size=(trials, 2, problem.n))
    viol = [float(np.max(problem.jacobian(x) @ (y - x)))
            for x, y in pairs if (problem.evaluate(y) < problem.evaluate(x)).all()]
    return ViolationReport(trials, len(viol), *_tally(viol))


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
    optimality.  All ``trials * (n + 1)`` doubles, every direction and then
    every radius, are drawn and held at once, and so are the ``trials * n``
    coordinates of the points built from them.  Unlike the two samplers
    above, a seed does not test the points a one-sample-at-a-time loop would.
    """
    if trials < 1 or radius <= 0:
        raise ValueError("trials must be >= 1 and radius positive")
    x_star = as_point(x_star, problem.n)
    f_star = problem.evaluate(x_star)
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((trials, problem.n))
    radii = radius * rng.uniform(size=trials) ** (1.0 / problem.n)
    norms = np.linalg.norm(normals, axis=1)
    keep = norms > 0.0
    points = x_star + (radii[keep] / norms[keep])[:, None] * normals[keep]
    return not any((f_star - problem.evaluate(y) > 1e-10).all() for y in points)
