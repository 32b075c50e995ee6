"""Independent sampling oracles for the problems ``verify`` checks.

Everything here is deliberately naive: seeded random sampling, and support
enumeration in ``kkt_direction``, which serves the tests and the benchmark
and is not exported.  None of it may share logic with the modules it
validates.  The simplex-grid direction oracle and the central-difference
reference live in ``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .objective import MultiObjective, as_point

__all__ = [
    "ViolationReport",
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


def kkt_direction(J) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact direction by exhaustive support enumeration.

    For every candidate support S of the simplex weights, solves the
    equality-constrained stationarity system [G_SS 1; 1^T 0] on that face
    and keeps the feasible candidate with the smallest 0.5*||J^T w||^2, at
    a cost of 2^m - 1 face solves for any m.  Each G_SS is divided by its
    largest diagonal entry first: unscaled, the system mixes squared
    gradient norms with 1, and once they pass about 6e7 lstsq's cutoff drops
    the singular value that carries w.  Scaled, the enumeration is exact at
    every gradient scale, to linear-solver accuracy, and is immune to the
    anisotropy that can trap the grid refinement of ``tests/oracles.py``.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    m = J.shape[0]
    G = J @ J.T
    best: tuple[float, np.ndarray] | None = None
    for r in range(1, m + 1):
        for S in itertools.combinations(range(m), r):
            k = len(S)
            G_SS = G[np.ix_(S, S)]
            A = np.zeros((k + 1, k + 1))
            A[:k, :k] = G_SS / max(float(G_SS.diagonal().max()), np.finfo(float).tiny)
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


# bench/tracing.py patches this name; nothing calls it
finite_diff_jacobian = None


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
