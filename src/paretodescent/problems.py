"""Builtin test problems with known convexity class and critical sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .objective import MultiObjective, as_point

__all__ = [
    "ProblemDescriptor",
    "UnknownProblemError",
    "get_problem",
    "list_problems",
    "make_quad_pair",
]

CONVEXITY_CLASSES = ("convex", "quasi-convex", "pseudo-convex", "none")


class UnknownProblemError(KeyError):
    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class ProblemDescriptor:
    """A registered problem plus the analytic facts tests assert against.

    ``critical_set(x, tol)`` is a tolerance-based membership test for the
    known Pareto-critical set, of a point or of each row of a (k, n) array;
    ``sample_critical(rng)`` draws a point of that set.
    ``sample_noncritical(rng)`` draws a box point kept at least
    ``critical_margin`` away from the set (None when every point is
    critical).  ``box`` bounds the samplers; class claims are validated by
    the oracle samplers in the test suite, never merely asserted.
    """

    name: str
    problem: MultiObjective
    convexity_class: str
    critical_set: Callable[[np.ndarray, float], np.ndarray]
    sample_critical: Callable[[np.random.Generator], np.ndarray]
    recommended_x0: np.ndarray
    box: tuple[float, float] = (-10.0, 10.0)
    critical_margin: float = 0.05

    def __post_init__(self) -> None:
        if self.convexity_class not in CONVEXITY_CLASSES:
            raise ValueError(f"unknown convexity class {self.convexity_class!r}")

    def sample_noncritical(self, rng: np.random.Generator) -> np.ndarray | None:
        """Rejection-sample a point at margin distance from the critical set."""
        state = rng.bit_generator.state
        candidates = rng.uniform(*self.box, size=(10_000, self.problem.n))
        kept = np.flatnonzero(~self.critical_set(candidates, self.critical_margin))
        if kept.size == 0:
            return None
        rng.bit_generator.state = state  # leave rng as one-by-one draws would
        return rng.uniform(*self.box, size=(kept[0] + 1, self.problem.n))[kept[0]]


def make_quad_pair(a, b) -> MultiObjective:
    """Two half-squared-distance criteria; the critical set is the segment
    joining the centers."""
    a = as_point(a)
    b = as_point(b, a.size)

    def f(x):
        return np.array([0.5 * float((x - a) @ (x - a)), 0.5 * float((x - b) @ (x - b))])

    def jac(x):
        return np.vstack([x - a, x - b])

    return MultiObjective(n=a.size, m=2, f=f, jac=jac, name="quad_pair")


_QP_A = np.array([0.0, 0.0])
_QP_B = np.array([1.0, 0.0])


def _quad_pair_critical(x, tol):
    return (np.abs(x[..., 1]) <= tol) & (-tol <= x[..., 0]) & (x[..., 0] <= 1.0 + tol)


def _quad_pair_sample(rng):
    return np.array([rng.uniform(0.0, 1.0), 0.0])


def _cubic_eval(x):
    t = x[0]
    return np.array([t, -(t**3) / 3.0])


def _cubic_jac(x):
    t = x[0]
    return np.array([[1.0], [-t * t]])


# Scaled so the gradients stay well away from the criticality threshold on
# the sampling box despite the exponential flattening of the second branch.
_QE_C1 = 1.0   # first criterion minimizer x1
_QE_C2 = -1.0  # second criterion minimizer x2
_QE_S1 = 2.0
_QE_S2 = 5.0


def _quasi_exp_eval(x):
    s1 = x[0] - _QE_C1
    s2 = x[1] - _QE_C2
    g2 = np.sqrt(1.0 + s2 * s2) - 1.0
    return np.array(
        [
            _QE_S1 * (np.sqrt(1.0 + s1 * s1) - 1.0),
            _QE_S2 * (1.0 - np.exp(-g2)),
        ]
    )


def _quasi_exp_jac(x):
    s1 = x[0] - _QE_C1
    s2 = x[1] - _QE_C2
    r2 = np.sqrt(1.0 + s2 * s2)
    return np.array(
        [
            [_QE_S1 * s1 / np.sqrt(1.0 + s1 * s1), 0.0],
            [0.0, _QE_S2 * np.exp(-(r2 - 1.0)) * s2 / r2],
        ]
    )


def _quasi_exp_critical(x, tol):
    return (np.abs(x[..., 0] - _QE_C1) <= tol) | (np.abs(x[..., 1] - _QE_C2) <= tol)


def _quasi_exp_sample(rng):
    lo, hi = -4.0, 4.0
    if rng.integers(2) == 0:
        return np.array([_QE_C1, rng.uniform(lo, hi)])
    return np.array([rng.uniform(lo, hi), _QE_C2])


def _scalar_quad_eval(x):
    return np.array([0.5 * x[0] * x[0]])


def _scalar_quad_jac(x):
    return np.array([[x[0]]])


def _nonconvex_eval(x):
    t = x[0]
    return np.array([(t * t - 1.0) ** 2, (t - 2.0) ** 2])


def _nonconvex_jac(x):
    t = x[0]
    return np.array([[4.0 * t * (t * t - 1.0)], [2.0 * (t - 2.0)]])


def _nonconvex_critical(x, tol):
    t = x[..., 0]
    return (-1.0 - tol <= t) & (t <= tol) | (1.0 - tol <= t) & (t <= 2.0 + tol)


def _nonconvex_sample(rng):
    if rng.integers(2) == 0:
        return np.array([rng.uniform(-1.0, 0.0)])
    return np.array([rng.uniform(1.0, 2.0)])


_REGISTRY: dict[str, ProblemDescriptor] = {d.name: d for d in (
    ProblemDescriptor(
        name="quad_pair",
        problem=make_quad_pair(_QP_A, _QP_B),
        convexity_class="convex",
        critical_set=_quad_pair_critical,
        sample_critical=_quad_pair_sample,
        recommended_x0=np.array([2.0, 2.0]),
    ),
    ProblemDescriptor(
        name="paper_cubic",
        problem=MultiObjective(n=1, m=2, f=_cubic_eval, jac=_cubic_jac, name="paper_cubic"),
        convexity_class="pseudo-convex",
        critical_set=lambda x, tol: np.full(np.shape(x)[:-1], True),  # every point is critical
        sample_critical=lambda rng: np.array([rng.uniform(-10.0, 10.0)]),
        recommended_x0=np.array([5.0]),
    ),
    ProblemDescriptor(
        name="quasi_exp",
        problem=MultiObjective(
            n=2, m=2, f=_quasi_exp_eval, jac=_quasi_exp_jac, name="quasi_exp"
        ),
        convexity_class="quasi-convex",
        critical_set=_quasi_exp_critical,
        sample_critical=_quasi_exp_sample,
        recommended_x0=np.array([3.5, -3.5]),
        box=(-4.0, 4.0),
        critical_margin=0.1,
    ),
    ProblemDescriptor(
        name="scalar_quad",
        problem=MultiObjective(
            n=1, m=1, f=_scalar_quad_eval, jac=_scalar_quad_jac, name="scalar_quad"
        ),
        convexity_class="convex",
        critical_set=lambda x, tol: np.abs(x[..., 0]) <= tol,
        sample_critical=lambda rng: np.array([0.0]),
        recommended_x0=np.array([1.0]),
    ),
    ProblemDescriptor(
        name="nonconvex_demo",
        problem=MultiObjective(
            n=1, m=2, f=_nonconvex_eval, jac=_nonconvex_jac, name="nonconvex_demo"
        ),
        convexity_class="none",
        critical_set=_nonconvex_critical,
        sample_critical=_nonconvex_sample,
        recommended_x0=np.array([3.0]),
        box=(-3.0, 3.0),
    ),
)}


def get_problem(name: str) -> ProblemDescriptor:
    """Look up a registered problem descriptor by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownProblemError(f"unknown problem {name!r}; known: {known}") from None


def list_problems() -> list[str]:
    return sorted(_REGISTRY)
