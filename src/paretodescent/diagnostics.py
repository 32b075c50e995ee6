"""Post-hoc verification of trajectory properties the method guarantees.

Each check is a pure function of a run report: rerunning it on the same
report yields an identical outcome.  Checks report their worst violation so
a failure localizes to a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direction import STATUS_MAX_INNER, solve_exact
from .objective import MultiObjective, as_point
from .solver import RunReport

__all__ = [
    "CheckOutcome",
    "DominatingReference",
    "DiagnosticsSummary",
    "phi",
    "check_monotone",
    "check_level_set",
    "check_summability",
    "check_quasi_fejer",
    "check_proximity",
    "check_scalarized_decrease",
    "run_diagnostics",
]

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_PRECONDITION = "precondition_violation"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    status: str
    worst_violation: float
    worst_index: int | None = None
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_PASS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "ok": self.ok,
            "worst_violation": self.worst_violation,
            "worst_index": self.worst_index,
            "note": self.note,
        }


@dataclass(frozen=True)
class DominatingReference:
    """A point x_tilde expected to satisfy F(x_tilde) <= F(x^k) + slack for
    every recorded k (membership in the dominated region of the whole
    trajectory)."""

    x_tilde: np.ndarray
    slack: float = 1e-10


def phi(y) -> float:
    """Componentwise maximum; positively homogeneous, subadditive, monotone."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size == 0:
        raise ValueError("phi of an empty vector is undefined")
    return float(np.max(y))


def _worst(pairs) -> tuple[float, int | None]:
    """Largest violation over (violation, index) pairs and the first index
    attaining it; a NaN violation never wins, and no pairs give (-inf, None)."""
    worst, worst_k = -math.inf, None
    for viol, k in pairs:
        if viol > worst:
            worst, worst_k = viol, k
    return worst, worst_k


def _outcome(name: str, worst: float, index: int | None, note: str = "") -> CheckOutcome:
    status = STATUS_PASS if worst <= 0.0 and math.isfinite(worst) else STATUS_FAIL
    return CheckOutcome(name, status, worst, index, note)


def check_monotone(report: RunReport) -> CheckOutcome:
    """Componentwise decrease F(x^{k+1}) <= F(x^k), zero slack, every move."""
    recs = report.records
    if len(recs) < 2:
        return CheckOutcome("monotone", STATUS_PASS, 0.0, None, "vacuous: fewer than two records")
    worst, worst_k = _worst((float(np.max(b.Fx - a.Fx)), a.k) for a, b in zip(recs, recs[1:]))
    return _outcome("monotone", worst, worst_k)


def check_level_set(report: RunReport) -> CheckOutcome:
    """Every iterate stays in the initial level set: F(x^k) <= F(x^0)."""
    recs = report.records
    if len(recs) < 2:
        return CheckOutcome("level_set", STATUS_PASS, 0.0, None, "vacuous: fewer than two records")
    F0 = recs[0].Fx
    worst, worst_k = _worst((float(np.max(r.Fx - F0)), r.k) for r in recs)
    return _outcome("level_set", worst, worst_k)


def check_summability(report: RunReport) -> CheckOutcome:
    """Vanishing step energy along the trajectory.

    Partial sums of t_k^2 ||v^k||^2 must be finite (they are monotone by
    nonnegativity), and the mean of t_k ||v^k||^2 over the last 10% of the
    steps must not exceed 1e-6 times its first value.  Finite trajectories
    cannot verify a limit, so the tail mean stands in for it.
    """
    stepped = report.stepped_records
    if len(stepped) <= 1:
        return CheckOutcome(
            "summability", STATUS_PASS, 0.0, None, "vacuous: fewer than two steps"
        )
    u = np.array([r.t * float(r.v @ r.v) for r in stepped])
    s = np.array([r.t * r.t * float(r.v @ r.v) for r in stepped])
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(u))):
        return CheckOutcome("summability", STATUS_FAIL, math.inf, None, "non-finite step energy")
    tail_len = max(1, math.ceil(0.1 * len(u)))
    tail_mean = float(np.mean(u[-tail_len:]))
    threshold = 1e-6 * (u[0] + 1e-300)
    viol = tail_mean - threshold
    note = f"tail_mean={tail_mean:.3e} threshold={threshold:.3e} partial_sum={float(np.sum(s)):.3e}"
    return _outcome("summability", viol, stepped[-tail_len].k, note)


def check_quasi_fejer(
    report: RunReport,
    ref: DominatingReference | None = None,
    problem: MultiObjective | None = None,
) -> CheckOutcome:
    """Per-step inequality toward a dominating reference point.

    Verifies ||x^{k+1} - x_tilde||^2 <= ||x^k - x_tilde||^2 + t_k^2 ||v^k||^2
    for every move, with relative slack 1e-10 * (1 + ||x^k - x_tilde||^2).
    The reference must dominate the whole trajectory (membership is checked
    first; a non-member yields a precondition_violation status, not a
    failure).  Defaults to the run's final iterate, whose membership follows
    from monotone decrease, so no problem evaluation is needed; an explicit
    reference requires ``problem`` to evaluate F(x_tilde).
    """
    recs = report.records
    if ref is None:
        if len(recs) < 2:
            return CheckOutcome("quasi_fejer", STATUS_PASS, 0.0, None, "vacuous: no steps")
        x_tilde = recs[-1].x
        F_tilde = recs[-1].Fx
        slack = 1e-10
    else:
        x_tilde = as_point(ref.x_tilde, recs[0].x.size)
        slack = ref.slack
        if problem is None:
            raise ValueError("an explicit reference requires the problem to evaluate F(x_tilde)")
        F_tilde = problem.evaluate(x_tilde)
    worst_mem, worst_mem_k = _worst((float(np.max(F_tilde - r.Fx)) - slack, r.k) for r in recs)
    if worst_mem > 0.0:
        return CheckOutcome(
            "quasi_fejer",
            STATUS_PRECONDITION,
            worst_mem,
            worst_mem_k,
            "reference does not dominate the trajectory",
        )
    if len(recs) < 2:
        return CheckOutcome("quasi_fejer", STATUS_PASS, 0.0, None, "vacuous: no steps")

    def excess(a, b) -> float:
        da = a.x - x_tilde
        db = b.x - x_tilde
        sq_a = float(da @ da)
        lhs = float(db @ db)
        rhs = sq_a + a.t * a.t * float(a.v @ a.v) + 1e-10 * (1.0 + sq_a)
        return lhs - rhs

    worst, worst_k = _worst((excess(a, b), a.k) for a, b in zip(recs, recs[1:]))
    return _outcome("quasi_fejer", worst, worst_k)


def check_proximity(report: RunReport, problem: MultiObjective, sigma: float) -> CheckOutcome:
    """Distance of each recorded direction from the exact one.

    Re-solves the subproblem exactly at every stepped x^k and asserts

        ||v^k - v(x^k)||^2 <= 2 * sigma * |alpha(x^k)| + 1e-8.

    A record whose subproblem re-solve fails is skipped and counted in the
    note; a zero direction recorded at a point the re-solve finds
    non-critical is flagged as a failure outright.
    """
    pairs = []
    skipped = 0
    zero_flags = 0
    for r in report.stepped_records:
        exact = solve_exact(problem.jacobian(r.x))
        if exact.status == STATUS_MAX_INNER:
            skipped += 1
            continue
        if float(r.v @ r.v) == 0.0 and not exact.critical:
            zero_flags += 1
            continue
        alpha = exact.alpha_upper
        dv = r.v - exact.v
        pairs.append((float(dv @ dv) - (2.0 * sigma * abs(alpha) + 1e-8), r.k))
    worst, worst_k = _worst(pairs)
    note = ""
    if skipped:
        note = f"{skipped} record(s) skipped: subproblem re-solve uncertified"
    if zero_flags:
        note = (note + "; " if note else "") + (
            f"{zero_flags} zero direction(s) at non-critical points"
        )
        return CheckOutcome("proximity", STATUS_FAIL, math.inf, worst_k, note)
    if worst == -math.inf:
        return CheckOutcome("proximity", STATUS_PASS, 0.0, None, note or "vacuous: no steps")
    return _outcome("proximity", worst, worst_k, note)


def check_scalarized_decrease(report: RunReport, beta: float, sigma: float) -> CheckOutcome:
    """Per-step decrease of the max-component scalarization.

    Each accepted step must satisfy

        phi(F(x^{k+1})) - phi(F(x^k))
            <= beta * ((1 - sigma) * t_k * alpha_k - 0.5 * t_k * ||v^k||^2)

    with the recorded upper value alpha_k and slack 1e-10 * (1 + |phi(F^k)|).
    """
    recs = report.records
    if len(recs) < 2:
        return CheckOutcome(
            "scalarized_decrease", STATUS_PASS, 0.0, None, "vacuous: no steps"
        )

    def excess(a, b) -> float:
        pa = phi(a.Fx)
        lhs = phi(b.Fx) - pa
        rhs = beta * ((1.0 - sigma) * a.t * a.alpha_upper - 0.5 * a.t * float(a.v @ a.v))
        return lhs - rhs - 1e-10 * (1.0 + abs(pa))

    worst, worst_k = _worst((excess(a, b), a.k) for a, b in zip(recs, recs[1:]))
    return _outcome("scalarized_decrease", worst, worst_k)


@dataclass(frozen=True)
class DiagnosticsSummary:
    """Outcomes of the check battery, in the order the report lists them."""

    checks: tuple[CheckOutcome, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {**{c.name: c.to_dict() for c in self.checks}, "all_ok": self.all_ok}


def run_diagnostics(
    problem: MultiObjective,
    report: RunReport,
    sigma: float,
    ref: DominatingReference | None = None,
) -> DiagnosticsSummary:
    """Run the full check battery on one report."""
    return DiagnosticsSummary((
        check_monotone(report),
        check_level_set(report),
        check_summability(report),
        check_quasi_fejer(report, ref, problem),
        check_proximity(report, problem, sigma),
    ))
