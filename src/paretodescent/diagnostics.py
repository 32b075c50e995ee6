"""Post-hoc verification of trajectory properties the method guarantees.

Each check is a pure function of a run report, and for the proximity check
of the Jacobians at its stepped points: rerunning it on the same report
yields an identical outcome.  No check calls a solver.  Checks report their
worst violation so a failure localizes to a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direction import _EPS, _allowance, _certificate_excess, _gap_floor
from .direction import solve_exact  # unused: bench/tracing.py patches this name
from .objective import MultiObjective, as_point
from .solver import RunReport

__all__ = [
    "CheckOutcome",
    "DiagnosticsSummary",
    "check_monotone",
    "check_level_set",
    "check_summability",
    "check_quasi_fejer",
    "check_proximity",
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
    worst, worst_k = _worst((float((b.Fx - a.Fx).max()), a.k) for a, b in zip(recs, recs[1:]))
    return _outcome("monotone", worst, worst_k)


def check_level_set(report: RunReport) -> CheckOutcome:
    """Every iterate stays in the initial level set: F(x^k) <= F(x^0)."""
    recs = report.records
    if len(recs) < 2:
        return CheckOutcome("level_set", STATUS_PASS, 0.0, None, "vacuous: fewer than two records")
    F0 = recs[0].Fx
    worst, worst_k = _worst((float((r.Fx - F0).max()), r.k) for r in recs)
    return _outcome("level_set", worst, worst_k)


def check_summability(report: RunReport) -> CheckOutcome:
    """The energy inequality of the method, per step and telescoped.

    With beta from the report's config, each step must decrease

        beta * t_k * (||v^k||^2 / 2 - alpha_upper) <= min_i (f_i(x^k) - f_i(x^{k+1})),

    so that sum_k t_k ||v^k||^2 <= (2 / beta) * min_i (f_i(x^0) - f_i(x^K)).
    The decrease allows only rounding: with u = eps/2, the accepted Armijo
    test, alpha_upper = fl(max(J v) + ||v||^2 / 2) and this check's own
    arithmetic err by at most u * (2|F| + |F_next| + 5 * need) to first order,
    which tol = 8u * (|F| + |F_next| + need) covers.
    """
    recs = report.records
    steps = [(r, nxt) for r, nxt in zip(recs, recs[1:]) if r.t > 0.0]
    if not steps:
        return CheckOutcome("summability", STATUS_PASS, 0.0, None, "vacuous: no steps")
    beta = report.config.beta
    pairs, energy, tols = [], [], []
    for r, nxt in steps:
        vv = float(r.v @ r.v)
        need = beta * r.t * (0.5 * vv - r.alpha_upper)
        tol = 4.0 * _EPS * (np.abs(r.Fx) + np.abs(nxt.Fx) + need)
        excess = need - (r.Fx - nxt.Fx) - tol
        if not (math.isfinite(need) and np.isfinite(excess).all()):
            return CheckOutcome("summability", STATUS_FAIL, math.inf, r.k, "non-finite step energy")
        pairs.append((float(excess.max()), r.k))
        energy.append(r.t * vv)
        tols.append(tol)
    total = math.fsum(energy)
    drop = recs[0].Fx - recs[-1].Fx
    slack = np.array([math.fsum(col) for col in zip(*tols)])
    pairs.append((total - float(((2.0 / beta) * (drop + slack)).min()), recs[-1].k))
    worst, worst_k = _worst(pairs)
    ratio = total / ((2.0 / beta) * float(drop.min())) if drop.min() > 0.0 else math.inf
    note = f"sum t|v|^2={total:.3e} telescoped ratio={ratio:.3g}"
    return _outcome("summability", worst, worst_k, note)


def check_quasi_fejer(
    report: RunReport,
    x_tilde=None,
    problem: MultiObjective | None = None,
) -> CheckOutcome:
    """Per-step inequality toward a point x_tilde that dominates the trajectory.

    Verifies ||x^{k+1} - x_tilde||^2 <= ||x^k - x_tilde||^2 + t_k^2 ||v^k||^2
    for every move, with relative slack 1e-10 * (1 + ||x^k - x_tilde||^2).
    Membership is checked first: F(x_tilde) <= F(x^k) + 1e-10 must hold for
    every recorded k, and a non-member yields a precondition_violation
    status, not a failure.  x_tilde defaults to the run's final iterate,
    whose membership follows from monotone decrease, so no problem
    evaluation is needed; an explicit x_tilde requires ``problem`` to
    evaluate F(x_tilde).
    """
    recs = report.records
    if x_tilde is None:
        if len(recs) < 2:
            return CheckOutcome("quasi_fejer", STATUS_PASS, 0.0, None, "vacuous: no steps")
        x_tilde = recs[-1].x
        F_tilde = recs[-1].Fx
    else:
        x_tilde = as_point(x_tilde, recs[0].x.size)
        if problem is None:
            raise ValueError("an explicit reference requires the problem to evaluate F(x_tilde)")
        F_tilde = problem.evaluate(x_tilde)
    worst_mem, worst_mem_k = _worst((float((F_tilde - r.Fx).max()) - 1e-10, r.k) for r in recs)
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


def check_proximity(report: RunReport, jacobians) -> CheckOutcome:
    """Each step proved sigma-approximate by weak duality from its dual weights w.

    With J = J(x^k) from ``jacobians`` per stepped record (another count
    raises ValueError), g = J^T w, d = -||g||^2 / 2 and phi = max(J v) +
    ||v||^2 / 2, it requires w >= 0, |sum(w) - 1| <= 4(n + m) eps (rescaling
    w then moves d by at most the allowance), v = -g (as ||v + g||^2),
    alpha_upper = phi and alpha_lower = d within the direction module's
    rounding allowance, phi <= 0, and phi <= (1 - sigma) d to the gap floor.
    Any simplex w has d <= theta, the optimal value, and phi is 1-strongly
    convex, so 2 (phi - d), whose maximum the note reports, bounds ||v - v*||^2.
    """
    steps = report.stepped_records
    if len(jacobians) != len(steps):
        raise ValueError(f"{len(jacobians)} jacobian(s) for {len(steps)} step(s)")
    if not steps:
        return CheckOutcome("proximity", STATUS_PASS, 0.0, None, "vacuous: no steps")
    sigma = report.config.sigma
    pairs, bounds = [], []
    for r, J in zip(steps, jacobians):
        m, n = J.shape
        G = J @ J.T
        allowance = _allowance(G, n)
        g = J.T @ r.weights
        d = -0.5 * float(g @ g)
        phi = float((J @ r.v).max()) + 0.5 * float(r.v @ r.v)
        excess = (0.0 - float(r.weights.min()), float((r.v + g) @ (r.v + g)) - allowance,
                  abs(float(r.weights.sum()) - 1.0) - 4.0 * (n + m) * _EPS,
                  abs(r.alpha_upper - phi) - allowance, abs(r.alpha_lower - d) - allowance,
                  phi, _certificate_excess(phi, d, d, sigma, _gap_floor(float(G.trace()))))
        pairs.append((max(excess) if all(map(math.isfinite, excess)) else math.inf, r.k))
        bounds.append((2.0 * (phi - d), r.k))
    worst, worst_k = _worst(pairs)
    return _outcome("proximity", worst, worst_k, f"max 2(phi - d)={_worst(bounds)[0]:.3e}")


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
    x_tilde=None,
) -> DiagnosticsSummary:
    """Run the full check battery on one report.

    ``sigma`` must be the sigma the run used, which the report records;
    ``x_tilde`` is the quasi-Fejer reference point (default: the final
    iterate).
    """
    if sigma != report.config.sigma:
        raise ValueError(f"sigma {sigma} differs from the run's sigma {report.config.sigma}")
    jacobians = [problem.jacobian(r.x) for r in report.stepped_records]
    return DiagnosticsSummary((
        check_monotone(report),
        check_level_set(report),
        check_summability(report),
        check_quasi_fejer(report, x_tilde, problem),
        check_proximity(report, jacobians),
    ))
