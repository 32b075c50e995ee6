"""Post-hoc verification of trajectory properties the method guarantees.

Each check is a pure function of a run report, and for two of them of the
Jacobians at its stepped points: rerunning it on the same report yields an
identical outcome.  Checks report their worst violation so
a failure localizes to a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direction import _EPS, STATUS_MAX_INNER, _certificate_excess, _gap_floor, solve_exact
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


def check_summability(report: RunReport, jacobians) -> CheckOutcome:
    """The energy inequality of the method, per step and telescoped.

    ``jacobians`` holds J(x^k) for each stepped record.  With beta and sigma
    from the report's config, each step must carry the certificate the
    solver tested, alpha_upper <= (1 - sigma) * alpha_lower <= 0 up to the
    gap floor of J J^T (TOL_GAP's relative rule for sigma = 0), and decrease

        beta * t_k * (||v^k||^2 / 2 - alpha_upper) <= min_i (f_i(x^k) - f_i(x^{k+1})),

    so that sum_k t_k ||v^k||^2 <= (2 / beta) * min_i (f_i(x^0) - f_i(x^K)).
    The decrease allows only rounding: with u = eps/2, the accepted Armijo
    test, alpha_upper = fl(max(J v) + ||v||^2 / 2) and this check's own
    arithmetic err by at most u * (2|F| + |F_next| + 5 * need) to first order,
    which tol = 8u * (|F| + |F_next| + need) covers.
    """
    recs = report.records
    steps = [(r, nxt) for r, nxt in zip(recs, recs[1:]) if r.t > 0.0]
    if len(jacobians) != len(steps):
        raise ValueError(f"{len(jacobians)} jacobian(s) for {len(steps)} step(s)")
    if not steps:
        return CheckOutcome("summability", STATUS_PASS, 0.0, None, "vacuous: no steps")
    beta, sigma = report.config.beta, report.config.sigma
    pairs, energy, tols = [], [], []
    for (r, nxt), J in zip(steps, jacobians):
        p, d = r.alpha_upper, r.alpha_lower
        cert = _certificate_excess(p, d, d, sigma, _gap_floor(float((J @ J.T).trace())))
        vv = float(r.v @ r.v)
        need = beta * r.t * (0.5 * vv - p)
        tol = 4.0 * _EPS * (np.abs(r.Fx) + np.abs(nxt.Fx) + need)
        excess = need - (r.Fx - nxt.Fx) - tol
        if not (math.isfinite(cert) and math.isfinite(need) and np.isfinite(excess).all()):
            return CheckOutcome("summability", STATUS_FAIL, math.inf, r.k, "non-finite step energy")
        pairs.append((max(cert, p, float(excess.max())), r.k))
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
    """Distance of each recorded direction from the exact one.

    Re-solves the subproblem exactly at J(x^k), given in ``jacobians`` for
    each stepped record in order (another count raises ValueError), and asserts

        ||v^k - v(x^k)||^2 <= 2 * sigma * |alpha(x^k)| + 1e-8

    with sigma read from the report's config.

    A record whose subproblem re-solve fails is skipped and counted in the
    note; a zero direction recorded at a point the re-solve finds
    non-critical is flagged as a failure outright.
    """
    steps = report.stepped_records
    if len(jacobians) != len(steps):
        raise ValueError(f"{len(jacobians)} jacobian(s) for {len(steps)} step(s)")
    sigma = report.config.sigma
    pairs = []
    skipped = 0
    zero_flags = 0
    for r, J in zip(steps, jacobians):
        exact = solve_exact(J)
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
        check_summability(report, jacobians),
        check_quasi_fejer(report, x_tilde, problem),
        check_proximity(report, jacobians),
    ))
