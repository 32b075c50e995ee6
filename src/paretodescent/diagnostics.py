"""Post-hoc verification of trajectory properties the method guarantees.

Each check is a pure function of a run report, and for the armijo and proximity
checks of the Jacobians at its stepped points: rerunning it on the same report
yields an identical outcome.  No check calls a solver or evaluates F: the
quasi-Fejer reference is the report's final iterate.  Passing armijo and
proximity implies decrease, level-set containment and that iterate's membership
in T.  Checks report their worst violation so a failure localizes to a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .direction import _EPS, _allowance, _certificate_excess, _gap_floor
from .objective import MultiObjective
from .solver import RunReport

__all__ = [
    "CheckOutcome",
    "DiagnosticsSummary",
    "check_armijo",
    "check_quasi_fejer",
    "check_proximity",
    "run_diagnostics",
]

# bench/tracing.py patches this name; nothing calls it
solve_exact = None

STATUS_PASS = "pass"
STATUS_FAIL = "fail"


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
            # as report.json stores it: JSON has no infinity, so a non-finite one is null
            "worst_violation": self.worst_violation if math.isfinite(self.worst_violation) else None,
            "worst_index": self.worst_index,
            "note": self.note,
        }


def _worst(pairs) -> tuple[float, int | None]:
    """Largest violation over (violation, index) pairs and the first index
    attaining it, -inf included; a NaN never wins, so no pairs or only NaNs give (-inf, None)."""
    worst, worst_k = -math.inf, None
    for viol, k in pairs:
        if viol > worst or worst_k is None and viol == worst:
            worst, worst_k = viol, k
    return worst, worst_k


def _outcome(name: str, pairs: list, note: str = "") -> CheckOutcome:
    """The one verdict rule: no pairs pass vacuously, and otherwise the worst
    measurable violation must be <= 0 (+inf and all-NaN fail, -inf passes)."""
    if not pairs:
        return CheckOutcome(name, STATUS_PASS, 0.0, None, "vacuous: no steps")
    worst, index = _worst(pairs)
    status = STATUS_PASS if index is not None and worst <= 0.0 else STATUS_FAIL
    return CheckOutcome(name, status, worst, index, note)


def check_armijo(report: RunReport, jacobians) -> CheckOutcome:
    """Each move is the dyadic Armijo step of the method, at zero slack.

    With J = J(x^k) from ``jacobians`` per stepped record (another count
    raises ValueError), every record but the last must step (j >= 0, so
    t = 2**-j), with x^{k+1} = x^k + t v bit for bit and F(x^{k+1}) <= Fx +
    (beta * t) * (J v) in every component, the target formed as
    ``armijo_step`` forms it and below F(x^k) somewhere.  The violation is
    the largest F(x^{k+1}) minus the target, and inf for a broken rule, a
    non-step before the last record, a step without a next record or a
    non-finite value.  The proximity check's phi <= 0 puts each target at or
    below F(x^k), so with it a pass implies decrease at every move and the
    energy inequality sum_k t_k ||v^k||^2 <= (2 / beta) min_i (f_i(x^0) -
    f_i(x^K)), whose sum and ratio the note reports.
    """
    recs, steps = report.records, report.stepped_records
    if len(jacobians) != len(steps):
        raise ValueError(f"{len(jacobians)} jacobian(s) for {len(steps)} step(s)")
    beta, slopes, pairs = report.config.beta, iter(jacobians), []
    for r, nxt in zip(recs, recs[1:]):
        if r.j < 0:
            pairs.append((math.inf, r.k))
            continue
        target = r.Fx + (beta * r.t) * (next(slopes) @ r.v)
        excess = float((nxt.Fx - target).max())
        exact = (target < r.Fx).any() and nxt.x.tobytes() == (r.x + r.t * r.v).tobytes()
        pairs.append((excess if exact and math.isfinite(excess) else math.inf, r.k))
    if recs[-1].j >= 0:
        pairs.append((math.inf, recs[-1].k))
    total = math.fsum(r.t * float(r.v @ r.v) for r in steps)
    with np.errstate(all="ignore"):  # F(x^0) = inf on a lone record is inf - inf
        drop = float((recs[0].Fx - recs[-1].Fx).min())
    ratio = total / ((2.0 / beta) * drop) if drop > 0.0 else math.inf
    note = f"sum t|v|^2={total:.3e} telescoped ratio={ratio:.3g}"
    return _outcome("armijo", pairs, note)


def check_quasi_fejer(report: RunReport) -> CheckOutcome:
    """Per-step inequality toward the final iterate x_tilde = x^K.

    Verifies ||x^{k+1} - x_tilde||^2 <= ||x^k - x_tilde||^2 + t_k^2 ||v^k||^2
    for every move, with relative slack 1e-10 * (1 + ||x^k - x_tilde||^2).
    x^K lies in the paper's T when armijo and proximity pass, since float <= is
    transitive, so this check does not test membership again.  A right side
    that overflows holds by -inf; a step whose excess is NaN measures nothing.
    """
    recs = report.records
    x_tilde = recs[-1].x

    def excess(a, b) -> float:
        da = a.x - x_tilde
        db = b.x - x_tilde
        sq_a = float(da @ da)
        lhs = float(db @ db)
        rhs = sq_a + a.t * a.t * float(a.v @ a.v) + 1e-10 * (1.0 + sq_a)
        return lhs - rhs

    with np.errstate(all="ignore"):  # a square that overflows is inf
        pairs = [(excess(a, b), a.k) for a, b in zip(recs, recs[1:])]
    return _outcome("quasi_fejer", pairs)


def check_proximity(report: RunReport, jacobians) -> CheckOutcome:
    """Each step proved sigma-approximate by weak duality from its dual weights w.

    With J = J(x^k) from ``jacobians`` per stepped record (another count
    raises ValueError), g = J^T w, d = -||g||^2 / 2 and phi = max(J v) +
    ||v||^2 / 2, it requires w >= 0, |sum(w) - 1| <= 4(n + m) eps (rescaling
    w then moves d by at most the allowance), v = -g (as ||v + g||^2),
    alpha_upper = phi and alpha_lower = d within the direction module's
    rounding allowance, and the solver's one certificate rule: phi <= 0 and
    phi <= (1 - max(sigma, TOL_GAP)) d to the gap floor.
    A step recorded as not ``sigma_certified`` fails outright (violation
    inf): ``run`` never steps along an uncertified direction.
    Any simplex w has d <= theta, the optimal value, and phi is 1-strongly
    convex, so 2 (phi - d), whose maximum the note reports, bounds ||v - v*||^2.
    """
    steps = report.stepped_records
    if len(jacobians) != len(steps):
        raise ValueError(f"{len(jacobians)} jacobian(s) for {len(steps)} step(s)")
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
                  _certificate_excess(phi, d, sigma, _gap_floor(float(G.trace()))))
        pairs.append((max(excess) if r.sigma_certified and all(map(math.isfinite, excess))
                      else math.inf, r.k))
        bounds.append((2.0 * (phi - d), r.k))
    return _outcome("proximity", pairs, f"max 2(phi - d)={_worst(bounds)[0]:.3e}")


@dataclass(frozen=True)
class DiagnosticsSummary:
    """Outcomes of the check battery, in the order the report lists them."""

    checks: tuple[CheckOutcome, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {**{c.name: c.to_dict() for c in self.checks}, "all_ok": self.all_ok}


def run_diagnostics(problem: MultiObjective, report: RunReport, sigma: float) -> DiagnosticsSummary:
    """Run the full check battery on one report.

    ``sigma`` must be the sigma the run used, which the report records.
    """
    if sigma != report.config.sigma:
        raise ValueError(f"sigma {sigma} differs from the run's sigma {report.config.sigma}")
    jacobians = [problem.jacobian(r.x) for r in report.stepped_records]
    return DiagnosticsSummary((
        check_armijo(report, jacobians),
        check_quasi_fejer(report),
        check_proximity(report, jacobians),
    ))
