"""Output checks, run outside the timed region, and the counter self-test.

A case *fails* when its run does not end at a certified critical point, when
its diagnostics do not all pass, when an independent reference does not
confirm criticality at its final iterate, or when its artifacts do not
reload and replay exactly.  A failure is reported, never filtered.

An output is *wrong* when the library claims something a check refutes: a
``critical_point`` the reference does not confirm, artifacts that do not
reload bit for bit, a replay that changes the diagnostics verdict, counters
that disagree with the report, or a trajectory that changes between rounds
or under tracing.  Any wrong output makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from paretodescent import cli, diagnostics, solver
from paretodescent.oracle import kkt_direction
from paretodescent.solver import RunReport, SolverConfig

from tracing import TracedObjective, Tracer, installed
from workloads import Case, CaseRun, Tally, own

# Distance to a builtin problem's known critical set.  A certified point has
# a hull element of squared norm <= 2 * eps_critical = 2e-8, i.e. gradients
# of size <= 1.4e-4; every builtin problem has slopes of order one near its
# critical set, so a tenth of a percent is several times the largest offset
# a certified point can have.
CRITICAL_SET_TOL = 1e-3
# Rounding allowance of the reference min-norm solves, relative to ||J||_F^2.
REFERENCE_SLACK = 1e-13


def trajectory_digest(report: RunReport) -> str:
    """Hash of every field of every record, bit for bit."""
    h = hashlib.sha256(report.termination.encode())
    for r in report.records:
        h.update(struct.pack("<qdddq?q", r.k, r.t, r.alpha_upper, r.alpha_lower, r.j,
                             r.sigma_certified, r.inner_iterations))
        for a in (r.x, r.Fx, r.v):
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _min_norm_weights(J: np.ndarray) -> np.ndarray:
    """Min-norm point of the gradients' convex hull by Lawson and Hanson's
    least-distance reduction to NNLS: minimize ||[J^T; 1^T] u - e||, u >= 0,
    then w = u / sum(u).  Shares no code with ``direction.py``."""
    from scipy.optimize import nnls

    m, n = J.shape
    A = np.vstack([J.T, np.ones((1, m))])
    b = np.zeros(n + 1)
    b[n] = 1.0
    u, _ = nnls(A, b, maxiter=50 * m)
    return u / u.sum()


def confirms_critical(workload: str, case: Case, run: CaseRun, eps: float) -> bool:
    x = run.report.records[-1].x
    if workload == "builtin_suite":
        return bool(case.descriptor.critical_set(x, CRITICAL_SET_TOL))
    J = run.problem.jacobian(x)
    if J.shape[0] <= 4:
        _w, _v, alpha = kkt_direction(J)
    else:
        g = J.T @ _min_norm_weights(J)
        alpha = -0.5 * float(g @ g)
    return alpha >= -(eps + REFERENCE_SLACK * max(1.0, float(np.sum(J * J))))


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def reload_matches(report: RunReport, reloaded: RunReport) -> bool:
    """x, F, v, t, j and both alpha bounds come back bit for bit."""
    if reloaded.termination != report.termination or len(reloaded.records) != len(report.records):
        return False
    if not _same_bits(reloaded.final_alpha, report.final_alpha):
        return False
    for a, b in zip(report.records, reloaded.records):
        if a.k != b.k or a.j != b.j:
            return False
        if not all(_same_bits(p, q) for p, q in ((a.t, b.t), (a.alpha_upper, b.alpha_upper),
                                                  (a.alpha_lower, b.alpha_lower))):
            return False
        if any(p.tobytes() != q.tobytes() for p, q in ((a.x, b.x), (a.Fx, b.Fx), (a.v, b.v))):
            return False
    return True


def lossy_records(report: RunReport, reloaded: RunReport) -> int:
    """Records whose certification flag or inner-iteration count the CSV
    does not carry (it reloads them as True and 0)."""
    return sum(1 for a, b in zip(report.records, reloaded.records)
               if (a.sigma_certified, a.inner_iterations) != (b.sigma_certified, b.inner_iterations))


def _summary_json(summary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True)


def check_case(workload: str, case: Case, run: CaseRun) -> tuple[list[str], list[str], dict]:
    """Return (failure causes, wrong outputs, artifact facts) for one case."""
    causes: list[str] = []
    wrong: list[str] = []
    facts = {"lossy": 0, "bytes": 0}
    report = run.report
    eps = SolverConfig().eps_critical
    if report.termination != solver.TERMINATION_CRITICAL:
        causes.append(f"solver.term.{report.termination}")
    if run.summary is not None:
        causes += [f"diagnostics.fail.{k}" for k, v in run.summary.to_dict().items()
                   if isinstance(v, dict) and not v["ok"]]
    if not confirms_critical(workload, case, run, eps):
        causes.append("check.not_critical")
        if report.termination == solver.TERMINATION_CRITICAL:
            wrong.append(f"{case.label}: critical_point not confirmed by the reference")
    if run.prefix is not None:
        reloaded = run.reloaded
        if reloaded is None:
            reloaded, _doc = cli.load_run(run.prefix)
        facts["lossy"] = lossy_records(report, reloaded)
        facts["bytes"] = sum(Path(f"{run.prefix}.{ext}").stat().st_size
                             for ext in ("trajectory.csv", "report.json"))
        replay = diagnostics.run_diagnostics(run.problem, reloaded, case.sigma)
        if not reload_matches(report, reloaded) or _summary_json(replay) != _summary_json(run.summary):
            causes.append("cli.replay_mismatch")
            wrong.append(f"{case.label}: artifacts do not reload and replay exactly")
    return causes, wrong, facts


# ---------------------------------------------------------------------------
# counter self-test


def _expected_run_counts(report: RunReport, n_fd: int) -> tuple[int, int]:
    """F calls and Jacobians ``run`` must make: F at every visited point,
    j + 1 Armijo trials per step, one Jacobian per visited point, and 2n F
    calls per Jacobian when it comes from central differences."""
    visited = report.iterations + 1
    trials = sum(r.j + 1 for r in report.stepped_records)
    return visited + trials + 2 * n_fd * visited, visited


def self_test() -> list[str]:
    """Check the bench's counting against counts worked out from reports,
    and that tracing leaves counters and trajectories bit for bit alone."""
    from paretodescent.problems import get_problem

    problems = []
    inline = cli.build_inline_problem(["0.5*((x1-1)^2 + x2^2)", "0.5*(x1^2 + (x2-2)^2)"])
    subjects = (
        ("quad_pair", get_problem("quad_pair").problem, np.array([2.0, 2.0]), 0),
        ("inline quad_pair", inline, np.array([3.0, 3.0]), inline.n),
    )
    cfg = SolverConfig(sigma=0.0)
    for label, raw, x0, n_fd in subjects:
        outcomes = []
        for tracer in (None, Tracer()):
            tally = Tally()
            with installed(tracer) if tracer else contextlib.nullcontext():
                problem = own(raw, tally, TracedObjective, tracer=tracer) if tracer else own(raw, tally)
                report = solver.run(problem, x0, cfg)
                after_run = tally.as_tuple()
                diagnostics.run_diagnostics(problem, report, cfg.sigma)
            outcomes.append((after_run, tally.as_tuple(), trajectory_digest(report)))
        if outcomes[1] != outcomes[0]:
            problems.append(f"self-test {label}: tracing changed counters or trajectory")
        after_run, after_diag, _digest = outcomes[0]
        f_expected, jac_expected = _expected_run_counts(report, n_fd)
        analytic = 0 if n_fd else jac_expected
        if after_run != (f_expected, jac_expected, analytic):
            problems.append(f"self-test {label}: run counted {after_run}, "
                            f"report implies {(f_expected, jac_expected, analytic)}")
        steps = len(report.stepped_records)
        diag_expected = (f_expected + 2 * n_fd * steps, jac_expected + steps,
                         analytic + (0 if n_fd else steps))
        if after_diag != diag_expected:
            problems.append(f"self-test {label}: diagnostics counted {after_diag}, "
                            f"report implies {diag_expected}")
    return problems
