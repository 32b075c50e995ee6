"""Acceptance gate: one test per numbered criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Everything is seeded; two executions produce identical
artifacts (criterion 9 checks exactly that).
"""

import numpy as np
import pytest

from paretodescent import (
    SolverConfig,
    check_armijo,
    check_proximity,
    check_quasi_fejer,
    check_weak_pareto_local,
    get_problem,
    run,
    sample_quasiconvex,
    solve_sigma_approx,
)
from paretodescent.linesearch import armijo_step

import ledger
from oracles import brute_force_direction

SUBPROBLEM_SEED = 1001
SIGMA_SEEDS = {0.1: 2001, 0.5: 2005, 0.9: 2009}
START_SEED = 11
CUBIC_SEED = 606
ARMIJO_SEED = 808

# 1e-8 on |alpha| would only pin the final point to sqrt(2e-8) ~ 1.41e-4 of
# the critical segment; 4e-9 certifies the required 1e-4.
RUN_CFG = SolverConfig(eps_critical=4e-9)


def _criterion(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} {status}: {label}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:5])


def quad_pair_starts():
    """Seeded starts whose projections fall inside the critical segment."""
    rng = np.random.default_rng(START_SEED)
    starts = []
    for _ in range(20):
        x1 = rng.uniform(0.15, 0.85)
        x2 = rng.uniform(1.0, 3.0) * (1.0 if rng.integers(2) else -1.0)
        starts.append(np.array([x1, x2]))
    return starts


@pytest.fixture(scope="module")
def acceptance_runs():
    quad = get_problem("quad_pair")
    runs = {"quad_pair": [run(quad.problem, x0, RUN_CFG) for x0 in quad_pair_starts()]}
    qe = get_problem("quasi_exp")
    runs["quasi_exp"] = [run(qe.problem, qe.recommended_x0, RUN_CFG)]
    sq = get_problem("scalar_quad")
    runs["scalar_quad"] = [run(sq.problem, sq.recommended_x0, RUN_CFG)]
    return runs


def segment_distance(x):
    s = min(max(float(x[0]), 0.0), 1.0)
    return float(np.hypot(x[0] - s, x[1]))


def test_criterion_1_subproblem_matches_the_grid_oracle():
    rng = np.random.default_rng(SUBPROBLEM_SEED)
    failures = []
    for i in range(200):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 6))
        J = rng.uniform(-10.0, 10.0, size=(m, n))
        res = solve_sigma_approx(J, 0.0)
        _w, v_o, a_o = brute_force_direction(J)
        scale2 = max(1.0, float(np.sum(J * J)))
        scale1 = max(1.0, float(np.sqrt(np.sum(J * J))))
        if abs(res.alpha_upper - a_o) > 1e-4 * scale2:
            failures.append(f"instance {i}: alpha off by {abs(res.alpha_upper - a_o):.3e}")
        if float(np.linalg.norm(res.v - v_o)) > 1e-2 * scale1:
            failures.append(f"instance {i}: v off by {np.linalg.norm(res.v - v_o):.3e}")
        gap = abs(res.alpha_upper - (-0.5 * float(res.v @ res.v)))
        if gap > max(1e-10 * abs(res.alpha_lower), 1e-12 * scale2):
            failures.append(f"instance {i}: optimal-value identity off by {gap:.3e}")
    _criterion(1, "exact subproblem agrees with the grid oracle on 200 instances", failures)


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
def test_criterion_2_sigma_certificates_are_sound(sigma):
    rng = np.random.default_rng(SIGMA_SEEDS[sigma])
    failures = []
    for i in range(100):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 6))
        J = rng.uniform(-10.0, 10.0, size=(m, n))
        res = solve_sigma_approx(J, sigma, eps_critical=1e-12)
        if not res.sigma_certified:
            failures.append(f"instance {i}: not certified")
            continue
        if res.critical:
            continue
        _w, v_o, a_o = brute_force_direction(J, refinement_rounds=3 if m <= 2 else 4)
        primal = float((J @ res.v).max()) + 0.5 * float(res.v @ res.v)
        if primal > (1.0 - sigma) * a_o + 1e-8:
            failures.append(f"instance {i}: approximation inequality violated")
        if float(np.sum((res.v - v_o) ** 2)) > 2.0 * sigma * abs(a_o) + 1e-8:
            failures.append(f"instance {i}: proximity bound violated")
    _criterion(2, f"sigma={sigma} certificates sound on 100 instances", failures)


def test_criterion_3_trajectory_invariants(acceptance_runs):
    failures = []
    for name, reports in acceptance_runs.items():
        for i, rep in enumerate(reports):
            recs = rep.records
            rise = max((float(np.max(b.Fx - a.Fx)) for a, b in zip(recs, recs[1:])), default=0.0)
            if not rise <= 0.0:
                failures.append(f"{name}[{i}]: F rose by {rise:.3e} in one move")
            jacobians = [get_problem(name).problem.jacobian(r.x) for r in rep.stepped_records]
            step = check_armijo(rep, jacobians)
            if not step.ok:
                failures.append(f"{name}[{i}]: Armijo step off by {step.worst_violation:.3e}")
            cert = check_proximity(rep, jacobians)
            if not cert.ok:
                failures.append(f"{name}[{i}]: step certificate off by {cert.worst_violation:.3e}")
            F0 = rep.records[0].Fx
            worst_level = max(float(np.max(r.Fx - F0)) for r in rep.records)
            if worst_level > 0.0:
                failures.append(f"{name}[{i}]: left the initial level set by {worst_level:.3e}")
    _criterion(3, "decrease, exact Armijo steps, certificates, and level-set containment "
               "on all runs", failures)


def test_criterion_4_full_convergence(acceptance_runs):
    failures = []
    wp_seed = 4000
    for name in ("quad_pair", "quasi_exp"):
        desc = get_problem(name)
        for i, rep in enumerate(acceptance_runs[name]):
            if rep.termination != "critical_point":
                failures.append(f"{name}[{i}]: terminated {rep.termination}")
                continue
            if rep.iterations > 10_000:
                failures.append(f"{name}[{i}]: took {rep.iterations} iterations")
            if abs(rep.records[-1].alpha_lower) > 1e-8:
                failures.append(f"{name}[{i}]: final alpha bound {rep.records[-1].alpha_lower:.3e}")
            if name == "quad_pair":
                d = segment_distance(rep.final_x)
                if d > 1e-4:
                    failures.append(f"quad_pair[{i}]: final {d:.2e} from the segment")
                wp_seed += 1
                if not check_weak_pareto_local(desc.problem, rep.final_x, 0.5, 10_000, wp_seed):
                    failures.append(f"quad_pair[{i}]: final point dominated locally")
    _criterion(4, "runs certify critical points on the known Pareto sets", failures)


def test_criterion_5_quasi_fejer_inequality(acceptance_runs):
    failures = []
    for i, rep in enumerate(acceptance_runs["quad_pair"]):
        out = check_quasi_fejer(rep)  # reference: the run's final iterate
        if not out.ok:
            failures.append(f"run {i}: fail, worst {out.worst_violation:.3e} at k={out.worst_index}")
    _criterion(5, "per-step distance inequality toward the final iterate", failures)


def test_criterion_6_cubic_pair_is_pareto_critical_everywhere():
    desc = get_problem("paper_cubic")
    rng = np.random.default_rng(CUBIC_SEED)
    failures = []
    for _ in range(1000):
        t = rng.uniform(-10.0, 10.0)
        res = solve_sigma_approx(desc.problem.jacobian([t]), 0.0, eps_critical=1e-8)
        if not res.critical or abs(res.alpha_upper) > 1e-12:
            failures.append(f"t={t}: status={res.status} alpha={res.alpha_upper}")
    for t0 in (-10.0, -1.3, 0.0, 5.0):
        rep = run(desc.problem, [t0], RUN_CFG)
        if rep.termination != "critical_point" or rep.iterations != 0:
            failures.append(f"run from {t0}: {rep.termination} after {rep.iterations}")
    qc = sample_quasiconvex(desc.problem, 1000, CUBIC_SEED)
    if not qc.ok:
        failures.append(f"{qc.violations} quasi-convexity violations")
    for i in range(10):
        t = rng.uniform(-10.0, 10.0)
        if not check_weak_pareto_local(desc.problem, [t], 0.5, 1000, CUBIC_SEED + i):
            failures.append(f"t={t}: locally dominated")
    _criterion(6, "cubic pair: every point critical, quasi-convex, undominated", failures)


@pytest.mark.parametrize("beta", [0.5, 0.9])
def test_criterion_7_single_criterion_matches_classical_descent(beta):
    desc = get_problem("scalar_quad")
    rep = run(desc.problem, [1.0], SolverConfig(beta=beta, eps_critical=4e-9))
    failures = []
    if rep.termination != "critical_point":
        failures.append(f"terminated {rep.termination}")
    # hand-rolled classical steepest descent with the same dyadic rule
    x = 1.0
    reference = [x]
    for _ in range(rep.iterations):
        g = x
        v = -g
        j = 0
        while 0.5 * (x + 2.0 ** (-j) * v) ** 2 > 0.5 * x * x + beta * 2.0 ** (-j) * (g * v):
            j += 1
        x = x + 2.0 ** (-j) * v
        reference.append(x)
    for k, rec in enumerate(rep.records):
        if abs(float(rec.x[0]) - reference[k]) > 1e-12:
            failures.append(f"iterate {k}: {rec.x[0]} vs reference {reference[k]}")
    _criterion(7, f"beta={beta}: trajectory equals classical gradient descent", failures)


def test_criterion_8_armijo_steps_are_maximal_dyadic():
    names = ["quad_pair", "quasi_exp", "nonconvex_demo", "scalar_quad"]
    rng = np.random.default_rng(ARMIJO_SEED)
    failures = []
    count = 0
    while count < 500:
        desc = get_problem(names[int(rng.integers(len(names)))])
        p = desc.problem
        x = rng.uniform(desc.box[0], desc.box[1], size=p.n)
        sigma = float(rng.choice([0.0, 0.3, 0.7]))
        res = solve_sigma_approx(p.jacobian(x), sigma)
        if res.critical or not res.sigma_certified or res.alpha_upper > -1e-6:
            continue
        count += 1
        beta = float(rng.choice([0.1, 0.5, 0.9]))
        Fx = p.evaluate(x)
        Jv = p.jacobian(x) @ res.v
        try:
            st = armijo_step(p, x, Fx, res.v, Jv, beta)
        except Exception as exc:
            failures.append(f"triple {count}: line search exhausted ({exc})")
            continue
        if st.j > 60:
            failures.append(f"triple {count}: j={st.j}")
        t = 2.0 ** -st.j
        accepted = p.evaluate(x + t * res.v, require_finite=False)
        target = Fx + beta * t * Jv
        if not np.all(accepted <= target):
            failures.append(f"triple {count}: accepted step violates the decrease test")
        if np.array_equal(target, Fx):
            failures.append(f"triple {count}: accepted target equals F(x), no decrease required")
        if st.j >= 1:
            doubled = p.evaluate(x + 2.0 * t * res.v, require_finite=False)
            if np.all(np.isfinite(doubled)) and np.all(doubled <= Fx + 2.0 * beta * t * Jv):
                failures.append(f"triple {count}: doubled step also passes")
    _criterion(8, "accepted steps maximal on 500 seeded triples, none exhausted", failures)


def test_criterion_9_artifacts_are_bitwise_deterministic():
    # criterion 9's same-behaviour set (ledger.commands(), the list README
    # and CI name), run twice, each time in a fresh directory: every
    # command's exit code, stdout and written files must repeat byte for byte
    first = ledger.compute_commands()
    second = ledger.compute_commands()
    failures = [f"{a[0]} differs between executions: {a[1:]} then {b[1:]}"
                for a, b in zip(first, second) if a != b]
    if not any(name.endswith(".trajectory.csv") for row in first for name in row[3]):
        failures.append("no trajectory artifacts produced")
    _criterion(9, "repeated executions produce identical CSV/JSON artifacts", failures)
