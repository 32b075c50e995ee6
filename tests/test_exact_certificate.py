"""The sigma certificate of every certified direction, checked in exact
arithmetic by the oracle in exact_certificate.py."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretodescent import SolverConfig, get_problem, list_problems, run, solve_sigma_approx
from paretodescent.direction import STATUS_CERTIFIED, STATUS_STALLED
from paretodescent.oracle import kkt_direction

import exact_certificate as oracle_module
from exact_certificate import TOL_GAP, audit_steps, exact_certificate
from kernel import PINNED
from test_acceptance import RUN_CFG, quad_pair_starts
from test_direction import (
    _HARD_CASES,
    WIDE_SMALL,
    _assert_read_off_the_weights,
    _hard_solve,
    _wide_jacobians,
)

SIGMAS = (0.0, 0.25, 0.5, 0.9)
FAMILIES = ("gaussian", "near_parallel", "near_critical")
# so that near-critical J certify a direction instead of reporting critical
TINY_EPS_CRITICAL = 1e-300


def family_jacobian(family: str, seed: int, m: int, n: int, log_scale: float) -> np.ndarray:
    """Gaussian rows at scale 10**log_scale; rows near one common direction,
    at the same scale; or Gaussian rows whose sum is about 1e-7, so that
    the optimal value sits near or below the rounding floor."""
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        return 10.0 ** log_scale * rng.standard_normal((m, n))
    if family == "near_parallel":
        spread = 10.0 ** -rng.uniform(3.0, 9.0)
        return 10.0 ** log_scale * (rng.standard_normal(n) + spread * rng.standard_normal((m, n)))
    J = rng.standard_normal((m, n))
    J[-1] = -J[:-1].sum(axis=0) + 1e-7 * rng.standard_normal(n)
    return J


def solves(J):
    """(sigma, result) for each sigma."""
    return [(sigma, solve_sigma_approx(J, sigma, eps_critical=TINY_EPS_CRITICAL))
            for sigma in SIGMAS]


def certified_solves(J):
    """(sigma, result) for each sigma whose solve returns a certified
    direction; a critical or stalled solve claims no sigma certificate."""
    return [(sigma, res) for sigma, res in solves(J) if res.status == STATUS_CERTIFIED]


class TestOracle:
    def test_it_imports_no_module_of_the_package(self):
        # it shares no code with the direction solver it checks
        tree = ast.parse(Path(oracle_module.__file__).read_text())
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert imported == {"__future__", "dataclasses", "fractions", "math"}

    def test_the_exact_optimum_holds_with_no_slack(self):
        # sigma = 0 asks for sigma = TOL_GAP, which the optimum clears by TOL_GAP |d|
        cert = exact_certificate(np.eye(2), [0.5, 0.5], [-0.5, -0.5], 0.0)
        assert (cert.phi, cert.d, cert.excess) == (-0.25, -0.25, -TOL_GAP / 4)
        assert cert.holds(floor=False) and cert.slack_used == 0

    def test_the_weights_are_normalized_exactly(self):
        # w = (1, 1) stands for (1/2, 1/2): d is that of the simplex point
        cert = exact_certificate(np.eye(2), [1.0, 1.0], [-0.5, -0.5], 0.0)
        assert (cert.phi, cert.d) == (-0.25, -0.25)
        cert = exact_certificate(np.eye(2), [0.25, 0.75], [-0.25, -0.75], 0.0)
        assert cert.d == -0.3125 and cert.phi == 0.0625 and not cert.holds()

    def test_a_step_twice_too_long_fails(self):
        # phi(2 v*) = -0.5 + 0.5 = 0 against d = -0.25
        cert = exact_certificate(np.eye(2), [0.5, 0.5], [-1.0, -1.0], 0.5)
        assert cert.excess == 0.125 and not cert.holds()

    def test_a_positive_primal_value_fails_inside_the_floor(self):
        # opposing gradients: d = 0 and phi = 1e-20 + 5e-41, far inside the floor
        cert = exact_certificate(np.array([[1.0], [-1.0]]), [0.5, 0.5], [1e-20], 0.5)
        assert 0 < cert.excess <= cert.slack() and cert.phi > 0
        assert not cert.holds()

    def test_sigma_zero_allows_the_relative_gap(self):
        # a gap phi - d of about 2.5 misses the floor, about 0.028, but not
        # TOL_GAP |d| = 25, which the excess takes off and the slack leaves out
        cert = exact_certificate(np.array([[1e6, 0.0], [0.0, 1e6]]), [0.5, 0.5],
                                 [-5e5 * (1.0 + 1e-11), -5e5], 0.0)
        assert cert.slack() == cert.floor and cert.slack(floor=False) == 0
        assert cert.phi - cert.d > cert.floor
        assert cert.excess < 0 and cert.holds(floor=False) and cert.holds()

    def test_a_sigma_below_the_tolerance_asks_for_the_tolerance(self):
        # the rule is monotone in sigma: 1e-12 asks for what sigma = 0 asks
        J, w, v = np.eye(2), [0.5, 0.5], [-0.5, -0.5]
        assert (exact_certificate(J, w, v, 1e-12).excess
                == exact_certificate(J, w, v, 0.0).excess
                == -TOL_GAP / 4)


@settings(max_examples=150)
@given(family=st.sampled_from(FAMILIES), m=st.integers(1, 5), n=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_every_certified_direction_holds_exactly(family, m, n, seed, log_scale):
    J = family_jacobian(family, seed, m, n, log_scale)
    for sigma, res in certified_solves(J):
        cert = exact_certificate(J, res.weights, res.v, sigma)
        assert cert.holds(), (sigma, float(cert.excess), float(cert.slack()), float(cert.phi))


@settings(max_examples=150)
@given(family=st.sampled_from(FAMILIES), m=st.integers(1, 5), n=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_every_solve_ends_within_the_move_bound(family, m, n, seed, log_scale):
    # at most 2^m face minimizers, each within m moves of the last
    J = family_jacobian(family, seed, m, n, log_scale)
    for sigma, res in solves(J):
        assert res.inner_iterations <= m * 2**m <= (2**m - 1) * (m + 1), (sigma, res.status)


@settings(max_examples=150)
@given(**_HARD_CASES)
def test_every_certified_hard_case_holds_exactly(J, sigma, eps_critical):
    # near-parallel and reversed rows at scales 1e-4..1e4, m up to 6 and n
    # up to 300, where faces of one and two vertices take the closed form
    res, _eps = _hard_solve(J, sigma, eps_critical)
    if res is not None and res.status == STATUS_CERTIFIED:
        cert = exact_certificate(J, res.weights, res.v, sigma)
        assert cert.holds(), (sigma, float(cert.excess), float(cert.slack()), float(cert.phi))


@settings(max_examples=20)
@given(J=_wide_jacobians(WIDE_SMALL))
def test_every_certified_wide_sweep_direction_holds_exactly(J):
    # m = 20 gradients in R^50, from x = 5 to the mean of their centres
    for sigma, res in solves(J):
        _assert_read_off_the_weights(J, res)
        if res.status == STATUS_CERTIFIED:
            cert = exact_certificate(J, res.weights, res.v, sigma)
            assert cert.holds(), (sigma, float(cert.excess), float(cert.slack()), float(cert.phi))


def test_the_floor_is_needed_on_near_critical_jacobians():
    # without the gap floor the same oracle rejects certified directions of
    # near-critical J, so it is not vacuous: the floor is what makes them hold
    checked = bare_failures = 0
    for seed in range(40):
        J = family_jacobian("near_critical", seed, 2 + seed % 4, 1 + seed % 7, 0.0)
        for sigma, res in certified_solves(J):
            cert = exact_certificate(J, res.weights, res.v, sigma)
            assert cert.holds()
            checked += 1
            bare_failures += not cert.holds(floor=False)
    assert checked >= 40 and bare_failures >= 5, (checked, bare_failures)


# two gradients in R^2 that nearly oppose: the optimal value, about -2.4e-17,
# lies far below both the gap floor, about 3.0e-13, and the rounding floor
BELOW_FLOOR_JACOBIAN = np.array([[2.3200000034999997, -1.1600000163],
                                 [-3.3999999988, 1.7000000015999999]])


@pytest.mark.parametrize("sigma", SIGMAS)
def test_a_certificate_below_the_rounding_floor_holds_to_the_floor(sigma):
    # such a solve certifies or stalls as the last bits fall: on SkylakeX it
    # certifies after one move, on Haswell, Sandybridge and Prescott it
    # stalls; what it certifies holds exactly, but only up to the gap floor
    J = BELOW_FLOOR_JACOBIAN
    alpha = kkt_direction(J)[2]
    res = solve_sigma_approx(J, sigma, eps_critical=TINY_EPS_CRITICAL)
    cert = exact_certificate(J, res.weights, res.v, sigma)
    assert -TINY_EPS_CRITICAL > alpha > -cert.floor / 1000
    if PINNED:
        assert (res.status, res.inner_iterations) == (STATUS_CERTIFIED, 1)
        # only sigma = 0.9 holds without the floor
        assert cert.holds(floor=False) == (sigma == 0.9)
    if res.status == STATUS_CERTIFIED:
        assert cert.holds()
    else:
        assert res.status == STATUS_STALLED and not cert.holds()


def test_every_recorded_step_of_the_builtins_holds_exactly():
    # from each recommended start and four seeded starts in the box; every
    # point of paper_cubic's real line is critical, so it takes no step
    steps = 0
    for name in list_problems():
        desc = get_problem(name)
        starts = [desc.recommended_x0,
                  *np.random.default_rng(5).uniform(*desc.box, size=(4, desc.problem.n))]
        for x0 in starts:
            for sigma in SIGMAS:
                rep = run(desc.problem, x0, SolverConfig(sigma=sigma))
                for r in rep.stepped_records:
                    cert = exact_certificate(desc.problem.jacobian(r.x), r.weights, r.v, sigma)
                    assert cert.holds(), (name, list(x0), sigma, r.k)
                    steps += 1
    assert steps >= 200, steps


def audited(problem, report, values=None, ulps=1):
    """The exact audit of a run's recorded steps, each with a fresh J(x^k);
    ``values`` replaces the recorded F(x^k)."""
    return audit_steps([r.Fx for r in report.records] if values is None else values,
                       [(problem.jacobian(r.x), r.v, r.j) for r in report.stepped_records],
                       report.config.beta, ulps)


@pytest.fixture(scope="module")
def audited_runs():
    """(problem, report) from each builtin's recommended start and from the
    acceptance criteria's quad_pair starts."""
    runs = [(get_problem(name).problem, run(get_problem(name).problem,
                                            get_problem(name).recommended_x0))
            for name in list_problems()]
    quad = get_problem("quad_pair").problem
    return runs + [(quad, run(quad, x0, RUN_CFG)) for x0 in quad_pair_starts()]


class TestStepAudit:
    def test_every_recorded_step_holds_to_one_ulp_and_the_energy_exactly(self, audited_runs):
        audits = [audited(problem, rep) for problem, rep in audited_runs]
        assert [a.failures for a in audits if not a.ok] == []
        # the floor README guarantees on any kernel: every start is off its
        # problem's critical set, so every run steps but paper_cubic's, whose
        # every point is critical (the step total depends on rounding; the
        # ledger pins the bench's)
        stepless = [i for i, a in enumerate(audits) if a.steps == 0]
        assert stepless == [list_problems().index("paper_cubic")]

    def test_without_the_ulp_the_ties_fail_armijo(self, audited_runs):
        # on a tie the float rule and the exact one part by less than an ulp
        ties = failures = 0
        for problem, rep in audited_runs:
            ties += audited(problem, rep).ties
            bare = audited(problem, rep, ulps=0)
            assert {what.split()[0] for _k, what in bare.failures} <= {"armijo"}
            failures += len(bare.failures)
        assert failures == ties >= 10

    def test_a_value_past_its_target_by_more_than_the_ulp_fails(self):
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, desc.recommended_x0)
        first = rep.records[0]
        slope = sum(Fraction(a) * Fraction(b) for a, b in zip(desc.problem.jacobian(first.x)[0],
                                                              first.v))
        bound = (Fraction(first.Fx[0]) + Fraction(rep.config.beta) * Fraction(first.t) * slope
                 + Fraction(math.ulp(first.Fx[0])))
        at = float(bound)
        if Fraction(at) > bound:
            at = math.nextafter(at, -math.inf)
        values = [r.Fx.copy() for r in rep.records]
        values[1][0] = at
        assert audited(desc.problem, rep, values).ok
        values[1][0] = math.nextafter(at, math.inf)
        assert audited(desc.problem, rep, values).failures == ((0, "armijo F_1"),)
