"""The sigma certificate of every certified direction, checked in exact
arithmetic by the oracle in exact_certificate.py."""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paretodescent import SolverConfig, get_problem, list_problems, run, solve_sigma_approx
from paretodescent import direction
from paretodescent.direction import STATUS_CERTIFIED

import exact_certificate as oracle_module
from exact_certificate import exact_certificate

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


def certified_solves(J):
    """(sigma, result) for each sigma whose solve, under a cap of 300 moves,
    returns a certified direction; a critical or stalled solve claims no
    sigma certificate."""
    with mock.patch.object(direction, "MAX_INNER", 300):
        results = [(sigma, solve_sigma_approx(J, sigma, eps_critical=TINY_EPS_CRITICAL))
                   for sigma in SIGMAS]
    return [(sigma, res) for sigma, res in results if res.status == STATUS_CERTIFIED]


class TestOracle:
    def test_it_imports_no_module_of_the_package(self):
        # it shares no code with the direction solver it checks
        tree = ast.parse(Path(oracle_module.__file__).read_text())
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert imported == {"__future__", "dataclasses", "fractions"}

    def test_the_exact_optimum_holds_with_no_slack(self):
        cert = exact_certificate(np.eye(2), [0.5, 0.5], [-0.5, -0.5], 0.0)
        assert (cert.phi, cert.d, cert.excess) == (-0.25, -0.25, 0)
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
        cert = exact_certificate(np.array([[1e6, 0.0], [0.0, 1e6]]), [0.5, 0.5],
                                 [-5e5 * (1.0 + 1e-11), -5e5], 0.0)
        assert cert.slack() == cert.slack(floor=False) > cert.floor
        assert cert.excess > cert.floor and cert.holds()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(family=st.sampled_from(FAMILIES), m=st.integers(1, 5), n=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-6.0, 6.0))
def test_every_certified_direction_holds_exactly(family, m, n, seed, log_scale):
    J = family_jacobian(family, seed, m, n, log_scale)
    for sigma, res in certified_solves(J):
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
