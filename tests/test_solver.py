import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paretodescent import (
    MultiObjective,
    SolverConfig,
    get_problem,
    run,
    run_diagnostics,
    solve_sigma_approx,
)
from paretodescent.cli import RunSettings, _report_document, load_run, write_trajectory_csv
from paretodescent.direction import STATUS_CERTIFIED, STATUS_STALLED
from paretodescent.oracle import kkt_direction
from paretodescent.solver import (
    TERMINATION_CRITICAL,
    TERMINATION_LINESEARCH,
    TERMINATION_MAX_ITER,
    TERMINATION_NUMERICAL,
    TERMINATION_SUBPROBLEM,
)

from test_direction import STALLING_JACOBIAN


def linear_problem(J):
    return MultiObjective(n=J.shape[1], m=J.shape[0], f=lambda x: J @ x, jac=lambda x: J)


def anisotropic_pair():
    """Convex pair with shared anisotropy; the dual is ill-conditioned far
    out, so exact direction solves cost many inner iterations."""
    D = np.array([1.0, 8.0])
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 0.0])

    def f(x):
        return np.array([0.5 * float((x - a) @ (D * (x - a))),
                         0.5 * float((x - b) @ (D * (x - b)))])

    def jac(x):
        return np.vstack([D * (x - a), D * (x - b)])

    return MultiObjective(n=2, m=2, f=f, jac=jac, name="aniso_pair")


class TestRunExamples:
    def test_quad_pair_descends_to_the_critical_segment(self):
        desc = get_problem("quad_pair")
        rep = run(desc.problem, [2.0, 2.0])
        assert rep.termination == TERMINATION_CRITICAL
        assert abs(rep.final_x[1]) <= 1e-4
        assert -1e-4 <= rep.final_x[0] <= 1.0 + 1e-4
        assert abs(rep.records[-1].alpha_lower) <= 1e-8
        # some simplex weights certify J^T w ~ 0 at the final point
        res = solve_sigma_approx(desc.problem.jacobian(rep.final_x), 0.0)
        assert np.linalg.norm(desc.problem.jacobian(rep.final_x).T @ res.weights) <= 1e-3

    def test_cubic_pair_stops_immediately_everywhere(self):
        rep = run(get_problem("paper_cubic").problem, [5.0])
        assert rep.termination == TERMINATION_CRITICAL
        assert rep.iterations == 0
        assert len(rep.records) == 1
        assert np.array_equal(rep.final_x, [5.0])

    def test_single_criterion_reduces_to_classical_gradient_descent(self):
        rep = run(get_problem("scalar_quad").problem, [1.0])
        assert rep.termination == TERMINATION_CRITICAL
        assert rep.iterations == 1
        first = rep.records[0]
        assert np.array_equal(first.v, [-1.0]) and first.t == 1.0
        assert np.array_equal(rep.final_x, [0.0])


class TestRunContract:
    def test_update_rule_is_reproducible_from_records(self):
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, desc.recommended_x0)
        assert rep.iterations >= 5
        for a, b in zip(rep.records, rep.records[1:]):
            assert np.array_equal(b.x, a.x + a.t * a.v)

    def test_a_record_forms_its_step_from_its_exponent(self):
        # the one t = 2**-j: run steps by it, and check_armijo and a reloaded
        # trajectory read it; exact down to the subnormal 2**-1074, and 0 on
        # the terminal record
        rec = run(get_problem("scalar_quad").problem, [1.0]).records[0]
        steps = [replace(rec, j=j).t for j in (0, 1, 52, 1074, -1)]
        assert steps == [1.0, 0.5, 2.0 ** -52, 5e-324, 0.0]

    def test_values_decrease_and_stay_in_initial_level_set(self):
        for name, x0 in (("quad_pair", [0.3, -2.0]), ("quasi_exp", None), ("nonconvex_demo", None)):
            desc = get_problem(name)
            rep = run(desc.problem, x0 if x0 is not None else desc.recommended_x0)
            F0 = rep.records[0].Fx
            for a, b in zip(rep.records, rep.records[1:]):
                assert np.all(b.Fx <= a.Fx)
                assert np.any(b.Fx < a.Fx)
                assert np.all(b.Fx <= F0)

    def test_critical_termination_certifies_small_alpha(self):
        rep = run(get_problem("quasi_exp").problem, [3.5, -3.5])
        assert rep.termination == TERMINATION_CRITICAL
        assert rep.final_alpha == 0.0
        assert abs(rep.records[-1].alpha_lower) <= 1e-8

    def test_runs_are_deterministic(self):
        p = get_problem("quad_pair").problem
        r1 = run(p, [0.7, 1.9])
        r2 = run(p, [0.7, 1.9])
        assert len(r1.records) == len(r2.records)
        for a, b in zip(r1.records, r2.records):
            assert np.array_equal(a.x, b.x) and a.t == b.t
            assert a.alpha_upper == b.alpha_upper

    def test_sigma_relaxation_saves_inner_iterations_on_expensive_duals(self):
        # sigma = 0 needs a move of the dual solver at every step, while the
        # relaxed certificate may already hold at the barycenter
        p = anisotropic_pair()
        exact = run(p, [3.0, 2.0], SolverConfig(sigma=0.0))
        loose = run(p, [3.0, 2.0], SolverConfig(sigma=0.5))
        assert exact.termination == TERMINATION_CRITICAL
        assert loose.termination == TERMINATION_CRITICAL
        assert loose.total_inner_iterations <= exact.total_inner_iterations

    def test_max_iter_caps_the_run_with_status(self):
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, desc.recommended_x0, SolverConfig(max_iter=3))
        assert rep.termination == TERMINATION_MAX_ITER
        assert rep.iterations == 3
        assert rep.records[-1].t == 0.0 and rep.records[-1].j == -1

    def test_subproblem_failure_is_reported_not_raised(self):
        # three linear criteria whose direction solve stalls at the start
        J = np.hstack([STALLING_JACOBIAN, np.zeros((3, 1))])
        rep = run(linear_problem(J), [0.0, 0.0], SolverConfig(eps_critical=1e-300))
        assert rep.termination == TERMINATION_SUBPROBLEM
        assert not rep.records[-1].sigma_certified

    def test_linesearch_failure_is_reported_not_raised(self):
        # Jacobian lies about the slope sign, so no dyadic step can pass
        lying = MultiObjective(n=1, m=1, f=lambda x: np.array([0.5 * x[0] ** 2]),
                               jac=lambda x: np.array([[-x[0]]]))
        rep = run(lying, [1.0])
        assert rep.termination == TERMINATION_LINESEARCH

    def test_a_sign_flipped_slope_fails_at_the_first_step(self):
        # F(1) = 0.5 and the claimed decrease -2**-(j+1) rounds away against it
        # at j = 54, where the trial at 1 + 2**-54 = 1 would pass unmoved: one
        # F at x^0 and 54 trials, not a run of unmoving steps to max_iter
        calls = []

        def f(x):
            calls.append(x)
            return np.array([0.5 * x[0] ** 2])

        lying = MultiObjective(n=1, m=1, f=f, jac=lambda x: np.array([[-x[0]]]))
        rep = run(lying, [1.0], SolverConfig(max_iter=50))
        assert rep.termination == TERMINATION_LINESEARCH
        assert rep.iterations == 0 and rep.records[-1].k == 0
        assert len(calls) == 55

    def test_negated_jacobian_of_a_pair_fails_at_the_first_step(self):
        # two criteria 0.5*||x - c_i||^2 whose Jacobian claims the opposite slopes
        C = np.array([[0.0, 0.0], [1.0, 1.0]])
        p = MultiObjective(n=2, m=2, f=lambda x: 0.5 * ((x - C) ** 2).sum(axis=1),
                           jac=lambda x: -(x - C))
        rep = run(p, [0.0, 3.0], SolverConfig(max_iter=200))
        assert rep.termination == TERMINATION_LINESEARCH
        assert rep.iterations == 0 and rep.records[-1].k == 0

    def test_nonfinite_jacobian_is_reported_not_raised(self):
        # the first step lands at x = 0, where the Jacobian is infinite
        p = MultiObjective(n=1, m=1, f=lambda x: np.array([0.5 * x[0] ** 2]),
                           jac=lambda x: np.array([[x[0] if x[0] > 1.5 else np.inf]]))
        rep = run(p, [2.0])
        assert rep.termination == TERMINATION_NUMERICAL
        assert rep.iterations == 1
        first, last = rep.records
        assert last.k == 1 and np.array_equal(last.x, first.x + first.t * first.v)
        assert np.array_equal(last.Fx, p.evaluate(last.x))
        assert np.array_equal(last.v, [0.0]) and last.t == 0.0 and last.j == -1
        assert np.isnan(last.alpha_upper) and np.isnan(last.alpha_lower)
        assert not last.sigma_certified and last.inner_iterations == 0

    def test_nonfinite_value_at_start_is_reported_not_raised(self):
        calls = []

        def f(x):
            calls.append("F")
            return np.array([1.0 / x[0], x[0] ** 2])

        def jac(x):
            calls.append("J")
            return np.array([[-1.0 / x[0] ** 2], [2 * x[0]]])

        p = MultiObjective(n=1, m=2, f=f, jac=jac)
        rep = run(p, [0.0])
        assert rep.termination == TERMINATION_NUMERICAL
        assert calls == ["F"]  # F once at x^0 and no Jacobian
        (last,) = rep.records
        assert last.k == 0 and np.array_equal(last.x, [0.0])
        assert np.array_equal(last.Fx, [np.inf, 0.0])
        assert np.array_equal(last.v, [0.0]) and last.t == 0.0 and last.j == -1
        assert np.isnan(last.alpha_upper) and np.isnan(last.alpha_lower)
        assert not last.sigma_certified and last.inner_iterations == 0

    def test_gram_overflow_is_reported_not_raised(self):
        # f(x) = A x: a finite Jacobian whose first row's squared norm overflows
        rep = run(linear_problem(np.diag([1e200, 1.0])), [1.0, 1.0])
        assert rep.termination == TERMINATION_NUMERICAL
        (last,) = rep.records
        assert last.k == 0 and np.array_equal(last.x, [1.0, 1.0])
        assert np.array_equal(last.Fx, [1e200, 1.0])
        assert np.array_equal(last.v, [0.0, 0.0]) and last.t == 0.0 and last.j == -1
        assert np.isnan(last.alpha_upper) and np.isnan(last.alpha_lower)
        assert not last.sigma_certified and last.inner_iterations == 0

    @pytest.mark.filterwarnings("error")
    def test_gram_trace_overflow_is_reported_not_raised(self):
        # every squared row norm of J is finite, their sum is not
        J = np.array([[1.2e154, 0.0], [1.2e154, 1e152], [1.1e154, -3e153]])
        rep = run(linear_problem(J), [1.0, 1.0], SolverConfig(max_iter=5))
        assert rep.termination == TERMINATION_NUMERICAL
        (last,) = rep.records
        assert last.k == 0 and np.isnan(last.alpha_upper) and last.inner_iterations == 0

    def test_jacobian_shape_errors_still_raise(self):
        p = MultiObjective(n=1, m=1, f=lambda x: np.array([0.5 * x[0] ** 2]),
                           jac=lambda x: np.zeros((2, 1)))
        with pytest.raises(ValueError, match="shape"):
            run(p, [2.0])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(beta=1.5)
        with pytest.raises(ValueError):
            SolverConfig(sigma=1.0)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                SolverConfig(eps_critical=eps)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)


class TestIsCritical:
    # the run's criticality test: the direction solve at its eps_critical
    def test_zero_jacobian(self):
        res = solve_sigma_approx(np.zeros((2, 2)), 0.0, eps_critical=1e-8)
        assert res.critical and res.alpha_upper == 0.0

    def test_opposing_gradients(self):
        res = solve_sigma_approx(np.array([[1.0], [-4.0]]), 0.0, eps_critical=1e-8)
        assert res.critical and res.alpha_upper == 0.0

    def test_identity_jacobian_is_not_critical(self):
        res = solve_sigma_approx(np.eye(2), 0.0, eps_critical=1e-8)
        assert res.status == STATUS_CERTIFIED
        np.testing.assert_allclose(res.alpha_upper, -0.25, atol=1e-10)

    def test_uncertified_subproblem_is_neither_critical_nor_certified(self):
        J = np.hstack([STALLING_JACOBIAN, np.zeros((3, 1))])
        res = solve_sigma_approx(J, 0.0, eps_critical=1e-300)
        assert res.status == STATUS_STALLED
        assert not res.critical and not res.sigma_certified


def extreme_problem(family, n, m, fs, xs, x0s, offset, seed, sigma, max_iter):
    """A problem of one of four families, with its start and config: linear
    A x, quadratics 1/2 ||x - c_i||^2, exponentials exp(a_i . x), and the
    quadratics with a sign-flipped Jacobian.  F is scaled by ``fs`` and
    shifted by ``offset``, the geometry scaled by ``xs`` and the start by ``x0s``."""
    rng = np.random.default_rng(seed)
    A, C = rng.normal(size=(m, n)), xs * rng.uniform(-2.0, 2.0, size=(m, n))

    def f(x):
        if family == "linear":
            return (fs * A) @ (x / xs) + offset
        if family == "exponential":
            return fs * np.exp(A @ (x / xs)) + offset
        d = (x - C) / xs
        return fs * 0.5 * (d * d).sum(axis=1) + offset

    def jac(x):
        if family == "linear":
            return fs * A / xs
        if family == "exponential":
            return fs * np.exp(A @ (x / xs))[:, None] * A / xs
        J = fs * ((x - C) / xs) / xs
        return -J if family == "flipped" else J

    x0 = x0s * rng.uniform(-3.0, 3.0, size=n)
    problem = MultiObjective(n=n, m=m, f=f, jac=jac, name=family)
    return problem, x0, SolverConfig(sigma=sigma, max_iter=max_iter)


# n, m <= 4, F scaled by up to 10^+-300 and shifted by up to +-1.7e308, the
# geometry and the start each scaled by up to 10^+-150; small scales are drawn
# as often as any
_EXTREME_PROBLEMS = st.builds(
    extreme_problem,
    st.sampled_from(["linear", "quadratic", "exponential", "flipped"]),
    *(st.integers(1, 4),) * 2,
    *((st.integers(-2, 2) | st.integers(-limit, limit)).map(lambda e: 10.0 ** e)
      for limit in (300, 150, 150)),
    st.sampled_from([0.0, 1.7e308, -1.7e308]) | st.floats(-1.7e308, 1.7e308),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5]),
    st.integers(1, 12),
)


def _as_written(a):
    """The bits a CSV gives back: a NaN as the quiet NaN of its sign."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.copysign(np.nan, a), a).tobytes()


def _fields(r):
    return (r.k, r.j, r.sigma_certified, r.inner_iterations,
            *(_as_written(a) for a in (r.t, r.alpha_upper, r.alpha_lower, r.x, r.Fx, r.v, r.weights)))


def assert_replays(problem, x0, cfg, rep, summary):
    """The CSV gives back every field of the run (a NaN's payload aside), and
    report.json's diagnostics block, the summary's own dict, replays from the
    reloaded records unchanged."""
    with tempfile.TemporaryDirectory() as d:
        prefix = Path(d) / "r"
        write_trajectory_csv(f"{prefix}.trajectory.csv", rep, problem.n, problem.m)
        doc = _report_document(RunSettings(problem, problem.name, None, x0, cfg, str(prefix)),
                               rep, summary)
        Path(f"{prefix}.report.json").write_text(json.dumps(doc, indent=2, allow_nan=False))
        reloaded, doc = load_run(prefix)
    assert (reloaded.termination, reloaded.config) == (rep.termination, rep.config)
    assert list(map(_fields, reloaded.records)) == list(map(_fields, rep.records))
    replay = run_diagnostics(problem, reloaded, cfg.sigma)
    assert replay.to_dict() == doc["diagnostics"] == summary.to_dict()


class TestExtremeScales:
    @settings(max_examples=200)
    @given(_EXTREME_PROBLEMS)
    # F(x^0) is NaN with its sign bit set, from inf + -inf in the product
    @example(extreme_problem("linear", 4, 2, 1e300, 1.0, 1e150, 0.0, 0, 0.0, 5))
    # the Armijo target F(x) + beta t J v overflows to -inf
    @example(extreme_problem("linear", 1, 1, 1e154, 1.0, 1.0, -1.7e308, 1, 0.0, 3))
    # a squared distance of the quasi-Fejer check overflows to inf
    @example(extreme_problem("linear", 1, 1, 1e154, 1.0, 1.0, 1.7e308, 4, 0.0, 3))
    # jac overflows to inf at x^0, where F is finite
    @example(extreme_problem("quadratic", 2, 2, 1e300, 1e-150, 1e-150, 0.0, 0, 0.0, 3))
    def test_runs_check_and_reload_without_a_warning(self, drawn):
        # under the tier-1 error::RuntimeWarning policy nothing raises, and
        # the run replays from its artifacts
        problem, x0, cfg = drawn
        rep = run(problem, x0, cfg)
        assert_replays(problem, x0, cfg, rep, run_diagnostics(problem, rep, cfg.sigma))


# increasing maps (phi, phi'): phi of a convex quadratic is quasi-convex
# (Boyd and Vandenberghe, Convex Optimization, section 3.4)
_PHIS = {
    "identity": (lambda s: s, lambda s: 1.0),
    "log1p": (math.log1p, lambda s: 1.0 / (1.0 + s)),
    "saturating": (lambda s: 1.0 - math.exp(-s), lambda s: math.exp(-s)),
    "sqrt": (lambda s: math.sqrt(1.0 + s) - 1.0, lambda s: 0.5 / math.sqrt(1.0 + s)),
}

QUASICONVEX_MAX_ITER = 100


def quasiconvex_problem(phis, n, scale, seed, sigma):
    """f_i(x) = phi_i(1/2 sum_j D_ij (x_j - C_ij)^2) with its analytic
    Jacobian, D in [0, scale) and C and the start in [-scale, scale)."""
    rng = np.random.default_rng(seed)
    D = rng.uniform(0.0, scale, size=(len(phis), n))
    C = rng.uniform(-scale, scale, size=(len(phis), n))
    x0 = rng.uniform(-scale, scale, size=n)

    def s(x):
        return 0.5 * (D * (x - C) ** 2).sum(axis=1)

    def f(x):
        return np.array([_PHIS[p][0](si) for p, si in zip(phis, s(x))])

    def jac(x):
        slopes = np.array([_PHIS[p][1](si) for p, si in zip(phis, s(x))])
        return slopes[:, None] * D * (x - C)

    problem = MultiObjective(n=n, m=len(phis), f=f, jac=jac, name="+".join(phis))
    return problem, x0, SolverConfig(sigma=sigma, max_iter=QUASICONVEX_MAX_ITER)


# n <= 5, m <= 4 and scales <= 3: past about 10, 1 - exp(-s) is flat to
# working precision far from C, and a run ends critical after no step
_QUASICONVEX_PROBLEMS = st.builds(
    quasiconvex_problem,
    st.lists(st.sampled_from(sorted(_PHIS)), min_size=1, max_size=4),
    st.integers(1, 5),
    st.floats(0.25, 3.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.5, 0.9]),
)


class TestQuasiconvexTheorem:
    @settings(max_examples=100)
    @given(_QUASICONVEX_PROBLEMS)
    def test_runs_end_critical_or_capped_and_prove_it(self, drawn):
        # the paper's theorem on quasi-convex F: the run is stopped only by a
        # critical point or the cap, every step passes the diagnostics, and a
        # critical end is confirmed by support enumeration
        problem, x0, cfg = drawn
        rep = run(problem, x0, cfg)
        assert rep.termination in (TERMINATION_CRITICAL, TERMINATION_MAX_ITER)
        summary = run_diagnostics(problem, rep, cfg.sigma)
        assert summary.all_ok, summary.to_dict()
        if rep.termination == TERMINATION_CRITICAL:
            J = problem.jacobian(rep.final_x)
            slack = 1e-13 * max(1.0, float(np.sum(J * J)))
            _w, _v, alpha = kkt_direction(J)
            assert alpha >= -(cfg.eps_critical + slack)
        assert_replays(problem, x0, cfg, rep, summary)
