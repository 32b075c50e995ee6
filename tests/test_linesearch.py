import math
from dataclasses import fields

import numpy as np
import pytest

from paretodescent import (
    LineSearchError,
    MultiObjective,
    SolverConfig,
    armijo_step,
    get_problem,
    run,
    solve_sigma_approx,
)
from paretodescent.linesearch import StepResult


def scalar_problem(f, jac):
    return MultiObjective(n=1, m=1, f=lambda x: np.array([f(x[0])]),
                          jac=lambda x: np.array([[jac(x[0])]]))


HALF_SQUARE = scalar_problem(lambda t: 0.5 * t * t, lambda t: t)
LINEAR = scalar_problem(lambda t: t, lambda t: 1.0)


def take_step(problem, x, v, beta):
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    Fx = problem.evaluate(x)
    Jv = problem.jacobian(x) @ v
    return armijo_step(problem, x, Fx, v, Jv, beta)


def counted(f, m=1):
    """A 1-D problem of ``m`` criteria from ``f``, and the list of its calls."""
    calls = []

    def value(x):
        calls.append(x)
        return np.atleast_1d(f(x[0]))

    return MultiObjective(n=1, m=m, f=value), calls


class TestExamples:
    def test_full_step_on_quadratic(self):
        st = take_step(HALF_SQUARE, [1.0], [-1.0], 0.5)
        assert st == StepResult(j=0) and 2.0 ** -st.j == 1.0

    def test_full_step_on_linear_objective(self):
        st = take_step(LINEAR, [0.0], [-1.0], 0.5)
        assert st == StepResult(j=0) and 2.0 ** -st.j == 1.0

    def test_overshooting_direction_backtracks_to_sixteenth(self):
        # j = 0..3 all fail (at j=3: 0.1953 > 0.1625); j = 4 passes
        st = take_step(HALF_SQUARE, [1.0], [-3.0], 0.9)
        assert st == StepResult(j=4) and 2.0 ** -st.j == 0.0625


class TestContract:
    def test_step_is_bit_exact_power_of_two(self):
        rng = np.random.default_rng(3)
        p = get_problem("quad_pair").problem
        for _ in range(50):
            x = rng.uniform(-3, 3, size=2)
            res = solve_sigma_approx(p.jacobian(x), 0.0)
            if res.critical:
                continue
            st = take_step(p, x, res.v, float(rng.uniform(0.05, 0.95)))
            assert type(st.j) is int and st.j >= 0
            assert 2.0 ** -st.j == math.ldexp(1.0, -st.j)

    def test_a_step_result_holds_no_step_but_its_exponent(self):
        # the run's IterationRecord forms t = 2**-j (test_solver.py)
        with pytest.raises(TypeError):
            StepResult(j=1, t=0.3)
        assert [f.name for f in fields(StepResult)] == ["j"]
        assert not hasattr(StepResult(j=0), "t")

    def test_accepted_step_is_maximal(self):
        rng = np.random.default_rng(4)
        p = get_problem("nonconvex_demo").problem
        checked = 0
        for _ in range(200):
            x = rng.uniform(-3, 3, size=1)
            res = solve_sigma_approx(p.jacobian(x), 0.0)
            if res.critical or res.alpha_upper > -1e-6:
                continue
            beta = float(rng.choice([0.1, 0.5, 0.9]))
            Fx = p.evaluate(x)
            Jv = p.jacobian(x) @ res.v
            st = armijo_step(p, x, Fx, res.v, Jv, beta)
            t = 2.0 ** -st.j
            accepted = p.evaluate(x + t * res.v, require_finite=False)
            assert np.all(accepted <= Fx + beta * t * Jv)
            if st.j >= 1:
                doubled = p.evaluate(x + 2 * t * res.v, require_finite=False)
                assert not (np.all(np.isfinite(doubled))
                            and np.all(doubled <= Fx + beta * 2 * t * Jv))
                checked += 1
        assert checked > 0

    def test_componentwise_decrease_with_strict_improvement(self):
        p = get_problem("quad_pair").problem
        x = np.array([2.0, 2.0])
        res = solve_sigma_approx(p.jacobian(x), 0.0)
        st = take_step(p, x, res.v, 0.5)
        after = p.evaluate(x + 2.0 ** -st.j * res.v)
        before = p.evaluate(x)
        assert np.all(after <= before)
        assert np.any(after < before)

    def test_exhaustion_raises_on_inconsistent_slope(self):
        # claimed slope says descent, objective says ascent: every j fails.
        # The target 0.5 - 2**-(j+1) rounds to F = 0.5 at j = 54, where the
        # trial at 1 + 2**-54 = 1 would pass with no decrease at all
        with pytest.raises(LineSearchError, match=r"t = 2\*\*-54$"):
            armijo_step(HALF_SQUARE, np.array([1.0]), np.array([0.5]),
                        np.array([1.0]), np.array([-1.0]), 0.5)

    def test_search_from_a_zero_value_runs_until_the_decrease_underflows(self):
        # f(x) = x at x = 0 with a claimed slope of -1: the target -2**-(j+1)
        # is below 0 for j <= 1073 and is 0 at j = 1074
        p, calls = counted(lambda t: t)
        with pytest.raises(LineSearchError, match=r"t = 2\*\*-1074$"):
            armijo_step(p, np.array([0.0]), np.array([0.0]), np.array([1.0]), np.array([-1.0]), 0.5)
        assert len(calls) == 1074

    @pytest.mark.parametrize("Jv", [[0.0, 0.0], [1.0, 0.0], [-0.0, 2.0], [np.nan, 0.0]])
    def test_slopes_without_a_descent_fail_before_any_trial(self, Jv):
        # no negative slope (or a NaN one) leaves no target component below F(x)
        p, calls = counted(lambda t: [t, -t], m=2)
        with pytest.raises(LineSearchError, match=r"t = 2\*\*-0$"):
            armijo_step(p, np.array([0.0]), np.array([0.0, 0.0]), np.array([1.0]), np.array(Jv), 0.5)
        assert calls == []

    def test_nonfinite_trials_count_as_rejections(self):
        def f(x):
            return np.array([np.inf if x[0] < -0.5 else 0.5 * x[0] ** 2])

        spiky = MultiObjective(n=1, m=1, f=f, jac=lambda x: np.array([[x[0]]]))
        # from 0.25 along v=-1, t=1 and t=1/2 land in the overflow region
        st = armijo_step(spiky, np.array([0.25]), spiky.evaluate([0.25]),
                         np.array([-1.0]), np.array([-0.25]), 0.5)
        t = 2.0 ** -st.j
        assert t <= 0.5
        assert np.isfinite(spiky.evaluate([0.25 - t], require_finite=False)[0])

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_target_warns_of_nothing(self):
        # F(0) = -1.7e308 with slope 1e154: the targets and trial values of
        # the longest steps overflow to -inf, and those trials are rejected
        steep = scalar_problem(lambda t: 1e154 * t - 1.7e308, lambda t: 1e154)
        report = run(steep, [0.0], SolverConfig(max_iter=3))
        assert report.termination == "max_iter"
        assert [r.j for r in report.records] == [4, 5, 8, -1]

    def test_invalid_beta_rejected(self):
        for beta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                armijo_step(HALF_SQUARE, np.array([1.0]), np.array([0.5]),
                            np.array([-1.0]), np.array([-1.0]), beta)


def test_well_defined_on_certified_directions_across_problems():
    rng = np.random.default_rng(9)
    names = ["quad_pair", "quasi_exp", "scalar_quad", "nonconvex_demo"]
    done = 0
    while done < 60:
        desc = get_problem(names[int(rng.integers(len(names)))])
        p = desc.problem
        x = rng.uniform(desc.box[0], desc.box[1], size=p.n)
        res = solve_sigma_approx(p.jacobian(x), 0.0)
        if res.critical or res.alpha_upper > -1e-6:
            continue
        st = take_step(p, x, res.v, 0.5)
        assert st.j <= 60
        done += 1
