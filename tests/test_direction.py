import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from paretodescent import (
    brute_force_direction,
    check_sigma_certificate,
    kkt_direction,
    primal_value,
    project_simplex,
    solve_exact,
    solve_sigma_approx,
)
from paretodescent.direction import STATUS_MAX_INNER


def random_jacobian(rng, scale=10.0):
    m = int(rng.integers(2, 4))
    n = int(rng.integers(1, 6))
    return rng.uniform(-scale, scale, size=(m, n))


_JACOBIANS = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda shape: arrays(float, shape, elements=st.floats(-10.0, 10.0))
)


class TestProjectSimplex:
    def test_feasible_point_unchanged(self):
        assert np.array_equal(project_simplex([0.5, 0.5]), [0.5, 0.5])

    def test_vertex_snap(self):
        assert np.array_equal(project_simplex([2.0, 0.0]), [1.0, 0.0])

    def test_symmetric_point(self):
        np.testing.assert_allclose(project_simplex([1.0, 1.0, 1.0]), [1 / 3] * 3, atol=1e-15)

    def test_kkt_structure_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y = rng.normal(scale=3.0, size=int(rng.integers(1, 7)))
            w = project_simplex(y)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12
            # active entries share one threshold tau; inactive ones sit below it
            active = w > 0
            tau = (y[active].sum() - 1.0) / active.sum()
            np.testing.assert_allclose(w[active], y[active] - tau, atol=1e-12)
            assert np.all(y[~active] - tau <= 1e-12)

    def test_projection_beats_random_feasible_points(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            y = rng.normal(scale=2.0, size=4)
            w = project_simplex(y)
            u = rng.dirichlet(np.ones(4))
            assert np.linalg.norm(w - y) <= np.linalg.norm(u - y) + 1e-12


class TestSolveExact:
    def test_identity_jacobian(self):
        res = solve_exact(np.eye(2))
        np.testing.assert_allclose(res.v, [-0.5, -0.5], atol=1e-9)
        np.testing.assert_allclose(res.alpha_upper, -0.25, atol=1e-10)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-9)
        # cross-check the frozen values against the grid oracle
        _w, v_o, a_o = brute_force_direction(np.eye(2))
        assert np.linalg.norm(res.v - v_o) <= 1e-4
        assert abs(res.alpha_upper - a_o) <= 1e-5

    def test_single_criterion_reduces_to_negative_gradient(self):
        res = solve_exact(np.array([[3.0, 4.0]]))
        assert np.array_equal(res.v, [-3.0, -4.0])
        assert res.alpha_upper == -12.5
        assert np.array_equal(res.weights, [1.0])

    def test_opposing_gradients_are_critical(self):
        res = solve_exact(np.array([[1.0], [-4.0]]))
        assert res.critical
        assert np.array_equal(res.v, [0.0])
        assert res.alpha_upper == 0.0
        assert abs(res.alpha_lower) <= 1e-12

    def test_max_inner_exhaustion_reports_distinct_status(self):
        J = np.array([[0.4, 16.0], [-0.6, 16.0]])  # ill-conditioned Gram matrix
        res = solve_exact(J, max_inner=5)
        assert res.status == STATUS_MAX_INNER
        assert not res.sigma_certified
        assert not res.critical

    def test_rejects_nonfinite_jacobian(self):
        with pytest.raises(ValueError):
            solve_exact(np.array([[np.nan, 0.0]]))


class TestSolveSigmaApprox:
    def test_sigma_zero_is_bitwise_the_exact_solve(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            J = random_jacobian(rng)
            a = solve_exact(J)
            b = solve_sigma_approx(J, 0.0)
            assert np.array_equal(a.v, b.v)
            assert a.alpha_upper == b.alpha_upper
            assert a.inner_iterations == b.inner_iterations

    def test_identity_jacobian_sigma_half_proximity(self):
        res = solve_sigma_approx(np.eye(2), 0.5)
        assert res.sigma_certified
        assert np.sum((res.v - np.array([-0.5, -0.5])) ** 2) <= 2 * 0.5 * 0.25

    def test_zero_jacobian_is_critical(self):
        res = solve_sigma_approx(np.array([[0.0, 0.0]]), 0.3)
        assert res.critical
        assert np.array_equal(res.v, [0.0, 0.0])
        assert res.alpha_upper == 0.0

    def test_sigma_out_of_range_rejected(self):
        for sigma in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                solve_sigma_approx(np.eye(2), sigma)

    def test_early_termination_saves_inner_iterations(self):
        J = np.array([[3.0, 1.0], [0.5, -2.0]])
        exact = solve_exact(J)
        loose = solve_sigma_approx(J, 0.9)
        assert loose.inner_iterations <= exact.inner_iterations


class TestSigmaCertificate:
    def test_exact_direction_certifies_at_sigma_zero(self):
        assert check_sigma_certificate(np.eye(2), [-0.5, -0.5], -0.25, 0.0)

    def test_shrunk_direction_certifies_at_sigma_half(self):
        # primal value -0.4 + 0.16 = -0.24 <= -0.125
        assert check_sigma_certificate(np.eye(2), [-0.4, -0.4], -0.25, 0.5)

    def test_zero_direction_fails_at_noncritical_point(self):
        assert not check_sigma_certificate(np.eye(2), [0.0, 0.0], -0.25, 0.5)

    def test_positive_alpha_rejected(self):
        with pytest.raises(ValueError):
            check_sigma_certificate(np.eye(2), [0.0, 0.0], 0.1, 0.0)


class TestInvariants:
    def test_strong_convexity_gap_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            J = random_jacobian(rng)
            res = solve_exact(J)
            scale = max(1.0, float(np.sum(J * J)))
            for _ in range(5):
                v = rng.normal(scale=2.0, size=J.shape[1])
                lhs = primal_value(J, v) - res.alpha_upper
                assert lhs >= 0.5 * float(np.sum((v - res.v) ** 2)) - 1e-6 * scale

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5, 0.9])
    def test_certified_results_stay_near_the_exact_direction(self, sigma):
        # support enumeration pins v(x) tightly enough for the sigma=0 case
        rng = np.random.default_rng(int(13 + 10 * sigma))
        for _ in range(100):
            J = random_jacobian(rng)
            res = solve_sigma_approx(J, sigma)
            if res.critical:
                continue
            assert res.sigma_certified
            _w, v_o, a_o = kkt_direction(J)
            assert float(np.sum((res.v - v_o) ** 2)) <= 2 * sigma * abs(a_o) + 1e-8

    def test_optimal_slope_equals_negative_squared_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            J = random_jacobian(rng)
            res = solve_exact(J)
            scale = max(1.0, float(np.sum(J * J)))
            slope = float(np.max(J @ res.v))
            assert abs(slope + float(res.v @ res.v)) <= 1e-8 * scale

    def test_certified_noncritical_directions_are_strict_descent(self):
        rng = np.random.default_rng(19)
        for sigma in (0.0, 0.5):
            for _ in range(100):
                J = random_jacobian(rng)
                res = solve_sigma_approx(J, sigma)
                if res.critical or not res.sigma_certified:
                    continue
                assert np.all(J @ res.v < 0.0)

    def test_dual_primal_sandwich_around_grid_value(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            J = random_jacobian(rng)
            res = solve_exact(J)
            _w, _v, a_o = brute_force_direction(J)
            grid_budget = 1e-4 * max(1.0, float(np.sum(J * J)))
            assert res.alpha_lower <= a_o + grid_budget
            assert a_o <= res.alpha_upper + 1e-12

    def test_scalarization_compatibility_is_exact(self):
        rng = np.random.default_rng(29)
        for sigma in (0.0, 0.5):
            for _ in range(100):
                J = random_jacobian(rng)
                res = solve_sigma_approx(J, sigma)
                w = res.weights
                assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
                if res.critical:
                    # snapped to zero; the dual certificate stays near the kernel
                    assert np.linalg.norm(J.T @ w) <= np.sqrt(2e-12) + 1e-12
                else:
                    assert np.array_equal(res.v, -(J.T @ w))

    def test_upper_value_never_positive_on_successful_solves(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            J = random_jacobian(rng)
            res = solve_sigma_approx(J, float(rng.uniform(0.0, 0.99)))
            if res.sigma_certified:
                assert res.alpha_upper <= 0.0
                assert res.alpha_lower <= res.alpha_upper + 1e-15

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(J=_JACOBIANS, sigma=st.floats(0.0, 0.99))
    def test_certified_directions_satisfy_their_sigma_inequality(self, J, sigma):
        res = solve_sigma_approx(J, sigma)
        if not res.sigma_certified:
            return  # a max_inner result claims nothing
        _w, _v, alpha = kkt_direction(J)
        # sigma = 0 certifies only to the relative gap tolerance, not to 1e-12
        slack = 64 * np.finfo(float).eps * max(1.0, float(np.sum(J * J))) + 1e-10 * abs(alpha)
        assert res.alpha_lower <= alpha + slack
        if res.critical:
            assert alpha >= -1e-12 - slack
        else:
            assert primal_value(J, res.v) <= (1.0 - sigma) * alpha + slack
            assert res.alpha_upper <= 0.0
