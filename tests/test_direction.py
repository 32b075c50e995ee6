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
    solve_exact,
    solve_sigma_approx,
)
from paretodescent.direction import (
    STATUS_CERTIFIED,
    STATUS_CRITICAL,
    STATUS_MAX_INNER,
    _allowance,
)


# Jacobians on which the projected-gradient loop this solver replaced ran
# out of updates: a zero gradient beside a near-singular face, and three
# near-parallel gradients one of whose entries is subnormal.
ZERO_ROW_JACOBIAN = np.array([
    [-1.72e-4, 0.0, -3.38, 0.0],
    [0.0, -1.72e-4, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.9],
])
SUBNORMAL_JACOBIAN = np.array([[-7.975, 2.2e-309], [-7.975, -7.975], [-7.975, -0.333]])


def project_simplex(y) -> np.ndarray:
    """Euclidean projection of ``y`` onto the unit simplex, the step of the
    projected-gradient loop whose iterates the allowance property checks.

    Returns argmin_{w in simplex} ||w - y||^2 via the sorted-threshold rule:
    entries are max(y_i - tau, 0) with tau chosen so they sum to one.  The
    projection does not change when a constant is added to every entry, so
    the rule runs on y - max(y), whose active entries lie in [-1, 0]; on y
    itself the threshold is lost to rounding once max(y) nears 1/eps.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    # entries below -1 after the shift are inactive; the clamp keeps an
    # overflowed difference (-inf) out of the cumulative sum
    with np.errstate(over="ignore"):
        z = np.maximum(y - np.max(y), -2.0)
    u = np.sort(z)[::-1]
    css = np.cumsum(u) - 1.0
    rho = int(np.nonzero(u - css / np.arange(1, z.size + 1) > 0.0)[0][-1])
    return np.maximum(z - css[rho] / (rho + 1.0), 0.0)


def random_jacobian(rng, scale=10.0):
    m = int(rng.integers(2, 4))
    n = int(rng.integers(1, 6))
    return rng.uniform(-scale, scale, size=(m, n))


_JACOBIANS = st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda shape: arrays(float, shape, elements=st.floats(-10.0, 10.0))
)


def _hard_jacobian(n, spread, log_scales, signs, seed):
    """Rows near one random direction of R^n, scaled by signs * 10**log_scales."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=n) + spread * rng.normal(size=(len(log_scales), n))
    return rows * (np.asarray(signs) * 10.0 ** np.asarray(log_scales))[:, None]


@st.composite
def _hard_jacobians(draw):
    """Near-parallel rows at scales 1e-4..1e4, some of them reversed."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 300))
    spread = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]))
    log_scales = draw(arrays(float, m, elements=st.floats(-4.0, 4.0)))
    signs = draw(arrays(float, m, elements=st.sampled_from([-1.0, 1.0])))
    return _hard_jacobian(n, spread, log_scales, signs, draw(st.integers(0, 2**32 - 1)))


def _enumerated_alpha(J):
    """Optimal value by enumerating every face, for any m: the least psi over
    the faces whose bordered KKT system has a nonnegative solution."""
    m = J.shape[0]
    G = J @ J.T
    best = -np.inf
    for mask in range(1, 2**m):
        S = [i for i in range(m) if mask >> i & 1]
        A = np.ones((len(S) + 1, len(S) + 1))
        A[:-1, :-1] = G[np.ix_(S, S)]
        A[-1, -1] = 0.0
        rhs = np.zeros(len(S) + 1)
        rhs[-1] = 1.0
        wS = np.linalg.lstsq(A, rhs, rcond=None)[0][:-1]
        if np.all(wS >= -1e-9) and wS.sum() > 0.0:
            wS = np.clip(wS, 0.0, None)
            g = J[S].T @ (wS / wS.sum())
            best = max(best, -0.5 * float(g @ g))
    return best


def _reference_alpha(J):
    return kkt_direction(J)[2] if J.shape[0] <= 4 else _enumerated_alpha(J)


_HARD_CASES = dict(
    J=_hard_jacobians(),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    eps_critical=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0, None]),
)


def _hard_solve(J, sigma, eps_critical):
    """Solve with max_inner = 300; eps_critical None stands for the value at
    which the J-space critical test passes at the barycenter with equality,
    where the Gram-space screen has no rounding room to spare."""
    if eps_critical is None:
        v0 = -(J.T @ np.full(J.shape[0], 1.0 / J.shape[0]))
        eps_critical = 0.5 * float(v0 @ v0)
        if eps_critical <= 0.0:
            return None, eps_critical
    return solve_sigma_approx(J, sigma, eps_critical=eps_critical, max_inner=300), eps_critical


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "y, expected",
        [
            ([1e17, 0.0], [1.0, 0.0]),
            ([1e16, 3.0], [1.0, 0.0]),
            ([1e300, 1e300], [0.5, 0.5]),
            ([1.7e308, -1.7e308], [1.0, 0.0]),
            ([-1e300, 1e300, -1e17], [0.0, 1.0, 0.0]),
        ],
    )
    def test_large_finite_inputs_project_onto_the_simplex(self, y, expected):
        assert np.array_equal(project_simplex(y), expected)

    @pytest.mark.filterwarnings("error")
    def test_inputs_of_any_finite_scale_project_onto_the_simplex(self):
        rng = np.random.default_rng(8)
        for exponent in range(-300, 308, 7):
            y = rng.normal(size=int(rng.integers(1, 7))) * 10.0**exponent
            w = project_simplex(y)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 4 * np.finfo(float).eps * y.size

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
        cases = [
            (SUBNORMAL_JACOBIAN, 1),  # certifies after its second move
            (np.random.default_rng(3).uniform(0.5, 2.0, size=(20, 50)) * 5.0, 5),
        ]
        for J, cap in cases:
            res = solve_exact(J, max_inner=cap)
            assert res.status == STATUS_MAX_INNER
            assert res.inner_iterations == cap
            assert not res.sigma_certified
            assert not res.critical
            # the returned bounds are those of the returned direction
            assert np.array_equal(res.v, -(J.T @ res.weights))
            assert res.alpha_lower == -0.5 * float(res.v @ res.v)
            assert res.alpha_upper == primal_value(J, res.v)

    def test_zero_gradient_beside_a_near_singular_face_is_critical(self):
        res = solve_exact(ZERO_ROW_JACOBIAN)
        assert res.critical
        assert res.inner_iterations == 1
        assert np.array_equal(res.v, np.zeros(4))

    def test_subnormal_entry_certifies_the_optimal_value(self):
        for sigma in (0.0, 1e-12, 5e-324):
            res = solve_sigma_approx(SUBNORMAL_JACOBIAN, sigma)
            assert res.status == STATUS_CERTIFIED
            assert res.inner_iterations == 2
            assert res.alpha_upper == pytest.approx(-31.8003125, rel=4 * np.finfo(float).eps)
            assert res.alpha_lower == pytest.approx(-31.8003125, rel=4 * np.finfo(float).eps)

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


class TestGramSpaceLoop:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(**_HARD_CASES)
    def test_certificates_hold_against_a_reference_optimum(self, J, sigma, eps_critical):
        res, eps_critical = _hard_solve(J, sigma, eps_critical)
        if res is None or not res.sigma_certified:
            return  # a max_inner result claims nothing
        alpha = _reference_alpha(J)
        slack = 64 * np.finfo(float).eps * max(1.0, float(np.sum(J * J))) + 1e-10 * abs(alpha)
        assert res.alpha_lower <= alpha + slack
        if res.critical:
            assert alpha >= -eps_critical - slack
        else:
            assert primal_value(J, res.v) <= (1.0 - sigma) * alpha + slack
            assert res.alpha_upper <= 0.0

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(**_HARD_CASES)
    def test_max_inner_is_reached_only_below_the_rounding_floor(self, J, sigma, eps_critical):
        res, _eps = _hard_solve(J, sigma, eps_critical)
        if res is not None and res.status == STATUS_MAX_INNER:
            assert abs(_reference_alpha(J)) <= _allowance(J @ J.T, J.shape[1])

    def test_a_face_minimizer_no_vertex_improves_on_returns_before_the_cap(self):
        # a _hard_jacobians draw with alpha* = -2.2e-10 and cond G = 1.2e20:
        # once w minimizes psi on its face, the vertex with the smallest
        # (Gw)_i is already in it, and every further move repeats itself
        J = _hard_jacobian(256, 1e-6, [3.8872746336723925, -1.192092896e-07, 3.9666505880759306],
                           [1.0, 1.0, -1.0], 4294967294)
        results = [solve_sigma_approx(J, 0.9883535562604477, eps_critical=1e-12, max_inner=cap)
                   for cap in (300, 10_000)]
        for res in results:
            assert res.status == STATUS_MAX_INNER
            assert res.inner_iterations <= 5
            assert np.array_equal(res.v, -(J.T @ res.weights))
        assert results[0].weights.tobytes() == results[1].weights.tobytes()

    def test_gram_space_bounds_stay_within_the_allowance(self):
        rng = np.random.default_rng(41)
        # the anisotropic quadratics of the wide benchmark sweep at x = 5 and
        # near their centres: m = 10 near-parallel gradients in R^10000
        curv = rng.uniform(0.5, 2.0, size=(10, 10_000))
        centres = rng.uniform(-1.0, 1.0, size=(10, 10_000))
        jacobians = [curv * (5.0 - centres), curv * (centres.mean(axis=0) - centres)]
        jacobians += [random_jacobian(rng, scale=10.0 ** rng.uniform(-4, 4)) for _ in range(50)]
        for J in jacobians:
            m = J.shape[0]
            G = J @ J.T
            allowance = _allowance(G, J.shape[1])
            step = 1.0 / float(np.linalg.eigvalsh(G)[-1])
            points = list(rng.dirichlet(np.ones(m), size=20))
            w = np.full(m, 1.0 / m)
            for _ in range(30):
                points.append(w)
                w = project_simplex(w - step * (G @ w))
            points.append(solve_exact(J).weights)
            for w in points:
                Gw = G @ w
                wGw = float(w @ Gw)
                v = -(J.T @ w)
                vv = float(v @ v)
                Jv_max = float(np.max(J @ v))
                assert abs(wGw - vv) <= allowance
                assert abs(-float(Gw.min()) - Jv_max) <= allowance
                # the loop's screened bounds against the J-space ones
                assert abs((0.5 * wGw - float(Gw.min())) - (Jv_max + 0.5 * vv)) <= allowance


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
                # at a face minimizer the two bounds meet, and may cross by rounding
                assert res.alpha_lower <= res.alpha_upper + _allowance(J @ J.T, J.shape[1])

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
