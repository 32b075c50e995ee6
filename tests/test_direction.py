import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from paretodescent import NonFiniteError, get_problem, list_problems, solve_sigma_approx
from paretodescent.direction import (
    STATUS_CERTIFIED,
    STATUS_CRITICAL,
    STATUS_STALLED,
    TOL_GAP,
    _allowance,
    _gap_floor,
    _stop_status,
)
from paretodescent.oracle import kkt_direction

from kernel import PINNED_KERNEL
from oracles import brute_force_direction


def primal(J, v) -> float:
    """max_i <g_i, v> + ||v||^2 / 2, the subproblem's objective at v."""
    return float((J @ v).max()) + 0.5 * float(v @ v)


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
# a zero gradient twice beside a subnormal one: the bordered system of the
# full face is singular, but LU pivots on a subnormal Gram entry and returns
# inf and NaN instead of reporting it
SUBNORMAL_PIVOT_JACOBIANS = [np.array([[2.22507386e-313], [0.0], [0.0], [1.0]]),
                             np.array([[2.22507386e-313], [0.0], [2.22507386e-313], [1.0]])]
# finite rows whose squared norms are finite but sum past the largest double
TRACE_OVERFLOW_JACOBIAN = np.array([[1.2e154, 0.0], [1.2e154, 1e152], [1.1e154, -3e153]])
# three gradients in R^1 that sum to about 2e-17: the optimal value, about
# -1e-33, lies below the rounding floor, and under eps_critical = 1e-300 the
# fourth move (the third on OpenBLAS kernels but SkylakeX) reaches a face
# minimizer that does not lower psi
STALLING_JACOBIAN = np.array([[0.5706560135801596], [1.3826081419979863], [-1.9532643075147693]])


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


# m = 1..6 criteria with finite entries, the shapes the input check must cover
_FINITE_JACOBIANS = st.tuples(st.integers(1, 6), st.integers(1, 10)).flatmap(
    lambda shape: arrays(float, shape, elements=st.floats(-10.0, 10.0))
)

_HARD_CASES = dict(
    J=_hard_jacobians(),
    sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    eps_critical=st.sampled_from([1e-12, 1e-6, 1e-2, 1.0, None]),
)


def _hard_solve(J, sigma, eps_critical):
    """Solve; eps_critical None stands for the value at which the critical
    test passes at the barycenter with equality."""
    if eps_critical is None:
        v0 = -(J.T @ np.full(J.shape[0], 1.0 / J.shape[0]))
        eps_critical = 0.5 * float(v0 @ v0)
        if eps_critical <= 0.0:
            return None, eps_critical
    return solve_sigma_approx(J, sigma, eps_critical=eps_critical), eps_critical


def _screened_stop_status(p_lo, d_lo, d_hi, sigma, eps_critical, gap_floor):
    """The solver's stop tests, monotone in each bound: called with (p, d, d)
    they test the bounds p = alpha_upper and d = alpha_lower, and for any
    p_lo <= p and d_lo <= d <= d_hi they pass whenever they pass on (p, d, d),
    the sigma = 0 tolerance TOL_GAP*|d| being read from d_lo <= d <= 0."""
    if d_hi >= -eps_critical:
        return STATUS_CRITICAL
    if sigma > 0.0:
        excess = p_lo - (1.0 - sigma) * d_hi - gap_floor
    else:
        excess = p_lo - d_hi - max(TOL_GAP * abs(d_lo), gap_floor)
    return STATUS_CERTIFIED if excess <= 0.0 and p_lo <= 0.0 else None


def _reference_solve(J, sigma, eps_critical):
    """The active-set solve written with numpy's general-purpose wrappers
    (np.pad, np.ix_, np.eye, np.max, np.diag, np.trace, np.finfo), as
    (v, alpha_lower, alpha_upper, weights, inner_iterations, status).
    solve_sigma_approx must reproduce it bit for bit.  It screens every
    iterate on bounds computed from G = J J^T, widened by the allowance, and
    reads the J-space bounds only where the screen passes: the allowance
    makes the screen a necessary condition of the J-space test, so the solve,
    which tests every iterate on J alone, stops at the same iterate."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    m, n = J.shape
    G = J @ J.T
    gap_floor = 64.0 * np.finfo(float).eps * max(1.0, float(np.trace(G)))
    allowance = 4.0 * (n + m) * np.finfo(float).eps * max(1.0, float(np.max(np.diag(G))))

    def bounds(w):
        v = -(J.T @ w)
        vv = float(v @ v)
        return v, -0.5 * vv, float(np.max(J @ v)) + 0.5 * vv

    def face_minimizer(support):
        idx = np.flatnonzero(support)
        G_SS = G[np.ix_(idx, idx)]
        K = np.pad(G_SS / max(float(G_SS.diagonal().max()), np.finfo(float).tiny), (0, 1),
                   constant_values=1.0)
        K[-1, -1] = 0.0
        rhs = np.eye(idx.size + 1)[-1]
        try:
            sol = np.linalg.solve(K, rhs)
            if not np.all(np.isfinite(sol)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        y = np.zeros(m)
        y[idx] = sol[:-1]
        return y

    w = np.full(m, 1.0 / m)
    on_face_min = False
    psi_min = np.inf
    it = 0
    while True:
        Gw = G @ w
        wGw = float(w @ Gw)
        d_gram = -0.5 * wGw
        p_gram = 0.5 * wGw - float(Gw.min())
        if _screened_stop_status(p_gram - allowance, d_gram - allowance, d_gram + allowance,
                                 sigma, eps_critical, gap_floor) is not None:
            v, d, p = bounds(w)
            status = _screened_stop_status(p, d, d, sigma, eps_critical, gap_floor)
            if status == STATUS_CRITICAL:
                v, p = np.zeros_like(v), 0.0
            if status is not None:
                return v, d, p, w, it, status
        support = w > 0.0
        if on_face_min:
            if not wGw < psi_min:
                return (*bounds(w), w, it, STATUS_STALLED)
            psi_min = wGw
            support[int(np.argmin(Gw))] = True
        y = face_minimizer(support)
        blocking = support & (y < 0.0)
        if not blocking.any():
            w, on_face_min = y, True
        else:
            ratios = w[blocking] / (w[blocking] - y[blocking])
            first = int(np.argmin(ratios))
            w = np.maximum(w + ratios[first] * (y - w), 0.0)
            w[np.flatnonzero(blocking)[first]] = 0.0
            on_face_min = False
        it += 1


@st.composite
def _wide_jacobians(draw):
    """Jacobians of the wide benchmark sweep's quadratic families, at a point
    on the segment from 5*1 to the mean of the centres: anisotropic with
    m = 20, n = 50 or m = 10, n = 10^4, or isotropic with m = 20, n = 50."""
    kind, n, m = draw(st.sampled_from([("aniso", 50, 20), ("aniso", 10_000, 10), ("iso", 50, 20)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = rng.uniform(-1.0, 1.0, size=(m, n))
    curv = rng.uniform(0.5, 2.0, size=(m, n)) if kind == "aniso" else np.ones((m, n))
    s = draw(st.sampled_from([0.0, 0.5, 0.99, 0.999999, 1.0]))
    x = (1.0 - s) * 5.0 + s * centres.mean(axis=0)
    return curv * (x - centres)


class TestSolveExact:
    def test_identity_jacobian(self):
        res = solve_sigma_approx(np.eye(2), 0.0)
        np.testing.assert_allclose(res.v, [-0.5, -0.5], atol=1e-9)
        np.testing.assert_allclose(res.alpha_upper, -0.25, atol=1e-10)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-9)
        # cross-check the frozen values against the grid oracle
        _w, v_o, a_o = brute_force_direction(np.eye(2))
        assert np.linalg.norm(res.v - v_o) <= 1e-4
        assert abs(res.alpha_upper - a_o) <= 1e-5

    def test_single_criterion_reduces_to_negative_gradient(self):
        res = solve_sigma_approx(np.array([[3.0, 4.0]]), 0.0)
        assert np.array_equal(res.v, [-3.0, -4.0])
        assert res.alpha_upper == -12.5
        assert np.array_equal(res.weights, [1.0])

    def test_opposing_gradients_are_critical(self):
        res = solve_sigma_approx(np.array([[1.0], [-4.0]]), 0.0)
        assert res.critical
        assert np.array_equal(res.v, [0.0])
        assert res.alpha_upper == 0.0
        assert abs(res.alpha_lower) <= 1e-12

    @pytest.mark.parametrize("sigma", [0.0, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("zero_columns", [0, 1])
    def test_a_stalled_solve_reports_distinct_status(self, zero_columns, sigma):
        J = np.hstack([STALLING_JACOBIAN, np.zeros((3, zero_columns))])
        res = solve_sigma_approx(J, sigma, eps_critical=1e-300)
        assert res.status == STATUS_STALLED
        # 4 moves on the pinned kernel, 3 on others; any solve ends within m * 2^m
        assert (res.inner_iterations == 4 if PINNED_KERNEL
                else res.inner_iterations <= 3 * 2**3)
        assert not res.sigma_certified
        assert not res.critical
        # the returned bounds are those of the returned direction
        assert np.array_equal(res.v, -(J.T @ res.weights))
        assert res.alpha_lower == -0.5 * float(res.v @ res.v)
        assert res.alpha_upper == primal(J, res.v)

    @pytest.mark.parametrize("J", [ZERO_ROW_JACOBIAN, *SUBNORMAL_PIVOT_JACOBIANS])
    def test_zero_gradient_beside_a_near_singular_face_reports_critical(self, J):
        res = solve_sigma_approx(J, 0.0)
        assert res.critical
        assert res.inner_iterations == 1
        assert np.array_equal(res.v, np.zeros(J.shape[1]))

    def test_subnormal_entry_certifies_the_optimal_value(self):
        for sigma in (0.0, 1e-12, 5e-324):
            res = solve_sigma_approx(SUBNORMAL_JACOBIAN, sigma)
            assert res.status == STATUS_CERTIFIED
            # 2 moves on the pinned kernel, 1 on Sandybridge
            assert (res.inner_iterations == 2 if PINNED_KERNEL
                    else res.inner_iterations <= 3 * 2**3)
            assert res.alpha_upper == pytest.approx(-31.8003125, rel=4 * np.finfo(float).eps)
            assert res.alpha_lower == pytest.approx(-31.8003125, rel=4 * np.finfo(float).eps)

    @settings(max_examples=60)
    @given(J=_FINITE_JACOBIANS, where=st.tuples(st.integers(0, 5), st.integers(0, 9)),
           value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_rejects_nonfinite_jacobian(self, J, where, value):
        J[where[0] % J.shape[0], where[1] % J.shape[1]] = value
        with pytest.raises(NonFiniteError):
            solve_sigma_approx(J, 0.0)


class TestSolveSigmaApprox:
    def test_identity_jacobian_sigma_half_proximity(self):
        res = solve_sigma_approx(np.eye(2), 0.5)
        assert res.sigma_certified
        assert np.sum((res.v - np.array([-0.5, -0.5])) ** 2) <= 2 * 0.5 * 0.25

    def test_zero_jacobian_reports_critical(self):
        res = solve_sigma_approx(np.array([[0.0, 0.0]]), 0.3)
        assert res.critical
        assert np.array_equal(res.v, [0.0, 0.0])
        assert res.alpha_upper == 0.0

    @pytest.mark.parametrize("J", [np.ones(2), np.ones((1, 2, 2)), np.float64(1.0)],
                             ids=["vector", "three_dimensional", "scalar"])
    def test_a_jacobian_that_is_not_a_matrix_is_rejected(self, J):
        with pytest.raises(ValueError) as exc:
            solve_sigma_approx(J, 0.5)
        assert str(exc.value) == f"jacobian must be a matrix, got shape {np.shape(J)}"

    def test_sigma_out_of_range_rejected(self):
        for sigma in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                solve_sigma_approx(np.eye(2), sigma)

    @pytest.mark.parametrize("eps_critical", [0.0, -1e-8, np.nan, np.inf])
    def test_eps_critical_must_be_positive_and_finite(self, eps_critical):
        with pytest.raises(ValueError):
            solve_sigma_approx(np.eye(2), 0.5, eps_critical=eps_critical)

    @settings(max_examples=60)
    @given(J=_FINITE_JACOBIANS, where=st.tuples(st.integers(0, 5), st.integers(0, 9)),
           log_scale=st.floats(155.0, 308.0), sign=st.sampled_from([-1.0, 1.0]),
           sigma=st.floats(0.0, 0.99))
    @example(J=np.array([[1e200, 1.0], [0.5, 2.0]]), where=(0, 0), log_scale=200.0, sign=1.0,
             sigma=0.0)
    def test_gram_overflow_raises_before_any_move(self, J, where, log_scale, sign, sigma):
        # one row of norm at least 1e155: its squared norm, G_ii, overflows
        J[where[0] % J.shape[0], where[1] % J.shape[1]] = sign * 10.0 ** log_scale
        with pytest.raises(NonFiniteError):
            solve_sigma_approx(J, sigma)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_gram_trace_overflow_raises_without_warnings(self, sigma):
        # every squared row norm is finite, their sum is not: the gap floor
        # 64*eps*trace would be infinite and certify any direction
        with pytest.raises(NonFiniteError):
            solve_sigma_approx(TRACE_OVERFLOW_JACOBIAN, sigma)

    def test_early_termination_saves_inner_iterations(self):
        J = np.array([[3.0, 1.0], [0.5, -2.0]])
        exact = solve_sigma_approx(J, 0.0)
        loose = solve_sigma_approx(J, 0.9)
        assert loose.inner_iterations <= exact.inner_iterations


class TestGramSpaceLoop:
    @settings(max_examples=300)
    @given(**_HARD_CASES)
    def test_certificates_hold_against_a_reference_optimum(self, J, sigma, eps_critical):
        res, eps_critical = _hard_solve(J, sigma, eps_critical)
        if res is None or not res.sigma_certified:
            return  # a stalled result claims nothing
        _w, _v, alpha = kkt_direction(J)
        slack = 64 * np.finfo(float).eps * max(1.0, float(np.sum(J * J))) + 1e-10 * abs(alpha)
        assert res.alpha_lower <= alpha + slack
        if res.critical:
            assert alpha >= -eps_critical - slack
        else:
            assert primal(J, res.v) <= (1.0 - sigma) * alpha + slack
            assert res.alpha_upper <= 0.0

    @settings(max_examples=300)
    @given(**_HARD_CASES)
    def test_a_solve_stalls_only_below_the_rounding_floor(self, J, sigma, eps_critical):
        res, _eps = _hard_solve(J, sigma, eps_critical)
        if res is not None and res.status == STATUS_STALLED:
            assert abs(kkt_direction(J)[2]) <= _allowance(J @ J.T, J.shape[1])

    @settings(max_examples=300)
    @given(**_HARD_CASES)
    def test_every_solve_ends_within_the_move_bound(self, J, sigma, eps_critical):
        # at most 2^m face minimizers, each within m moves of the last
        res, _eps = _hard_solve(J, sigma, eps_critical)
        if res is not None:
            m = J.shape[0]
            assert res.inner_iterations <= m * 2**m <= (2**m - 1) * (m + 1)

    def test_a_face_minimizer_no_vertex_improves_on_stalls(self):
        # a _hard_jacobians draw with alpha* = -2.2e-10 and cond G = 1.2e20:
        # once w minimizes psi on its face, the vertex with the smallest
        # (Gw)_i is already in it, so the next move solves the same face and
        # lands on the same w, which does not lower psi
        J = _hard_jacobian(256, 1e-6, [3.8872746336723925, -1.192092896e-07, 3.9666505880759306],
                           [1.0, 1.0, -1.0], 4294967294)
        sigma = 0.9883535562604477
        res = solve_sigma_approx(J, sigma, eps_critical=1e-12)
        assert np.array_equal(res.v, -(J.T @ res.weights))
        if PINNED_KERNEL:
            assert (res.status, res.inner_iterations) == (STATUS_STALLED, 3)
        elif res.status == STATUS_CERTIFIED:
            # Prescott's second move lands where the certificate holds
            assert res.alpha_upper == primal(J, res.v)
            assert res.alpha_upper <= (1.0 - sigma) * kkt_direction(J)[2]
        else:
            assert res.status == STATUS_STALLED and res.inner_iterations <= 3 * 2**3

    @settings(max_examples=300)
    @given(
        J=st.one_of(_hard_jacobians(), _wide_jacobians(),
                    st.sampled_from([ZERO_ROW_JACOBIAN, SUBNORMAL_JACOBIAN,
                                     *SUBNORMAL_PIVOT_JACOBIANS])),
        sigma=st.floats(0.0, 0.99),
        eps_critical=_HARD_CASES["eps_critical"],
    )
    def test_matches_the_reference_solve_bit_for_bit(self, J, sigma, eps_critical):
        if eps_critical is None:
            v0 = -(J.T @ np.full(J.shape[0], 1.0 / J.shape[0]))
            eps_critical = max(0.5 * float(v0 @ v0), 1e-300)
        for s in (0.0, 0.25, 0.5, 0.9, sigma):
            res = solve_sigma_approx(J, s, eps_critical=eps_critical)
            v, d, p, w, it, status = _reference_solve(J, s, eps_critical)
            assert (res.status, res.inner_iterations) == (status, it)
            assert res.v.tobytes() == v.tobytes()
            assert res.weights.tobytes() == w.tobytes()
            assert np.float64(res.alpha_lower).tobytes() == np.float64(d).tobytes()
            assert np.float64(res.alpha_upper).tobytes() == np.float64(p).tobytes()
            # the slopes the line search receives are J v, as the solve formed them
            if not res.critical:
                assert res.slopes.tobytes() == (J @ v).tobytes()

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
            points = list(rng.dirichlet(np.ones(m), size=20))
            # the allowance holds on every face of the simplex as well
            for _ in range(30):
                support = rng.permutation(m)[:rng.integers(1, m + 1)]
                w = np.zeros(m)
                w[support] = rng.dirichlet(np.ones(support.size))
                points.append(w)
            points.append(solve_sigma_approx(J, 0.0, eps_critical=1e-12).weights)
            for w in points:
                Gw = G @ w
                wGw = float(w @ Gw)
                v = -(J.T @ w)
                vv = float(v @ v)
                Jv_max = float(np.max(J @ v))
                assert abs(wGw - vv) <= allowance
                assert abs(-float(Gw.min()) - Jv_max) <= allowance
                # the reference solve's screened bounds against the J-space ones
                assert abs((0.5 * wGw - float(Gw.min())) - (Jv_max + 0.5 * vv)) <= allowance


class TestSigmaCertificate:
    # the solver's one sigma certificate, alpha_upper <= (1 - sigma) * alpha_lower,
    # on the bounds at J = I: alpha_lower = -0.25 is the optimal value there
    FLOOR = _gap_floor(2.0)  # the trace of J J^T

    def test_exact_direction_certifies_at_sigma_zero(self):
        p = primal(np.eye(2), np.array([-0.5, -0.5]))
        assert p == -0.25
        assert _stop_status(p, -0.25, 0.0, 1e-8, self.FLOOR) == STATUS_CERTIFIED

    def test_shrunk_direction_certifies_at_sigma_half(self):
        # primal value -0.4 + 0.16 = -0.24 <= -0.125, but not within the gap tolerance of -0.25
        p = primal(np.eye(2), np.array([-0.4, -0.4]))
        assert _stop_status(p, -0.25, 0.5, 1e-8, self.FLOOR) == STATUS_CERTIFIED
        assert _stop_status(p, -0.25, 0.0, 1e-8, self.FLOOR) is None

    def test_zero_direction_fails_at_noncritical_point(self):
        p = primal(np.eye(2), np.zeros(2))
        assert _stop_status(p, -0.25, 0.5, 1e-8, self.FLOOR) is None

    def test_positive_alpha_rejected(self):
        # within the gap floor of the sigma inequality, a positive alpha_upper
        # is still not certified: a certified direction must beat v = 0
        assert _stop_status(1e-15, -2e-15, 0.5, 1e-15, self.FLOOR) is None
        assert _stop_status(-1e-16, -2e-15, 0.5, 1e-15, self.FLOOR) == STATUS_CERTIFIED


class TestInvariants:
    def test_strong_convexity_gap_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            J = random_jacobian(rng)
            res = solve_sigma_approx(J, 0.0)
            scale = max(1.0, float(np.sum(J * J)))
            for _ in range(5):
                v = rng.normal(scale=2.0, size=J.shape[1])
                lhs = primal(J, v) - res.alpha_upper
                assert lhs >= 0.5 * float(np.sum((v - res.v) ** 2)) - 1e-6 * scale

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 0.5, 0.9])
    def test_certified_results_stay_near_the_exact_direction(self, sigma):
        # support enumeration pins v(x) tightly enough for the sigma=0 case
        rng = np.random.default_rng(int(13 + 10 * sigma))
        for _ in range(100):
            J = random_jacobian(rng)
            res = solve_sigma_approx(J, sigma, eps_critical=1e-12)
            if res.critical:
                continue
            assert res.sigma_certified
            _w, v_o, a_o = kkt_direction(J)
            assert float(np.sum((res.v - v_o) ** 2)) <= 2 * sigma * abs(a_o) + 1e-8

    def test_optimal_slope_equals_negative_squared_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            J = random_jacobian(rng)
            res = solve_sigma_approx(J, 0.0)
            scale = max(1.0, float(np.sum(J * J)))
            slope = float(np.max(J @ res.v))
            assert abs(slope + float(res.v @ res.v)) <= 1e-8 * scale

    def test_certified_noncritical_directions_are_strict_descent(self):
        rng = np.random.default_rng(19)
        for sigma in (0.0, 0.5):
            for _ in range(100):
                J = random_jacobian(rng)
                res = solve_sigma_approx(J, sigma, eps_critical=1e-12)
                if res.critical or not res.sigma_certified:
                    continue
                assert np.all(J @ res.v < 0.0)

    def test_dual_primal_sandwich_around_grid_value(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            J = random_jacobian(rng)
            res = solve_sigma_approx(J, 0.0)
            _w, _v, a_o = brute_force_direction(J)
            grid_budget = 1e-4 * max(1.0, float(np.sum(J * J)))
            assert res.alpha_lower <= a_o + grid_budget
            assert a_o <= res.alpha_upper + 1e-12

    def test_scalarization_compatibility_is_exact(self):
        rng = np.random.default_rng(29)
        for sigma in (0.0, 0.5):
            for _ in range(100):
                J = random_jacobian(rng)
                res = solve_sigma_approx(J, sigma, eps_critical=1e-12)
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

    @settings(max_examples=300)
    @given(J=_JACOBIANS, sigma=st.floats(0.0, 0.99))
    def test_certified_directions_satisfy_their_sigma_inequality(self, J, sigma):
        res = solve_sigma_approx(J, sigma, eps_critical=1e-12)
        if not res.sigma_certified:
            return  # a stalled result claims nothing
        _w, _v, alpha = kkt_direction(J)
        # sigma = 0 certifies only to the relative gap tolerance, not to 1e-12
        slack = 64 * np.finfo(float).eps * max(1.0, float(np.sum(J * J))) + 1e-10 * abs(alpha)
        assert res.alpha_lower <= alpha + slack
        if res.critical:
            assert alpha >= -1e-12 - slack
        else:
            assert primal(J, res.v) <= (1.0 - sigma) * alpha + slack
            assert res.alpha_upper <= 0.0


@pytest.mark.parametrize("name, seed", [(name, seed) for name in list_problems() for seed in (0, 42)])
def test_exact_solves_agree_with_the_grid_on_each_builtin(name, seed):
    # the grid oracle, to the grid's own resolution, at 20 points drawn
    # uniformly from each builtin's sampling box
    desc = get_problem(name)
    rng = np.random.default_rng(seed)
    for x in rng.uniform(desc.box[0], desc.box[1], size=(20, desc.problem.n)):
        J = desc.problem.jacobian(x)
        res = solve_sigma_approx(J, 0.0)
        _w, _v, alpha = brute_force_direction(J)
        assert abs(res.alpha_upper - alpha) <= 1e-4 * max(1.0, float(np.sum(J * J))), x


def test_the_package_has_one_dual_solver_and_no_move_cap_argument():
    # the exact direction is the sigma = 0 case of solve_sigma_approx, and a
    # solve ends by its own rule, not by a cap: no package file names a
    # max_inner constant or parameter, in any case, and none calls
    # solve_exact or finite_diff_jacobian, bare names kept only for
    # bench/tracing.py to patch; the grid oracle lives in tests/oracles.py,
    # and no package file defines or calls it
    import paretodescent

    grid = ("brute_force_direction", "_simplex_grid")
    assert not ({"solve_exact", "kkt_direction", "finite_diff_jacobian", "brute_force_direction"}
                & set(paretodescent.__all__))
    for path in Path(paretodescent.__file__).parent.glob("*.py"):
        assert "max_inner" not in path.read_text().lower(), path.name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert name not in ("solve_exact", "finite_diff_jacobian", *grid), path
            elif isinstance(node, ast.FunctionDef):
                assert node.name not in grid, path


def test_every_lstsq_call_in_the_package_names_rcond():
    # numpy before 2.0 cuts an omitted rcond at machine epsilon, with a
    # FutureWarning, and numpy 2 at eps * max(M, N), the cutoff rcond=None
    # names on both: so a singular face solves alike on every numpy the
    # package supports
    import paretodescent

    calls = []
    for path in Path(paretodescent.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lstsq"):
                calls.append(f"{path.name}:{node.lineno}")
                assert "rcond" in {kw.arg for kw in node.keywords}, calls[-1]
    # _face_minimizer's and kkt_direction's
    assert len(calls) == 2, calls
