import ast
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paretodescent import oracle
from paretodescent import (
    MultiObjective,
    NonFiniteError,
    ViolationReport,
    check_gradient_characterization,
    check_weak_pareto_local,
    get_problem,
    list_problems,
    sample_quasiconvex,
    solve_sigma_approx,
)
from paretodescent.direction import _allowance
from paretodescent.oracle import kkt_direction

from oracles import brute_force_direction, finite_diff_jacobian


def sufficient_sigma_condition(J, v, sigma):
    """max_i <g_i, v> <= -(1 - sigma/2) ||v||^2.

    For v = -J^T w with w on the simplex this is sufficient, not necessary,
    for v to be sigma-approximate: a cross-check independent of the
    duality-gap certificate the direction module emits.
    """
    return float((J @ v).max()) <= -(1.0 - 0.5 * sigma) * float(v @ v)


def sign_flip_pair():
    """F(t) = (t^2, -t^2): the second criterion breaks quasi-convexity."""
    return MultiObjective(n=1, m=2,
                          f=lambda x: np.array([x[0] ** 2, -x[0] ** 2]),
                          jac=lambda x: np.array([[2 * x[0]], [-2 * x[0]]]))


class TestBruteForceDirection:
    def test_identity_jacobian_matches_the_analytic_solution(self):
        w, v, alpha = brute_force_direction(np.eye(2))
        assert abs(alpha + 0.25) <= 1e-5
        assert np.linalg.norm(v - np.array([-0.5, -0.5])) <= 1e-3
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-3)

    def test_single_criterion_is_exact(self):
        w, v, alpha = brute_force_direction(np.array([[3.0, 4.0]]))
        assert np.array_equal(w, [1.0])
        assert np.array_equal(v, [-3.0, -4.0])
        assert alpha == -12.5

    def test_duplicate_rows_pin_the_direction_not_the_weights(self):
        w, v, alpha = brute_force_direction(np.array([[1.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_allclose(v, [-1.0, 0.0], atol=1e-12)
        assert abs(alpha + 0.5) <= 1e-10

    def test_too_many_criteria_rejected(self):
        with pytest.raises(ValueError):
            brute_force_direction(np.ones((5, 2)))

    def test_agrees_with_support_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(1, 6))
            J = rng.uniform(-10, 10, size=(m, n))
            _, _, a_grid = brute_force_direction(J)
            _, _, a_kkt = kkt_direction(J)
            assert abs(a_grid - a_kkt) <= 1e-4 * max(1.0, float(np.sum(J * J)))
            assert a_grid <= a_kkt + 1e-12  # grid value never beats the true optimum


# gradients with squared norms near 2e8: the bordered face system of the
# optimal face has singular values 2.77e8, 1.44e8 and 1.19e-8 unscaled, and
# lstsq's default cutoff drops the last, the one that carries w
ILL_SCALED_JACOBIAN = np.array([[-2306.30338246, 6677.74236452, -10020.17705353],
                                [-14297.30266224, -8149.76099838, 633.12585364]])


class TestSupportEnumeration:
    def test_an_ill_scaled_face_keeps_the_certified_optimum(self):
        J = ILL_SCALED_JACOBIAN
        res = solve_sigma_approx(J, 0.0)
        assert res.sigma_certified
        w, v, alpha = kkt_direction(J)
        assert alpha >= res.alpha_lower - _allowance(J @ J.T, J.shape[1])
        np.testing.assert_allclose(w, res.weights, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(w, [0.62671247, 0.37328753], rtol=0.0, atol=1e-8)
        assert np.array_equal(v, -(J.T @ w))

    @settings(max_examples=200)
    @given(m=st.integers(1, 6), n=st.integers(1, 50), log_scale=st.floats(-6.0, 6.0),
           seed=st.integers(0, 2**32 - 1))
    def test_no_certified_bound_lies_above_it_at_any_scale(self, m, n, log_scale, seed):
        # a certified sigma = 0 solve proves alpha_lower <= alpha*, so the
        # enumeration's optimum may not lie below it; m = 5 and 6 check that
        # it has no cap on the number of criteria, and a tiny eps_critical
        # keeps the small scales from ending critical at the barycenter
        J = np.random.default_rng(seed).standard_normal((m, n)) * 10.0 ** log_scale
        w, _v, alpha = kkt_direction(J)
        assert w.shape == (m,) and np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12
        res = solve_sigma_approx(J, 0.0, eps_critical=1e-300)
        if res.sigma_certified:
            assert alpha >= res.alpha_lower - _allowance(J @ J.T, n)


class TestSamplerArguments:
    @pytest.mark.parametrize("sampler", [sample_quasiconvex, check_gradient_characterization])
    @pytest.mark.parametrize("trials", [0, -3])
    def test_fewer_than_one_trial_is_rejected(self, sampler, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            sampler(get_problem("quad_pair").problem, trials, 0)

    @pytest.mark.parametrize("trials, radius", [(0, 0.5), (10, 0.0), (10, -0.5)])
    def test_the_weak_pareto_sampler_needs_a_trial_and_a_positive_radius(self, trials, radius):
        with pytest.raises(ValueError, match="trials must be >= 1 and radius positive"):
            check_weak_pareto_local(get_problem("quad_pair").problem, [0.5, 0.0], radius, trials, 0)


class TestFiniteDifferences:
    def test_scalar_quadratic(self):
        p = get_problem("scalar_quad").problem
        np.testing.assert_allclose(finite_diff_jacobian(p, [3.0], 1e-5), [[3.0]], atol=1e-9)

    def test_cubic_pair(self):
        p = get_problem("paper_cubic").problem
        np.testing.assert_allclose(finite_diff_jacobian(p, [2.0], 1e-5),
                                   [[1.0], [-4.0]], atol=1e-8)

    def test_quad_pair(self):
        p = get_problem("quad_pair").problem
        np.testing.assert_allclose(finite_diff_jacobian(p, [2.0, 2.0], 1e-5),
                                   [[2.0, 2.0], [1.0, 2.0]], atol=1e-8)

    def test_overflowing_perturbed_point_is_a_non_finite_error(self):
        # x1 + h overflows; F itself is finite there
        p = MultiObjective(n=2, m=1, f=lambda x: np.array([x[1] ** 2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError):
                finite_diff_jacobian(p, [np.finfo(float).max, 1.0])

    def test_nonpositive_step_rejected(self):
        p = get_problem("scalar_quad").problem
        with pytest.raises(ValueError):
            finite_diff_jacobian(p, [1.0], -1e-5)


class TestQuasiconvexSampler:
    def test_cubic_pair_has_no_violations(self):
        assert sample_quasiconvex(get_problem("paper_cubic").problem, 1000, 42).ok

    def test_sign_flip_pair_is_caught(self):
        report = sample_quasiconvex(sign_flip_pair(), 1000, 42, box=(-1.0, 1.0))
        assert report.violations > 0
        assert report.max_violation > 1e-10

    def test_convex_problem_has_no_violations(self):
        assert sample_quasiconvex(get_problem("quad_pair").problem, 1000, 7).ok

    def test_deterministic_for_a_seed(self):
        a = sample_quasiconvex(sign_flip_pair(), 500, 11, box=(-1.0, 1.0))
        b = sample_quasiconvex(sign_flip_pair(), 500, 11, box=(-1.0, 1.0))
        assert a.violations == b.violations
        assert a.max_violation == b.max_violation


class TestGradientCharacterization:
    def test_cubic_pair_is_clean(self):
        assert check_gradient_characterization(get_problem("paper_cubic").problem, 1000, 1).ok

    def test_quad_pair_triggers_the_premise_and_is_clean(self):
        report = check_gradient_characterization(get_problem("quad_pair").problem, 1000, 2)
        assert report.checked > 0
        assert report.ok

    def test_double_well_violates_the_characterization(self):
        # moving off the shallow well toward the deep one lowers both criteria
        # while the first slope points the other way
        desc = get_problem("nonconvex_demo")
        report = check_gradient_characterization(desc.problem, 2000, 3, desc.box)
        assert report.checked > 0
        assert report.violations > 0


def one_trial_at_a_time_segments(problem, trials, seed, box):
    """The segment test drawing x, y and t trial by trial, as a reference."""
    rng = np.random.default_rng(seed)
    violations, max_violation = 0, 0.0
    for _ in range(trials):
        x = rng.uniform(box[0], box[1], size=problem.n)
        y = rng.uniform(box[0], box[1], size=problem.n)
        t = rng.uniform()
        mid = problem.evaluate((1.0 - t) * x + t * y)
        viol = float(np.max(mid - np.maximum(problem.evaluate(x), problem.evaluate(y))))
        if viol > 1e-10:
            violations += 1
            max_violation = max(max_violation, viol)
    return ViolationReport(trials, trials, violations, max_violation)


def one_pair_at_a_time_gradients(problem, trials, seed, box):
    """The first-order test drawing x and y pair by pair, as a reference."""
    rng = np.random.default_rng(seed)
    checked, violations, max_violation = 0, 0, 0.0
    for _ in range(trials):
        x = rng.uniform(box[0], box[1], size=problem.n)
        y = rng.uniform(box[0], box[1], size=problem.n)
        if not np.all(problem.evaluate(y) < problem.evaluate(x)):
            continue
        checked += 1
        viol = float(np.max(problem.jacobian(x) @ (y - x)))
        if viol > 1e-10:
            violations += 1
            max_violation = max(max_violation, viol)
    return ViolationReport(trials, checked, violations, max_violation)


class TestBatchedDrawsMatchOneTrialAtATime:
    @settings(max_examples=60)
    @given(name=st.sampled_from([*list_problems(), "sign_flip_pair"]),
           unit_box=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           trials=st.sampled_from([1, 2, 7, 1000]))
    @example(name="sign_flip_pair", unit_box=True, seed=42, trials=1000)
    @example(name="nonconvex_demo", unit_box=False, seed=3, trials=1000)
    def test_reports_equal_the_per_trial_loops(self, name, unit_box, seed, trials):
        # each check tests the same points, so its report is the same,
        # max_violation to the bit; the two examples find violations, one
        # of each check
        if name == "sign_flip_pair":
            problem, box = sign_flip_pair(), oracle.DEFAULT_BOX
        else:
            problem, box = get_problem(name).problem, get_problem(name).box
        box = (-1.0, 1.0) if unit_box else box
        for check, reference in ((sample_quasiconvex, one_trial_at_a_time_segments),
                                 (check_gradient_characterization, one_pair_at_a_time_gradients)):
            got, want = check(problem, trials, seed, box), reference(problem, trials, seed, box)
            assert got == want
            assert np.float64(got.max_violation).tobytes() == np.float64(want.max_violation).tobytes()

    def test_no_pair_meets_the_premise(self):
        # no point of F(t) = (t^2, -t^2) lowers both criteria below another's
        report = check_gradient_characterization(sign_flip_pair(), 1000, 5, (-1.0, 1.0))
        assert report == one_pair_at_a_time_gradients(sign_flip_pair(), 1000, 5, (-1.0, 1.0))
        assert report.checked == 0 and report.ok
        assert np.float64(report.max_violation).tobytes() == np.float64(0.0).tobytes()


class TestWeakParetoSampler:
    def test_segment_point_is_locally_undominated(self):
        p = get_problem("quad_pair").problem
        assert check_weak_pareto_local(p, [0.5, 0.0], 0.5, 10_000, 123)

    def test_noncritical_point_is_dominated(self):
        p = get_problem("quad_pair").problem
        assert not check_weak_pareto_local(p, [2.0, 2.0], 0.5, 10_000, 123)

    def test_cubic_pair_points_are_undominated(self):
        p = get_problem("paper_cubic").problem
        for i, t in enumerate((-7.3, 0.0, 2.5)):
            assert check_weak_pareto_local(p, [t], 0.5, 2000, 77 + i)


class TestSufficientCondition:
    def test_exact_direction_satisfies_it_for_positive_sigma(self):
        # at sigma = 0 the inequality is tight at the optimum, so the
        # gap-level inexactness of the solve would flip it; any sigma > 0
        # leaves sigma/2 * ||v||^2 of room
        rng = np.random.default_rng(21)
        for sigma in (0.1, 0.4, 0.9):
            for _ in range(50):
                J = rng.uniform(-2, 2, size=(2, 3))
                res = solve_sigma_approx(J, 0.0)
                if res.critical:
                    continue
                assert sufficient_sigma_condition(J, res.v, sigma)

    def test_implies_the_certificate_against_an_exact_oracle(self):
        rng = np.random.default_rng(23)
        tested = 0
        for _ in range(400):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(1, 6))
            J = rng.uniform(-2, 2, size=(m, n))
            w = rng.dirichlet(np.ones(m))
            v = -(J.T @ w)
            sigma = float(rng.uniform(0.0, 0.99))
            if not sufficient_sigma_condition(J, v, sigma):
                continue
            alpha = min(kkt_direction(J)[2], 0.0)
            primal = float((J @ v).max()) + 0.5 * float(v @ v)
            assert primal <= (1.0 - sigma) * alpha + 1e-12 * max(1.0, abs(alpha))
            tested += 1
        assert tested > 30


def test_grid_steps_and_refinement_rounds():
    with pytest.raises(ValueError, match="refinement_rounds"):
        brute_force_direction(np.eye(2), refinement_rounds=-1)
    # psi depends on w1 alone and is least at w1 = 2/3, which lies on no grid:
    # the unrefined m = 2 grid has step 1e-3, each round shrinks it tenfold
    J = np.array([[1.0], [-2.0]])
    for rounds, step in ((0, 1e-3), (1, 1e-4), (2, 1e-5)):
        w, _v, _alpha = brute_force_direction(J, refinement_rounds=rounds)
        assert abs(w[0] - 2.0 / 3.0) <= step / 2
    # for m = 3 the unrefined step is 1e-2
    w, _v, _alpha = brute_force_direction(np.array([[1.0], [-2.0], [-2.0]]), refinement_rounds=0)
    assert 1e-3 / 2 < abs(w[0] - 2.0 / 3.0) <= 1e-2 / 2


def test_oracle_imports_only_the_objective_module_of_the_package():
    # the oracles share no logic with the code they validate: no direction
    # solver, line search, run loop, diagnostics or CLI, even inside a
    # function; the references in tests/ are held to the same, and the exact
    # oracle and step auditor import no module of the package at all
    tests = Path(__file__).parent
    for path, allowed in ((Path(oracle.__file__), {"objective"}),
                          (tests / "oracles.py", {"objective"}),
                          (tests / "exact_certificate.py", set())):
        modules = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                modules.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and node.module.startswith("paretodescent"):
                modules.add(node.module.partition(".")[2] or "paretodescent")
            elif isinstance(node, ast.Import):
                modules.update(a.name.partition(".")[2] or "paretodescent"
                               for a in node.names if a.name.partition(".")[0] == "paretodescent")
        assert modules == allowed, path.name
