import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paretodescent import (
    MultiObjective,
    NonFiniteError,
    get_problem,
    make_quad_pair,
    run,
)
from paretodescent.cli import build_inline_problem

from oracles import finite_diff_jacobian


def cubic_pair():
    return get_problem("paper_cubic").problem


class TestEvaluate:
    def test_quad_pair_at_first_center(self):
        p = make_quad_pair([0.0, 0.0], [1.0, 0.0])
        assert np.allclose(p.evaluate([0.0, 0.0]), [0.0, 0.5], atol=0.0)

    def test_cubic_pair_at_zero(self):
        assert np.array_equal(cubic_pair().evaluate([0.0]), [0.0, 0.0])

    def test_cubic_pair_at_three(self):
        np.testing.assert_allclose(cubic_pair().evaluate([3.0]), [3.0, -9.0], rtol=0, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        p = make_quad_pair([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            p.evaluate([1.0, 2.0, 3.0])

    def test_nonfinite_input_rejected(self):
        p = make_quad_pair([0.0, 0.0], [1.0, 0.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError, match="point contains non-finite entries"):
                p.evaluate([bad, 0.0])

    @pytest.mark.parametrize("require_finite", [True, False])
    def test_two_dimensional_point_rejected(self, require_finite):
        p = make_quad_pair([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="one-dimensional"):
            p.evaluate([[0.0, 1.0]], require_finite=require_finite)

    def test_nonfinite_output_signals_ill_posed_problem(self):
        bad = MultiObjective(n=1, m=1, f=lambda x: np.array([1.0 / x[0]]))
        with pytest.raises(ValueError):
            bad.evaluate([0.0])

    @pytest.mark.parametrize("f, shape", [
        (lambda x: np.array([1.0, 2.0, 3.0]), "(3,)"),
        (lambda x: 1.0, "(1,)"),
        (lambda x: np.ones((2, 1)), "(2, 1)"),
    ])
    def test_a_value_of_the_wrong_shape_is_rejected(self, f, shape):
        p = MultiObjective(n=2, m=2, f=f, name="bad")
        with pytest.raises(ValueError) as exc:
            p.evaluate([0.0, 0.0])
        assert str(exc.value) == f"objective 'bad' returned shape {shape}, expected (2,)"

    @pytest.mark.parametrize("n, m", [(0, 1), (1, 0), (-1, 2)])
    def test_nonpositive_dimensions_are_rejected(self, n, m):
        with pytest.raises(ValueError, match="n and m must be positive integers"):
            MultiObjective(n=n, m=m, f=lambda x: x)

    def test_unchecked_mode_passes_nonfinite_through(self):
        bad = MultiObjective(n=1, m=1, f=lambda x: np.array([1.0 / x[0]]))
        assert np.isinf(bad.evaluate([0.0], require_finite=False)[0])
        assert np.all(np.isnan(bad.evaluate([np.inf], require_finite=False)))


class TestJacobian:
    def test_nonfinite_values_raise_nonfinite_error(self):
        root = MultiObjective(n=1, m=1, f=lambda x: np.array([x[0] ** 0.5]),
                              jac=lambda x: np.array([[np.inf]]))
        with pytest.raises(NonFiniteError):
            root.evaluate([-1.0])
        with pytest.raises(NonFiniteError):
            root.jacobian([0.0])
        # finite values whose central difference overflows
        step = MultiObjective(n=1, m=1, f=lambda x: np.array([np.sign(x[0]) * 1e308]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            step.jacobian([0.0])

    def test_cubic_pair_rows(self):
        np.testing.assert_allclose(cubic_pair().jacobian([2.0]), [[1.0], [-4.0]], rtol=0, atol=0)

    def test_scalar_quadratic_gradient(self):
        p = get_problem("scalar_quad").problem
        sq2 = MultiObjective(n=2, m=1, f=lambda x: np.array([0.5 * float(x @ x)]),
                             jac=lambda x: x.reshape(1, -1))
        assert np.array_equal(sq2.jacobian([3.0, 4.0]), [[3.0, 4.0]])
        assert np.array_equal(p.jacobian([3.0]), [[3.0]])

    def test_quad_pair_rows_are_center_offsets(self):
        p = make_quad_pair([0.0, 0.0], [1.0, 0.0])
        assert np.array_equal(p.jacobian([2.0, 2.0]), [[2.0, 2.0], [1.0, 2.0]])

    def test_fd_fallback_is_flagged_and_accurate(self):
        exact = make_quad_pair([0.0, 0.0], [1.0, 0.0])
        free = MultiObjective(n=2, m=2, f=exact.f, jac=None)
        assert free.jac is None
        assert exact.jac is not None
        x = np.array([0.3, -1.7])
        np.testing.assert_allclose(free.jacobian(x), exact.jacobian(x), atol=1e-8)

    def test_overflowing_difference_point_ends_the_run(self):
        # F is finite at the start, but x1 + h1 overflows
        p = MultiObjective(n=2, m=1, f=lambda x: np.array([x[1] ** 2]))
        x0 = [np.finfo(float).max, 1.0]
        with pytest.raises(NonFiniteError):
            p.jacobian(x0)
        report = run(p, x0)
        assert report.termination == "numerical_failure"
        assert report.iterations == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f, jac", [
        pytest.param(lambda x: x * 1e308 * 10, lambda x: np.array([[1.0]]), id="f"),
        pytest.param(lambda x: x, lambda x: np.array([[x[0] * 1e308 * 10]]), id="jac"),
    ])
    def test_an_overflow_in_f_or_jac_ends_the_run_as_a_numerical_failure(self, f, jac):
        report = run(MultiObjective(n=1, m=1, f=f, jac=jac), [1.0])
        assert (report.termination, report.iterations) == ("numerical_failure", 0)

    def test_fd_fallback_rejects_a_bad_value_shape(self):
        p = MultiObjective(n=2, m=2, f=lambda x: np.array([[x[0], x[1]]]))
        with pytest.raises(ValueError, match=r"returned shape \(1, 2\), expected \(2,\)"):
            p.jacobian([0.0, 0.0])
        with pytest.raises(ValueError, match=r"returned shape \(1,\), expected \(2,\)"):
            MultiObjective(n=2, m=2, f=lambda x: x[0]).jacobian([0.0, 0.0])

    def test_a_one_dimensional_jacobian_is_rejected_with_its_shape(self):
        # a single criterion's gradient must come back as a 1 x n matrix
        p = MultiObjective(n=2, m=1, f=lambda x: np.array([x[0] + x[1]]),
                           jac=lambda x: np.array([1.0, 1.0]), name="flat")
        with pytest.raises(ValueError) as exc:
            p.jacobian([0.0, 0.0])
        assert str(exc.value) == "jacobian of 'flat' has shape (2,), expected (1, 2)"

    def test_bad_jacobian_shape_rejected(self):
        p = MultiObjective(n=2, m=2, f=lambda x: np.array([x[0], x[1]]),
                           jac=lambda x: np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError):
            p.jacobian([0.0, 0.0])


@pytest.mark.parametrize("name", ["quad_pair", "paper_cubic", "quasi_exp", "scalar_quad", "nonconvex_demo"])
def test_analytic_jacobian_matches_central_differences(name):
    desc = get_problem(name)
    p = desc.problem
    rng = np.random.default_rng(31 + len(name))
    lo, hi = desc.box
    for _ in range(100):
        x = rng.uniform(lo, hi, size=p.n)
        J = p.jacobian(x)
        J_fd = finite_diff_jacobian(p, x)
        for i in range(p.m):
            err = np.linalg.norm(J[i] - J_fd[i]) / max(1.0, np.linalg.norm(J[i]))
            assert err <= 1e-5, f"{name}: row {i} at {x} off by {err:.2e}"


def test_evaluate_and_jacobian_are_pure():
    p = get_problem("quasi_exp").problem
    x = np.array([1.37, -0.41])
    a, b = p.evaluate(x), p.evaluate(x)
    assert np.array_equal(a, b)
    Ja, Jb = p.jacobian(x), p.jacobian(x)
    assert np.array_equal(Ja, Jb)


# points around the edges of the doubles: signed zeros and subnormals, and at
# most one huge coordinate, whose perturbation or criterion values may overflow
_TINY = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.0, -1.0]
_HUGE = [1e308, -1e308, 1.7976913e308, np.finfo(float).max, -np.finfo(float).max]
_COORDS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_TINY))
_TERMS = ["x{a}", "x{a}^2", "x{a}*x{b}", "0.5*(x{a} - x{b})^2", "x{a}^3/3", "1/(1 + x{a}^2)",
          "x{a}/x{b}", "(x{a} - 1)^4"]
_TERM = st.builds(str.format, st.sampled_from(_TERMS), a=st.integers(1, 3), b=st.integers(1, 3))
_CRITERION = st.lists(_TERM, min_size=1, max_size=4).map(" + ".join)


def _plain_f(A, B, scalar):
    """A Python criterion map; with ``scalar`` (m = 1) it returns a 0-d value."""
    def f(x):
        y = A @ x + 0.5 * (B @ (x * x))
        return y[0] if scalar else y
    return f


@st.composite
def _fd_cases(draw):
    """(f, n, m, x): inline criteria over x1..x3 or a Python map, and a point."""
    m = draw(st.integers(1, 3))
    if draw(st.booleans()):
        n = 3
        f = build_inline_problem(draw(st.lists(_CRITERION, min_size=m, max_size=m)), n).f
    else:
        n = draw(st.integers(1, 4))
        coef = st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)
        A, B = (np.array(draw(coef), dtype=float).reshape(m, n) for _ in range(2))
        f = _plain_f(A, B, m == 1 and draw(st.booleans()))
    x = np.array(draw(st.lists(_COORDS, min_size=n, max_size=n)))
    if draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_HUGE))
    return f, n, m, x


def _fd_outcome(jacobian, f, n, m, x):
    """(J or the ValueError type raised, the points handed to f as bytes)."""
    points = []

    def recorded(z):
        points.append((z.dtype.str, z.shape, z.tobytes()))
        return f(z)

    try:
        J = jacobian(MultiObjective(n=n, m=m, f=recorded), x)
    except ValueError as exc:
        return type(exc), points
    return J, points


@settings(max_examples=300)
@given(case=_fd_cases())
@example(case=(lambda x: np.array([x[1] ** 2]), 2, 1, np.array([np.finfo(float).max, 1.0])))
@example(case=(lambda x: np.array([1.0 / x[0], x[1]]), 2, 2, np.array([0.0, 1.0])))
@example(case=(build_inline_problem(["x1*x2 + x3^2", "0.5*(x1 - x3)^2", "x2/(1 + x1^2)"]).f,
               3, 3, np.array([-0.0, 5e-324, 2.0])))
def test_fd_fallback_matches_the_oracle_bit_for_bit(case):
    f, n, m, x = case
    J, points = _fd_outcome(MultiObjective.jacobian, f, n, m, x)
    J_ref, points_ref = _fd_outcome(finite_diff_jacobian, f, n, m, x)
    if isinstance(J_ref, np.ndarray):
        assert isinstance(J, np.ndarray), J
        assert J.shape == (m, n) and J.flags.c_contiguous
        assert J.tobytes() == J_ref.tobytes()
        assert points == points_ref
    else:
        # the reference stops at the first non-finite point or value; the
        # fallback checks its points before any call
        assert J is J_ref is NonFiniteError, (J, J_ref)
