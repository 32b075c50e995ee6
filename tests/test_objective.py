import numpy as np
import pytest

from paretodescent import (
    MultiObjective,
    NonFiniteError,
    finite_diff_jacobian,
    get_problem,
    make_quad_pair,
)


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
        with pytest.raises(ValueError):
            p.evaluate([np.nan, 0.0])

    def test_nonfinite_output_signals_ill_posed_problem(self):
        bad = MultiObjective(n=1, m=1, f=lambda x: np.array([1.0 / x[0]]))
        with pytest.raises(ValueError):
            bad.evaluate([0.0])

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
        assert free.jacobian_is_approximate
        assert not exact.jacobian_is_approximate
        x = np.array([0.3, -1.7])
        np.testing.assert_allclose(free.jacobian(x), exact.jacobian(x), atol=1e-8)

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
