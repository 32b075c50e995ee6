import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretodescent import (
    DominatingReference,
    IterationRecord,
    RunReport,
    SolverConfig,
    check_level_set,
    check_monotone,
    check_proximity,
    check_quasi_fejer,
    check_scalarized_decrease,
    check_summability,
    get_problem,
    phi,
    run,
    run_diagnostics,
)
from paretodescent.diagnostics import STATUS_FAIL, STATUS_PRECONDITION


def quad_run(x0=(0.4, 2.5), sigma=0.0):
    return run(get_problem("quad_pair").problem, list(x0), SolverConfig(sigma=sigma))


def synthetic_report(xs, Fs, ts=None, vs=None):
    """Hand-built report; positions/values given, steps default to 1."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    Fs = [np.asarray(F, dtype=float) for F in Fs]
    n = xs[0].size
    records = []
    for k, (x, F) in enumerate(zip(xs, Fs)):
        last = k == len(xs) - 1
        v = np.zeros(n) if vs is None else np.asarray(vs[k], dtype=float)
        t = 0.0 if last else (1.0 if ts is None else float(ts[k]))
        records.append(
            IterationRecord(k=k, x=x, Fx=F, v=v, t=t, alpha_upper=-1.0,
                            alpha_lower=-1.0, j=-1 if last else 0,
                            sigma_certified=True, inner_iterations=0)
        )
    return RunReport(records=tuple(records), termination="max_iter")


class TestPhi:
    def test_maximum_component(self):
        assert phi([1.0, 2.0, 3.0]) == 3.0

    def test_subadditive(self):
        assert phi([0.0, 0.0]) <= phi([1.0, -1.0]) + phi([-1.0, 1.0])
        rng = np.random.default_rng(1)
        for _ in range(100):
            x, y = rng.normal(size=4), rng.normal(size=4)
            assert phi(x + y) <= phi(x) + phi(y) + 1e-12

    def test_positively_homogeneous(self):
        assert phi(2.5 * np.array([1.0, 3.0])) == 2.5 * phi([1.0, 3.0])

    def test_monotone(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(size=3)
            y = x + rng.uniform(0, 1, size=3)
            assert phi(x) <= phi(y)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phi([])


class TestMonotone:
    def test_passes_on_solver_run(self):
        out = check_monotone(quad_run())
        assert out.ok and out.worst_violation <= 0.0

    def test_fails_on_increasing_component(self):
        rep = synthetic_report([[0.0], [1.0]], [[1.0, 1.0], [0.5, 1.2]])
        out = check_monotone(rep)
        assert out.status == STATUS_FAIL
        assert out.worst_violation == pytest.approx(0.2)

    def test_vacuous_on_single_record(self):
        rep = run(get_problem("paper_cubic").problem, [2.0])
        out = check_monotone(rep)
        assert out.ok and "vacuous" in out.note


class TestLevelSet:
    def test_passes_on_solver_run(self):
        assert check_level_set(quad_run()).ok

    def test_fails_when_an_iterate_escapes(self):
        rep = synthetic_report([[0.0], [1.0], [2.0]],
                               [[1.0, 1.0], [0.9, 0.9], [1.1, 0.8]])
        assert check_level_set(rep).status == STATUS_FAIL


class TestSummability:
    def test_passes_on_convergent_run(self):
        rep = quad_run()
        assert len(rep.stepped_records) >= 10
        assert check_summability(rep).ok

    def test_fails_on_constant_step_energy(self):
        xs = [[float(k)] for k in range(30)]
        Fs = [[30.0 - k, 30.0 - k] for k in range(30)]
        rep = synthetic_report(xs, Fs, vs=[[1.0]] * 30)
        out = check_summability(rep)
        assert out.status == STATUS_FAIL

    def test_vacuous_on_one_step_run(self):
        rep = run(get_problem("scalar_quad").problem, [1.0])
        out = check_summability(rep)
        assert out.ok and "vacuous" in out.note


class TestQuasiFejer:
    def test_final_iterate_reference_passes(self):
        out = check_quasi_fejer(quad_run())
        assert out.ok

    def test_explicit_minimizer_reference_on_scalar_problem(self):
        desc = get_problem("scalar_quad")
        rep = run(desc.problem, [1.0])
        out = check_quasi_fejer(rep, DominatingReference(np.array([0.0])), desc.problem)
        assert out.ok

    def test_non_dominating_reference_is_a_precondition_violation(self):
        desc = get_problem("quad_pair")
        rep = run(desc.problem, [0.4, 2.5])
        out = check_quasi_fejer(rep, DominatingReference(np.array([5.0, 5.0])), desc.problem)
        assert out.status == STATUS_PRECONDITION
        assert not out.ok

    def test_explicit_reference_requires_problem(self):
        with pytest.raises(ValueError):
            check_quasi_fejer(quad_run(), DominatingReference(np.array([0.5, 0.0])))


class TestProximity:
    def test_exact_runs_recover_the_exact_direction(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        out = check_proximity(rep, desc.problem, 0.0)
        assert out.ok
        # sigma = 0: recorded directions coincide with re-solves to 1e-4
        from paretodescent import solve_exact
        for r in rep.stepped_records:
            exact = solve_exact(desc.problem.jacobian(r.x))
            assert np.linalg.norm(r.v - exact.v) <= 1e-4

    def test_relaxed_runs_satisfy_the_proximity_bound(self):
        desc = get_problem("quad_pair")
        rep = quad_run(sigma=0.5)
        assert check_proximity(rep, desc.problem, 0.5).ok

    def test_zero_direction_at_noncritical_point_is_flagged(self):
        desc = get_problem("quad_pair")
        rec = IterationRecord(k=0, x=np.array([2.0, 2.0]), Fx=np.array([4.0, 2.5]),
                              v=np.zeros(2), t=1.0, alpha_upper=0.0, alpha_lower=0.0,
                              j=0, sigma_certified=True, inner_iterations=0)
        rep = RunReport(records=(rec,), termination="max_iter")
        out = check_proximity(rep, desc.problem, 0.0)
        assert out.status == STATUS_FAIL
        assert "zero direction" in out.note


class TestScalarizedDecrease:
    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_holds_along_solver_runs(self, sigma):
        rep = quad_run(sigma=sigma)
        assert check_scalarized_decrease(rep, 0.5, sigma).ok

    def test_holds_on_quasi_exp(self):
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, desc.recommended_x0)
        assert check_scalarized_decrease(rep, 0.5, 0.0).ok


# few distinct values, so ties and repeats are common; NaN must never win
_F_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.nan])
_F_SEQUENCES = st.integers(1, 3).flatmap(
    lambda m: st.lists(st.lists(_F_VALUES, min_size=m, max_size=m), min_size=2, max_size=8)
)


class TestWorstViolation:
    @settings(derandomize=True, deadline=None)
    @given(_F_SEQUENCES)
    def test_first_index_attaining_the_maximum_is_reported(self, Fs):
        rep = synthetic_report([[0.0]] * len(Fs), Fs)
        F = np.array(Fs)
        cases = (
            (check_monotone(rep), [np.max(b - a) for a, b in zip(F, F[1:])]),
            (check_level_set(rep), [np.max(row - F[0]) for row in F]),
        )
        for out, viols in cases:
            finite = [v for v in viols if not np.isnan(v)]
            if not finite:
                assert out.worst_violation == -math.inf and out.worst_index is None
                continue
            top = max(finite)
            assert out.worst_violation == top
            assert out.worst_index == next(k for k, v in enumerate(viols) if v == top)


class TestSummary:
    def test_full_battery_passes_and_is_pure(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        s1 = run_diagnostics(desc.problem, rep, 0.0)
        s2 = run_diagnostics(desc.problem, rep, 0.0)
        assert s1.all_ok
        assert s1.to_dict() == s2.to_dict()
        assert list(s1.to_dict()) == ["monotone", "level_set", "summability",
                                      "quasi_fejer", "proximity", "all_ok"]
