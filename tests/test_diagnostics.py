import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paretodescent import (
    DirectionResult,
    IterationRecord,
    MultiObjective,
    RunReport,
    SolverConfig,
    StepResult,
    check_level_set,
    check_monotone,
    check_proximity,
    check_quasi_fejer,
    check_summability,
    get_problem,
    run,
    run_diagnostics,
)
from paretodescent import solver as solver_module
from paretodescent.diagnostics import STATUS_FAIL, STATUS_PRECONDITION
from paretodescent.direction import STATUS_CERTIFIED


def quad_run(x0=(0.4, 2.5), sigma=0.0):
    return run(get_problem("quad_pair").problem, list(x0), SolverConfig(sigma=sigma))


def stepped_jacobians(problem, report):
    return [problem.jacobian(r.x) for r in report.stepped_records]


def synthetic_report(xs, Fs, ts=None, vs=None, alpha=-1.0):
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
            IterationRecord(k=k, x=x, Fx=F, v=v, t=t, alpha_upper=alpha,
                            alpha_lower=alpha, j=-1 if last else 0,
                            sigma_certified=True, inner_iterations=0)
        )
    return RunReport(records=tuple(records), termination="max_iter", config=SolverConfig())


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
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, desc.recommended_x0)
        assert len(rep.stepped_records) >= 10
        out = check_summability(rep, stepped_jacobians(desc.problem, rep))
        assert out.ok
        assert "telescoped ratio" in out.note

    def test_fails_on_constant_step_energy(self):
        # g = -1 and v = 1 give alpha = -1/2, so each unit step must lower
        # both criteria by beta * (1/2 + 1/2) = 1/2; they fall by 1/4
        xs = [[float(k)] for k in range(30)]
        Fs = [[30.0 - 0.25 * k, 30.0 - 0.25 * k] for k in range(30)]
        rep = synthetic_report(xs, Fs, vs=[[1.0]] * 30, alpha=-0.5)
        out = check_summability(rep, [np.array([[-1.0], [-1.0]])] * 29)
        assert out.status == STATUS_FAIL
        assert out.worst_violation == pytest.approx(0.25)

    def test_vacuous_without_steps(self):
        rep = run(get_problem("paper_cubic").problem, [2.0])
        out = check_summability(rep, [])
        assert out.ok and "vacuous" in out.note
        # one step is already checked
        desc = get_problem("scalar_quad")
        rep = run(desc.problem, [1.0])
        out = check_summability(rep, stepped_jacobians(desc.problem, rep))
        assert len(rep.stepped_records) == 1
        assert out.ok and "vacuous" not in out.note

    def test_jacobian_count_must_match_the_steps(self):
        with pytest.raises(ValueError):
            check_summability(quad_run(), [])

    def test_non_finite_step_energy_fails(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        first = dataclasses.replace(rep.records[0], alpha_upper=math.nan)
        rep = dataclasses.replace(rep, records=(first, *rep.records[1:]))
        out = check_summability(rep, stepped_jacobians(desc.problem, rep))
        assert (out.status, out.worst_violation, out.worst_index, out.note) == (
            STATUS_FAIL, math.inf, 0, "non-finite step energy")


def steep_pair():
    """Two criteria of curvature 10: a unit step along the exact direction
    overshoots, so Armijo backtracks at every step."""
    c = np.array([[0.0, 0.0], [1.0, 0.0]])
    return MultiObjective(
        n=2, m=2,
        f=lambda x: 5.0 * np.sum((x - c) ** 2, axis=1),
        jac=lambda x: 10.0 * (x - c),
    )


def _summability(problem, rep):
    return check_summability(rep, stepped_jacobians(problem, rep))


class TestEnergyInequalityMutations:
    """Each mutation of a correct run must fail the energy-inequality check,
    which passes on the run itself."""

    def test_step_accepted_against_armijo(self, monkeypatch):
        problem = steep_pair()
        cfg = SolverConfig(max_iter=3)
        assert _summability(problem, run(problem, [2.0, 2.0], cfg)).ok
        monkeypatch.setattr(solver_module, "armijo_step", lambda *args: StepResult(t=1.0, j=0))
        out = _summability(problem, run(problem, [2.0, 2.0], cfg))
        assert out.status == STATUS_FAIL

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_alpha_upper_made_less_negative(self, sigma):
        desc = get_problem("quad_pair")
        rep = quad_run(sigma=sigma)
        assert _summability(desc.problem, rep).ok
        first = rep.records[0]
        mutated = dataclasses.replace(first, alpha_upper=0.5 * first.alpha_upper)
        rep = dataclasses.replace(rep, records=(mutated,) + rep.records[1:])
        out = _summability(desc.problem, rep)
        assert out.status == STATUS_FAIL and out.worst_index == 0

    def test_sigma_mismatch(self):
        desc = get_problem("quad_pair")
        rep = quad_run(x0=(3.0, 3.0), sigma=0.5)
        assert _summability(desc.problem, rep).ok
        with pytest.raises(ValueError):
            run_diagnostics(desc.problem, rep, 0.0)
        claimed = dataclasses.replace(rep, config=SolverConfig(sigma=0.0))
        assert _summability(desc.problem, claimed).status == STATUS_FAIL

    def test_uncertified_direction_recorded_as_certified(self, monkeypatch):
        desc = get_problem("quad_pair")
        cfg = SolverConfig(max_iter=5)
        assert _summability(desc.problem, run(desc.problem, [3.0, 3.0], cfg)).ok

        def barycenter(J, sigma, **kwargs):
            # the first dual iterate, not solved, labelled certified
            w = np.full(J.shape[0], 1.0 / J.shape[0])
            v = -(J.T @ w)
            vv = float(v @ v)
            Jv = J @ v
            return DirectionResult(v, -0.5 * vv, float(np.max(Jv)) + 0.5 * vv, w, 0,
                                   STATUS_CERTIFIED, Jv)

        monkeypatch.setattr(solver_module, "solve_sigma_approx", barycenter)
        rep = run(desc.problem, [3.0, 3.0], cfg)
        assert rep.iterations == 5
        assert _summability(desc.problem, rep).status == STATUS_FAIL


def _convex_problem(rng, m, n):
    """Sum of a diagonal and a random positive semidefinite quadratic per criterion."""
    C = rng.uniform(-2.0, 2.0, size=(m, n))
    A = rng.normal(size=(m, n, n)) * rng.uniform(0.0, 1.0)
    H = np.einsum("mij,mkj->mik", A, A) + np.eye(n) * rng.uniform(0.1, 2.0, size=(m, 1, n))

    def f(x):
        d = x - C
        return 0.5 * np.einsum("mi,mij,mj->m", d, H, d)

    def jac(x):
        return np.einsum("mij,mj->mi", H, x - C)

    return MultiObjective(n=n, m=m, f=f, jac=jac)


class TestSeededConvexProblems:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        m=st.integers(1, 4),
        n=st.integers(1, 5),
        sigma=st.sampled_from([0.0, 0.25, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_check_passes(self, m, n, sigma, seed):
        rng = np.random.default_rng(seed)
        problem = _convex_problem(rng, m, n)
        x0 = rng.uniform(-5.0, 5.0, size=n)
        rep = run(problem, x0, SolverConfig(sigma=sigma, max_iter=500))
        summary = run_diagnostics(problem, rep, sigma)
        assert summary.all_ok, summary.to_dict()


class TestQuasiFejer:
    def test_final_iterate_reference_passes(self):
        out = check_quasi_fejer(quad_run())
        assert out.ok

    def test_explicit_minimizer_reference_on_scalar_problem(self):
        desc = get_problem("scalar_quad")
        rep = run(desc.problem, [1.0])
        out = check_quasi_fejer(rep, np.array([0.0]), desc.problem)
        assert out.ok

    def test_non_dominating_reference_is_a_precondition_violation(self):
        desc = get_problem("quad_pair")
        rep = run(desc.problem, [0.4, 2.5])
        out = check_quasi_fejer(rep, np.array([5.0, 5.0]), desc.problem)
        assert out.status == STATUS_PRECONDITION
        assert not out.ok

    def test_explicit_reference_requires_problem(self):
        with pytest.raises(ValueError):
            check_quasi_fejer(quad_run(), np.array([0.5, 0.0]))

    def test_run_diagnostics_checks_toward_the_given_point(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        summary = run_diagnostics(desc.problem, rep, 0.0, [5.0, 5.0])
        assert summary.checks[3] == check_quasi_fejer(rep, np.array([5.0, 5.0]), desc.problem)
        assert summary.checks[3].status == STATUS_PRECONDITION


class TestProximity:
    def test_exact_runs_recover_the_exact_direction(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        out = check_proximity(rep, stepped_jacobians(desc.problem, rep))
        assert out.ok
        # sigma = 0: recorded directions coincide with re-solves to 1e-4
        from paretodescent import solve_exact
        for r in rep.stepped_records:
            exact = solve_exact(desc.problem.jacobian(r.x))
            assert np.linalg.norm(r.v - exact.v) <= 1e-4

    def test_relaxed_runs_satisfy_the_proximity_bound(self):
        desc = get_problem("quad_pair")
        rep = quad_run(sigma=0.5)
        assert check_proximity(rep, stepped_jacobians(desc.problem, rep)).ok

    def test_jacobian_count_must_match_the_steps(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        jacobians = stepped_jacobians(desc.problem, rep)
        assert len(jacobians) == 3
        for given in ([], jacobians[:2], jacobians + jacobians[:1]):
            with pytest.raises(ValueError) as exc:
                check_proximity(rep, given)
            assert str(exc.value) == f"{len(given)} jacobian(s) for 3 step(s)"

    def test_zero_direction_at_noncritical_point_is_flagged(self):
        desc = get_problem("quad_pair")
        rec = IterationRecord(k=0, x=np.array([2.0, 2.0]), Fx=np.array([4.0, 2.5]),
                              v=np.zeros(2), t=1.0, alpha_upper=0.0, alpha_lower=0.0,
                              j=0, sigma_certified=True, inner_iterations=0)
        rep = RunReport(records=(rec,), termination="max_iter", config=SolverConfig())
        out = check_proximity(rep, stepped_jacobians(desc.problem, rep))
        assert out.status == STATUS_FAIL
        assert "zero direction" in out.note


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


_LIBRARY_MODULES = tuple(f"paretodescent.{m}" for m in (
    "diagnostics", "direction", "linesearch", "objective", "oracle", "problems", "solver"))


@pytest.mark.parametrize("module", ["paretodescent", "paretodescent.cli", *_LIBRARY_MODULES])
def test_every_exported_name_resolves(module):
    exported = importlib.import_module(module).__all__
    namespace = {}
    exec(f"from {module} import *", namespace)  # a stale name raises AttributeError
    assert len(set(exported)) == len(exported)
    assert set(namespace) - {"__builtins__"} == set(exported)
    if module == "paretodescent":  # the package publishes its library modules' names, no more
        published = [name for m in _LIBRARY_MODULES for name in importlib.import_module(m).__all__]
        assert sorted(exported) == sorted(published)
