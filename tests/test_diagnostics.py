import dataclasses
import importlib
import json
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
    check_armijo,
    check_proximity,
    check_quasi_fejer,
    get_problem,
    list_problems,
    run,
    run_diagnostics,
    solve_sigma_approx,
)
from paretodescent import cli
from paretodescent import diagnostics as diagnostics_module
from paretodescent import direction as direction_module
from paretodescent import solver as solver_module
from paretodescent.diagnostics import STATUS_FAIL, STATUS_PASS
from paretodescent.direction import STATUS_CERTIFIED, _allowance
from paretodescent.oracle import kkt_direction

from test_direction import _hard_jacobians


def quad_run(x0=(0.4, 2.5), sigma=0.0):
    return run(get_problem("quad_pair").problem, list(x0), SolverConfig(sigma=sigma))


def stepped_jacobians(problem, report):
    return [problem.jacobian(r.x) for r in report.stepped_records]


def steep_problem(**fields):
    """f = 1e154 x + 1.7e308 with its exact Jacobian: from 0 the first step is
    t = 1 along v = -1e154, and F stays finite."""
    return MultiObjective(n=1, m=1, f=lambda x: np.array([1e154 * x[0] + 1.7e308]),
                          jac=lambda x: np.array([[1e154]]), **fields)


def synthetic_report(xs, Fs, vs=None, alpha=-1.0):
    """Hand-built report; positions/values given, every step of length 1 (j = 0)."""
    xs = [np.asarray(x, dtype=float) for x in xs]
    Fs = [np.asarray(F, dtype=float) for F in Fs]
    n = xs[0].size
    records = []
    for k, (x, F) in enumerate(zip(xs, Fs)):
        last = k == len(xs) - 1
        v = np.zeros(n) if vs is None else np.asarray(vs[k], dtype=float)
        records.append(
            IterationRecord(k=k, x=x, Fx=F, v=v, weights=np.full(F.size, 1.0 / F.size),
                            alpha_upper=alpha, alpha_lower=alpha, j=-1 if last else 0,
                            sigma_certified=True, inner_iterations=0)
        )
    return RunReport(records=tuple(records), termination="max_iter", config=SolverConfig())


def _decreases(report):
    """The rule of the monotone check that the armijo check took over:
    F(x^{k+1}) <= F(x^k) in every component at every move, a pair whose
    largest difference is NaN counting as no violation, and some finite one
    required once there is a move."""
    recs = report.records
    diffs = [float(np.max(b.Fx - a.Fx)) for a, b in zip(recs, recs[1:])]
    worst = max((d for d in diffs if not math.isnan(d)), default=-math.inf)
    return len(recs) < 2 or -math.inf < worst <= 0.0


def _nudged(values, i, kind, scale):
    """values with entry i (mod its size) shifted by scale, moved one ulp
    toward scale's sign, or made NaN."""
    values = values.copy()
    i %= values.size
    if kind == "shift":
        values[i] += scale
    elif kind == "ulp":
        values[i] = np.nextafter(values[i], math.copysign(math.inf, scale))
    else:
        values[i] = math.nan
    return values


class TestDecrease:
    """The armijo check, with the proximity check's phi <= 0, covers the
    decrease F(x^{k+1}) <= F(x^k) at every move, which has no check of its own."""

    def test_a_component_that_rises_fails_at_its_step(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        r = rep.records[1]
        Fx = rep.records[2].Fx.copy()
        Fx[1] = r.Fx[1] + 0.2
        risen = _mutated(rep, 2, Fx=Fx)
        target = r.Fx + (rep.config.beta * r.t) * (desc.problem.jacobian(r.x) @ r.v)
        out = run_diagnostics(desc.problem, risen, 0.0).checks[0]
        assert not _decreases(risen)
        assert (out.name, out.status, out.worst_index) == ("armijo", STATUS_FAIL, 1)
        assert out.worst_violation == Fx[1] - target[1] >= 0.2

    def test_an_interior_stop_fails_the_armijo_check(self):
        # quasi_exp from (3, -3) at sigma 0.25, record 1 made a stop (j = -1,
        # so t = 0) and F(x^2) set above F(x^1): no step is left to check there,
        # and F rises, so only the deleted monotone check used to fail
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, [3.0, -3.0], SolverConfig(sigma=0.25))
        stopped = _mutated(_mutated(rep, 1, j=-1), 2, Fx=rep.records[1].Fx + 1.0)
        summary = run_diagnostics(desc.problem, stopped, 0.25)
        assert not _decreases(stopped)
        assert [(c.name, c.status) for c in summary.checks] == [
            ("armijo", STATUS_FAIL), ("quasi_fejer", STATUS_PASS), ("proximity", STATUS_PASS)]
        armijo = summary.checks[0]
        assert (armijo.worst_violation, armijo.worst_index) == (math.inf, 1)

    @settings(max_examples=300)
    @given(name=st.sampled_from(list_problems()), sigma=st.sampled_from([0.0, 0.25, 0.9]),
           mutations=st.lists(st.tuples(
               st.sampled_from(["F_shift", "F_ulp", "F_nan", "x_ulp", "stop"]),
               st.integers(0, 10**6), st.integers(0, 3),
               st.sampled_from([-1.0, -1e-9, 1e-9, 1.0])), min_size=1, max_size=3))
    def test_every_report_the_deleted_rule_rejects_fails_armijo_or_proximity(
            self, name, sigma, mutations):
        # F raised or lowered, F or x one ulp off, NaN in F, a record made a
        # stop; the run itself passes both the battery and the deleted rule
        desc = get_problem(name)
        rep = run(desc.problem, desc.recommended_x0, SolverConfig(sigma=sigma))
        assert _decreases(rep) and run_diagnostics(desc.problem, rep, sigma).all_ok
        for kind, k, i, scale in mutations:
            k %= len(rep.records)
            r = rep.records[k]
            if kind == "stop":
                rep = _mutated(rep, k, j=-1)
            elif kind == "x_ulp":
                rep = _mutated(rep, k, x=_nudged(r.x, i, "ulp", scale))
            else:
                rep = _mutated(rep, k, Fx=_nudged(r.Fx, i, kind[2:], scale))
        checks = {c.name: c for c in run_diagnostics(desc.problem, rep, sigma).checks}
        if not _decreases(rep):
            assert not (checks["armijo"].ok and checks["proximity"].ok)
        if any(r.j < 0 for r in rep.records[:-1]):
            assert checks["armijo"].worst_violation == math.inf


class TestArmijo:
    def test_passes_on_convergent_run(self):
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, desc.recommended_x0)
        assert len(rep.stepped_records) >= 10
        out = check_armijo(rep, stepped_jacobians(desc.problem, rep))
        assert out.ok
        assert "telescoped ratio" in out.note

    def test_fails_on_too_small_a_decrease(self):
        # J v = -1 along v = 1, so each unit step must lower both criteria
        # by beta * 1 = 1/2; they fall by 1/4
        xs = [[float(k)] for k in range(30)]
        Fs = [[30.0 - 0.25 * k, 30.0 - 0.25 * k] for k in range(30)]
        rep = synthetic_report(xs, Fs, vs=[[1.0]] * 30, alpha=-0.5)
        out = check_armijo(rep, [np.array([[-1.0], [-1.0]])] * 29)
        assert (out.status, out.worst_violation, out.worst_index) == (STATUS_FAIL, 0.25, 0)

    @pytest.mark.parametrize("F, J", [([1.0], [[0.0]]), ([1e20], [[-1.0]])],
                             ids=["flat", "rounded_away"])
    def test_a_target_that_asks_for_no_decrease_fails(self, F, J):
        # J v = 0, or beta t J v lost against F(x): a step onto an equal value
        # meets the target but decreases nothing
        rep = synthetic_report([[0.0], [1.0]], [F, F], vs=[[1.0], [0.0]])
        out = check_armijo(rep, [np.array(J)])
        assert (out.status, out.worst_violation, out.worst_index) == (STATUS_FAIL, math.inf, 0)

    def test_a_step_length_other_than_two_to_the_minus_j_fails(self):
        # a move of 1/2 along v = 1 from 0, with a decrease beyond the target,
        # where j = 0 claims t = 1; j = 1 claims the move made
        rep = synthetic_report([[0.0], [0.5]], [[2.0], [1.0]], vs=[[1.0], [0.0]])
        J = [np.array([[-1.0]])]
        out = check_armijo(rep, J)
        assert (out.status, out.worst_violation, out.worst_index) == (STATUS_FAIL, math.inf, 0)
        assert check_armijo(_mutated(rep, 0, j=1), J).ok

    def test_vacuous_without_steps(self):
        rep = run(get_problem("paper_cubic").problem, [2.0])
        out = check_armijo(rep, [])
        assert out.ok and "vacuous" in out.note
        # one step is already checked: 1/2 x^2 from 1 lands on 0, the target exactly
        desc = get_problem("scalar_quad")
        rep = run(desc.problem, [1.0])
        out = check_armijo(rep, stepped_jacobians(desc.problem, rep))
        assert len(rep.stepped_records) == 1
        assert (out.status, out.worst_violation) == (STATUS_PASS, 0.0)
        assert out.note == "sum t|v|^2=1.000e+00 telescoped ratio=0.5"

    def test_jacobian_count_must_match_the_steps(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        jacobians = stepped_jacobians(desc.problem, rep)
        with pytest.raises(ValueError) as exc:
            check_armijo(rep, jacobians[:2])
        assert str(exc.value) == "2 jacobian(s) for 3 step(s)"

    @pytest.mark.parametrize("k, value", [(0, math.nan), (1, math.inf)])
    def test_non_finite_next_value_fails(self, k, value):
        desc = get_problem("quad_pair")
        rep = quad_run()
        jacobians = stepped_jacobians(desc.problem, rep)
        Fx = rep.records[k + 1].Fx.copy()
        Fx[k] = value
        out = check_armijo(_mutated(rep, k + 1, Fx=Fx), jacobians)
        assert (out.status, out.worst_violation, out.worst_index) == (STATUS_FAIL, math.inf, k)

    def test_a_step_without_a_next_record_fails(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        jacobians = stepped_jacobians(desc.problem, rep)
        rep = _mutated(rep, len(rep.records) - 1, j=0)
        jacobians.append(desc.problem.jacobian(rep.records[-1].x))
        out = check_armijo(rep, jacobians)
        assert (out.status, out.worst_violation, out.worst_index) == (
            STATUS_FAIL, math.inf, rep.records[-1].k)


def steep_pair():
    """Two criteria of curvature 10: a unit step along the exact direction
    overshoots, so Armijo backtracks at every step."""
    c = np.array([[0.0, 0.0], [1.0, 0.0]])
    return MultiObjective(
        n=2, m=2,
        f=lambda x: 5.0 * np.sum((x - c) ** 2, axis=1),
        jac=lambda x: 10.0 * (x - c),
    )


def _certificate(problem, rep):
    return check_proximity(rep, stepped_jacobians(problem, rep))


def _next_value_past_its_target(rep, problem):
    """F(x^1) raised to one ulp past the Armijo target of step 0, in criterion 0."""
    r = rep.records[0]
    target = r.Fx + (rep.config.beta * r.t) * (problem.jacobian(r.x) @ r.v)
    Fx = rep.records[1].Fx.copy()
    Fx[0] = np.nextafter(target[0], math.inf)
    return _mutated(rep, 1, Fx=Fx)


def _next_point_one_ulp_off(rep, _problem):
    x = rep.records[1].x.copy()
    x[0] = np.nextafter(x[0], math.inf)
    return _mutated(rep, 1, x=x)


class TestStepMutations:
    """Each mutation of a correct run must fail the armijo check or, for a
    mutated certificate, the proximity check, which carries each step's
    certificate; both pass on the run itself."""

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda rep, _p: _mutated(rep, 0, j=rep.records[0].j + 1), id="t_halved"),
        pytest.param(lambda rep, _p: _mutated(rep, 0, j=1075), id="t_underflowed_to_zero"),
        pytest.param(_next_point_one_ulp_off, id="next_x_one_ulp_off"),
        pytest.param(_next_value_past_its_target, id="next_F_one_ulp_past_target"),
        pytest.param(lambda rep, _p: dataclasses.replace(rep, config=SolverConfig(beta=0.9)),
                     id="beta_raised"),
    ])
    @pytest.mark.parametrize("name", ["steep_pair", "quasi_exp"])
    def test_each_mutation_of_a_step_fails_the_armijo_check(self, mutate, name):
        if name == "steep_pair":
            problem, x0 = steep_pair(), [2.0, 2.0]
        else:
            problem, x0 = get_problem(name).problem, get_problem(name).recommended_x0
        rep = run(problem, x0)
        jacobians = stepped_jacobians(problem, rep)
        assert check_armijo(rep, jacobians).ok
        out = check_armijo(mutate(rep, problem), jacobians)
        assert out.status == STATUS_FAIL and out.worst_violation > 0.0

    def test_step_accepted_against_armijo(self, monkeypatch):
        # every step forced to t = 1: t = 2**-j and the update hold, and the
        # Armijo inequality breaks
        problem = steep_pair()
        cfg = SolverConfig(max_iter=3)
        monkeypatch.setattr(solver_module, "armijo_step", lambda *args: StepResult(j=0))
        rep = run(problem, [2.0, 2.0], cfg)
        out = check_armijo(rep, stepped_jacobians(problem, rep))
        assert out.status == STATUS_FAIL and math.isfinite(out.worst_violation)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_alpha_upper_made_less_negative(self, sigma):
        desc = get_problem("quad_pair")
        rep = quad_run(sigma=sigma)
        assert _certificate(desc.problem, rep).ok
        first = rep.records[0]
        mutated = dataclasses.replace(first, alpha_upper=0.5 * first.alpha_upper)
        rep = dataclasses.replace(rep, records=(mutated,) + rep.records[1:])
        out = _certificate(desc.problem, rep)
        assert out.status == STATUS_FAIL and out.worst_index == 0

    def test_sigma_mismatch(self):
        desc = get_problem("quad_pair")
        rep = quad_run(x0=(3.0, 3.0), sigma=0.5)
        assert _certificate(desc.problem, rep).ok
        with pytest.raises(ValueError):
            run_diagnostics(desc.problem, rep, 0.0)
        claimed = dataclasses.replace(rep, config=SolverConfig(sigma=0.0))
        assert _certificate(desc.problem, claimed).status == STATUS_FAIL

    def test_uncertified_direction_recorded_as_certified(self, monkeypatch):
        desc = get_problem("quad_pair")
        cfg = SolverConfig(max_iter=5)
        assert _certificate(desc.problem, run(desc.problem, [3.0, 3.0], cfg)).ok

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
        assert _certificate(desc.problem, rep).status == STATUS_FAIL


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
    @settings(max_examples=40)
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

    @pytest.mark.parametrize("k", [0, 1])
    def test_an_interior_iterate_moved_away_fails_at_its_step(self, k):
        # quad_pair from (0.4, 2.5) stops at x^3 = (0.4, 0) after three steps
        rep = quad_run()
        recs = list(rep.records)
        assert len(recs) == 4
        x_tilde = recs[-1].x
        moved = x_tilde + 10.0 * (recs[k + 1].x - x_tilde)
        recs[k + 1] = dataclasses.replace(recs[k + 1], x=moved)
        out = check_quasi_fejer(dataclasses.replace(rep, records=tuple(recs)))
        a = recs[k]
        sq_a = float((a.x - x_tilde) @ (a.x - x_tilde))
        rhs = sq_a + a.t * a.t * float(a.v @ a.v) + 1e-10 * (1.0 + sq_a)
        assert (out.status, out.worst_index) == (STATUS_FAIL, k)
        assert out.worst_violation == float((moved - x_tilde) @ (moved - x_tilde)) - rhs > 1.0

    def test_a_last_step_that_raises_f_is_left_to_armijo(self):
        # F(x^K) > F(x^1): x^K is outside T, and the step onto it misses its
        # Armijo target; the quasi-Fejer check still reports on its own
        # inequality toward x^K
        Fs = [[4.0], [1.0], [2.0]]
        toward = synthetic_report([[2.0], [1.0], [0.0]], Fs, vs=[[-1.0], [-1.0], [0.0]])
        away = synthetic_report([[1.0], [0.0], [1.0]], Fs)
        for rep in (toward, away):
            assert not _decreases(rep)
            assert check_armijo(rep, [np.array([[1.0]])] * 2).status == STATUS_FAIL
        out = check_quasi_fejer(toward)
        assert (out.status, out.worst_index) == (STATUS_PASS, 1)
        assert out.worst_violation == 0.0 - (1.0 + 1.0 + 1e-10 * 2.0)
        out = check_quasi_fejer(away)
        assert (out.status, out.worst_index) == (STATUS_FAIL, 0)
        assert out.worst_violation == 1.0 - 1e-10

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_squared_distance_warns_of_nothing(self):
        # the run steps from 0 to -1.75e154, and ||x^0 - x^3||^2 overflows to
        # inf, so the first step's inequality holds by -inf; the last one's
        # is the worst
        rep = run(steep_problem(), [0.0], SolverConfig(max_iter=3))
        assert rep.records[-1].x == -1.75e154
        out = check_quasi_fejer(rep)
        assert (out.status, out.worst_index) == (STATUS_PASS, 2)
        assert out.worst_violation == -1.2500000000625e+307

    @pytest.mark.filterwarnings("error")
    def test_a_step_whose_right_side_overflows_holds(self, tmp_path, monkeypatch):
        # one step from 0 to x^1 = -1e154: the inequality is 0 <= 1e308 +
        # 1e308, whose right side overflows, so it holds by -inf
        rep = run(steep_problem(), [0.0], SolverConfig(max_iter=1))
        assert len(rep.stepped_records) == 1 and rep.records[-1].x == -1e154
        out = check_quasi_fejer(rep)
        assert (out.status, out.worst_violation, out.worst_index) == (STATUS_PASS, -math.inf, 0)
        # solve writes the verdict, and JSON's null for the violation
        monkeypatch.setattr(cli, "build_inline_problem",
                            lambda exprs, n=None: steep_problem(name="inline"))
        cfg = tmp_path / "steep.cfg"
        cfg.write_text(f"f1 = 1e154*x1 + 1.7e308\nx0 = 0\nmax_iter = 1\noutput = {tmp_path}/s\n")
        assert cli.main(["solve", "--config", str(cfg)]) == cli.EXIT_MAX_ITER
        diagnostics = json.loads((tmp_path / "s.report.json").read_text())["diagnostics"]
        assert diagnostics["all_ok"] is True
        assert diagnostics["quasi_fejer"] == {
            "name": "quasi_fejer", "status": STATUS_PASS, "ok": True,
            "worst_violation": None, "worst_index": 0, "note": ""}

    def test_a_report_with_nothing_measurable_fails(self):
        # a NaN final iterate makes every step's excess NaN, and no step
        # measures anything
        rep = synthetic_report([[0.0], [1.0], [math.nan]], [[1.0]] * 3)
        out = check_quasi_fejer(rep)
        assert (out.status, out.worst_violation, out.worst_index) == (STATUS_FAIL, -math.inf, None)

    def test_a_report_without_steps_passes_vacuously(self):
        desc = get_problem("scalar_quad")
        rep = run(desc.problem, [0.0])  # starts critical: one record, no step
        assert len(rep.records) == 1
        out = check_quasi_fejer(rep)
        assert (out.status, out.worst_violation, out.note) == (STATUS_PASS, 0.0, "vacuous: no steps")


def one_step_report(J, res, sigma):
    """A report of one step along the direction ``res`` solved at J."""
    m, n = J.shape
    step = IterationRecord(k=0, x=np.zeros(n), Fx=np.zeros(m), v=res.v, weights=res.weights,
                           alpha_upper=res.alpha_upper, alpha_lower=res.alpha_lower, j=0,
                           sigma_certified=True, inner_iterations=res.inner_iterations)
    end = dataclasses.replace(step, k=1, j=-1)
    return RunReport(records=(step, end), termination="max_iter", config=SolverConfig(sigma=sigma))


def _mutated(rep, k, **fields):
    records = list(rep.records)
    records[k] = dataclasses.replace(records[k], **fields)
    return dataclasses.replace(rep, records=tuple(records))


def _negative_entry(w):
    w = w.copy()
    w[w.argmin()] = -1e-300 if w.min() == 0.0 else -w.min()
    return w


def _nan_entry(w):
    w = w.copy()
    w[0] = math.nan
    return w


class TestProximity:
    def test_exact_runs_recover_the_exact_direction(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        out = check_proximity(rep, stepped_jacobians(desc.problem, rep))
        assert out.ok
        # sigma = 0: recorded directions coincide with re-solves to 1e-4
        for r in rep.stepped_records:
            exact = solve_sigma_approx(desc.problem.jacobian(r.x), 0.0)
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

    @pytest.mark.parametrize("mutation", [
        pytest.param(lambda r: {"weights": r.weights * (1.0 + 1e-6)}, id="scaled_weights"),
        pytest.param(lambda r: {"weights": _negative_entry(r.weights)}, id="negative_weight"),
        pytest.param(lambda r: {"v": r.v * (1.0 + 1e-6)}, id="v_not_minus_JTw"),
        pytest.param(lambda r: {"alpha_lower": r.alpha_lower * (1.0 - 1e-6)}, id="shrunk_alpha_lower"),
        pytest.param(lambda r: {"alpha_upper": r.alpha_upper * (1.0 + 1e-6)}, id="lowered_alpha_upper"),
        pytest.param(lambda r: {"weights": _nan_entry(r.weights)}, id="nan_weight"),
        pytest.param(lambda r: {"sigma_certified": False}, id="recorded_uncertified"),
    ])
    @pytest.mark.parametrize("name,sigma", [("quasi_exp", 0.0), ("quasi_exp", 0.5),
                                            ("quad_pair", 0.9)])
    def test_each_mutation_of_a_step_fails(self, mutation, name, sigma):
        desc = get_problem(name)
        rep = run(desc.problem, desc.recommended_x0, SolverConfig(sigma=sigma))
        jacobians = stepped_jacobians(desc.problem, rep)
        assert check_proximity(rep, jacobians).ok
        # the first step, far from the critical set, where a relative change
        # of 1e-6 is far above the rounding allowance
        out = check_proximity(_mutated(rep, 0, **mutation(rep.records[0])), jacobians)
        assert (out.status, out.worst_index) == (STATUS_FAIL, 0)
        assert out.worst_violation > 0.0

    # one step at J = [g1; g2; g1 + g2; (g1 + g2) / 2], whose rows are linearly
    # dependent, so that w can move off the simplex with J^T w unchanged; the
    # recorded weights (1/2, 1/2, 0, 0) are optimal, and every float is exact
    _DEPENDENT_J = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]])
    _EPS_W = 2.0**-20

    def _step(self, J, w, v, sigma):
        phi = float((J @ v).max()) + 0.5 * float(v @ v)
        g = J.T @ w
        res = DirectionResult(v, -0.5 * float(g @ g), phi, w, 0, STATUS_CERTIFIED, J @ v)
        return one_step_report(J, res, sigma)

    def test_each_condition_fails_alone(self):
        J, e = self._DEPENDENT_J, self._EPS_W
        w, v = np.array([0.5, 0.5, 0.0, 0.0]), np.array([-0.5, -0.5])
        assert check_proximity(self._step(J, w, v, 0.0), [J]).ok
        # a negative weight, at the same sum and the same J^T w
        out = check_proximity(self._step(J, w + [e / 2, e / 2, 0.0, -e], v, 0.0), [J])
        assert (out.status, out.worst_violation) == (STATUS_FAIL, e)
        # a sum of 1 - e, at the same J^T w
        out = check_proximity(self._step(J, w + [-e, -e, e, 0.0], v, 0.0), [J])
        assert (out.status, out.worst_violation) == (STATUS_FAIL, e - 4.0 * 6 * np.finfo(float).eps)
        # v off -J^T w, with alpha_upper its own primal value, which a loose
        # sigma still certifies
        out = check_proximity(self._step(J, w, v * (1.0 + 1e-3), 0.9), [J])
        assert out.status == STATUS_FAIL and out.worst_violation == pytest.approx(0.5e-6)
        # a primal value above zero that the gap floor alone would admit:
        # v = -g for weights (1, 0) that do not solve the subproblem at a
        # critical point of gradient scale 1e-8
        J = np.array([[1e-8, 0.0], [-1e-8, 0.0]])
        step = self._step(J, np.array([1.0, 0.0]), np.array([-1e-8, 0.0]), 0.5)
        out = check_proximity(step, [J])
        assert out.status == STATUS_FAIL and out.worst_violation == step.records[0].alpha_upper > 0.0

    def test_note_reports_the_largest_proximity_bound(self):
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, desc.recommended_x0, SolverConfig(sigma=0.9))
        out = check_proximity(rep, stepped_jacobians(desc.problem, rep))
        bound = max(2.0 * (r.alpha_upper - r.alpha_lower) for r in rep.stepped_records)
        assert out.ok and bound > 0.0
        assert out.note == f"max 2(phi - d)={bound:.3e}"

    @settings(max_examples=300)
    @given(J=_hard_jacobians(), sigma=st.sampled_from([0.0, 0.5, 0.9]))
    def test_every_certified_direction_passes_and_bounds_its_distance(self, J, sigma):
        res = solve_sigma_approx(J, sigma, eps_critical=1e-12)
        if res.status != STATUS_CERTIFIED:  # a critical or stalled solve takes no step
            return
        out = check_proximity(one_step_report(J, res, sigma), [J])
        bound = 2.0 * (res.alpha_upper - res.alpha_lower)
        assert out.ok, out
        assert out.note == f"max 2(phi - d)={bound:.3e}"
        _w, v_ref, alpha_ref = kkt_direction(J)
        rounding = _allowance(J @ J.T, J.shape[1])
        assert alpha_ref >= res.alpha_lower - rounding
        dist = float(np.linalg.norm(res.v - v_ref))
        assert dist * dist <= bound + rounding


@pytest.mark.parametrize("sigma", [0.0, 0.5])
@pytest.mark.parametrize("name", list_problems())
def test_diagnostics_call_no_solver_and_one_jacobian_per_step(monkeypatch, name, sigma):
    desc = get_problem(name)
    rep = run(desc.problem, desc.recommended_x0, SolverConfig(sigma=sigma))

    def refuse(*args, **kwargs):
        raise AssertionError("the diagnostics called a solver")

    for module, attr in ((direction_module, "solve_sigma_approx"),
                         (solver_module, "solve_sigma_approx"), (diagnostics_module, "solve_exact")):
        monkeypatch.setattr(module, attr, refuse)
    calls = []
    counted = MultiObjective(
        n=desc.problem.n, m=desc.problem.m,
        f=lambda x: calls.append("f") or desc.problem.f(x),
        jac=lambda x: calls.append("jac") or desc.problem.jac(x),
    )
    assert run_diagnostics(counted, rep, sigma).all_ok
    assert calls == ["jac"] * len(rep.stepped_records)


def test_a_jacobian_that_is_not_bit_reproducible_flips_the_armijo_check():
    # MultiObjective requires jac to return the same bits for the same x; this
    # one returns J one ulp up on every second call.  1/2 x^2 from 1 steps
    # onto its Armijo target exactly, so J(1) one ulp up, as the second
    # diagnostics sees it, puts the target 2**-53 below F(x^1) = 0
    calls = []

    def jac(x):
        calls.append(x)
        J = np.array([[x[0]]])
        return np.nextafter(J, math.inf) if len(calls) % 2 == 0 else J

    problem = MultiObjective(n=1, m=1, f=lambda x: 0.5 * x * x, jac=jac)
    rep = run(problem, [1.0])
    assert (rep.termination, len(rep.stepped_records)) == ("critical_point", 1)
    first = run_diagnostics(problem, rep, 0.0)
    second = run_diagnostics(problem, rep, 0.0)
    assert len(calls) == 4 and first.all_ok
    assert [c.status for c in second.checks] == [STATUS_FAIL, STATUS_PASS, STATUS_PASS]
    armijo = second.checks[0]
    assert (armijo.name, armijo.worst_violation, armijo.worst_index) == ("armijo", 2.0**-53, 0)


# few distinct values, so ties and repeats are common; NaN must never win
_F_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.nan])
_F_SEQUENCES = st.integers(1, 3).flatmap(
    lambda m: st.lists(st.lists(_F_VALUES, min_size=m, max_size=m), min_size=2, max_size=8)
)


class TestWorstViolation:
    @given(_F_SEQUENCES)
    def test_first_index_attaining_the_maximum_is_reported(self, Fs):
        # unit steps along v = 1 with J v = -1, so each Armijo target is
        # F(x^k) - 1/2 exactly; a NaN in either value is an infinite violation
        rep = synthetic_report([[float(k)] for k in range(len(Fs))], Fs, vs=[[1.0]] * len(Fs))
        F = np.array(Fs)
        jacobians = [-np.ones((F.shape[1], 1))] * (len(Fs) - 1)
        armijo = [math.inf if np.isnan([a, b]).any() else np.max(b - (a - 0.5))
                  for a, b in zip(F, F[1:])]
        rises = [np.max(b - a) for a, b in zip(F, F[1:])]
        out = check_armijo(rep, jacobians)
        cases = (
            (diagnostics_module._worst((v, k) for k, v in enumerate(rises)), rises),
            ((out.worst_violation, out.worst_index), armijo),
        )
        for (worst, index), viols in cases:
            finite = [v for v in viols if not np.isnan(v)]
            if not finite:
                assert worst == -math.inf and index is None
                continue
            top = max(finite)
            assert worst == top
            assert index == next(k for k, v in enumerate(viols) if v == top)

    def test_minus_inf_is_measured_and_nan_is_not(self):
        assert diagnostics_module._worst([(-math.inf, 3), (math.nan, 4)]) == (-math.inf, 3)
        assert diagnostics_module._worst([(math.nan, 0)]) == (-math.inf, None)


class TestSummary:
    def test_full_battery_passes_and_is_pure(self):
        desc = get_problem("quad_pair")
        rep = quad_run()
        s1 = run_diagnostics(desc.problem, rep, 0.0)
        s2 = run_diagnostics(desc.problem, rep, 0.0)
        assert s1.all_ok
        assert s1.to_dict() == s2.to_dict()
        assert list(s1.to_dict()) == ["armijo", "quasi_fejer", "proximity", "all_ok"]


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
