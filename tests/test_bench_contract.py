"""The library as the benchmark in bench/ uses it.

bench/checks.py imports and patches library names and counts the
evaluations a run makes against the pattern a report implies.  Its
self-test runs a traced and an untraced solve and diagnosis, so a library
change that removes a name the bench looks up, or that changes the
evaluation pattern, fails here rather than in every benchmark run.  The
bench also writes every builtin case's artifacts, reloads them and replays
the diagnostics; the round trip below does the same, so a format change
the bench would count as ``cli.replay_mismatch`` fails here too, and the
first cases of two workloads go through the bench's own pipelines and
output checks.
"""

import contextlib
from pathlib import Path

import pytest

from paretodescent import SolverConfig, cli, get_problem, list_problems, run, run_diagnostics

from test_cli import _forced_run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_bench_self_test_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks

    assert checks.self_test() == []


# one forced run per termination, built as test_cli's round-trip property builds them
_FORCED = {
    "critical_point": (0, (2, 2), 0.0, 1),
    "max_iter": (0, (2, 2), 0.0, 3),
    "subproblem_failure": (0, (3, 2), 0.0, 1),
    "numerical_failure": (0, (2, 2), 0.0, 1),
    "linesearch_failure": (0, (2, 3), 0.0, 1),
}


@pytest.mark.parametrize("case", [*list_problems(), *_FORCED])
def test_artifacts_reload_as_the_bench_checks_them(monkeypatch, tmp_path, case):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    if case in _FORCED:
        seed, shape, sigma, fail_at = _FORCED[case]
        problem, x0, cfg = _forced_run(seed, shape, sigma, case, fail_at)
    else:
        desc = get_problem(case)
        problem, x0, cfg = desc.problem, desc.recommended_x0, SolverConfig()
    report = run(problem, x0, cfg)
    assert case not in _FORCED or report.termination == case
    summary = run_diagnostics(problem, report, cfg.sigma)
    prefix = str(tmp_path / "case")
    settings = cli.RunSettings(problem, case, None, x0, cfg, prefix)
    cli.write_trajectory_csv(f"{prefix}.trajectory.csv", report, problem.n, problem.m)
    workloads.write_report_json(prefix, settings, report, summary)
    reloaded, _doc = cli.load_run(prefix)
    assert checks.reload_matches(report, reloaded)
    assert checks.lossy_records(report, reloaded) == 0
    assert checks.trajectory_digest(reloaded) == checks.trajectory_digest(report)
    replay = run_diagnostics(problem, reloaded, cfg.sigma)
    assert checks._summary_json(replay) == checks._summary_json(summary)


@pytest.mark.parametrize("workload", ["builtin_suite", "inline_fd"])
def test_the_first_case_of_a_workload_passes_the_bench_checks(monkeypatch, tmp_path, workload):
    # check_case reaches the config parser, the inline builder, the report
    # writer, load_run and oracle.kkt_direction, of which the self-test
    # above reaches only some
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import tracing
    import workloads

    case = workloads.make_cases(workload, 0, tmp_path / "inputs")[0]
    for traced in (False, True):
        tracer = tracing.Tracer()

        def wrap(problem, tally):
            return workloads.own(problem, tally, tracing.TracedObjective, tracer=tracer)

        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            run = workloads.PIPELINES[workload](
                case, str(tmp_path / f"traced{traced}"),
                *((tracer.call, wrap) if traced else (workloads.plain_call, workloads.own)))
        causes, wrong, _facts = checks.check_case(workload, case, run)
        assert (causes, wrong) == ([], []), f"traced={traced}"
