"""Rounds, timing, checks and metrics of one workload run.

Imported by ``run.py`` once it has put this checkout's ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import resource
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

MIN_ROUNDS = 3  # timed untraced rounds
REFERENCE_EVERY_S = 0.01  # one reference unit per 10 ms of a case's time

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "solve_ref": "ref",
    "wall_s": "s",
    "solve_s": "s",
    "diagnose_s": "s",
    "reference_unit_ms": "ms",
    "f_calls": "count",
    "jac_calls": "count",
    "failed_ratio": "ratio",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# Reported in the JSON result.  The rest are printed only: raw seconds move
# with the speed of a shared machine, diagnose_s and failed_ratio are 0 on
# some workloads (see README.md).
GATED = ("setup_s", "wall_ref", "solve_ref", "f_calls", "jac_calls", "pass_ratio", "peak_rss_mb")


def _reference_unit(v, M) -> float:
    """Fixed work that does not touch the library: an interpreted loop and
    numpy products, the two kinds of work the workloads are made of.  Its
    duration samples how fast this machine is running right now."""
    s = 0.0
    for i in range(1000):
        s += i * 0.5
    for _ in range(10):
        v = np.maximum(M.T @ (M @ v) * 1e-4 - 0.5, 0.0)
    return s + float(v[0])


def _run_round(cases, pipeline, work, units, tracer=None, keep=False):
    """Run every case once, ``units[i]`` reference units before case i.

    Returns per case its (wall, solve, diagnose) times and its fingerprint
    (trajectory digest, counters), the mean duration of a reference unit in
    this round, and the case runs themselves when ``keep`` is set; a sweep
    case keeps only its final record, as ``paretodescent sweep`` does."""
    if tracer is None:
        call, wrap = workloads.plain_call, workloads.own
        ctx = contextlib.nullcontext()
    else:
        call = tracer.call

        def wrap(problem, tally):
            return workloads.own(problem, tally, tracing.TracedObjective, tracer=tracer)

        ctx = tracing.installed(tracer)
    v, M = np.linspace(0.0, 1.0, 2000), np.linspace(-1.0, 1.0, 20_000).reshape(10, 2000)
    times, prints, kept = [], [], []
    reference_s = 0.0
    with ctx:
        for i, case in enumerate(cases):
            t = time.perf_counter()
            for _ in range(units[i]):
                _reference_unit(v, M)
            reference_s += time.perf_counter() - t
            if tracer is not None:
                tracer.start_case(i)
            run = pipeline(case, str(work / f"case{i}"), call, wrap)
            times.append((run.wall_s, run.solve_s, run.diagnose_s))
            prints.append((checks.trajectory_digest(run.report), run.tally.as_tuple()))
            if keep:
                if run.prefix is None:
                    run.report = dataclasses.replace(run.report, records=run.report.records[-1:])
                kept.append(run)
    return times, prints, reference_s / sum(units), kept


def run_workload(args, setup: list[float], out: Path) -> dict:
    """Run one workload: warm-up round, timed rounds, checks; return the
    result with its metrics.  ``setup`` holds the set-up samples; artifacts
    and spans go under ``out``."""
    work = out / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cases = workloads.make_cases(args.workload, args.seed, work / "inputs")
        pipeline = workloads.PIPELINES[args.workload]
        wrong = checks.self_test()

        # Round 0 warms up, and its outputs are checked after timing.  The
        # timed rounds follow: untraced ones in an untraced run, traced and
        # untraced ones alternating in a traced run.
        units = [1] * len(cases)
        warmup, reference, _, first = _run_round(cases, pipeline, work, units, keep=True)
        units = [max(1, round(w / REFERENCE_EVERY_S)) for w, _, _ in warmup]
        times, unit_s = [], []  # per untraced timed round
        traced_rounds = 0
        fastest_traced = None  # (wall, tracer)
        begin = time.monotonic()
        while True:
            enough = traced_rounds >= 1 and bool(times) if args.trace else len(times) >= MIN_ROUNDS
            if enough and time.monotonic() - begin >= args.seconds:
                break
            tracer = tracing.Tracer() if args.trace and traced_rounds < len(times) else None
            round_times, prints, unit, _ = _run_round(cases, pipeline, work, units, tracer)
            if prints != reference:
                wrong.append(("traced" if tracer else "repeated") + " round changed a trajectory or a counter")
            if tracer is None:
                times.append(round_times)
                unit_s.append(unit)
            else:
                traced_rounds += 1
                wall = sum(w for w, _, _ in round_times)
                if fastest_traced is None or wall < fastest_traced[0]:
                    fastest_traced = (wall, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        causes, failed_cases = Counter(), Counter()
        failed = lossy = write_bytes = 0
        for case, run in zip(cases, first):
            case_causes, case_wrong, facts = checks.check_case(args.workload, case, run)
            if case_causes:
                failed += 1
                failed_cases[case.label] += 1
            causes.update(case_causes)
            wrong += case_wrong
            lossy += facts["lossy"]
            write_bytes += facts["bytes"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(cases)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "cases": attempted,
        "rounds": len(times) + traced_rounds,
        "causes": dict(sorted(causes.items())),
        "failed_cases": dict(sorted(failed_cases.items())),
        "wrong": wrong,
    }
    if args.trace:
        wall, tracer = fastest_traced
        metrics, problems = tracing.layer_metrics(tracer, wall)
        wrong += problems
        metrics["trace.overhead_s"] = wall - min(sum(w for w, _, _ in rnd) for rnd in times)
        metrics["cli.write_bytes"] = write_bytes
        metrics["cli.reload_lossy_records"] = lossy
        metrics["cli.replay_mismatch"] = causes["cli.replay_mismatch"]
        metrics["check.not_critical"] = causes["check.not_critical"]
        result["shares"] = tracing.layer_shares(metrics)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metric_units = {k: ("s" if k.endswith(("_s", ".s")) else "ratio" if k.endswith("_ratio") else
                            "B" if k.endswith("_bytes") else "count") for k in metrics}
    else:
        per_case = list(zip(*times))  # per case: its (wall, solve, diagnose) of every round
        tallies = [r.tally for r in first]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.median(sum(w for w, _, _ in rnd) / u for rnd, u in zip(times, unit_s)),
            "solve_ref": statistics.median(sum(s for _, s, _ in rnd) / u for rnd, u in zip(times, unit_s)),
            "wall_s": sum(statistics.median(t[0] for t in c) for c in per_case),
            "solve_s": sum(statistics.median(t[1] for t in c) for c in per_case),
            "diagnose_s": sum(statistics.median(t[2] for t in c) for c in per_case),
            "reference_unit_ms": 1e3 * statistics.median(unit_s),
            "f_calls": sum(t.f_calls for t in tallies),
            "jac_calls": sum(t.jacobians for t in tallies),
            "failed_ratio": failed / attempted,
            "pass_ratio": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        metric_units = END_TO_END_UNITS
    result.update(correct=not wrong, attempted=attempted, failed=failed, metrics=metrics, units=metric_units)
    return result
