"""Seeded inputs and the per-case pipelines of the three benchmark workloads.

A case is one ``solver.run`` plus the rest of its pipeline, composed in the
order the CLI composes it: ``paretodescent solve`` runs, diagnoses, then
writes the trajectory CSV and the report JSON; ``paretodescent sweep`` only
runs, once per sigma.  The seed is consumed here: the library receives only
the generated problems, starts and config files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from paretodescent import cli, diagnostics, solver
from paretodescent.objective import MultiObjective
from paretodescent.problems import ProblemDescriptor, get_problem, list_problems
from paretodescent.solver import RunReport, SolverConfig

BUILTIN_SIGMAS = (0.0, 0.25, 0.5, 0.9)
BUILTIN_STARTS = 20  # per (problem, sigma) pair: 5 * 4 * 20 = 400 cases

INLINE_N = 40
INLINE_PROBLEMS = 6  # m alternates 2, 3; each solved at every INLINE_SIGMAS
INLINE_SIGMAS = (0.0, 0.5)

SWEEP_SIGMAS = (0.0, 0.5, 0.9)
SWEEP_X0 = 5.0
# (kind, n, m): anisotropic curvatures in [0.5, 2], or isotropic (the
# make_quad_pair family with m seeded centres), centres in [-1, 1].
SWEEP_FAMILIES = (
    ("aniso", 2000, 5),
    ("aniso", 10_000, 10),
    ("aniso", 50, 20),
    ("iso", 50, 20),
)
SWEEP_INSTANCES = 4  # seeded instances of every family


@dataclass
class Tally:
    """Exact call counts of one case, kept by the bench-owned problem."""

    f_calls: int = 0  # calls into the F callable, finite differences included
    jacobians: int = 0  # Jacobians delivered: analytic or central differences
    jac_calls: int = 0  # calls into the analytic Jacobian callable

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.f_calls, self.jacobians, self.jac_calls)


@dataclass(frozen=True)
class CountedObjective(MultiObjective):
    """The problem as the bench hands it to the library: same F and J, with
    every call into them counted in ``tally``."""

    tally: Tally = field(default_factory=Tally, compare=False)

    def jacobian(self, x) -> np.ndarray:
        self.tally.jacobians += 1
        return super().jacobian(x)


def _counting(fn, tally: Tally, attr: str):
    def counted(x):
        setattr(tally, attr, getattr(tally, attr) + 1)
        return fn(x)

    return counted


def own(problem: MultiObjective, tally: Tally, cls=CountedObjective, **extra) -> CountedObjective:
    """Wrap ``problem`` so its F and J calls land in ``tally``."""
    jac = None if problem.jac is None else _counting(problem.jac, tally, "jac_calls")
    return cls(
        n=problem.n,
        m=problem.m,
        f=_counting(problem.f, tally, "f_calls"),
        jac=jac,
        name=problem.name,
        tally=tally,
        **extra,
    )


@dataclass(frozen=True)
class Case:
    label: str
    sigma: float
    problem: MultiObjective | None = None  # builtin and sweep cases
    x0: np.ndarray | None = None
    cfg: SolverConfig | None = None
    descriptor: ProblemDescriptor | None = None  # builtin cases
    config: Path | None = None  # inline cases: the flat config file


@dataclass
class CaseRun:
    """What one execution of a case leaves for timing and checking."""

    report: RunReport
    problem: MultiObjective  # the library's problem, without counting
    tally: Tally
    wall_s: float
    solve_s: float
    diagnose_s: float = 0.0
    summary: diagnostics.DiagnosticsSummary | None = None
    prefix: str | None = None
    reloaded: RunReport | None = None


# ---------------------------------------------------------------------------
# seeded inputs


def _jittered_grid(rng: np.random.Generator, k: int, n: int, box) -> np.ndarray:
    """k starts, each uniform in its own cell of a grid over box^n (k strata
    for n = 1, a near-square grid of k cells for n = 2).  The seed moves
    every start inside its cell, so the box is covered the same way on every
    seed and the rare slow starts come in the same number."""
    if n == 1:
        shape = (k,)
    elif n == 2:
        rows = max(r for r in range(1, int(k**0.5) + 1) if k % r == 0)
        shape = (rows, k // rows)
    else:
        raise ValueError(f"builtin starts are gridded for n <= 2, got n = {n}")
    cells = np.stack(np.unravel_index(np.arange(k), shape), axis=1)
    u = (cells + rng.random((k, n))) / np.array(shape)
    return box[0] + (box[1] - box[0]) * u


def _stratified_rows(rng: np.random.Generator, m: int, n: int, lo: float, hi: float) -> np.ndarray:
    """m rows whose n entries are each uniform in [lo, hi] and jointly cover
    its n strata, so a seed rearranges the values without changing their
    spread."""
    u = (np.stack([rng.permutation(n) for _ in range(m)]) + rng.random((m, n))) / n
    return lo + (hi - lo) * u


def builtin_cases(rng: np.random.Generator) -> list[Case]:
    cases = []
    for name in list_problems():
        desc = get_problem(name)
        for sigma in BUILTIN_SIGMAS:
            cfg = SolverConfig(sigma=sigma)
            for x0 in _jittered_grid(rng, BUILTIN_STARTS, desc.problem.n, desc.box):
                cases.append(Case(f"{name}/s{sigma:g}", sigma, desc.problem, x0, cfg, desc))
    return cases


def _inline_criterion(rng: np.random.Generator, n: int) -> str:
    """A weighted square a*(xj - c)^2 in every coordinate plus pseudo-Huber
    terms b*(1 + (xj - d)^2)^0.5 in a seeded half of them.  Every
    coordinate's curvature then lies in [1, 2.5], so the accepted dyadic
    step and the step count hardly depend on the seed, and the cost of a
    case is set by its Jacobians."""
    a = _stratified_rows(rng, 1, n, 0.5, 1.0)[0]
    b = _stratified_rows(rng, 1, n, 0.25, 0.5)[0]
    c, d = _stratified_rows(rng, 2, n, -2.0, 2.0)
    terms = [f"{a[j]:.4f}*(x{j + 1}{-c[j]:+.4f})^2" for j in range(n)]
    for j in sorted(rng.permutation(n)[: n // 2]):
        terms.append(f"{b[j]:.4f}*(1+(x{j + 1}{-d[j]:+.4f})^2)^0.5")
    return " + ".join(terms)


def inline_cases(rng: np.random.Generator, work_dir: Path) -> list[Case]:
    """Write one flat config file per (problem, sigma) case."""
    work_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for p in range(INLINE_PROBLEMS):
        m = 2 + p % 2
        lines = [f"n = {INLINE_N}"]
        lines += [f"f{i + 1} = {_inline_criterion(rng, INLINE_N)}" for i in range(m)]
        x0 = _stratified_rows(rng, 1, INLINE_N, -3.0, 3.0)[0]
        lines.append("x0 = " + ", ".join(f"{v:.17g}" for v in x0))
        for sigma in INLINE_SIGMAS:
            path = work_dir / f"inline{p}_s{sigma:g}.cfg"
            path.write_text("\n".join(lines + [f"sigma = {sigma:g}"]) + "\n")
            cases.append(Case(f"inline{p}_m{m}/s{sigma:g}", sigma, config=path))
    return cases


def _quadratic_family(rng: np.random.Generator, kind: str, n: int, m: int) -> MultiObjective:
    C = _stratified_rows(rng, m, n, -1.0, 1.0)
    if kind == "iso":

        def f(x):
            return 0.5 * np.sum((x - C) ** 2, axis=1)

        def jac(x):
            return x - C

    else:
        D = _stratified_rows(rng, m, n, 0.5, 2.0)

        def f(x):
            return 0.5 * np.sum(D * (x - C) ** 2, axis=1)

        def jac(x):
            return D * (x - C)

    return MultiObjective(n=n, m=m, f=f, jac=jac, name=f"{kind}_n{n}_m{m}")


def sweep_cases(rng: np.random.Generator) -> list[Case]:
    cases = []
    for kind, n, m in SWEEP_FAMILIES:
        for _ in range(SWEEP_INSTANCES):
            problem = _quadratic_family(rng, kind, n, m)
            x0 = np.full(n, SWEEP_X0)
            for sigma in SWEEP_SIGMAS:
                cases.append(Case(f"{problem.name}/s{sigma:g}", sigma, problem, x0, SolverConfig(sigma=sigma)))
    return cases


def make_cases(workload: str, seed: int, work_dir: Path) -> list[Case]:
    rng = np.random.default_rng(seed)
    if workload == "builtin_suite":
        return builtin_cases(rng)
    if workload == "inline_fd":
        return inline_cases(rng, work_dir)
    if workload == "wide_sweep":
        return sweep_cases(rng)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# per-case pipelines
#
# ``call(name, fn, *args)`` is how the bench calls into a layer: a plain call
# in untraced rounds, a recorded span in traced ones.  ``wrap(problem, tally)``
# builds the bench-owned problem.


def plain_call(name, fn, *args):
    return fn(*args)


def write_report_json(prefix: str, settings: cli.RunSettings, report, summary) -> None:
    """The report JSON exactly as ``paretodescent solve`` writes it."""
    doc = cli._report_document(settings, report, summary)
    Path(f"{prefix}.report.json").write_text(json.dumps(doc, indent=2) + "\n")


def _write_artifacts(call, prefix, settings, report, summary):
    problem = settings.problem
    call("write", cli.write_trajectory_csv, f"{prefix}.trajectory.csv", report, problem.n, problem.m)
    call("write", write_report_json, prefix, settings, report, summary)


def run_builtin(case: Case, prefix: str, call, wrap) -> CaseRun:
    tally = Tally()
    problem = wrap(case.problem, tally)
    settings = cli.RunSettings(problem, case.descriptor.name, case.descriptor, case.x0, case.cfg, prefix)
    t0 = perf_counter()
    report = call("run", solver.run, problem, case.x0, case.cfg)
    t1 = perf_counter()
    summary = call("diagnostics", diagnostics.run_diagnostics, problem, report, case.sigma)
    t2 = perf_counter()
    _write_artifacts(call, prefix, settings, report, summary)
    reloaded, _doc = call("load", cli.load_run, prefix)
    t3 = perf_counter()
    return CaseRun(report, case.problem, tally, t3 - t0, t1 - t0, t2 - t1, summary, prefix, reloaded)


def _inline_settings(case: Case, prefix: str, call) -> cli.RunSettings:
    """Config parsing as ``paretodescent solve --config`` does it."""
    entries = call("parse", cli.parse_config_file, case.config)
    f_keys = sorted((k for k in entries if k[0] == "f"), key=lambda k: int(k[1:]))
    n = int(entries["n"])
    problem = call("parse", cli.build_inline_problem, [entries[k] for k in f_keys], n)
    x0 = np.array([float(v) for v in entries["x0"].split(",")])
    cfg = SolverConfig(sigma=float(entries["sigma"]))
    return cli.RunSettings(problem, "inline", None, x0, cfg, prefix)


def run_inline(case: Case, prefix: str, call, wrap) -> CaseRun:
    tally = Tally()
    t0 = perf_counter()
    parsed = _inline_settings(case, prefix, call)
    problem = wrap(parsed.problem, tally)
    t1 = perf_counter()
    report = call("run", solver.run, problem, parsed.x0, parsed.cfg)
    t2 = perf_counter()
    summary = call("diagnostics", diagnostics.run_diagnostics, problem, report, parsed.cfg.sigma)
    t3 = perf_counter()
    _write_artifacts(call, prefix, parsed, report, summary)
    t4 = perf_counter()
    return CaseRun(report, parsed.problem, tally, t4 - t0, t2 - t1, t3 - t2, summary, prefix)


def run_sweep(case: Case, prefix: str, call, wrap) -> CaseRun:
    tally = Tally()
    problem = wrap(case.problem, tally)
    t0 = perf_counter()
    report = call("run", solver.run, problem, case.x0, case.cfg)
    t1 = perf_counter()
    return CaseRun(report, case.problem, tally, t1 - t0, t1 - t0)


PIPELINES = {"builtin_suite": run_builtin, "inline_fd": run_inline, "wide_sweep": run_sweep}
