"""Spans around the calls into each layer, recorded from the bench's side.

A traced round installs wrappers where the library looks its collaborators
up by name (``solver`` imports ``solve_sigma_approx`` and ``armijo_step``,
``diagnostics`` imports ``solve_exact``, ``objective.jacobian`` imports
``oracle.finite_diff_jacobian`` on every call), hands the library a problem
whose ``evaluate`` and ``jacobian`` are spanned, and spans its own calls to
``run``, ``run_diagnostics``, the artifact writers, ``load_run`` and the
config parsers.  The library itself is not modified.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

from paretodescent import diagnostics, oracle, solver

from workloads import CountedObjective

# counts taken from what each wrapped call returns
_INFO = {
    "run": lambda r: (r.termination, r.iterations),
    "direction": lambda r: (r.inner_iterations, r.sigma_certified),
    "resolve": lambda r: (r.inner_iterations, r.sigma_certified),
    "linesearch": lambda st: st.j,
    "diagnostics": lambda s: tuple(k for k, v in s.to_dict().items() if isinstance(v, dict) and not v["ok"]),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    case: int
    info: object  # counts from the result, the exception name, or None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.overhead: defaultdict[int, float] = defaultdict(float)  # bench time inside a span
        self.case = -1
        self._stack: list[int] = []
        self._seen: set[bytes] = set()
        self._last = -1

    def start_case(self, index: int) -> None:
        self.case = index
        self._seen.clear()

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.spans[idx] = Span(name, start, perf_counter(), parent, self.case, type(exc).__name__)
            raise
        finally:
            self._stack.pop()
        end = perf_counter()
        extract = _INFO.get(name)
        self.spans[idx] = Span(name, start, end, parent, self.case, extract(result) if extract else None)
        self._last = idx
        return result

    def mark_repeat(self, x) -> None:
        """Flag the evaluate span just closed if its point was already
        evaluated, bit for bit, in this case.  The time this takes is charged
        to the bench, not to the enclosing layer."""
        t = perf_counter()
        key = np.asarray(x, dtype=float).tobytes()
        span = self.spans[self._last]
        self.spans[self._last] = span._replace(info=key in self._seen)
        self._seen.add(key)
        if self._stack:
            self.overhead[self._stack[-1]] += perf_counter() - t

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}, default=str) + "\n")


@dataclass(frozen=True)
class TracedObjective(CountedObjective):
    tracer: Tracer | None = field(default=None, compare=False)

    def evaluate(self, x, *, require_finite: bool = True) -> np.ndarray:
        y = self.tracer.call("evaluate", super().evaluate, x, require_finite=require_finite)
        self.tracer.mark_repeat(x)
        return y

    def jacobian(self, x) -> np.ndarray:
        return self.tracer.call("jacobian", super().jacobian, x)


# (module, attribute the library looks up, span name)
_PATCH_POINTS = (
    (solver, "solve_sigma_approx", "direction"),
    (solver, "armijo_step", "linesearch"),
    (diagnostics, "solve_exact", "resolve"),
    (oracle, "finite_diff_jacobian", "fd_jacobian"),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _PATCH_POINTS]
    try:
        for (mod, attr, name), (_, _, orig) in zip(_PATCH_POINTS, saved):
            setattr(mod, attr, _spanned(tracer, name, orig))
        yield
    finally:
        for mod, attr, orig in saved:
            setattr(mod, attr, orig)


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer counts and self times of one traced round.

    A span's self time is its duration minus its children's durations and
    minus bench bookkeeping done inside it; ``bench.self_s`` is the rest of
    the round, so the self times of all layers plus ``bench.self_s`` add up
    to ``wall_s``.  Also returns the consistency problems found.
    """
    spans = tracer.spans
    child_s = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.end - s.start
    self_s = [s.end - s.start - child_s[i] - tracer.overhead[i] for i, s in enumerate(spans)]
    # context: the nearest enclosing run or diagnostics span
    context = []
    for s in spans:
        context.append(s.name if s.name in ("run", "diagnostics") else (context[s.parent] if s.parent >= 0 else None))
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    child_evals = Counter(s.parent for s in spans if s.name == "evaluate")

    def total(name):
        return sum(self_s[i] for i in by_name[name])

    runs = [spans[i].info for i in by_name["run"]]
    terms = Counter(t for t, _ in runs)
    dirs = [spans[i].info for i in by_name["direction"]]
    resolves = [spans[i].info for i in by_name["resolve"]]
    ls = by_name["linesearch"]
    ls_failures = [i for i in ls if isinstance(spans[i].info, str)]
    accepted = [spans[i].info for i in ls if not isinstance(spans[i].info, str)]
    trials = sum(j + 1 for j in accepted) + sum(child_evals[i] for i in ls_failures)
    evals = by_name["evaluate"]
    repeats = sum(1 for i in evals if spans[i].info is True)
    fails = Counter(name for i in by_name["diagnostics"] for name in spans[i].info)
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    m = {
        "solver.runs": len(runs),
        "solver.steps": sum(k for _, k in runs),
        "solver.self_s": total("run"),
    }
    for term in (solver.TERMINATION_CRITICAL, solver.TERMINATION_MAX_ITER,
                 solver.TERMINATION_LINESEARCH, solver.TERMINATION_SUBPROBLEM):
        m[f"solver.term.{term}"] = terms[term]
    uncertified = sum(1 for _, ok in dirs if not ok)
    m.update({
        "direction.calls": len(dirs),
        "direction.inner_iters": sum(k for k, _ in dirs),
        "direction.s": total("direction"),
        "direction.uncertified": uncertified,
        "direction.certified_ratio": (len(dirs) - uncertified) / len(dirs) if dirs else 1.0,
        "linesearch.calls": len(ls),
        "linesearch.trials": trials,
        "linesearch.self_s": total("linesearch"),
        "linesearch.accept_ratio": len(accepted) / trials if trials else 1.0,
        "linesearch.failures": len(ls_failures),
        "objective.evaluate_calls": len(evals),
        "objective.evaluate_s": total("evaluate"),
        "objective.jacobian_calls": len(by_name["jacobian"]),
        "objective.jacobian_s": total("jacobian") + total("fd_jacobian"),
        "objective.fd_jacobians": len(by_name["fd_jacobian"]),
        "objective.fd_f_calls": sum(child_evals[i] for i in by_name["fd_jacobian"]),
        "objective.repeat_evals": repeats,
        "objective.useful_eval_ratio": (len(evals) - repeats) / len(evals) if evals else 1.0,
        "diagnostics.self_s": total("diagnostics"),
        "diagnostics.resolve_calls": len(resolves),
        "diagnostics.resolve_inner_iters": sum(k for k, _ in resolves),
        "diagnostics.resolve_s": total("resolve"),
        "diagnostics.resolve_uncertified": sum(1 for _, ok in resolves if not ok),
        "diagnostics.jacobian_calls": sum(1 for i in by_name["jacobian"] if context[i] == "diagnostics"),
    })
    for check in ("monotone", "level_set", "summability", "quasi_fejer", "proximity"):
        m[f"diagnostics.fail.{check}"] = fails[check]
    m.update({
        "cli.parse_s": total("parse"),
        "cli.write_s": total("write"),
        "cli.load_s": total("load"),
        "bench.self_s": wall_s - roots + sum(tracer.overhead.values()),
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    })
    problems = []
    # trials counted from the accepted j must be the evaluations observed
    off = sum(1 for i in ls if not isinstance(spans[i].info, str) and child_evals[i] != spans[i].info + 1)
    if off:
        problems.append(f"{off} line search(es) whose j + 1 differs from the evaluations they made")
    covered = sum(m[k] for _, keys in LAYER_SELF_TIMES for k in keys)
    if abs(covered - wall_s) > 1e-9 * max(1.0, wall_s):
        problems.append(f"layer self times sum to {covered!r}, traced wall is {wall_s!r}")
    return m, problems


LAYER_SELF_TIMES = (
    ("solver", ("solver.self_s",)),
    ("direction", ("direction.s",)),
    ("linesearch", ("linesearch.self_s",)),
    ("objective", ("objective.evaluate_s", "objective.jacobian_s")),
    ("diagnostics", ("diagnostics.self_s", "diagnostics.resolve_s")),
    ("cli", ("cli.parse_s", "cli.write_s", "cli.load_s")),
    ("bench", ("bench.self_s",)),
)


def layer_shares(m: dict[str, float]) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall time."""
    return {layer: sum(m[k] for k in keys) / m["trace.wall_s"] for layer, keys in LAYER_SELF_TIMES}
