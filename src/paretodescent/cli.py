"""Command-line harness: solve runs, sigma sweeps, problem verification.

Exit codes: 0 success / critical point, 1 usage or config error, 2 iteration
cap reached, 3 numerical failure, 4 a verify check failed.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .diagnostics import _json_float, run_diagnostics
from .direction import STATUS_CERTIFIED, solve_sigma_approx
from .objective import MultiObjective
from .oracle import check_gradient_characterization, check_weak_pareto_local, sample_quasiconvex
from .problems import ProblemDescriptor, UnknownProblemError, get_problem, list_problems
from .solver import (
    _TERMINATIONS,
    TERMINATION_CRITICAL,
    TERMINATION_MAX_ITER,
    IterationRecord,
    RunReport,
    SolverConfig,
    run,
)

__all__ = ["main", "ConfigError", "write_trajectory_csv", "read_trajectory_csv", "load_run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MAX_ITER = 2
EXIT_FAILURE = 3
EXIT_CHECK_FAILED = 4
_RUN_SCHEMA = "paretodescent.run/4"  # the one report schema load_run reads


class ConfigError(ValueError):
    pass


def _fmt(value: float) -> str:
    value = float(value)
    if math.isnan(value) and math.copysign(1.0, value) < 0.0:
        return "-nan"  # float("-nan") keeps the sign; the format below drops it
    return f"{value:.17g}"


# ---------------------------------------------------------------------------
# inline expression problems
#
# Grammar: + - * / ^ (right associative), unary minus, parentheses, numeric
# literals, variables x1..xn.  Each token is respelled as Python (xK as
# x[K-1], ^ as **, integer literals as floats) and the tokens are joined by
# single spaces, so that Python's parser applies the same precedence and the
# source compiles to one lambda.  Of the Python the grammar's tokens can
# spell, the grammar excludes only a call, the empty tuple and unary plus,
# and each of these shows in a token and the one before it; so the token
# loop checks that pair, and a source that passes is compiled as it stands
# but for its squares.  A square is a base B (a variable, a literal or a
# parenthesized group) to the power of a numeric literal equal to 2 that is
# not itself the base of another ^, and it compiles as ((_t := B) * _t):
# one product, which IEEE 754 rounds correctly, where pow(B, 2.0) is not
# always (x1^2 at x1 = -3.636895521234246 is 13.227009032373717, and pow
# gives 13.227009032373719).  This is the one place where a criterion's bits
# differ from pow; x1^(2), x1^-2 and x1^2^3 keep their pow.  A square nests
# its base two parentheses deeper than the text does, so Python's limit of
# 200 takes at most 66 squares nested in one another.  A square wraps only
# an operand that stands where one may start, so it neither makes a call
# (x1 x2^2) nor an empty tuple (x1 + (^2)), and the source compiles with its
# squares where it compiles without them.  Only a flagged source, or one
# that compile refuses, is parsed into a tree, from the plain tokens, and
# walked against a node whitelist, to name the column of the error.
# A criterion's value is the lambda's on np.float64 variables, with a complex
# value or a ZeroDivisionError or OverflowError (which only float literals
# raise, as in 1/0 or 10^400) read as NaN.  The inline problem first runs the
# lambda on Python floats, about three times faster, and keeps any float it
# returns: there both agree bit for bit but for a NaN's sign, while Python may
# raise or turn complex where numpy carries an infinity or NaN on to a value.
# Derivatives come from the finite-difference fallback of the objective module.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*/^()]))"
)
_EXPECTS_OPERAND = frozenset("(+-*/^")  # tokens an operand must follow

# The only expression nodes (or, for BinOp/UnaryOp, operators) the grammar
# produces; a call, a tuple or unary plus is a syntax error of the criterion.
_GRAMMAR_NODES = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.Constant, ast.Name, ast.Subscript,
)
_PREFIX = "lambda x: "


def parse_expression(text: str) -> tuple[Callable[[np.ndarray], float], int]:
    """Compile one criterion expression; returns (callable, max variable index)."""
    parts: list[str] = []  # the tokens spelled as Python
    cols: list[int] = []  # the column in text of each token
    pos = max_var = 0
    prev = "("  # the start of the text admits what an open parenthesis does
    excluded = False  # whether a token pair spells Python the grammar excludes
    # where the last operand, each open group and the base of the last ^
    # start (an index into parts), or None where a square may not wrap them
    start = base = None
    opens: list[int] = []
    squares: list[tuple[int, int]] = []  # (base, literal 2) of each square
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            bad = len(text) - len(text[pos:].lstrip())  # the first non-blank character
            if bad == len(text):
                break
            raise ConfigError(f"column {bad + 1}: unexpected character {text[bad]!r}")
        kind = m.lastgroup
        tok, col = m.group(kind), m.start(kind)
        if kind == "var":
            try:
                idx = int(tok[1:])
            except ValueError:  # past Python's limit on integer string conversion
                raise ConfigError(f"column {col + 1}: variable index too long") from None
            if idx < 1:
                raise ConfigError(f"column {col + 1}: variable indices start at x1")
            max_var = max(max_var, idx)
            tok = f"x[{idx - 1}]"
        elif kind == "num":
            if not tok.isascii():  # float() reads any Unicode digit, Python source only ASCII
                tok = "".join(c if c in ".eE+-" else str(int(c)) for c in tok)
            if tok.isdigit():  # an int literal would make 3^40 exact and 10^400 not overflow
                tok += ".0"
            if prev == "^" and base is not None and float(tok) == 2.0:
                after = _TOKEN_RE.match(text, m.end())
                if after is None or after.group("op") != "^":
                    squares.append((base, len(parts)))
        else:
            if (tok == "(" and prev not in _EXPECTS_OPERAND  # a call
                    or tok == ")" and prev == "("  # the empty tuple
                    or tok == "+" and prev in _EXPECTS_OPERAND):  # unary plus
                excluded = True
            if tok == "^":
                tok = "**"
                base = None if prev in _EXPECTS_OPERAND else start
            elif tok == "(":  # after an operand it is a call, and nothing compiles
                opens.append(len(parts))
            elif tok == ")":
                start = opens.pop() if opens else None
        if kind != "op":
            start = len(parts) if prev in _EXPECTS_OPERAND else None
        parts.append(tok)
        cols.append(col)
        prev = m.group(kind)
        pos = m.end()
    if not excluded:
        code = parts.copy()
        for b, two in squares:  # B ** 2.0 as ((_t := B) * _t)
            code[b] = "((_t := " + code[b]
            code[two - 1:two + 1] = ") *", "_t)"
        program = _PREFIX + " ".join(code)  # single spaces keep "x1 * * 2" an error
        try:
            return eval(compile(program, "<criterion>", "eval"), {"__builtins__": {}}), max_var
        except (SyntaxError, RecursionError, MemoryError):
            pass
    source = _PREFIX + " ".join(parts)
    # the error path: a tree of the source, and a column map from it to the text
    where = [0] * len(_PREFIX)  # column in text of each character of the Python source
    for tok, col in zip(parts, cols):
        where += [col] * (len(tok) + 1)
    where.append(len(text))
    try:
        tree = ast.parse(source, mode="eval")
        for node in ast.walk(tree.body.body):  # iterative: deep trees do not recurse here
            checked = getattr(node, "op", node)
            if isinstance(node, ast.expr) and not isinstance(checked, _GRAMMAR_NODES):
                raise SyntaxError("unexpected expression", ("", 1, node.col_offset + 1, source))
    except SyntaxError as exc:  # offset is 1-based; 0 or None stands for the end of text
        msg = exc.msg.partition(". ")[0]  # drop hints such as "Perhaps you forgot a comma?"
        raise ConfigError(f"column {where[(exc.offset or 0) - 1] + 1}: {msg}") from None
    except (RecursionError, MemoryError):
        pass
    # A flagged source parses to a tree that holds a call, an empty tuple or
    # unary plus, which the walk rejects, and ast.parse fails wherever compile
    # does; so only the parser's own depth or memory limit ends up here.
    raise ConfigError("column 1: expression too long for Python's parser")


def _criterion_value(fn, xs: list[float], x: np.ndarray) -> float:
    """fn at the Python floats ``xs`` if that is a float, else at the
    np.float64 entries of ``x``; NaN where that raises or is complex."""
    try:
        y = fn(xs)
        if type(y) is float:
            return y
    except (ZeroDivisionError, OverflowError):
        pass
    try:
        with np.errstate(all="ignore"):
            y = fn(x)
    except (ZeroDivisionError, OverflowError):
        return math.nan
    return math.nan if isinstance(y, complex) else float(y)


def build_inline_problem(exprs: list[str], n: int | None = None) -> MultiObjective:
    if n is not None and n < 1:
        raise ConfigError(f"n must be a positive integer, got {n}")
    fns = []
    max_var = 0
    for i, text in enumerate(exprs, start=1):
        try:
            fn, mv = parse_expression(text)
        except ConfigError as exc:
            raise ConfigError(f"f{i}: {exc}") from None
        fns.append(fn)
        max_var = max(max_var, mv)
    dim = n if n is not None else max_var
    if dim < 1:
        raise ConfigError("inline problem uses no variables; give n explicitly")
    if max_var > dim:
        raise ConfigError(f"expression references x{max_var} but n = {dim}")

    def f(x):
        xs = x.tolist()
        return np.array([_criterion_value(fn, xs, x) for fn in fns])

    return MultiObjective(n=dim, m=len(fns), f=f, jac=None, name="inline")


# ---------------------------------------------------------------------------
# config files: flat "key = value" lines, '#' comments, unknown keys rejected

# config keys that set a SolverConfig field, each read as its default's type;
# an absent key keeps its default
_CONFIG_FIELDS = {f.name: type(f.default) for f in fields(SolverConfig)}
_SCALAR_KEYS = {"problem", "x0", "output", "n", *_CONFIG_FIELDS}
_F_KEY_RE = re.compile(r"^f\d+$")


def _read_text(path: str | Path) -> str:
    """A file's UTF-8 text; an unreadable or non-UTF-8 file is a config error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None


def _write_text(path: str | Path, text: str) -> None:
    """Write a file and the directories above it; a path the file system
    refuses, as one whose name is too long, is a config error naming it."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None


def parse_config_file(path: str | Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key not in _SCALAR_KEYS and not _F_KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    m = sum(1 for key in entries if _F_KEY_RE.match(key))
    if any(f"f{i}" not in entries for i in range(1, m + 1)):
        raise ConfigError("criterion keys must be contiguous starting at f1")
    return entries


def _floats(text: str) -> list[float]:
    """Comma-separated floats; an empty part is an error, as float('') is."""
    return [float(part) for part in text.split(",")]


def _parse(text: str, what: str, conv: Callable[[str], object]):
    try:
        return conv(text)
    except ValueError:
        raise ConfigError(f"could not parse {what} from {text!r}") from None


def _check_prefix(prefix: str) -> None:
    """An output prefix must end in a file name and lie under no regular file."""
    if not prefix:  # a config line "output =" is already an error; this is --out ""
        raise ConfigError("empty output prefix")
    if os.path.basename(prefix) in ("", ".", ".."):
        raise ConfigError(f"output prefix {prefix!r} ends in no file name")
    ancestor = next(p for p in Path(prefix).parents if os.path.exists(p))
    if not os.path.isdir(ancestor):
        raise ConfigError(f"output prefix {prefix!r} lies under the file {str(ancestor)!r}")


@dataclass
class RunSettings:
    problem: MultiObjective
    problem_name: str
    descriptor: ProblemDescriptor | None
    x0: np.ndarray
    cfg: SolverConfig
    out_prefix: str


def _resolve_settings(args) -> RunSettings:
    entries = parse_config_file(args.config) if args.config else {}
    # each flag's dest is its config key, and its text is read as that key's value
    for key in ("problem", "x0", "output", *_CONFIG_FIELDS):
        value = getattr(args, key)
        if value is not None:
            entries[key] = value
    m = sum(1 for key in entries if _F_KEY_RE.match(key))
    if m and "problem" in entries:
        raise ConfigError("give either a problem name or inline criteria, not both")

    descriptor = None
    if m:
        n = _parse(entries["n"], "n", int) if "n" in entries else None
        problem = build_inline_problem([entries[f"f{i}"] for i in range(1, m + 1)], n)
        name = "inline"
    elif "problem" in entries:
        if "n" in entries:
            raise ConfigError("n applies to inline criteria only, not to a builtin problem")
        descriptor = get_problem(entries["problem"])
        problem = descriptor.problem
        name = descriptor.name
    else:
        raise ConfigError("no problem given: use --problem, or a config with a problem or f1..fm")

    if "x0" in entries:
        x0 = np.array(_parse(entries["x0"], "x0", _floats))
    elif descriptor is not None:
        x0 = descriptor.recommended_x0
    else:
        raise ConfigError("inline problems require x0")
    if x0.size != problem.n:
        raise ConfigError(f"x0 has length {x0.size}, problem expects {problem.n}")
    if not np.isfinite(x0).all():
        raise ConfigError("x0 contains non-finite entries")

    try:
        cfg = SolverConfig(**{key: _parse(entries[key], key, conv)
                              for key, conv in _CONFIG_FIELDS.items() if key in entries})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    out_prefix = entries.get("output", "run")
    _check_prefix(out_prefix)
    return RunSettings(problem, name, descriptor, x0, cfg, out_prefix)


# ---------------------------------------------------------------------------
# trajectory and report serialization

def _integer(low: int, high: float = math.inf, _digits=re.compile("-?[0-9]+")) -> Callable[[str], int]:
    """Reader of an integer column: an optional '-' and ASCII digits, from low to high."""
    def read(text: str) -> int:
        if not (_digits.fullmatch(text) and low <= int(text) <= high):
            raise ValueError(text)
        return int(text)
    return read


# the scalar columns of a trajectory row, each with the reader of its text, then x (n),
# F (m), v (n) and the dual weights w (m); k is the row's position, and t is 2**-j
_SCALAR_COLUMNS = (
    ("j", _integer(-1)), ("alpha_upper", float), ("alpha_lower", float),
    ("sigma_certified", lambda text, bit=_integer(0, 1): bit(text) == 1), ("inner_iterations", _integer(0)),
)


def _trajectory_header(n: int, m: int) -> str:
    names = [name for name, _read in _SCALAR_COLUMNS]
    names += [f"{vec}_{i + 1}" for vec, size in (("x", n), ("F", m), ("v", n), ("w", m))
              for i in range(size)]
    return ",".join(names)


def write_trajectory_csv(path: str | Path, report: RunReport, n: int, m: int) -> None:
    """One row per visited point, with every field of its record but k (the
    row's position) and t (2**-j): j is -1 on the terminal row,
    ``sigma_certified`` 1 or 0, and floats have 17 significant digits, so
    every double round-trips exactly but a NaN, which keeps only its sign.
    The direction and its dual weights come last, so a re-parsed trajectory
    replays through the diagnostics unchanged."""
    lines = [_trajectory_header(n, m)]
    for r in report.records:
        row = [_fmt(getattr(r, name)) if read is float else str(int(getattr(r, name)))
               for name, read in _SCALAR_COLUMNS]
        row += [_fmt(val) for val in (*r.x, *r.Fx, *r.v, *r.weights)]
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: str | Path) -> list[IterationRecord]:
    """Rebuild the records of a trajectory CSV, numbered by row, bit for bit
    but that a NaN reloads as the quiet NaN of its sign (inverse of the
    writer).  A file that cannot be read or is not UTF-8, a header other
    than the writer's, such as a run/3 one with k and t or one without x or
    F columns, a row with another number of fields than the header, a field
    that does not parse and a file without rows are config errors.  An
    integer field is an optional '-' and ASCII digits, with j >= -1,
    sigma_certified 0 or 1 and inner_iterations >= 0."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty trajectory file")
    header = lines[0].split(",")
    n, m = (sum(name.startswith(vec) for name in header) for vec in ("x_", "F_"))
    if n < 1 or m < 1:
        raise ConfigError(f"{path}: not a run/4 trajectory header: "
                          f"no {'x_' if n < 1 else 'F_'} columns")
    if lines[0] != _trajectory_header(n, m):
        raise ConfigError(f"{path}: not a run/4 trajectory header (j, ..., x_1..x_{n}, "
                          f"F_1..F_{m}, v_1..v_{n}, w_1..w_{m})")
    if len(lines) == 1:
        raise ConfigError(f"{path}: no rows after the header")
    readers = [read for _name, read in _SCALAR_COLUMNS] + [float] * (2 * (n + m))
    # x, F, v and w each get an array of their own: a view into one row array
    # may sit at an offset that no fresh allocation has, on which some BLAS
    # kernels round differently, and the replay would then differ from the run
    cuts = [len(_SCALAR_COLUMNS) + c for c in (0, n, n + m, 2 * n + m, 2 * (n + m))]
    spans = list(zip(cuts, cuts[1:]))
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{path}: line {lineno} has {len(parts)} fields, "
                              f"the header {len(header)}")
        fields = []
        for name, read, part in zip(header, readers, parts):
            try:
                fields.append(read(part))
            except ValueError:
                raise ConfigError(f"{path}: line {lineno}, column {name}: "
                                  f"could not parse {part!r}") from None
        scalars = dict(zip(header, fields[:len(_SCALAR_COLUMNS)]))
        x, Fx, v, w = (np.array(fields[lo:hi]) for lo, hi in spans)
        records.append(IterationRecord(k=lineno - 2, x=x, Fx=Fx, v=v, weights=w, **scalars))
    return records


def load_run(prefix: str | Path) -> tuple[RunReport, dict]:
    """Reload a solve's run/4 outputs: (report rebuilt from CSV + JSON, report JSON)."""
    name = f"{prefix}.report.json"
    try:
        doc = json.loads(_read_text(name))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}: not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{name}: the top level is not a JSON object")
    schema = doc.get("schema")
    if schema != _RUN_SCHEMA:
        raise ConfigError(f"{name}: schema {schema!r} is not {_RUN_SCHEMA!r}")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ConfigError(f"{name}: config is {config!r}, not a JSON object")
    for key, conv in _CONFIG_FIELDS.items():
        if key not in config:
            raise ConfigError(f"{name}: config has no {key!r}")
        if type(config[key]) not in (int, conv):  # an int also serves a float; a bool neither
            raise ConfigError(f"{name}: config {key!r} is {config[key]!r}, not a JSON "
                              f"{'number' if conv is float else 'integer'}")
    if doc.get("termination") not in _TERMINATIONS:
        raise ConfigError(f"{name}: termination {doc.get('termination')!r} is not one of "
                          f"{', '.join(_TERMINATIONS)}")
    try:
        cfg = SolverConfig(**{key: config[key] for key in _CONFIG_FIELDS})
    except ValueError as exc:
        raise ConfigError(f"{name}: config {exc}") from None
    records = read_trajectory_csv(f"{prefix}.trajectory.csv")
    return RunReport(records=tuple(records), termination=doc["termination"], config=cfg), doc


def _report_document(settings: RunSettings, report: RunReport, summary) -> dict:
    return {
        "schema": _RUN_SCHEMA,
        "config": {
            "problem": settings.problem_name,
            "x0": [float(val) for val in settings.x0],
            **asdict(settings.cfg),
            # the base name only, so the bytes do not depend on the directory
            "output": Path(settings.out_prefix).name,
        },
        "termination": report.termination,
        "iterations": report.iterations,
        "total_inner_iterations": report.total_inner_iterations,
        "final_x": [float(val) for val in report.final_x],
        "final_F": [_json_float(val) for val in report.records[-1].Fx],
        "final_alpha": _json_float(report.final_alpha),
        "diagnostics": summary.to_dict(),
    }


def _termination_exit(termination: str) -> int:
    if termination == TERMINATION_CRITICAL:
        return EXIT_OK
    if termination == TERMINATION_MAX_ITER:
        return EXIT_MAX_ITER
    return EXIT_FAILURE


def cmd_solve(args) -> int:
    settings = _resolve_settings(args)
    report = run(settings.problem, settings.x0, settings.cfg)
    summary = run_diagnostics(settings.problem, report, settings.cfg.sigma)
    write_trajectory_csv(
        f"{settings.out_prefix}.trajectory.csv", report, settings.problem.n, settings.problem.m
    )
    text = json.dumps(_report_document(settings, report, summary), indent=2, allow_nan=False)
    _write_text(f"{settings.out_prefix}.report.json", text + "\n")
    print(
        f"{settings.problem_name}: {report.termination} after {report.iterations} step(s), "
        f"final alpha {_fmt(report.final_alpha)} -> {settings.out_prefix}.{{trajectory.csv,report.json}}"
    )
    return _termination_exit(report.termination)


def cmd_sweep(args) -> int:
    if args.sigma is not None:
        raise ConfigError("sweep takes its sigma values from --sigmas, not --sigma")
    settings = _resolve_settings(args)
    sigmas = _parse(args.sigmas, "sigmas", _floats)
    try:
        cfgs = [replace(settings.cfg, sigma=s) for s in sigmas]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = ["sigma,iterations,total_inner_iterations,final_alpha,termination"]
    worst = EXIT_OK
    for cfg in cfgs:
        report = run(settings.problem, settings.x0, cfg)
        lines.append(f"{_fmt(cfg.sigma)},{report.iterations},{report.total_inner_iterations},"
                     f"{_fmt(report.final_alpha)},{report.termination}")
        worst = max(worst, _termination_exit(report.termination))
    _write_text(f"{settings.out_prefix}.sweep.csv", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return worst


def _verify_checks(desc: ProblemDescriptor, seed: int) -> list[dict]:
    problem = desc.problem
    rng = np.random.default_rng(seed)
    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    if desc.convexity_class == "none":
        add("convexity_class", True, "class 'none': samplers skipped")
    else:
        qc = sample_quasiconvex(problem, 1000, seed, desc.box)
        add("quasiconvex_segments", qc.ok, f"{qc.violations} violation(s) in {qc.trials} trials")
        gc = check_gradient_characterization(problem, 1000, seed + 1, desc.box)
        add("gradient_characterization", gc.ok,
            f"{gc.violations} violation(s) in {gc.checked} dominated pairs")
        if desc.convexity_class == "pseudo-convex":
            ok = True
            for _ in range(10):
                x_crit = desc.sample_critical(rng)
                ok = ok and check_weak_pareto_local(problem, x_crit, 0.5, 1000, seed + 2)
            add("critical_points_weak_pareto", ok, "sampled critical points undominated locally")

    # the run's own stop test, at its default eps_critical: a stalled result
    # is neither critical nor certified, so it fails either check
    on_ok = sum(solve_sigma_approx(problem.jacobian(desc.sample_critical(rng)), 0.0).critical
                for _ in range(50))
    add("critical_set_members", on_ok == 50, f"{on_ok}/50 sampled members report critical")
    off = [desc.sample_noncritical(rng) for _ in range(50)]
    off = [x for x in off if x is not None]
    if off:
        off_ok = sum(solve_sigma_approx(problem.jacobian(x), 0.0).status == STATUS_CERTIFIED
                     for x in off)
        add("noncritical_points", off_ok == len(off),
            f"{off_ok}/{len(off)} off-set points report non-critical")
    else:
        add("noncritical_points", True, "critical set covers the box; off-set check vacuous")
    return checks


def cmd_verify(args) -> int:
    if args.out is not None:
        _check_prefix(args.out)
    desc = get_problem(args.problem)
    checks = _verify_checks(desc, args.seed)
    all_ok = all(c["ok"] for c in checks)
    doc = {
        "schema": "paretodescent.verify/1",
        "problem": desc.name,
        "convexity_class": desc.convexity_class,
        "seed": args.seed,
        "checks": checks,
        "all_ok": all_ok,
    }
    if args.out:
        _write_text(f"{args.out}.verify.json", json.dumps(doc, indent=2) + "\n")
    for c in checks:
        print(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    print(f"{desc.name}: {'all checks passed' if all_ok else 'checks FAILED'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--problem", help=f"builtin problem name ({', '.join(list_problems())})")
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--x0", help="start point, comma separated: 'v1,v2,...'")
    sub.add_argument("--beta", help="Armijo slope fraction in (0, 1)")
    sub.add_argument("--sigma", help="direction inexactness in [0, 1)")
    sub.add_argument("--eps", dest="eps_critical", help="criticality tolerance on |alpha|")
    sub.add_argument("--max-iter", dest="max_iter", help="outer iteration cap")
    sub.add_argument("--out", dest="output", help="output path prefix")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretodescent",
        description="Multiobjective steepest descent with inexact direction certificates.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="run one descent and write trajectory + report")
    _add_common_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = subs.add_parser("sweep", help="solve once per sigma and tabulate")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--sigmas", required=True, help="comma-separated sigma values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = subs.add_parser("verify", help="validate a builtin problem's declared structure")
    p_verify.add_argument("--problem", required=True)
    p_verify.add_argument("--seed", type=_seed, default=0, help="seed for sampling checks")
    p_verify.add_argument("--out", help="output path prefix for the JSON report")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, UnknownProblemError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
