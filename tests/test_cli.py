import ast
import errno
import hashlib
import json
import math
import operator
import os
import re
import struct
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paretodescent import (
    MultiObjective,
    NonFiniteError,
    SolverConfig,
    get_problem,
    list_problems,
    run,
    run_diagnostics,
    solve_sigma_approx,
)
from paretodescent import cli
from paretodescent.cli import (
    ConfigError,
    RunSettings,
    _report_document,
    build_inline_problem,
    load_run,
    main,
    parse_config_file,
    parse_expression,
    read_trajectory_csv,
    write_trajectory_csv,
)
from paretodescent.direction import STATUS_STALLED

from kernel import PINNED_KERNEL
from oracles import finite_diff_jacobian


# an inline problem that sets every run value; CI solves it with the
# installed console script as well
INLINE_CONFIG = Path(__file__).with_name("inline.cfg")


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record_bits(r):
    """Every field of an iteration record, floats as their bytes."""
    return (r.k, r.j, r.sigma_certified, r.inner_iterations,
            *(np.asarray(a, dtype=float).tobytes() for a in (r.t, r.alpha_upper, r.alpha_lower,
                                                              r.x, r.Fx, r.v, r.weights)))


# Expression trees of the criterion grammar: ("num", literal), ("var", K),
# ("neg", t), ("par", t) for redundant parentheses, ("bin", op, l, r).
_LITERALS = ["0", "1", "2", "3", "10", "40", "400", "0.5", ".25", "7.", "1e3", "2.5e-1", "1E+2",
             "1e400", "007"]
_TREES = st.recursive(
    st.sampled_from(_LITERALS).map(lambda s: ("num", s))
    | st.integers(1, 3).map(lambda k: ("var", k)),
    lambda sub: (
        st.tuples(st.just("neg"), sub)
        | st.tuples(st.just("par"), sub)
        | st.tuples(st.just("bin"), st.sampled_from("+-*/^"), sub, sub)
    ),
    max_leaves=12,
)
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def render(tree) -> tuple[str, int]:
    """Text of a tree with only the parentheses precedence needs (plus the
    redundant "par" ones), and the precedence of its top node."""
    kind = tree[0]
    if kind == "num":
        return tree[1], 5
    if kind == "var":
        return f"x{tree[1]}", 5
    if kind == "par":
        return f"({render(tree[1])[0]})", 5
    if kind == "neg":
        text, prec = render(tree[1])
        return "-" + (text if prec >= 3 else f"({text})"), 3
    _, op, left, right = tree
    (ltext, lprec), (rtext, rprec) = render(left), render(right)
    p = _PREC[op]
    if op == "^":  # the base is an atom; the exponent may carry a unary minus
        lparen, rparen = lprec < 5, rprec < 3
    else:  # left associative
        lparen, rparen = lprec < p, rprec <= p
    ltext = f"({ltext})" if lparen else ltext
    rtext = f"({rtext})" if rparen else rtext
    return f"{ltext} {op} {rtext}", p


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow}


def reference(tree, x):
    """The value the grammar defines: Python-float literals, np.float64
    variables, operands evaluated left to right."""
    kind = tree[0]
    if kind == "num":
        return float(tree[1])
    if kind == "var":
        return x[tree[1] - 1]
    if kind == "par":
        return reference(tree[1], x)
    if kind == "neg":
        return -reference(tree[1], x)
    _, op, left, right = tree
    a = reference(left, x)
    if op == "^" and right[0] == "num" and float(right[1]) == 2.0:
        return a * a  # a square is one product
    return _OPS[op](a, reference(right, x))


def criterion_value(tree, x):
    """The grammar's value, with a complex value, a division by zero or an
    overflow read as NaN."""
    try:
        with np.errstate(all="ignore"):
            value = reference(tree, x)
    except (ZeroDivisionError, OverflowError):
        return math.nan
    return math.nan if isinstance(value, complex) else float(value)


def inline_value(tree, x):
    """The value an inline criterion takes: the grammar's on the Python
    floats of x where that is a float, else criterion_value on np.float64."""
    try:
        value = reference(tree, [float(v) for v in x])
    except (ZeroDivisionError, OverflowError):
        value = None
    return value if type(value) is float else criterion_value(tree, np.array(x))


def same_or_both_nan(y, ref) -> bool:
    """Whether two float arrays hold the same bytes, a NaN's sign aside."""
    y, ref = np.asarray(y), np.asarray(ref)
    return bool(((y.view(np.int64) == ref.view(np.int64)) | np.isnan(y) & np.isnan(ref)).all())


_EDGE_VALUES = [0.0, -0.0, 0.5, -1.5, 2.0, 3.0, 1e-300, -1e-300, 1e300, -1e300, 1e-320, -1e-320]
# (x1*x1*(-x2))^(x2 + 2^x2) at (-1e300, -0, 2) is inf*0 = NaN raised to 6:
# on Python floats the NaN comes back with the other sign bit
_NAN_SIGN_TREE = ("bin", "^", ("bin", "*", ("bin", "*", ("var", 1), ("var", 1)), ("neg", ("var", 2))),
                  ("bin", "+", ("var", 2), ("bin", "^", ("num", "2"), ("var", 2))))


def outcome(fn, *args):
    """(type, bytes) of a value, or the type of the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            value = fn(*args)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)
    return type(value), np.asarray(value).tobytes()


# The parser that checked every criterion's tree before the token check took
# its place, kept as the reference: a column map over the tokens, ast.parse,
# a node whitelist, then compile, with the squares the tree holds rewritten.
_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[-+*/^()]))"
)
_REF_NODES = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.Constant, ast.Name, ast.Subscript,
)


def checked_parse(text):
    parts = []
    where = [0] * len("lambda x: ")
    pos = max_var = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            bad = len(text) - len(text[pos:].lstrip())
            if bad == len(text):
                break
            raise ConfigError(f"column {bad + 1}: unexpected character {text[bad]!r}")
        kind = m.lastgroup
        tok, col = m.group(kind), m.start(kind)
        if kind == "var":
            idx = int(tok[1:])
            if idx < 1:
                raise ConfigError(f"column {col + 1}: variable indices start at x1")
            max_var = max(max_var, idx)
            tok = f"x[{idx - 1}]"
        elif kind == "num":
            if not tok.isascii():
                tok = "".join(c if c in ".eE+-" else str(int(c)) for c in tok)
            if tok.isdigit():
                tok += ".0"
        elif tok == "^":
            tok = "**"
        parts.append(tok)
        where += [col] * (len(tok) + 1)
        pos = m.end()
    where.append(len(text))
    source = "lambda x: " + " ".join(parts)
    try:
        tree = ast.parse(source, mode="eval")
        for node in ast.walk(tree.body.body):
            checked = getattr(node, "op", node)
            if isinstance(node, ast.expr) and not isinstance(checked, _REF_NODES):
                raise SyntaxError("unexpected expression", ("", 1, node.col_offset + 1, source))
        # each square B ** 2.0, its literal written right after the ** (x1^(2)
        # parses to the same node), is spliced into the source at the tree's
        # offsets as ((_t := B) * _t); compile(tree) would take only about a
        # thousand terms, where the source takes the parser's limit
        edits = []
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.right, ast.Constant) and node.right.value == 2.0
                    and source[node.right.col_offset - 2] == "*"):
                edits += [(node.col_offset, node.col_offset, "((_t := "),
                          (node.right.col_offset - 3, node.right.end_col_offset, ") * _t)")]
        pieces, at = [], 0
        for lo, hi, new in sorted(edits):
            pieces += [source[at:lo], new]
            at = hi
        code = compile("".join(pieces) + source[at:], "<criterion>", "eval")
    except SyntaxError as exc:
        msg = exc.msg.partition(". ")[0]
        raise ConfigError(f"column {where[(exc.offset or 0) - 1] + 1}: {msg}") from None
    except (RecursionError, MemoryError):
        raise ConfigError("column 1: expression too long for Python's parser") from None
    return eval(code, {"__builtins__": {}}), max_var


def parsed(parse, text):
    """("ok", code bits, max index) of a compiled criterion, or ("error", message)."""
    try:
        fn, max_var = parse(text)
    except ConfigError as exc:
        return "error", str(exc)
    code = fn.__code__
    # folded constants as bytes, so that a NaN (or a complex with a NaN part) equals itself
    consts = tuple(struct.pack("<d", c) if type(c) is float
                   else struct.pack("<dd", c.real, c.imag) if type(c) is complex else (type(c), c)
                   for c in code.co_consts)
    return "ok", code.co_code, consts, code.co_names, max_var


# Token soups: every token of the grammar, the lone characters that start
# none, a non-ASCII digit, and blanks ASCII or not; "" glues two tokens.
_SOUP_TOKENS = ["x0", "x1", "x10", "x", "1", "7.", ".5", "1e", "e", "2.57", "(", ")", "+", "-",
                "*", "/", "^", "**", "$", ".", "\u0661"]
_BLANKS = ["", " ", "  ", "\t", "\n", "\x0b", "\x1c", "\u00a0", "\u2003", "\u3000"]


def soups(tokens, blanks):
    return st.lists(st.tuples(st.sampled_from(blanks), st.sampled_from(tokens)),
                    max_size=12).map(lambda pairs: "".join(b + t for b, t in pairs))


_SOUPS = (soups([t for t in _SOUP_TOKENS if t.isascii()], [b for b in _BLANKS if b.isascii()])
          | soups(_SOUP_TOKENS, _BLANKS))
# Python's parsers give up about 3 * (recursion limit - frames in use) terms
# deep, and hypothesis raises the recursion limit while a test runs: the
# long sums reach past that limit
_SUM_TERMS = ["x1", "-x2", "2.5*(x1 - 1)^2", "0.3*(1+(x3-0.5)^2)^0.5", "x10/4", "((x2))"]
# On CPython 3.11.7 compile alone takes sums up to four terms longer than
# the checked parser, which gives up in ast.parse first (2989 against 2985 x1
# terms from the top of a script); only that window is excluded.
_SUM_WINDOW = 4
_TOO_LONG = ("error", "column 1: expression too long for Python's parser")


# Criteria that fail on Python floats at every point: a division by zero
# raises, a negative base to the power 0.5 is complex, and a product with
# 1e400 is infinite or NaN.
_BAD_CRITERIA = {
    "raises": lambda t: ("bin", "/", ("par", t), ("num", "0")),
    "complex": lambda t: ("bin", "^", ("par", ("bin", "-", ("neg", ("num", "1")),
                                              ("bin", "^", ("par", t), ("num", "2")))),
                          ("num", "0.5")),
    "non-finite": lambda t: ("bin", "*", ("par", t), ("num", "1e400")),
}


@st.composite
def one_bad_criterion(draw):
    """(trees, index of the bad one, x): m = 2 or 3 criteria over x1..x3."""
    m = draw(st.integers(2, 3))
    trees = draw(st.lists(_TREES, min_size=m, max_size=m))
    bad = draw(st.integers(0, m - 1))
    trees[bad] = _BAD_CRITERIA[draw(st.sampled_from(sorted(_BAD_CRITERIA)))](trees[bad])
    x = draw(st.lists(st.sampled_from(_EDGE_VALUES) | st.floats(-10.0, 10.0),
                      min_size=3, max_size=3))
    return trees, bad, x


class TestExpressionParser:
    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("2 + 3*4", [0.0], 14.0),
            ("(2 + 3)*4", [0.0], 20.0),
            ("2^3^2", [0.0], 512.0),           # right associative
            ("-x1^2", [3.0], -9.0),            # unary minus binds after power
            ("2^-2", [0.0], 0.25),
            ("x1*x2 - x2/4", [2.0, 8.0], 14.0),
            ("0.5*((x1-1)^2 + x2^2)", [3.0, 4.0], 10.0),
            ("1e-2 + 3.5e1", [0.0], 35.01),
        ],
    )
    def test_arithmetic(self, text, x, expected):
        fn, _ = parse_expression(text)
        assert fn(np.asarray(x)) == pytest.approx(expected, rel=1e-15)

    def test_reports_column_on_bad_token(self):
        with pytest.raises(ConfigError, match=r"^column 6: unexpected character '\$'"):
            parse_expression("x1 + $")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ConfigError, match="^column 1:"):  # the unclosed parenthesis
            parse_expression("(x1 + 2")

    @pytest.mark.parametrize(
        "text", ["(x1 + 2", "x1 + ", "2 (x1)", "()", "+x1", "x1 ** 2", "x1 x2", "x1)", ""]
    )
    def test_malformed_input_reports_a_column(self, text):
        with pytest.raises(ConfigError, match=r"^column \d+:"):
            parse_expression(text)

    @settings(max_examples=300)
    @given(tree=_TREES, x=st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.5, 2.0, 3.0, 1e-300, 1e300])
                                   | st.floats(-10.0, 10.0), min_size=3, max_size=3))
    def test_values_match_the_grammar_bit_for_bit(self, tree, x):
        text, _prec = render(tree)
        fn, _max_var = parse_expression(text)
        x = np.array(x)
        assert outcome(fn, x) == outcome(reference, tree, x), text

    @settings(max_examples=300)
    @given(tree=_TREES, x=st.lists(st.sampled_from(_EDGE_VALUES) | st.floats(-10.0, 10.0),
                                   min_size=3, max_size=3))
    @example(tree=_NAN_SIGN_TREE, x=[-1e300, -0.0, 2.0])
    # 1/(x1/0): Python floats raise, numpy carries the infinity on to 0
    @example(tree=("bin", "/", ("num", "1"), ("bin", "/", ("var", 1), ("num", "0"))),
             x=[1.0, 0.0, 0.0])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inline_problem_values_match_the_grammar_bit_for_bit(self, tree, x):
        text, _prec = render(tree)
        y = build_inline_problem([text], n=3).f(np.array(x))
        assert y.tobytes() == np.array([inline_value(tree, x)]).tobytes(), text
        assert same_or_both_nan(y, [criterion_value(tree, np.array(x))]), text

    @settings(max_examples=300)
    @given(tree=_TREES)
    def test_parser_compiles_the_grammar_as_the_checked_parser_does(self, tree):
        text, _prec = render(tree)
        result = parsed(parse_expression, text)
        assert result[0] == "ok" and result == parsed(checked_parse, text), text

    @settings(max_examples=1000)
    @given(text=_SOUPS)
    @example(text="2.57.x1")
    @example(text="2 (x1)")
    @example(text="() + 1")
    @example(text="x1 * +x2")
    @example(text="x1 ** 2")
    @example(text="x0 + $")
    @example(text="\u0661 + x\u0661")
    @example(text="x1 x2^2")  # a square after an operand must not make a call
    @example(text="x1 + (^2)")  # nor a ^ after an operator an empty tuple
    def test_parser_matches_the_checked_parser_on_token_soups(self, text):
        assert parsed(parse_expression, text) == parsed(checked_parse, text), repr(text)

    @settings(max_examples=40)
    @given(terms=st.lists(st.sampled_from(_SUM_TERMS), min_size=1, max_size=3),
           k=st.integers(1, 60) | st.integers(2500, 7500))
    def test_parser_matches_the_checked_parser_on_long_sums(self, terms, k):
        summands = (terms * k)[:k]
        text = " + ".join(summands)
        result, ref = parsed(parse_expression, text), parsed(checked_parse, text)
        if result != ref and ref == _TOO_LONG and result[0] == "ok":
            # the excluded window: a sum just past the checked parser's limit
            assert parsed(checked_parse, " + ".join(summands[:-_SUM_WINDOW]))[0] == "ok", k
        else:
            assert result == ref, k

    @settings(max_examples=300)
    @given(case=one_bad_criterion())
    @example(case=([("var", 3), _NAN_SIGN_TREE], 1, [-1e300, -0.0, 2.0]))
    def test_inline_problem_with_one_bad_criterion_matches_each_criterion(self, case):
        trees, bad, x = case
        x = np.array(x)
        assume(all(math.isfinite(criterion_value(t, x)) for i, t in enumerate(trees) if i != bad))
        texts = [render(t)[0] for t in trees]
        y = build_inline_problem(texts, n=3).f(x)
        each = [cli._criterion_value(parse_expression(t)[0], x.tolist(), x) for t in texts]
        assert y.tobytes() == np.array(each).tobytes(), texts
        assert y.tobytes() == np.array([inline_value(t, x) for t in trees]).tobytes(), texts
        assert same_or_both_nan(y, [criterion_value(t, x) for t in trees]), texts

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text,x1,expected", [
        ("x1/0", 1.0, math.inf),
        ("(x1*1e200)^2", 1.0, math.inf),
        ("(-1-x1^2)^0.5", 1.0, math.nan),
        ("1/(1 + 1/x1^2)", 0.0, 0.0),  # the infinity carried on to a finite value
        ("1/(1 + x1^2)", 1e155, 0.0),
        ("((-1-x1^2)^0.5)^0", 1.0, 1.0),  # NaN to the power 0
        ("1/0 + x1", 1.0, math.nan),  # a literal division raises on np.float64 too
    ])
    def test_criterion_that_fails_on_floats_takes_numpys_value_without_a_warning(
            self, text, x1, expected):
        (y,) = build_inline_problem([text]).f(np.array([x1]))
        assert same_or_both_nan(y, expected)

    def test_a_square_is_the_correctly_rounded_product(self):
        # pow(x1, 2.0) gives 13.227009032373719 here on glibc's libm
        x = np.array([-3.636895521234246, 0.0])
        fn, _ = parse_expression("x1^2")
        assert fn(x.tolist()) == fn(x) == 13.227009032373717 and type(fn(x)) is np.float64
        # 1/(1 + 1/x2) raises on Python floats at x2 = 0, and is 0 on np.float64
        fallback = build_inline_problem(["x1^2 + 1/(1 + 1/x2)"]).f(x)
        assert fallback.tobytes() == np.array([13.227009032373717]).tobytes()

    @pytest.mark.parametrize("text,product", [
        ("x1^2.0", lambda a: a * a),
        ("x1^02", lambda a: a * a),
        ("((x1-1)^2)^2", lambda a: ((a - 1) * (a - 1)) * ((a - 1) * (a - 1))),
        ("-x1^2", lambda a: -(a * a)),
        ("2^x1^2", lambda a: 2.0 ** (a * a)),
    ])
    def test_literal_squares_compile_as_products(self, text, product):
        fn, _ = parse_expression(text)
        assert "_t" in fn.__code__.co_varnames, text
        for a in (-3.636895521234246, 1.7, 2.0 ** 0.5):
            for x in ([a], np.array([a])):
                assert np.float64(fn(x)).tobytes() == np.float64(product(x[0])).tobytes(), text

    @pytest.mark.parametrize("text,power", [
        ("x1^(2)", lambda a: a ** 2.0),
        ("x1^-2", lambda a: a ** -2.0),
        ("x1^2^3", lambda a: a ** 8.0),
        ("x1^0.5", lambda a: a ** 0.5),
    ])
    def test_other_powers_keep_pow(self, text, power):
        fn, _ = parse_expression(text)
        assert "_t" not in fn.__code__.co_varnames, text
        for a in (3.636895521234246, 1.7, 2.0 ** 0.5):
            for x in ([a], np.array([a])):
                assert np.float64(fn(x)).tobytes() == np.float64(power(x[0])).tobytes(), text

    def test_an_error_after_a_square_names_the_column_of_the_text(self):
        with pytest.raises(ConfigError) as exc:
            parse_expression("x1^2 + (")
        assert str(exc.value) == "column 8: '(' was never closed"

    def test_nested_squares_reach_the_parenthesis_limit_sooner(self):
        # each square nests its base two parentheses deeper, and Python's
        # parser takes 200: 66 squares in one another compile, 67 do not
        def nested(k):
            return "(" * k + "x1" + ")^2" * k

        assert parse_expression(nested(66))[0]([1.0]) == 1.0
        with pytest.raises(ConfigError) as exc:
            parse_expression(nested(67))
        assert str(exc.value) == "column 1: expression too long for Python's parser"

    def test_compiled_criterion_sees_no_builtins(self):
        fn, _ = parse_expression("x1 + 1")
        assert fn.__globals__ == {"__builtins__": {}}

    def test_variable_indexing(self):
        fn, max_var = parse_expression("x3 + x1")
        assert max_var == 3
        assert fn(np.array([1.0, 0.0, 5.0])) == 6.0

    def test_inline_problem_dimension_inference(self):
        p = build_inline_problem(["x1^2", "x2^2 + x1"])
        assert p.n == 2 and p.m == 2
        assert p.jac is None

    def test_inline_problem_rejects_out_of_range_variables(self):
        with pytest.raises(ConfigError):
            build_inline_problem(["x3"], n=2)


class TestConfigFile:
    def test_round_trip_with_comments(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("# comment\nproblem = quad_pair\nx0 = 2, 2  # inline comment\nbeta = 0.25\n")
        entries = parse_config_file(cfg)
        assert entries == {"problem": "quad_pair", "x0": "2, 2", "beta": "0.25"}

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("problem = quad_pair\nwibble = 1\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_file(cfg)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("beta = 0.5\nbeta = 0.7\nproblem = quad_pair\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(cfg)

    def test_gapped_criterion_keys_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("f1 = x1\nf3 = x1^2\nx0 = 1\n")
        with pytest.raises(ConfigError, match="contiguous"):
            parse_config_file(cfg)

    def test_criterion_key_past_the_int_conversion_limit_rejected(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"f1 = x1\nf{'1' * 5000} = x1^2\nx0 = 1\n")
        with pytest.raises(ConfigError, match="contiguous"):
            parse_config_file(cfg)

    @pytest.mark.parametrize("lines, expected", [
        ("problem = quad_pair\n", SolverConfig()),
        ("problem = quad_pair\nsigma = 0.25\nmax_iter = 7\n", SolverConfig(sigma=0.25, max_iter=7)),
    ])
    def test_absent_keys_keep_the_solver_config_defaults(self, tmp_path, lines, expected):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(lines)
        args = cli._build_parser().parse_args(["solve", "--config", str(cfg)])
        assert repr(cli._resolve_settings(args).cfg) == repr(expected)

    def test_problem_and_inline_criteria_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("problem = quad_pair\nf1 = x1\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out" / "x")]) == 1
        assert capsys.readouterr().err == (
            "config error: give either a problem name or inline criteria, not both\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["f01", "f\u0661"])  # zero-padded; an Arabic-Indic one
    def test_criterion_keys_are_exactly_f1_to_fm(self, tmp_path, key):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"{key} = x1^2\nx0 = 1\n")
        with pytest.raises(ConfigError, match="contiguous"):
            parse_config_file(cfg)

    @pytest.mark.parametrize("command", [["solve"], ["sweep", "--sigmas", "0"]])
    @pytest.mark.parametrize("flag, value, key, expected", [
        ("--x0", "1.5,-2", "x0", [1.5, -2.0]),
        ("--beta", "0.75", "beta", 0.75),
        ("--sigma", "0.5", "sigma", 0.5),
        ("--eps", "1e-6", "eps_critical", 1e-6),
        ("--max-iter", "7", "max_iter", 7),
        ("--out", "from_flag", "output", "from_flag"),
    ])
    def test_every_flag_overrides_its_config_key(self, tmp_path, command, flag, value, key,
                                                 expected):
        in_file = {"x0": [2.0, 2.0], "beta": 0.25, "sigma": 0.25, "eps_critical": 1e-9,
                   "max_iter": 3, "output": "from_file"}
        cfg = tmp_path / "a.cfg"
        cfg.write_text("problem = quad_pair\nx0 = 2, 2\n" + "".join(
            f"{k} = {v}\n" for k, v in in_file.items() if k != "x0"))
        args = cli._build_parser().parse_args([*command, "--config", str(cfg), flag, value])
        settings = cli._resolve_settings(args)
        got = {"x0": settings.x0.tolist(), "output": settings.out_prefix,
               **{k: getattr(settings.cfg, k) for k in ("beta", "sigma", "eps_critical", "max_iter")}}
        assert got == {**in_file, key: expected}

    def test_the_run_values_are_exactly_the_solver_config_fields(self, tmp_path):
        # every value a user can set reaches SolverConfig by one name, in the
        # config file, on the command line and in report.json, and nothing else does
        names = {f.name for f in fields(SolverConfig)}
        assert names == {"beta", "sigma", "eps_critical", "max_iter"}
        choices = {"problem", "x0", "output"}
        assert cli._SCALAR_KEYS - choices - {"n"} == names
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        for command in ("solve", "sweep"):
            dests = {a.dest for a in subparsers[command]._actions if a.option_strings}
            assert dests - choices - {"help", "config", "sigmas"} == names
        assert set(cli._CONFIG_FIELDS) == names
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "r")]) == 0
        config = json.loads((tmp_path / "r.report.json").read_text())["config"]
        assert set(config) - choices == names

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_nonpositive_n_is_a_config_error(self, tmp_path, capsys, n):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"n = {n}\nf1 = x1^2\nx0 = 1\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out" / "n")]) == 1
        assert f"config error: n must be a positive integer, got {n}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["solve", "--x0", "1,,2"], "", "could not parse x0 from '1,,2'"),
        (["solve", "--x0", "1,2,"], "", "could not parse x0 from '1,2,'"),
        (["solve"], "x0 = 1,,2\n", "could not parse x0 from '1,,2'"),
        (["sweep", "--sigmas", "0,,0.5"], "", "could not parse sigmas from '0,,0.5'"),
    ])
    def test_empty_comma_part_is_a_config_error(self, tmp_path, capsys, argv, config, message):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("problem = quad_pair\n" + config)
        out = tmp_path / "out" / "x"
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, key, value", [
        ("--beta", "beta", "abc"),
        ("--sigma", "sigma", "x"),
        ("--eps", "eps_critical", "1e-8e"),
        ("--max-iter", "max_iter", "2.5"),
    ])
    def test_bad_flag_value_reads_as_the_same_config_line(self, tmp_path, capsys, flag, key, value):
        out = tmp_path / "out" / "x"
        assert main(["solve", "--problem", "quad_pair", flag, value, "--out", str(out)]) == 1
        from_flag = capsys.readouterr().err
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"problem = quad_pair\n{key} = {value}\n")
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert from_flag == capsys.readouterr().err == (
            f"config error: could not parse {key} from {value!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, config, message", [
        ([], "f1 = 2\n", "inline problem uses no variables; give n explicitly"),
        ([], "problem quad_pair\n", "line 1: expected 'key = value', got 'problem quad_pair'"),
        ([], "problem = quad_pair\noutput =\n", "line 2: empty key or value"),
        (["--problem", "quad_pair"], "f1 = x1^2\nx0 = 1\n",
         "give either a problem name or inline criteria, not both"),
        ([], None, "no problem given: use --problem, or a config with a problem or f1..fm"),
        ([], "f1 = x1^2\n", "inline problems require x0"),
        ([], "problem = quad_pair\nx0 = 1, 2, 3\n", "x0 has length 3, problem expects 2"),
    ])
    def test_each_settings_error_exits_one_with_its_line(self, tmp_path, capsys, argv, config,
                                                         message):
        if config is not None:
            (tmp_path / "a.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "a.cfg")]
        assert main(["solve", *argv, "--out", str(tmp_path / "out" / "x")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda path: None, "No such file or directory", id="missing"),
        pytest.param(lambda path: path.mkdir(), "Is a directory", id="directory"),
        pytest.param(lambda path: path.write_bytes(b"problem = quad_pair # caf\xe9\n"),
                     "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 25: "
                     "invalid continuation byte", id="latin1"),
    ])
    def test_an_unreadable_config_is_a_config_error(self, tmp_path, capsys, make, message):
        cfg = tmp_path / "a.cfg"
        make(cfg)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out" / "x")]) == 1
        assert capsys.readouterr() == ("", f"config error: {cfg}: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "quad_pair"],
        ["sweep", "--problem", "quad_pair", "--sigmas", "0"],
        ["verify", "--problem", "quad_pair"],
    ])
    def test_empty_out_is_a_config_error(self, tmp_path, monkeypatch, capsys, argv):
        # a prefix that ends in no file name is one too, whether or not its
        # directory exists, and it is rejected before any run
        for i, (out, made, message) in enumerate([
            ("", [], "empty output prefix"),
            ("sub/", [], "output prefix 'sub/' ends in no file name"),
            ("sub/", ["sub"], "output prefix 'sub/' ends in no file name"),
            ("sub/.", ["sub"], "output prefix 'sub/.' ends in no file name"),
            ("..", [], "output prefix '..' ends in no file name"),
        ]):
            cwd = tmp_path / str(i)
            for path in [cwd, *(cwd / name for name in made)]:
                path.mkdir()
            monkeypatch.chdir(cwd)
            assert main([*argv, "--out", out]) == 1
            assert capsys.readouterr() == ("", f"config error: {message}\n")
            assert sorted(p.relative_to(cwd) for p in cwd.rglob("*")) == [Path(m) for m in made]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["0", "1", "2", "3", "4"]

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "quad_pair"],
        ["sweep", "--problem", "quad_pair", "--sigmas", "0"],
        ["verify", "--problem", "quad_pair"],
    ])
    def test_prefix_under_a_regular_file_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                          argv):
        def refuse(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run", refuse)
        monkeypatch.setattr(cli, "_verify_checks", refuse)
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept")
        absolute = str(tmp_path / "afile")
        for out, ancestor in (("afile/x", "afile"), ("afile/sub/x", "afile"),
                              (f"{absolute}/x", absolute)):
            assert main([*argv, "--out", out]) == 1
            assert capsys.readouterr() == (
                "", f"config error: output prefix {out!r} lies under the file {ancestor!r}\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "afile"]
        assert Path("afile").read_text() == "kept"

    @pytest.mark.parametrize("argv, ext", [
        (["solve", "--problem", "quad_pair"], "trajectory.csv"),
        (["sweep", "--problem", "quad_pair", "--sigmas", "0"], "sweep.csv"),
        (["verify", "--problem", "quad_pair"], "verify.json"),
    ])
    def test_a_name_the_file_system_refuses_is_a_config_error(self, tmp_path, capsys, argv, ext):
        # a file name longer than the system allows, as the prefix's last
        # part or as a directory above it: the first write fails, and
        # nothing is written
        long = str(tmp_path / ("a" * 300))
        for out in (long, f"{long}/x"):
            assert main([*argv, "--out", out]) == 1
            assert capsys.readouterr() == (
                "", f"config error: {out}.{ext}: {os.strerror(errno.ENAMETOOLONG)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_n_next_to_a_builtin_problem_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("problem = quad_pair\nn = 2\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out" / "n")]) == 1
        assert "config error: n applies to inline criteria only" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSolveCommand:
    def test_gram_overflow_exits_three_and_writes_artifacts_that_reload(self, tmp_path):
        # the central-difference Jacobian is finite, its Gram matrix is not
        cfg = tmp_path / "big.cfg"
        cfg.write_text("f1 = 1e200*x1\nf2 = x2^2\nx0 = 1, 1\n")
        out = tmp_path / "big"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 3
        report, doc = load_run(out)
        assert report.termination == doc["termination"] == "numerical_failure"
        (last,) = report.records
        assert last.k == 0 and np.array_equal(last.v, [0.0, 0.0]) and last.inner_iterations == 0
        assert math.isnan(last.alpha_upper) and doc["final_alpha"] is None

    def test_writes_artifacts_and_exits_zero(self, tmp_path):
        out = tmp_path / "qp"
        code = main(["solve", "--problem", "quad_pair", "--x0", "2,2", "--out", str(out)])
        assert code == 0
        doc = json.loads((tmp_path / "qp.report.json").read_text())
        assert doc["termination"] == "critical_point"
        assert abs(doc["final_alpha"]) <= 1e-8
        assert doc["diagnostics"]["all_ok"] is True
        header = (tmp_path / "qp.trajectory.csv").read_text().splitlines()[0]
        assert header == ("j,alpha_upper,alpha_lower,sigma_certified,inner_iterations,"
                          "x_1,x_2,F_1,F_2,v_1,v_2,w_1,w_2")

    def test_immediate_critical_run_has_one_row(self, tmp_path):
        out = tmp_path / "pc"
        code = main(["solve", "--problem", "paper_cubic", "--x0", "5", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "pc.trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header + the single critical row

    def test_invalid_beta_exits_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = quad_pair\nbeta = 1.5\n")
        assert main(["solve", "--config", str(cfg)]) == 1

    def test_unknown_problem_exits_one(self):
        assert main(["solve", "--problem", "nope"]) == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--eps", "inf", "eps_critical"), ("--eps", "nan", "eps_critical"),
        ("--x0", "nan,1", "x0"), ("--x0", "1e400,1", "x0"),
    ])
    def test_nonfinite_eps_or_start_is_a_config_error(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "nf"
        assert main(["solve", "--problem", "quad_pair", flag, value, "--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_max_iter_exit_code(self, tmp_path):
        out = tmp_path / "cap"
        code = main(["solve", "--problem", "quad_pair", "--x0", "0.4,2.5",
                     "--max-iter", "2", "--out", str(out)])
        assert code == 2

    def test_inline_problem_via_config(self, tmp_path):
        cfg = tmp_path / "inl.cfg"
        cfg.write_text(
            "f1 = 0.5*(x1^2 + x2^2)\nf2 = 0.5*((x1-1)^2 + x2^2)\nx0 = 2, 2\n"
            f"output = {tmp_path / 'inl'}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "inl.report.json").read_text())
        assert doc["termination"] == "critical_point"
        assert abs(doc["final_x"][1]) <= 1e-3

    def test_numerical_failure_writes_artifacts_and_exits_three(self, tmp_path):
        # the square root has no finite central difference at 0
        cfg = tmp_path / "nf.cfg"
        cfg.write_text(f"f1 = x1^0.5\nx0 = 0\noutput = {tmp_path / 'nf'}\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        doc = json.loads((tmp_path / "nf.report.json").read_text())
        assert doc["termination"] == "numerical_failure"
        assert doc["iterations"] == 0
        report, _doc = load_run(tmp_path / "nf")
        assert report.termination == "numerical_failure"
        assert np.isnan(report.final_alpha)

    def test_overflowing_difference_point_writes_artifacts_and_exits_three(self, tmp_path):
        # F(x0) = 1, but the central difference in x1 steps past the largest double
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"f1 = x2^2\nx0 = 1.7976931348623157e308, 1\noutput = {tmp_path / 'big'}\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        report, doc = load_run(tmp_path / "big")
        assert doc["termination"] == report.termination == "numerical_failure"
        assert doc["iterations"] == 0
        assert doc["final_F"] == [1.0]

    def test_central_differences_match_the_oracle_end_to_end(self, tmp_path, monkeypatch):
        # signed zero and subnormal start coordinates; n = 3, m = 3
        text = ("f1 = 0.5*((x1-1)^2 + x2^2) + x3^4\nf2 = (x1 + x2)^2 + 0.1*x3^2\n"
                "f3 = 0.5*(x1^2 + (x2-2)^2 + (x3-1)^2)\nx0 = 2, -0, 1e-310\n")
        for name in ("fd", "ref"):
            (tmp_path / f"{name}.cfg").write_text(text + f"output = {tmp_path / name / 'run'}\n")
        assert main(["solve", "--config", str(tmp_path / "fd.cfg")]) == 0

        def with_reference_jacobian(exprs, n=None):
            free = build_inline_problem(exprs, n)
            return replace(free, jac=lambda x: finite_diff_jacobian(free, x))

        monkeypatch.setattr(cli, "build_inline_problem", with_reference_jacobian)
        assert main(["solve", "--config", str(tmp_path / "ref.cfg")]) == 0
        for suffix in ("trajectory.csv", "report.json"):
            fd, ref = (tmp_path / name / f"run.{suffix}" for name in ("fd", "ref"))
            assert fd.read_bytes() == ref.read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("criterion", ["x1^2 + (0-1)^0.5", "x1^2 + 1/0", "x1^2 + 10^400"])
    def test_complex_or_raising_criterion_is_a_numerical_failure(self, tmp_path, criterion):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"f1 = {criterion}\nx0 = 1\noutput = {tmp_path / 'c'}\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        doc = json.loads((tmp_path / "c.report.json").read_text())
        assert doc["termination"] == "numerical_failure"
        assert doc["iterations"] == 0
        assert doc["final_F"] == [None]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_start_value_writes_strict_json_and_exits_three(self, tmp_path):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(f"f1 = 1/x1\nf2 = x1^2\nx0 = 0\noutput = {tmp_path / 'inf'}\n")
        assert main(["solve", "--config", str(cfg)]) == 3
        assert (tmp_path / "inf.trajectory.csv").exists()

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((tmp_path / "inf.report.json").read_text(), parse_constant=reject)
        assert doc["termination"] == "numerical_failure"
        assert doc["iterations"] == 0
        assert doc["final_F"] == [None, 0.0]
        assert doc["final_alpha"] is None
        assert list(doc["diagnostics"]) == ["armijo", "quasi_fejer", "proximity", "all_ok"]
        assert doc["diagnostics"]["armijo"]["note"] == "vacuous: no steps"
        assert doc["diagnostics"]["all_ok"]

    def test_thousand_term_criterion_solves(self, tmp_path):
        cfg = tmp_path / "long.cfg"
        f1 = " + ".join(["0.001*(x1-1)^2"] * 1000)
        cfg.write_text(f"f1 = {f1}\nf2 = x1^2\nx0 = 3\noutput = {tmp_path / 'long'}\n")
        assert main(["solve", "--config", str(cfg)]) == 0

    def test_criterion_too_long_for_the_parser_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"f1 = {' + '.join(['x1'] * 20000)}\nx0 = 3\noutput = {tmp_path / 'h'}\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error: f1: column 1:" in capsys.readouterr().err

    def test_variable_index_past_the_int_conversion_limit_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "index.cfg"
        cfg.write_text(f"f1 = 2 * x{'1' * 5000}\nx0 = 3\noutput = {tmp_path / 'i'}\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "config error: f1: column 5: variable index too long" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["solve"], ["sweep", "--sigmas", "0"]])
    def test_seed_is_a_verify_only_flag(self, tmp_path, command):
        argv = [*command, "--problem", "quad_pair", "--seed", "1", "--out", str(tmp_path / "s")]
        assert main(argv) == 1


class TestSweepCommand:
    def test_four_sigmas_all_critical(self, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--problem", "quad_pair", "--x0", "2.5,3",
                     "--sigmas", "0,0.25,0.5,0.9", "--out", str(out)])
        assert code == 0
        lines = (tmp_path / "sw.sweep.csv").read_text().splitlines()
        assert lines[0] == "sigma,iterations,total_inner_iterations,final_alpha,termination"
        assert len(lines) == 5
        assert all(line.endswith("critical_point") for line in lines[1:])

    def test_sigma_one_is_rejected(self, tmp_path):
        code = main(["sweep", "--problem", "scalar_quad", "--sigmas", "1.0",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def test_out_of_range_sigma_is_a_config_error_before_any_run(self, tmp_path, capsys):
        code = main(["sweep", "--problem", "quad_pair", "--sigmas", "0.5,1.5",
                     "--out", str(tmp_path / "out" / "x")])
        assert code == 1
        assert "config error: sigma must lie in [0, 1), got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_sigma_flag_is_a_config_error_before_any_run(self, tmp_path, capsys):
        # sweep takes every sigma from --sigmas; a --sigma beside it was dropped
        code = main(["sweep", "--problem", "quad_pair", "--sigma", "0.3", "--sigmas", "0,0.5",
                     "--out", str(tmp_path / "out" / "sw")])
        assert code == 1
        assert capsys.readouterr() == (
            "", "config error: sweep takes its sigma values from --sigmas, not --sigma\n")
        assert not (tmp_path / "out").exists()

    def test_sigmas_override_the_config_sigma(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("problem = quad_pair\nsigma = 0.9\n")
        assert main(["sweep", "--config", str(cfg), "--sigmas", "0,0.5",
                     "--out", str(tmp_path / "from_config")]) == 0
        assert main(["sweep", "--problem", "quad_pair", "--sigmas", "0,0.5",
                     "--out", str(tmp_path / "bare")]) == 0
        table = (tmp_path / "from_config.sweep.csv").read_text()
        assert table == (tmp_path / "bare.sweep.csv").read_text()
        assert [row.split(",")[0] for row in table.splitlines()[1:]] == ["0", "0.5"]

    def test_unparsable_sigma_is_a_config_error(self, tmp_path):
        code = main(["sweep", "--problem", "quad_pair", "--sigmas", "0,abc",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def test_single_sigma_row_matches_solve(self, tmp_path):
        code = main(["sweep", "--problem", "scalar_quad", "--sigmas", "0",
                     "--out", str(tmp_path / "one")])
        assert code == 0
        code = main(["solve", "--problem", "scalar_quad", "--out", str(tmp_path / "s")])
        assert code == 0
        row = (tmp_path / "one.sweep.csv").read_text().splitlines()[1].split(",")
        doc = json.loads((tmp_path / "s.report.json").read_text())
        assert int(row[1]) == doc["iterations"]
        assert int(row[2]) == doc["total_inner_iterations"]
        assert float(row[3]) == doc["final_alpha"]
        assert row[4] == doc["termination"]


class TestVerifyCommand:
    def test_cubic_pair_passes(self, tmp_path):
        code = main(["verify", "--problem", "paper_cubic", "--seed", "42",
                     "--out", str(tmp_path / "v")])
        assert code == 0
        doc = json.loads((tmp_path / "v.verify.json").read_text())
        assert doc["all_ok"] is True

    def test_quad_pair_passes(self):
        assert main(["verify", "--problem", "quad_pair", "--seed", "7"]) == 0

    def test_untagged_class_skips_samplers_and_passes(self):
        assert main(["verify", "--problem", "nonconvex_demo", "--seed", "7"]) == 0

    @pytest.mark.parametrize("name", list_problems())
    def test_every_builtin_problem_passes(self, tmp_path, name):
        assert main(["verify", "--problem", name, "--seed", "0", "--out", str(tmp_path / "v")]) == 0
        assert json.loads((tmp_path / "v.verify.json").read_text())["all_ok"] is True

    def test_uncertified_solves_fail_both_criticality_checks(self, tmp_path, monkeypatch):
        # a stalled result is neither critical nor certified
        def uncertified(J, sigma, **kwargs):
            return replace(solve_sigma_approx(J, sigma, **kwargs), status=STATUS_STALLED)

        monkeypatch.setattr(cli, "solve_sigma_approx", uncertified)
        assert main(["verify", "--problem", "quad_pair", "--seed", "0", "--out", str(tmp_path / "v")]) == 4
        checks = json.loads((tmp_path / "v.verify.json").read_text())["checks"]
        failed = [c["name"] for c in checks if not c["ok"]]
        assert failed == ["critical_set_members", "noncritical_points"]

    def test_numerical_failure_exits_three_not_the_failed_check_code(self, tmp_path, monkeypatch):
        def overflowing(J, sigma, **kwargs):
            raise NonFiniteError("Gram matrix J J^T has non-finite entries")

        monkeypatch.setattr(cli, "solve_sigma_approx", overflowing)
        assert main(["verify", "--problem", "quad_pair", "--seed", "0", "--out", str(tmp_path / "v")]) == 3

    def test_unknown_problem_exits_one(self):
        assert main(["verify", "--problem", "nope"]) == 1

    def test_unknown_problem_reads_as_in_solve(self, capsys):
        assert main(["verify", "--problem", "nope"]) == 1
        from_verify = capsys.readouterr().err
        assert main(["solve", "--problem", "nope"]) == 1
        known = ", ".join(list_problems())
        assert from_verify == capsys.readouterr().err == (
            f"config error: unknown problem 'nope'; known: {known}\n")

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_a_usage_error(self, tmp_path, capsys, seed):
        assert main(["verify", "--problem", "quad_pair", "--seed", seed,
                     "--out", str(tmp_path / "v")]) == 1
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# three gradients in R^2 that sum to about 2e-17: under eps_critical = 1e-300
# the direction solve stalls uncertified after 4 moves at every sigma
STALLING_JACOBIAN = np.array([[0.5706560135801596, 0.0], [1.3826081419979863, 0.0],
                              [-1.9532643075147693, 0.0]])


def _forced_run(seed, shape, sigma, target, fail_at):
    """Problem, start and config that force ``target``: a seeded convex
    quadratic per criterion, started far from its critical set, or, for
    max_iter, seeded affine criteria under max_iter = fail_at, whose
    gradients all have a component of at least 0.5 along one unit vector:
    their convex hull misses the origin, so no point is critical, and every
    criterion falls linearly along a certified direction, so a full step
    passes the Armijo test.  The other failures come from STALLING_JACOBIAN
    (under eps_critical = 1e-300, so m = 3 and n = 2) or a numerically
    failing Jacobian at the fail_at-th Jacobian call only: NaN at odd
    fail_at, and at even fail_at a finite one whose Gram matrix overflows.
    A line-search failure comes from negated Jacobians, whose slopes claim a
    descent where F rises, from the fail_at-th call on: along one such
    direction the float Armijo rule may still accept a tiny step on F's
    rounding error (2**-54 at seed 588728397, shape (3, 2), sigma 0.5 and
    fail_at 3)."""
    m, n = (3, 2) if target == "subproblem_failure" else shape
    rng = np.random.default_rng(seed)
    C = rng.uniform(-2.0, 2.0, size=(m, n))
    A = rng.normal(size=(m, n, n))
    H = np.einsum("mij,mkj->mik", A, A) + np.eye(n) * rng.uniform(0.5, 2.0, size=(m, 1, n))
    x0 = rng.choice([-1.0, 1.0], size=n) * rng.uniform(10.0, 50.0, size=n)
    if target == "max_iter":
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        slopes = rng.normal(size=(m, n))
        slopes += (rng.uniform(0.5, 2.0, size=m) - slopes @ u)[:, None] * u
        affine = MultiObjective(n=n, m=m, f=lambda x: slopes @ x + C[:, 0],
                                jac=lambda x: slopes.copy())
        return affine, x0, SolverConfig(sigma=sigma, max_iter=fail_at)
    calls = [0]

    def jac(x):
        calls[0] += 1
        J = np.einsum("mij,mj->mi", H, x - C)
        if calls[0] == fail_at and target == "numerical_failure":
            return np.full((m, n), np.nan) if fail_at % 2 else J * 1e200
        if calls[0] == fail_at and target == "subproblem_failure":
            return STALLING_JACOBIAN
        if calls[0] >= fail_at and target == "linesearch_failure":
            return -J
        return J

    def f(x):
        d = x - C
        return 0.5 * np.einsum("mi,mij,mj->m", d, H, d)

    cfg = SolverConfig(sigma=sigma)
    if target == "subproblem_failure":
        cfg = replace(cfg, eps_critical=1e-300)
    return MultiObjective(n=n, m=m, f=f, jac=jac), x0, cfg


def drop_dual_weights(csv):
    """Rewrite a trajectory CSV as run/2 wrote it: without the w_ columns."""
    header, *rows = csv.read_text().splitlines()
    width = header.split(",").index("w_1")
    csv.write_text("".join(",".join(line.split(",")[:width]) + "\n" for line in (header, *rows)))


class TestRoundTripAndDeterminism:
    @pytest.mark.parametrize("name", [*list_problems(), "inline"])
    def test_csv_replay_reproduces_the_diagnostics_summary(self, tmp_path, name):
        # the diagnostics block of report.json is the summary's own dict, and
        # every key of it comes back from the reloaded records and the
        # problem's own Jacobians
        if name == "inline":
            source = ["--config", str(INLINE_CONFIG)]
            entries = parse_config_file(INLINE_CONFIG)
            problem = build_inline_problem([entries["f1"], entries["f2"]])
        else:
            source = ["--problem", name, "--eps", "1e-8"]
            problem = get_problem(name).problem
        assert main(["solve", *source, "--out", str(tmp_path / name)]) == 0
        report, doc = load_run(tmp_path / name)
        replay = run_diagnostics(problem, report, report.config.sigma)
        assert replay.to_dict() == doc["diagnostics"]

    def test_the_inline_report_config_holds_the_config_run_values(self, tmp_path):
        assert main(["solve", "--config", str(INLINE_CONFIG), "--out", str(tmp_path / "inline")]) == 0
        report, doc = load_run(tmp_path / "inline")
        values = {"beta": 0.25, "sigma": 0.5, "eps_critical": 1e-8, "max_iter": 5000}
        assert doc["config"] == {"problem": "inline", "x0": [3.0, 3.0], **values, "output": "inline"}
        assert report.config == SolverConfig(**values)

    def test_a_reloaded_stop_before_the_last_record_fails_armijo_there(self, tmp_path):
        # row 0 made a stop (j = -1) reloads as one, with t = 0, and leaves
        # no step from x^0 to x^1 for the armijo check to pass
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        csv = tmp_path / "rt.trajectory.csv"
        header, *rows = csv.read_text().splitlines()
        parts = rows[0].split(",")
        parts[header.split(",").index("j")] = "-1"
        csv.write_text("\n".join([header, ",".join(parts), *rows[1:]]) + "\n")
        report, _doc = load_run(tmp_path / "rt")
        assert (report.records[0].t, report.records[0].j) == (0.0, -1)
        armijo = run_diagnostics(get_problem("quad_pair").problem, report, 0.0).checks[0]
        assert (armijo.name, armijo.ok, armijo.worst_violation, armijo.worst_index) == (
            "armijo", False, math.inf, 0)

    def test_a_step_reloaded_as_uncertified_fails_proximity_there(self, tmp_path):
        # run never steps along an uncertified direction, so a step row whose
        # sigma_certified reads 0 cannot be the run's own
        assert main(["solve", "--problem", "quasi_exp", "--out", str(tmp_path / "qe" / "run")]) == 0
        csv = tmp_path / "qe" / "run.trajectory.csv"
        header, *rows = csv.read_text().splitlines()
        parts = rows[0].split(",")
        parts[header.split(",").index("sigma_certified")] = "0"
        csv.write_text("\n".join([header, ",".join(parts), *rows[1:]]) + "\n")
        report, _doc = load_run(tmp_path / "qe" / "run")
        assert not report.records[0].sigma_certified
        summary = run_diagnostics(get_problem("quasi_exp").problem, report, report.config.sigma)
        proximity = summary.checks[2]
        assert not summary.all_ok
        assert (proximity.name, proximity.ok, proximity.worst_violation, proximity.worst_index) == (
            "proximity", False, math.inf, 0)

    def test_a_nan_reloads_with_its_sign(self, tmp_path):
        # inf - inf is a NaN whose sign bit the hardware sets or not, and
        # its negation has the other sign: both come back bit for bit
        signs = set()
        for criterion in ("x1*1e308*10 - x1*1e308*10", "-(x1*1e308*10 - x1*1e308*10)"):
            cfg = tmp_path / "nan.cfg"
            cfg.write_text(f"f1 = {criterion}\nx0 = 1\n")
            assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "nan")]) == 3
            report, _doc = load_run(tmp_path / "nan")
            rep = run(build_inline_problem([criterion]), [1.0], SolverConfig())
            assert rep.termination == "numerical_failure" and math.isnan(rep.records[-1].Fx[0])
            assert list(map(record_bits, report.records)) == list(map(record_bits, rep.records))
            signs.add(math.copysign(1.0, rep.records[-1].Fx[0]))
        assert signs == {1.0, -1.0}

    @pytest.mark.parametrize("bits, reloaded", [("010000000000f87f", "000000000000f87f"),
                                                ("010000000000f8ff", "000000000000f8ff")])
    def test_a_nan_reloads_as_the_quiet_nan_of_its_sign(self, tmp_path, bits, reloaded):
        # a NaN's payload is the one thing the CSV does not keep
        nan = np.frombuffer(bytes.fromhex(bits), dtype=float)
        problem = MultiObjective(n=1, m=1, f=lambda x: nan.copy(), jac=lambda x: np.ones((1, 1)))
        rep = run(problem, [0.0])
        assert rep.termination == "numerical_failure" and rep.records[-1].Fx.tobytes().hex() == bits
        write_trajectory_csv(tmp_path / "nan.csv", rep, 1, 1)
        (record,) = read_trajectory_csv(tmp_path / "nan.csv")
        assert record.Fx.tobytes().hex() == reloaded

    def test_records_are_numbered_by_row(self, tmp_path):
        # k is the row's position: a dropped row renumbers the rows after it,
        # and the move across the gap fails the armijo check there
        assert main(["solve", "--problem", "quad_pair", "--x0", "0.4,2.5",
                     "--out", str(tmp_path / "rt")]) == 0
        report, _doc = load_run(tmp_path / "rt")
        assert [r.k for r in report.records] == list(range(len(report.records))) == [0, 1, 2, 3]
        csv = tmp_path / "rt.trajectory.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
        gapped, _doc = load_run(tmp_path / "rt")
        assert [r.k for r in gapped.records] == [0, 1, 2]
        assert [record_bits(r)[1:] for r in gapped.records] == [
            record_bits(r)[1:] for r in (report.records[0], *report.records[2:])]
        armijo = run_diagnostics(get_problem("quad_pair").problem, gapped, 0.0).checks[0]
        assert (armijo.ok, armijo.worst_violation, armijo.worst_index) == (False, math.inf, 0)

    def test_load_run_rejects_another_schema(self, tmp_path):
        # a run/2 CSV has no dual weights, so its steps could not be replayed
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        report = tmp_path / "rt.report.json"
        doc = json.loads(report.read_text())
        drop_dual_weights(tmp_path / "rt.trajectory.csv")
        for schema in ("paretodescent.run/2", None):
            if schema is None:
                del doc["schema"]
            else:
                doc["schema"] = schema
            report.write_text(json.dumps(doc))
            with pytest.raises(ConfigError) as exc:
                load_run(tmp_path / "rt")
            assert str(exc.value) == (f"{tmp_path / 'rt'}.report.json: schema {schema!r} "
                                      "is not 'paretodescent.run/4'")

    def test_a_run3_pair_is_a_schema_error(self, tmp_path):
        # run/3 wrote k and t = 2**-j as columns; its CSV is no run/4 trajectory
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        report, csv = tmp_path / "rt.report.json", tmp_path / "rt.trajectory.csv"
        records = read_trajectory_csv(csv)
        header, *rows = csv.read_text().splitlines()
        csv.write_text("\n".join([f"k,t,{header}"] + [f"{r.k},{cli._fmt(r.t)},{row}"
                                                      for r, row in zip(records, rows)]) + "\n")
        report.write_text(report.read_text().replace("paretodescent.run/4", "paretodescent.run/3"))
        with pytest.raises(ConfigError) as exc:
            load_run(tmp_path / "rt")
        assert str(exc.value) == (f"{report}: schema 'paretodescent.run/3' "
                                  "is not 'paretodescent.run/4'")
        with pytest.raises(ConfigError) as exc:
            read_trajectory_csv(csv)
        assert str(exc.value) == (f"{csv}: not a run/4 trajectory header "
                                  "(j, ..., x_1..x_2, F_1..F_2, v_1..v_2, w_1..w_2)")

    def test_a_run2_trajectory_is_a_config_error(self, tmp_path):
        # its records would carry no dual weights, and replaying their steps
        # would fail inside numpy instead
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        csv = tmp_path / "rt.trajectory.csv"
        drop_dual_weights(csv)
        for read in (read_trajectory_csv, lambda _csv: load_run(tmp_path / "rt")):
            with pytest.raises(ConfigError) as exc:
                read(csv)
            assert str(exc.value) == (f"{csv}: not a run/4 trajectory header "
                                      "(j, ..., x_1..x_2, F_1..F_2, v_1..v_2, w_1..w_2)")

    @pytest.mark.parametrize("dropped, missing", [
        pytest.param(("x_", "F_", "v_", "w_"), "x_", id="scalars_only"),
        pytest.param(("F_", "w_"), "F_", id="no_F_or_w"),
    ])
    def test_a_header_without_x_or_F_columns_is_a_config_error(self, tmp_path, dropped, missing):
        # the writer can write neither, since a problem has n, m >= 1; read
        # as n = 0 or m = 0, both would load records with empty vectors
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        csv = tmp_path / "rt.trajectory.csv"
        header, *rows = csv.read_text().splitlines()
        kept = [i for i, name in enumerate(header.split(",")) if not name.startswith(dropped)]
        csv.write_text("".join(",".join(line.split(",")[i] for i in kept) + "\n"
                               for line in (header, *rows)))
        for read in (read_trajectory_csv, lambda _csv: load_run(tmp_path / "rt")):
            with pytest.raises(ConfigError) as exc:
                read(csv)
            assert str(exc.value) == f"{csv}: not a run/4 trajectory header: no {missing} columns"

    def test_load_run_on_an_empty_trajectory_is_a_config_error(self, tmp_path):
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        csv = tmp_path / "rt.trajectory.csv"
        csv.write_text("")
        with pytest.raises(ConfigError) as exc:
            load_run(tmp_path / "rt")
        assert str(exc.value) == f"{csv}: empty trajectory file"

    @pytest.mark.parametrize("edit, lineno, width", [
        (lambda row: row[:-2], 2, 11),  # a short row: its two weights dropped
        (lambda row: row + ["0"], 3, 14),  # a long row
    ])
    def test_a_row_of_another_width_is_a_config_error(self, tmp_path, edit, lineno, width):
        # a short row would come back with too few weights, and replaying its
        # step would fail inside numpy instead
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        csv = tmp_path / "rt.trajectory.csv"
        lines = csv.read_text().splitlines()
        lines[lineno - 1] = ",".join(edit(lines[lineno - 1].split(",")))
        csv.write_text("\n".join(lines) + "\n")
        for read in (read_trajectory_csv, lambda _csv: load_run(tmp_path / "rt")):
            with pytest.raises(ConfigError) as exc:
                read(csv)
            assert str(exc.value) == f"{csv}: line {lineno} has {width} fields, the header 13"

    def test_a_header_without_rows_is_a_config_error(self, tmp_path):
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        csv = tmp_path / "rt.trajectory.csv"
        csv.write_text(csv.read_text().splitlines()[0] + "\n")
        for read in (read_trajectory_csv, lambda _csv: load_run(tmp_path / "rt")):
            with pytest.raises(ConfigError) as exc:
                read(csv)
            assert str(exc.value) == f"{csv}: no rows after the header"

    @pytest.mark.parametrize("column", ["j", "alpha_upper", "sigma_certified", "x_1"])
    def test_a_field_that_does_not_parse_is_a_config_error(self, tmp_path, column):
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        csv = tmp_path / "rt.trajectory.csv"
        header, *rows = csv.read_text().splitlines()
        parts = rows[1].split(",")
        parts[header.split(",").index(column)] = "abc"
        rows[1] = ",".join(parts)
        csv.write_text("\n".join([header, *rows]) + "\n")
        for read in (read_trajectory_csv, lambda _csv: load_run(tmp_path / "rt")):
            with pytest.raises(ConfigError) as exc:
                read(csv)
            assert str(exc.value) == f"{csv}: line 3, column {column}: could not parse 'abc'"

    @pytest.mark.parametrize("column, row, text", [
        ("sigma_certified", 0, "7"), ("sigma_certified", 0, "-1"), ("sigma_certified", -1, "2"),
        ("inner_iterations", 0, "-5"), ("j", -1, "-9"), ("j", 0, "-2"), ("j", 0, "1_0"),
        ("j", 0, "+1"), ("j", -1, " -1"), ("inner_iterations", 0, "１"),
    ])
    def test_an_integer_field_the_writer_cannot_write_is_a_config_error(self, tmp_path, column,
                                                                       row, text):
        # int() reads each of these; read by int() alone, the first five
        # reload and replay through the diagnostics with every check passing
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        csv = tmp_path / "rt.trajectory.csv"
        header, *rows = csv.read_text(encoding="utf-8").splitlines()
        row %= len(rows)
        parts = rows[row].split(",")
        parts[header.split(",").index(column)] = text
        rows[row] = ",".join(parts)
        csv.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        for read in (read_trajectory_csv, lambda _csv: load_run(tmp_path / "rt")):
            with pytest.raises(ConfigError) as exc:
                read(csv)
            assert str(exc.value) == (f"{csv}: line {row + 2}, column {column}: "
                                      f"could not parse {text!r}")

    def test_a_report_config_without_a_run_value_is_a_config_error(self, tmp_path):
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        report_json = tmp_path / "rt.report.json"
        written = json.loads(report_json.read_text())
        for key in ("beta", "sigma", "eps_critical", "max_iter"):
            config = {name: value for name, value in written["config"].items() if name != key}
            report_json.write_text(json.dumps({**written, "config": config}))
            with pytest.raises(ConfigError) as exc:
                load_run(tmp_path / "rt")
            assert str(exc.value) == f"{tmp_path / 'rt'}.report.json: config has no {key!r}"

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda doc: doc.pop("termination"),
                     "termination None is not one of critical_point, max_iter, "
                     "linesearch_failure, subproblem_failure, numerical_failure",
                     id="no_termination"),
        pytest.param(lambda doc: doc.update(termination="banana"),
                     "termination 'banana' is not one of critical_point, max_iter, "
                     "linesearch_failure, subproblem_failure, numerical_failure",
                     id="unknown_termination"),
        pytest.param(lambda doc: doc["config"].update(beta="abc"),
                     "config 'beta' is 'abc', not a JSON number", id="beta_a_string"),
        pytest.param(lambda doc: doc["config"].update(eps_critical=True),
                     "config 'eps_critical' is True, not a JSON number", id="eps_a_boolean"),
        pytest.param(lambda doc: doc["config"].update(max_iter=1.5),
                     "config 'max_iter' is 1.5, not a JSON integer", id="max_iter_a_float"),
        pytest.param(lambda doc: doc["config"].update(sigma=2.0),
                     "config sigma must lie in [0, 1), got 2.0", id="sigma_out_of_range"),
        pytest.param(lambda doc: json.dumps(doc).encode("utf-16"),
                     "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
                     "invalid start byte", id="utf16"),
        pytest.param(lambda doc: b'{"schema": ',
                     "not JSON: Expecting value: line 1 column 12 (char 11)", id="truncated"),
        pytest.param(lambda doc: json.dumps([doc]).encode(),
                     "the top level is not a JSON object", id="top_level_a_list"),
        pytest.param(lambda doc: doc.update(config=None),
                     "config is None, not a JSON object", id="config_null"),
        pytest.param(lambda doc: doc.update(config=list(doc["config"])),
                     "config is ['problem', 'x0', 'beta', 'sigma', 'eps_critical', 'max_iter', "
                     "'output'], not a JSON object", id="config_a_list"),
    ])
    def test_a_malformed_report_is_a_config_error(self, tmp_path, edit, message):
        # an edit changes the document in place, or returns the bytes to write
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        report_json = tmp_path / "rt.report.json"
        doc = json.loads(report_json.read_text())
        written = edit(doc)
        report_json.write_bytes(written if isinstance(written, bytes) else json.dumps(doc).encode())
        with pytest.raises(ConfigError) as exc:
            load_run(tmp_path / "rt")
        assert str(exc.value) == f"{report_json}: {message}"

    @pytest.mark.parametrize("suffix, make, message", [
        pytest.param("trajectory.csv", lambda path: path.write_bytes(b"k\xe9" + path.read_bytes()[1:]),
                     "not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 1: "
                     "invalid continuation byte", id="latin1_trajectory"),
        pytest.param("trajectory.csv", lambda path: path.unlink(), "No such file or directory",
                     id="missing_trajectory"),
        pytest.param("report.json", lambda path: path.unlink(), "No such file or directory",
                     id="missing_report"),
        pytest.param("trajectory.csv", lambda path: path.unlink() or path.mkdir(), "Is a directory",
                     id="trajectory_a_directory"),
    ])
    def test_an_unreadable_output_file_is_a_config_error(self, tmp_path, suffix, make, message):
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        path = tmp_path / f"rt.{suffix}"
        make(path)
        with pytest.raises(ConfigError) as exc:
            load_run(tmp_path / "rt")
        assert str(exc.value) == f"{path}: {message}"

    def test_an_integer_for_a_float_run_value_loads(self, tmp_path):
        assert main(["solve", "--problem", "quad_pair", "--out", str(tmp_path / "rt")]) == 0
        report_json = tmp_path / "rt.report.json"
        doc = json.loads(report_json.read_text())
        doc["config"]["sigma"] = 0
        report_json.write_text(json.dumps(doc))
        report, _doc = load_run(tmp_path / "rt")
        assert report.config == SolverConfig()

    def test_load_run_reads_a_config_with_the_removed_caps(self, tmp_path):
        # a config that still carries the max_j and max_inner keys of earlier
        # versions loads, and both keys are ignored
        out = tmp_path / "rt"
        assert main(["solve", "--problem", "quasi_exp", "--out", str(out)]) == 0
        report_json = tmp_path / "rt.report.json"
        doc = json.loads(report_json.read_text())
        assert list(doc["config"]) == ["problem", "x0", "beta", "sigma", "eps_critical",
                                       "max_iter", "output"]
        config = doc["config"]
        doc["config"] = {**{k: v for k, v in config.items() if k != "output"},
                         "max_j": 60, "max_inner": 10_000, "output": config["output"]}
        report_json.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
        report, reread = load_run(out)
        rep = run(get_problem("quasi_exp").problem,
                  get_problem("quasi_exp").recommended_x0, SolverConfig())
        assert reread == doc and report.config == SolverConfig()
        assert report.termination == rep.termination
        assert list(map(record_bits, report.records)) == list(map(record_bits, rep.records))

    def test_load_run_round_trips_records_exactly(self, tmp_path):
        out = tmp_path / "rt"
        assert main(["solve", "--problem", "quasi_exp", "--out", str(out)]) == 0
        report, doc = load_run(out)
        rep = run(get_problem("quasi_exp").problem,
                  get_problem("quasi_exp").recommended_x0, SolverConfig())
        assert doc["schema"] == "paretodescent.run/4"
        assert report.config == rep.config
        assert list(map(record_bits, report.records)) == list(map(record_bits, rep.records))
        # an uncertified direction and its inner iterations come back as well
        J = STALLING_JACOBIAN
        linear = MultiObjective(n=2, m=3, f=lambda x: J @ x, jac=lambda x: J)
        rep = run(linear, [0.0, 0.0], SolverConfig(eps_critical=1e-300))
        assert rep.termination == "subproblem_failure" and rep.iterations == 0
        write_trajectory_csv(tmp_path / "sf.trajectory.csv", rep, 2, 3)
        records = read_trajectory_csv(tmp_path / "sf.trajectory.csv")
        assert [record_bits(r) for r in records] == [record_bits(r) for r in rep.records]
        assert records[-1].k == 0
        assert not records[-1].sigma_certified
        # 4 moves on the pinned kernel, 3 on others; any solve ends within m * 2^m
        assert (records[-1].inner_iterations == 4 if PINNED_KERNEL
                else records[-1].inner_iterations <= 3 * 2**3)

    def test_every_reloaded_vector_owns_its_data(self, tmp_path):
        # a view into one row array may sit at an offset that no fresh
        # allocation has, and OpenBLAS's Prescott kernel rounds the
        # diagnostics' products differently there than on the run's arrays
        desc = get_problem("quasi_exp")
        rep = run(desc.problem, desc.recommended_x0, SolverConfig())
        write_trajectory_csv(tmp_path / "r.trajectory.csv", rep, desc.problem.n, desc.problem.m)
        records = read_trajectory_csv(tmp_path / "r.trajectory.csv")
        assert len(records) == len(rep.records) > 1
        assert all(a.flags.owndata for r in records for a in (r.x, r.Fx, r.v, r.weights))

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),
        sigma=st.floats(0.0, 0.99),
        target=st.sampled_from(["critical_point", "max_iter", "subproblem_failure",
                                "numerical_failure", "linesearch_failure"]),
        fail_at=st.integers(1, 3),
    )
    @example(seed=0, shape=(2, 2), sigma=0.0, target="numerical_failure", fail_at=1)
    @example(seed=0, shape=(2, 2), sigma=0.0, target="numerical_failure", fail_at=2)
    @example(seed=0, shape=(3, 2), sigma=0.0, target="subproblem_failure", fail_at=1)
    @example(seed=0, shape=(1, 1), sigma=0.5, target="subproblem_failure", fail_at=1)
    @example(seed=0, shape=(2, 3), sigma=0.0, target="linesearch_failure", fail_at=1)
    @example(seed=588728397, shape=(3, 2), sigma=0.5, target="linesearch_failure", fail_at=3)
    @example(seed=4276477452, shape=(1, 1), sigma=0.0, target="max_iter", fail_at=2)
    def test_load_run_round_trips_every_termination_bit_for_bit(self, seed, shape, sigma, target,
                                                                fail_at):
        problem, x0, cfg = _forced_run(seed, shape, sigma, target, fail_at)
        rep = run(problem, x0, cfg)
        assert rep.termination == target
        if target == "numerical_failure":
            assert math.isnan(rep.final_alpha) and math.isnan(rep.records[-1].alpha_lower)
        with tempfile.TemporaryDirectory() as d:
            prefix = Path(d) / "r"
            write_trajectory_csv(f"{prefix}.trajectory.csv", rep, problem.n, problem.m)
            run_settings = RunSettings(problem, "forced", None, x0, cfg, str(prefix))
            doc = _report_document(run_settings, rep, run_diagnostics(problem, rep, cfg.sigma))
            Path(f"{prefix}.report.json").write_text(json.dumps(doc, indent=2, allow_nan=False))
            report, _doc = load_run(prefix)
        assert (report.termination, report.config) == (rep.termination, rep.config)
        assert list(map(record_bits, report.records)) == list(map(record_bits, rep.records))

    def test_report_bytes_do_not_depend_on_the_output_directory(self, tmp_path):
        shallow, deep = tmp_path / "a", tmp_path / "b" / "much" / "deeper" / "dir"
        for d in (shallow, deep):
            assert main(["solve", "--problem", "quad_pair", "--out", str(d / "r")]) == 0
        for ext in ("report.json", "trajectory.csv"):
            assert (shallow / f"r.{ext}").read_bytes() == (deep / f"r.{ext}").read_bytes()
        assert json.loads((deep / "r.report.json").read_text())["config"]["output"] == "r"

    def test_identical_invocations_produce_identical_bytes(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        for d in (d1, d2):
            code = main(["solve", "--problem", "quasi_exp", "--out", str(d / "r")])
            assert code == 0
        assert file_hash(d1 / "r.trajectory.csv") == file_hash(d2 / "r.trajectory.csv")
        r1 = (d1 / "r.report.json").read_text().replace(str(d1), "OUT")
        r2 = (d2 / "r.report.json").read_text().replace(str(d2), "OUT")
        assert r1 == r2
