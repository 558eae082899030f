import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase.exprparse import (
    BinOp,
    Call,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    _Parser,
    eval_at,
    parse,
    pretty,
    sample,
)
from doublephase.mesh import build_grid


def test_literal():
    assert parse("2") == Num(2.0)
    assert parse("  3.5e2 ") == Num(350.0)


def test_precedence_and_eval():
    e = parse("1.5 + 0.5*sin(pi*x)")
    assert eval_at(e, (0.5,)) == pytest.approx(2.0)
    assert eval_at(parse("x^2"), (3.0,)) == 9.0
    assert eval_at(parse("2*3 + 4"), (0.0,)) == 10.0
    assert eval_at(parse("2 + 3*4"), (0.0,)) == 14.0
    assert eval_at(parse("2^3^2"), (0.0,)) == 512.0  # right-associative
    assert eval_at(parse("-2^2"), (0.0,)) == -4.0  # ^ binds tighter than unary -
    assert eval_at(parse("2^-1"), (0.0,)) == 0.5
    assert eval_at(parse("(1+2)*3"), (0.0,)) == 9.0
    assert eval_at(parse("min(2, max(5, 1))"), (0.0,)) == 2.0
    assert eval_at(parse("e"), (0.0,)) == math.e


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function 'foo'"):
        parse("foo(x)")


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'q0'"):
        parse("max(2, q0)")


def test_arity_mismatch():
    with pytest.raises(ParseError, match="takes 1 argument"):
        parse("sin(x, y)")
    with pytest.raises(ParseError, match="takes 2 argument"):
        parse("max(x)")


def test_trailing_garbage():
    with pytest.raises(ParseError, match="trailing input"):
        parse("1 + 2 )")


def test_offsets():
    try:
        parse("1 + foo(x)")
    except ParseError as err:
        assert err.offset == 4
    else:
        raise AssertionError("expected ParseError")


def test_domain_errors_carry_point():
    with pytest.raises(EvalError) as err:
        eval_at(parse("1/x"), (0.0,))
    assert err.value.point == (0.0,)
    with pytest.raises(EvalError):
        eval_at(parse("log(x)"), (-1.0,))
    with pytest.raises(EvalError):
        eval_at(parse("sqrt(x)"), (-4.0,))
    with pytest.raises(EvalError):
        eval_at(parse("(-2)^0.5"), (0.0,))


def test_y_requires_2d_point():
    with pytest.raises(EvalError, match="variable 'y'"):
        eval_at(parse("y"), (1.0,))
    assert eval_at(parse("x + y"), (1.0, 2.0)) == 3.0


def test_sample_nodes_and_cells():
    g = build_grid(1, [(0, 1)], [2])
    assert np.allclose(sample(parse("0"), g, "nodes"), 0.0)
    assert np.allclose(sample(parse("x"), g, "nodes"), [0.0, 0.5, 1.0])
    assert np.allclose(sample(parse("x"), g, "cells"), [0.25, 0.75])
    g2 = build_grid(2, [(0, 1), (0, 1)], [2, 2])
    s = sample(parse("x + 10*y"), g2, "cells")
    assert np.allclose(s, [0.25 + 2.5, 0.25 + 7.5, 0.75 + 2.5, 0.75 + 7.5])


CORPUS = [
    "2",
    "1.5 + 0.5*sin(pi*x)",
    "x^2",
    "-x^2",
    "(x + y)^2",
    "2^3^2",
    "a - b" .replace("a", "x").replace("b", "y"),
    "x - (y - 1)",
    "x/(y*2)",
    "min(2, max(x, 1.1))",
    "abs(x - 0.5) + sqrt(y)",
    "exp(-x) * log(x + 2)",
    "-(x + y)",
    "1 - 2 - 3",
    "2^-1",
]


@pytest.mark.parametrize("src", CORPUS)
def test_pretty_roundtrip_corpus(src):
    ast = parse(src)
    assert parse(pretty(ast)) == ast


class _TwoMethodParser(_Parser):
    """The former parser, whose method structure fixed the binding of + - and * /."""

    def parse_expr(self):
        node = self.parse_term()
        while self.peek() in {"+", "-"}:
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek() in {"*", "/"}:
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.parse_factor())
        return node


def _two_method_parse(src):
    p = _TwoMethodParser(src)
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(src):
        raise ParseError("trailing input", p.pos)
    return node


def _outcome(parser, src):
    """The AST, or the message and offset of the ParseError."""
    try:
        return parser(src)
    except ParseError as err:
        return err.message, err.offset


MALFORMED = ["1 + 2 )", "1 +", "* 2", "2 ^", "x - - ", "(1 + 2", "1 + foo(x)",
             "max(1, 2", "sin(x, y)", "1 2", "2 / * 3", "q0 - 1", "-", ""]


@pytest.mark.parametrize("src", CORPUS + MALFORMED)
def test_precedence_table_parses_like_the_two_method_parser(src):
    assert _outcome(parse, src) == _outcome(_two_method_parse, src)


def asts(numbers):
    """Parser-shaped ASTs: literals are nonnegative (a minus sign is a Neg)."""
    leaves = st.one_of(numbers.map(Num), st.sampled_from([Var("x"), Var("y")]))

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
            st.builds(lambda f, a: Call(f, (a,)),
                      st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), children),
            st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]),
                      children, children),
        )

    return st.recursive(leaves, extend, max_leaves=16)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(asts(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)))
def test_pretty_roundtrip_random(ast):
    assert parse(pretty(ast)) == ast


class OracleError(Exception):
    pass


def oracle(e, point):
    """Scalar reference semantics with math: IEEE arithmetic on floats, an
    error for each domain violation, and a non-finite result is an error."""
    value = _scalar(e, point)
    if not math.isfinite(value):
        raise OracleError(f"non-finite value {value}")
    return value


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _scalar(e, point):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        idx = "xy".index(e.name)
        if idx >= len(point):
            raise OracleError("undefined variable")
        return point[idx]
    if isinstance(e, Neg):
        return -_scalar(e.operand, point)
    if isinstance(e, BinOp):
        a, b = _scalar(e.left, point), _scalar(e.right, point)
        if e.op == "/" and b == 0.0:
            raise OracleError("division by zero")
        if e.op == "^":
            try:
                return math.pow(a, b)  # raises only for finite operands
            except (ValueError, OverflowError) as exc:
                raise OracleError("invalid power") from exc
        return _ARITHMETIC[e.op](a, b)
    a = _scalar(e.args[0], point)
    if e.func in ("min", "max"):
        b = _scalar(e.args[1], point)
        if math.isnan(a) or math.isnan(b):
            return math.nan
        return min(a, b) if e.func == "min" else max(a, b)
    if e.func in ("sin", "cos"):
        return getattr(math, e.func)(a) if math.isfinite(a) else math.nan
    if e.func == "exp":
        try:
            return math.exp(a)
        except OverflowError as exc:
            raise OracleError("exp overflow") from exc
    if (e.func == "log" and a <= 0.0) or (e.func == "sqrt" and a < 0.0):
        raise OracleError(f"{e.func} domain")
    return abs(a) if e.func == "abs" else getattr(math, e.func)(a)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(asts(st.floats(min_value=0.0, max_value=4.0) | st.just(1e200)))
def test_sample_matches_scalar_oracle(ast):
    grid = build_grid(2, [(-1, 1), (0, 2)], [4, 2])
    try:
        want = np.array([oracle(ast, tuple(pt)) for pt in grid.node_coords().tolist()])
    except OracleError:
        with pytest.raises(EvalError):
            sample(ast, grid, "nodes")
        return
    got = sample(ast, grid, "nodes")
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


def test_eval_deterministic():
    e = parse("sin(x)*exp(y) + x^y")
    a = eval_at(e, (0.3, 0.7))
    b = eval_at(e, (0.3, 0.7))
    assert a == b
