"""A small expression language for exponents, weights, sources, and boundary data.

Grammar (highest binding last):
    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := number | name | name '(' expr (',' expr)* ')' | '(' expr ')'

Names: variables ``x`` and ``y``, constants ``pi`` and ``e``, and the calls
sin, cos, exp, log, sqrt, abs (one argument), min, max (two arguments).

Evaluation runs each operation as one numpy ufunc over all sample points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

# each call's ufunc; its arity is the ufunc's input count
_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}
_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_VARIABLES = ("x", "y")

# binding strength of each left-associative binary operator; ``^`` binds
# tighter than unary minus and is parsed on its own
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class ParseError(Exception):
    """Raised when expression text cannot be parsed; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class EvalError(Exception):
    """Raised when evaluation hits a domain error; carries the offending point."""

    def __init__(self, message: str, point: tuple[float, ...]):
        super().__init__(f"{message} at point {point}")
        self.message = message
        self.point = point


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Left-associative chain of factors over the operators binding at least ``min_prec``.

        ``^`` is not in the table: it is ``parse_power``'s.
        """
        node = self.parse_factor()
        while min_prec <= (prec := _PRECEDENCE.get(self.peek(), 0)):
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.parse_expr(prec + 1))
        return node

    def parse_factor(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return BinOp("^", base, self.parse_factor())
        return base

    def parse_atom(self) -> Expr:
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            return node
        m = _NUMBER.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group()))
        m = _NAME.match(self.src, self.pos)
        if m:
            name = m.group()
            self.pos = m.end()
            if self.peek() == "(":
                if name not in _FUNCTIONS:
                    raise ParseError(f"unknown function '{name}'", start)
                self.pos += 1
                args = [self.parse_expr()]
                while self.peek() == ",":
                    self.pos += 1
                    args.append(self.parse_expr())
                self.expect(")")
                arity = _FUNCTIONS[name].nin
                if len(args) != arity:
                    raise ParseError(
                        f"'{name}' takes {arity} argument(s), got {len(args)}", start
                    )
                return Call(name, tuple(args))
            if name in _VARIABLES:
                return Var(name)
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            raise ParseError(f"unknown identifier '{name}'", start)
        raise ParseError("expected a number, name, or '('", self.pos)


def parse(src: str) -> Expr:
    """Parse expression text, requiring the whole input to be consumed."""
    p = _Parser(src)
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(src):
        raise ParseError("trailing input", p.pos)
    return node


def _check(bad: np.ndarray, coords: np.ndarray, template: str, *operands):
    """Raise EvalError at the first point where ``bad`` holds, if any.

    ``template`` is formatted with each operand's value at that point.
    """
    if bad.any():
        i = int(np.argmax(bad))
        message = template.format(*(float(v[i]) for v in operands))
        raise EvalError(message, tuple(float(c) for c in coords[i]))


def _eval(e: Expr, coords: np.ndarray) -> np.ndarray:
    """Evaluate over every row of an (n_points, dim) coordinate array at once.

    Each operation's domain is checked on its whole operand arrays before or
    after the ufunc runs, so the first failing operation in evaluation order
    raises at its first offending point.
    """
    if isinstance(e, Num):
        return np.full(len(coords), e.value)
    if isinstance(e, Var):
        idx = _VARIABLES.index(e.name)
        dim = coords.shape[1]
        _check(np.full(len(coords), idx >= dim), coords,
               f"variable '{e.name}' undefined on a {dim}d point")
        return coords[:, idx]
    if isinstance(e, Neg):
        return -_eval(e.operand, coords)
    if isinstance(e, BinOp):
        name, args, ufunc = e.op, (e.left, e.right), _OPERATORS[e.op]
    else:
        name, args, ufunc = e.func, e.args, _FUNCTIONS[e.func]
    vals = [_eval(arg, coords) for arg in args]
    a, b = vals[0], vals[-1]
    if name == "/":
        _check(b == 0.0, coords, "division by zero")
    elif name == "log":
        _check(a <= 0.0, coords, "log of non-positive value {}", a)
    elif name == "sqrt":
        _check(a < 0.0, coords, "sqrt of negative value {}", a)
    out = ufunc(*vals)
    # a non-finite power or exp of finite operands is a pole, a complex
    # value or an overflow
    if name == "^":
        _check(~np.isfinite(out) & np.isfinite(a) & np.isfinite(b), coords,
               "invalid power {}^{}", a, b)
    elif name == "exp":
        _check(np.isinf(out) & np.isfinite(a), coords, "exp overflow")
    return out


def _evaluate(e: Expr, coords: np.ndarray) -> np.ndarray:
    """Values at every row of ``coords``; non-finite results are errors."""
    with np.errstate(all="ignore"):
        out = np.array(_eval(e, coords), dtype=float)  # a bare variable is a view
    _check(~np.isfinite(out), coords, "non-finite value {}", out)
    return out


def eval_at(e: Expr, point) -> float:
    """Evaluate at a point (x,) or (x, y); non-finite results are errors."""
    return float(_evaluate(e, np.asarray(point, dtype=float).reshape(1, -1))[0])


def sample(e: Expr, grid, where: str = "nodes") -> np.ndarray:
    """Evaluate on node coordinates or cell centers of a grid, all points at once."""
    if where == "nodes":
        coords = grid.node_coords()
    elif where == "cells":
        coords = grid.cell_centers()
    else:
        raise ValueError(f"where must be 'nodes' or 'cells', got {where!r}")
    return _evaluate(e, coords)
