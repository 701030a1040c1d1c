"""Expressions in the variable ``t`` and the parameter ``lambda``.

Expressions are parsed once into an immutable AST and evaluated many times,
so that differential operators and source terms can be described by data
(strings in a JSON config or on the command line) instead of Python
callables.  Only source terms may use ``lambda``: an operator's
coefficients are functions of ``t`` alone, and the spectral parameter
enters as the problem's shift of ``a_0``.  The grammar covers polynomials
plus ``sin``/``cos``/``exp``/``abs``, with conventional precedence
(``^`` > unary ``-`` > ``*`` ``/`` > ``+`` ``-``) and left associativity.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "Const",
    "Var",
    "Neg",
    "Binary",
    "Power",
    "Call",
    "ExprAst",
    "ParseError",
    "parse_expression",
    "uses_t",
    "uses_lambda",
    "compile_expr",
]

_FUNCTIONS = ("sin", "cos", "exp", "abs")


class ParseError(ValueError):
    """Syntax or lexical error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "lambda"


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # one of "+", "-", "*", "/"
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Power:
    base: "ExprAst"
    exponent: int  # nonnegative integer


@dataclass(frozen=True)
class Call:
    func: str  # one of sin, cos, exp, abs
    arg: "ExprAst"


ExprAst = Union[Const, Var, Neg, Binary, Power, Call]


_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.src))

    def advance(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    # expr := term (("+"|"-") term)*
    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.term())
            else:
                return node

    # term := unary (("*"|"/") unary)*
    def term(self) -> ExprAst:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.unary())
            else:
                return node

    # unary := "-" unary | power
    def unary(self) -> ExprAst:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    # power := atom ("^" integer)*
    def power(self) -> ExprAst:
        node = self.atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = Power(node, self.exponent())
            else:
                return node

    def exponent(self) -> int:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            raise ParseError("negative exponent is not allowed", pos)
        if kind != "number":
            raise ParseError("expected a nonnegative integer exponent", pos)
        if not text.isdigit():
            raise ParseError(f"non-integer exponent {text!r}", pos)
        self.advance()
        return int(text)

    def atom(self) -> ExprAst:
        kind, text, pos = self.advance()
        if kind == "number":
            return Const(float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text == "t":
                return Var("t")
            if text == "lambda":
                return Var("lambda")
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def parse_expression(src: str) -> ExprAst:
    """Parse ``src`` into an immutable expression tree.

    Raises :class:`ParseError` (with position) on empty input, syntax errors,
    unknown identifiers, and non-integer or negative exponents.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(src)
    node = parser.expr()
    kind, text, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    return node


def _uses_var(ast: ExprAst, name: str) -> bool:
    if isinstance(ast, Var):
        return ast.name == name
    if isinstance(ast, Neg):
        return _uses_var(ast.operand, name)
    if isinstance(ast, Binary):
        return _uses_var(ast.left, name) or _uses_var(ast.right, name)
    if isinstance(ast, Power):
        return _uses_var(ast.base, name)
    if isinstance(ast, Call):
        return _uses_var(ast.arg, name)
    return False


def uses_t(ast: ExprAst) -> bool:
    """True when the tree references the variable ``t`` anywhere."""
    return _uses_var(ast, "t")


def uses_lambda(ast: ExprAst) -> bool:
    """True when the tree references the parameter ``lambda`` anywhere."""
    return _uses_var(ast, "lambda")


@functools.lru_cache(maxsize=4096)
def compile_expr(ast: ExprAst) -> Callable[[object, float], object]:
    """Compile to a closure ``f(t, lam)`` that also accepts numpy arrays.

    The package evaluates every expression this way; it performs no
    division or finiteness checks.
    """
    if isinstance(ast, Const):
        v = ast.value
        return lambda t, lam: v
    if isinstance(ast, Var):
        if ast.name == "t":
            return lambda t, lam: t
        return lambda t, lam: lam
    if isinstance(ast, Neg):
        f = compile_expr(ast.operand)
        return lambda t, lam: -f(t, lam)
    if isinstance(ast, Binary):
        fl = compile_expr(ast.left)
        fr = compile_expr(ast.right)
        if ast.op == "+":
            return lambda t, lam: fl(t, lam) + fr(t, lam)
        if ast.op == "-":
            return lambda t, lam: fl(t, lam) - fr(t, lam)
        if ast.op == "*":
            return lambda t, lam: fl(t, lam) * fr(t, lam)
        return lambda t, lam: fl(t, lam) / fr(t, lam)
    if isinstance(ast, Power):
        f = compile_expr(ast.base)
        e = ast.exponent
        return lambda t, lam: f(t, lam) ** e
    if isinstance(ast, Call):
        f = compile_expr(ast.arg)
        g = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}[ast.func]
        return lambda t, lam: g(f(t, lam))
    raise TypeError(f"not an expression node: {ast!r}")
