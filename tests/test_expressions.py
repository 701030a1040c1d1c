import math

import pytest
from hypothesis import given, strategies as st

from greenbvp.expressions import (
    Binary,
    Call,
    Const,
    Neg,
    ParseError,
    Power,
    Var,
    compile_expr,
    parse_expression,
    uses_t,
)


# A checked tree walk in double precision: the reference compile_expr, which
# the package evaluates every expression with, is compared with.
class EvalError(ArithmeticError):
    """Division by zero or a non-finite intermediate during evaluation."""


_CALL_TABLE = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "abs": abs}


def eval_expr(ast, t: float, lam: float) -> float:
    """Evaluate the tree at ``(t, lambda)``; division by zero and non-finite
    intermediates raise :class:`EvalError`."""
    value = _eval(ast, float(t), float(lam))
    if not math.isfinite(value):
        raise EvalError(f"non-finite result {value!r}")
    return value


def _eval(ast, t: float, lam: float) -> float:
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Var):
        return t if ast.name == "t" else lam
    if isinstance(ast, Neg):
        return -_eval(ast.operand, t, lam)
    if isinstance(ast, Binary):
        left = _eval(ast.left, t, lam)
        right = _eval(ast.right, t, lam)
        if ast.op == "+":
            return left + right
        if ast.op == "-":
            return left - right
        if ast.op == "*":
            return left * right
        if right == 0.0:
            raise EvalError("division by zero")
        return left / right
    if isinstance(ast, Power):
        base = _eval(ast.base, t, lam)
        return base ** ast.exponent
    if isinstance(ast, Call):
        try:
            return _CALL_TABLE[ast.func](_eval(ast.arg, t, lam))
        except OverflowError as exc:
            raise EvalError(str(exc)) from exc
    raise TypeError(f"not an expression node: {ast!r}")


def test_parse_polynomial_plus_parameter():
    ast = parse_expression("(t-2)^4 + lambda")
    assert ast == Binary("+", Power(Binary("-", Var("t"), Const(2.0)), 4), Var("lambda"))


def test_parse_product_form():
    ast = parse_expression("t*(t-3)+lambda")
    assert ast == Binary("+", Binary("*", Var("t"), Binary("-", Var("t"), Const(3.0))),
                         Var("lambda"))


def test_empty_input_is_a_syntax_error():
    with pytest.raises(ParseError):
        parse_expression("")
    with pytest.raises(ParseError):
        parse_expression("   ")


@pytest.mark.parametrize("src,pos_at_least", [
    ("t +", 3),
    ("(t", 2),
    ("2 ** 3", 3),
    ("sin t", 4),
])
def test_syntax_error_carries_position(src, pos_at_least):
    with pytest.raises(ParseError) as err:
        parse_expression(src)
    assert err.value.position >= pos_at_least - 1


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("x + 1")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("tan(t)")


@pytest.mark.parametrize("src", ["t^-2", "t^2.5", "t^(2)"])
def test_bad_exponents_rejected(src):
    with pytest.raises(ParseError):
        parse_expression(src)


def test_precedence_caret_over_unary_minus():
    # -t^2 reads as -(t^2)
    ast = parse_expression("-t^2")
    assert ast == Neg(Power(Var("t"), 2))
    assert eval_expr(ast, 3.0, 0.0) == -9.0


def test_left_associativity():
    assert eval_expr(parse_expression("8 - 3 - 2"), 0, 0) == 3.0
    assert eval_expr(parse_expression("8 / 2 / 2"), 0, 0) == 2.0


@pytest.mark.parametrize("src,t,lam,expected", [
    ("(t-2)^4+lambda", 2.0, 3.0, 3.0),
    ("(t-2)^4+lambda", 0.0, 0.0, 16.0),
    ("t*(t-3)+lambda", 3.0, -1.5, -1.5),
    ("sin(t)", math.pi / 2, 0.0, 1.0),
    ("abs(0-t)", 2.5, 0.0, 2.5),
    ("exp(0)", 0.0, 0.0, 1.0),
])
def test_eval_examples(src, t, lam, expected):
    assert eval_expr(parse_expression(src), t, lam) == pytest.approx(expected, abs=1e-15)


def test_division_by_zero_reported():
    ast = parse_expression("1/(t-1)")
    with pytest.raises(EvalError):
        eval_expr(ast, 1.0, 0.0)
    assert eval_expr(ast, 2.0, 0.0) == 1.0


def test_eval_is_deterministic():
    ast = parse_expression("sin(t)*cos(lambda) + t^3/7")
    vals = {eval_expr(ast, 1.234, 5.678) for _ in range(20)}
    assert len(vals) == 1


def _expr_strategy():
    leaf = st.one_of(
        st.builds(Const, st.floats(min_value=0.0, max_value=100.0,
                                   allow_nan=False, allow_infinity=False)),
        st.just(Var("t")),
        st.just(Var("lambda")),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(Power, children, st.integers(min_value=0, max_value=5)),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "abs"]), children),
        )

    return st.recursive(leaf, extend, max_leaves=25)


# Printing precedence levels; parenthesise a child whenever its level is
# below the context required by its parent.
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def to_string(ast) -> str:
    """Render with minimal parentheses; reparsing gives an identical tree."""
    return _print(ast, 0)


def _print(ast, context: int) -> str:
    if isinstance(ast, Const):
        text = repr(ast.value)
        level = _PREC_ATOM if ast.value >= 0 else _PREC_NEG
    elif isinstance(ast, Var):
        text, level = ast.name, _PREC_ATOM
    elif isinstance(ast, Neg):
        text, level = "-" + _print(ast.operand, _PREC_NEG), _PREC_NEG
    elif isinstance(ast, Binary):
        level = _PREC_ADD if ast.op in "+-" else _PREC_MUL
        text = f"{_print(ast.left, level)} {ast.op} {_print(ast.right, level + 1)}"
    elif isinstance(ast, Power):
        text, level = f"{_print(ast.base, _PREC_ATOM)}^{ast.exponent}", _PREC_POW
    elif isinstance(ast, Call):
        text, level = f"{ast.func}({_print(ast.arg, 0)})", _PREC_ATOM
    else:
        raise TypeError(f"not an expression node: {ast!r}")
    if level < context:
        return f"({text})"
    return text


@given(_expr_strategy())
def test_print_parse_round_trip(ast):
    assert parse_expression(to_string(ast)) == ast


@given(st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=6),
       st.floats(min_value=0, max_value=10, allow_nan=False))
def test_polynomial_eval_matches_horner(coeffs, t):
    # build sum c_k t^k explicitly and compare against Horner evaluation
    text = " + ".join(f"({c!r}) * t^{k}" for k, c in enumerate(coeffs))
    ast = parse_expression(text)
    horner = 0.0
    for c in reversed(coeffs):
        horner = horner * t + c
    value = eval_expr(ast, t, 0.0)
    assert value == pytest.approx(horner, rel=1e-12, abs=1e-12)


def test_uses_t():
    assert uses_t(parse_expression("t+1"))
    assert not uses_t(parse_expression("lambda^2 + 3"))


def test_compiled_matches_checked_eval():
    ast = parse_expression("(t-2)^4 + sin(t)*lambda")
    f = compile_expr(ast)
    for t, lam in [(0.0, 1.0), (2.0, -3.5), (1.7, 0.25)]:
        assert f(t, lam) == pytest.approx(eval_expr(ast, t, lam), rel=1e-15)
