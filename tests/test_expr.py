import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from heathsym import expr as ex


def central_diff(f, env, var, h=1e-6):
    lo = dict(env); lo[var] = env[var] - h
    hi = dict(env); hi[var] = env[var] + h
    return (ex.evaluate(f, hi) - ex.evaluate(f, lo)) / (2 * h)


def test_parse_numbers_and_precedence():
    e = ex.parse("2 + 3*4^2")
    assert ex.evaluate(e, {}) == 50.0
    assert ex.evaluate(ex.parse("-2^2"), {}) == -4.0  # unary minus binds looser
    assert ex.evaluate(ex.parse("(-2)^2"), {}) == 4.0
    assert ex.evaluate(ex.parse("2^3^2"), {}) == 512.0  # right-assoc


def test_parse_functions_and_symbols():
    env = {"x": 0.7, "y": 1.3}
    e = ex.parse("sin(x)*cos(y) + exp(x*y) - ln(y) + sqrt(y) + abs(-x)")
    want = (math.sin(0.7) * math.cos(1.3) + math.exp(0.7 * 1.3)
            - math.log(1.3) + math.sqrt(1.3) + 0.7)
    assert abs(ex.evaluate(e, env) - want) < 1e-14


def test_parse_error_position():
    with pytest.raises(ex.ParseError) as ei:
        ex.parse("x +* 3")
    assert "position" in str(ei.value)


def test_unbound_symbol():
    with pytest.raises(ex.UnboundSymbolError):
        ex.evaluate(ex.parse("x + zz"), {"x": 1.0})


def test_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("ln(x)"), {"x": -1.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("sqrt(x)"), {"x": -2.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x^(1/2)"), {"x": -2.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("1/x"), {"x": 0.0})


def test_print_parse_round_trip():
    rng = np.random.default_rng(0)
    sources = [
        "x^2 - 3*x + 1",
        "sin(x)*exp(-x^2/2)",
        "(x + y)^3 / (1 + y^2)",
        "ln(abs(x)) - sqrt(x^2 + 1)",
        "tanh_free - 0*tanh_free",  # plain symbol with underscore
        "cosh(x) - sinh(x)",
        "sign(x)*abs(x)",
    ]
    for s in sources:
        e = ex.parse(s)
        e2 = ex.parse(ex.to_str(e))
        for _ in range(5):
            env = {n: float(rng.uniform(0.4, 1.6)) for n in ex.free_symbols(e)}
            assert abs(ex.evaluate(e, env) - ex.evaluate(e2, env)) < 1e-12


def test_diff_polynomial_exact():
    e = ex.parse("3*x^4 - 2*x^2 + 7*x - 5")
    d = ex.diff(e, "x")
    for xv in (0.0, 1.0, -2.0, 0.5):
        assert abs(ex.evaluate(d, {"x": xv}) - (12 * xv**3 - 4 * xv + 7)) < 1e-12


def test_diff_vs_central_differences():
    rng = np.random.default_rng(1)
    sources = [
        "exp(x*y) * sin(x)",
        "ln(x) / (1 + y^2)",
        "x^y",
        "sqrt(x^2 + y^2)",
        "abs(x)^3",
        "cos(x)*sinh(y) + tan(x/4)",
    ]
    for s in sources:
        e = ex.parse(s)
        for var in sorted(ex.free_symbols(e)):
            d = ex.diff(e, var)
            for _ in range(5):
                env = {n: float(rng.uniform(0.5, 1.5)) for n in ex.free_symbols(e)}
                sym = ex.evaluate(d, env)
                num = central_diff(e, env, var)
                assert abs(sym - num) <= 1e-6 * max(1.0, abs(sym))


def test_second_derivative():
    e = ex.parse("exp(-x^2)")
    d2 = ex.diff(e, "x", 2)
    for xv in (-1.0, 0.0, 0.7):
        want = (4 * xv * xv - 2) * math.exp(-xv * xv)
        assert abs(ex.evaluate(d2, {"x": xv}) - want) < 1e-12


def test_substitute_and_rename():
    e = ex.parse("x^2 + y")
    s = ex.substitute(e, "x", ex.parse("t + 1"))
    assert abs(ex.evaluate(s, {"t": 2.0, "y": 1.0}) - 10.0) < 1e-14
    r = ex.rename(e, {"y": "z"})
    assert ex.free_symbols(r) == {"x", "z"}


def test_simplify_preserves_value():
    rng = np.random.default_rng(2)
    sources = [
        "x + 0", "x*1", "x*0 + y", "x - x + y", "(x^2)^3",
        "2*x + 3*x", "x/x", "exp(0*x) * y",
    ]
    for s in sources:
        e = ex.parse(s)
        se = ex.simplify(e)
        for _ in range(3):
            env = {n: float(rng.uniform(0.5, 1.5))
                   for n in ex.free_symbols(e) | ex.free_symbols(se)}
            assert abs(ex.evaluate(e, env) - ex.evaluate(se, env)) < 1e-12


def test_compile_matches_evaluate():
    rng = np.random.default_rng(3)
    e1 = ex.parse("exp(x)*sin(y) + x^3/(1+y^2)")
    e2 = ex.parse("ln(x) - sqrt(y)")
    fn = ex.compile_exprs([e1, e2], ["x", "y"])
    xs, ys = rng.uniform(0.5, 2.0, (2, 10))
    (v1, v2), mask = fn(xs, ys)
    assert mask.shape == (10,) and not mask.any()
    for i in range(10):
        env = {"x": xs[i], "y": ys[i]}
        assert abs(v1[i] - ex.evaluate(e1, env)) < 1e-13
        assert abs(v2[i] - ex.evaluate(e2, env)) < 1e-13


def test_compile_domain_error():
    fn = ex.compile_exprs([ex.parse("ln(x)")], ["x"])
    _, mask = fn(np.array([1.0, -1.0, 2.0]))
    assert mask.tolist() == [False, True, False]
    with pytest.raises(ex.DomainError) as ei:
        ex.evaluate(ex.parse("ln(x)"), {"x": -1.0})
    assert ei.value.subexpr == "ln(x)"


def test_kernel_fills_a_constant_to_the_arguments_shape():
    # "0*phi" folds to 0; the march needs an array of u's shape, not a float
    xs, us = np.linspace(0.0, 1.0, 5), np.ones(5)
    for text in ("0*u", "2 + 3", "sin(1)"):
        e = ex.parse(text)
        got = ex.compile_kernel(e, ["x", "u"])(xs, us)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        assert np.all(got == ex.evaluate(e, {}))


def test_arithmetic_operators_on_expr():
    x = ex.sym("x")
    e = (x + 1) * (x - 1) - (x * x - 1)
    for xv in (0.3, 2.0):
        assert abs(ex.evaluate(e, {"x": xv})) < 1e-14


# -- property tests of the array evaluator ----------------------------------

_KERNEL = ("exp", "ln", "sqrt", "sin", "cos", "tan", "sinh", "cosh", "abs", "sign")
_CONSTS = tuple(Fraction(c) for c in ("-2", "-1", "-1/2", "1/2", "1", "2", "3"))
_EXPONENTS = tuple(Fraction(c) for c in ("2", "3", "-1", "-2", "1/2", "-1/2", "3/2"))
# values agree with the exact ones within this much, times max(1, |largest summand|)
_VALUE_TOL = 1e-9
_FLOAT_MAX = sys.float_info.max


def _build(make, *args):
    try:
        return make(*args)
    except ex.ExprError:  # constant folding hit 0^-1
        return None


def _exprs():
    leaves = st.sampled_from([ex.sym("x"), ex.sym("y")] + [ex.num(c) for c in _CONSTS])

    def extend(kids):
        return st.one_of(
            st.tuples(kids, kids).map(lambda p: ex.add(*p)),
            st.tuples(kids, kids).map(lambda p: ex.mul(*p)),
            st.tuples(kids, st.sampled_from(_EXPONENTS)).map(
                lambda p: _build(ex.pow_, p[0], ex.num(p[1]))),
            st.tuples(kids, kids).map(lambda p: _build(ex.pow_, *p)),
            st.tuples(st.sampled_from(_KERNEL), kids).map(lambda p: ex.call(*p)),
        ).filter(lambda e: e is not None)

    return st.recursive(leaves, extend, max_leaves=8)


class _Ambiguous(Exception):
    """The exact value sits so close to a domain or overflow boundary that
    rounding may decide either way."""


class _Undefined(Exception):
    pass


def _exact(e, env):
    """Exact value of ``e`` by sympy at 60 digits, applying the domain rules
    node by node: ln <= 0, sqrt < 0, negative base with non-integer
    exponent, zero to a negative power, and magnitudes beyond double range."""
    memo = {}

    def near(v, target=0):
        return abs(v - target) < 1e-9

    def shaky(node, v):
        # near zero, and not exactly an input that the float path sees too
        return near(v) and node.op != "sym"

    def walk(node):
        if node in memo:
            return memo[node]
        if node.op == "num":
            v = sympy.Rational(node.args[0].numerator, node.args[0].denominator)
        elif node.op == "sym":
            v = sympy.Float(env[node.args[0]], 60)
        elif node.op == "add":
            v = sympy.Add(*[walk(c) for c in node.args])
        elif node.op == "mul":
            v = sympy.Mul(*[walk(c) for c in node.args])
        elif node.op == "pow":
            b, p = walk(node.args[0]), walk(node.args[1])
            if shaky(node.args[0], b) and p < 0:
                raise _Ambiguous
            if b == 0 and p < 0:
                raise _Undefined
            if b < 0 and p != int(p):
                if near(p, round(p)) or shaky(node.args[0], b):
                    raise _Ambiguous
                raise _Undefined
            if b < 0 and node.args[1].op != "num":
                raise _Ambiguous  # an exponent that rounding may move off an integer
            v = sympy.Pow(b, p)
        else:
            fname, arg = node.args[0], walk(node.args[1])
            if fname in ("ln", "sqrt", "sign") and shaky(node.args[1], arg):
                raise _Ambiguous
            if (fname == "ln" and arg <= 0) or (fname == "sqrt" and arg < 0):
                raise _Undefined
            if fname == "tan" and near(sympy.cos(arg).evalf(60)):
                raise _Ambiguous
            fn = {"ln": sympy.log, "abs": sympy.Abs}.get(fname) or getattr(sympy, fname)
            v = fn(arg)
        v = sympy.N(v, 60)
        if v != 0 and (abs(abs(v) / _FLOAT_MAX - 1) < 1e-9 or abs(v) < 1e-290):
            raise _Ambiguous
        if abs(v) > _FLOAT_MAX:
            raise _Undefined
        memo[node] = v
        return v

    return walk(e)


_coord = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_exprs(), st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8))
# failures that exp, sign and powers would hide: exp(-inf) = 0, sign(inf) = 1,
# 1/-inf = 0, 2^-inf = 0
@example(ex.parse("exp(ln(x))"), [(0.0, 1.0), (2.0, 1.0)])
@example(ex.parse("sign(1/x) + y"), [(0.0, 1.0), (-1.5, 0.5)])
@example(ex.parse("ln(x)^(-1)*y"), [(0.0, 1.0), (0.5, 2.0)])
@example(ex.parse("2^ln(x) + sqrt(y)"), [(0.0, 1.0), (1.0, -1.0), (2.0, 2.0)])
def test_evaluator_batch_mask_and_values(e, pts):
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    fn = ex.compile_exprs([e], ["x", "y"])
    (vals,), mask = fn(xs, ys)
    assert vals.shape == mask.shape == xs.shape
    # the kernel: the same values, non-finite exactly where the mask is set
    with np.errstate(all="ignore"):
        kernel = ex.compile_kernel(e, ["x", "y"])(xs, ys)
    assert kernel.shape == xs.shape
    assert (~np.isfinite(kernel)).tolist() == mask.tolist()
    assert kernel[~mask].tobytes() == vals[~mask].tobytes()
    # several expressions: the mask is the union, the values are unchanged
    other = ex.call("ln", ex.sym("y"))
    (v1, v2), both = ex.compile_exprs([other, e], ["x", "y"])(xs, ys)
    assert both.tolist() == (mask | (ys <= 0)).tolist()
    assert v2[~both].tobytes() == vals[~both].tobytes()
    summands = e.args if e.op == "add" else (e,)
    for i, (xv, yv) in enumerate(pts):
        # a batch equals each point alone, bit for bit, and evaluate agrees
        (one,), one_mask = fn(xs[i:i + 1], ys[i:i + 1])
        assert one_mask[0] == mask[i]
        if mask[i]:
            with pytest.raises(ex.DomainError) as ei:
                ex.evaluate(e, {"x": xv, "y": yv})
            assert ei.value.subexpr
            continue
        assert one[0].tobytes() == vals[i].tobytes()
        assert np.float64(ex.evaluate(e, {"x": xv, "y": yv})).tobytes() == vals[i].tobytes()
        # the mask and the values agree with sympy
    for i, (xv, yv) in enumerate(pts):
        env = {"x": xv, "y": yv}
        try:
            want = _exact(e, env)
        except _Ambiguous:
            continue
        except _Undefined:
            assert mask[i], (ex.to_str(e), env)
            continue
        assert not mask[i], (ex.to_str(e), env)
        scale = max([1.0] + [float(abs(_exact(s, env))) for s in summands])
        assert abs(vals[i] - float(want)) <= _VALUE_TOL * scale, (ex.to_str(e), env)
