"""Small immutable expression trees: parse, differentiate, substitute, evaluate.

This is deliberately not a CAS.  Construction folds constants and removes
0/1 identities; `simplify` adds a few safe rewrites (exp/log merging).
Equality of expressions is decided downstream by numeric sampling, never by
canonical forms.  Numeric literals are kept as exact rationals whenever the
source text allows it, so residuals of exact cancellations come out at
machine zero.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]
ExprLike = Union["Expr", int, float, Fraction]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnboundSymbolError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unbound symbol '{name}'")
        self.name = name


class DomainError(ExprError):
    """Raised when evaluation leaves the real domain (ln of non-positive,
    division by zero, fractional power of a negative base, ...)."""

    def __init__(self, message: str, subexpr: str = ""):
        self.subexpr = subexpr
        if subexpr:
            message = f"{message} in '{subexpr}'"
        super().__init__(message)


# Functions understood by the parser and their array implementations.
_FUNCTIONS: dict[str, Callable] = {
    "exp": np.exp,
    "ln": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "abs": np.abs,
    "sign": np.sign,
}


class Expr:
    """Immutable expression node.

    ``op`` is one of 'num', 'sym', 'add', 'mul', 'pow', 'call'.
    ``args`` holds the payload: a number, a name, child expressions, or
    (function-name, child) for calls.  Nodes hash structurally so repeated
    subtrees dedupe in memoized walks.
    """

    __slots__ = ("op", "args", "_hash")

    def __init__(self, op: str, args: tuple):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((op, args)))

    def __setattr__(self, *_):
        raise AttributeError("Expr is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Expr)
            and self._hash == other._hash
            and self.op == other.op
            and self.args == other.args
        )

    # -- convenience arithmetic -------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __pow__(self, other):
        return pow_(self, _lift(other))

    def __rpow__(self, other):
        return pow_(_lift(other), self)

    def __neg__(self):
        return mul(num(-1), self)

    def __repr__(self):
        return f"Expr({to_str(self)!r})"

    def __str__(self):
        return to_str(self)


def _lift(v: ExprLike) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return num(v)
    if isinstance(v, float):
        return num(v)
    raise TypeError(f"cannot use {type(v).__name__} as an expression")


# -- constructors (do the light normalization) ----------------------------

def num(v: Number) -> Expr:
    if isinstance(v, float) and v.is_integer() and abs(v) < 1e15:
        v = Fraction(int(v))
    elif isinstance(v, int):
        v = Fraction(v)
    return Expr("num", (v,))


def sym(name: str) -> Expr:
    return Expr("sym", (name,))


ZERO = num(0)
ONE = num(1)


def _is_num(e: Expr) -> bool:
    return e.op == "num"


def _numval(e: Expr) -> Number:
    return e.args[0]


def add(*terms: ExprLike) -> Expr:
    # flatten, fold constants, and collect like terms coefficient-wise
    coeffs: dict[Expr, Number] = {}
    const: Number = Fraction(0)
    for t in terms:
        t = _lift(t)
        if t.op == "add":
            children = t.args
        else:
            children = (t,)
        for c in children:
            if _is_num(c):
                const = const + _numval(c)
                continue
            if c.op == "mul" and _is_num(c.args[0]):
                coef = _numval(c.args[0])
                rest = c.args[1] if len(c.args) == 2 else Expr("mul", c.args[1:])
            else:
                coef, rest = Fraction(1), c
            coeffs[rest] = coeffs.get(rest, Fraction(0)) + coef
    flat = [mul(num(k), term) for term, k in coeffs.items() if k != 0]
    if const != 0 or not flat:
        flat.insert(0, num(const))
    if len(flat) == 1:
        return flat[0]
    return Expr("add", tuple(flat))


def sub(a: ExprLike, b: ExprLike) -> Expr:
    return add(a, mul(num(-1), b))


def mul(*factors: ExprLike) -> Expr:
    # flatten, fold constants, and merge repeated bases with numeric exponents
    powers: dict[Expr, Number] = {}
    const: Number = Fraction(1)
    for f in factors:
        f = _lift(f)
        if f.op == "mul":
            children = f.args
        else:
            children = (f,)
        for c in children:
            if _is_num(c):
                const = const * _numval(c)
                continue
            if c.op == "pow" and _is_num(c.args[1]):
                base, ex = c.args[0], _numval(c.args[1])
            else:
                base, ex = c, Fraction(1)
            powers[base] = powers.get(base, Fraction(0)) + ex
    if const == 0:
        return ZERO
    flat = [pow_(base, num(ex)) for base, ex in powers.items() if ex != 0]
    flat = [f for f in flat if not (_is_num(f) and _numval(f) == 1)]
    if const != 1 or not flat:
        flat.insert(0, num(const))
    if len(flat) == 1:
        return flat[0]
    return Expr("mul", tuple(flat))


def div(a: ExprLike, b: ExprLike) -> Expr:
    b = _lift(b)
    if _is_num(b):
        v = _numval(b)
        if v == 0:
            raise DomainError("division by zero constant")
        return mul(a, num(Fraction(1, 1) / v if isinstance(v, Fraction) else 1.0 / v))
    return mul(a, pow_(b, num(-1)))


def pow_(base: ExprLike, exponent: ExprLike) -> Expr:
    base = _lift(base)
    exponent = _lift(exponent)
    if _is_num(exponent):
        ev = _numval(exponent)
        if ev == 1:
            return base
        if ev == 0:
            return ONE
        if _is_num(base):
            bv = _numval(base)
            if isinstance(bv, Fraction) and isinstance(ev, Fraction) and ev.denominator == 1:
                e_int = int(ev)
                if bv == 0 and e_int < 0:
                    raise DomainError("zero to a negative power")
                return num(bv ** e_int)
        if base.op == "pow" and _is_num(base.args[1]):
            # (u^c1)^c2 -> u^(c1*c2) when c2 is an integer (no branch issues)
            inner = _numval(base.args[1])
            if isinstance(ev, Fraction) and ev.denominator == 1:
                return pow_(base.args[0], num(inner * ev))
    if _is_num(base) and _numval(base) == 1:
        return ONE
    return Expr("pow", (base, exponent))


def call(fname: str, arg: ExprLike) -> Expr:
    if fname not in _FUNCTIONS:
        raise ExprError(f"unknown function '{fname}'")
    arg = _lift(arg)
    if fname == "exp" and _is_num(arg) and _numval(arg) == 0:
        return ONE
    if fname == "ln" and _is_num(arg) and _numval(arg) == 1:
        return ZERO
    return Expr("call", (fname, arg))


def exp(a: ExprLike) -> Expr:
    return call("exp", a)


def ln(a: ExprLike) -> Expr:
    return call("ln", a)


# -- queries ---------------------------------------------------------------

def free_symbols(e: Expr) -> set[str]:
    seen: set[int] = set()
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.op == "sym":
            out.add(node.args[0])
        elif node.op == "call":
            stack.append(node.args[1])
        elif node.op in ("add", "mul", "pow"):
            stack.extend(node.args)
    return out


# -- evaluation ------------------------------------------------------------

def evaluate(e: Expr, env: Mapping[str, float]) -> float:
    """Evaluate a closed expression to a float.

    Every free symbol must appear in ``env``; domain violations raise
    DomainError naming the offending subexpression instead of producing NaN.
    """
    names = tuple(sorted(env))
    point = [float(env[n]) for n in names]
    (v,), mask = _compiled((e,), names)(*[np.array([p]) for p in point])
    if mask.any():
        raise _domain_error((e,), names, point)
    return v.item()


def evaluate_many(exprs: Iterable[Expr], points: Mapping[str, object]) -> tuple:
    """Evaluate expressions at every point at once.

    ``points`` maps each free symbol to an array or a scalar; the values come
    back broadcast to the points' common shape.  The first point where any
    expression is undefined raises DomainError naming the subexpression.
    """
    exprs, names, args = tuple(exprs), tuple(points), tuple(points.values())
    values, mask = _compiled(exprs, names)(*args)
    _raise_at_first(mask, exprs, names, args)
    return values


def scale_residuals(values: Sequence[np.ndarray], size: int, signed: bool = False,
                    floor: float = 1.0) -> tuple:
    """Scaled residuals of summands already computed: ``values`` holds
    consecutive groups of ``size`` summands, and each group gives one row
    |sum| / max(floor, max |summand|), with its mask of non-finite
    residuals.  With ``signed`` the rows keep the sign of the sum.
    The summands of a group are added in order."""
    groups = np.asarray(values)
    groups = groups.reshape((-1, size) + groups.shape[1:])
    with np.errstate(all="ignore"):
        total = groups[:, 0]
        for j in range(1, size):
            total = total + groups[:, j]
        scale = np.abs(groups).max(axis=1)
        res = (total if signed else np.abs(total)) / np.maximum(scale, floor)
    return res, ~np.isfinite(res)


# -- differentiation -------------------------------------------------------

def diff(e: Expr, var: Union[str, Expr], order: int = 1) -> Expr:
    """Exact structural derivative with respect to a variable name.

    Symbols other than ``var`` are treated as constants.  abs/sign use the
    convention abs' = sign, sign' = 0 (valid away from zero).
    """
    if isinstance(var, Expr):
        if var.op != "sym":
            raise ExprError("differentiation variable must be a symbol")
        var = var.args[0]
    for _ in range(order):
        e = _diff1(e, var)
    return e


def _diff1(e: Expr, var: str) -> Expr:
    memo: dict[Expr, Expr] = {}

    def d(node: Expr) -> Expr:
        got = memo.get(node)
        if got is not None:
            return got
        if node.op == "num":
            r = ZERO
        elif node.op == "sym":
            r = ONE if node.args[0] == var else ZERO
        elif node.op == "add":
            r = add(*[d(c) for c in node.args])
        elif node.op == "mul":
            terms = []
            children = node.args
            for i, c in enumerate(children):
                dc = d(c)
                if dc is ZERO or (_is_num(dc) and _numval(dc) == 0):
                    continue
                terms.append(mul(*(children[:i] + (dc,) + children[i + 1:])))
            r = add(*terms) if terms else ZERO
        elif node.op == "pow":
            base, expo = node.args
            db, de = d(base), d(expo)
            de_zero = _is_num(de) and _numval(de) == 0
            db_zero = _is_num(db) and _numval(db) == 0
            if de_zero and db_zero:
                r = ZERO
            elif de_zero:
                # d(u^c) = c*u^(c-1)*u'
                r = mul(expo, pow_(base, sub(expo, ONE)), db)
            else:
                # d(u^v) = u^v * (v' ln u + v u'/u)
                r = mul(node, add(mul(de, ln(base)), mul(expo, db, pow_(base, num(-1)))))
        else:  # call
            fname, arg = node.args
            da = d(arg)
            if _is_num(da) and _numval(da) == 0:
                r = ZERO
            else:
                r = mul(_fn_derivative(fname, arg), da)
        memo[node] = r
        return r

    return d(e)


def _fn_derivative(fname: str, arg: Expr) -> Expr:
    if fname == "exp":
        return exp(arg)
    if fname == "ln":
        return pow_(arg, num(-1))
    if fname == "sqrt":
        return mul(num(Fraction(1, 2)), pow_(arg, num(Fraction(-1, 2))))
    if fname == "sin":
        return call("cos", arg)
    if fname == "cos":
        return mul(num(-1), call("sin", arg))
    if fname == "tan":
        return pow_(call("cos", arg), num(-2))
    if fname == "sinh":
        return call("cosh", arg)
    if fname == "cosh":
        return call("sinh", arg)
    if fname == "abs":
        return call("sign", arg)
    if fname == "sign":
        return ZERO
    raise ExprError(f"no derivative rule for '{fname}'")


# -- substitution ----------------------------------------------------------

def substitute(e: Expr, target: Union[str, Expr], replacement: ExprLike) -> Expr:
    """Replace every occurrence of the symbol ``target``.  No binders exist,
    so capture is impossible."""
    if isinstance(target, Expr):
        if target.op != "sym":
            raise ExprError("substitution target must be a symbol")
        target = target.args[0]
    return subs(e, {target: replacement})


def subs(e: Expr, mapping: Mapping[str, ExprLike]) -> Expr:
    repl = {k: _lift(v) for k, v in mapping.items()}
    memo: dict[Expr, Expr] = {}

    def walk(node: Expr) -> Expr:
        got = memo.get(node)
        if got is not None:
            return got
        if node.op == "sym":
            r = repl.get(node.args[0], node)
        elif node.op == "num":
            r = node
        elif node.op == "add":
            r = add(*[walk(c) for c in node.args])
        elif node.op == "mul":
            r = mul(*[walk(c) for c in node.args])
        elif node.op == "pow":
            r = pow_(walk(node.args[0]), walk(node.args[1]))
        else:
            r = call(node.args[0], walk(node.args[1]))
        memo[node] = r
        return r

    return walk(e)


def rename(e: Expr, mapping: Mapping[str, str]) -> Expr:
    return subs(e, {k: sym(v) for k, v in mapping.items()})


# -- simplification --------------------------------------------------------

def simplify(e: Expr) -> Expr:
    """Best-effort cleanup: constant folding (already done by constructors),
    merging products of exponentials, ln(exp(u)) -> u, exp(ln(u)) -> u.
    The result is only guaranteed equivalent where the input is defined."""
    memo: dict[Expr, Expr] = {}

    def walk(node: Expr) -> Expr:
        got = memo.get(node)
        if got is not None:
            return got
        if node.op in ("num", "sym"):
            r = node
        elif node.op == "add":
            r = add(*[walk(c) for c in node.args])
        elif node.op == "mul":
            factors = [walk(c) for c in node.args]
            exp_args = [f.args[1] for f in factors if f.op == "call" and f.args[0] == "exp"]
            rest = [f for f in factors if not (f.op == "call" and f.args[0] == "exp")]
            if len(exp_args) > 1:
                rest.append(exp(add(*exp_args)))
                r = mul(*rest)
            else:
                r = mul(*factors)
        elif node.op == "pow":
            base, expo = walk(node.args[0]), walk(node.args[1])
            if base.op == "call" and base.args[0] == "exp":
                r = exp(mul(base.args[1], expo))
            else:  # pow_ folds (u^c1)^c2 for integer c2
                r = pow_(base, expo)
        else:
            fname, arg = node.args
            arg = walk(arg)
            if fname == "ln" and arg.op == "call" and arg.args[0] == "exp":
                r = arg.args[1]
            elif fname == "exp" and arg.op == "call" and arg.args[0] == "ln":
                r = arg.args[1]
            elif (
                fname == "exp"
                and arg.op == "mul"
                and len(arg.args) == 2
                and _is_num(arg.args[0])
                and arg.args[1].op == "call"
                and arg.args[1].args[0] == "ln"
            ):
                # exp(c*ln(u)) -> u^c
                r = pow_(arg.args[1].args[1], arg.args[0])
            else:
                r = call(fname, arg)
        memo[node] = r
        return r

    return walk(e)


# -- printing --------------------------------------------------------------

def _num_str(v: Number) -> str:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


# precedence levels: add=1, mul=2, unary-minus=2.5, pow=3, atom=4
def _print(e: Expr, parent_prec: float) -> str:
    if e.op == "num":
        v = e.args[0]
        s = _num_str(v)
        prec = 4.0
        if v < 0:
            prec = 2.5
        elif isinstance(v, Fraction) and v.denominator != 1:
            prec = 2.0
        return f"({s})" if prec < parent_prec else s
    if e.op == "sym":
        return e.args[0]
    if e.op == "call":
        return f"{e.args[0]}({_print(e.args[1], 0)})"
    if e.op == "add":
        parts = [_print(e.args[0], 1.0)]
        for t in e.args[1:]:
            neg = _negated(t)
            if neg is not None:
                parts.append(f" - {_print(neg, 1.5)}")
            else:
                parts.append(f" + {_print(t, 1.5)}")
        s = "".join(parts)
        return f"({s})" if parent_prec > 1.0 else s
    if e.op == "mul":
        factors = list(e.args)
        prefix = ""
        if _is_num(factors[0]) and _numval(factors[0]) == -1 and len(factors) > 1:
            factors = factors[1:]
            prefix = "-"
        s = prefix + "*".join(_print(f, 2.5) for f in factors)
        prec = 2.0 if not prefix else 1.9
        return f"({s})" if parent_prec > prec else s
    # pow: right-associative, binds tighter than unary minus
    base, expo = e.args
    s = f"{_print(base, 3.5)}^{_print(expo, 3.1)}"
    return f"({s})" if parent_prec > 3.0 else s


def _negated(t: Expr) -> Expr | None:
    """If t == -s for a syntactically evident s, return s."""
    if t.op == "num" and _numval(t) < 0:
        return num(-_numval(t))
    if t.op == "mul" and _is_num(t.args[0]) and _numval(t.args[0]) < 0:
        c = _numval(t.args[0])
        if c == -1 and len(t.args) == 2:
            return t.args[1]
        return mul(num(-c), *t.args[1:])
    return None


def to_str(e: Expr) -> str:
    return _print(e, 0)


# -- parsing ---------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return ("eof", "", self.pos)
        ch = self.text[self.pos]
        if ch.isdigit() or (ch == "." and self.pos + 1 < len(self.text) and self.text[self.pos + 1].isdigit()):
            return self._number()
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            return ("ident", self.text[self.pos:j], self.pos)
        if ch in "+-*/^(),":
            return ("op", ch, self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def _number(self):
        j = self.pos
        text = self.text
        while j < len(text) and text[j].isdigit():
            j += 1
        if j < len(text) and text[j] == ".":
            j += 1
            while j < len(text) and text[j].isdigit():
                j += 1
        if j < len(text) and text[j] in "eE":
            k = j + 1
            if k < len(text) and text[k] in "+-":
                k += 1
            if k < len(text) and text[k].isdigit():
                while k < len(text) and text[k].isdigit():
                    k += 1
                j = k
        return ("number", text[self.pos:j], self.pos)

    def advance(self, token):
        self.pos = token[2] + len(token[1])

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1


def parse(text: str) -> Expr:
    """Parse infix text into an Expr.  See docs/grammar.md for the grammar."""
    tz = _Tokenizer(text)
    e = _parse_sum(tz)
    tok = tz.peek()
    if tok[0] != "eof":
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
    return e


def _parse_sum(tz: _Tokenizer) -> Expr:
    left = _parse_term(tz)
    while True:
        tok = tz.peek()
        if tok[0] == "op" and tok[1] in "+-":
            tz.advance(tok)
            right = _parse_term(tz)
            left = add(left, right) if tok[1] == "+" else sub(left, right)
        else:
            return left


def _parse_term(tz: _Tokenizer) -> Expr:
    left = _parse_factor(tz)
    while True:
        tok = tz.peek()
        if tok[0] == "op" and tok[1] in "*/":
            tz.advance(tok)
            right = _parse_factor(tz)
            left = mul(left, right) if tok[1] == "*" else div(left, right)
        else:
            return left


def _parse_factor(tz: _Tokenizer) -> Expr:
    tok = tz.peek()
    if tok[0] == "op" and tok[1] == "-":
        tz.advance(tok)
        return mul(num(-1), _parse_factor(tz))
    if tok[0] == "op" and tok[1] == "+":
        tz.advance(tok)
        return _parse_factor(tz)
    return _parse_power(tz)


def _parse_power(tz: _Tokenizer) -> Expr:
    base = _parse_atom(tz)
    tok = tz.peek()
    if tok[0] == "op" and tok[1] == "^":
        tz.advance(tok)
        return pow_(base, _parse_factor(tz))
    return base


def _parse_atom(tz: _Tokenizer) -> Expr:
    tok = tz.peek()
    if tok[0] == "number":
        tz.advance(tok)
        text = tok[1]
        if "e" in text.lower() and "." not in text:
            return num(Fraction(text.lower().replace("e", "E")))
        try:
            return num(Fraction(text))
        except ValueError:
            return num(float(text))
    if tok[0] == "ident":
        tz.advance(tok)
        nxt = tz.peek()
        if nxt[0] == "op" and nxt[1] == "(":
            if tok[1] not in _FUNCTIONS:
                raise ParseError(f"unknown function '{tok[1]}'", tok[2])
            tz.advance(nxt)
            arg = _parse_sum(tz)
            closing = tz.peek()
            if closing[0] != "op" or closing[1] != ")":
                raise ParseError("expected ')'", closing[2])
            tz.advance(closing)
            return call(tok[1], arg)
        return sym(tok[1])
    if tok[0] == "op" and tok[1] == "(":
        tz.advance(tok)
        e = _parse_sum(tz)
        closing = tz.peek()
        if closing[0] != "op" or closing[1] != ")":
            raise ParseError("expected ')'", closing[2])
        tz.advance(closing)
        return e
    raise ParseError(f"unexpected token {tok[1]!r}" if tok[1] else "unexpected end of input", tok[2])


# -- compilation to numpy code ----------------------------------------------

def _codegen(exprs: Sequence[Expr], argnames: Sequence[str], tail: str = "mask"):
    """Straight-line numpy code for ``exprs``, one assignment per distinct
    subtree.  exp, sign and negative powers can map an infinite argument to a
    finite value (exp(-inf) = 0), so their results are poisoned with
    (arg - arg): zero for a finite argument, nan otherwise.  A failure
    anywhere therefore reaches every result that depends on it.  The
    ``tail`` picks what the code returns: "mask", the values and their mask
    (see compile_exprs); "explain", at the first non-finite line, its index
    and its arguments, for scalar arguments only; "kernel", the value of
    the one expression alone (see compile_kernel)."""
    index: dict[Expr, str] = {}
    lines: list[str] = []
    nodes: list[Expr] = []
    ns: dict[str, object] = {
        "_pow": np.power, "_recip": np.reciprocal, "_isfinite": np.isfinite,
        "_errstate": np.errstate, "_empty": np.empty, "_full": np.full,
        "_shape": np.broadcast_shapes,
        "_np_shape": np.shape, **{"_" + k: f for k, f in _FUNCTIONS.items()},
    }

    def emit(node: Expr) -> str:
        got = index.get(node)
        if got is not None:
            return got
        if node.op == "num":
            name = f"c{len(index)}"
            ns[name] = float(node.args[0])
        elif node.op == "sym":
            if node.args[0] not in argnames:
                raise UnboundSymbolError(node.args[0])
            name = f"a[{argnames.index(node.args[0])}]"
        else:
            if node.op in ("add", "mul"):
                kids = [emit(c) for c in node.args]
                rhs = (" + " if node.op == "add" else " * ").join(kids)
            elif node.op == "pow":
                kids = [emit(c) for c in node.args]
                b, e = kids
                ev = _numval(node.args[1]) if _is_num(node.args[1]) else None
                if ev == 2:
                    rhs = f"{b} * {b}"
                elif ev == -1:
                    rhs = f"_recip({b}) + ({b} - {b})"
                elif ev is not None and ev > 0:
                    rhs = f"_pow({b}, {e})"
                elif ev is not None:
                    rhs = f"_pow({b}, {e}) + ({b} - {b})"
                else:
                    rhs = f"_pow({b}, {e}) + ({b} - {b}) + ({e} - {e})"
            else:
                fname, arg = node.args
                kids = [emit(arg)]
                rhs = f"_{fname}({kids[0]})"
                if fname in ("exp", "sign"):
                    rhs += f" + ({kids[0]} - {kids[0]})"
            name = f"v{len(nodes)}"
            lines.append(f"{name} = {rhs}")
            if tail == "explain":
                lines.append(f"if not _isfinite({name}): return {len(nodes)}, ({', '.join(kids)},)")
            nodes.append(node)
        index[node] = name
        return name

    results = [emit(e) for e in exprs]
    if tail == "kernel":
        (r,) = results
        if not free_symbols(exprs[0]):  # a constant still fills the arguments' shape
            r = f"_full(_np_shape(a[0]), {r})"
        body = "".join(f"    {line}\n" for line in lines)
        src = f"def _f(*a):\n{body}    return {r}\n"
    else:
        body = "\n".join("        " + line for line in lines or ["pass"])
        if tail == "explain":
            ret = "return None"
        else:
            # one row per result, broadcast to the arguments' shape
            rows = "".join(f"\n    out[{i}] = {r}" for i, r in enumerate(results))
            ret = (f"out = _empty(({len(results)},) + _shape(*map(_np_shape, a))){rows}\n"
                   "    return tuple(out), ~_isfinite(out).all(axis=0)")
        src = f"def _f(*a):\n    with _errstate(all='ignore'):\n{body}\n    {ret}\n"
    exec(compile(src, "<expr-compile>", "exec"), ns)
    return ns["_f"], nodes


def compile_exprs(exprs: Iterable[Expr], argnames: Iterable[str]) -> Callable[..., tuple]:
    """Compile expressions into one positional-argument numpy function.

    The arguments are broadcastable arrays (or scalars), one per name in
    ``argnames``.  The function returns ``(values, mask)``: a tuple with one
    array per expression, broadcast to the arguments' common shape, and a
    boolean array of that shape that is True at every point where some
    value is undefined (ln of a non-positive number, sqrt of a negative one,
    a negative base with a non-integer exponent, zero to a negative power,
    overflow, or any other non-finite value).  Values at masked points are
    meaningless.  Shared subtrees are evaluated once.
    """
    return _codegen(list(exprs), list(argnames))[0]


def compile_kernel(e: Expr, argnames: Iterable[str]) -> Callable[..., np.ndarray]:
    """Compile one expression into a bare numpy kernel for a hot loop.

    The arguments are arrays of one shape, one per name in ``argnames``,
    and the kernel returns the value array alone, in that shape (it may be
    an argument itself, when ``e`` is a bare symbol).  It sets no error
    state and computes no mask: the caller holds ``np.errstate`` and tests
    the values, which are non-finite exactly where compile_exprs' mask is
    set.
    """
    return _codegen([e], list(argnames), tail="kernel")[0]


@functools.lru_cache(maxsize=8)
def _compiled(exprs: tuple, argnames: tuple) -> Callable[..., tuple]:
    return compile_exprs(exprs, argnames)


class Form(NamedTuple):
    """Expressions compiled once for every value of their parameters (see
    `compile_form`): ``fn`` takes the ``lead`` arguments, then the
    parameters, every other free symbol, in sorted order."""

    fn: Callable[..., tuple]
    argnames: tuple[str, ...]
    exprs: tuple[Expr, ...]
    lead: int

    def bind(self, args: Sequence, params: Mapping[str, float] | None) -> list:
        """The arguments of ``fn``: ``args`` for the lead names, then the
        parameters' values from ``params`` as floats (extra keys ignored)."""
        names = self.argnames[self.lead:]
        missing = [name for name in names if name not in (params or {})]
        if missing:
            raise ValueError(f"unbound parameters {missing}; pass params=")
        return [*args, *(float(params[name]) for name in names)]

    def values(self, args: Sequence, params: Mapping[str, float] | None) -> tuple:
        """`evaluate_many` of the expressions at the points ``args`` with
        the parameters bound: the first undefined point raises DomainError."""
        bound = self.bind(args, params)
        values, mask = self.fn(*bound)
        _raise_at_first(mask, self.exprs, self.argnames, bound)
        return values

    def max_scaled_residual(self, args: Sequence, params: Mapping[str, float] | None) -> float:
        """The maximum over the points ``args`` of |sum| / max(1, max |summand|),
        the expressions being the summands; an undefined one raises DomainError."""
        (res,), _ = scale_residuals(self.values(args, params), len(self.exprs))
        return float(np.max(res, initial=0.0))


def compile_form(exprs: Iterable[Expr], lead: Sequence[str]) -> Form:
    """Compile ``exprs`` with the ``lead`` names as the first arguments and
    their remaining free symbols, the parameters, after them, so that one
    compiled function serves every parameter value."""
    exprs = tuple(exprs)
    params = set().union(*map(free_symbols, exprs)) - set(lead)
    argnames = tuple(lead) + tuple(sorted(params))
    return Form(compile_exprs(exprs, argnames), argnames, exprs, len(lead))


def _raise_at_first(mask: np.ndarray, exprs: Sequence[Expr], names: Sequence[str],
                    args: Sequence) -> None:
    """Raise the DomainError of the first point where ``mask`` is set."""
    if mask.any():
        i = int(np.flatnonzero(mask)[0])
        raise _domain_error(exprs, names, [np.broadcast_to(a, mask.shape).flat[i] for a in args])


def _domain_error(exprs: Sequence[Expr], argnames: Sequence[str], point: Sequence[float]) -> DomainError:
    """The DomainError for one point where ``exprs`` are undefined, naming
    the first subexpression that fails there."""
    fn, nodes = _codegen(list(exprs), list(argnames), tail="explain")
    hit = fn(*point)
    if hit is None:
        return DomainError("non-finite value", "; ".join(to_str(e) for e in exprs))
    node, kids = nodes[hit[0]], [float(v) for v in hit[1]]
    return DomainError(_failure(node, kids), to_str(node))


def _failure(node: Expr, kids: list[float]) -> str:
    if not all(np.isfinite(kids)):
        return "non-finite argument"
    if node.op == "call" and node.args[0] == "ln" and kids[0] <= 0:
        return f"ln of non-positive value {kids[0]!r}"
    if node.op == "call" and node.args[0] == "sqrt" and kids[0] < 0:
        return f"sqrt of negative value {kids[0]!r}"
    if node.op == "call" and node.args[0] == "exp":
        return f"overflow in exp({kids[0]!r})"
    if node.op == "pow":
        b, e = kids
        if b < 0 and e != int(e):
            return f"negative base {b!r} with non-integer exponent {e!r}"
        if b == 0 and e < 0:
            return "zero raised to a negative power"
        return "overflow in power"
    return "overflow to infinity"
