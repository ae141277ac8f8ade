"""Small mathematical expression language for metric components.

Sources are parsed over a declared symbol list (coordinate and parameter
names) into immutable trees; evaluation is pure.  Parsing is hash-consed:
structurally identical subtrees come back as one shared node, so a
printed DAG parses back into a DAG.  The same trees serve
plain float evaluation, jet evaluation (exact first/second derivatives,
see :mod:`metriclift.jets`) and symbolic assembly of derived expressions
such as Christoffel symbols of lifted metrics.

Grammar, in decreasing precedence::

    atom     NUMBER | SYMBOL | func '(' expr ')' | '(' expr ')'
    power    atom ['^' unary]          # right-associative
    unary    '-' unary | power
    term     unary (('*' | '/') unary)*
    expr     term (('+' | '-') term)*

Numbers are decimal or scientific; built-in functions are
sin cos tan sinh cosh tanh exp log sqrt, all unary.

Powers with a constant integer exponent are evaluated by repeated
multiplication (so negative bases are fine); any other exponent goes
through exp(b*log(a)) and requires a positive base at evaluation time.
No simplification beyond folding of 0/1/constant operands is performed;
correctness rests on evaluation, not on normal forms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NoReturn, Sequence, Union

import numpy as np

from .jets import Jet2, JetDomainError, as_jet2

__all__ = [
    "ExprAst",
    "Num",
    "Sym",
    "Neg",
    "Binary",
    "Call",
    "ExprError",
    "ExprSyntaxError",
    "EvalDomainError",
    "FUNCTIONS",
    "parse_expression",
    "to_source",
    "evaluate",
    "eval_value",
    "eval_jet2",
    "differentiate",
    "const",
    "sym",
    "add",
    "sub",
    "mul",
    "div",
    "power",
    "neg",
    "func",
    "tree_size",
]

FUNCTIONS = frozenset(
    {"sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt"}
)


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    """Parse failure; ``offset`` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the real domain (or the float range) of some
    subexpression."""

    def __init__(self, message: str, culprit: str):
        super().__init__(f"{message} in '{culprit}'")
        self.culprit = culprit


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Sym:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"


ExprAst = Union[Num, Sym, Neg, Binary, Call]


# ---------------------------------------------------------------------------
# parsing

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_VALID_TOKEN_RE = re.compile(rf"{_NUMBER}|{_NAME}|[-+*/^(),]")
# Every non-space character starts a match, so one findall pass sees the
# whole source; a character that starts no valid token comes out alone.
_TOKEN_RE = re.compile(rf"\s*({_NUMBER}|{_NAME}|[-+*/^(),]|\S)")
_OPS = frozenset("-+*/^(),")


def _tokenize(source: str) -> list[str]:
    """Token texts in order, closed by "" for the end of input."""
    tokens = _TOKEN_RE.findall(source)
    bad = [t for t in set(tokens) if not _VALID_TOKEN_RE.fullmatch(t)]
    if bad:
        pos = min(tokens.index(t) for t in bad)
        raise ExprSyntaxError(
            f"unexpected character {tokens[pos]!r}", _token_offset(source, pos)
        )
    tokens.append("")
    return tokens


def _token_offset(source: str, pos: int) -> int:
    # offsets are only needed for errors, so they are found again then
    starts = [m.start(1) for m in _TOKEN_RE.finditer(source)]
    return starts[pos] if pos < len(starts) else len(source)


class _Parser:
    def __init__(self, source: str, symbols: Sequence[str], table: dict):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.symbols = {name: i for i, name in enumerate(symbols)}
        self.table = table

    def node(self, key: tuple, cls, *fields) -> ExprAst:
        # hash-consing: one node per key.  Children are interned first, so
        # their ids identify them; the table holds every node it returned,
        # which keeps those ids from being reused.
        got = self.table.get(key)
        if got is None:
            got = self.table[key] = cls(*fields)
        return got

    def fail(self, message: str, pos: int) -> NoReturn:
        raise ExprSyntaxError(message, _token_offset(self.source, pos))

    def expect(self, op: str):
        if self.tokens[self.pos] != op:
            self.fail(f"expected {op!r}", self.pos)
        self.pos += 1

    def parse(self) -> ExprAst:
        e = self.expr()
        text = self.tokens[self.pos]
        if text:
            self.fail(f"unexpected trailing input {text!r}", self.pos)
        return e

    def expr(self) -> ExprAst:
        left = self.term()
        while True:
            op = self.tokens[self.pos]
            if op != "+" and op != "-":
                return left
            self.pos += 1
            right = self.term()
            left = self.node((Binary, op, id(left), id(right)), Binary, op, left, right)

    def term(self) -> ExprAst:
        left = self.unary()
        while True:
            op = self.tokens[self.pos]
            if op != "*" and op != "/":
                return left
            self.pos += 1
            right = self.unary()
            left = self.node((Binary, op, id(left), id(right)), Binary, op, left, right)

    def unary(self) -> ExprAst:
        if self.tokens[self.pos] == "-":
            self.pos += 1
            arg = self.unary()
            return self.node((Neg, id(arg)), Neg, arg)
        return self.power()

    def power(self) -> ExprAst:
        base = self.atom()
        if self.tokens[self.pos] == "^":
            self.pos += 1
            expo = self.unary()
            return self.node((Binary, "^", id(base), id(expo)), Binary, "^", base, expo)
        return base

    def atom(self) -> ExprAst:
        pos = self.pos
        text = self.tokens[pos]
        self.pos = pos + 1
        if text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if not text:
            self.fail("unexpected end of input", pos)
        if text in _OPS:
            self.fail(f"unexpected token {text!r}", pos)
        if not text.isidentifier():
            value = float(text)
            # float.hex keeps distinct floats (0.0 and -0.0 too) apart
            return self.node((Num, value.hex()), Num, value)
        if self.tokens[self.pos] == "(":
            if text not in FUNCTIONS:
                self.fail(f"unknown function '{text}'", pos)
            self.pos += 1
            arg = self.expr()
            if self.tokens[self.pos] == ",":
                self.fail(f"function '{text}' takes exactly one argument", self.pos)
            self.expect(")")
            return self.node((Call, text, id(arg)), Call, text, arg)
        index = self.symbols.get(text)
        if index is None:
            self.fail(f"unknown identifier '{text}'", pos)
        return self.node((Sym, index, text), Sym, index, text)


def parse_expression(
    source: str, symbols: Sequence[str], table: dict | None = None
) -> ExprAst:
    """Parse ``source`` over the declared ``symbols`` (order fixes indices).

    Structurally identical subtrees come back as one shared node, so the
    identity-keyed memos of :func:`evaluate` and :func:`to_source` see
    each of them once.  ``table`` holds the nodes built so far; pass one
    dict when parsing a family of related sources over the same
    ``symbols`` to share subtrees between them too."""
    if not symbols:
        raise ValueError("symbol list must be nonempty")
    if len(set(symbols)) != len(symbols):
        raise ValueError("symbol names must be distinct")
    return _Parser(source, symbols, {} if table is None else table).parse()


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: ExprAst) -> int:
    if isinstance(e, Binary):
        return {"+": _PREC_ADD, "-": _PREC_ADD, "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[e.op]
    if isinstance(e, Neg):
        return _PREC_UNARY
    if isinstance(e, Num) and e.value < 0:
        return _PREC_UNARY
    return _PREC_ATOM


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: ExprAst, memo: dict | None = None) -> str:
    """Render a tree back to parseable source text.  ``memo`` (by node
    identity) renders each shared node once; pass one dict when printing
    a family of related trees."""
    if memo is None:
        memo = {}

    def wrap(child: ExprAst, minimum: int) -> str:
        s = render(child)
        return f"({s})" if _prec(child) < minimum else s

    def render(node: ExprAst) -> str:
        key = id(node)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(node, Num):
            s = _fmt_num(node.value)
        elif isinstance(node, Sym):
            s = node.name
        elif isinstance(node, Neg):
            s = "-" + wrap(node.arg, _PREC_UNARY)
        elif isinstance(node, Call):
            s = f"{node.fn}({render(node.arg)})"
        elif isinstance(node, Binary):
            if node.op in "+-":
                s = f"{wrap(node.left, _PREC_ADD)} {node.op} {wrap(node.right, _PREC_ADD + 1)}"
            elif node.op in "*/":
                s = f"{wrap(node.left, _PREC_MUL)}{node.op}{wrap(node.right, _PREC_MUL + 1)}"
            else:
                # power: right-associative, left operand must be atomic
                s = f"{wrap(node.left, _PREC_ATOM)}^{wrap(node.right, _PREC_UNARY)}"
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[key] = s
        return s

    return render(e)


# ---------------------------------------------------------------------------
# symbolic construction helpers (used to assemble lifted metrics)


def const(v: float) -> Num:
    return Num(float(v))


def sym(index: int, name: str) -> Sym:
    return Sym(index, name)


def _num(e: ExprAst) -> float | None:
    return e.value if isinstance(e, Num) else None


def add(a: ExprAst, b: ExprAst) -> ExprAst:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None:
        return Num(av + bv)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    return Binary("+", a, b)


def sub(a: ExprAst, b: ExprAst) -> ExprAst:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None:
        return Num(av - bv)
    if bv == 0.0:
        return a
    if av == 0.0:
        return neg(b)
    return Binary("-", a, b)


def neg(a: ExprAst) -> ExprAst:
    av = _num(a)
    if av is not None:
        return Num(-av)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: ExprAst, b: ExprAst) -> ExprAst:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None:
        return Num(av * bv)
    if av == 0.0 or bv == 0.0:
        return Num(0.0)
    if av == 1.0:
        return b
    if bv == 1.0:
        return a
    return Binary("*", a, b)


def div(a: ExprAst, b: ExprAst) -> ExprAst:
    av, bv = _num(a), _num(b)
    if av == 0.0:
        return Num(0.0)
    if bv == 1.0:
        return a
    if av is not None and bv is not None and bv != 0.0:
        return Num(av / bv)
    return Binary("/", a, b)


def power(a: ExprAst, b: ExprAst) -> ExprAst:
    bv = _num(b)
    if bv == 1.0:
        return a
    if bv == 0.0:
        return Num(1.0)
    return Binary("^", a, b)


def func(fn: str, arg: ExprAst) -> ExprAst:
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function '{fn}'")
    return Call(fn, arg)


def tree_size(e: ExprAst, _memo=None) -> int:
    """Printed-tree size (number of nodes after expansion of shared
    subtrees); linear in the number of unique nodes."""
    memo = {} if _memo is None else _memo
    key = id(e)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(e, (Num, Sym)):
        n = 1
    elif isinstance(e, Neg):
        n = 1 + tree_size(e.arg, memo)
    elif isinstance(e, Call):
        n = 1 + tree_size(e.arg, memo)
    else:
        n = 1 + tree_size(e.left, memo) + tree_size(e.right, memo)
    memo[key] = n
    return n


# ---------------------------------------------------------------------------
# differentiation (symbolic; used only when assembling lifted charts)

_DERIV_BUILDERS = {
    "sin": lambda a: func("cos", a),
    "cos": lambda a: neg(func("sin", a)),
    "tan": lambda a: div(const(1.0), power(func("cos", a), const(2.0))),
    "sinh": lambda a: func("cosh", a),
    "cosh": lambda a: func("sinh", a),
    "tanh": lambda a: sub(const(1.0), power(func("tanh", a), const(2.0))),
    "exp": lambda a: func("exp", a),
    "log": lambda a: div(const(1.0), a),
    "sqrt": lambda a: div(const(0.5), func("sqrt", a)),
}


def differentiate(e: ExprAst, index: int) -> ExprAst:
    """Exact partial derivative with respect to the symbol at ``index``."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Sym):
        return Num(1.0 if e.index == index else 0.0)
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, index))
    if isinstance(e, Call):
        return mul(_DERIV_BUILDERS[e.fn](e.arg), differentiate(e.arg, index))
    if isinstance(e, Binary):
        da, db = differentiate(e.left, index), differentiate(e.right, index)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        if e.op == "/":
            return sub(div(da, e.right), div(mul(e.left, db), power(e.right, const(2.0))))
        # a^b
        ev = _constant_exponent(e.right)
        if ev is not None:
            # d(a^c) = c * a^(c-1) * a'
            return mul(mul(const(ev), power(e.left, const(ev - 1.0))), da)
        # d(a^b) = a^b * (b' log a + b a'/a)
        return mul(e, add(mul(db, func("log", e.left)), div(mul(e.right, da), e.left)))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

_MATH_FNS = {
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "tan": (math.tan, np.tan),
    "sinh": (math.sinh, np.sinh),
    "cosh": (math.cosh, np.cosh),
    "tanh": (math.tanh, np.tanh),
    "exp": (math.exp, np.exp),
    "log": (math.log, np.log),
    "sqrt": (math.sqrt, np.sqrt),
}


def _value_of(x):
    return x.value if isinstance(x, Jet2) else x


def _apply_fn(name: str, x, node: ExprAst):
    if isinstance(x, Jet2):
        try:
            return getattr(x, name)()
        except JetDomainError as err:
            raise EvalDomainError(str(err), to_source(node)) from err
    v = np.asarray(x, dtype=float)
    if name == "log" and np.any(v <= 0.0):
        raise EvalDomainError("log of non-positive value", to_source(node))
    if name == "sqrt" and np.any(v < 0.0):
        raise EvalDomainError("sqrt of negative value", to_source(node))
    scalar_fn, array_fn = _MATH_FNS[name]
    if isinstance(x, (int, float)):
        try:
            return scalar_fn(x)
        except OverflowError:
            raise EvalDomainError(f"{name} overflows the float range", to_source(node)) from None
    return array_fn(v)


def _int_power(base, n: int, node: ExprAst):
    # repeated multiplication keeps negative bases legal for integer powers
    if n == 0:
        return 1.0
    if n < 0:
        if np.any(np.asarray(_value_of(base)) == 0.0):
            raise EvalDomainError("zero raised to a negative power", to_source(node))
        return 1.0 / _int_power(base, -n, node)
    result = None
    square = base
    while n:
        if n & 1:
            result = square if result is None else result * square
        square = square * square if n > 1 else square
        n >>= 1
    return result


def _general_power(base, expo, node: ExprAst):
    bval = np.asarray(_value_of(base))
    if np.any(bval <= 0.0):
        raise EvalDomainError(
            "non-integer power of a non-positive base", to_source(node)
        )
    return _apply_fn("exp", expo * _apply_fn("log", base, node), node)


def _constant_exponent(e: ExprAst) -> float | None:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Num):
        return -e.arg.value
    return None


def evaluate(expr: ExprAst, env: Sequence, memo: dict | None = None):
    """Evaluate over operands supporting arithmetic (floats, arrays or
    jets).  ``memo`` (by node identity) lets shared subtrees of assembled
    expressions be computed once; pass one dict when evaluating a family
    of related trees."""
    if memo is None:
        memo = {}

    def ev(node: ExprAst):
        key = id(node)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(node, Num):
            r = node.value
        elif isinstance(node, Sym):
            if node.index >= len(env):
                raise ExprError(
                    f"point has {len(env)} entries but symbol "
                    f"'{node.name}' has index {node.index}"
                )
            r = env[node.index]
        elif isinstance(node, Neg):
            r = -ev(node.arg)
        elif isinstance(node, Call):
            r = _apply_fn(node.fn, ev(node.arg), node)
        else:
            op = node.op
            if op == "^":
                c = _constant_exponent(node.right)
                if c is None:
                    c = ev(node.right)
                    if isinstance(c, (int, float)) and float(c).is_integer():
                        c = float(c)  # exponent evaluated to a plain integer
                    else:
                        r = _general_power(ev(node.left), c, node)
                        memo[key] = r
                        return r
                if float(c).is_integer():
                    r = _int_power(ev(node.left), int(c), node)
                else:
                    r = _general_power(ev(node.left), ev(node.right), node)
            else:
                a = ev(node.left)
                if op == "+":
                    r = a + ev(node.right)
                elif op == "-":
                    r = a - ev(node.right)
                elif op == "*":
                    r = a * ev(node.right)
                else:
                    b = ev(node.right)
                    if np.any(np.asarray(_value_of(b)) == 0.0):
                        raise EvalDomainError("division by zero", to_source(node))
                    r = a / b
        memo[key] = r
        return r

    try:
        return ev(expr)
    except JetDomainError as err:  # pragma: no cover - defensive
        raise EvalDomainError(str(err), to_source(expr)) from err


def eval_value(expr: ExprAst, point) -> float:
    """Plain value at a point (no derivatives)."""
    pt = np.asarray(point, dtype=float)
    out = evaluate(expr, list(pt) if pt.ndim == 1 else [pt[..., i] for i in range(pt.shape[-1])])
    return out


def eval_jet2(expr: ExprAst, point) -> Jet2:
    """Value, gradient and Hessian at a point, all exact."""
    pt = np.asarray(point, dtype=float)
    m = pt.shape[-1]
    env = [Jet2.variable(pt[..., i], i, m) for i in range(m)]
    return as_jet2(evaluate(expr, env), pt.shape[:-1], m)
