"""Small mathematical expression language for metric components.

Sources are parsed over a declared symbol list (coordinate and parameter
names) into immutable trees; evaluation is pure.  Parsing is hash-consed:
structurally identical subtrees come back as one shared node, so a
printed DAG parses back into a DAG.  Named definitions
(:func:`parse_definitions`) let a source refer to a shared subexpression
by name; :func:`to_shared_sources` prints a family of trees that way,
each shared node once.  The same trees serve
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
from typing import Collection, NoReturn, Sequence, Union

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
    "parse_definitions",
    "to_source",
    "to_shared_sources",
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
]

FUNCTIONS = frozenset(
    {"sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt"}
)
# Longest expression text quoted in an error: a shared DAG can expand to
# text exponentially longer than its node count.
CULPRIT_CHARS = 200
# Deepest nesting a definition may reach, counted through the definitions
# it uses.  The tree walks recurse, up to two frames per level, so this
# keeps them inside Python's default recursion limit of 1000; lifted
# charts nest 77 levels deep at dense m=6.
MAX_DEFINITION_DEPTH = 256


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    """Parse failure; ``offset`` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the real domain (or the float range) of the
    subexpression ``node``, quoted at most ``CULPRIT_CHARS`` long."""

    def __init__(self, message: str, node: "ExprAst"):
        culprit = to_source(node, limit=CULPRIT_CHARS)
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


def _children(e: ExprAst) -> tuple:
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    return ()


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
    def __init__(self, source: str, symbols: Sequence[str], table: dict, names: dict):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.symbols = {name: i for i, name in enumerate(symbols)}
        self.table = table
        self.names = names

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
        if index is not None:
            return self.node((Sym, index, text), Sym, index, text)
        if text not in self.names:
            self.fail(f"unknown identifier '{text}'", pos)
        node = self.names[text]
        if node is None:
            self.fail(f"'{text}' is used before its definition", pos)
        return node


def parse_expression(
    source: str,
    symbols: Sequence[str],
    table: dict | None = None,
    names: dict | None = None,
) -> ExprAst:
    """Parse ``source`` over the declared ``symbols`` (order fixes indices).

    Structurally identical subtrees come back as one shared node, so the
    identity-keyed memos of :func:`evaluate` and :func:`to_source` see
    each of them once.  ``table`` holds the nodes built so far; pass one
    dict when parsing a family of related sources over the same
    ``symbols`` to share subtrees between them too.  ``names`` maps
    further identifiers to nodes of ``table`` (see
    :func:`parse_definitions`); a name mapped to None is not defined yet."""
    if not symbols:
        raise ValueError("symbol list must be nonempty")
    if len(set(symbols)) != len(symbols):
        raise ValueError("symbol names must be distinct")
    return _Parser(
        source, symbols, {} if table is None else table, {} if names is None else names
    ).parse()


_NAME_RE = re.compile(_NAME)


def _depth(e: ExprAst, depths: dict) -> int:
    """Nesting depth of ``e``; ``depths`` (by node identity) holds the
    nodes measured so far, so a family costs its unique nodes once."""
    stack = [e]
    while stack:
        node = stack[-1]
        if id(node) in depths:
            stack.pop()
            continue
        kids = _children(node)
        todo = [k for k in kids if id(k) not in depths]
        if todo:
            stack += todo
            continue
        depths[id(node)] = 1 + max((depths[id(k)] for k in kids), default=0)
        stack.pop()
    return depths[id(e)]


def parse_definitions(
    pairs: Sequence[tuple[str, str]], symbols: Sequence[str], table: dict
) -> dict:
    """Parse named definitions ``(name, source)``, in order, into ``table``.

    Each source is over ``symbols`` and the names defined before it, and a
    name stands for its definition's node: text that uses the names parses
    to the very nodes of its expansion.  Returns the ``names`` mapping for
    :func:`parse_expression`.  Every error message names the definition."""
    names: dict = {}
    for name, _ in pairs:
        if not _NAME_RE.fullmatch(name):
            raise ExprError(f"definition name {name!r} is not an identifier")
        if name in symbols:
            raise ExprError(f"definition '{name}' is named like a coordinate")
        if name in FUNCTIONS:
            raise ExprError(f"definition '{name}' is named like a function")
        if name in names:
            raise ExprError(f"definition '{name}' is given more than once")
        names[name] = None
    depths: dict = {}
    for name, source in pairs:
        try:
            node = parse_expression(source, symbols, table, names)
        except ExprSyntaxError as err:
            raise ExprError(f"in definition '{name}': {err}") from None
        except RecursionError:
            raise ExprError(f"definition '{name}' is nested too deeply to parse") from None
        depth = _depth(node, depths)
        if depth > MAX_DEFINITION_DEPTH:
            raise ExprError(
                f"definition '{name}' nests {depth} levels deep, over the "
                f"limit of {MAX_DEFINITION_DEPTH}"
            )
        names[name] = node
    return names


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


class _Renderer:
    """The printer behind :func:`to_source` and :func:`to_shared_sources`:
    called on a node, renders it to ``(text, precedence)``, once per node
    identity.  ``define(node, text)`` may return a name to print the node
    as.  A class rather than recursive closures, which would form a
    reference cycle holding ``memo`` past the call."""

    def __init__(self, memo: dict, limit: int | None = None, define=None):
        self.memo = memo
        self.keep = None if limit is None else limit + 1
        self.define = define

    def wrap(self, child: ExprAst, minimum: int) -> str:
        s, prec = self(child)
        return f"({s})" if prec < minimum else s

    def __call__(self, node: ExprAst) -> tuple[str, int]:
        got = self.memo.get(id(node))
        if got is not None:
            return got
        wrap = self.wrap
        if isinstance(node, Num):
            s = _fmt_num(node.value)
        elif isinstance(node, Sym):
            s = node.name
        elif isinstance(node, Neg):
            s = "-" + wrap(node.arg, _PREC_UNARY)
        elif isinstance(node, Call):
            s = f"{node.fn}({self(node.arg)[0]})"
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
        if self.keep is not None:
            # the first ``keep`` characters of a parent only ever need the
            # first ``keep`` of each child
            s = s[: self.keep]
        name = None if self.define is None else self.define(node, s)
        got = self.memo[id(node)] = (s, _prec(node)) if name is None else (name, _PREC_ATOM)
        return got


def to_source(e: ExprAst, memo: dict | None = None, limit: int | None = None) -> str:
    """Render a tree back to parseable source text.  ``memo`` (by node
    identity) renders each shared node once; pass one dict when printing a
    family of related trees.  With ``limit``, text past ``limit``
    characters is cut and marked with "...", and no node is rendered
    longer than that, so the cost stays linear in the DAG however long
    its expansion is."""
    text = _Renderer({} if memo is None else memo, limit)(e)[0]
    if limit is not None and len(text) > limit:
        text = text[:limit] + "..."
    return text


def to_shared_sources(
    roots: Sequence[ExprAst], reserved: Collection[str]
) -> tuple[list[list[str]], list[str]]:
    """Print a family of trees with each shared node once.

    Every non-leaf node referenced more than once (by parents or as a
    root) becomes a definition ``[name, source]``, listed in post-order so
    each uses only earlier names.  Returns ``(definitions, sources of
    roots)``; :func:`parse_definitions` and :func:`parse_expression` read
    them back into the nodes of the expanded text.  Names are ``t1, t2,
    ...``, with the prefix lengthened until no name can equal one of
    ``reserved`` or a function name."""
    refs: dict = {}  # parent-child edges (and root slots) into each node
    stack = list(roots)
    while stack:
        node = stack.pop()
        key = id(node)
        if key in refs:
            refs[key] += 1
        else:
            refs[key] = 1
            stack += _children(node)
    prefix = "t"
    taken = set(reserved) | FUNCTIONS
    while any(re.fullmatch(prefix + r"\d+", name) for name in taken):
        prefix += "_"
    definitions: list = []

    def define(node: ExprAst, text: str) -> str | None:
        if refs[id(node)] == 1 or isinstance(node, (Num, Sym)):
            return None
        name = f"{prefix}{len(definitions) + 1}"
        definitions.append([name, text])
        return name

    render = _Renderer({}, define=define)
    sources = [render(r)[0] for r in roots]
    return definitions, sources


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


def differentiate(e: ExprAst, index: int, memo: dict | None = None) -> ExprAst:
    """Exact partial derivative with respect to the symbol at ``index``.
    ``memo`` (by node identity and index) differentiates each shared node
    once, so the cost is linear in the DAG; pass one dict when
    differentiating a family of related trees."""
    if memo is None:
        memo = {}

    def d(node: ExprAst) -> ExprAst:
        key = (id(node), index)
        got = memo.get(key)
        if got is not None:
            return got[1]
        if isinstance(node, Num):
            r = Num(0.0)
        elif isinstance(node, Sym):
            r = Num(1.0 if node.index == index else 0.0)
        elif isinstance(node, Neg):
            r = neg(d(node.arg))
        elif isinstance(node, Call):
            r = mul(_DERIV_BUILDERS[node.fn](node.arg), d(node.arg))
        elif isinstance(node, Binary):
            a, b = node.left, node.right
            da, db = d(a), d(b)
            if node.op == "+":
                r = add(da, db)
            elif node.op == "-":
                r = sub(da, db)
            elif node.op == "*":
                r = add(mul(da, b), mul(a, db))
            elif node.op == "/":
                r = sub(div(da, b), div(mul(a, db), power(b, const(2.0))))
            else:
                ev = _constant_exponent(b)
                if ev is not None:
                    # d(a^c) = c * a^(c-1) * a'
                    r = mul(mul(const(ev), power(a, const(ev - 1.0))), da)
                else:
                    # d(a^b) = a^b * (b' log a + b a'/a)
                    r = mul(node, add(mul(db, func("log", a)), div(mul(b, da), a)))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        # the node is kept with its derivative so its id stays taken
        memo[key] = (node, r)
        return r

    try:
        return d(e)
    finally:
        del d  # d refers to itself: unbinding it frees the walk and memo now


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
            raise EvalDomainError(str(err), node) from err
    v = np.asarray(x, dtype=float)
    if name == "log" and np.any(v <= 0.0):
        raise EvalDomainError("log of non-positive value", node)
    if name == "sqrt" and np.any(v < 0.0):
        raise EvalDomainError("sqrt of negative value", node)
    scalar_fn, array_fn = _MATH_FNS[name]
    if isinstance(x, (int, float)):
        try:
            return scalar_fn(x)
        except OverflowError:
            raise EvalDomainError(f"{name} overflows the float range", node) from None
    return array_fn(v)


def _int_power(base, n: int, node: ExprAst):
    # repeated multiplication keeps negative bases legal for integer powers
    if n == 0:
        return 1.0
    if n < 0:
        if np.any(np.asarray(_value_of(base)) == 0.0):
            raise EvalDomainError("zero raised to a negative power", node)
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
        raise EvalDomainError("non-integer power of a non-positive base", node)
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
                        raise EvalDomainError("division by zero", node)
                    r = a / b
        memo[key] = r
        return r

    try:
        return ev(expr)
    except JetDomainError as err:  # pragma: no cover - defensive
        raise EvalDomainError(str(err), expr) from err
    finally:
        del ev  # ev refers to itself: unbinding it frees the walk and memo now


def eval_value(expr: ExprAst, point) -> float:
    """Plain value at a point (no derivatives)."""
    pt = np.asarray(point, dtype=float)
    out = evaluate(expr, list(pt) if pt.ndim == 1 else [pt[..., i] for i in range(pt.shape[-1])])
    return out


def eval_jet2(expr: ExprAst, point) -> Jet2:
    """Value, gradient and Hessian at a point, all exact; full width
    (``grad[..., k]`` is the derivative in variable ``k``)."""
    pt = np.asarray(point, dtype=float)
    m = pt.shape[-1]
    env = [Jet2.coordinate(pt[..., i], i) for i in range(m)]
    return as_jet2(evaluate(expr, env), pt.shape[:-1], m)
