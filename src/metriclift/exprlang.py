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


class _Node:
    # source text, cut: a dataclass repr would expand a shared DAG as a tree
    def __repr__(self) -> str:
        return to_source(self, limit=CULPRIT_CHARS)


@dataclass(frozen=True, repr=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, repr=False)
class Sym(_Node):
    index: int
    name: str


@dataclass(frozen=True, repr=False)
class Neg(_Node):
    arg: "ExprAst"


@dataclass(frozen=True, repr=False)
class Binary(_Node):
    op: str  # one of + - * / ^
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True, repr=False)
class Call(_Node):
    fn: str
    arg: "ExprAst"


ExprAst = Union[Num, Sym, Neg, Binary, Call]


def _children(e: ExprAst) -> tuple:
    if isinstance(e, Binary):
        return (e.left, e.right)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    return ()


def _postorder(roots: Sequence, done) -> list:
    """The nodes under ``roots`` whose ids are not in ``done``, each once,
    children before parents, left before right and earlier roots first.
    Every walk over a DAG is a loop over this list, so no nesting is too
    deep for them."""
    order: list = []
    seen: set = set()
    stack = list(reversed(roots))
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        if node is None:  # marks that the node below has its children listed
            order.append(pop())
            continue
        key = id(node)
        if key in seen or key in done:
            continue
        seen.add(key)
        t = type(node)
        if t is Binary:
            push(node)
            push(None)
            push(node.right)
            push(node.left)
        elif t is Neg or t is Call:
            push(node)
            push(None)
            push(node.arg)
        else:
            order.append(node)
    return order


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


# precedence of each binary operator token; unary minus is 3, between
# ``* /`` and ``^``
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG = (3, "neg")


def _symbol_index(symbols: Sequence[str]) -> dict:
    """Name -> index of each declared symbol, for :class:`_Parser`; built
    once per symbol list, however many sources are parsed over it."""
    if not symbols:
        raise ValueError("symbol list must be nonempty")
    index = {name: i for i, name in enumerate(symbols)}
    if len(index) != len(symbols):
        raise ValueError("symbol names must be distinct")
    return index


class _Parser:
    def __init__(self, source: str, symbols: dict, table: dict, names: dict):
        self.source = source
        self.tokens = _tokenize(source)
        self.symbols = symbols
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

    def reduce(self, operands: list, op: str) -> None:
        # replace the operand(s) on top of the stack by their ``op`` node
        right = operands.pop()
        if op == "neg":
            operands.append(self.node((Neg, id(right)), Neg, right))
        else:
            left = operands.pop()
            operands.append(self.node((Binary, op, id(left), id(right)), Binary, op, left, right))

    def parse(self) -> ExprAst:
        """One operator-precedence pass over the tokens, so no nesting is
        too deep for it."""
        tokens, symbols, names, node = self.tokens, self.symbols, self.names, self.node
        operands: list = []
        # pending (precedence, operator) pairs; an open bracket is (0, "(")
        # or (0, function name), so no operator reduces past it
        ops: list = []
        pos = 0
        while True:
            # an operand is due: unary minuses and open brackets, then an atom
            text = tokens[pos]
            pos += 1
            if text == "-" or text == "(":
                ops.append(_NEG if text == "-" else (0, text))
                continue
            if not text:
                self.fail("unexpected end of input", pos - 1)
            if text in _OPS:
                self.fail(f"unexpected token {text!r}", pos - 1)
            if not text.isidentifier():
                value = float(text)
                if not math.isfinite(value):
                    self.fail(f"number {text!r} is out of the float range", pos - 1)
                # float.hex keeps distinct floats (0.0 and -0.0 too) apart
                operands.append(node((Num, value.hex()), Num, value))
            elif tokens[pos] == "(":
                if text not in FUNCTIONS:
                    self.fail(f"unknown function '{text}'", pos - 1)
                ops.append((0, text))
                pos += 1
                continue
            elif text in symbols:
                index = symbols[text]
                operands.append(node((Sym, index, text), Sym, index, text))
            elif text not in names:
                self.fail(f"unknown identifier '{text}'", pos - 1)
            elif names[text] is None:
                self.fail(f"'{text}' is used before its definition", pos - 1)
            else:
                operands.append(names[text])
            # an operator is due: close brackets, then a binary operator or the end
            while True:
                text = tokens[pos]
                prec = _BINARY.get(text)
                if prec is not None:
                    break
                while ops and ops[-1][0]:
                    self.reduce(operands, ops.pop()[1])
                if not ops:
                    if text:
                        self.fail(f"unexpected trailing input {text!r}", pos)
                    return operands[0]
                opener = ops.pop()[1]
                if text != ")":
                    if text == "," and opener != "(":
                        self.fail(f"function '{opener}' takes exactly one argument", pos)
                    self.fail("expected ')'", pos)
                if opener != "(":
                    arg = operands.pop()
                    operands.append(node((Call, opener, id(arg)), Call, opener, arg))
                pos += 1
            # ``^`` binds tightest and groups to the right, so it reduces nothing
            if text != "^":
                while ops and ops[-1][0] >= prec:
                    self.reduce(operands, ops.pop()[1])
            ops.append((prec, text))
            pos += 1


def parse_expression(
    source: str,
    symbols: Sequence[str],
    table: dict | None = None,
    names: dict | None = None,
) -> ExprAst:
    """Parse ``source`` over the declared ``symbols`` (order fixes indices).

    Structurally identical subtrees come back as one shared node, so
    :func:`evaluate` and the identity-keyed memo of :func:`to_source` see
    each of them once.  ``table`` holds the nodes built so far; pass one
    dict when parsing a family of related sources over the same
    ``symbols`` to share subtrees between them too.  ``names`` maps
    further identifiers to nodes of ``table`` (see
    :func:`parse_definitions`); a name mapped to None is not defined yet.

    Parsing is one loop over the tokens and every walk over the parsed
    DAG is a loop, so text and names may nest to any depth."""
    return _Parser(
        source,
        _symbol_index(symbols),
        {} if table is None else table,
        {} if names is None else names,
    ).parse()


_NAME_RE = re.compile(_NAME)


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
    index = _symbol_index(symbols)
    for name, source in pairs:
        try:
            node = _Parser(source, index, table, names).parse()
        except ExprSyntaxError as err:
            raise ExprError(f"in definition '{name}': {err}") from None
        names[name] = node
    return names


# ---------------------------------------------------------------------------
# printing

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_num(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v)


def _wrap(rendered: tuple[str, int], minimum: int) -> str:
    s, prec = rendered
    return f"({s})" if prec < minimum else s


def _render(nodes: list, memo: dict, keep: int | None = None, define=None) -> None:
    """The printer behind :func:`to_source` and :func:`to_shared_sources`.
    Renders ``nodes``, listed children first (:func:`_postorder`), to
    ``memo[id(node)] = (text, precedence)``.  With ``keep``, no text is
    longer than ``keep`` characters.  ``define(node, text)`` may return a
    name to print the node as."""
    for node in nodes:
        t = type(node)
        if t is Binary:
            op = node.op
            left, right = memo[id(node.left)], memo[id(node.right)]
            if op in "+-":
                s = f"{_wrap(left, _PREC_ADD)} {op} {_wrap(right, _PREC_ADD + 1)}"
                prec = _PREC_ADD
            elif op in "*/":
                s = f"{_wrap(left, _PREC_MUL)}{op}{_wrap(right, _PREC_MUL + 1)}"
                prec = _PREC_MUL
            else:
                # power: right-associative, left operand must be atomic
                s = f"{_wrap(left, _PREC_ATOM)}^{_wrap(right, _PREC_UNARY)}"
                prec = _PREC_POW
        elif t is Num:
            s = _fmt_num(node.value)
            prec = _PREC_UNARY if node.value < 0 else _PREC_ATOM
        elif t is Sym:
            s, prec = node.name, _PREC_ATOM
        elif t is Neg:
            s, prec = "-" + _wrap(memo[id(node.arg)], _PREC_UNARY), _PREC_UNARY
        elif t is Call:
            s, prec = f"{node.fn}({memo[id(node.arg)][0]})", _PREC_ATOM
        else:
            raise TypeError(f"not an expression node: {node!r}")
        if keep is not None:
            # the first ``keep`` characters of a parent only ever need the
            # first ``keep`` of each child
            s = s[:keep]
        name = None if define is None else define(node, s)
        memo[id(node)] = (s, prec) if name is None else (name, _PREC_ATOM)


def to_source(e: ExprAst, memo: dict | None = None, limit: int | None = None) -> str:
    """Render a tree back to parseable source text.  ``memo`` (by node
    identity) renders each shared node once; pass one dict when printing a
    family of related trees.  With ``limit``, text past ``limit``
    characters is cut and marked with "...", and no node is rendered
    longer than that, so the cost stays linear in the DAG however long
    its expansion is."""
    if memo is None:
        memo = {}
    _render(_postorder([e], memo), memo, None if limit is None else limit + 1)
    text = memo[id(e)][0]
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
    nodes = _postorder(roots, ())
    refs = dict.fromkeys(map(id, nodes), 0)  # parent-child edges and root slots
    for node in nodes:
        for kid in _children(node):
            refs[id(kid)] += 1
    for root in roots:
        refs[id(root)] += 1
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

    memo: dict = {}
    _render(nodes, memo, define=define)
    return definitions, [memo[id(r)][0] for r in roots]


# ---------------------------------------------------------------------------
# symbolic construction helpers (used to assemble lifted metrics)


def const(v: float) -> Num:
    return Num(float(v))


def sym(index: int, name: str) -> Sym:
    return Sym(index, name)


def _num(e: ExprAst) -> float | None:
    # the constant ``e`` stands for, if any; text such as "-2" parses to a
    # negated number
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Num):
        return -e.arg.value
    return None


def _overflow(av: float, op: str, bv: float) -> NoReturn:
    """Refuse to fold ``av op bv``.  Its operands are finite, as every
    number literal is, so a result that is not finite overflowed the float
    range, and the text it would print (``inf``) parses as no number."""
    raise ExprError(
        f"the folded constant {_fmt_num(av)}{op}{_fmt_num(bv)} overflows the float range"
    )


def add(a: ExprAst, b: ExprAst) -> ExprAst:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None:
        v = av + bv
        return Num(v) if math.isfinite(v) else _overflow(av, "+", bv)
    if av == 0.0:
        return b
    if bv == 0.0:
        return a
    return Binary("+", a, b)


def sub(a: ExprAst, b: ExprAst) -> ExprAst:
    av, bv = _num(a), _num(b)
    if av is not None and bv is not None:
        v = av - bv
        return Num(v) if math.isfinite(v) else _overflow(av, "-", bv)
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
        v = av * bv
        return Num(v) if math.isfinite(v) else _overflow(av, "*", bv)
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
        v = av / bv
        return Num(v) if math.isfinite(v) else _overflow(av, "/", bv)
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
    ``memo`` differentiates each shared node once, so the cost is linear
    in the DAG; pass one dict when differentiating a family of related
    trees.  It holds ``memo[index][id(node)] = (node, derivative)``: the
    node is kept with its derivative so that its id stays taken."""
    done = ({} if memo is None else memo).setdefault(index, {})
    for node in _postorder([e], done):
        t = type(node)
        if t is Binary:
            a, b = node.left, node.right
            da, db = done[id(a)][1], done[id(b)][1]
            if node.op == "+":
                r = add(da, db)
            elif node.op == "-":
                r = sub(da, db)
            elif node.op == "*":
                r = add(mul(da, b), mul(a, db))
            elif node.op == "/":
                r = sub(div(da, b), div(mul(a, db), power(b, const(2.0))))
            else:
                ev = _num(b)
                if ev is not None:
                    # d(a^c) = c * a^(c-1) * a'
                    r = mul(mul(const(ev), power(a, const(ev - 1.0))), da)
                else:
                    # d(a^b) = a^b * (b' log a + b a'/a)
                    r = mul(node, add(mul(db, func("log", a)), div(mul(b, da), a)))
        elif t is Num:
            r = Num(0.0)
        elif t is Sym:
            r = Num(1.0 if node.index == index else 0.0)
        elif t is Neg:
            r = neg(done[id(node.arg)][1])
        elif t is Call:
            r = mul(_DERIV_BUILDERS[node.fn](node.arg), done[id(node.arg)][1])
        else:
            raise TypeError(f"not an expression node: {node!r}")
        done[id(node)] = (node, r)
    return done[id(e)][1]


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
        inverse = _int_power(base, -n, node)  # zero for a zero or tiny base
        if np.any(np.asarray(_value_of(inverse)) == 0.0):
            raise EvalDomainError("zero or underflowing base raised to a negative power", node)
        return 1.0 / inverse
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


def evaluate(expr, env):
    """Evaluate ``expr``, a tree or a sequence of trees, over operands
    supporting arithmetic (floats, arrays or jets): its value, or the list
    of their values.  The trees are walked once, in order, each shared
    node computed once, and every intermediate value is dropped as soon as
    the last node that reads it has run, so a batch walk holds only the
    values still to be read and the roots' values."""
    roots = [expr] if isinstance(expr, _Node) else list(expr)
    order = _postorder(roots, ())
    # free[pos]: the ids of the nodes last read by order[pos], found in one
    # pass from the end; the roots are returned, so never freed
    kept = set(map(id, roots))
    free: list = []
    for node in reversed(order):
        dead = []
        for kid in _children(node):
            key = id(kid)
            if key not in kept:
                kept.add(key)
                dead.append(key)
        free.append(dead)
    free.reverse()
    memo: dict = {}
    try:
        for node, dead in zip(order, free):
            t = type(node)
            if t is Binary:
                op = node.op
                a, b = memo[id(node.left)], memo[id(node.right)]
                if op == "+":
                    r = a + b
                elif op == "*":
                    r = a * b
                elif op == "-":
                    r = a - b
                elif op == "/":
                    if np.any(np.asarray(_value_of(b)) == 0.0):
                        raise EvalDomainError("division by zero", node)
                    r = a / b
                elif isinstance(b, (int, float)) and float(b).is_integer():
                    # a plain integer exponent, constant or evaluated
                    r = _int_power(a, int(b), node)
                else:
                    r = _general_power(a, b, node)
            elif t is Num:
                r = node.value
            elif t is Sym:
                if node.index >= len(env):
                    raise ExprError(
                        f"point has {len(env)} entries but symbol "
                        f"'{node.name}' has index {node.index}"
                    )
                r = env[node.index]
            elif t is Neg:
                r = -memo[id(node.arg)]
            else:
                r = _apply_fn(node.fn, memo[id(node.arg)], node)
            memo[id(node)] = r
            for key in dead:
                del memo[key]
    except JetDomainError as err:  # pragma: no cover - defensive
        raise EvalDomainError(str(err), node) from err
    if isinstance(expr, _Node):
        return memo[id(expr)]
    return [memo[id(r)] for r in roots]


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
