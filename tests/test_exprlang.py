import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclift import exprlang as ex
from metriclift.exprlang import (
    Binary,
    Call,
    EvalDomainError,
    ExprSyntaxError,
    Neg,
    Num,
    Sym,
    eval_jet2,
    eval_value,
    parse_expression,
    to_source,
)
from metriclift.jets import Jet2, as_jet2


class TestParsing:
    def test_function_call(self):
        e = parse_expression("exp(x3)", ["x1", "x2", "x3"])
        assert e == Call("exp", Sym(2, "x3"))

    def test_precedence_and_power(self):
        e = parse_expression("2*x1^2 + cosh(x2)", ["x1", "x2"])
        expected = Binary(
            "+",
            Binary("*", Num(2.0), Binary("^", Sym(0, "x1"), Num(2.0))),
            Call("cosh", Sym(1, "x2")),
        )
        assert e == expected

    def test_power_right_associative(self):
        e = parse_expression("2^3^2", ["x1"])
        assert eval_value(e, [0.0]) == 512.0

    def test_unary_minus_binds_below_power(self):
        e = parse_expression("-x1^2", ["x1"])
        assert eval_value(e, [3.0]) == -9.0

    def test_unary_minus_in_exponent(self):
        e = parse_expression("2^-2", ["x1"])
        assert eval_value(e, [0.0]) == 0.25

    def test_scientific_numbers(self):
        e = parse_expression("1.5e-3 + .25 + 2E2", ["x1"])
        assert eval_value(e, [0.0]) == pytest.approx(0.2515 + 200.0)

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'y'"):
            parse_expression("exp(y)", ["x1", "x2"])

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError, match="unknown function 'floor'"):
            parse_expression("floor(x1)", ["x1"])

    def test_arity_mismatch(self):
        with pytest.raises(ExprSyntaxError, match="exactly one argument"):
            parse_expression("sin(x1, x2)", ["x1", "x2"])

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("x1 + + x2", ["x1", "x2"])
        assert exc.value.offset == 5

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError, match="trailing"):
            parse_expression("x1 x2", ["x1", "x2"])

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse_expression("x1 @ 2", ["x1"])

    @pytest.mark.parametrize(
        "source,message,offset",
        [
            ("   $x1", "unexpected character '$'", 3),
            ("x1 +   @ x2", "unexpected character '@'", 7),
            (" x1 * \t# 2", "unexpected character '#'", 7),
            ("x1\n+\n!", "unexpected character '!'", 5),
            ("x1 . 2", "unexpected character '.'", 3),
            ("\xa0x1 \xa0\u00e9", "unexpected character '\u00e9'", 5),
            ("  x1 +  ", "unexpected end of input", 8),
            ("  ", "unexpected end of input", 2),
            ("", "unexpected end of input", 0),
            ("x1   x2", "unexpected trailing input 'x2'", 5),
            ("x1 + 1.  .5", "unexpected trailing input '.5'", 9),
            ("   (x1  ", "expected ')'", 8),
            ("x1 + sin( x1 , 2)", "function 'sin' takes exactly one argument", 13),
        ],
    )
    def test_error_offsets_around_whitespace(self, source, message, offset):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression(source, ["x1"])
        assert str(exc.value) == f"{message} (at offset {offset})"
        assert exc.value.offset == offset

    def test_symbols_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            parse_expression("x1", ["x1", "x1"])

    def test_symbols_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            parse_expression("1", [])


class TestSharing:
    def test_identical_subtrees_are_one_node(self):
        e = parse_expression("sin(x1*x2) + sin(x1*x2)", ["x1", "x2"])
        assert e.left is e.right

    def test_distinct_floats_never_share(self):
        e = parse_expression("0.1 + 0.10000000000000002", ["x1"])
        assert e.left is not e.right
        assert e.left.value != e.right.value
        table = {}
        a = parse_expression("0.1*x1", ["x1"], table)
        b = parse_expression("0.10000000000000002*x1", ["x1"], table)
        assert a.left is not b.left
        assert a.right is b.right

    def test_table_shares_across_sources(self):
        table = {}
        a = parse_expression("exp(x1) + 1", ["x1"], table)
        b = parse_expression("2*exp(x1)", ["x1"], table)
        assert a.left is b.right


class TestEvaluation:
    def test_exp_jet_at_origin(self):
        j = eval_jet2(parse_expression("exp(x3)", ["x1", "x2", "x3"]), [0, 0, 0])
        assert j.value == 1.0
        assert j.grad[2] == 1.0
        assert j.hess[2, 2] == 1.0

    def test_bilinear(self):
        j = eval_jet2(parse_expression("x1*x2", ["x1", "x2"]), [2.0, 3.0])
        assert j.value == 6.0
        assert np.array_equal(j.grad, [3.0, 2.0])
        assert j.hess[0, 1] == 1.0 and j.hess[1, 0] == 1.0

    def test_cosh_even(self):
        j = eval_jet2(parse_expression("cosh(x2)", ["x1", "x2"]), [0.0, 0.0])
        assert j.value == 1.0
        assert j.grad[1] == 0.0
        assert j.hess[1, 1] == 1.0

    def test_integer_power_of_negative_base(self):
        e = parse_expression("x1^3", ["x1"])
        assert eval_value(e, [-2.0]) == -8.0
        j = eval_jet2(e, [-2.0])
        assert j.grad[0] == 12.0 and j.hess[0, 0] == -12.0

    def test_negative_integer_power(self):
        assert eval_value(parse_expression("x1^-2", ["x1"]), [2.0]) == 0.25

    def test_non_integer_power_needs_positive_base(self):
        e = parse_expression("x1^0.5", ["x1"])
        assert eval_value(e, [4.0]) == 2.0
        with pytest.raises(EvalDomainError, match="non-positive base"):
            eval_value(e, [-4.0])

    def test_symbolic_exponent(self):
        e = parse_expression("x1^x2", ["x1", "x2"])
        j = eval_jet2(e, [2.0, 3.0])
        assert j.value == pytest.approx(8.0)
        assert j.grad[0] == pytest.approx(12.0)  # d/da a^b = b a^(b-1)
        assert j.grad[1] == pytest.approx(8.0 * math.log(2.0))

    def test_division_by_zero_names_culprit(self):
        e = parse_expression("1/(x1 - 1)", ["x1"])
        with pytest.raises(EvalDomainError) as exc:
            eval_value(e, [1.0])
        assert "x1 - 1" in str(exc.value)

    def test_log_domain_error(self):
        with pytest.raises(EvalDomainError, match="log"):
            eval_jet2(parse_expression("log(x1)", ["x1"]), [-1.0])

    def test_sqrt_domain_error(self):
        with pytest.raises(EvalDomainError, match="sqrt"):
            eval_value(parse_expression("sqrt(x1)", ["x1"]), [-1.0])

    def test_scalar_overflow_names_culprit(self):
        e = parse_expression("1 + exp(1000*x1)", ["x1"])
        with pytest.raises(EvalDomainError, match=r"exp overflows .* in 'exp\(1000\*x1\)'"):
            ex.evaluate(e, [0.9])

    def test_deterministic_bitwise(self):
        e = parse_expression("sin(x1)*exp(x2)/(cosh(x1)+2)", ["x1", "x2"])
        a = eval_jet2(e, [0.37, -1.2])
        b = eval_jet2(e, [0.37, -1.2])
        assert a.value == b.value
        assert np.array_equal(a.grad, b.grad)
        assert np.array_equal(a.hess, b.hess)


# random expressions for round-trip and derivative checks; division is
# kept safe by wrapping denominators in cosh (>= 1)
_FNS = ["sin", "cos", "sinh", "cosh", "tanh", "exp"]


def _random_expr(rng, symbols, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            i = int(rng.integers(len(symbols)))
            return Sym(i, symbols[i])
        return Num(round(float(rng.uniform(0.5, 2.0)), 3))
    pick = rng.random()
    if pick < 0.55:
        op = rng.choice(["+", "-", "*", "/"])
        left = _random_expr(rng, symbols, depth - 1)
        right = _random_expr(rng, symbols, depth - 1)
        if op == "/":
            right = Call("cosh", right)
        return Binary(op, left, right)
    if pick < 0.7:
        return Neg(_random_expr(rng, symbols, depth - 1))
    if pick < 0.85:
        return Binary("^", _random_expr(rng, symbols, depth - 1), Num(float(rng.integers(2, 4))))
    return Call(str(rng.choice(_FNS)), _random_expr(rng, symbols, depth - 1))


def test_print_reparse_evaluates_identically(rng):
    symbols = ["x1", "x2", "x3"]
    pts = rng.uniform(-0.9, 0.9, size=(100, 3))
    for _ in range(40):
        e = _random_expr(rng, symbols, depth=4)
        back = parse_expression(to_source(e), symbols)
        for p in pts[::10]:
            a, b = eval_jet2(e, p), eval_jet2(back, p)
            assert a.value == b.value
            assert np.array_equal(a.grad, b.grad)
            assert np.array_equal(a.hess, b.hess)
        va = np.asarray(eval_value(e, pts.T.tolist()))
        vb = np.asarray(eval_value(back, pts.T.tolist()))
        assert np.array_equal(va, vb)


@pytest.mark.parametrize("fn,lo,hi", [
    ("sin", -1.4, 1.4),
    ("cos", -1.4, 1.4),
    ("tan", -1.2, 1.2),
    ("sinh", -1.4, 1.4),
    ("cosh", -1.4, 1.4),
    ("tanh", -1.4, 1.4),
    ("exp", -1.4, 1.4),
    ("log", 0.2, 2.5),
    ("sqrt", 0.2, 2.5),
])
def test_jets_match_central_differences(fn, lo, hi, rng):
    # composite argument exercises the chain rule, not just the table
    src = f"{fn}(0.3*x1 + 0.2*x2^2 + 1.1)"
    e = parse_expression(src, ["x1", "x2"])
    h = 1e-5
    for _ in range(10):
        p = rng.uniform(lo, hi, size=2)
        arg = 0.3 * p[0] + 0.2 * p[1] ** 2 + 1.1
        if fn in ("log", "sqrt") and arg < 0.3:
            continue
        j = eval_jet2(e, p)
        for k in range(2):
            ek = np.zeros(2)
            ek[k] = h
            fd1 = (eval_value(e, p + ek) - eval_value(e, p - ek)) / (2 * h)
            assert abs(j.grad[k] - fd1) <= 1e-6 * max(1.0, abs(fd1))
            # second derivatives against differences of the (independently
            # checked) exact gradient; value-level double differencing at
            # this step sits on the roundoff floor
            fd_row = (eval_jet2(e, p + ek).grad - eval_jet2(e, p - ek).grad) / (2 * h)
            assert np.abs(j.hess[k] - fd_row).max() <= 1e-6 * max(
                1.0, np.abs(fd_row).max()
            )


def test_differentiate_matches_jets(rng):
    symbols = ["x1", "x2"]
    for src in [
        "sin(x1)*cosh(x2) + x1^3/(x2^2 + 2)",
        "exp(x1*x2) - tanh(x1)",
        "sqrt(x1^2 + 1)*log(x2 + 3)",
        "x1^-2 + tan(x2/4)",
    ]:
        e = parse_expression(src, symbols)
        for k in range(2):
            de = ex.differentiate(e, k)
            for _ in range(20):
                p = rng.uniform(0.3, 1.2, size=2)
                assert eval_value(de, p) == pytest.approx(
                    eval_jet2(e, p).grad[k], rel=1e-12, abs=1e-12
                )


def test_smart_constructors_fold_identities():
    x = Sym(0, "x1")
    assert ex.add(ex.const(0.0), x) is x
    assert ex.mul(ex.const(1.0), x) is x
    assert ex.mul(ex.const(0.0), x) == Num(0.0)
    assert ex.sub(x, ex.const(0.0)) is x
    assert ex.power(x, ex.const(1.0)) is x
    assert ex.neg(ex.neg(x)) is x
    assert ex.add(ex.const(2.0), ex.const(3.0)) == Num(5.0)


def test_to_source_negative_constant_operand_reparses():
    e = ex.mul(Sym(0, "x1"), ex.const(-2.0))
    src = to_source(e)
    back = parse_expression(src, ["x1"])
    assert eval_value(back, [3.0]) == -6.0


# Trees for the print/reparse property: every node kind, any finite
# constant but -0.0 (printed as "0"), and subtree objects used twice.
_CONSTANTS = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: math.copysign(1.0, v) > 0 or v != 0.0
)
_LEAVES = st.one_of(
    _CONSTANTS.map(Num),
    st.sampled_from([Sym(0, "x1"), Sym(1, "x2")]),
)


def _extend(children):
    return st.one_of(
        children.map(Neg),
        st.builds(Call, st.sampled_from(sorted(ex.FUNCTIONS)), children),
        st.builds(Binary, st.sampled_from("+-*/^"), children, children),
        st.builds(lambda op, c: Binary(op, c, c), st.sampled_from("+-*/^"), children),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=12)


def _outcome(fn):
    """Bytes of every result array, or the type and text of the error."""
    try:
        with np.errstate(all="ignore"):
            out = fn()
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    if isinstance(out, ex.Jet2):
        return tuple(np.asarray(a, dtype=float).tobytes() for a in (out.value, out.grad, out.hess))
    return np.asarray(out, dtype=float).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_TREES, st.sampled_from([(0.3, -0.7), (1.25, 2.0), (-1.5, 0.0)]))
def test_reparse_evaluates_bit_identically(e, point):
    back = parse_expression(to_source(e), ["x1", "x2"])
    assert _outcome(lambda: ex.evaluate(back, list(point))) == _outcome(
        lambda: ex.evaluate(e, list(point))
    )
    assert _outcome(lambda: eval_jet2(back, point)) == _outcome(lambda: eval_jet2(e, point))


def _symbols(e) -> set:
    """Indices of the variables a tree contains."""
    seen, stack, out = set(), [e], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Sym):
                out.add(node.index)
            stack.extend(ex._children(node))
    return out


def _full_width_jet(e, point):
    """The reference: every rule over both variables, from full-width seeds."""
    env = [Jet2.variable(v, i, len(point)) for i, v in enumerate(point)]
    return as_jet2(ex.evaluate(e, env), (), len(point))


def _assert_sparse_matches_full(e, point):
    try:
        with np.errstate(all="ignore"):
            full = _full_width_jet(e, point)
    except (ArithmeticError, ValueError) as err:
        with pytest.raises(type(err)) as again:
            with np.errstate(all="ignore"):
                eval_jet2(e, point)
        assert str(again.value) == str(err)
        return
    with np.errstate(all="ignore"):
        sparse = eval_jet2(e, point)  # support-sparse, widened to full width
    assert sparse.value.tobytes() == full.value.tobytes()
    absent = [k for k in range(len(point)) if k not in _symbols(e)]
    for s, f in ((sparse.grad, full.grad), (sparse.hess, full.hess)):
        # a variable the tree lacks has exact zero derivatives, where the
        # full-width rules may have met 0*inf after an overflow
        assert not s[absent].any() and not s[..., absent].any()
        assert np.all((f[absent] == 0) | np.isnan(f[absent]))
        # off NaN they agree (up to the sign of zero): a NaN from a 0*inf
        # in a subtree lacking a variable reaches only NaN entries of f
        seen = ~np.isnan(f)
        assert np.array_equal(s[seen], f[seen])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_TREES, st.sampled_from([(0.3, -0.7), (1.25, 2.0), (-1.5, 0.0)]))
def test_support_sparse_jets_match_full_width_ones(e, point):
    _assert_sparse_matches_full(e, point)


@pytest.mark.parametrize(
    "source, point",
    [
        ("exp(1000*x1)*x2", (1.0, 0.5)),  # full width: d/dx2 = inf + 0*inf = NaN
        ("x2 + 0*exp(1000*x1)", (1.0, 0.5)),
        ("exp(1000*x1) + sin(x1)", (1.0, 0.5)),  # x2 absent: NaN against 0
    ],
)
def test_support_sparse_jets_after_overflow(source, point):
    e = parse_expression(source, ["x1", "x2"])
    _assert_sparse_matches_full(e, point)
    with np.errstate(all="ignore"):
        sparse, full = eval_jet2(e, point), _full_width_jet(e, point)
    assert np.isnan(full.grad[1]) and not np.isnan(sparse.grad[1])


# Trees for the jet/finite-difference property: the node kinds above, with
# constants in [-3, 3] so that a central difference has digits to compare,
# and symbols drawn more often than constants so most trees vary.
_FD_LEAVES = st.integers(0, 3).flatmap(
    lambda k: st.floats(-3.0, 3.0).map(Num) if k == 0
    else st.sampled_from([Sym(0, "x1"), Sym(1, "x2")])
)
_FD_TREES = st.recursive(
    _FD_LEAVES,
    _extend,
    max_leaves=12,
)
FD_STEP = 1e-5
# fixed before the run; relative to the largest value (gradient entry for
# the Hessian) on the stencil, which bounds the rounding in the difference
FD_RTOL = 1e-5


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_FD_TREES, st.sampled_from([(0.3, -0.7), (1.25, 2.0), (-1.5, 0.4)]))
def test_jets_match_central_differences_on_random_trees(e, point):
    p = np.asarray(point)
    shifts = [FD_STEP * np.eye(2)[k] for k in range(2)]
    stencil = [p] + [p + s for s in shifts] + [p - s for s in shifts]
    try:
        with np.errstate(all="ignore"):
            values = [eval_value(e, q) for q in stencil]
            jets = [eval_jet2(e, q) for q in stencil]
    except EvalDomainError:
        return  # the tree leaves its domain near the point
    grads = [j.grad for j in jets]
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(grads))
            and np.all(np.isfinite(jets[0].hess))):
        return
    value_scale = max(1.0, np.abs(values).max())
    grad_scale = max(1.0, np.abs(grads).max())
    for k in range(2):
        fd_grad = (values[1 + k] - values[3 + k]) / (2 * FD_STEP)
        assert abs(jets[0].grad[k] - fd_grad) <= FD_RTOL * max(value_scale, abs(fd_grad))
        # Hessian rows against differences of the exact gradients, which
        # avoids the noise of a second difference of values
        fd_row = (grads[1 + k] - grads[3 + k]) / (2 * FD_STEP)
        assert np.abs(jets[0].hess[k] - fd_row).max() <= FD_RTOL * max(
            grad_scale, np.abs(fd_row).max()
        )


def _expanded(e) -> int:
    """Leaves of the expanded tree of ``e``."""
    memo: dict = {}

    def count(node):
        if id(node) not in memo:
            kids = ex._children(node)
            memo[id(node)] = sum(count(k) for k in kids) if kids else 1
        return memo[id(node)]

    return count(e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_TREES, min_size=1, max_size=4))
def test_definitions_parse_to_the_nodes_of_the_expanded_text(roots):
    # a family that shares subtrees by identity and by structure
    roots = roots + [Binary("*", roots[0], roots[-1]), Neg(roots[0])]
    symbols = ["x1", "x2"]
    definitions, sources = ex.to_shared_sources(roots, symbols)
    table: dict = {}
    names = ex.parse_definitions(definitions, symbols, table)
    for name, _ in definitions:
        assert not isinstance(names[name], (Num, Sym))  # no leaf is named
    for root, src in zip(roots, sources):
        assert parse_expression(src, symbols, table, names) is parse_expression(
            to_source(root), symbols, table
        )


def test_every_shared_node_is_printed_once():
    # parsing interns x1 + x2, so sin and exp share it
    table: dict = {}
    a, b = (parse_expression(f"{fn}(x1 + x2)", ["x1", "x2"], table) for fn in ("sin", "exp"))
    c = Binary("+", Binary("*", a, a), b)
    definitions, sources = ex.to_shared_sources([c, a], ["x1", "x2"])
    assert definitions == [["t1", "x1 + x2"], ["t2", "sin(t1)"]]
    assert sources == ["t2*t2 + exp(t1)", "t2"]


def test_definition_names_avoid_reserved_names():
    e = parse_expression("(x1 + t1)*(x1 + t1)", ["x1", "t1"])
    definitions, sources = ex.to_shared_sources([e], ["x1", "t1", "t_2"])
    assert definitions == [["t__1", "x1 + t1"]]
    assert sources == ["t__1*t__1"]


def _square_chain(k: int):
    symbols = ["x1"]
    table: dict = {}
    defs = [["d1", "1 + x1"]] + [[f"d{j}", f"d{j - 1}*d{j - 1}"] for j in range(2, k + 1)]
    return ex.parse_definitions(defs, symbols, table)[f"d{k}"]


def _unique(e) -> int:
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += ex._children(node)
    return len(seen)


def test_differentiate_is_linear_in_the_dag():
    d = _square_chain(60)
    assert _expanded(d) == 2**60
    assert _unique(ex.differentiate(d, 0)) <= 5 * 60


def test_error_text_is_capped():
    d = _square_chain(60)
    e = Binary("+", Num(1.0), Call("log", Binary("-", Num(0.0), d)))
    with pytest.raises(EvalDomainError) as exc:
        eval_value(e, [-1.0])  # 1 + x1 = 0, so no overflow on the way
    culprit = exc.value.culprit
    assert len(culprit) == ex.CULPRIT_CHARS + len("...")
    assert culprit.startswith("log(0 - (1 + x1)*(1 + x1)*((1 + x1)*(1 + x1))")
    assert to_source(Neg(Sym(0, "x1")), limit=ex.CULPRIT_CHARS) == "-x1"



# Each walker memoizes by node identity.  It must free its memo when it
# returns, not leave it in a reference cycle for the garbage collector:
# for a batch evaluation the memo holds every intermediate jet array.


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class _Tracked:
    """Operand that keeps a weak reference to every value it makes."""

    made: list = []

    def __init__(self, v):
        self.v = v
        _Tracked.made.append(weakref.ref(self))

    def __add__(self, other):
        return _Tracked(self.v + other.v)

    def __mul__(self, other):
        return _Tracked(self.v * other.v)


class _Name(str):
    """A symbol name that can be weakly referenced."""


def test_evaluate_frees_its_memo_on_return(no_gc):
    _Tracked.made = []
    e = parse_expression("x1*x2 + x1", ["x1", "x2"])
    out = ex.evaluate(e, [_Tracked(2.0), _Tracked(3.0)])
    assert out.v == 8.0
    product = _Tracked.made[2]  # x1*x2, memoized on the way to the sum
    assert product() is None


def test_differentiate_frees_its_memo_on_return(no_gc):
    x1, x2 = Sym(0, "x1"), Sym(1, "x2")
    e = Binary("*", x2, x1)
    node = weakref.ref(e)  # the memo keeps each node with its derivative
    d = ex.differentiate(e, 0)
    del e
    assert d is x2
    assert node() is None


@pytest.mark.parametrize(
    "render",
    [lambda e: to_source(e), lambda e: ex.to_shared_sources([e], ())[1][0]],
    ids=["to_source", "to_shared_sources"],
)
def test_printer_frees_its_memo_on_return(no_gc, render):
    name = _Name("x1")
    e = Neg(Sym(0, name))
    text = weakref.ref(name)  # the memoized text of the symbol node
    del name
    assert render(e) == "-x1"
    del e
    assert text() is None
