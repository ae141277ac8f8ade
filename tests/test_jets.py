import numpy as np
import pytest

from metriclift.jets import Jet2, JetDomainError


def _var(value, index, n=2):
    return Jet2.variable(value, index, n)


def test_product_rule_exact():
    x, y = _var(2.0, 0), _var(3.0, 1)
    p = x * y
    assert p.value == 6.0
    assert np.array_equal(p.grad, [3.0, 2.0])
    assert np.array_equal(p.hess, [[0.0, 1.0], [1.0, 0.0]])


def test_quotient_rule():
    x, y = _var(1.0, 0), _var(2.0, 1)
    q = x / y
    assert q.value == 0.5
    assert np.allclose(q.grad, [0.5, -0.25])
    # d2/dy2 (x/y) = 2x/y^3, d2/dxdy = -1/y^2
    assert np.allclose(q.hess, [[0.0, -0.25], [-0.25, 0.25]])


def test_chain_rule_second_order():
    x = _var(0.7, 0, 1)
    f = (x * x).sin()  # sin(x^2)
    v = 0.7
    assert f.value == pytest.approx(np.sin(v * v))
    assert f.grad[0] == pytest.approx(2 * v * np.cos(v * v))
    assert f.hess[0, 0] == pytest.approx(2 * np.cos(v * v) - 4 * v * v * np.sin(v * v))


def test_scalar_mixing():
    x = _var(1.5, 0, 1)
    out = 2.0 + 3.0 * x - x / 2.0 + (1.0 - x) * x
    assert out.value == pytest.approx(2.0 + 4.5 - 0.75 + (-0.5) * 1.5)
    assert out.grad[0] == pytest.approx(3.0 - 0.5 + 1.0 - 2 * 1.5)


def test_rtruediv():
    x = _var(2.0, 0, 1)
    r = 1.0 / x
    assert r.value == 0.5
    assert r.grad[0] == -0.25
    assert r.hess[0, 0] == 0.25


def test_hessian_bitwise_symmetric():
    rngs = np.random.default_rng(7)
    for _ in range(25):
        a, b = rngs.uniform(0.5, 2.0, size=2)
        x, y = _var(a, 0), _var(b, 1)
        expr = (x * y).exp() * (x / (y * y + 1.0)).tanh() + (x * x * y).cos()
        assert np.array_equal(expr.hess, expr.hess.T)


def test_batched_matches_pointwise():
    pts = np.random.default_rng(11).uniform(0.2, 1.5, size=(6, 2))
    xb = Jet2.variable(pts[:, 0], 0, 2)
    yb = Jet2.variable(pts[:, 1], 1, 2)
    batch = (xb * yb).sinh() + xb / yb
    for n, (a, b) in enumerate(pts):
        x, y = _var(a, 0), _var(b, 1)
        one = (x * y).sinh() + x / y
        assert batch.value[n] == one.value
        assert np.array_equal(batch.grad[n], one.grad)
        assert np.array_equal(batch.hess[n], one.hess)


def test_first_order_mode_skips_hessian():
    x = Jet2.variable(1.0, 0, 3, order=1)
    y = (x * x).exp()
    assert y.hess is None
    assert y.grad[0] == pytest.approx(2.0 * np.exp(1.0))


def test_domain_errors():
    x = _var(-1.0, 0, 1)
    with pytest.raises(JetDomainError):
        x.log()
    with pytest.raises(JetDomainError):
        x.sqrt()
    with pytest.raises(JetDomainError):
        x / Jet2.constant(0.0, 1)


# Support-sparse jets: a one-variable seed differentiates only in its own
# variable; each rule must give, widened to full width, exactly the jet
# that full-width seeds give.


def _full(j, n):
    return j.widened(tuple(range(n)))


def _same(a, b):
    return (
        np.array_equal(a.value, b.value)
        and np.array_equal(a.grad, b.grad)
        and np.array_equal(a.hess, b.hess)
    )


def test_coordinate_seed_has_its_own_support():
    x = Jet2.coordinate(0.5, 2)
    assert x.support == (2,)
    assert np.array_equal(x.grad, [1.0]) and np.array_equal(x.hess, [[0.0]])
    assert _same(_full(x, 3), Jet2.variable(0.5, 2, 3))
    assert Jet2.variable(0.5, 2, 3).support == (0, 1, 2)


def test_product_of_x0_and_x2_over_three_variables():
    x, z = Jet2.coordinate(2.0, 0), Jet2.coordinate(3.0, 2)
    p = x * z
    assert p.support == (0, 2)
    assert np.array_equal(p.grad, [3.0, 2.0])
    assert np.array_equal(p.hess, [[0.0, 1.0], [1.0, 0.0]])
    assert _same(_full(p, 3), Jet2.variable(2.0, 0, 3) * Jet2.variable(3.0, 2, 3))
    assert np.array_equal(_full(p, 3).grad, [3.0, 0.0, 2.0])


@pytest.mark.parametrize("op", ["+", "-", "/"])
def test_disjoint_supports_widen_to_their_union(op):
    rule = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "/": lambda a, b: a / b}[op]
    a, b, c = 0.7, 1.3, -0.4
    # (x0 * x1) op sin(x3), over four variables
    sparse = rule(Jet2.coordinate(a, 0) * Jet2.coordinate(b, 1), Jet2.coordinate(c, 3).sin())
    dense = rule(
        Jet2.variable(a, 0, 4) * Jet2.variable(b, 1, 4), Jet2.variable(c, 3, 4).sin()
    )
    assert sparse.support == (0, 1, 3)
    assert _same(_full(sparse, 4), dense)


def test_rsub_and_rtruediv_with_a_number_keep_the_support():
    x = Jet2.coordinate(2.0, 1)
    for sparse, dense in [
        (2.5 - x, 2.5 - Jet2.variable(2.0, 1, 2)),
        (3.0 / x, 3.0 / Jet2.variable(2.0, 1, 2)),
    ]:
        assert sparse.support == (1,)
        assert _same(_full(sparse, 2), dense)
    r = 3.0 / x
    assert r.value == 1.5 and r.grad[0] == -0.75 and r.hess[0, 0] == 0.75


def test_zero_width_constant_divisor_of_zero_raises():
    x = Jet2.coordinate(1.0, 0)
    with pytest.raises(JetDomainError):
        x / 0.0
    with pytest.raises(JetDomainError):
        Jet2.coordinate(np.ones(3), 0) / np.array([1.0, 0.0, 2.0])
    assert (x / 2.0).support == (0,)


def test_scalar_valued_jet_against_a_batch():
    ys = np.array([0.5, 1.0, 2.0, -3.0])
    batch = Jet2.coordinate(1.5, 0) * Jet2.coordinate(ys, 1) + Jet2.coordinate(ys, 1).exp()
    assert batch.support == (0, 1)
    assert batch.grad.shape == (4, 2) and batch.hess.shape == (4, 2, 2)
    for n, y in enumerate(ys):
        one = Jet2.coordinate(1.5, 0) * Jet2.coordinate(y, 1) + Jet2.coordinate(y, 1).exp()
        assert batch.value[n] == one.value
        assert np.array_equal(batch.grad[n], one.grad)
        assert np.array_equal(batch.hess[n], one.hess)


def test_hessian_bitwise_symmetric_after_widening():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a, b, c = rng.uniform(0.5, 2.0, size=3)
        x, y, z = (Jet2.coordinate(v, i) for i, v in ((0, a), (2, b), (3, c)))
        # mixed supports meet in every rule: (0, 2) * (3,), (0,) / (2, 3) ...
        expr = (x * y).exp() * z.tanh() + x / (y * z + 1.0) - (z * z).cos() * y
        full = _full(expr, 5)
        assert expr.support == (0, 2, 3)
        assert np.array_equal(expr.hess, np.swapaxes(expr.hess, -1, -2))
        assert np.array_equal(full.hess, full.hess.T)
        assert not full.grad[[1, 4]].any() and not full.hess[[1, 4]].any()
