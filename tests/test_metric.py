import numpy as np
import pytest

from metriclift import EgorovSpec, GodelSpec, egorov_metric, godel_metric
from metriclift import exprlang as ex
from metriclift.harmonic import (
    CoordinateMap,
    check_harmonic,
    lattice_points,
    tension_identity_at,
    tension_map_at,
)
from metriclift.jets import Jet2, as_jet2
from metriclift.lifts import (
    FiberPoint,
    LiftKind,
    lift_blocks_at,
    lift_to_chart,
    lifted_tension_at,
)
from metriclift.metric import (
    ChartedMetric,
    MetricDegenerate,
    christoffel_and_derivative_at,
    christoffel_at,
    curvature_at,
    inverse_metric_at,
    metric_at,
    metric_jets_at,
)
from conftest import (
    GALLERY_METRICS,
    HARMONIC_PAIRS,
    NON_FINITE_ORDER,
    NON_FINITE_ORDER_SEED,
    NON_HARMONIC_PAIRS,
    dense_metric,
    domain_points,
    fd_christoffel,
)

FLAT2 = ChartedMetric.from_strings(
    ["x1", "x2"], [["1", "0"], ["0", "1"]], [(-1, 1), (-1, 1)]
)
SCALED2 = ChartedMetric.from_strings(
    ["x1", "x2"], [["4", "0"], ["0", "4"]], [(-1, 1), (-1, 1)]
)


class TestPointwiseMatrices:
    def test_egorov_matrix_at_origin(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        expected = [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        assert np.array_equal(metric_at(g, [0, 0, 0]), expected)
        assert np.array_equal(inverse_metric_at(g, [0, 0, 0]), expected)

    def test_flat_identity(self):
        assert np.array_equal(metric_at(FLAT2, [0.3, -0.7]), np.eye(2))

    def test_scaled_flat_inverse(self):
        assert np.allclose(
            inverse_metric_at(SCALED2, [0.1, 0.2]), 0.25 * np.eye(2), atol=1e-15
        )

    def test_godel_entries_at_zero(self):
        g = godel_metric(GodelSpec("x2", "cosh(x2)"))
        G = metric_at(g, [0.0, 0.0, 0.0, 0.0])
        assert G[0, 0] == 1.0
        assert G[0, 2] == 0.0  # H(0) = 0
        assert G[2, 2] == -1.0  # H^2 - P^2 = -1
        assert G[1, 1] == -1.0 and G[3, 3] == -1.0

    def test_inverse_product_is_identity(self):
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 5)
            prod = np.einsum("nij,njk->nik", metric_at(g, x), inverse_metric_at(g, x))
            assert np.abs(prod - np.eye(g.dim)).max() < 1e-12

    def test_degenerate_raises_with_point_and_det(self):
        g = ChartedMetric.from_strings(
            ["x1", "x2"], [["x1", "0"], ["0", "1"]], [(-1, 1), (-1, 1)]
        )
        with pytest.raises(MetricDegenerate) as exc:
            inverse_metric_at(g, [0.0, 0.5])
        assert exc.value.det == 0.0
        assert np.array_equal(exc.value.point, [0.0, 0.5])


# Every chart of the pair tables (both metrics), dense m=2..7, and the
# Sasaki-TM lift of Egorov m=3, whose 6 coordinates meet in shared
# subtrees of mixed supports.
JET_CHARTS = (
    [(f"{name}-{side}", g) for name, *pair in HARMONIC_PAIRS + NON_HARMONIC_PAIRS
     for side, g in zip(("g", "hat"), pair)]
    + [(f"dense-m{m}", dense_metric(m)) for m in range(2, 8)]
    + [("egorov-m3-sasaki-tm", lift_to_chart(egorov_metric(EgorovSpec(3, "exp(x3)")),
                                             LiftKind.SASAKI_TM))]
)


class TestMetricJets:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("g", [g for _, g in JET_CHARTS], ids=[n for n, _ in JET_CHARTS])
    def test_support_sparse_jets_equal_full_width_ones(self, g, order):
        # reference: each component on its own, from full-width seeds
        x = domain_points(g, 16)
        m = g.dim
        env = [Jet2.variable(x[:, i], i, m, order) for i in range(m)]
        G, dG, d2G = metric_jets_at(g, x, order)
        assert (d2G is None) == (order == 1)
        for i in range(m):
            for j in range(m):
                ref = as_jet2(ex.evaluate(g.components[i][j], env), x.shape[:-1], m, order)
                assert np.array_equal(G[:, i, j], ref.value)
                assert np.array_equal(dG[:, i, j], ref.grad)
                if order == 2:
                    assert np.array_equal(d2G[:, i, j], ref.hess)


class TestChristoffel:
    def test_egorov_fixture_at_origin(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        gam = christoffel_at(g, [0, 0, 0])
        expected = np.zeros((3, 3, 3))
        expected[1, 0, 0] = -0.5
        expected[0, 0, 2] = expected[0, 2, 0] = 0.5
        assert np.allclose(gam, expected, atol=1e-15)

    def test_constant_metric_vanishes(self):
        gam = christoffel_at(SCALED2, [0.4, -0.9])
        assert np.array_equal(gam, np.zeros((2, 2, 2)))

    def test_godel_matches_finite_differences(self, rng):
        g = godel_metric(GodelSpec("x2", "cosh(x2)"))
        for _ in range(5):
            x = np.array([0.0, rng.uniform(-1, 1), 0.0, 0.0])
            gam = christoffel_at(g, x)
            fd = fd_christoffel(g, x)
            assert np.abs(gam - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_lower_index_symmetry_exact(self):
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 3)
            gam = christoffel_at(g, x)
            assert np.array_equal(gam, np.swapaxes(gam, -1, -2))

    def test_metric_compatibility(self):
        # d_k g_ij - G^l_ki g_lj - G^l_kj g_il = 0 (Levi-Civita)
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 100)
            G, dG, _ = metric_jets_at(g, x, order=1)
            gam = christoffel_at(g, x)
            nabla = (
                np.einsum("nijk->nkij", dG)
                - np.einsum("nlki,nlj->nkij", gam, G)
                - np.einsum("nlkj,nil->nkij", gam, G)
            )
            assert np.abs(nabla).max() < 1e-9


class TestCurvature:
    def test_flat_curvature_zero(self):
        R = curvature_at(FLAT2, [0.2, 0.3])
        assert np.array_equal(R, np.zeros((2, 2, 2, 2)))

    def test_antisymmetry_exact_and_diagonal_zero(self):
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 100)
            R = curvature_at(g, x)
            assert np.array_equal(R, -np.swapaxes(R, -3, -2))
            for i in range(g.dim):
                assert np.array_equal(R[..., i, i, :], np.zeros_like(R[..., i, i, :]))

    def test_first_bianchi(self):
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 100)
            R = curvature_at(g, x)
            cyc = (
                R
                + np.einsum("nkijh->nkjhi", R)
                + np.einsum("nkijh->nkhij", R)
            )
            assert np.abs(cyc).max() < 1e-10

    # the dense base has a full inverse metric, which reaches every term
    # of d_p g^{kl} in the connection derivative
    @pytest.mark.parametrize(
        "g",
        [egorov_metric(EgorovSpec(3, "exp(x3)")), dense_metric(5)],
        ids=["egorov-m3", "dense-m5"],
    )
    def test_matches_fd_of_christoffels(self, g):
        h = 1e-5
        for x in domain_points(g, 4):
            m = g.dim
            dgam = np.empty((m, m, m, m))
            for p in range(m):
                e = np.zeros(m)
                e[p] = h
                dgam[..., p] = (
                    christoffel_at(g, x + e) - christoffel_at(g, x - e)
                ) / (2 * h)
            gam, exact = christoffel_and_derivative_at(g, x)
            assert np.abs(exact - dgam).max() <= 1e-6 * max(1.0, np.abs(dgam).max())
            P = np.einsum("kjhi->kijh", dgam)
            Q = np.einsum("kil,ljh->kijh", gam, gam)
            fd = (P - np.swapaxes(P, 1, 2)) + (Q - np.swapaxes(Q, 1, 2))
            R = curvature_at(g, x)
            assert np.abs(R - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


class TestConstruction:
    def test_asymmetric_entries_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            ChartedMetric.from_strings(
                ["x1", "x2"], [["1", "x1"], ["x2", "1"]], [(-1, 1), (-1, 1)]
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ChartedMetric.from_strings(["x1", "x2"], [["1", "0"]], [(-1, 1), (-1, 1)])

    def test_domain_length_checked(self):
        with pytest.raises(ValueError, match="interval per coordinate"):
            ChartedMetric.from_strings(["x1", "x2"], [["1", "0"], ["0", "1"]], [(-1, 1)])

    def test_point_dimension_checked(self):
        with pytest.raises(ValueError, match="coordinates"):
            metric_at(FLAT2, [0.0, 0.0, 0.0])

    def test_component_sources_round_trip(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        back = ChartedMetric.from_strings(g.coords, g.component_sources(), g.domain)
        x = domain_points(g, 7)
        assert np.array_equal(metric_at(g, x), metric_at(back, x))


# Every consumer of the connection at x1 = 0.9, where exp(1000*x1)
# overflows: the non-finite entry is reported, not returned as NaN (a
# leaked RuntimeWarning fails the test too), and a finite singular metric
# is still degenerate.
OVERFLOWS = ChartedMetric.from_strings(
    ["x1", "x2"], [["exp(1000*x1)", "0"], ["0", "1"]], [(-1, 1), (-1, 1)]
)
SINGULAR = ChartedMetric.from_strings(
    ["x1", "x2"], [["x1 - 0.9", "0"], ["0", "1"]], [(-1, 1), (-1, 1)]
)
IDENTITY2 = CoordinateMap.from_strings(["x1", "x2"], ["x1", "x2"], ["x1", "x2"])
AT = [0.9, 0.0]
Q = FiberPoint(AT, [0.3, -0.2])
CONNECTION_CONSUMERS = {
    "christoffel_at": lambda g: christoffel_at(g, AT),
    "christoffel_and_derivative_at": lambda g: christoffel_and_derivative_at(g, AT),
    "curvature_at": lambda g: curvature_at(g, AT),
    "lift_blocks_at": lambda g: lift_blocks_at(g, LiftKind.SASAKI_TM, Q),
    "lifted_tension_at": lambda g: lifted_tension_at(g, FLAT2, LiftKind.SASAKI_CTM, Q),
    "lifted_tension_at-hat": lambda g: lifted_tension_at(FLAT2, g, LiftKind.COMPLETE_TM, Q),
    "tension_map_at-source": lambda g: tension_map_at(IDENTITY2, g, FLAT2, AT),
    "tension_map_at-target": lambda g: tension_map_at(IDENTITY2, FLAT2, g, [AT, AT]),
    "inverse_metric_at": lambda g: inverse_metric_at(g, AT),
    "inverse_metric_at-batch": lambda g: inverse_metric_at(g, [AT, [0.0, 0.0]]),
    "tension_identity_at": lambda g: tension_identity_at(g, FLAT2, AT),
    "tension_identity_at-hat": lambda g: tension_identity_at(FLAT2, g, [AT, [0.0, 0.0]]),
}


@pytest.mark.parametrize("name", CONNECTION_CONSUMERS)
def test_non_finite_entry_is_named(name):
    with pytest.raises(ex.EvalDomainError) as exc:
        CONNECTION_CONSUMERS[name](OVERFLOWS)
    assert exc.value.culprit == "exp(1000*x1)"
    assert str(exc.value) == (
        "metric entry (1,1) or a derivative of it is not finite at (0.9, 0.0) "
        "in 'exp(1000*x1)'"
    )


@pytest.mark.parametrize("order, x1", [(1, 1.01), (2, 1.0)], ids=["gradient", "hessian"])
def test_non_finite_derivative_of_a_finite_entry_is_named(order, x1):
    # exp(700*x1) is finite at both points; at 1.01 its gradient overflows,
    # at 1.0 only its Hessian, which an order-1 pass does not form
    g = ChartedMetric.from_strings(
        ["x1", "x2"], [["exp(700*x1)", "0"], ["0", "1"]], [(-2, 2), (-1, 1)]
    )
    x = [[0.0, 0.0], [x1, 0.5]]
    assert np.isfinite(metric_at(g, x)).all()
    with pytest.raises(ex.EvalDomainError) as exc:
        metric_jets_at(g, x, order)
    assert str(exc.value) == (
        f"metric entry (1,1) or a derivative of it is not finite at ({x1!r}, 0.5) "
        "in 'exp(700*x1)'"
    )
    if order == 2:
        assert np.isfinite(metric_jets_at(g, x, 1)[1]).all()


# log of a negative value in entries (1,2) and (2,2): every upper entry is
# evaluated in one walk, in row order, which fails at the first of them
TWO_BAD = ChartedMetric.from_strings(
    ["x1", "x2"], [["3", "log(x1 - 2)"], ["log(x1 - 2)", "log(x2 - 3)"]], [(-1, 1), (-1, 1)]
)
EVERY_WALK = {
    **CONNECTION_CONSUMERS,
    "metric_at": lambda g: metric_at(g, AT),
    "check_harmonic": lambda g: check_harmonic(g, FLAT2, samples=8),
}


@pytest.mark.parametrize("name", EVERY_WALK)
def test_first_failing_upper_entry_is_named(name):
    with pytest.raises(ex.EvalDomainError) as exc:
        EVERY_WALK[name](TWO_BAD)
    assert exc.value.culprit == "log(x1 - 2)"


def _non_finite_order_charts():
    """The chart of ``conftest.NON_FINITE_ORDER``, a flat chart on its box,
    and the first two lattice points of its seed."""
    doc = NON_FINITE_ORDER
    bad = ChartedMetric.from_strings(doc["coordinates"], doc["metric"], doc["domain"])
    flat = ChartedMetric.from_strings(doc["coordinates"], [["1", "0"], ["0", "1"]], doc["domain"])
    pts = lattice_points(bad.domain, 2, NON_FINITE_ORDER_SEED)
    # (2,2) overflows at the first point, (1,1) at the second only
    with np.errstate(over="ignore"):
        values = metric_at(bad, pts)
    assert np.isinf(values[0, 1, 1]) and np.isfinite(values[0, 0, 0])
    assert np.isinf(values[1, 0, 0])
    return bad, flat, pts


NON_FINITE_ORDER_WALKS = {
    "metric_jets_at-1": lambda bad, flat, pts: metric_jets_at(bad, pts, order=1),
    "metric_jets_at-2": lambda bad, flat, pts: metric_jets_at(bad, pts, order=2),
    "tension_identity_at-g": lambda bad, flat, pts: tension_identity_at(bad, flat, pts),
    "tension_identity_at-ghat": lambda bad, flat, pts: tension_identity_at(flat, bad, pts),
    "check_harmonic-g": lambda bad, flat, pts: check_harmonic(
        bad, flat, samples=2, seed=NON_FINITE_ORDER_SEED
    ),
    "check_harmonic-ghat": lambda bad, flat, pts: check_harmonic(
        flat, bad, samples=2, seed=NON_FINITE_ORDER_SEED
    ),
}


@pytest.mark.parametrize("name", NON_FINITE_ORDER_WALKS)
def test_first_non_finite_point_comes_before_the_first_entry(name):
    # the jets are checked from G and the rows once the walk is done: the
    # error names the first point where any entry is not finite, then the
    # first such entry there, (2,2), not (1,1), which fails at a later point
    bad, flat, pts = _non_finite_order_charts()
    with pytest.raises(ex.EvalDomainError) as exc:
        NON_FINITE_ORDER_WALKS[name](bad, flat, pts)
    point = ", ".join(repr(float(v)) for v in pts[0])
    assert str(exc.value) == (
        f"metric entry (2,2) or a derivative of it is not finite at ({point}) "
        "in 'exp(1000*x2 - 100)'"
    )


def test_one_walk_gives_what_a_walk_per_entry_gives():
    # the entries of a dense chart share subtrees such as 0.25*x1, and a
    # lifted chart shares far more; each entry walked on its own (no shared
    # values) must give the same bits
    for g in (dense_metric(4), lift_to_chart(dense_metric(2), LiftKind.SASAKI_TM)):
        x = domain_points(g, 9)
        env = [x[:, i] for i in range(g.dim)]
        alone = [[ex.evaluate(e, env) for e in row] for row in g.components]
        assert np.array_equal(metric_at(g, x), np.moveaxis(np.array(alone), -1, 0))
    # a map whose components share x1*x2, against one parsed per component
    coords = ("x1", "x2")
    sources = ["x1 + 0.1*x1*x2", "x2 - 0.1*x1*x2"]
    table: dict = {}
    shared = CoordinateMap(coords, coords, tuple(ex.parse_expression(t, coords, table) for t in sources))
    g, h = dense_metric(2), dense_metric(2, amp=0.17)
    x = 0.5 * domain_points(g, 9)
    want = tension_map_at(CoordinateMap.from_strings(coords, coords, sources), g, h, x)
    assert np.array_equal(tension_map_at(shared, g, h, x), want)


@pytest.mark.parametrize("name", CONNECTION_CONSUMERS)
def test_finite_singular_metric_is_degenerate(name):
    with pytest.raises(MetricDegenerate) as exc:
        CONNECTION_CONSUMERS[name](SINGULAR)
    assert np.array_equal(exc.value.point, AT)
    assert exc.value.det == 0.0
