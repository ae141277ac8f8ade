import numpy as np
import pytest

from metriclift import EgorovSpec, GodelSpec, egorov_metric, godel_metric
from metriclift import exprlang as ex
from metriclift.jets import Jet2, as_jet2
from metriclift.lifts import LiftKind, lift_to_chart
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
        gam = christoffel_at(g, [0, 0, 0]).array
        expected = np.zeros((3, 3, 3))
        expected[1, 0, 0] = -0.5
        expected[0, 0, 2] = expected[0, 2, 0] = 0.5
        assert np.allclose(gam, expected, atol=1e-15)

    def test_constant_metric_vanishes(self):
        gam = christoffel_at(SCALED2, [0.4, -0.9]).array
        assert np.array_equal(gam, np.zeros((2, 2, 2)))

    def test_godel_matches_finite_differences(self, rng):
        g = godel_metric(GodelSpec("x2", "cosh(x2)"))
        for _ in range(5):
            x = np.array([0.0, rng.uniform(-1, 1), 0.0, 0.0])
            gam = christoffel_at(g, x).array
            fd = fd_christoffel(g, x)
            assert np.abs(gam - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_lower_index_symmetry_exact(self):
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 3)
            gam = christoffel_at(g, x).array
            assert np.array_equal(gam, np.swapaxes(gam, -1, -2))

    def test_metric_compatibility(self):
        # d_k g_ij - G^l_ki g_lj - G^l_kj g_il = 0 (Levi-Civita)
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 100)
            G, dG, _ = metric_jets_at(g, x, order=1)
            gam = christoffel_at(g, x).array
            nabla = (
                np.einsum("nijk->nkij", dG)
                - np.einsum("nlki,nlj->nkij", gam, G)
                - np.einsum("nlkj,nil->nkij", gam, G)
            )
            assert np.abs(nabla).max() < 1e-9


class TestCurvature:
    def test_flat_curvature_zero(self):
        R = curvature_at(FLAT2, [0.2, 0.3]).array
        assert np.array_equal(R, np.zeros((2, 2, 2, 2)))

    def test_antisymmetry_exact_and_diagonal_zero(self):
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 100)
            R = curvature_at(g, x).array
            assert np.array_equal(R, -np.swapaxes(R, -3, -2))
            for i in range(g.dim):
                assert np.array_equal(R[..., i, i, :], np.zeros_like(R[..., i, i, :]))

    def test_first_bianchi(self):
        for _, g in GALLERY_METRICS:
            x = domain_points(g, 100)
            R = curvature_at(g, x).array
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
                    christoffel_at(g, x + e).array - christoffel_at(g, x - e).array
                ) / (2 * h)
            gam, exact = christoffel_and_derivative_at(g, x)
            assert np.abs(exact - dgam).max() <= 1e-6 * max(1.0, np.abs(dgam).max())
            P = np.einsum("kjhi->kijh", dgam)
            Q = np.einsum("kil,ljh->kijh", gam, gam)
            fd = (P - np.swapaxes(P, 1, 2)) + (Q - np.swapaxes(Q, 1, 2))
            R = curvature_at(g, x).array
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
