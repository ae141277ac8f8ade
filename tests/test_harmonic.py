import numpy as np
import pytest

from metriclift import (
    CoordinateMap,
    EgorovSpec,
    GodelSpec,
    egorov_metric,
    egorov_residual_closed_form,
    godel_metric,
)
from metriclift.harmonic import (
    SamplingExhausted,
    check_harmonic,
    lattice_points,
    shared_domain,
    tension_identity_at,
    tension_map_at,
)
from metriclift.lifts import LiftKind, check_lift_conditions
from metriclift.metric import ChartedMetric, christoffel_at, inverse_metric_at
from conftest import HARMONIC_PAIRS, NON_HARMONIC_PAIRS, domain_points


class TestTensionIdentity:
    def test_same_metric_is_exactly_zero(self):
        for _, g in [(n, a) for n, a, _ in HARMONIC_PAIRS[:4]]:
            x = domain_points(g, 10)
            tau = tension_identity_at(g, g, x)
            assert np.array_equal(tau, np.zeros_like(tau))

    def test_egorov_shifted_profile_is_harmonic(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        ghat = egorov_metric(EgorovSpec(3, "exp(x3)+1"))
        tau = tension_identity_at(g, ghat, domain_points(g, 50))
        assert np.abs(tau).max() < 1e-12

    def test_egorov_doubled_profile_m4(self):
        g = egorov_metric(EgorovSpec(4, "exp(x4)"))
        ghat = egorov_metric(EgorovSpec(4, "2*exp(x4)"))
        tau = tension_identity_at(g, ghat, domain_points(g, 20))
        # single nonzero component, index m-1 (1-based), value -1
        assert np.abs(tau[:, 2] + 1.0).max() < 1e-12
        tau[:, 2] = 0.0
        assert np.abs(tau).max() < 1e-12

    def test_matches_closed_form_componentwise(self):
        spec = EgorovSpec(5, "cosh(x5)")
        g = egorov_metric(spec)
        ghat = egorov_metric(EgorovSpec(5, "x5^2+2"))
        pts = domain_points(g, 30)
        tau = tension_identity_at(g, ghat, pts)
        want = egorov_residual_closed_form(spec, "x5^2+2", pts)
        assert np.abs(tau[:, spec.m - 2] - want).max() < 1e-9

    def test_roles_are_ordered_not_symmetric(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        ghat = egorov_metric(EgorovSpec(3, "2*exp(x3)"))
        x = np.array([0.2, -0.4, 0.6])
        forward = tension_identity_at(g, ghat, x)
        backward = tension_identity_at(ghat, g, x)
        # swapping hats negates the Christoffel difference...
        ginv = inverse_metric_at(g, x)
        d = christoffel_at(g, x).array - christoffel_at(ghat, x).array
        swapped_diff_only = np.einsum("ij,kij->k", ginv, d)
        assert np.allclose(forward, -swapped_diff_only, atol=1e-15)
        # ...but the true swap also changes the contracting inverse
        assert not np.allclose(backward, -forward)

    def test_dimension_mismatch(self):
        g3 = egorov_metric(EgorovSpec(3, "exp(x3)"))
        g4 = egorov_metric(EgorovSpec(4, "exp(x4)"))
        with pytest.raises(ValueError, match="dimension"):
            tension_identity_at(g3, g4, [0, 0, 0])


FLAT1 = ChartedMetric.from_strings(["x1"], [["1"]], [(-2, 2)])


class TestTensionMap:
    def test_identity_map_collapses(self):
        g, ghat = HARMONIC_PAIRS[0][1], NON_HARMONIC_PAIRS[0][1]
        phi = CoordinateMap.from_strings(g.coords, g.coords, list(g.coords))
        for x in domain_points(g, 8):
            a = tension_map_at(phi, g, ghat, x)
            b = tension_identity_at(g, ghat, x)
            assert np.abs(a - b).max() < 1e-12

    def test_constant_map_vanishes(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        h = egorov_metric(EgorovSpec(3, "x3^2+2"))
        phi = CoordinateMap.from_strings(g.coords, h.coords, ["0.1", "0.2", "0.3"])
        tau = tension_map_at(phi, g, h, np.array([0.5, -0.5, 0.25]))
        assert np.array_equal(tau, np.zeros(3))

    def test_one_dimensional_parabola(self):
        # flat source and target: tau = phi'' = 2, second-difference oracle
        phi = CoordinateMap.from_strings(["x1"], ["x1"], ["x1^2"])
        tau = tension_map_at(phi, FLAT1, FLAT1, np.array([0.7]))
        assert tau[0] == pytest.approx(2.0, abs=1e-12)
        h = 1e-5
        f = lambda t: t * t
        fd = (f(0.7 + h) - 2 * f(0.7) + f(0.7 - h)) / h**2
        assert tau[0] == pytest.approx(fd, abs=1e-5)

    def test_image_outside_target_domain(self):
        phi = CoordinateMap.from_strings(["x1"], ["x1"], ["x1 + 10"])
        with pytest.raises(ValueError, match="target domain"):
            tension_map_at(phi, FLAT1, FLAT1, np.array([0.0]))


class TestCheckHarmonic:
    def test_egorov_m5_quadratic_pair(self):
        g = egorov_metric(EgorovSpec(5, "x5^2+2"))
        ghat = egorov_metric(EgorovSpec(5, "x5^2+2.5"))
        rep = check_harmonic(g, ghat, samples=64)
        assert rep.verdict == "harmonic-on-samples"
        assert rep.max_abs_residual < 1e-9
        assert rep.samples_used == 64

    def test_godel_non_harmonic(self):
        g = godel_metric(GodelSpec("x2", "cosh(x2)"))
        ghat = godel_metric(GodelSpec("2*x2", "cosh(x2)"))
        rep = check_harmonic(g, ghat, samples=64)
        assert rep.verdict == "not-harmonic"
        assert rep.max_abs_residual > 1e-3

    def test_same_metric_zero_residual(self):
        g = godel_metric(GodelSpec("x2", "cosh(x2)"))
        rep = check_harmonic(g, g, samples=16)
        assert rep.verdict == "harmonic-on-samples"
        assert rep.max_abs_residual == 0.0

    def test_verdict_follows_tolerance_invariant(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        ghat = egorov_metric(EgorovSpec(3, "2*exp(x3)"))
        rep = check_harmonic(g, ghat, samples=32, tol=1e-9)
        assert (rep.verdict == "not-harmonic") == (rep.max_abs_residual > rep.tolerance)
        loose = check_harmonic(g, ghat, samples=32, tol=10.0)
        assert loose.verdict == "harmonic-on-samples"

    def test_deterministic_reports(self):
        g = egorov_metric(EgorovSpec(4, "cosh(x4)"))
        ghat = egorov_metric(EgorovSpec(4, "2*cosh(x4)"))
        a = check_harmonic(g, ghat, samples=48, seed=7)
        b = check_harmonic(g, ghat, samples=48, seed=7)
        assert a == b

    def test_seed_changes_sample_set(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        ghat = egorov_metric(EgorovSpec(3, "2*exp(x3)"))
        a = check_harmonic(g, ghat, samples=16, seed=1)
        b = check_harmonic(g, ghat, samples=16, seed=2)
        assert a.worst_point != b.worst_point

    def test_parameter_validation(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        with pytest.raises(ValueError):
            check_harmonic(g, g, samples=0)
        with pytest.raises(ValueError):
            check_harmonic(g, g, tol=0.0)

    def test_degenerate_points_resampled(self):
        # det = x1^2 dips below 1e-12 only for |x1| <= 1e-6
        g = ChartedMetric.from_strings(
            ["x1", "x2"], [["x1^2", "0"], ["0", "1"]], [(-2e-6, 2e-6), (-1, 1)]
        )
        rep = check_harmonic(g, g, samples=16)
        assert rep.samples_used == 16
        assert all(abs(p) > 1e-6 for p in (q[0] for q in [rep.worst_point]))

    def test_sampling_exhausted(self):
        g = ChartedMetric.from_strings(
            ["x1", "x2"], [["x1^2", "0"], ["0", "1"]], [(-1e-7, 1e-7), (-1, 1)]
        )
        with pytest.raises(SamplingExhausted):
            check_harmonic(g, g, samples=8)
        with pytest.raises(SamplingExhausted):
            check_lift_conditions(g, g, LiftKind.SASAKI_TM, samples=8)


class TestLattice:
    def test_points_stay_in_box(self):
        dom = [(-1.0, 2.0), (0.5, 0.75), (3.0, 4.0)]
        pts = lattice_points(dom, 200, seed=3)
        for k, (lo, hi) in enumerate(dom):
            assert pts[:, k].min() >= lo and pts[:, k].max() <= hi

    def test_deterministic_and_continuable(self):
        dom = [(-1.0, 1.0)] * 2
        a = lattice_points(dom, 20, seed=5)
        b = lattice_points(dom, 20, seed=5)
        assert np.array_equal(a, b)
        head = lattice_points(dom, 8, seed=5)
        tail = lattice_points(dom, 12, seed=5, start=8)
        assert np.array_equal(np.vstack([head, tail]), a)

    def test_disjoint_domains_rejected(self):
        a = ChartedMetric.from_strings(["x1", "x2"], [["1", "0"], ["0", "1"]],
                                       [(0, 1), (0, 1)])
        b = ChartedMetric.from_strings(["x1", "x2"], [["1", "0"], ["0", "1"]],
                                       [(2, 3), (0, 1)])
        with pytest.raises(ValueError, match="intersect"):
            shared_domain(a, b)
