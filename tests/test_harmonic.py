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
from metriclift import harmonic
from metriclift.harmonic import (
    MAX_SAMPLES,
    SamplingExhausted,
    check_harmonic,
    lattice_points,
    shared_domain,
    tension_identity_at,
    tension_map_at,
)
from metriclift.lifts import LiftKind, check_lift_conditions
from metriclift.metric import (
    ChartedMetric,
    MetricDegenerate,
    christoffel_at,
    inverse_metric_at,
)
from conftest import HARMONIC_PAIRS, NON_HARMONIC_PAIRS, dense_metric, domain_points


class TestTensionIdentity:
    def test_same_metric_is_exactly_zero(self):
        metrics = [g for _, g, _ in HARMONIC_PAIRS[:4]] + [dense_metric(m) for m in (3, 5, 7)]
        for g in metrics:
            x = domain_points(g, 64)
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


# ghat = diag(x1^2, 1) has |det| = 1e-14 <= 1e-12 at x1 = 1e-7; g is flat
FLAT2 = ChartedMetric.from_strings(["x1", "x2"], [["1", "0"], ["0", "1"]],
                                   [(-1, 1), (-1, 1)])
PINCHED2 = ChartedMetric.from_strings(["x1", "x2"], [["x1^2", "0"], ["0", "1"]],
                                      [(-1, 1), (-1, 1)])


class TestTensionDegenerate:
    @pytest.mark.parametrize("g, ghat", [(FLAT2, PINCHED2), (PINCHED2, FLAT2)],
                             ids=["hat-degenerate", "source-degenerate"])
    def test_names_first_bad_point(self, g, ghat):
        single = np.array([1e-7, 0.5])
        batch = np.array([[0.5, 0.5], [-1e-7, 0.25], [1e-8, -0.75], [0.3, 0.1]])
        for x, bad, text in [(single, single, "(1e-07, 0.5)"),
                             (batch, batch[1], "(-1e-07, 0.25)")]:
            with pytest.raises(MetricDegenerate) as exc:
                tension_identity_at(g, ghat, x)
            assert np.array_equal(exc.value.point, bad)
            assert exc.value.det == pytest.approx(1e-14)
            assert text in str(exc.value)


FLAT1 = ChartedMetric.from_strings(["x1"], [["1"]], [(-2, 2)])


# Every fixture pair, plus dense metrics against a non-homothetic
# perturbation (other quadratic and sine coefficients).
ORACLE_PAIRS = [
    pytest.param(g, ghat, id=name) for name, g, ghat in HARMONIC_PAIRS + NON_HARMONIC_PAIRS
] + [
    pytest.param(dense_metric(m), dense_metric(m, quad=0.3, amp=0.05), id=f"dense-m{m}")
    for m in (3, 5, 7)
]
ORACLE_RTOL = 1e-12


class TestTensionMap:
    @pytest.mark.parametrize("g, ghat", ORACLE_PAIRS)
    def test_identity_map_collapses(self, g, ghat):
        # the Christoffel route (general-map tension of the identity) is
        # an independent oracle for the contract-first identity kernel
        phi = CoordinateMap.from_strings(g.coords, g.coords, list(g.coords))
        x = domain_points(g, 32)
        want = tension_map_at(phi, g, ghat, x)
        got = tension_identity_at(g, ghat, x)
        assert got.shape == want.shape == x.shape
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= ORACLE_RTOL * scale

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

    @pytest.mark.parametrize(
        "check",
        [
            lambda g, n: check_harmonic(g, g, samples=n),
            lambda g, n: check_lift_conditions(g, g, LiftKind.SASAKI_TM, samples=n),
        ],
        ids=["check", "check-lift"],
    )
    def test_sample_cap_rejected_before_sampling(self, monkeypatch, check):
        def no_lattice(*args, **kwargs):
            raise AssertionError("lattice_points reached")

        monkeypatch.setattr(harmonic, "lattice_points", no_lattice)
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        for n in (MAX_SAMPLES + 1, 10**15):
            with pytest.raises(ValueError, match=f"at most {MAX_SAMPLES}"):
                check(g, n)
        # the cap itself is accepted: sampling starts
        with pytest.raises(AssertionError, match="lattice_points reached"):
            check(g, MAX_SAMPLES)

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
