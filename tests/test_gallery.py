import numpy as np
import pytest

from metriclift import (
    EgorovSpec,
    GodelSpec,
    WalkerSpec,
    egorov_metric,
    egorov_residual_closed_form,
    godel_condition,
    godel_metric,
    walker_metric,
)
from metriclift.exprlang import eval_value, parse_expression
from metriclift.gallery import MAX_EGOROV_DIM
from metriclift.harmonic import check_harmonic, lattice_points, shared_domain, tension_identity_at
from metriclift.metric import christoffel_at, metric_at
from conftest import domain_points, fd_christoffel


class TestEgorov:
    def test_matrix_presentation_m3(self):
        g = egorov_metric(EgorovSpec(3, "exp(x3)"))
        x = np.array([0.4, -0.1, 0.7])
        f = np.exp(0.7)
        want = np.array([[f, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert np.allclose(metric_at(g, x), want, atol=1e-15)

    def test_constant_profile_flat_connection(self):
        g = egorov_metric(EgorovSpec(4, "1"))
        gam = christoffel_at(g, [0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(gam, np.zeros((4, 4, 4)))

    def test_determinant_oracle_m5(self):
        spec = EgorovSpec(5, "x5^2+2")
        g = egorov_metric(spec)
        f = parse_expression("x5^2+2", ["x5"])
        for x in domain_points(g, 20):
            det = np.linalg.det(metric_at(g, x))
            want = -eval_value(f, [x[4]]) ** (spec.m - 2)
            assert det == pytest.approx(want, rel=1e-10)

    def test_profile_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EgorovSpec(3, "x3")  # changes sign on [-1, 1]

    def test_minimum_dimension(self):
        with pytest.raises(ValueError, match="m >= 3"):
            EgorovSpec(2, "exp(x2)")

    def test_maximum_dimension(self):
        assert EgorovSpec(MAX_EGOROV_DIM, f"exp(x{MAX_EGOROV_DIM})").m == MAX_EGOROV_DIM
        with pytest.raises(ValueError, match=f"m <= {MAX_EGOROV_DIM}"):
            EgorovSpec(MAX_EGOROV_DIM + 1, f"exp(x{MAX_EGOROV_DIM + 1})")

    def test_closed_form_shift_invariance(self):
        spec = EgorovSpec(4, "cosh(x4)")
        for x in domain_points(egorov_metric(spec), 10):
            assert egorov_residual_closed_form(spec, "cosh(x4)+3", x) == pytest.approx(
                0.0, abs=1e-15
            )

    def test_closed_form_doubled_exponential(self):
        spec = EgorovSpec(4, "exp(x4)")
        for x in domain_points(egorov_metric(spec), 10):
            assert egorov_residual_closed_form(spec, "2*exp(x4)", x) == pytest.approx(-1.0)

    def test_closed_form_same_profile(self):
        spec = EgorovSpec(3, "x3^2+2")
        assert egorov_residual_closed_form(spec, "x3^2+2", [0.0, 0.0, 0.3]) == 0.0

    def test_closed_form_constant_profile(self):
        # f = 2 against fhat = x3 + 3: (m-2)(f' - fhat')/(2f) = -1/4
        spec = EgorovSpec(3, "2")
        x = [0.1, -0.2, 0.3]
        want = egorov_residual_closed_form(spec, "x3+3", x)
        assert want == -0.25
        tau = tension_identity_at(egorov_metric(spec), egorov_metric(EgorovSpec(3, "x3+3")), x)
        assert tau[1] == want
        pts = domain_points(egorov_metric(spec), 5)
        assert np.array_equal(egorov_residual_closed_form(spec, "x3+3", pts), np.full(5, -0.25))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_tension_concentrates_in_one_component(self, m):
        # full tension vector: only component m-1 (1-based) may be nonzero
        # and it equals the closed form
        spec = EgorovSpec(m, f"exp(x{m})")
        g = egorov_metric(spec)
        fhat = f"cosh(x{m})+0.5"
        ghat = egorov_metric(EgorovSpec(m, fhat))
        pts = domain_points(g, 100)
        tau = tension_identity_at(g, ghat, pts)
        want = egorov_residual_closed_form(spec, fhat, pts)
        assert np.abs(tau[:, m - 2] - want).max() < 1e-9
        others = np.delete(tau, m - 2, axis=1)
        assert np.abs(others).max() < 1e-9


class TestWalker:
    def test_zero_functions_flat(self):
        g = walker_metric(WalkerSpec("0", "0", "0"))
        gam = christoffel_at(g, [0.3, -0.3, 0.9, -0.9])
        assert np.array_equal(gam, np.zeros((4, 4, 4)))

    def test_det_is_one_everywhere(self):
        g = walker_metric(WalkerSpec("x1", "x2", "0"))
        for x in domain_points(g, 25):
            assert np.linalg.det(metric_at(g, x)) == pytest.approx(1.0, rel=1e-12)

    def test_christoffels_match_finite_differences(self):
        g = walker_metric(WalkerSpec("x1", "x2", "0"))
        for x in domain_points(g, 6):
            gam = christoffel_at(g, x)
            fd = fd_christoffel(g, x)
            assert np.abs(gam - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_identical_functions_harmonic(self):
        g = walker_metric(WalkerSpec("x1*x3", "sin(x2)", "x4"))
        ghat = walker_metric(WalkerSpec("x1*x3", "sin(x2)", "x4"))
        rep = check_harmonic(g, ghat, samples=32)
        assert rep.verdict == "harmonic-on-samples"

    def test_constant_shifts_are_harmonic(self):
        g = walker_metric(WalkerSpec("x1", "x2", "0"))
        ghat = walker_metric(WalkerSpec("x1+3", "x2-1", "0.25"))
        rep = check_harmonic(g, ghat, samples=64)
        assert rep.verdict == "harmonic-on-samples"
        assert rep.max_abs_residual < 1e-12

    def test_generic_perturbation_not_harmonic(self):
        g = walker_metric(WalkerSpec("x1", "x2", "0"))
        ghat = walker_metric(WalkerSpec("x1 + x2*x3", "x2", "0"))
        rep = check_harmonic(g, ghat, samples=64)
        assert rep.verdict == "not-harmonic"

    def test_vanishing_tension_imposes_two_constraints(self, rng):
        # rank of the residual map over random perturbations of (a, b, c)
        base = ("x1", "x2", "0")
        g = walker_metric(WalkerSpec(*base))
        monomials = ["x1", "x2", "x3", "x4", "x1*x3", "x2*x3", "x2*x4", "x1*x2"]
        x0 = np.array([0.35, -0.2, 0.55, 0.15])
        rows = []
        for _ in range(14):
            hats = []
            for source in base:
                coef = rng.uniform(-1, 1, size=len(monomials))
                terms = " + ".join(
                    f"{c:.6f}*{mono}" for c, mono in zip(coef, monomials)
                )
                hats.append(f"{source} + {terms}")
            ghat = walker_metric(WalkerSpec(*hats))
            rows.append(tension_identity_at(g, ghat, x0))
        rows = np.asarray(rows)
        # components 3 and 4 never respond
        assert np.abs(rows[:, 2:]).max() < 1e-12
        s = np.linalg.svd(rows, compute_uv=False)
        assert (s > 1e-8 * s[0]).sum() == 2

    def test_which_derivatives_drive_the_residual(self):
        # pins the coordinate meaning of the two standard conditions:
        # tau^2 responds to d(a)/dx2 and d(c)/dx1, tau^1 to d(c)/dx2 and
        # d(b)/dx1 (so the standard subscripts read t = x2, x = x1)
        base = WalkerSpec("x1", "x2", "0")
        g = walker_metric(base)
        x0 = np.array([0.3, 0.1, -0.4, 0.2])

        def tau(a, b, c):
            return tension_identity_at(g, walker_metric(WalkerSpec(a, b, c)), x0)

        np.testing.assert_allclose(
            tau("x1 + 1.5*x2", "x2", "0"), [0, 1.5, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(tau("x1 + 2*x1", "x2", "0"), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(
            tau("x1", "x2", "0.5*x1"), [0, 0.5, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            tau("x1", "x2", "0.5*x2"), [0.5, 0, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            tau("x1", "x2 - 2*x1", "0"), [-2, 0, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(tau("x1", "x2 + x2", "0"), np.zeros(4), atol=1e-12)


class TestGodel:
    def test_trivial_profiles_give_constant_metric(self):
        g = godel_metric(GodelSpec("0", "1"))
        G = metric_at(g, [0.2, 0.5, -0.3, 0.8])
        assert np.array_equal(G, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_entries_at_origin(self):
        g = godel_metric(GodelSpec("x2", "cosh(x2)"))
        G = metric_at(g, [0.0, 0.0, 0.0, 0.0])
        assert G[0, 2] == 0.0 and G[2, 2] == -1.0 and G[0, 0] == 1.0

    def test_vanishing_p_rejected(self):
        with pytest.raises(ValueError, match="nonvanishing"):
            GodelSpec("x2", "sinh(x2)", interval=(0.0, 1.0))

    def test_condition_sqrt_shift_harmonic(self):
        spec = GodelSpec("x2", "cosh(x2)")
        hat = GodelSpec("x2", "sqrt(cosh(x2)^2+1)")
        for t in np.linspace(0.1, 1.0, 9):
            assert godel_condition(spec, hat, t) == pytest.approx(0.0, abs=1e-14)

    def test_condition_direct_substitution(self):
        spec = GodelSpec("x2", "cosh(x2)")
        hat = GodelSpec("2*x2", "cosh(x2)")
        for t in (0.1, 0.35, 0.8):
            assert godel_condition(spec, hat, t) == pytest.approx(2.0 * t)

    def test_condition_same_spec_zero(self):
        spec = GodelSpec("x2^2", "exp(x2)")
        assert godel_condition(spec, spec, 0.4) == 0.0

    @pytest.mark.parametrize(
        "hat,harmonic",
        [
            (GodelSpec("x2", "sqrt(cosh(x2)^2+1)"), True),
            (GodelSpec("x2", "sqrt(cosh(x2)^2+2*0.5)"), True),
            (GodelSpec("2*x2", "cosh(x2)"), False),
            (GodelSpec("x2", "2*cosh(x2)"), False),
        ],
    )
    def test_verdict_matches_condition_at_every_sample(self, hat, harmonic):
        spec = GodelSpec("x2", "cosh(x2)")
        g, ghat = godel_metric(spec), godel_metric(hat)
        samples, tol, seed = 64, 1e-9, 42
        rep = check_harmonic(g, ghat, samples=samples, tol=tol, seed=seed)
        pts = lattice_points(shared_domain(g, ghat), samples, seed)
        conds = np.array([godel_condition(spec, hat, x[1]) for x in pts])
        assert rep.verdict == ("harmonic-on-samples" if harmonic else "not-harmonic")
        assert (np.abs(conds) <= tol).all() == (rep.verdict == "harmonic-on-samples")
        if not harmonic:
            # the obstruction is visible at every sample for these pairs
            assert (np.abs(conds) > tol).all()
            assert rep.max_abs_residual > 1e-3
