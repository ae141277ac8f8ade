import numpy as np
import pytest

import metriclift.lifts as lifts_mod
from metriclift import EgorovSpec, GodelSpec, egorov_metric, godel_metric
from metriclift.harmonic import lattice_points, shared_domain, tension_identity_at
from metriclift.lifts import (
    FiberPoint,
    LiftKind,
    adapted_frame_at,
    check_lift_conditions,
    components_in_adapted_frame,
    connection_in_frame,
    fiber_lattice,
    lift_blocks_at,
    lift_to_chart,
    lifted_tension_at,
)
from metriclift.metric import ChartedMetric, christoffel_at, metric_at
from conftest import HARMONIC_PAIRS, NON_HARMONIC_PAIRS, dense_metric

ALL_KINDS = list(LiftKind)
FLAT2 = ChartedMetric.from_strings(
    ["x1", "x2"], [["1", "0"], ["0", "1"]], [(-1, 1), (-1, 1)]
)
EGOROV3 = egorov_metric(EgorovSpec(3, "exp(x3)"))
GODEL = godel_metric(GodelSpec("x2", "cosh(x2)"))


def _some_fiber_points(g, n=6, seed=99):
    return fiber_lattice(g, n, seed)


# Every kind on the Egorov and Goedel bases, plus a dense m=5 base for the
# horizontal and complete lifts (its Sasaki charts are over the tree-size
# cap): there the adapted-frame horizontal blocks check the complete-lift
# assembly that emits both charts.
FRAME_CASES = [
    pytest.param(g, kind, id=f"g{i}-{kind}")
    for i, g in enumerate([EGOROV3, GODEL])
    for kind in ALL_KINDS
] + [
    pytest.param(dense_metric(5), kind, id=f"dense-m5-{kind.value}")
    for kind in (LiftKind.HORIZONTAL_TM, LiftKind.COMPLETE_TM)
]


class TestLiftBlocks:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_flat_base_blocks(self, kind):
        q = FiberPoint([0.2, -0.5], [0.9, 0.4])
        blocks = lift_blocks_at(FLAT2, kind, q)
        assert np.array_equal(blocks.gamma_base, np.zeros((2, 4, 4)))
        assert np.array_equal(blocks.gamma_fiber, np.zeros((2, 4, 4)))
        if kind is LiftKind.SASAKI_TM:
            assert np.array_equal(blocks.metric, np.eye(4))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("base_name,g", [("egorov", EGOROV3), ("godel", GODEL)])
    def test_metric_symmetric_and_inverse_consistent(self, kind, base_name, g):
        for q in _some_fiber_points(g):
            blocks = lift_blocks_at(g, kind, q)
            assert np.array_equal(blocks.metric, blocks.metric.T)
            n = 2 * g.dim
            assert np.abs(blocks.inverse @ blocks.metric - np.eye(n)).max() < 1e-12

    def test_sasaki_mixed_block_matches_fd_curvature(self):
        # (1,2) block entries (1/2) R^k_{hji} u^h against a curvature
        # assembled from finite differences of the Christoffels
        g = EGOROV3
        q = FiberPoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        m, h = 3, 1e-5
        dgam = np.empty((m, m, m, m))
        for p in range(m):
            e = np.zeros(m)
            e[p] = h
            dgam[..., p] = (
                christoffel_at(g, q.base + e).array
                - christoffel_at(g, q.base - e).array
            ) / (2 * h)
        gam = christoffel_at(g, q.base).array
        P = np.einsum("kjhi->kijh", dgam)
        Q = np.einsum("kil,ljh->kijh", gam, gam)
        riem_fd = (P - np.swapaxes(P, 1, 2)) + (Q - np.swapaxes(Q, 1, 2))
        want = 0.5 * np.einsum("h,khji->kij", q.fiber, riem_fd)
        blocks = lift_blocks_at(g, LiftKind.SASAKI_TM, q)
        got = blocks.gamma_base[:, :m, m:]
        assert np.abs(got - want).max() <= 1e-6 * max(1.0, np.abs(want).max())
        # and the (2,1) block is its transpose
        assert np.array_equal(
            blocks.gamma_base[:, m:, :m], np.swapaxes(got, -1, -2)
        )

    def test_horizontal_fiber_family_vanishes_for_every_input(self):
        for g in (EGOROV3, GODEL):
            for q in _some_fiber_points(g, n=8):
                blocks = lift_blocks_at(g, LiftKind.HORIZONTAL_TM, q)
                assert np.array_equal(
                    blocks.gamma_fiber, np.zeros_like(blocks.gamma_fiber)
                )

    def test_horizontal_blocks_fiber_independent_bitwise(self):
        base = np.array([0.25, -0.4, 0.6])
        q1 = FiberPoint(base, [0.1, 0.2, 0.3])
        q2 = FiberPoint(base, [-0.9, 0.5, 0.7])
        a = lift_blocks_at(EGOROV3, LiftKind.HORIZONTAL_TM, q1)
        b = lift_blocks_at(EGOROV3, LiftKind.HORIZONTAL_TM, q2)
        assert np.array_equal(a.gamma_base, b.gamma_base)
        assert np.array_equal(a.gamma_fiber, b.gamma_fiber)
        assert np.array_equal(a.metric, b.metric)

    def test_complete_inverse_lower_block(self):
        # lower-right inverse block carries u^h d_h g^{ij}
        q = FiberPoint([0.1, 0.2, 0.3], [0.5, -0.5, 1.0])
        blocks = lift_blocks_at(EGOROV3, LiftKind.COMPLETE_TM, q)
        h = 1e-6
        m = 3
        dginv = np.zeros((m, m))
        for k in range(m):
            e = np.zeros(m)
            e[k] = h
            dginv += q.fiber[k] * (
                np.linalg.inv(metric_at(EGOROV3, q.base + e))
                - np.linalg.inv(metric_at(EGOROV3, q.base - e))
            ) / (2 * h)
        assert np.abs(blocks.inverse[m:, m:] - dginv).max() < 1e-6

    def test_fiber_point_validation(self):
        with pytest.raises(ValueError, match="equal-length"):
            FiberPoint([0.0, 0.0], [1.0])
        with pytest.raises(ValueError, match="dimension"):
            lift_blocks_at(EGOROV3, LiftKind.SASAKI_TM, FiberPoint([0.0], [0.0]))


class TestLiftedTension:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_same_metric_exactly_zero(self, kind):
        for q in _some_fiber_points(EGOROV3, n=4):
            t = lifted_tension_at(EGOROV3, EGOROV3, kind, q)
            assert np.array_equal(t.base, np.zeros(3))
            assert np.array_equal(t.fiber, np.zeros(3))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_harmonic_pairs_vanish_and_match_base(self, kind):
        for name, g, ghat in HARMONIC_PAIRS[:2] + HARMONIC_PAIRS[6:8]:
            for q in _some_fiber_points(g, n=4):
                t = lifted_tension_at(g, ghat, kind, q)
                tau = tension_identity_at(g, ghat, q.base)
                assert np.abs(t.fiber).max() < 1e-10, name
                assert np.abs(t.base - tau).max() < 1e-10 or (
                    kind is LiftKind.COMPLETE_TM and np.abs(t.base).max() < 1e-10
                ), name

    def test_non_harmonic_multiples(self):
        # the trace families reproduce the base tension with the exact
        # block-algebra multiples, also away from harmonicity
        for name, g, ghat in NON_HARMONIC_PAIRS:
            for q in _some_fiber_points(g, n=3):
                tau = tension_identity_at(g, ghat, q.base)
                for kind in (LiftKind.SASAKI_TM, LiftKind.HORIZONTAL_TM,
                             LiftKind.SASAKI_CTM):
                    t = lifted_tension_at(g, ghat, kind, q)
                    assert np.abs(t.base - tau).max() < 1e-10, (name, kind)
                    assert np.abs(t.fiber).max() < 1e-10, (name, kind)
                t = lifted_tension_at(g, ghat, LiftKind.COMPLETE_TM, q)
                assert np.abs(t.base).max() < 1e-12, name
                assert np.abs(t.fiber - 2.0 * tau).max() < 1e-10, name

    def test_horizontal_own_inverse_doubles(self):
        # the standard condition contracts against diag(g^-1, g^-1); the
        # horizontal metric's own inverse gives twice the value
        _, g, ghat = NON_HARMONIC_PAIRS[0]
        kind = LiftKind.HORIZONTAL_TM
        for q in _some_fiber_points(g, n=3):
            printed = lifted_tension_at(g, ghat, kind, q)
            blocks, hat = lift_blocks_at(g, kind, q), lift_blocks_at(ghat, kind, q)
            own_base = np.einsum(
                "ab,kba->k", blocks.inverse, hat.gamma_base - blocks.gamma_base
            )
            own_fiber = np.einsum(
                "ab,kba->k", blocks.inverse, hat.gamma_fiber - blocks.gamma_fiber
            )
            assert np.abs(printed.base).max() > 1e-3
            assert np.allclose(own_base, 2.0 * printed.base, atol=1e-14)
            assert np.allclose(own_fiber, 2.0 * printed.fiber, atol=1e-14)

    def test_chart_mismatch_rejected(self):
        g4 = egorov_metric(EgorovSpec(4, "exp(x4)"))
        q = FiberPoint([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="chart"):
            lifted_tension_at(EGOROV3, g4, LiftKind.SASAKI_TM, q)


class TestLiftToChart:
    def test_flat_sasaki_is_flat_block_diagonal(self):
        lifted = lift_to_chart(FLAT2, LiftKind.SASAKI_TM)
        assert lifted.dim == 4
        assert np.array_equal(metric_at(lifted, [0.3, 0.1, -0.8, 0.5]), np.eye(4))

    def test_egorov_complete_upper_left_entry_source(self):
        lifted = lift_to_chart(EGOROV3, LiftKind.COMPLETE_TM)
        from metriclift.exprlang import to_source

        assert to_source(lifted.components[0][0]) == "x6*exp(x3)"
        assert lifted.coords == ("x1", "x2", "x3", "x4", "x5", "x6")

    def test_lift_none_like_round_trip_of_sources(self):
        lifted = lift_to_chart(EGOROV3, LiftKind.SASAKI_TM)
        back = ChartedMetric.from_strings(
            lifted.coords, lifted.component_sources(), lifted.domain
        )
        pts = np.array([q.chart_point() for q in _some_fiber_points(EGOROV3, 5)])
        assert np.array_equal(metric_at(lifted, pts), metric_at(back, pts))

    @pytest.mark.parametrize("g,kind", FRAME_CASES)
    def test_chart_metric_equals_frame_transformed_blocks(self, g, kind):
        lifted = lift_to_chart(g, kind)
        for q in _some_fiber_points(g, n=5):
            blocks = lift_blocks_at(g, kind, q)
            T = adapted_frame_at(g, kind, q).T
            Tinv = np.linalg.inv(T)
            want = Tinv.T @ blocks.metric @ Tinv
            got = metric_at(lifted, q.chart_point())
            assert np.abs(got - want).max() < 1e-12

    def test_fiber_names_fall_back_when_not_numbered(self):
        g = ChartedMetric.from_strings(
            ["t", "r"], [["1", "0"], ["0", "r^2+1"]], [(-1, 1), (0.5, 1.5)]
        )
        assert lift_to_chart(g, LiftKind.SASAKI_TM).coords == ("t", "r", "u1", "u2")
        assert lift_to_chart(g, LiftKind.SASAKI_CTM).coords == ("t", "r", "p1", "p2")

    def test_fiber_name_collision_rejected(self):
        g = ChartedMetric.from_strings(
            ["u1", "t"], [["1", "0"], ["0", "1"]], [(-1, 1), (-1, 1)]
        )
        with pytest.raises(ValueError, match="fiber coordinate names"):
            lift_to_chart(g, LiftKind.SASAKI_TM)

    def test_tree_size_guard(self, monkeypatch):
        monkeypatch.setattr(lifts_mod, "MAX_LIFT_TREE_SIZE", 10)
        with pytest.raises(RuntimeError, match="too large"):
            lift_to_chart(EGOROV3, LiftKind.SASAKI_TM)

    def test_fiber_lattice_deterministic_in_box(self):
        a = fiber_lattice(GODEL, 16, seed=3)
        b = fiber_lattice(GODEL, 16, seed=3)
        assert all(
            np.array_equal(p.base, q.base) and np.array_equal(p.fiber, q.fiber)
            for p, q in zip(a, b)
        )
        for q in a:
            assert (np.abs(q.fiber) <= 1.0).all()
            for v, (lo, hi) in zip(q.base, GODEL.domain):
                assert lo <= v <= hi


class TestFrameChangeOracle:
    """The wholly generic pipeline on the induced chart, moved to the
    adapted frame, is the ground truth the block formulas are checked
    against."""

    @pytest.mark.parametrize("g", [EGOROV3, GODEL])
    def test_complete_blocks_are_the_induced_christoffels(self, g):
        lifted = lift_to_chart(g, LiftKind.COMPLETE_TM)
        m = g.dim
        for q in _some_fiber_points(g, n=4):
            blocks = lift_blocks_at(g, LiftKind.COMPLETE_TM, q)
            gam = christoffel_at(lifted, q.chart_point()).array
            assert np.abs(gam[:m] - blocks.gamma_base).max() < 1e-10
            assert np.abs(gam[m:] - blocks.gamma_fiber).max() < 1e-10

    @pytest.mark.parametrize("kind", [LiftKind.SASAKI_TM, LiftKind.SASAKI_CTM])
    @pytest.mark.parametrize("g", [EGOROV3, GODEL])
    def test_sasaki_blocks_match_except_presentation_corner(self, kind, g):
        # every block of both families agrees with the frame-changed
        # generic Christoffels except the fiber-family (2,1) corner,
        # whose honest value is zero (the printed matrices repeat the
        # (1,2) entries there to display a symmetric matrix); that corner
        # never enters the trace conditions
        lifted = lift_to_chart(g, kind)
        m = g.dim
        for q in _some_fiber_points(g, n=4):
            blocks = lift_blocks_at(g, kind, q)
            frame = adapted_frame_at(g, kind, q)
            omega = connection_in_frame(
                christoffel_at(lifted, q.chart_point()).array, frame
            )
            diff_base = omega[:m] - blocks.gamma_base
            assert np.abs(diff_base).max() < 1e-9
            diff_fiber = omega[m:] - blocks.gamma_fiber
            assert np.abs(diff_fiber[:, :m, :m]).max() < 1e-9  # (1,1)
            assert np.abs(diff_fiber[:, :m, m:]).max() < 1e-9  # (1,2)
            assert np.abs(diff_fiber[:, m:, m:]).max() < 1e-9  # (2,2)
            # corner: honest coefficient vanishes, printed carries the
            # transposed (1,2) entries
            assert np.abs(omega[m:, m:, :m]).max() < 1e-9
            assert np.array_equal(
                blocks.gamma_fiber[:, m:, :m],
                np.swapaxes(blocks.gamma_fiber[:, :m, m:], -1, -2),
            )

    def test_horizontal_printed_blocks_are_trace_normalized(self):
        # the printed horizontal family is not the honest adapted-frame
        # coefficient set; only its trace content coincides.  The honest
        # coefficients share the (1,1) base block and vanish elsewhere in
        # the base family.
        g = EGOROV3
        lifted = lift_to_chart(g, LiftKind.HORIZONTAL_TM)
        m = 3
        for q in _some_fiber_points(g, n=4):
            blocks = lift_blocks_at(g, LiftKind.HORIZONTAL_TM, q)
            frame = adapted_frame_at(g, LiftKind.HORIZONTAL_TM, q)
            omega = connection_in_frame(
                christoffel_at(lifted, q.chart_point()).array, frame
            )
            assert np.abs(omega[:m, :m, :m] - blocks.gamma_base[:, :m, :m]).max() < 1e-9
            assert np.abs(omega[:m, :m, m:]).max() < 1e-9
            assert np.abs(omega[:m, m:, :m]).max() < 1e-9
            assert np.abs(omega[:m, m:, m:]).max() < 1e-9

    def test_generic_tension_complete_matches_blocks(self):
        # the holonomic kind: formal and honest computations coincide,
        # harmonic or not
        for name, g, ghat in [HARMONIC_PAIRS[0], NON_HARMONIC_PAIRS[0],
                              HARMONIC_PAIRS[6], NON_HARMONIC_PAIRS[2]]:
            lg = lift_to_chart(g, LiftKind.COMPLETE_TM)
            lh = lift_to_chart(ghat, LiftKind.COMPLETE_TM)
            m = g.dim
            for q in _some_fiber_points(g, n=4):
                tau = tension_identity_at(lg, lh, q.chart_point())
                t = lifted_tension_at(g, ghat, LiftKind.COMPLETE_TM, q)
                assert np.abs(tau[:m] - t.base).max() < 1e-10, name
                assert np.abs(tau[m:] - t.fiber).max() < 1e-10, name

    def test_generic_tension_detects_sasaki_anholonomy_gap(self):
        # verified finding: for the Sasaki-type lifts, the identity map
        # between the honestly lifted metrics is NOT harmonic for a
        # base-harmonic pair; the block traces (which compare the two
        # metrics' coefficients in their own adapted frames) vanish.
        _, g, ghat = HARMONIC_PAIRS[0]
        q = FiberPoint([0.3, -0.2, 0.5], [0.7, -0.4, 0.9])
        for kind in (LiftKind.SASAKI_TM, LiftKind.SASAKI_CTM):
            lg, lh = lift_to_chart(g, kind), lift_to_chart(ghat, kind)
            tau = tension_identity_at(lg, lh, q.chart_point())
            t = lifted_tension_at(g, ghat, kind, q)
            assert np.abs(np.concatenate([t.base, t.fiber])).max() < 1e-12
            assert np.abs(tau).max() > 1e-3

    def test_generic_tension_horizontal_matches_via_complete(self):
        # horizontal chart == complete chart, so the honest tension obeys
        # the complete-lift multiples (base family 0, fiber family 2*tau)
        _, g, ghat = NON_HARMONIC_PAIRS[0]
        lg = lift_to_chart(g, LiftKind.HORIZONTAL_TM)
        lh = lift_to_chart(ghat, LiftKind.HORIZONTAL_TM)
        m = g.dim
        for q in _some_fiber_points(g, n=4):
            tau = tension_identity_at(lg, lh, q.chart_point())
            base_tau = tension_identity_at(g, ghat, q.base)
            assert np.abs(tau[:m]).max() < 1e-10
            assert np.abs(tau[m:] - 2.0 * base_tau).max() < 1e-10

    def test_adapted_vector_transform(self):
        q = FiberPoint([0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        frame = adapted_frame_at(EGOROV3, LiftKind.SASAKI_TM, q)
        v = np.arange(6, dtype=float)
        w = components_in_adapted_frame(frame, v)
        assert np.allclose(frame.T @ w, v, atol=1e-14)


class TestCheckLiftConditions:
    def test_harmonic_pair_passes_all_kinds(self):
        _, g, ghat = HARMONIC_PAIRS[0]
        for kind in ALL_KINDS:
            rep = check_lift_conditions(g, ghat, kind, samples=16)
            assert rep.verdict == "harmonic-on-samples"
            assert len(rep.per_component_max) == 2 * g.dim
            assert len(rep.worst_point) == 2 * g.dim

    def test_non_harmonic_pair_fails_all_kinds(self):
        _, g, ghat = NON_HARMONIC_PAIRS[0]
        for kind in ALL_KINDS:
            rep = check_lift_conditions(g, ghat, kind, samples=16)
            assert rep.verdict == "not-harmonic"

    def test_deterministic(self):
        _, g, ghat = NON_HARMONIC_PAIRS[1]
        a = check_lift_conditions(g, ghat, LiftKind.SASAKI_TM, samples=12, seed=5)
        b = check_lift_conditions(g, ghat, LiftKind.SASAKI_TM, samples=12, seed=5)
        assert a == b

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize(
        "name, g, ghat",
        [pytest.param(*p, id=p[0]) for p in HARMONIC_PAIRS + NON_HARMONIC_PAIRS],
    )
    def test_batched_matches_single_point_loop(self, name, g, ghat, kind):
        # Reference: one lifted_tension_at call per lattice point of the
        # bundle box.  The batched path sums in another order, so values
        # may move by a few ulps of the O(1) block entries: 4 eps, fixed
        # from float64 before any run.  21 samples leave a partial slice.
        samples, seed, m = 21, 7, g.dim
        box = shared_domain(g, ghat) + ((-1.0, 1.0),) * m
        pts = lattice_points(box, samples, seed)
        ref = []
        for p in pts:
            t = lifted_tension_at(g, ghat, kind, FiberPoint(p[:m], p[m:]))
            ref.append(np.abs(np.concatenate([t.base, t.fiber])))
        ref = np.array(ref)
        rep = check_lift_conditions(g, ghat, kind, samples=samples, seed=seed)
        tol = 4 * np.finfo(float).eps * max(1.0, ref.max())
        assert rep.samples_used == samples
        assert abs(rep.max_abs_residual - ref.max()) <= tol
        assert np.abs(np.array(rep.per_component_max) - ref.max(axis=0)).max() <= tol
        if name in {n for n, _, _ in NON_HARMONIC_PAIRS}:
            worst = int(np.argmax(ref.max(axis=1)))
            assert rep.worst_point == tuple(pts[worst])
