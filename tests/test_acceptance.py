"""Acceptance suite.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output).  All tolerances are pinned here.

Criterion 4 note: the literal reading "generic-pipeline tension matches
the block traces after frame change for all four lift kinds" is verified
to be mathematically false for the anholonomic-frame kinds (sasaki-tm,
horizontal-tm, sasaki-ctm): the block computation subtracts connection
coefficients taken in each metric's own adapted frame, which is not the
honest connection difference in a common frame.  The literal test is
implemented as stated and left red; the true oracle content (bitwise
metric agreement, Christoffel agreement outside documented presentation
corners, full literal agreement for the complete lift) is asserted in
the green criterion-4 tests.  See the repository README for the numeric
evidence (exact jets and an independent finite-difference oracle agree
to 1e-10 on the nonzero honest tension).
"""

import itertools
import json

import numpy as np
import pytest

from metriclift import cli
from metriclift.gallery import (
    EgorovSpec,
    egorov_metric,
    egorov_residual_closed_form,
    godel_condition,
    godel_metric,
    GodelSpec,
)
from metriclift.harmonic import (
    check_harmonic,
    lattice_points,
    shared_domain,
    tension_identity_at,
)
from metriclift.lifts import (
    LiftKind,
    adapted_frame_at,
    components_in_adapted_frame,
    connection_in_frame,
    fiber_lattice,
    lift_blocks_at,
    lift_to_chart,
    lifted_tension_at,
)
from metriclift.metric import christoffel_at, curvature_at, metric_at, metric_jets_at
from conftest import GALLERY_METRICS, HARMONIC_PAIRS, domain_points, fd_christoffel

TANGENT_KINDS = (LiftKind.SASAKI_TM, LiftKind.HORIZONTAL_TM, LiftKind.COMPLETE_TM)
ADAPTED_KINDS = (LiftKind.SASAKI_TM, LiftKind.HORIZONTAL_TM, LiftKind.SASAKI_CTM)


def _line(n, status, detail):
    print(f"ACCEPTANCE {n}: {status} — {detail}")


# -- criterion 1 -------------------------------------------------------------


def test_acceptance_1_egorov_closed_form():
    """Tension of Egorov pairs equals (m-2)(f'-fhat')/(2f) in component
    m-1 and vanishes elsewhere, |err| <= 1e-9, 100 lattice points."""
    bases = ["exp({t})", "{t}^2+2", "cosh({t})"]
    shifts = [0.0, 0.7]
    worst = 0.0
    cases = 0
    for m in (3, 4, 5):
        t = f"x{m}"
        profiles = [b.format(t=t) for b in bases]
        for f, fh, kf, kh in itertools.product(profiles, profiles, shifts, shifts):
            fsrc = f if kf == 0.0 else f"{f}+{kf}"
            hsrc = fh if kh == 0.0 else f"{fh}+{kh}"
            spec = EgorovSpec(m, fsrc)
            g = egorov_metric(spec)
            ghat = egorov_metric(EgorovSpec(m, hsrc))
            pts = domain_points(g, 100)
            tau = tension_identity_at(g, ghat, pts)
            want = egorov_residual_closed_form(spec, hsrc, pts)
            err_main = np.abs(tau[:, m - 2] - want).max()
            err_rest = np.abs(np.delete(tau, m - 2, axis=1)).max()
            worst = max(worst, err_main, err_rest)
            cases += 1
            assert err_main <= 1e-9, (m, fsrc, hsrc)
            assert err_rest <= 1e-9, (m, fsrc, hsrc)
    _line(1, "PASS", f"{cases} profile pairs x 100 points, worst |err| = {worst:.2e}")


# -- criteria 2 and 3 --------------------------------------------------------


def _equivalence_sweep(kinds, n_points):
    worst_fiber = worst_base = 0.0
    for name, g, ghat in HARMONIC_PAIRS:
        points = fiber_lattice(g, n_points, seed=2024)
        base_tau = tension_identity_at(g, ghat, np.stack([q.base for q in points]))
        for kind in kinds:
            for q, tau in zip(points, base_tau):
                t = lifted_tension_at(g, ghat, kind, q)
                fib = np.abs(t.fiber).max()
                base = np.abs(t.base - tau).max()
                worst_fiber = max(worst_fiber, fib)
                worst_base = max(worst_base, base)
                assert fib < 1e-10, (name, kind.value)
                assert base < 1e-10, (name, kind.value)
    return worst_fiber, worst_base


def test_acceptance_2_tangent_lift_equivalences():
    """12 harmonic pairs x 3 tangent lifts x 64 fiber points: fiber-family
    trace < 1e-10 and |base-family trace - base tension| < 1e-10."""
    wf, wb = _equivalence_sweep(TANGENT_KINDS, 64)
    _line(2, "PASS", f"12 pairs x 3 kinds x 64 points, worst fiber {wf:.2e}, "
                     f"worst base-gap {wb:.2e}")


def test_acceptance_3_cotangent_lift_equivalence():
    """Same bound for the cotangent Sasaki lift, 12 pairs x 64 points."""
    wf, wb = _equivalence_sweep((LiftKind.SASAKI_CTM,), 64)
    _line(3, "PASS", f"12 pairs x 64 points, worst fiber {wf:.2e}, "
                     f"worst base-gap {wb:.2e}")


# -- criterion 4 -------------------------------------------------------------

_ORACLE_BASES = [
    ("egorov-m3", egorov_metric(EgorovSpec(3, "exp(x3)")),
     egorov_metric(EgorovSpec(3, "exp(x3)+0.5"))),
    ("godel", godel_metric(GodelSpec("x2", "cosh(x2)")),
     godel_metric(GodelSpec("x2", "sqrt(cosh(x2)^2+1)"))),
]


def test_acceptance_4_complete_lift_block_vs_generic():
    """Holonomic kind: induced-chart generic Christoffels and tension
    equal the blocks literally, within 1e-8, 32 fiber points."""
    worst = 0.0
    for name, g, ghat in _ORACLE_BASES:
        m = g.dim
        lg = lift_to_chart(g, LiftKind.COMPLETE_TM)
        lh = lift_to_chart(ghat, LiftKind.COMPLETE_TM)
        for q in fiber_lattice(g, 32, seed=11):
            xq = q.chart_point()
            blocks = lift_blocks_at(g, LiftKind.COMPLETE_TM, q)
            gam = christoffel_at(lg, xq)
            d1 = np.abs(gam[:m] - blocks.gamma_base).max()
            d2 = np.abs(gam[m:] - blocks.gamma_fiber).max()
            tau = tension_identity_at(lg, lh, xq)
            t = lifted_tension_at(g, ghat, LiftKind.COMPLETE_TM, q)
            d3 = np.abs(tau - np.concatenate([t.base, t.fiber])).max()
            worst = max(worst, d1, d2, d3)
            assert max(d1, d2, d3) < 1e-8, name
    _line(4, "PASS", f"complete lift block-vs-generic worst diff {worst:.2e} "
                     "(Christoffels and tension, 2 bases x 32 points)")


def test_acceptance_4_adapted_kinds_blocks_vs_generic():
    """Anholonomic kinds: frame-changed generic metric and Christoffels
    reproduce the blocks on every entry that feeds the trace conditions;
    the documented presentation corners are pinned exactly."""
    worst = 0.0
    for name, g, _ in _ORACLE_BASES:
        m = g.dim
        for kind in ADAPTED_KINDS:
            lifted = lift_to_chart(g, kind)
            for q in fiber_lattice(g, 32, seed=11):
                xq = q.chart_point()
                blocks = lift_blocks_at(g, kind, q)
                frame = adapted_frame_at(g, kind, q)
                Tinv = np.linalg.inv(frame.T)
                dmet = np.abs(
                    Tinv.T @ blocks.metric @ Tinv - metric_at(lifted, xq)
                ).max()
                omega = connection_in_frame(christoffel_at(lifted, xq), frame)
                if kind is LiftKind.HORIZONTAL_TM:
                    # trace content: base family (1,1) block = Gamma, all
                    # other honest base-family blocks vanish
                    dgam = max(
                        np.abs(omega[:m, :m, :m] - blocks.gamma_base[:, :m, :m]).max(),
                        np.abs(omega[:m, :m, m:]).max(),
                        np.abs(omega[:m, m:, m:]).max(),
                    )
                else:
                    dgam = max(
                        np.abs(omega[:m] - blocks.gamma_base).max(),
                        np.abs(omega[m:, :m, :m] - blocks.gamma_fiber[:, :m, :m]).max(),
                        np.abs(omega[m:, :m, m:] - blocks.gamma_fiber[:, :m, m:]).max(),
                        np.abs(omega[m:, m:, m:] - blocks.gamma_fiber[:, m:, m:]).max(),
                        # presentation corner: honest coefficient is zero
                        np.abs(omega[m:, m:, :m]).max(),
                    )
                worst = max(worst, dmet, dgam)
                assert max(dmet, dgam) < 1e-8, (name, kind.value)
    _line(4, "PASS", f"adapted kinds trace-content oracle worst diff {worst:.2e}")


def test_acceptance_4_literal_tension_match_adapted_frames():
    """Literal criterion text for the anholonomic kinds: generic-pipeline
    tension, moved to the adapted frame, equals the block traces within
    1e-8.

    This is implemented exactly as stated and is expected to FAIL: the
    block computation differences coefficients expressed in two different
    adapted frames (each metric's own), omitting anholonomy cross-terms,
    so it is not the tension of the identity map between the honestly
    lifted metrics.  Verified with two independent oracles (exact jets
    and finite differences of the chart metrics, agreeing to 1e-10); for
    the Egorov m=3 harmonic pair the honest Sasaki-lift tension is
    ~8.5e-2 while the block traces vanish.  See the README section
    "Known results" for the full account.
    """
    worst = 0.0
    failures = []
    for name, g, ghat in _ORACLE_BASES:
        for kind in ADAPTED_KINDS:
            lg, lh = lift_to_chart(g, kind), lift_to_chart(ghat, kind)
            for q in fiber_lattice(g, 32, seed=11):
                tau = tension_identity_at(lg, lh, q.chart_point())
                frame = adapted_frame_at(g, kind, q)
                w = components_in_adapted_frame(frame, tau)
                t = lifted_tension_at(g, ghat, kind, q)
                gap = np.abs(w - np.concatenate([t.base, t.fiber])).max()
                worst = max(worst, gap)
                if gap >= 1e-8:
                    failures.append((name, kind.value, gap))
    status = "FAIL" if failures else "PASS"
    _line(4, status, f"literal tension match, adapted-frame kinds: worst gap "
                     f"{worst:.2e} (verified anholonomy gap; see README)")
    assert not failures, (
        "generic-pipeline tension differs from the block traces for the "
        f"anholonomic lift kinds (worst gap {worst:.2e}); the block "
        "computation is frame-inconsistent for metric pairs — verified "
        "with independent oracles, see the test docstring and README"
    )


# -- criterion 5 -------------------------------------------------------------


def test_acceptance_5_derivative_correctness():
    """Christoffels and curvature vs central differences (h = 1e-5,
    relative 1e-6); antisymmetry exact to 1e-12; first Bianchi 1e-10;
    metric compatibility 1e-9."""
    h = 1e-5
    worst_fd = 0.0
    for name, g in GALLERY_METRICS:
        m = g.dim
        for x in domain_points(g, 6, seed=77):
            gam = christoffel_at(g, x)
            fd = fd_christoffel(g, x, h=h)
            scale = max(1.0, np.abs(fd).max())
            worst_fd = max(worst_fd, np.abs(gam - fd).max() / scale)
            assert np.abs(gam - fd).max() <= 1e-6 * scale, name
            dgam = np.empty((m, m, m, m))
            for p in range(m):
                e = np.zeros(m)
                e[p] = h
                dgam[..., p] = (
                    christoffel_at(g, x + e) - christoffel_at(g, x - e)
                ) / (2 * h)
            P = np.einsum("kjhi->kijh", dgam)
            Q = np.einsum("kil,ljh->kijh", gam, gam)
            fd_riem = (P - np.swapaxes(P, 1, 2)) + (Q - np.swapaxes(Q, 1, 2))
            R = curvature_at(g, x)
            scale = max(1.0, np.abs(fd_riem).max())
            worst_fd = max(worst_fd, np.abs(R - fd_riem).max() / scale)
            assert np.abs(R - fd_riem).max() <= 1e-6 * scale, name

        pts = domain_points(g, 100, seed=78)
        R = curvature_at(g, pts)
        anti = np.abs(R + np.swapaxes(R, -3, -2)).max()
        assert anti <= 1e-12, name
        bianchi = np.abs(
            R + np.einsum("nkijh->nkjhi", R) + np.einsum("nkijh->nkhij", R)
        ).max()
        assert bianchi <= 1e-10, name
        G, dG, _ = metric_jets_at(g, pts, order=1)
        gam = christoffel_at(g, pts)
        nabla = (
            np.einsum("nijk->nkij", dG)
            - np.einsum("nlki,nlj->nkij", gam, G)
            - np.einsum("nlkj,nil->nkij", gam, G)
        )
        assert np.abs(nabla).max() <= 1e-9, name
    _line(5, "PASS", f"{len(GALLERY_METRICS)} gallery metrics, worst relative "
                     f"FD gap {worst_fd:.2e}")


# -- criterion 6 -------------------------------------------------------------


def test_acceptance_6_godel_biconditional():
    """Two harmonic pairs pass below 1e-9, two non-harmonic fail above
    1e-3, and the verdict matches the closed-form condition at every
    sample."""
    base_cosh = GodelSpec("x2", "cosh(x2)")
    checks = [
        (base_cosh, GodelSpec("x2", "sqrt(cosh(x2)^2+1)"), True),
        # Hhat'(Hhat - H) = 1 is cancelled by Phat Phat' - P P' = 1
        (GodelSpec("x2 - 1", "cosh(x2)"),
         GodelSpec("x2", "sqrt(cosh(x2)^2 + 2*x2)"), True),
        (base_cosh, GodelSpec("2*x2", "cosh(x2)"), False),
        (base_cosh, GodelSpec("x2", "2*cosh(x2)"), False),
    ]
    seen_harmonic = seen_failing = 0
    for base, hat, expect in checks:
        g, ghat = godel_metric(base), godel_metric(hat)
        rep = check_harmonic(g, ghat, samples=64, tol=1e-9, seed=42)
        pts = lattice_points(shared_domain(g, ghat), 64, 42)
        conds = np.array([godel_condition(base, hat, x[1]) for x in pts])
        if expect:
            assert rep.verdict == "harmonic-on-samples"
            assert rep.max_abs_residual < 1e-9
            assert (np.abs(conds) <= 1e-9).all()
            seen_harmonic += 1
        else:
            assert rep.verdict == "not-harmonic"
            assert rep.max_abs_residual > 1e-3
            assert (np.abs(conds) > 1e-9).all()
            seen_failing += 1
        assert (rep.verdict == "harmonic-on-samples") == bool(
            (np.abs(conds) <= 1e-9).all()
        )
    assert seen_harmonic == 2 and seen_failing == 2
    _line(6, "PASS", "2 harmonic + 2 non-harmonic pairs, verdicts track the "
                     "closed-form condition at every sample")


# -- criterion 7 -------------------------------------------------------------


def _egorov_manifest(tmp_path, name, fhat, lift="none"):
    doc = {
        "dimension": 3,
        "family": {"name": "egorov", "m": 3, "f": "exp(x3)"},
        "hat_family": {"name": "egorov", "m": 3, "f": fhat},
        "lift": lift,
        "samples": 64,
        "tol": 1e-9,
        "seed": 42,
    }
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_acceptance_7_example_family_via_cli(tmp_path, capsys):
    """Shifted exponential profiles stay harmonic (exit 0) for the base
    check and the four lifted-condition checks; the doubled profile exits
    1 with per-component residual (m-2)/2 within 1e-9."""
    kinds = ["sasaki-tm", "horizontal-tm", "complete-tm", "sasaki-ctm"]
    for K in (0.5, 1.0, 2.0):
        path = _egorov_manifest(tmp_path, f"k{K}.json", f"exp(x3)+{K}")
        assert cli.main(["check", "--manifest", path]) == 0
        capsys.readouterr()
        for kind in kinds:
            code = cli.main(["check", "--manifest", path, "--lift", kind])
            out = capsys.readouterr().out
            assert code == 0, (K, kind, out)
    path = _egorov_manifest(tmp_path, "doubled.json", "2*exp(x3)")
    code = cli.main(["check", "--manifest", path])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    assert doc["per_component_max"][1] == pytest.approx(0.5, abs=1e-9)
    assert max(doc["per_component_max"][0], doc["per_component_max"][2]) < 1e-9
    _line(7, "PASS", "K in {0.5, 1, 2}: base + 4 lifted-condition checks exit 0; "
                     "doubled profile exits 1 with residual 0.5")


# -- criterion 8 -------------------------------------------------------------


def test_acceptance_8_report_determinism(tmp_path, capsys):
    """Repeated check runs produce byte-identical reports."""
    path = _egorov_manifest(tmp_path, "det.json", "2*exp(x3)")
    outputs = []
    for _ in range(3):
        code = cli.main(["check", "--manifest", path])
        outputs.append(capsys.readouterr().out)
        assert code == 1
    assert outputs[0] == outputs[1] == outputs[2]
    code = cli.main(["check", "--manifest", path, "--lift", "sasaki-tm"])
    a = capsys.readouterr().out
    code = cli.main(["check", "--manifest", path, "--lift", "sasaki-tm"])
    b = capsys.readouterr().out
    assert a == b
    _line(8, "PASS", "byte-identical reports across repeated runs "
                     "(base and lifted checks)")
