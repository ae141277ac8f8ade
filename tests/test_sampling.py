"""The sampler's one evaluation pass per candidate batch.

``check`` and ``check --lift`` take the first jets of each metric once per
batch of candidate points: the degeneracy screen reads |det G| from them,
and the residual runs on the kept rows.  These tests pin the call count
and order, and check batches where the screen rejects candidates, bit for
bit, against a reference that evaluates each metric twice: a ``metric_at``
pass and a det screen, then the residual functions on the kept points.
"""

import inspect
import sys
from collections import Counter

import numpy as np
import pytest

from metriclift import harmonic, metric
from metriclift.harmonic import (
    HarmonicityReport,
    _identity_tension,
    check_harmonic,
    lattice_points,
    shared_domain,
    tension_identity_at,
)
from metriclift.lifts import LiftKind, check_lift_conditions
from metriclift.metric import DEGENERACY_EPS, ChartedMetric, metric_at
from conftest import HARMONIC_PAIRS, NON_HARMONIC_PAIRS, dense_metric, traced_peak

# det of both metrics falls to 1e-12 and below on the band |x1| <= 10^-1.5
# (about 0.032), a sixth of the box
BANDED = (
    ChartedMetric.from_strings(
        ["x1", "x2"],
        [["x1^8", "0"], ["0", "2 + sin(x1*x2)"]],
        [(-0.1, 0.3), (-1, 1)],
    ),
    ChartedMetric.from_strings(
        ["x1", "x2"],
        [["x1^8*(1 + x2^2)", "0"], ["0", "2 + cos(x2)"]],
        [(-0.1, 0.3), (-1, 1)],
    ),
)


@pytest.fixture
def counted(monkeypatch):
    """Counts of component-pass calls per metric and jet order, of
    ``metric_at`` calls per metric, and of candidate batches, wherever the
    package binds those names."""
    calls = Counter()

    def counter(key, fn, *params):
        sig = inspect.signature(fn)

        def wrapped(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arg = bound.arguments
            calls[(key, id(arg["g"])) + tuple(arg[p] for p in params)] += 1
            return fn(*args, **kwargs)

        return wrapped

    def batches(fn):
        def wrapped(*args, **kwargs):
            calls["batches"] += 1
            return fn(*args, **kwargs)

        return wrapped

    wrappers = {
        id(metric._component_jets): counter("jets", metric._component_jets, "order"),
        id(metric.metric_at): counter("values", metric.metric_at),
        id(harmonic.lattice_points): batches(harmonic.lattice_points),
    }
    for name, mod in list(sys.modules.items()):
        if name == "metriclift" or name.startswith("metriclift."):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[id(val)])
    return calls


def _check(g, ghat, kind, **kwargs):
    """``check`` for ``kind`` None, else ``check --lift kind``."""
    if kind is None:
        return check_harmonic(g, ghat, **kwargs)
    return check_lift_conditions(g, ghat, kind, **kwargs)


@pytest.mark.parametrize(
    "kind", [None] + list(LiftKind), ids=lambda k: "check" if k is None else k.value
)
@pytest.mark.parametrize(
    "pair, samples, batches",
    [(NON_HARMONIC_PAIRS[0][1:], 64, 1), (BANDED, 64, 2)],
    ids=["all-kept", "banded"],
)
def test_one_jet_pass_per_candidate_batch(counted, kind, pair, samples, batches):
    # ``check --lift`` asks for first jets only, as ``check`` does: the
    # block traces reduce to the base tension
    g, ghat = pair
    rep = _check(g, ghat, kind, samples=samples)
    assert counted["batches"] == batches
    assert rep.samples_scanned == batches * samples
    assert counted == {
        "batches": batches,
        ("jets", id(g), 1): batches,
        ("jets", id(ghat), 1): batches,
    }


def _kept_points(g, ghat, domain, samples, seed):
    """The kept points, the candidates scanned and the rejected count, with
    the screen on a plain ``metric_at`` pass of each metric."""
    m = g.dim
    kept, count, start, rejected = [], 0, 0, 0
    while count < samples:
        cand = lattice_points(domain, samples, seed, start=start)
        start += samples
        ok = np.ones(samples, dtype=bool)
        for h in (g, ghat):
            ok &= np.abs(np.linalg.det(metric_at(h, cand[:, :m]))) > DEGENERACY_EPS
        rejected += int(np.count_nonzero(~ok))
        kept.append(cand[ok][: samples - count])
        count += kept[-1].shape[0]
    return np.concatenate(kept), start, rejected


def _report(pts, residual, scanned, rejected, seed):
    abs_r = np.abs(residual)
    per_sample = abs_r.max(axis=1)
    worst = int(np.argmax(per_sample))
    return HarmonicityReport(
        verdict="harmonic-on-samples" if per_sample[worst] <= 1e-9 else "not-harmonic",
        max_abs_residual=float(per_sample[worst]),
        worst_point=tuple(float(v) for v in pts[worst]),
        per_component_max=tuple(float(v) for v in abs_r.max(axis=0)),
        samples_used=pts.shape[0],
        samples_scanned=scanned,
        degenerate_rejected=rejected,
        tolerance=1e-9,
        seed=seed,
    )


# 16 samples miss the band in their first batch; 21, 64 and 300 need a
# second candidate batch.  A batch that rejects any candidate is always
# followed by another, as each holds ``samples`` candidates.  300 samples
# are factored by the vectorised elimination, the others by LAPACK
# (``metric.ELIMINATION_MIN_POINTS``).
@pytest.mark.parametrize("samples, batches", [(16, 1), (21, 2), (64, 2), (300, 2)])
def test_rejecting_batches_match_screen_then_residual(samples, batches):
    g, ghat = BANDED
    seed, m = 3, g.dim
    pts, scanned, rejected = _kept_points(g, ghat, shared_domain(g, ghat), samples, seed)
    assert scanned == batches * samples
    assert (rejected > 0) == (batches > 1)
    want = _report(pts, tension_identity_at(g, ghat, pts), scanned, rejected, seed)
    assert check_harmonic(g, ghat, samples=samples, seed=seed) == want

    box = shared_domain(g, ghat) + ((-1.0, 1.0),) * m
    pts, scanned, rejected = _kept_points(g, ghat, box, samples, seed)
    tau = tension_identity_at(g, ghat, pts[:, :m])
    zero = np.zeros_like(tau)
    for kind in LiftKind:
        # the closed form of the block traces: (tau, 0), or (0, 2 tau)
        placed = (zero, 2.0 * tau) if kind is LiftKind.COMPLETE_TM else (tau, zero)
        want = _report(pts, np.concatenate(placed, -1), scanned, rejected, seed)
        assert check_lift_conditions(g, ghat, kind, samples=samples, seed=seed) == want, kind


def test_dense_m16_check_holds_no_dense_first_jets():
    # the sampler contracts each entry's derivative rows over its support:
    # no (m, m, m, N) first-jet array, which alone is 134 MB here
    g, ghat = dense_metric(16), dense_metric(16, amp=0.17)
    rep, peak = traced_peak(lambda: check_harmonic(g, ghat, samples=4096))
    assert rep.samples_used == 4096
    assert peak < 128e6


def test_dense_m16_check_frees_jets_and_terms_as_it_goes():
    # the jet pass drops each subtree's jet at its last use, and c is summed
    # one term slot at a time: no memo of every jet, no (S, m, N) term stack
    g, ghat = dense_metric(16), dense_metric(16, amp=0.17)
    rep, peak = traced_peak(lambda: check_harmonic(g, ghat, samples=4096))
    assert rep.samples_used == 4096
    assert peak < 80e6


def test_dense_m7_check_holds_one_metric_at_a_time():
    # g is factored, c summed and g's rows dropped before ghat's jets are
    # made, and each entry's jet is dropped once its value and rows are
    # taken: 12.6 MB when both metrics' jets were held for g's factorization
    g, ghat = dense_metric(7), dense_metric(7, amp=0.17)
    rep, peak = traced_peak(lambda: check_harmonic(g, ghat, samples=4096))
    assert rep.samples_used == 4096
    assert peak < 10.5e6


def test_dense_m16_check_holds_one_metric_at_a_time():
    # 55 MB when both metrics' jets were held for g's factorization
    g, ghat = dense_metric(16), dense_metric(16, amp=0.17)
    rep, peak = traced_peak(lambda: check_harmonic(g, ghat, samples=4096))
    assert rep.samples_used == 4096
    assert peak < 46e6


def test_each_metric_is_evaluated_then_factored_in_turn(monkeypatch):
    # g's jets, g's factorization, then ghat's jets and ghat's: one
    # metric's jets and factorization copies alive at a time
    g, ghat = dense_metric(3), dense_metric(3, amp=0.17)
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, args[0]) if name == "jets" else name)
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(harmonic, "_component_jets", spy("jets", metric._component_jets))
    monkeypatch.setattr(harmonic, "_solve", spy("solve", metric._solve))
    check_harmonic(g, ghat, samples=8)
    assert calls == [("jets", g), "solve", ("jets", ghat), "solve"]
    calls.clear()
    tension_identity_at(g, ghat, lattice_points(g.domain, 5, 1))
    assert calls == [("jets", g), "solve", ("jets", ghat), "solve"]


def _seam_report(g, ghat, domain, residual, samples, seed):
    """The report of a sampled check built from ``_identity_tension`` on the
    first jets of both metrics at the first ``samples`` candidates, all of
    them kept."""
    pts = lattice_points(domain, samples, seed)
    x = pts[:, : g.dim]
    G, dG, _ = metric._component_jets(g, x, 1)
    Gh, dGh, _ = metric._component_jets(ghat, x, 1)
    det, det_hat, tau = _identity_tension(G, dG, Gh, dGh)
    assert np.all(np.abs(det) > DEGENERACY_EPS) and np.all(np.abs(det_hat) > DEGENERACY_EPS)
    return _report(pts, residual(tau), samples, 0, seed)


SEAM_PAIRS = [(name, g, ghat) for name, g, ghat in HARMONIC_PAIRS + NON_HARMONIC_PAIRS] + [
    (f"dense-m{m}", dense_metric(m), dense_metric(m, amp=0.17)) for m in range(2, 8)
]


@pytest.mark.parametrize("samples", [300, 4096])
@pytest.mark.parametrize("name, g, ghat", SEAM_PAIRS, ids=[p[0] for p in SEAM_PAIRS])
def test_sampler_reports_equal_the_jet_seam(name, g, ghat, samples):
    # the sampler makes each metric's jets in turn and frees them as it
    # goes; its reports are still those of the tension body on both
    # metrics' jets, bit for bit, factored by the elimination at both sizes
    seed, m = 11, g.dim
    box = shared_domain(g, ghat)
    want = _seam_report(g, ghat, box, lambda tau: tau, samples, seed)
    assert check_harmonic(g, ghat, samples=samples, seed=seed) == want
    box += ((-1.0, 1.0),) * m
    for kind in LiftKind:
        def placed(tau):
            zero = np.zeros_like(tau)
            pair = (zero, 2.0 * tau) if kind is LiftKind.COMPLETE_TM else (tau, zero)
            return np.concatenate(pair, -1)

        want = _seam_report(g, ghat, box, placed, samples, seed)
        assert check_lift_conditions(g, ghat, kind, samples=samples, seed=seed) == want, kind
