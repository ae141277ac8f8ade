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
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from metriclift import harmonic, metric
from metriclift.harmonic import (
    HarmonicityReport,
    check_harmonic,
    lattice_points,
    shared_domain,
    tension_identity_at,
)
from metriclift.lifts import LiftKind, check_lift_conditions
from metriclift.metric import DEGENERACY_EPS, ChartedMetric, metric_at
from conftest import NON_HARMONIC_PAIRS, dense_metric

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
        verdict="not-harmonic",
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
    tracemalloc.start()
    try:
        rep = check_harmonic(g, ghat, samples=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.samples_used == 4096
    assert peak < 128e6


def test_dense_m16_check_frees_jets_and_terms_as_it_goes():
    # the jet pass drops each subtree's jet at its last use, and c is summed
    # one term slot at a time: no memo of every jet, no (S, m, N) term stack
    g, ghat = dense_metric(16), dense_metric(16, amp=0.17)
    tracemalloc.start()
    try:
        rep = check_harmonic(g, ghat, samples=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.samples_used == 4096
    assert peak < 80e6
