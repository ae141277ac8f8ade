"""The sampler's one evaluation pass per candidate batch.

``check`` and ``check --lift`` take the first jets of each metric once per
batch of candidate points: the degeneracy screen reads |det G| from them,
and the residual runs on the kept rows.  These tests pin the call count
and order, and check batches where the screen rejects candidates, bit for
bit, against a reference that evaluates each metric twice: a ``metric_at``
pass and a det screen, then the residual functions on the kept points.

A large batch is evaluated in chunks under a fixed memory budget
(``harmonic._chunks``).  The tests below pin the plan, force chunks of
256 points to check that the reports, the error order and the term
layout count are those of one pass, and bound the traced heap of large
dense checks.
"""

import inspect
import re
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
from metriclift import exprlang as ex
from metriclift.metric import (
    DEGENERACY_EPS,
    ELIMINATION_MIN_POINTS,
    ChartedMetric,
    metric_at,
    metric_jets_at,
)
from conftest import (
    HARMONIC_PAIRS,
    NON_FINITE_ORDER,
    NON_FINITE_ORDER_SEED,
    NON_FINITE_SPLIT,
    NON_HARMONIC_PAIRS,
    dense_metric,
    traced_peak,
)

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
    # made, and the entries' jets are dropped once their values and rows
    # are taken, in two chunks of 2048 points: 4.7 MB, 9.4 MB unchunked and
    # 12.6 MB when both metrics' jets were held for g's factorization
    g, ghat = dense_metric(7), dense_metric(7, amp=0.17)
    assert harmonic._chunks(4096, 7) == [(0, 2048), (2048, 4096)]
    rep, peak = traced_peak(lambda: check_harmonic(g, ghat, samples=4096))
    assert rep.samples_used == 4096
    assert peak < 5.2e6


def test_dense_m16_check_holds_one_metric_at_a_time():
    # two chunks of 2048 points: 22.4 MB, 44 MB unchunked and 55 MB when
    # both metrics' jets were held for g's factorization
    g, ghat = dense_metric(16), dense_metric(16, amp=0.17)
    rep, peak = traced_peak(lambda: check_harmonic(g, ghat, samples=4096))
    assert rep.samples_used == 4096
    assert peak < 24.5e6


def test_dense_m24_check_peaks_at_its_chunk_not_its_batch():
    # two chunks of 2048 points: 49.4 MB, 97 MB unchunked; any larger
    # sample count splits into chunks of 2048-4095 points and peaks no higher
    g, ghat = dense_metric(24), dense_metric(24, amp=0.17)
    assert harmonic._chunks(4096, 24) == [(0, 2048), (2048, 4096)]
    rep, peak = traced_peak(lambda: check_harmonic(g, ghat, samples=4096))
    assert rep.samples_used == 4096
    assert peak < 54e6


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


def _assert_reports_equal_the_seam(g, ghat, samples):
    """``check`` and every ``check --lift`` give the reports of
    :func:`_seam_report`, bit for bit."""
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


@pytest.mark.parametrize("samples", [300, 4096])
@pytest.mark.parametrize("name, g, ghat", SEAM_PAIRS, ids=[p[0] for p in SEAM_PAIRS])
def test_sampler_reports_equal_the_jet_seam(name, g, ghat, samples):
    # the sampler makes each metric's jets in turn and frees them as it
    # goes; its reports are still those of the tension body on both
    # metrics' jets, bit for bit, factored by the elimination at both sizes
    _assert_reports_equal_the_seam(g, ghat, samples)


# ---------------------------------------------------------------------------
# chunks of a candidate batch


@pytest.mark.parametrize(
    "m, n", [(64, 65_536)] + [(m, n) for m in range(3, 8) for n in (300, 4095, 4096)]
)
def test_chunk_plan_is_bounded_and_covers_the_batch_in_order(m, n):
    # the plan is arithmetic on n and m: it allocates nothing, not even at
    # the caps, where one (m, m, n) array would be 2.1 GB
    plan, peak = traced_peak(lambda: harmonic._chunks(n, m))
    assert peak < 16e3
    assert plan[0][0] == 0 and plan[-1][1] == n
    assert all(stop == start for (_, stop), (start, _) in zip(plan, plan[1:]))
    sizes = [stop - start for start, stop in plan]
    assert max(sizes) - min(sizes) <= 1  # near-equal
    # the least chunk length of a split batch, as ``harmonic`` states it
    least = max(harmonic.CHUNK_MIN_POINTS, harmonic.CHUNK_BYTES // (8 * m * m))
    assert len(plan) == max(1, n // least)
    if len(plan) > 1:  # every chunk factored by the elimination, as its batch
        assert min(sizes) >= least >= harmonic.CHUNK_MIN_POINTS >= ELIMINATION_MIN_POINTS
    # so no (m, m, chunk) array reaches twice the larger of the budget and
    # the array of a shortest chunk, whatever n is
    assert max(sizes) < 2 * least
    if (m, n) == (64, 65_536):
        assert sizes == [2048] * 32  # each (m, m, chunk) array 33.5 MB
    elif (m, n) == (7, 4096):
        assert plan == [(0, 2048), (2048, 4096)]  # the one bench batch split
    else:
        assert plan == [(0, n)]


def _split_at(monkeypatch, points):
    """Split every batch of ``2 * points`` or more into chunks of ``points``
    to ``2 * points - 1``, whatever the dimension, or no batch for
    ``points`` None."""
    monkeypatch.setattr(harmonic, "CHUNK_BYTES", 0)
    monkeypatch.setattr(harmonic, "CHUNK_MIN_POINTS", points or sys.maxsize)


# the shortest chunks that the elimination still factors
SHORT = ELIMINATION_MIN_POINTS


@pytest.mark.parametrize("samples", [300, 1000, 4096])
@pytest.mark.parametrize("name, g, ghat", SEAM_PAIRS, ids=[p[0] for p in SEAM_PAIRS])
def test_chunked_reports_equal_one_pass(monkeypatch, name, g, ghat, samples):
    # 1, 3 or 16 chunks: the reports of check and of every lift kind are
    # those of the tension body on both metrics' jets in one pass
    _split_at(monkeypatch, SHORT)
    assert len(harmonic._chunks(samples, g.dim)) == samples // SHORT
    _assert_reports_equal_the_seam(g, ghat, samples)


@pytest.mark.parametrize("samples", [600, 4096])
def test_chunked_banded_reports_equal_one_pass(monkeypatch, samples):
    # the screen rejects candidates in every chunk of the first batch, the
    # last included, and the kept points of the chunks are joined in order
    g, ghat = BANDED
    seed = 3
    cand = lattice_points(shared_domain(g, ghat), samples, seed)
    ok = np.ones(samples, dtype=bool)
    for h in BANDED:
        ok &= np.abs(np.linalg.det(metric_at(h, cand))) > DEGENERACY_EPS
    _split_at(monkeypatch, SHORT)
    plan = harmonic._chunks(samples, g.dim)
    assert len(plan) > 1 and np.flatnonzero(~ok).max() >= plan[-1][0]
    for kind in [None] + list(LiftKind):
        _split_at(monkeypatch, SHORT)
        chunked = _check(g, ghat, kind, samples=samples, seed=seed)
        assert chunked.degenerate_rejected > 0 and chunked.samples_scanned > samples
        _split_at(monkeypatch, None)
        assert chunked == _check(g, ghat, kind, samples=samples, seed=seed), kind


def test_split_tension_equals_each_chunk_alone(monkeypatch):
    g, ghat = dense_metric(5), dense_metric(5, quad=0.3, amp=0.05)
    x = lattice_points(g.domain, 1000, 17)
    _split_at(monkeypatch, None)
    whole = tension_identity_at(g, ghat, x)
    _split_at(monkeypatch, SHORT)
    plan = harmonic._chunks(1000, 5)
    assert len(plan) == 3
    tau = tension_identity_at(g, ghat, x)
    assert tau.tobytes() == whole.tobytes()
    for start, stop in plan:
        assert tau[start:stop].tobytes() == tension_identity_at(g, ghat, x[start:stop]).tobytes()


@pytest.fixture
def layouts(monkeypatch):
    """Counts the term layouts built, wherever a check builds them."""
    calls = Counter()
    build = harmonic._term_slots

    def counted(abi, m):
        calls["layouts"] += 1
        return build(abi, m)

    monkeypatch.setattr(harmonic, "_term_slots", counted)
    return calls


WALKER = {name: (g, ghat) for name, g, ghat in HARMONIC_PAIRS}["walker-mixed"]


@pytest.mark.parametrize("chunk", [None, SHORT], ids=["one-chunk", "chunks"])
@pytest.mark.parametrize(
    "pair, layouts_built",
    [(NON_HARMONIC_PAIRS[0][1:], 1), (WALKER, 2), (BANDED, 2)],
    ids=["egorov", "walker", "banded"],
)
def test_term_layout_is_built_once_per_support_pattern(
    monkeypatch, layouts, pair, layouts_built, chunk
):
    # ghat's supports differ from g's on the Walker and banded pairs; the
    # banded pair also takes two candidate batches at 600 samples, each of
    # two chunks here
    g, ghat = pair
    _split_at(monkeypatch, chunk)
    for kind in [None] + list(LiftKind):
        layouts.clear()
        assert _check(g, ghat, kind, samples=600).samples_used == 600
        assert layouts["layouts"] == layouts_built, kind
    layouts.clear()
    x = lattice_points(shared_domain(g, ghat), 1200, 5)
    dets = [np.abs(np.linalg.det(metric_at(h, x))) for h in pair]
    x = x[(dets[0] > DEGENERACY_EPS) & (dets[1] > DEGENERACY_EPS)][:600]
    tension_identity_at(g, ghat, x)
    assert layouts["layouts"] == layouts_built


def _non_finite_split_charts():
    """The chart of ``conftest.NON_FINITE_SPLIT``, the chart of
    ``conftest.NON_FINITE_ORDER`` and a flat chart on their box, and the
    first 512 lattice points of their seed."""
    charts = [
        ChartedMetric.from_strings(doc["coordinates"], doc["metric"], doc["domain"])
        for doc in (NON_FINITE_SPLIT, NON_FINITE_ORDER)
    ]
    doc = NON_FINITE_SPLIT
    flat = ChartedMetric.from_strings(doc["coordinates"], [["1", "0"], ["0", "1"]], doc["domain"])
    pts = lattice_points(flat.domain, 512, NON_FINITE_ORDER_SEED)
    # the jets of the split chart fail at points 355, (2,2), and 367, (1,1)
    for start, stop in [(0, 355), (356, 367), (368, 512)]:
        metric_jets_at(charts[0], pts[start:stop], 1)
    for at, entry in [(355, "(2,2)"), (367, "(1,1)")]:
        with pytest.raises(ex.EvalDomainError, match=re.escape(f"metric entry {entry} ")):
            metric_jets_at(charts[0], pts[at : at + 1], 1)
    return (*charts, flat, pts)


def _named(point, culprit):
    pt = ", ".join(repr(float(v)) for v in point)
    return f"metric entry (2,2) or a derivative of it is not finite at ({pt}) in '{culprit}'"


@pytest.mark.parametrize("chunk", [None, SHORT], ids=["one-chunk", "chunks"])
@pytest.mark.parametrize("bad_is_ghat", [False, True], ids=["g", "ghat"])
def test_non_finite_entry_of_a_later_chunk_is_named_at_its_first_point(
    monkeypatch, chunk, bad_is_ghat
):
    # every entry is finite on the first chunk; on the second, (2,2) fails
    # at point 355 and (1,1) at point 367 only
    split, _, flat, pts = _non_finite_split_charts()
    g, ghat = (flat, split) if bad_is_ghat else (split, flat)
    _split_at(monkeypatch, chunk)
    want = _named(pts[355], "exp(1000*x1 - 293)")
    runs = {
        "check": lambda: check_harmonic(g, ghat, samples=512, seed=NON_FINITE_ORDER_SEED),
        "tension": lambda: tension_identity_at(g, ghat, pts),
    }
    for name, run in runs.items():
        with pytest.raises(ex.EvalDomainError) as exc:
            run()
        assert str(exc.value) == want, name


@pytest.mark.parametrize("chunk", [None, SHORT], ids=["one-chunk", "chunks"])
def test_a_split_batch_names_the_first_chunk_that_fails(monkeypatch, chunk):
    # g fails on the second chunk only, ghat on the first: one pass names
    # g's first failing point, as g's jets come first; a split batch names
    # ghat's, as the first chunk is done, g then ghat, before the second
    split, order, _, pts = _non_finite_split_charts()
    _split_at(monkeypatch, chunk)
    want = {
        None: _named(pts[355], "exp(1000*x1 - 293)"),
        SHORT: _named(pts[0], "exp(1000*x2 - 100)"),
    }[chunk]
    runs = {
        "check": lambda: check_harmonic(split, order, samples=512, seed=NON_FINITE_ORDER_SEED),
        "tension": lambda: tension_identity_at(split, order, pts),
    }
    for name, run in runs.items():
        with pytest.raises(ex.EvalDomainError) as exc:
            run()
        assert str(exc.value) == want, name
