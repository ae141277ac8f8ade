"""One factorization per metric and candidate batch.

``metric._solve`` gives det A and the solution of A X = B: for batches
of ``ELIMINATION_MIN_POINTS`` points or more from one Gauss-Jordan
elimination with partial pivoting over points-last arrays
(``metric._eliminate``), for smaller ones from LAPACK.  The degeneracy
screen reads that det, and the inverse and the identity tension that X.
These tests hold both sides of the size rule to ``np.linalg``, on the
same matrices, check that the two sides give the same reports, and that
the screen catches singular and NaN matrices on both.
"""

import json
import warnings

import numpy as np
import pytest

from metriclift import EgorovSpec, cli, egorov_metric, metric
from metriclift.harmonic import check_harmonic
from metriclift.lifts import FiberPoint, LiftKind, check_lift_conditions, lift_blocks_at
from metriclift.metric import (
    ELIMINATION_MIN_POINTS,
    ChartedMetric,
    MetricDegenerate,
    _checked_inverse,
    _solve,
    metric_at,
    metric_jets_at,
)
from conftest import HARMONIC_PAIRS, NON_HARMONIC_PAIRS, dense_metric, domain_points, traced_peak

# a LAPACK-sized batch, and the same matrices tiled to an eliminated one
SMALL = ELIMINATION_MIN_POINTS // 4
SIDES = {"lapack": 1, "elimination": 4}

FIXTURES = {
    "walker": HARMONIC_PAIRS[-1][1],
    "walker-hat": HARMONIC_PAIRS[-1][2],
    "godel": HARMONIC_PAIRS[6][1],
    "egorov-m5": HARMONIC_PAIRS[5][1],
    # a 2x2 anti-diagonal block after a diagonal one: one row swap
    "egorov-m6": egorov_metric(EgorovSpec(6, "exp(x6)")),
    "dense-m3": dense_metric(3),
    "dense-m5": dense_metric(5),
    "dense-m7": dense_metric(7),
}


def _zero_diagonal_batch(m, count, seed=5):
    """Symmetric tridiagonal matrices with zero diagonal (indefinite:
    trace 0) and off-diagonal entries growing along the band; ``m`` is
    even, as an odd one makes them singular."""
    rng = np.random.default_rng(seed)
    A = np.zeros((count, m, m))
    for i in range(m - 1):
        a = (i + 1) * (1.0 + 0.1 * rng.random(count)) * rng.choice([-1.0, 1.0], count)
        A[:, i, i + 1] = A[:, i + 1, i] = a
    return A


def _pivot_offsets(a):
    """Rows below the diagonal that partial pivoting picks at each step
    of one matrix (0 when it keeps the diagonal row)."""
    a = np.array(a, dtype=float)
    out = []
    for k in range(a.shape[0] - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        a[[k, p]] = a[[p, k]]
        a[k + 1 :] -= np.outer(a[k + 1 :, k] / a[k, k], a[k])
        out.append(p - k)
    return out


def _eliminate_by_steps(A, B):
    """The elimination of ``metric._eliminate`` with each step's update
    formed as one (m, m + r - k - 1, N) product for all rows at once, on
    one [A | B] work array: the bits its row sweep must give."""
    m, n = A.shape[0], A.shape[-1]
    M = np.concatenate((A, B), axis=1)
    rank, points = np.arange(m - 1, -1, -1)[:, None], np.arange(n)
    odd = np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(m):
            if k < m - 1:
                cand = np.abs(M[k:, k])
                p = (m - 1 - k) - ((cand == cand.max(axis=0)) * rank[k:]).max(axis=0)
                if p.any():
                    rows = M[k:, k:]
                    top = rows[p, :, points]
                    rows[p, :, points] = rows[0].T
                    rows[0] = top.T
                    odd ^= p > 0
            f = M[:, k] / M[k, k]
            f[k] = 0.0
            if f.any():
                M[:, k + 1 :] -= f[:, None] * M[k, k + 1 :]
        pivots = np.diagonal(M).T
        det = pivots.prod(axis=0)
        det[(pivots == 0.0).any(axis=0)] = 0.0
        np.negative(det, out=det, where=odd)
        return det, M[:, m:] / pivots[:, None]


def _batches():
    for name, g in FIXTURES.items():
        yield name, metric_at(g, domain_points(g, SMALL))
    for m in (2, 4, 6, 8):
        yield f"zero-diagonal-m{m}", _zero_diagonal_batch(m, SMALL)


def _solved(A, B, tiles):
    """``_solve`` on ``A`` and ``B`` tiled ``tiles`` times, the first
    copy's results."""
    det, X = _solve(np.concatenate([A] * tiles), np.concatenate([B] * tiles))
    assert (A.shape[0] * tiles >= ELIMINATION_MIN_POINTS) == (tiles > 1)
    return det[: A.shape[0]], X[: A.shape[0]]


def _id(value):
    return value if isinstance(value, str) else ""


def _rel(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def test_zero_diagonal_batches_pivot_at_every_step():
    for m in (2, 4, 6, 8):
        for a in _zero_diagonal_batch(m, 8):
            assert all(p > 0 for p in _pivot_offsets(a)), m


@pytest.mark.parametrize("side", list(SIDES))
@pytest.mark.parametrize("name, A", list(_batches()), ids=_id)
def test_det_inverse_and_solve_match_linalg(side, name, A):
    n, m = A.shape[:2]
    rhs = np.random.default_rng(7).standard_normal((n, m, 1))
    eye = np.broadcast_to(np.eye(m), A.shape)
    det, inv = _solved(A, eye, SIDES[side])
    assert np.all(np.abs(det - np.linalg.det(A)) <= 1e-12 * np.abs(np.linalg.det(A)))
    assert _rel(inv, np.linalg.inv(A)) <= 1e-12
    det_s, x = _solved(A, rhs, SIDES[side])
    assert np.array_equal(det_s, det)
    assert _rel(x, np.linalg.solve(A, rhs)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 7, 16])
def test_row_sweep_gives_the_bits_of_one_update_per_step(m):
    # zeros, signed zeros, overflow and NaN entries included: the pivot row
    # is updated last, so an infinity in it spreads as in the one product
    rng = np.random.default_rng(m)
    A = rng.standard_normal((m, m, 300))
    A = A + A.transpose(1, 0, 2)
    A[:, :, 1::5] *= 1e300
    A[:, :, 2::5] = 0.0
    A[0, 0, 3::5] = -0.0
    A[rng.integers(m), rng.integers(m), 4::10] = np.nan
    A[rng.integers(m), :, 9::10] = np.inf
    # the first pivot row holds an infinity right of the pivot, in A and in B
    A[0, 0, 8::10], A[0, -1, 8::10] = 1e3, np.inf
    rhs = rng.standard_normal((m, 1, 300))
    A[0, 0, 6::10], rhs[0, 0, 6::10] = 1e3, np.inf
    for B in (np.broadcast_to(np.eye(m)[:, :, None], A.shape), rhs):
        for got, want in zip(metric._eliminate(A, B), _eliminate_by_steps(A, B)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", list(SIDES))
def test_singular_matrix_gives_zero_det_without_warning(side):
    A = metric_at(FIXTURES["walker"], domain_points(FIXTURES["walker"], SMALL))
    A[3] = np.eye(4)
    A[3, :2, :2] = [[1.0, 2.0], [2.0, 4.0]]
    A[5] = 0.0
    rhs = np.ones(A.shape[:2] + (1,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        det, x = _solved(A, rhs, SIDES[side])
    assert det[3] == det[5] == 0.0
    ok = np.ones(SMALL, dtype=bool)
    ok[[3, 5]] = False
    assert _rel(x[ok], np.linalg.solve(A[ok], rhs[ok])) <= 1e-12


# det = 2 x1 on x1 > 0 and exactly 0 on x1 < 0: half the candidates
# are exactly singular
HALF_SINGULAR = ChartedMetric.from_strings(
    ["x1", "x2"], [["x1 + sqrt(x1*x1)", "0"], ["0", "1"]], [(-1, 1), (-1, 1)]
)
CURVED = ChartedMetric.from_strings(
    ["x1", "x2"], [["1 + x1^2", "0"], ["0", "2 + x1*x2"]], [(-1, 1), (-1, 1)]
)


@pytest.mark.parametrize("samples", [SMALL, ELIMINATION_MIN_POINTS])
@pytest.mark.parametrize("kind", [None, LiftKind.SASAKI_TM])
def test_singular_candidates_are_screened_out(samples, kind):
    for g, ghat in ((HALF_SINGULAR, CURVED), (CURVED, HALF_SINGULAR)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if kind is None:
                rep = check_harmonic(g, ghat, samples=samples, seed=3)
            else:
                rep = check_lift_conditions(g, ghat, kind, samples=samples, seed=3)
        assert rep.samples_used == samples
        assert rep.degenerate_rejected > samples // 4
        assert rep.worst_point[0] > 0.0
        assert np.isfinite(rep.max_abs_residual)


def _pairs():
    for name, g, ghat in HARMONIC_PAIRS + NON_HARMONIC_PAIRS:
        yield name, g, ghat
    for m in (3, 5):
        yield f"dense-m{m}", dense_metric(m), dense_metric(m, quad=0.3, amp=0.05)


@pytest.mark.parametrize("name, g, ghat", list(_pairs()), ids=_id)
def test_both_sides_give_the_same_report(monkeypatch, name, g, ghat):
    reports = {}
    for side, threshold in (("lapack", 10**9), ("elimination", 1)):
        monkeypatch.setattr(metric, "ELIMINATION_MIN_POINTS", threshold)
        reports[side] = check_harmonic(g, ghat, samples=SMALL, seed=11).as_dict()
        assert check_harmonic(g, g, samples=SMALL, seed=11).max_abs_residual == 0.0
    a, b = reports["lapack"], reports["elimination"]
    for key in ("verdict", "samples_used", "samples_scanned", "degenerate_rejected"):
        assert a[key] == b[key], key
    scale = a["max_abs_residual"]
    if scale > 1e-9:
        assert abs(scale - b["max_abs_residual"]) <= 1e-12 * scale
        diff = np.subtract(a["per_component_max"], b["per_component_max"])
        assert np.abs(diff).max() <= 1e-12 * scale
    else:
        assert b["max_abs_residual"] <= 1e-12


BAD_MATRICES = {
    "singular": [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]],
    "nan": np.full((3, 3), np.nan),
}


@pytest.mark.parametrize("count", [1, SMALL, ELIMINATION_MIN_POINTS])
@pytest.mark.parametrize("bad", list(BAD_MATRICES))
def test_screen_names_the_first_degenerate_point(bad, count):
    g = FIXTURES["dense-m3"]
    x = domain_points(g, count)
    G = metric_at(g, x)
    first = count // 3
    G[first] = G[-1] = BAD_MATRICES[bad]
    if count == 1:
        G, x = G[0], x[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MetricDegenerate) as exc:
            _checked_inverse(G, x)
    assert np.array_equal(exc.value.point, x.reshape(-1, 3)[first])
    assert not abs(exc.value.det) > 1e-12
    assert (exc.value.det == 0.0) == (bad == "singular")


@pytest.mark.parametrize("kind", list(LiftKind))
def test_lift_blocks_factor_the_metric_once(monkeypatch, kind):
    calls = []

    def spy(A, B):
        calls.append(A.shape)
        return _solve(A, B)

    def inv(*_):
        raise AssertionError("np.linalg.inv called")

    g = FIXTURES["dense-m3"]
    monkeypatch.setattr(metric, "_solve", spy)
    monkeypatch.setattr(np.linalg, "inv", inv)
    lift_blocks_at(g, kind, FiberPoint([0.1, -0.2, 0.3], [0.5, 0.4, -0.6]))
    assert calls == [(1, 3, 3)]


def test_tensors_evaluate_and_factor_the_metric_once(monkeypatch, tmp_path, capsys):
    solves, jet_orders, value_calls = [], [], []

    def spy(A, B):
        solves.append(A.shape)
        return _solve(A, B)

    def jets(g, x, order=2):
        jet_orders.append(order)
        return metric_jets_at(g, x, order)

    def values(g, x):
        value_calls.append(x)
        return metric_at(g, x)

    g = FIXTURES["dense-m3"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"coordinates": list(g.coords), "metric": g.component_sources()}))
    monkeypatch.setattr(metric, "_solve", spy)
    monkeypatch.setattr(metric, "metric_jets_at", jets)
    for mod in (metric, cli):  # wherever the command could find it by name
        monkeypatch.setattr(mod, "metric_at", values, raising=False)
    assert cli.main(["tensors", "--manifest", str(path), "--at=0.1,-0.2,0.3"]) == 0
    assert "curvature" in json.loads(capsys.readouterr().out)
    assert solves == [(1, 3, 3)]
    assert jet_orders == [2]
    assert value_calls == []


def test_dense_m16_elimination_sweeps_rows_in_place():
    # A and B are swept in copies of their own, one row at a time, and X is
    # B's copy: 8.4 MB each here; one [A | B] work array with a whole
    # (m, m + r - k - 1, N) update product per step rises 34 MB
    g = dense_metric(16)
    G = metric_at(g, domain_points(g, 4096))
    eye = np.broadcast_to(np.eye(16), G.shape)
    (det, X), rise = traced_peak(lambda: _solve(G, eye))
    assert rise < 24e6
    assert np.all(det > 0.0)
    assert np.allclose(G @ X, np.eye(16), atol=1e-12)
