"""One factorization per metric and candidate batch.

``harmonic._solve`` gives det A and the solution of A X = B: for batches
of ``ELIMINATION_MIN_POINTS`` points or more from one Gauss-Jordan
elimination with partial pivoting over points-last arrays
(``harmonic._eliminate``), for smaller ones from LAPACK.  The degeneracy
screen reads that det, and the identity tension that X.  These
tests hold both sides of the size rule to ``np.linalg``, on the same
matrices, and check that the two sides give the same reports.
"""

import warnings

import numpy as np
import pytest

from metriclift import EgorovSpec, egorov_metric, harmonic
from metriclift.harmonic import ELIMINATION_MIN_POINTS, _solve, check_harmonic
from metriclift.lifts import LiftKind, check_lift_conditions
from metriclift.metric import ChartedMetric, metric_at
from conftest import HARMONIC_PAIRS, NON_HARMONIC_PAIRS, dense_metric, domain_points

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
        monkeypatch.setattr(harmonic, "ELIMINATION_MIN_POINTS", threshold)
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
