"""Tension fields and sampled harmonicity verdicts.

A metric ``ghat`` is harmonic with respect to ``g`` (on the same chart)
when the identity map (M, g) -> (M, ghat) is harmonic, i.e. when

    tau^k = g^{ij} (Ghat^k_{ij} - G^k_{ij}) = 0   for every k,

with G, Ghat the Christoffel symbols of the two metrics.  The pair is
ordered: swapping the roles changes both the Christoffel difference and
the contracting inverse, and no symmetry across the swap is assumed.

The identity tension is computed contract-first, without forming either
set of Christoffel symbols.  With C_{lij} = d_i g_jl + d_j g_il - d_l g_ij
and Chat_{lij} the same over ghat's derivatives, both contracted with
g's inverse,

    c_l    = g^{ij} C_{lij}    = 2 g^{ij} d_i g_jl    - g^{ij} d_l g_ij ,
    chat_l = g^{ij} Chat_{lij} = 2 g^{ij} d_i ghat_jl - g^{ij} d_l ghat_ij ,

    tau = 1/2 (ghat^{-1} chat - g^{-1} c)
        = 1/2 ghat^{-1} ((chat - c) - (ghat - g) g^{-1} c) ,

which costs O(m^3) per point: g's inverse and one linear solve against
ghat with a single right-hand side.  The second form keeps the tension
of a metric against itself exactly zero.

``check_harmonic`` evaluates the residual on a deterministic
low-discrepancy lattice over the shared sampling box and renders a
verdict.  Each metric is evaluated and factored once per batch of
candidate points: the jets that screen out degenerate candidates are the
jets the residual is computed from, and one pivoted elimination per
metric gives both the determinant of the screen and g's inverse (for g)
or the solve (for ghat).  A batch of ``ELIMINATION_MIN_POINTS`` points or
more runs a Gauss-Jordan elimination vectorised along the sample axis of
the points-last jets; a smaller one calls LAPACK per matrix, whose
per-call cost is lower there, and so factors each matrix twice (the
determinant, then the inverse or solve).  A sampled verdict never claims
global harmonicity, hence the wording "harmonic-on-samples".
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import exprlang as ex
from .exprlang import ExprAst
from .jets import Jet2, as_jet2
from .metric import (
    DEGENERACY_EPS,
    ChartedMetric,
    MetricDegenerate,
    _checked_inverse,
    _gamma_from_inverse,
    metric_jets_at,
)

__all__ = [
    "CoordinateMap",
    "HarmonicityReport",
    "MAX_SAMPLES",
    "SamplingExhausted",
    "NonFiniteResidual",
    "tension_identity_at",
    "tension_map_at",
    "check_harmonic",
    "lattice_points",
    "shared_domain",
]

VERDICT_HARMONIC = "harmonic-on-samples"
VERDICT_NOT = "not-harmonic"

# Largest sample count a check accepts: ``lattice_points`` allocates
# samples x d floats up front, so an unchecked count is an unbounded
# allocation.
MAX_SAMPLES = 65_536

# Sample batches of at least this many points are factored by the
# vectorised elimination, smaller ones by LAPACK (see ``_solve``).
ELIMINATION_MIN_POINTS = 256


class SamplingExhausted(RuntimeError):
    """Could not collect enough nondegenerate sample points."""


class NonFiniteResidual(ValueError):
    """A residual came out NaN or infinite at a sample point (components
    overflowed there), so no verdict can be given."""


@dataclass(frozen=True)
class CoordinateMap:
    """Coordinate presentation of a smooth map: one expression per
    target coordinate, over the source coordinates."""

    source_coords: tuple[str, ...]
    target_coords: tuple[str, ...]
    components: tuple[ExprAst, ...]

    def __post_init__(self):
        if len(self.components) != len(self.target_coords):
            raise ValueError("one component expression per target coordinate")

    @classmethod
    def from_strings(cls, source_coords, target_coords, sources) -> "CoordinateMap":
        source_coords = tuple(source_coords)
        comps = tuple(ex.parse_expression(str(s), source_coords) for s in sources)
        return cls(source_coords, tuple(target_coords), comps)

    @property
    def source_dim(self) -> int:
        return len(self.source_coords)

    @property
    def target_dim(self) -> int:
        return len(self.target_coords)


@dataclass(frozen=True)
class HarmonicityReport:
    verdict: str
    max_abs_residual: float
    worst_point: tuple[float, ...]
    per_component_max: tuple[float, ...]
    samples_used: int
    samples_scanned: int
    degenerate_rejected: int
    tolerance: float
    seed: int

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_abs_residual": self.max_abs_residual,
            "worst_point": list(self.worst_point),
            "per_component_max": list(self.per_component_max),
            "samples_used": self.samples_used,
            "samples_scanned": self.samples_scanned,
            "degenerate_rejected": self.degenerate_rejected,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }


def _require_same_chart(g: ChartedMetric, ghat: ChartedMetric):
    if g.dim != ghat.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {ghat.dim}")
    if g.coords != ghat.coords:
        raise ValueError(
            f"coordinate names differ: {list(g.coords)} vs {list(ghat.coords)}"
        )


def _eliminate(A: np.ndarray, B: np.ndarray):
    """``(det, X)``: det A and the solution of A X = B, by one Gauss-Jordan
    elimination with partial pivoting, vectorised over the trailing sample
    axis: ``A`` is ``(m, m, N)``, ``B`` is ``(m, r, N)`` and ``X`` is
    ``(m, r, N)``.  Pivot rows are not rescaled during the sweep: the
    pivots stay on the diagonal, so det is their product (with the sign of
    the row swaps) and X is the right-hand side over them.  At a sample
    where A is singular a pivot is zero, so det is 0 and X is not finite
    there, without a warning; the caller screens on det."""
    m, n = A.shape[0], A.shape[-1]
    M = np.concatenate((A, B), axis=1)
    # a rank per row, highest first: of equally large pivot candidates the
    # first wins, as with argmax, which loops per sample along axis 0
    rank, points = np.arange(m - 1, -1, -1)[:, None], np.arange(n)
    odd = np.zeros(n, dtype=bool)  # rows swapped an odd number of times
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
            if f.any():  # else column k is clear already, as in diagonal blocks
                M[:, k + 1 :] -= f[:, None] * M[k, k + 1 :]
        pivots = np.diagonal(M).T
        det = pivots.prod(axis=0)
        # a zero pivot stays on the diagonal, but the NaN it spreads
        # through the later pivots would hide it in their product
        det[(pivots == 0.0).any(axis=0)] = 0.0
        np.negative(det, out=det, where=odd)
        return det, M[:, m:] / pivots[:, None]


def _solve(A: np.ndarray, B: np.ndarray):
    """``(det, X)``: det A and the solution of A X = B for a batch of
    points, ``A`` ``(N, m, m)`` and ``B`` ``(N, m, r)``.  From
    ``ELIMINATION_MIN_POINTS`` points on, one :func:`_eliminate` over the
    points-last arrays gives both.  Smaller batches call LAPACK per
    matrix (``np.linalg.det``, then ``np.linalg.solve``): at those sizes
    the numpy calls of each elimination step cost more than factoring
    twice.  Either way ``X`` is an ``(N, m, r)`` view of a points-last
    array.  Where A is singular X is meaningless, without an error or a
    warning; the caller screens on det."""
    if A.shape[0] >= ELIMINATION_MIN_POINTS:
        det, X = _eliminate(A.transpose(1, 2, 0), B.transpose(1, 2, 0))
        return det, X.transpose(2, 0, 1)
    det = np.linalg.det(A)
    singular = ~(np.abs(det) > 0.0)  # a zero pivot, or NaN entries
    if singular.any():
        A = np.where(singular[:, None, None], np.eye(A.shape[-1]), A)
    X = np.linalg.solve(A, B)
    return det, X.transpose(1, 2, 0).copy().transpose(2, 0, 1)


def _contracted_christoffel(ginv: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """c_l = g^{ij} C_{lij} = 2 g^{ij} d_i g_jl - g^{ij} d_l g_ij, where
    ``dG[..., i, j, k] = d_k g_ij`` may belong to another metric than
    ``ginv``."""
    return 2.0 * np.einsum("...ij,...jli->...l", ginv, dG) - np.einsum(
        "...ij,...ijl->...l", ginv, dG
    )


def _identity_tension(G, dG, Gh, dGh):
    """``(det g, det ghat, tau)`` from first jets of both metrics at a
    batch of ``N`` points; ``tau`` is ``(N, m)``.

    :func:`_solve` gives det g and g's inverse, then det ghat and the
    solve (see the module docstring).  On the points-last jets of
    :func:`metric_jets_at` the contractions run along contiguous sample
    rows.  At a point where either determinant is zero tau is
    meaningless; the caller screens on the determinants.
    """
    eye = np.broadcast_to(np.eye(G.shape[-1]), G.shape)
    with np.errstate(all="ignore"):
        det, ginv = _solve(G, eye)
        c = _contracted_christoffel(ginv, dG)
        c_hat = _contracted_christoffel(ginv, dGh)
        v = np.einsum("...kl,...l->...k", ginv, c)
        rhs = (c_hat - c) - np.einsum("...kl,...l->...k", Gh - G, v)
        det_hat, x = _solve(Gh, rhs[..., None])
    return det, det_hat, 0.5 * x[..., 0]


def tension_identity_at(g: ChartedMetric, ghat: ChartedMetric, x) -> np.ndarray:
    """Tension vector of the identity map (M, g) -> (M, ghat) at ``x``;
    accepts a point ``(m,)`` or batch ``(N, m)``.

    Contract-first (see the module docstring):
    tau = 1/2 (ghat^{-1} chat - g^{-1} c) with c_l = g^{ij} C_{lij} and
    chat_l = g^{ij} Chat_{lij}, both contracted with g's inverse; ghat's
    inverse is never formed.  Raises :class:`MetricDegenerate` naming the
    first point where g, else ghat, has |det| <= 1e-12.
    """
    _require_same_chart(g, ghat)
    pt = np.asarray(x, dtype=float)
    flat = pt.reshape(-1, pt.shape[-1])
    G, dG, _ = metric_jets_at(g, flat, order=1)
    Gh, dGh, _ = metric_jets_at(ghat, flat, order=1)
    det, det_hat, tau = _identity_tension(G, dG, Gh, dGh)
    for d in (det, det_hat):
        bad = np.flatnonzero(np.abs(d) <= DEGENERACY_EPS)
        if bad.size:
            raise MetricDegenerate(flat[bad[0]], d[bad[0]])
    return tau.reshape(pt.shape)


def tension_map_at(
    phi: CoordinateMap, g: ChartedMetric, h: ChartedMetric, x
) -> np.ndarray:
    """Tension vector of ``phi`` : (M, g) -> (N, h), length ``n``.

    tau^c = g^{ij} ( d_i d_j phi^c - G^k_{ij} d_k phi^c
                     + H^c_{ab}(phi(x)) d_i phi^a d_j phi^b ).
    """
    if tuple(phi.source_coords) != g.coords:
        raise ValueError("map source coordinates do not match the source chart")
    if tuple(phi.target_coords) != h.coords:
        raise ValueError("map target coordinates do not match the target chart")
    pt = np.asarray(x, dtype=float)
    m, n = phi.source_dim, phi.target_dim
    env = [Jet2.variable(pt[..., i], i, m) for i in range(m)]
    memo: dict = {}
    base = pt.shape[:-1]
    y = np.empty(base + (n,))
    dphi = np.empty(base + (n, m))
    d2phi = np.empty(base + (n, m, m))
    for c in range(n):
        out = as_jet2(ex.evaluate(phi.components[c], env, memo), base, m)
        y[..., c] = out.value
        dphi[..., c, :] = out.grad
        d2phi[..., c, :, :] = out.hess

    for c, (lo, hi) in enumerate(h.domain):
        yc = y[..., c]
        if np.any(yc < lo - 1e-12) or np.any(yc > hi + 1e-12):
            raise ValueError(
                f"image leaves the target domain in coordinate "
                f"{h.coords[c]!r}: range [{yc.min()}, {yc.max()}] "
                f"vs [{lo}, {hi}]"
            )

    G, dG, _ = metric_jets_at(g, x, order=1)
    ginv = _checked_inverse(G, x)
    gamma, _ = _gamma_from_inverse(ginv, dG)
    Gh, dGh, _ = metric_jets_at(h, y, order=1)
    gamma_h, _ = _gamma_from_inverse(_checked_inverse(Gh, y), dGh)

    nabla = (
        d2phi
        - np.einsum("...kij,...ck->...cij", gamma, dphi)
        + np.einsum("...cab,...ai,...bj->...cij", gamma_h, dphi, dphi)
    )
    return np.einsum("...ij,...cij->...c", ginv, nabla)


# ---------------------------------------------------------------------------
# deterministic sampling


def _kronecker_alpha(d: int) -> np.ndarray:
    # unique real root > 1 of x^(d+1) = x + 1; alphas are its inverse powers
    x = 2.0
    for _ in range(64):
        x = x - (x ** (d + 1) - x - 1.0) / ((d + 1) * x**d - 1.0)
    return np.array([(1.0 / x) ** (j + 1) for j in range(d)])


def lattice_points(domain, count: int, seed: int, start: int = 0) -> np.ndarray:
    """``count`` quasi-uniform points of the box ``domain`` from an
    additive-recurrence lattice; deterministic given ``seed``.  ``start``
    continues the sequence (used when rejected points are replaced)."""
    dom = np.asarray(domain, dtype=float)
    d = dom.shape[0]
    alpha = _kronecker_alpha(d)
    offset = np.random.default_rng(seed).random(d)
    idx = np.arange(start + 1, start + count + 1, dtype=float)[:, None]
    frac = (offset[None, :] + idx * alpha[None, :]) % 1.0
    lo, hi = dom[:, 0], dom[:, 1]
    return lo[None, :] + frac * (hi - lo)[None, :]


def shared_domain(g: ChartedMetric, ghat: ChartedMetric):
    """Per-coordinate intersection of the two sampling boxes."""
    out = []
    for (alo, ahi), (blo, bhi) in zip(g.domain, ghat.domain):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            raise ValueError("sampling domains do not intersect")
        out.append((lo, hi))
    return tuple(out)


def _collect_samples(
    g: ChartedMetric, ghat: ChartedMetric, domain, samples: int, seed: int
):
    """First ``samples`` lattice points of the box ``domain`` whose leading
    ``g.dim`` coordinates make both metrics nondegenerate, scanning at
    most 10x candidates, with the identity tension there.

    Each candidate batch takes one order-1 ``metric_jets_at`` pass per
    metric, and :func:`_identity_tension` on all of its candidates: the
    screen |det| > 1e-12 reads the determinants of the factorizations
    that give the tension, so no metric is evaluated twice at a point.
    When the whole batch is kept its arrays are returned as they are.
    ``domain`` is the shared box, or for a lift the shared box times the
    fiber box.

    Returns ``(points, tau, scanned, rejected)``: ``tau`` is the tension
    at the kept points, and ``rejected`` of the ``scanned`` candidates
    failed the screen.
    """
    m = g.dim
    batches = []
    count = scanned = rejected = 0
    limit = 10 * samples
    while count < samples and scanned < limit:
        cand = lattice_points(domain, min(samples, limit - scanned), seed, start=scanned)
        scanned += cand.shape[0]
        G, dG, _ = metric_jets_at(g, cand[:, :m], order=1)
        Gh, dGh, _ = metric_jets_at(ghat, cand[:, :m], order=1)
        det, det_hat, tau = _identity_tension(G, dG, Gh, dGh)
        ok = (np.abs(det) > DEGENERACY_EPS) & (np.abs(det_hat) > DEGENERACY_EPS)
        keep = np.flatnonzero(ok)
        rejected += cand.shape[0] - keep.size
        keep = keep[: samples - count]
        batch = (cand, tau)
        if keep.size < cand.shape[0]:
            batch = (cand[keep], tau[keep])
        batches.append(batch)
        count += keep.size
    if count < samples:
        raise SamplingExhausted(
            f"only {count} of {samples} sample points were nondegenerate "
            f"after scanning {scanned} candidates"
        )
    if len(batches) == 1:
        pts, tau = batches[0]
    else:
        pts, tau = (np.concatenate(parts) for parts in zip(*batches))
    return pts, tau, scanned, rejected


def _sampled_report(
    g: ChartedMetric, ghat: ChartedMetric, domain, residual, samples, tol, seed
) -> HarmonicityReport:
    """Shared core of the sampled checks: ``residual(tau)`` maps the
    identity tension at the kept points ``(N, d)`` (see
    :func:`_collect_samples`) to residuals ``(N, c)``; the report gives the
    worst absolute residual (first sample on ties) and the per-component
    maxima."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    _require_same_chart(g, ghat)
    pts, tau, scanned, rejected = _collect_samples(g, ghat, domain, samples, seed)
    abs_r = np.abs(residual(tau))
    bad = np.argwhere(~np.isfinite(abs_r))
    if bad.size:
        i, c = bad[0]
        pt = ", ".join(repr(float(v)) for v in pts[i])
        raise NonFiniteResidual(
            f"residual component {c + 1} is not finite at sample point ({pt})"
        )
    per_sample = abs_r.max(axis=1)
    worst = int(np.argmax(per_sample))
    max_abs = float(per_sample[worst])
    verdict = VERDICT_HARMONIC if max_abs <= tol else VERDICT_NOT
    return HarmonicityReport(
        verdict=verdict,
        max_abs_residual=max_abs,
        worst_point=tuple(float(v) for v in pts[worst]),
        per_component_max=tuple(float(v) for v in abs_r.max(axis=0)),
        samples_used=int(pts.shape[0]),
        samples_scanned=scanned,
        degenerate_rejected=rejected,
        tolerance=float(tol),
        seed=int(seed),
    )


def check_harmonic(
    g: ChartedMetric,
    ghat: ChartedMetric,
    samples: int = 64,
    tol: float = 1e-9,
    seed: int = 42,
) -> HarmonicityReport:
    """Evaluate the identity-map tension on a deterministic lattice of the
    shared box and report the worst absolute residual."""
    return _sampled_report(
        g,
        ghat,
        shared_domain(g, ghat),
        lambda tau: tau,
        samples,
        tol,
        seed,
    )
