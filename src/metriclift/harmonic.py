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
of a metric against itself exactly zero.  c and chat are summed from
the rows d_i g_ab of each entry a <= b over its support only, one term
at a time, and g^{-1} c and (ghat - g) v one column at a time, each
elementwise along the samples: no array larger than g's inverse is
formed, and a point's tau is the same whatever batch it is in.

``check_harmonic`` evaluates the residual on a deterministic
low-discrepancy lattice over the shared sampling box and renders a
verdict.  The candidates come in batches of ``samples`` points, and
each metric is evaluated and factored once per chunk of a batch
(below): the jets that screen out degenerate candidates feed the tension
kernel, whose ``metric._solve`` (see the ``metric`` module docstring)
gives both the determinant of the screen and g's inverse (for g) or the
solve (for ghat), in ``tension_identity_at`` too.  The screen keeps a
candidate where ``metric._nondegenerate`` holds for both determinants,
the rule by which ``metric._screen`` raises elsewhere.  The kernel
takes the metrics in turn, so that the two metrics' jets are never alive
together: g's jets, g's factorization, c, then g's rows dropped; ghat's
jets, chat, then ghat's rows dropped; g^{-1} c, then g's inverse dropped;
the right-hand side, then G dropped before ghat is factored.  The jet
pass names an entry that is not finite.  A sampled verdict never claims
global harmonicity, hence the wording "harmonic-on-samples".

A batch is evaluated in near-equal chunks of consecutive points, each
(m, m, chunk) array kept to ``CHUNK_BYTES`` but no chunk shorter than
``CHUNK_MIN_POINTS`` (``_chunks``), so the peak memory of a check stops
growing with the sample count while its run time does not.  As a point's
tau does not depend on its batch, and every chunk of a split batch is
long enough to be factored by the elimination as its whole batch is, the
chunks give the same bits as one pass.  The kernel runs chunk by chunk,
g then ghat in each, so a non-finite entry is reported from the first
chunk where either metric has one: g's first failing point in that chunk
if g fails there, else ghat's.  A batch of one chunk therefore names g's
first failing point before any of ghat's.  The term layout of the
contraction (``_term_slots``) is built once per support pattern of each
check or tension call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from . import exprlang as ex
from .exprlang import ExprAst
from .jets import Jet2, as_jet2
from .metric import (
    ChartedMetric,
    _component_jets,
    _connection_at,
    _nondegenerate,
    _point_text,
    _screen,
    _solve,
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

# The chunk rule of ``_chunks``: the bytes of each (m, m, chunk) float64
# array, and the least length of a chunk, which wins over the budget and
# keeps a split batch on the elimination side of ``_solve``.
CHUNK_BYTES = 768 * 1024
CHUNK_MIN_POINTS = 2048


class SamplingExhausted(RuntimeError):
    """Could not collect enough nondegenerate sample points."""


class NonFiniteResidual(ValueError):
    """A residual came out NaN or infinite at a sample point from finite
    jets (the tension overflowed there), so no verdict can be given."""


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
        """The fields by name, tuples as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def _require_same_chart(g: ChartedMetric, ghat: ChartedMetric):
    if g.dim != ghat.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {ghat.dim}")
    if g.coords != ghat.coords:
        raise ValueError(
            f"coordinate names differ: {list(g.coords)} vs {list(ghat.coords)}"
        )


def _term_slots(abi: np.ndarray, m: int):
    """``(pq, row, w)``, each ``(S, m)``: the s-th term of c_l, in row order
    (see :func:`_contracted_christoffel`), reads entry ``pq[s, l]`` of the
    flat g^{-1} and row ``row[s, l]`` of the support rows indexed by
    ``abi``, with weight ``w[s, l]``; a last, zero term pads a short c_l."""
    a, b, i = abi.T
    off, t = (a != b).nonzero()[0], np.arange(a.size)
    target = np.concatenate((b, a[off], i))
    pq = np.concatenate((i * m + a, (i * m + b)[off], a * m + b, [0]))
    row = np.concatenate((t, off, t, [0]))
    w = np.concatenate((np.full(t.size + off.size, 2.0), -1.0 - (a != b), [0.0]))
    order = target.argsort(kind="stable")
    ts = target[order]
    rank = np.arange(ts.size) - ts.searchsorted(ts)
    slots = np.full((rank.max(initial=-1) + 1, m), -1)
    slots[rank, ts] = order
    return pq[slots], row[slots], w[slots]


def _contracted_christoffel(ginv: np.ndarray, r: np.ndarray, pq, row, w) -> np.ndarray:
    """c_l = g^{ij} C_{lij} = 2 g^{ij} d_i g_jl - g^{ij} d_l g_ij, ``(m, N)``,
    from ``ginv`` ``(m, m, N)`` and the support rows ``r`` of any metric: a
    row r = d_i g_ab adds 2 g^{ia} r to c_b, 2 g^{ib} r to c_a if a != b,
    and -w g^{ab} r to c_i, w = 2 if a != b else 1, at its slots
    (:func:`_term_slots`).  The slots are added one at a time into c,
    elementwise along the samples, the order in which numpy's axis-0 sum
    of the whole ``(S, m, N)`` term stack would add them, without forming
    it; no slots give zeros."""
    m, n = ginv.shape[1:]
    flat = ginv.reshape(m * m, n)  # n may be 0
    c = np.zeros((pq.shape[1], n))
    for p, q, u in zip(pq, row, w[..., None]):
        t = flat.take(p, axis=0)
        t *= r.take(q, axis=0)
        t *= u
        c += t
    return c


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_l A[k, l] v[l], ``(m, N)``, for ``A`` ``(m, m, N)`` and ``v``
    ``(m, N)``, added in order of l along the samples, so that a point's
    result does not depend on the batch it is in."""
    out = np.zeros(v.shape)
    for l in range(v.shape[0]):
        out += A[:, l] * v[l]
    return out


def _slots(layout: dict, abi: np.ndarray, m: int):
    """:func:`_term_slots` of ``abi``, built once per support pattern and
    kept in ``layout``, the memo of one check or one tension call: every
    batch and chunk of a metric has the same supports."""
    key = abi.tobytes()
    if key not in layout:
        layout[key] = _term_slots(abi, m)
    return layout[key]


def _tension_kernel(g_pass, ghat_pass, layout: dict):
    """``(det g, det ghat, tau)``, ``tau`` ``(N, m)``, from the first jets
    ``(G, (abi, rows))`` of g and ghat at ``N`` points that ``g_pass()`` and
    then ``ghat_pass()`` make, as ``metric._component_jets`` does, by one
    ``metric._solve`` per metric, each array dropped in the order the
    module docstring gives: ghat's jets are made once g's half is done.
    The term layouts come from ``layout`` (:func:`_slots`).  Where either
    det is not above 1e-12 tau is meaningless; the caller screens."""
    G, (abi, rows) = g_pass()
    m = G.shape[0]
    eye = np.broadcast_to(np.eye(m), (G.shape[-1], m, m))
    with np.errstate(all="ignore"):
        det, ginv = _solve(G.transpose(2, 0, 1), eye)
        ginv = ginv.transpose(1, 2, 0)
        c = _contracted_christoffel(ginv, rows, *_slots(layout, abi, m))
    del rows
    Gh, (abi_hat, rows) = ghat_pass()
    with np.errstate(all="ignore"):
        c_hat = _contracted_christoffel(ginv, rows, *_slots(layout, abi_hat, m))
        del rows
        v = _matvec(ginv, c)
        del ginv
        rhs = (c_hat - c) - _matvec(Gh - G, v)
        del G
        det_hat, sol = _solve(Gh.transpose(2, 0, 1), rhs.T[..., None])
    return det, det_hat, 0.5 * sol[..., 0]


def _identity_tension(G, dG, Gh, dGh):
    """:func:`_tension_kernel` on the first jets of g and ghat, given as
    ``metric._component_jets`` gives them (lifted jets too)."""
    return _tension_kernel(lambda: (G, dG), lambda: (Gh, dGh), {})


def _chunks(n: int, m: int) -> list:
    """``(start, stop)`` of the chunks of consecutive points that a batch of
    ``n`` points in dimension ``m`` is evaluated in: ``max(1, n // L)``
    near-equal chunks, ``L = max(CHUNK_MIN_POINTS, CHUNK_BYTES // (8 m^2))``,
    so each ``(m, m, chunk)`` array keeps to the budget unless that would
    make a chunk shorter than the minimum, and a split batch never has a
    chunk shorter than ``L``."""
    k = max(1, n // max(CHUNK_MIN_POINTS, CHUNK_BYTES // (8 * m * m)))
    edges = [n * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _chunked_tension(g: ChartedMetric, ghat: ChartedMetric, x: np.ndarray, layout: dict):
    """``(det g, det ghat, tau)`` at the points ``x`` ``(N, m)``: one
    :func:`_tension_kernel`, with an order-1 ``metric._component_jets``
    pass of each metric, per chunk of :func:`_chunks`, concatenated."""
    parts = [
        _tension_kernel(
            lambda: _component_jets(g, x[a:b], order=1)[:2],
            lambda: _component_jets(ghat, x[a:b], order=1)[:2],
            layout,
        )
        for a, b in _chunks(x.shape[0], g.dim)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def tension_identity_at(g: ChartedMetric, ghat: ChartedMetric, x) -> np.ndarray:
    """Tension vector of the identity map (M, g) -> (M, ghat) at ``x``;
    accepts a point ``(m,)`` or batch ``(N, m)``.

    Contract-first (see the module docstring):
    tau = 1/2 (ghat^{-1} chat - g^{-1} c) with c_l = g^{ij} C_{lij} and
    chat_l = g^{ij} Chat_{lij}, both contracted with g's inverse; ghat's
    inverse is never formed.  Each metric is factored once per chunk, and
    a point where |det| is not above 1e-12 raises ``MetricDegenerate`` (g
    first).
    """
    _require_same_chart(g, ghat)
    pt = np.asarray(x, dtype=float)
    flat = pt.reshape(-1, pt.shape[-1])
    det, det_hat, tau = _chunked_tension(g, ghat, flat, {})
    _screen(det, flat)
    _screen(det_hat, flat)
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
    base = pt.shape[:-1]
    y = np.empty(base + (n,))
    dphi = np.empty(base + (n, m))
    d2phi = np.empty(base + (n, m, m))
    for c, out in enumerate(ex.evaluate(phi.components, env)):
        out = as_jet2(out, base, m)
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

    _, ginv, _, gamma, _ = _connection_at(g, x, 1)
    gamma_h = _connection_at(h, y, 1)[3]

    nabla = (
        d2phi
        - np.einsum("...kij,...ck->...cij", gamma, dphi)
        + np.einsum("...cab,...ai,...bj->...cij", gamma_h, dphi, dphi)
    )
    return np.einsum("...ij,...cij->...c", ginv, nabla)


# ---------------------------------------------------------------------------
# deterministic sampling


@functools.cache
def _kronecker_alpha(d: int) -> np.ndarray:
    # unique real root > 1 of x^(d+1) = x + 1; alphas are its inverse powers.
    # Found once per dimension (64 Newton steps) and shared, so read-only.
    x = 2.0
    for _ in range(64):
        x = x - (x ** (d + 1) - x - 1.0) / ((d + 1) * x**d - 1.0)
    alpha = np.array([(1.0 / x) ** (j + 1) for j in range(d)])
    alpha.flags.writeable = False
    return alpha


def lattice_points(domain, count: int, seed: int, start: int = 0) -> np.ndarray:
    """``count`` quasi-uniform points of the box ``domain`` from an
    additive-recurrence lattice; deterministic given ``seed``.  ``start``
    continues the sequence (used when rejected points are replaced)."""
    dom = np.asarray(domain, dtype=float)
    d = dom.shape[0]
    alpha = _kronecker_alpha(d)
    offset = np.random.default_rng(seed).random(d)
    idx = np.arange(start + 1, start + count + 1, dtype=float)[:, None]
    frac = offset[None, :] + idx * alpha[None, :]
    frac -= np.floor(frac)  # the fractional part, exact as every value is positive
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

    The candidates come in batches of ``samples``.  Each chunk of a batch
    (:func:`_chunks`) takes one order-1 ``metric._component_jets`` pass
    per metric, each made when :func:`_tension_kernel` reaches that
    metric: the screen, ``metric._nondegenerate`` of both determinants,
    reads the factorizations that give the tension, so no metric is
    evaluated twice at a point.  Every degenerate candidate of a batch is
    rejected, also one beyond the last point needed.  ``domain`` is the
    shared box, or for a lift the shared box times the fiber box.

    Returns ``(points, tau, scanned, rejected)``: ``tau`` is the tension
    at the kept points, and ``rejected`` of the ``scanned`` candidates
    failed the screen.
    """
    pts, taus, layout = [], [], {}
    count = scanned = rejected = 0
    while count < samples and scanned < 10 * samples:
        cand = lattice_points(domain, samples, seed, start=scanned)
        scanned += samples
        det, det_hat, tau = _chunked_tension(g, ghat, cand[:, : g.dim], layout)
        keep = np.flatnonzero(_nondegenerate(det) & _nondegenerate(det_hat))
        rejected += samples - keep.size
        keep = keep[: samples - count]
        pts.append(cand[keep])
        taus.append(tau[keep])
        count += keep.size
    if count < samples:
        raise SamplingExhausted(
            f"only {count} of {samples} sample points were nondegenerate "
            f"after scanning {scanned} candidates"
        )
    return np.concatenate(pts), np.concatenate(taus), scanned, rejected


def _check_sampling(samples, tol, seed):
    """``ValueError`` naming the first bad setting of a sampled check."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _sampled_report(
    g: ChartedMetric, ghat: ChartedMetric, domain, residual, samples, tol, seed
) -> HarmonicityReport:
    """Shared core of the sampled checks: ``residual(tau)`` maps the
    identity tension at the kept points ``(N, d)`` (see
    :func:`_collect_samples`) to residuals ``(N, c)``; the report gives the
    worst absolute residual and the per-component maxima; rounding alone
    picks the worst point where the residual is constant (Egorov fhat = c f)."""
    _check_sampling(samples, tol, seed)
    _require_same_chart(g, ghat)
    pts, tau, scanned, rejected = _collect_samples(g, ghat, domain, samples, seed)
    abs_r = np.abs(residual(tau))
    bad = np.argwhere(~np.isfinite(abs_r))
    if bad.size:
        i, c = bad[0]
        raise NonFiniteResidual(
            f"residual component {c + 1} is not finite at sample point {_point_text(pts[i])}"
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
