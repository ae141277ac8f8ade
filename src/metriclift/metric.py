"""Charted pseudo-Riemannian metrics and their pointwise tensors.

A :class:`ChartedMetric` is a symmetric matrix of expression trees over
named coordinates together with a sampling box.  All derived quantities
(inverse, Christoffel symbols, curvature) are computed pointwise from
exact jets.  Every jet pass (``_component_jets``) evaluates all upper
entries in one walk of :func:`exprlang.evaluate`, which drops each
subexpression's jet after its last use.  The pass takes each entry's
value into G and its derivative rows, on the entry's support, then
checks G and the rows are finite: the sampler contracts those rows, and
:func:`metric_jets_at` scatters them for ``_connection_at``, which
factors them by ``_checked_inverse`` for every other caller; only
:func:`metric_at` (one walk too) is unchecked.  The functions below
accept a single point ``(m,)`` or a batch ``(N, m)`` and return
correspondingly shaped arrays.

Index conventions: 0-based internally, 1-based in reports and any error
text.  Christoffel symbols are stored as ``gamma[..., k, i, j]`` and the
curvature tensor as ``riem[..., k, i, j, h]`` with

    R(e_i, e_j) e_h = R^k_{ijh} e_k ,

antisymmetric in (i, j) bit-for-bit.

Every inverse and every degeneracy screen comes from one routine,
``_solve``, which factors a batch of points once.  A batch of
``ELIMINATION_MIN_POINTS`` points or more runs one Gauss-Jordan
elimination with partial pivoting, vectorised along the sample axis of
points-last arrays; it gives the determinant (the product of the pivots)
and the inverse or solve together.  A smaller batch calls LAPACK per
matrix (``np.linalg.det``, then ``np.linalg.solve``): at those sizes the
numpy calls of each elimination step cost more than factoring twice.
The tension kernel factors a large batch chunk by chunk
(``harmonic._chunks``), and every chunk of a split batch is at least
``harmonic.CHUNK_MIN_POINTS`` long, so each point is factored on the same
side as its whole batch would be, with the same bits.  A point is
degenerate where |det| is not above 1e-12, NaN included: the sampler
skips it, and ``_checked_inverse`` raises :class:`MetricDegenerate` for
every other caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprlang as ex
from .exprlang import ExprAst
from .jets import Jet2

__all__ = [
    "ChartedMetric",
    "MetricDegenerate",
    "DEGENERACY_EPS",
    "metric_at",
    "inverse_metric_at",
    "christoffel_at",
    "christoffel_and_derivative_at",
    "curvature_at",
    "metric_jets_at",
    "mirror_components",
    "shared_component_sources",
]

DEGENERACY_EPS = 1e-12

# Batches of at least this many points are factored by the vectorised
# elimination, smaller ones by LAPACK (see ``_solve``).
ELIMINATION_MIN_POINTS = 256


class MetricDegenerate(Exception):
    """|det g| was not above the degeneracy threshold (or NaN) at a point."""

    def __init__(self, point, det: float):
        self.point = np.asarray(point, dtype=float)
        self.det = float(det)
        pt = ", ".join(repr(float(v)) for v in self.point)
        super().__init__(f"metric degenerate at ({pt}): det = {self.det!r}")


def mirror_components(entries: Sequence[Sequence[ExprAst]]):
    """Tuple-of-tuples component matrix where (i, j) and (j, i) are the
    same tree object (only the upper triangle of ``entries`` is read)."""
    m = len(entries)
    out = [[None] * m for _ in range(m)]
    for i, j in _upper(m):
        out[i][j] = out[j][i] = entries[i][j]
    return tuple(tuple(row) for row in out)


def _upper(m: int) -> list:
    """The upper entries (i, j), i <= j, in row order: the order in which
    every walk over a component matrix evaluates and names them."""
    return [(i, j) for i in range(m) for j in range(i, m)]


@dataclass(frozen=True)
class ChartedMetric:
    """Dimension, coordinate names, symmetric component matrix, sampling box."""

    coords: tuple[str, ...]
    components: tuple[tuple[ExprAst, ...], ...]
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):
        m = len(self.coords)
        if m < 1:
            raise ValueError("metric dimension must be at least 1")
        if len(set(self.coords)) != m:
            raise ValueError("coordinate names must be distinct")
        if len(self.components) != m or any(len(r) != m for r in self.components):
            raise ValueError("component matrix shape does not match dimension")
        for i in range(m):
            for j in range(i + 1, m):
                if self.components[i][j] is not self.components[j][i]:
                    raise ValueError(
                        "component matrix must be stored symmetrically: "
                        f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ"
                    )
        if len(self.domain) != m:
            raise ValueError("domain must give one interval per coordinate")
        for lo, hi in self.domain:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"domain interval [{lo}, {hi}] must have finite ends")
            if not (lo <= hi):
                raise ValueError(f"empty domain interval [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def from_strings(
        cls, coords, entries, domain, table: dict | None = None, names: dict | None = None
    ) -> "ChartedMetric":
        """Parse a matrix of expression strings.  Mirror entries must be
        textually identical; the parsed upper triangle is shared, and so
        is every subtree that occurs more than once in the matrix.
        ``table`` and ``names`` are as for
        :func:`exprlang.parse_expression`: one table shares subtrees with
        other charts, and ``names`` resolves named definitions.  The
        symbol index is built once for all entries."""
        coords = tuple(coords)
        m = len(coords)
        if len(entries) != m or any(len(r) != m for r in entries):
            raise ValueError("component matrix shape does not match dimension")
        for i in range(m):
            for j in range(i + 1, m):
                if str(entries[i][j]).strip() != str(entries[j][i]).strip():
                    raise ValueError(
                        f"metric entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) "
                        "must be identical"
                    )
        index = ex._symbol_index(coords) if m else {}  # __post_init__ refuses m = 0
        table = {} if table is None else table
        names = {} if names is None else names
        parsed = [
            [
                ex._Parser(str(entries[i][j]), index, table, names).parse()
                if j >= i
                else None
                for j in range(m)
            ]
            for i in range(m)
        ]
        dom = tuple((float(lo), float(hi)) for lo, hi in domain)
        return cls(coords, mirror_components(parsed), dom)

    def component_sources(self) -> list[list[str]]:
        memo: dict = {}
        return [[ex.to_source(e, memo) for e in row] for row in self.components]


def shared_component_sources(charts: Sequence[ChartedMetric]):
    """``(definitions, matrices)``: the component matrices of charts on one
    chart as source text, each node they use more than once printed once,
    as a definition (:func:`exprlang.to_shared_sources`)."""
    coords = charts[0].coords
    m = len(coords)
    upper = _upper(m)
    definitions, texts = ex.to_shared_sources(
        [g.components[i][j] for g in charts for i, j in upper], coords
    )
    matrices = []
    it = iter(texts)
    for _ in charts:
        mat = [[""] * m for _ in range(m)]
        for i, j in upper:
            mat[i][j] = mat[j][i] = next(it)
        matrices.append(mat)
    return definitions, matrices


def _point_env(g: ChartedMetric, x) -> np.ndarray:
    pt = np.asarray(x, dtype=float)
    if pt.shape[-1] != g.dim:
        raise ValueError(
            f"point has {pt.shape[-1]} entries, chart has {g.dim} coordinates"
        )
    return pt


def metric_at(g: ChartedMetric, x) -> np.ndarray:
    """Component matrix at ``x``, symmetric by construction: plain values,
    unchecked (the reference of the finite-difference oracles)."""
    pt = _point_env(g, x)
    m = g.dim
    env = [pt[..., i] for i in range(m)]
    out = np.empty(pt.shape[:-1] + (m, m))
    upper = _upper(m)
    for (i, j), v in zip(upper, ex.evaluate([g.components[i][j] for i, j in upper], env)):
        out[..., i, j] = v
        out[..., j, i] = out[..., i, j]
    return out


def _component_jets(g: ChartedMetric, x, order: int):
    """``(G, (abi, rows), jets)`` at the N points of ``x`` in one pass: ``G``
    ``(m, m, N)``, and ``rows[t] = d_i g_ab`` for ``abi[t] = (a, b, i)``,
    one per coordinate i of the support of each non-constant entry a <= b,
    whose ``(a, b, Jet2)`` ``jets`` lists at ``order=2`` (else ``None``),
    from one :func:`exprlang.evaluate` walk read in entry order.  A
    non-finite value or derivative raises :class:`exprlang.EvalDomainError`
    quoting the entry, at the first such point, then the first such entry,
    read from ``G`` and the rows (and the Hessians)."""
    flat = _point_env(g, x).reshape(-1, g.dim)
    m, n = g.dim, flat.shape[0]
    env = [Jet2.coordinate(flat[:, i], i, order) for i in range(m)]
    upper = _upper(m)
    G = np.empty((m, m, n))
    abi, grads, jets = [], [], []
    # an overflowing entry is reported as non-finite, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        outs = ex.evaluate([g.components[i][j] for i, j in upper], env)
    for (i, j), out in zip(upper, outs):
        if not isinstance(out, Jet2):  # a constant entry
            G[i, j] = G[j, i] = out
            continue
        G[i, j] = G[j, i] = out.value
        abi += [(i, j, k) for k in out.support]
        grads.append(out.grad.T)
        if order >= 2:
            jets.append((i, j, out))
    del outs, out  # the values, now in G
    abi = np.array(abi, dtype=np.intp).reshape(-1, 3)
    rows = np.concatenate(grads + [np.empty((0, n))])
    del grads
    finite = np.isfinite(G).all() and np.isfinite(rows).all()
    if not (finite and all(np.isfinite(out.hess).all() for *_, out in jets)):
        ok = np.isfinite(G)  # a bad derivative marks its upper entry only
        for (i, j, _), row in zip(abi, rows):
            ok[i, j] &= np.isfinite(row)
        for i, j, out in jets:
            ok[i, j] &= np.isfinite(out.hess).all(axis=(-2, -1))
        n, i, j = np.argwhere(~ok.transpose(2, 0, 1))[0]
        pt = ", ".join(repr(float(v)) for v in flat[n])
        msg = f"metric entry ({i + 1},{j + 1}) or a derivative of it is not finite at ({pt})"
        raise ex.EvalDomainError(msg, g.components[i][j])
    return G, (abi, rows), jets if order >= 2 else None


def metric_jets_at(g: ChartedMetric, x, order: int = 2):
    """Values and derivatives of all components in one pass.

    Returns ``(G, dG, d2G)`` with ``dG[..., i, j, k] = d_k g_ij`` and
    ``d2G[..., i, j, k, l] = d_k d_l g_ij`` (``d2G`` is ``None`` for
    ``order=1``): the derivatives of ``_component_jets`` on each entry's
    support, among exact zeros.  They are stored points-last: for a batch
    ``x`` of shape ``(N, m)``, ``G``, ``dG`` and ``d2G`` are ``(N, ...)``
    views of C-contiguous ``(m, m, N)``, ``(m, m, m, N)`` and
    ``(m, m, m, m, N)`` arrays (``np.moveaxis(A, 0, -1)`` recovers one).
    A non-finite entry raises :class:`exprlang.EvalDomainError` quoting it.
    """
    G, (abi, rows), jets = _component_jets(g, x, order)
    (a, b, k), (m, n) = abi.T, G.shape[1:]
    dG = np.zeros((m, m, m, n))
    dG[a, b, k] = dG[b, a, k] = rows
    d2G = None if order < 2 else np.zeros((m, m, m, m, n))
    for i, j, out in jets or ():
        s = np.array(out.support)
        d2G[i, j, s[:, None], s] = d2G[j, i, s[:, None], s] = out.hess.transpose(1, 2, 0)
    return tuple(
        None if A is None else np.moveaxis(A, -1, 0).reshape(np.shape(x)[:-1] + A.shape[:-1])
        for A in (G, dG, d2G)
    )


def _eliminate(A: np.ndarray, B: np.ndarray):
    """``(det, X)``: det A and the solution of A X = B, by one Gauss-Jordan
    elimination with partial pivoting, vectorised over the trailing sample
    axis: ``A`` is ``(m, m, N)``, ``B`` is ``(m, r, N)`` and ``X`` is
    ``(m, r, N)``.  Pivot rows are not rescaled during the sweep: the
    pivots stay on the diagonal, so det is their product (with the sign of
    the row swaps) and X is the right-hand side over them.  A and B are
    swept in copies of their own, B's becoming X, one row at a time, so
    the work beyond those copies is two rows, not an (m, m + r, N)
    temporary per step.  At a sample where A is singular a pivot is zero,
    so det is 0 and X is not finite there, without a warning; the caller
    screens on det."""
    m, n = A.shape[0], A.shape[-1]
    M, X = A.copy(), B.copy()
    # one row of the update f[i] * [A | B][k, k + 1:] at a time, into these
    tmp_a, tmp_x = np.empty((m, n)), np.empty(X.shape[1:])
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
                    for rows in (M[k:, k:], X[k:]):
                        top = rows[p, :, points]
                        rows[p, :, points] = rows[0].T
                        rows[0] = top.T
                    odd ^= p > 0
            f = M[:, k] / M[k, k]
            f[k] = 0.0
            if f.any():  # else column k is clear already, as in diagonal blocks
                # every row, k too (f[k] = 0 there) and last, as it is the
                # pivot row: the same bits as one (m, m + r - k - 1, N)
                # product would give, NaN and signed zeros included
                ta = tmp_a[: m - k - 1]
                for i in (*range(k), *range(k + 1, m), k):
                    np.multiply(f[i], M[k, k + 1 :], out=ta)
                    np.subtract(M[i, k + 1 :], ta, out=M[i, k + 1 :])
                    np.multiply(f[i], X[k], out=tmp_x)
                    np.subtract(X[i], tmp_x, out=X[i])
        pivots = np.diagonal(M).T
        det = pivots.prod(axis=0)
        # a zero pivot stays on the diagonal, but the NaN it spreads
        # through the later pivots would hide it in their product
        det[(pivots == 0.0).any(axis=0)] = 0.0
        np.negative(det, out=det, where=odd)
        X /= pivots[:, None]
        return det, X


def _solve(A: np.ndarray, B: np.ndarray):
    """``(det, X)``: det A and the solution of A X = B for a batch of
    points, ``A`` ``(N, m, m)`` and ``B`` ``(N, m, r)``, by
    :func:`_eliminate` or LAPACK as the module docstring says.  Either way
    ``X`` is an ``(N, m, r)`` view of a points-last array.  Where A is
    singular X is meaningless, without an error or a warning; the caller
    screens on det."""
    if A.shape[0] >= ELIMINATION_MIN_POINTS:
        det, X = _eliminate(A.transpose(1, 2, 0), B.transpose(1, 2, 0))
        return det, X.transpose(2, 0, 1)
    det = np.linalg.det(A)
    singular = ~(np.abs(det) > 0.0)  # a zero pivot, or NaN entries
    if singular.any():
        A = np.where(singular[:, None, None], np.eye(A.shape[-1]), A)
    X = np.linalg.solve(A, B)
    return det, X.transpose(1, 2, 0).copy().transpose(2, 0, 1)


def _checked_inverse(G: np.ndarray, x) -> np.ndarray:
    """Inverse of the matrices ``G`` at the points ``x`` by one :func:`_solve`,
    screened by :func:`_screen` where the sampler rejects a candidate."""
    m = G.shape[-1]
    flat = G.reshape(-1, m, m)
    with np.errstate(all="ignore"):
        det, ginv = _solve(flat, np.broadcast_to(np.eye(m), flat.shape))
    _screen(det, x)
    return ginv.reshape(G.shape)


def _screen(det: np.ndarray, x):
    """:class:`MetricDegenerate` at the first point where |det| <= 1e-12 or NaN."""
    bad = np.flatnonzero(~(np.abs(det) > DEGENERACY_EPS))
    if bad.size:
        raise MetricDegenerate(np.reshape(x, (det.size, -1))[bad[0]], det[bad[0]])


def inverse_metric_at(g: ChartedMetric, x) -> np.ndarray:
    """Matrix inverse of the components at ``x``, checked and factored by
    :func:`_connection_at` (:class:`MetricDegenerate` if |det| <= 1e-12)."""
    return _connection_at(g, x, 1)[1]


def _connection_at(g: ChartedMetric, x, order: int):
    """``(G, ginv, dG, gamma, dgamma)`` at a point or batch ``x``, from one
    checked :func:`metric_jets_at` pass of ``order`` 1 or 2 and one screened
    :func:`_checked_inverse`; ``dgamma[..., k, i, j, p] = d_p Gamma^k_ij``
    is ``None`` at order 1."""
    G, dG, d2G = metric_jets_at(g, x, order)
    ginv = _checked_inverse(G, x)
    # C[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij (first kind)
    di_gjl = np.einsum("...jli->...lij", dG)
    dj_gil = np.einsum("...ilj->...lij", dG)
    dl_gij = np.einsum("...ijl->...lij", dG)
    C = di_gjl + dj_gil - dl_gij
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, C)
    if d2G is None:
        return G, ginv, dG, gamma, None
    # d_p g^{kl} = -g^{ka} (d_p g_ab) g^{bl}, contracted over a, then b:
    # two O(m^4) steps per point instead of one O(m^5) loop
    dginv = np.einsum("...ka,...abp->...kbp", ginv, dG)
    dginv = -np.einsum("...kbp,...bl->...klp", dginv, ginv)
    dC = (
        np.einsum("...jlip->...lijp", d2G)
        + np.einsum("...iljp->...lijp", d2G)
        - np.einsum("...ijlp->...lijp", d2G)
    )
    dgamma = 0.5 * (
        np.einsum("...klp,...lij->...kijp", dginv, C)
        + np.einsum("...kl,...lijp->...kijp", ginv, dC)
    )
    return G, ginv, dG, gamma, dgamma


def christoffel_at(g: ChartedMetric, x) -> np.ndarray:
    """Levi-Civita symbols ``gamma[..., k, i, j]`` from first jets of the
    components; symmetric in (i, j) exactly."""
    return _connection_at(g, x, 1)[3]


def christoffel_and_derivative_at(g: ChartedMetric, x):
    """``(gamma, dgamma)`` with ``dgamma[..., k, i, j, p] = d_p Gamma^k_ij``
    computed from exact second jets (needed by curvature and the
    fiber-contracted blocks of complete lifts)."""
    return _connection_at(g, x, 2)[3:]


def _riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    # d_i Gamma^k_{jh} lives at dgamma[..., k, j, h, i]
    P = np.einsum("...kjhi->...kijh", dgamma)
    Q = np.einsum("...kil,...ljh->...kijh", gamma, gamma)
    return (P - np.swapaxes(P, -3, -2)) + (Q - np.swapaxes(Q, -3, -2))


def curvature_at(g: ChartedMetric, x) -> np.ndarray:
    """Curvature tensor ``riem[..., k, i, j, h]`` = R^k_{ijh}; antisymmetry
    in (i, j) is exact."""
    return _riemann(*christoffel_and_derivative_at(g, x))
