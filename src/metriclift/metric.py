"""Charted pseudo-Riemannian metrics and their pointwise tensors.

A :class:`ChartedMetric` is a symmetric matrix of expression trees over
named coordinates together with a sampling box.  All derived quantities
(inverse, Christoffel symbols, curvature) are computed pointwise from
exact jets of the components; the functions below accept a single point
``(m,)`` or a batch ``(N, m)`` and return correspondingly shaped arrays.

Index conventions: 0-based internally, 1-based in reports and any error
text.  Christoffel symbols are stored as ``gamma[..., k, i, j]`` and the
curvature tensor as ``riem[..., k, i, j, h]`` with

    R(e_i, e_j) e_h = R^k_{ijh} e_k ,

antisymmetric in (i, j) bit-for-bit.
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


class MetricDegenerate(Exception):
    """|det g| fell at or below the degeneracy threshold at a point."""

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
    for i in range(m):
        for j in range(i, m):
            out[i][j] = out[j][i] = entries[i][j]
    return tuple(tuple(row) for row in out)


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
    upper = [(i, j) for i in range(m) for j in range(i, m)]
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
    """Component matrix at ``x``; symmetric by construction."""
    pt = _point_env(g, x)
    m = g.dim
    env = [pt[..., i] for i in range(m)]
    memo: dict = {}
    out = np.empty(pt.shape[:-1] + (m, m))
    for i in range(m):
        for j in range(i, m):
            v = ex.evaluate(g.components[i][j], env, memo)
            out[..., i, j] = v
            out[..., j, i] = out[..., i, j]
    return out


def metric_jets_at(g: ChartedMetric, x, order: int = 2):
    """Values and derivatives of all components in one pass.

    Returns ``(G, dG, d2G)`` with ``dG[..., i, j, k] = d_k g_ij`` and
    ``d2G[..., i, j, k, l] = d_k d_l g_ij`` (``d2G`` is ``None`` for
    ``order=1``).  Shared subtrees across components are evaluated once.
    Each component is differentiated only in the coordinates it depends
    on (its jet's support); its other derivatives stay exact zeros.

    The arrays are stored points-last: for a batch ``x`` of shape
    ``(N, m)``, ``G``, ``dG`` and ``d2G`` are ``(N, ...)`` views of
    C-contiguous ``(m, m, N)``, ``(m, m, m, N)`` and ``(m, m, m, m, N)``
    arrays, so each component's value and derivatives are written as
    contiguous rows, and ``np.moveaxis(A, 0, -1)`` recovers the
    contiguous array.  A point ``(m,)`` or any other batch shape is
    evaluated as its flattened list of points.
    """
    pt = _point_env(g, x)
    m = g.dim
    base = pt.shape[:-1]
    flat = pt.reshape(-1, m)
    n = flat.shape[0]
    env = [Jet2.coordinate(flat[:, i], i, order) for i in range(m)]
    memo: dict = {}
    G = np.empty((m, m, n))
    dG = np.zeros((m, m, m, n))
    d2G = np.zeros((m, m, m, m, n)) if order >= 2 else None
    for i in range(m):
        for j in range(i, m):
            out = ex.evaluate(g.components[i][j], env, memo)
            if not isinstance(out, Jet2):  # a constant entry
                G[i, j] = G[j, i] = out
                continue
            G[i, j] = G[j, i] = out.value
            s = np.array(out.support)
            dG[i, j, s] = dG[j, i, s] = out.grad.T
            if order >= 2:
                hess = out.hess.transpose(1, 2, 0)
                d2G[i, j, s[:, None], s] = d2G[j, i, s[:, None], s] = hess

    def points_first(a):
        if a is None:
            return None
        return a.transpose(-1, *range(a.ndim - 1)).reshape(base + a.shape[:-1])

    return points_first(G), points_first(dG), points_first(d2G)


def _check_nondegenerate(G: np.ndarray, x) -> None:
    """Raise :class:`MetricDegenerate` at the first point of ``x`` where
    |det G| <= 1e-12."""
    det = np.linalg.det(G)
    bad = np.abs(det) <= DEGENERACY_EPS
    if np.any(bad):
        pt = np.asarray(x, dtype=float)
        if pt.ndim > 1:
            idx = int(np.argmax(np.asarray(bad).ravel()))
            flat_pts = pt.reshape(-1, pt.shape[-1])
            raise MetricDegenerate(flat_pts[idx], np.asarray(det).ravel()[idx])
        raise MetricDegenerate(pt, float(det))


def _checked_inverse(G: np.ndarray, x) -> np.ndarray:
    _check_nondegenerate(G, x)
    return np.linalg.inv(G)


def inverse_metric_at(g: ChartedMetric, x) -> np.ndarray:
    """Matrix inverse of the components at ``x`` (LU with partial
    pivoting); raises :class:`MetricDegenerate` when |det| <= 1e-12."""
    return _checked_inverse(metric_at(g, x), x)


def _gamma_from_inverse(ginv, dG):
    """``(gamma, C)`` from g's inverse and first jets, with C the
    Christoffel symbols of the first kind."""
    # C[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    di_gjl = np.einsum("...jli->...lij", dG)
    dj_gil = np.einsum("...ilj->...lij", dG)
    dl_gij = np.einsum("...ijl->...lij", dG)
    C = di_gjl + dj_gil - dl_gij
    gamma = 0.5 * np.einsum("...kl,...lij->...kij", ginv, C)
    return gamma, C


def christoffel_at(g: ChartedMetric, x) -> np.ndarray:
    """Levi-Civita symbols ``gamma[..., k, i, j]`` from first jets of the
    components; symmetric in (i, j) exactly."""
    G, dG, _ = metric_jets_at(g, x, order=1)
    gamma, _ = _gamma_from_inverse(_checked_inverse(G, x), dG)
    return gamma


def _connection_from_inverse(ginv, dG, d2G):
    """``(gamma, dgamma)`` from g's inverse and second jets of the
    components; the caller has screened G for degeneracy."""
    gamma, C = _gamma_from_inverse(ginv, dG)
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
    return gamma, dgamma


def christoffel_and_derivative_at(g: ChartedMetric, x):
    """``(gamma, dgamma)`` with ``dgamma[..., k, i, j, p] = d_p Gamma^k_ij``
    computed from exact second jets (needed by curvature and the
    fiber-contracted blocks of complete lifts)."""
    G, dG, d2G = metric_jets_at(g, x, order=2)
    return _connection_from_inverse(_checked_inverse(G, x), dG, d2G)


def _riemann(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    # d_i Gamma^k_{jh} lives at dgamma[..., k, j, h, i]
    P = np.einsum("...kjhi->...kijh", dgamma)
    Q = np.einsum("...kil,...ljh->...kijh", gamma, gamma)
    return (P - np.swapaxes(P, -3, -2)) + (Q - np.swapaxes(Q, -3, -2))


def curvature_at(g: ChartedMetric, x) -> np.ndarray:
    """Curvature tensor ``riem[..., k, i, j, h]`` = R^k_{ijh}; antisymmetry
    in (i, j) is exact."""
    return _riemann(*christoffel_and_derivative_at(g, x))
