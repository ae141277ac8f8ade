"""Lift metrics on tangent and cotangent bundles.

Four lifted metrics of a base metric g on an m-dimensional chart are
supported, each in two presentations:

* ``lift_blocks_at``: 2x2 block matrices (metric, inverse, and the two
  families of Christoffel matrices, indexed by base and fiber output
  directions) in the frame in which those blocks take their standard
  closed form.  For the Sasaki lift on TM, the horizontal lift on TM and
  the Sasaki lift on T*M that frame is the adapted frame
  ``{delta_i, d/dfiber^i}`` built from the base connection; for the
  complete lift it is the induced coordinate frame itself.  The blocks
  are evaluated batched over bundle points, from one second-jet pass of
  the base metric per batch; ``lift_blocks_at`` and ``lifted_tension_at``
  are its single-point views, and ``check_lift_conditions`` runs it on
  fixed-size slices of the sampled points.
* ``lift_to_chart``: an honest :class:`ChartedMetric` on the induced
  2m-dimensional chart (x, fiber), assembled symbolically from the
  component trees, their derivatives and the cofactor inverse, with no
  simplification beyond 0/1 folding.  The result feeds the wholly
  generic pipeline and serves as an independent oracle for the block
  formulas.

Conventions.  On TM the fiber coordinates are vector components u^i and
the adapted frame is ``delta_i = d_i - u^h Gamma^k_{hi} d/du^k`` (sum
over the fiber index k).  On T*M the fiber coordinates are covector
components p_i and ``delta_i = d_i + p_a Gamma^a_{ki} d/dp_k``.  The
complete and horizontal lift metrics coincide as metrics (their
coordinate matrices agree by metric compatibility); they are kept as
separate kinds because their block presentations, frames and standard
harmonicity conditions differ.

The lifted-identity-map harmonicity conditions are trace conditions on
block differences.  ``lifted_tension_at`` evaluates them exactly as the
standard block computation states them, including the convention that
the horizontal-lift condition is contracted against the Sasaki-type
inverse; contracting against the horizontal metric's own inverse yields
exactly twice the same quantity (both vanish together), and is available
via ``horizontal_contraction="own-inverse"``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

import numpy as np

from . import exprlang as ex
from .exprlang import ExprAst
from .harmonic import _sampled_report, lattice_points, shared_domain
from .metric import (
    ChartedMetric,
    _connection_from_jets,
    _riemann,
    christoffel_and_derivative_at,
    metric_jets_at,
    mirror_components,
)

__all__ = [
    "LiftKind",
    "FiberPoint",
    "LiftBlocks",
    "LiftedTension",
    "FrameChange",
    "lift_blocks_at",
    "lifted_tension_at",
    "lift_to_chart",
    "adapted_frame_at",
    "connection_in_frame",
    "components_in_adapted_frame",
    "fiber_lattice",
    "check_lift_conditions",
]

MAX_LIFT_TREE_SIZE = 2_000_000
# Bundle points per batched block evaluation in ``check_lift_conditions``:
# the (N, m, 2m, 2m) block arrays of one unbounded 64-point batch raised
# peak memory by a fifth; small slices keep it at the per-point level.
LIFT_SLICE_POINTS = 8


class LiftKind(enum.Enum):
    SASAKI_TM = "sasaki-tm"
    HORIZONTAL_TM = "horizontal-tm"
    COMPLETE_TM = "complete-tm"
    SASAKI_CTM = "sasaki-ctm"

    @property
    def cotangent(self) -> bool:
        return self is LiftKind.SASAKI_CTM

    @property
    def frame(self) -> str:
        return "induced" if self is LiftKind.COMPLETE_TM else "adapted"


@dataclass(frozen=True)
class FiberPoint:
    """Point of the bundle chart: base coordinates plus fiber components
    (vector components u for TM kinds, covector components p for T*M)."""

    base: np.ndarray
    fiber: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float))
        object.__setattr__(self, "fiber", np.asarray(self.fiber, dtype=float))
        if self.base.shape != self.fiber.shape or self.base.ndim != 1:
            raise ValueError("base and fiber must be equal-length vectors")

    def chart_point(self) -> np.ndarray:
        return np.concatenate([self.base, self.fiber])


@dataclass(frozen=True)
class LiftedTension:
    """Trace residuals of the lifted identity map, split by output
    direction family (base directions / fiber directions)."""

    base: np.ndarray
    fiber: np.ndarray


@dataclass(frozen=True)
class LiftBlocks:
    kind: LiftKind
    frame: str
    metric: np.ndarray  # (2m, 2m)
    inverse: np.ndarray  # (2m, 2m)
    gamma_base: np.ndarray  # (m, 2m, 2m), output along base directions
    gamma_fiber: np.ndarray  # (m, 2m, 2m), output along fiber directions

    @property
    def dim(self) -> int:
        return self.gamma_base.shape[0]


def _bundle_box(base_box, m: int, fiber_interval):
    """Sampling box of the bundle chart: base box times ``m`` fiber intervals."""
    lo, hi = fiber_interval
    return tuple(base_box) + tuple((float(lo), float(hi)) for _ in range(m))


def _lift_blocks(g: ChartedMetric, kind: LiftKind, x, w):
    """Batched lift blocks at bundle points ``(x, w)`` of shape ``(..., m)``:
    ``(metric, inverse, gamma_base, gamma_fiber)`` shaped ``(..., 2m, 2m)``
    and ``(..., m, 2m, 2m)``, from one second-jet pass of ``g``."""
    m = g.dim
    if x.shape[-1] != m:
        raise ValueError("fiber point dimension does not match the chart")
    G, dG, d2G = metric_jets_at(g, x, order=2)
    gamma, dgamma, ginv = _connection_from_jets(G, dG, d2G, x)
    batch = G.shape[:-2]
    metric = np.zeros(batch + (2 * m, 2 * m))
    inverse = np.zeros_like(metric)
    gb = np.zeros(batch + (m, 2 * m, 2 * m))
    gf = np.zeros_like(gb)
    gb[..., :m, :m] = gamma

    if kind is LiftKind.SASAKI_TM:
        riem = _riemann(gamma, dgamma)
        metric[..., :m, :m] = metric[..., m:, m:] = G
        inverse[..., :m, :m] = inverse[..., m:, m:] = ginv
        # (1,2) entry (i,j): (1/2) R^k_{hji} u^h ; (2,1) its transpose
        b12 = 0.5 * np.einsum("...h,...khji->...kij", w, riem)
        gb[..., :m, m:] = b12
        gb[..., m:, :m] = np.swapaxes(b12, -1, -2)
        gf[..., :m, :m] = -0.5 * np.einsum("...h,...kijh->...kij", w, riem)
        gf[..., :m, m:] = gf[..., m:, :m] = gamma
    elif kind is LiftKind.HORIZONTAL_TM:
        metric[..., :m, m:] = metric[..., m:, :m] = G
        inverse[..., :m, m:] = inverse[..., m:, :m] = ginv
        gb[..., :m, m:] = gb[..., m:, :m] = gamma
    elif kind is LiftKind.COMPLETE_TM:
        ul = np.einsum("...h,...ijh->...ij", w, dG)
        metric[..., :m, :m] = ul
        metric[..., :m, m:] = metric[..., m:, :m] = G
        inverse[..., :m, m:] = inverse[..., m:, :m] = ginv
        inverse[..., m:, m:] = -ginv @ ul @ ginv  # u^h d_h g^{ij}
        gf[..., :m, :m] = np.einsum("...h,...kijh->...kij", w, dgamma)
        gf[..., :m, m:] = gf[..., m:, :m] = gamma
    elif kind is LiftKind.SASAKI_CTM:
        riem = _riemann(gamma, dgamma)
        metric[..., :m, :m] = inverse[..., m:, m:] = G
        metric[..., m:, m:] = inverse[..., :m, :m] = ginv
        # (1,2) entry (i,j): (1/2) p_n g^{kt} g^{js} R^n_{tis}
        b12 = 0.5 * np.einsum("...n,...kt,...js,...ntis->...kij", w, ginv, ginv, riem)
        gb[..., :m, m:] = b12
        gb[..., m:, :m] = np.swapaxes(b12, -1, -2)
        # fiber family: [[ (1/2) p_n R^n_{ijk}, -Gamma^j_{ik}], [-Gamma^i_{jk}, 0]]
        gf[..., :m, :m] = 0.5 * np.einsum("...n,...nijk->...kij", w, riem)
        f12 = -np.einsum("...jik->...kij", gamma)
        gf[..., :m, m:] = f12
        gf[..., m:, :m] = np.swapaxes(f12, -1, -2)
    else:
        raise ValueError(f"unknown lift kind: {kind!r}")
    return metric, inverse, gb, gf


def lift_blocks_at(g: ChartedMetric, kind: LiftKind, q: FiberPoint) -> LiftBlocks:
    """Metric, inverse and Christoffel blocks of the lifted metric at a
    bundle point, in the frame reported by ``kind.frame``."""
    return LiftBlocks(kind, kind.frame, *_lift_blocks(g, kind, q.base, q.fiber))


def _lifted_tension(g, ghat, kind, x, w, horizontal_contraction="sasaki-inverse"):
    """Batched ``(base, fiber)`` trace residuals at bundle points ``(x, w)``."""
    m = g.dim
    _, inverse, gb, gf = _lift_blocks(g, kind, x, w)
    _, _, gb_hat, gf_hat = _lift_blocks(ghat, kind, x, w)
    contract = inverse
    if kind is LiftKind.HORIZONTAL_TM:
        if horizontal_contraction == "sasaki-inverse":
            contract = np.zeros_like(inverse)
            contract[..., :m, :m] = contract[..., m:, m:] = inverse[..., :m, m:]
        elif horizontal_contraction != "own-inverse":
            raise ValueError(
                "horizontal_contraction must be 'sasaki-inverse' or 'own-inverse'"
            )
    return (
        np.einsum("...ab,...kba->...k", contract, gb_hat - gb),
        np.einsum("...ab,...kba->...k", contract, gf_hat - gf),
    )


def lifted_tension_at(
    g: ChartedMetric,
    ghat: ChartedMetric,
    kind: LiftKind,
    q: FiberPoint,
    horizontal_contraction: str = "sasaki-inverse",
) -> LiftedTension:
    """Trace residuals tr(inv . (hat-blocks - blocks)) of the lifted
    identity map, per output family.

    Both metrics' blocks are formed at the same bundle point; the
    contraction uses the lift of ``g``.  For the horizontal kind the
    standard condition contracts against the Sasaki-type inverse
    diag(g^-1, g^-1); ``horizontal_contraction="own-inverse"`` contracts
    against the horizontal metric's own inverse instead, which doubles
    the value and has the same zero set.
    """
    if g.coords != ghat.coords:
        raise ValueError("lifted pair must share the chart")
    base, fiber = _lifted_tension(
        g, ghat, kind, q.base, q.fiber, horizontal_contraction
    )
    return LiftedTension(base=base, fiber=fiber)


# ---------------------------------------------------------------------------
# symbolic assembly of induced-coordinate lifted charts


def _symbolic_det(rows) -> ExprAst:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ex.const(0.0)
    for j in range(n):
        e = rows[0][j]
        if isinstance(e, ex.Num) and e.value == 0.0:
            continue
        minor = [[r[jj] for jj in range(n) if jj != j] for r in rows[1:]]
        term = ex.mul(e, _symbolic_det(minor))
        acc = ex.add(acc, term) if j % 2 == 0 else ex.sub(acc, term)
    return acc


def _symbolic_inverse(components):
    """Adjugate-over-determinant inverse of a symmetric AST matrix; the
    (k, l) and (l, k) entries share one tree."""
    m = len(components)
    rows = [list(r) for r in components]
    det = _symbolic_det(rows)
    inv = [[None] * m for _ in range(m)]
    for k in range(m):
        for l in range(k, m):
            minor = [
                [rows[i][j] for j in range(m) if j != k]
                for i in range(m)
                if i != l
            ]
            cof = _symbolic_det(minor) if m > 1 else ex.const(1.0)
            if (k + l) % 2 == 1:
                cof = ex.neg(cof)
            inv[k][l] = inv[l][k] = ex.div(cof, det)
    return inv, det


def _symbolic_christoffels(g: ChartedMetric):
    """Christoffel symbol trees Gamma[k][i][j] over the base chart, with
    (i, j) entries shared, plus the component derivative trees."""
    m = g.dim
    comp = g.components
    dg = [[[None] * m for _ in range(m)] for _ in range(m)]  # [i][j][l]
    for i in range(m):
        for j in range(i, m):
            for l in range(m):
                d = ex.differentiate(comp[i][j], l)
                dg[i][j][l] = dg[j][i][l] = d
    ginv, _ = _symbolic_inverse(comp)
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]  # [k][i][j]
    for k in range(m):
        for i in range(m):
            for j in range(i, m):
                acc = ex.const(0.0)
                for l in range(m):
                    combo = ex.sub(ex.add(dg[j][l][i], dg[i][l][j]), dg[i][j][l])
                    acc = ex.add(acc, ex.mul(ginv[k][l], combo))
                gamma[k][i][j] = gamma[k][j][i] = ex.mul(ex.const(0.5), acc)
    return gamma, dg, ginv


_XN_RE = re.compile(r"^x(\d+)$")


def _fiber_names(coords, cotangent: bool) -> tuple[str, ...]:
    m = len(coords)
    matches = [_XN_RE.match(c) for c in coords]
    if all(mt is not None for mt in matches) and [
        int(mt.group(1)) for mt in matches
    ] == list(range(1, m + 1)):
        return tuple(f"x{i}" for i in range(m + 1, 2 * m + 1))
    prefix = "p" if cotangent else "u"
    names = tuple(f"{prefix}{i}" for i in range(1, m + 1))
    if set(names) & set(coords):
        raise ValueError(
            "cannot derive fiber coordinate names: base chart already uses "
            f"names of the form {prefix}<index>"
        )
    return names


def _sum(terms) -> ExprAst:
    acc = ex.const(0.0)
    for t in terms:
        acc = ex.add(acc, t)
    return acc


def lift_to_chart(
    g: ChartedMetric, kind: LiftKind, fiber_interval=(-1.0, 1.0)
) -> ChartedMetric:
    """Lifted metric as a charted metric on the induced 2m-dimensional
    chart, assembled symbolically (coframe products over the component
    trees; Christoffels from the cofactor inverse)."""
    m = g.dim
    fiber = _fiber_names(g.coords, kind.cotangent)
    coords = g.coords + fiber
    w = [ex.sym(m + h, fiber[h]) for h in range(m)]
    comp = g.components
    zero = ex.const(0.0)

    entries = [[zero] * (2 * m) for _ in range(2 * m)]

    if kind is LiftKind.COMPLETE_TM:
        for i in range(m):
            for j in range(i, m):
                entries[i][j] = _sum(
                    ex.mul(w[h], ex.differentiate(comp[i][j], h)) for h in range(m)
                )
            for j in range(m):
                entries[i][m + j] = comp[i][j]
    elif kind is LiftKind.HORIZONTAL_TM:
        gamma, _, _ = _symbolic_christoffels(g)
        A = [
            [_sum(ex.mul(w[h], gamma[k][h][i]) for h in range(m)) for i in range(m)]
            for k in range(m)
        ]
        for i in range(m):
            for j in range(i, m):
                entries[i][j] = _sum(
                    ex.add(
                        ex.mul(comp[i][k], A[k][j]), ex.mul(comp[j][k], A[k][i])
                    )
                    for k in range(m)
                )
            for j in range(m):
                entries[i][m + j] = comp[i][j]
    elif kind is LiftKind.SASAKI_TM:
        gamma, _, _ = _symbolic_christoffels(g)
        A = [
            [_sum(ex.mul(w[h], gamma[k][h][i]) for h in range(m)) for i in range(m)]
            for k in range(m)
        ]
        for i in range(m):
            for j in range(i, m):
                quad = _sum(
                    ex.mul(ex.mul(comp[k][l], A[k][i]), A[l][j])
                    for k in range(m)
                    for l in range(m)
                )
                entries[i][j] = ex.add(comp[i][j], quad)
                entries[m + i][m + j] = comp[i][j]
            for j in range(m):
                entries[i][m + j] = _sum(
                    ex.mul(A[k][i], comp[k][j]) for k in range(m)
                )
    elif kind is LiftKind.SASAKI_CTM:
        gamma, _, ginv = _symbolic_christoffels(g)
        B = [[None] * m for _ in range(m)]
        for k in range(m):
            for i in range(k, m):
                B[k][i] = B[i][k] = _sum(
                    ex.mul(w[a], gamma[a][k][i]) for a in range(m)
                )
        for i in range(m):
            for j in range(i, m):
                quad = _sum(
                    ex.mul(ex.mul(ginv[k][l], B[k][i]), B[l][j])
                    for k in range(m)
                    for l in range(m)
                )
                entries[i][j] = ex.add(comp[i][j], quad)
                entries[m + i][m + j] = ginv[i][j]
            for j in range(m):
                entries[i][m + j] = ex.neg(
                    _sum(ex.mul(B[k][i], ginv[k][j]) for k in range(m))
                )
    else:
        raise ValueError(f"unknown lift kind: {kind!r}")

    size_memo: dict = {}
    total = 0
    for i in range(2 * m):
        for j in range(i, 2 * m):
            total += ex.tree_size(entries[i][j], size_memo)
    if total > MAX_LIFT_TREE_SIZE:
        raise RuntimeError(
            f"assembled lifted components have {total} printed nodes, "
            f"over the {MAX_LIFT_TREE_SIZE} cap; this chart is too large "
            "to lift symbolically"
        )

    domain = _bundle_box(g.domain, m, fiber_interval)
    return ChartedMetric(coords, mirror_components(entries), domain)


# ---------------------------------------------------------------------------
# frame changes (oracle support)


@dataclass(frozen=True)
class FrameChange:
    """Adapted-frame vectors expressed in the induced coordinate frame:
    columns of ``T``; ``dT[P, A, Q] = d_Q T[P, A]`` over the chart."""

    T: np.ndarray
    dT: np.ndarray


def adapted_frame_at(g: ChartedMetric, kind: LiftKind, q: FiberPoint) -> FrameChange:
    m = g.dim
    x, w = q.base, q.fiber
    gamma, dgamma = christoffel_and_derivative_at(g, x)
    T = np.eye(2 * m)
    dT = np.zeros((2 * m, 2 * m, 2 * m))
    if kind is LiftKind.COMPLETE_TM:
        return FrameChange(T, dT)
    if kind.cotangent:
        # delta_i = d_i + p_a Gamma^a_{ki} d/dp_k
        B = np.einsum("a,aki->ki", w, gamma)
        T[m:, :m] = B
        dT[m:, :m, :m] = np.einsum("a,akiq->kiq", w, dgamma)
        dT[m:, :m, m:] = np.einsum("aki->kia", gamma)
    else:
        # delta_i = d_i - u^h Gamma^k_{hi} d/du^k
        A = np.einsum("h,khi->ki", w, gamma)
        T[m:, :m] = -A
        dT[m:, :m, :m] = -np.einsum("h,khiq->kiq", w, dgamma)
        dT[m:, :m, m:] = -np.einsum("khi->kih", gamma)
    return FrameChange(T, dT)


def connection_in_frame(gamma: np.ndarray, frame: FrameChange) -> np.ndarray:
    """Connection coefficients in the (generally anholonomic) frame:
    omega^C_{AB} from coordinate coefficients ``gamma[K, P, Q]``."""
    T, dT = frame.T, frame.dT
    term = np.einsum("pa,qb,kpq->kab", T, T, gamma) + np.einsum(
        "pa,kbp->kab", T, dT
    )
    return np.einsum("ck,kab->cab", np.linalg.inv(T), term)


def components_in_adapted_frame(frame: FrameChange, v: np.ndarray) -> np.ndarray:
    """Components of a chart-frame vector in the adapted frame."""
    return np.linalg.solve(frame.T, v)


def fiber_lattice(
    g: ChartedMetric, count: int, seed: int, fiber_interval=(-1.0, 1.0)
) -> list[FiberPoint]:
    """Deterministic fiber points: lattice over base box x fiber box."""
    m = g.dim
    pts = lattice_points(_bundle_box(g.domain, m, fiber_interval), count, seed)
    return [FiberPoint(p[:m], p[m:]) for p in pts]


def check_lift_conditions(
    g: ChartedMetric,
    ghat: ChartedMetric,
    kind: LiftKind,
    samples: int = 64,
    tol: float = 1e-9,
    seed: int = 42,
    fiber_interval=(-1.0, 1.0),
):
    """Sampled verdict on the lifted-harmonicity trace conditions.

    Evaluates the trace residuals of ``lifted_tension_at`` on a
    deterministic lattice of bundle points (shared base box x fiber box),
    batched ``LIFT_SLICE_POINTS`` points at a time, and reports the worst
    residual over both output families; ``per_component_max`` lists the
    m base components followed by the m fiber components.  Bundle points
    whose base projection makes either metric near-degenerate are
    skipped and replaced, up to 10x oversampling.
    """
    m = g.dim

    def residual(pts):
        out = np.empty((pts.shape[0], 2 * m))
        for s in range(0, pts.shape[0], LIFT_SLICE_POINTS):
            chunk = pts[s : s + LIFT_SLICE_POINTS]
            out[s : s + LIFT_SLICE_POINTS] = np.concatenate(
                _lifted_tension(g, ghat, kind, chunk[:, :m], chunk[:, m:]), axis=-1
            )
        return out

    domain = _bundle_box(shared_domain(g, ghat), m, fiber_interval)
    return _sampled_report(g, ghat, domain, residual, samples, tol, seed)
