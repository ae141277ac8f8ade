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
  are formed at one bundle point, from ``metric._connection_at``.
* ``lift_to_chart``: an honest :class:`ChartedMetric` on the induced
  2m-dimensional chart (x, fiber), assembled symbolically from the
  component trees and their derivatives, with no simplification beyond
  0/1 folding; the Sasaki kinds also use Christoffel trees built from the
  cofactor inverse, a memoized Laplace expansion that builds each minor
  once.  Every sum is built from its terms with no zero factor only, so
  the cost follows the base chart's zero pattern.  The result feeds the
  wholly generic pipeline and serves as an independent oracle for the
  block formulas.

Conventions.  On TM the fiber coordinates are vector components u^i and
the adapted frame is ``delta_i = d_i - u^h Gamma^k_{hi} d/du^k`` (sum
over the fiber index k).  On T*M the fiber coordinates are covector
components p_i and ``delta_i = d_i + p_a Gamma^a_{ki} d/dp_k``.  The
complete and horizontal lift metrics coincide as metrics (their
coordinate matrices agree by metric compatibility), so ``lift_to_chart``
builds both from the complete-lift assembly; they are kept as separate
kinds because their block presentations, frames and standard
harmonicity conditions differ.

The lifted-identity-map harmonicity conditions are trace conditions on
block differences.  ``lifted_tension_at`` evaluates them exactly as the
standard block computation states them, including the convention that
the horizontal-lift condition is contracted against the Sasaki-type
inverse diag(g^-1, g^-1); contracting against the horizontal metric's
own inverse yields exactly twice the same quantity (both vanish
together).

In closed form these traces are the base tension tau at the base point:
(tau, 0) for sasaki-tm, horizontal-tm and sasaki-ctm, (0, 2 tau) for
complete-tm.  Every off-diagonal block meets a zero block of the
contracting inverse, and each curvature block is traced with g^{ij} over
an index pair in which R is antisymmetric (Yano--Ishihara, *Tangent and
Cotangent Bundles*, 1973).  ``check_lift_conditions`` therefore computes
tau from the sampler's first jets and places it by kind; the block
formulas serve as the oracle of that reduction.
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
    _connection_at,
    _riemann,
    christoffel_and_derivative_at,
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


# Fiber box of every bundle chart, one interval per fiber coordinate.
FIBER_INTERVAL = (-1.0, 1.0)


def _bundle_box(base_box, m: int):
    """Sampling box of the bundle chart: base box times ``m`` fiber intervals."""
    return tuple(base_box) + (FIBER_INTERVAL,) * m


def _lift_blocks(kind: LiftKind, g: ChartedMetric, x, w):
    """Lift blocks of ``g`` at bundle points with base part ``x`` and
    fiber part ``w``, both ``(..., m)``, from g's connection at ``x``
    (:func:`metric._connection_at`): ``(metric, inverse, gamma_base,
    gamma_fiber)`` shaped ``(..., 2m, 2m)`` and ``(..., m, 2m, 2m)``."""
    if x.shape[-1] != g.dim:
        raise ValueError("fiber point dimension does not match the chart")
    m = g.dim
    G, ginv, dG, gamma, dgamma = _connection_at(g, x, 2)
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
        # (1,2) entry (i,j): (1/2) p_n g^{kt} g^{js} R^n_{tis}, contracted
        # pairwise -- p first, then g^{kt}, then g^{js} -- so each step is
        # O(m^4) per point instead of one O(m^6) loop over n, k, t, j, s, i
        pr = np.einsum("...n,...ntis->...tis", w, riem)
        pr = np.einsum("...kt,...tis->...kis", ginv, pr)
        b12 = 0.5 * np.einsum("...kis,...js->...kij", pr, ginv)
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
    blocks = _lift_blocks(kind, g, q.base, q.fiber)
    return LiftBlocks(kind, kind.frame, *blocks)


def lifted_tension_at(
    g: ChartedMetric,
    ghat: ChartedMetric,
    kind: LiftKind,
    q: FiberPoint,
) -> LiftedTension:
    """Trace residuals tr(inv . (hat-blocks - blocks)) of the lifted
    identity map, per output family.

    Both metrics' blocks are formed at the same bundle point; the
    contraction uses the lift of ``g``.  For the horizontal kind the
    standard condition contracts against the Sasaki-type inverse
    diag(g^-1, g^-1); the horizontal metric's own inverse would give
    twice the value, with the same zero set.
    """
    if g.coords != ghat.coords:
        raise ValueError("lifted pair must share the chart")
    m = g.dim
    _, inverse, gb, gf = _lift_blocks(kind, g, q.base, q.fiber)
    _, _, gb_hat, gf_hat = _lift_blocks(kind, ghat, q.base, q.fiber)
    contract = inverse
    if kind is LiftKind.HORIZONTAL_TM:
        # the Sasaki-type inverse diag(g^-1, g^-1)
        contract = np.zeros_like(inverse)
        contract[:m, :m] = contract[m:, m:] = inverse[:m, m:]
    return LiftedTension(
        base=np.einsum("ab,kba->k", contract, gb_hat - gb),
        fiber=np.einsum("ab,kba->k", contract, gf_hat - gf),
    )


# ---------------------------------------------------------------------------
# symbolic assembly of induced-coordinate lifted charts


def _is_zero(e: ExprAst) -> bool:
    """Whether ``e`` is a zero constant (``0``, ``-0``, ``-(0.0)``): a
    factor by which :func:`exprlang.mul` folds a product to ``0``, which
    :func:`exprlang.add` then drops from a sum.  The assembly below skips
    such terms before building them."""
    return ex._num(e) == 0.0


def _nonzero(entries) -> list[int]:
    """Indices of the entries that are not zero constants, in order."""
    return [n for n, e in enumerate(entries) if not _is_zero(e)]


def _symbolic_inverse(components):
    """Adjugate-over-determinant inverse of a symmetric AST matrix; the
    (k, l) and (l, k) entries share one tree.  Each minor is expanded along
    its first row once, over that row's nonzero entries, and shared by the
    determinant and every cofactor that reaches it: at most about m^2 2^m
    minors, not m! expansions, and fewer where entries are zero."""
    m = len(components)
    memo: dict = {}

    def det(rows: tuple, cols: tuple) -> ExprAst:
        # the minor on these row and column indices; the empty one is 1
        if (rows, cols) not in memo:
            acc = ex.const(0.0 if rows else 1.0)
            for n, j in enumerate(cols):
                e = components[rows[0]][j]
                if _is_zero(e):
                    continue
                term = ex.mul(e, det(rows[1:], cols[:n] + cols[n + 1 :]))
                acc = ex.add(acc, term) if n % 2 == 0 else ex.sub(acc, term)
            memo[rows, cols] = acc
        return memo[rows, cols]

    full = tuple(range(m))
    inv = [[None] * m for _ in range(m)]
    for k in range(m):
        for l in range(k, m):
            cof = det(full[:l] + full[l + 1 :], full[:k] + full[k + 1 :])
            if (k + l) % 2 == 1:
                cof = ex.neg(cof)
            inv[k][l] = inv[l][k] = ex.div(cof, det(full, full))
    return inv


def _symbolic_christoffels(g: ChartedMetric, dmemo: dict):
    """Christoffel symbol trees Gamma[k][i][j] over the base chart, with
    (i, j) entries shared, plus the cofactor inverse trees; ``dmemo`` is
    the memo of :func:`exprlang.differentiate`.  Gamma^k_{ij} sums
    g^{kl} (d_j g_{il} + d_i g_{jl} - d_l g_{ij}) / 2 over the l with
    g^{kl} nonzero only, so a sparse inverse costs its nonzero entries."""
    m = g.dim
    comp = g.components
    dg = [[[None] * m for _ in range(m)] for _ in range(m)]  # [i][j][l]
    for i in range(m):
        for j in range(i, m):
            for l in range(m):
                d = ex.differentiate(comp[i][j], l, dmemo)
                dg[i][j][l] = dg[j][i][l] = d
    ginv = _symbolic_inverse(comp)
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]  # [k][i][j]
    for k in range(m):
        row = _nonzero(ginv[k])
        for i in range(m):
            for j in range(i, m):
                acc = ex.const(0.0)
                for l in row:
                    combo = ex.sub(ex.add(dg[j][l][i], dg[i][l][j]), dg[i][j][l])
                    acc = ex.add(acc, ex.mul(ginv[k][l], combo))
                gamma[k][i][j] = gamma[k][j][i] = ex.mul(ex.const(0.5), acc)
    return gamma, ginv


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


def _fiber_sum(w, terms) -> ExprAst:
    """sum_h w[h] terms[h] over the nonzero terms."""
    return _sum(ex.mul(w[h], terms[h]) for h in _nonzero(terms))


def lift_to_chart(g: ChartedMetric, kind: LiftKind) -> ChartedMetric:
    """Lifted metric as a charted metric on the induced 2m-dimensional
    chart, assembled symbolically (coframe products over the component
    trees).  The horizontal lift takes the complete-lift assembly, as the
    two coincide for the Levi-Civita connection; only the Sasaki kinds use
    Christoffel trees, built from the cofactor inverse.  Every shared node
    of the components is differentiated once, so the result is linear in
    the size of the base chart's DAG.

    Each lifted entry is a sum of products built from its terms with no
    zero-constant factor (:func:`_is_zero`), in the order of the full index
    loops; the others would fold to ``0`` and drop out of the sum, so the
    trees are those the full loops build.  The zero pattern of g^{-1}, of
    the Christoffel trees and of A is read once per chart, so the cost of
    a Sasaki lift follows its nonzero terms: O(m^4) products for a dense
    base, far fewer for a sparse one."""
    m = g.dim
    fiber = _fiber_names(g.coords, kind.cotangent)
    coords = g.coords + fiber
    w = [ex.sym(m + h, fiber[h]) for h in range(m)]
    comp = g.components
    zero = ex.const(0.0)
    dmemo: dict = {}

    entries = [[zero] * (2 * m) for _ in range(2 * m)]

    if kind in (LiftKind.COMPLETE_TM, LiftKind.HORIZONTAL_TM):
        # g^H = g^C: the Levi-Civita connection has nabla g = 0
        for i in range(m):
            for j in range(i, m):
                d = [ex.differentiate(comp[i][j], h, dmemo) for h in range(m)]
                entries[i][j] = _fiber_sum(w, d)
            for j in range(m):
                entries[i][m + j] = comp[i][j]
    elif kind in (LiftKind.SASAKI_TM, LiftKind.SASAKI_CTM):
        # F^T diag(g, H) F with F = [[I, 0], [sA, I]]: H = g and s = 1 on
        # TM, H = g^-1 and s = -1 on T*M; s shows only off the diagonal
        gamma, ginv = _symbolic_christoffels(g, dmemo)
        if kind.cotangent:
            H = ginv
            # A_{ki} = p_a Gamma^a_{ki} is symmetric: one tree per pair
            A = [[None] * m for _ in range(m)]
            for k in range(m):
                for i in range(k, m):
                    A[k][i] = A[i][k] = _fiber_sum(w, [gamma[a][k][i] for a in range(m)])
        else:
            H = comp  # A^k_i = u^h Gamma^k_{hi}
            A = [[_fiber_sum(w, gamma[k][i]) for i in range(m)] for k in range(m)]
        # the zero pattern: the nonzero k of each column of A and l of each
        # row of H, so each sum runs over the terms with no zero factor
        a_cols = [_nonzero([A[k][i] for k in range(m)]) for i in range(m)]
        a_sets = [set(c) for c in a_cols]
        h_rows = [_nonzero(row) for row in H]
        for i in range(m):
            for j in range(i, m):
                quad = _sum(
                    ex.mul(ex.mul(H[k][l], A[k][i]), A[l][j])
                    for k in a_cols[i]
                    for l in h_rows[k]
                    if l in a_sets[j]
                )
                entries[i][j] = ex.add(comp[i][j], quad)
                entries[m + i][m + j] = H[i][j]
            for j in range(m):
                off = _sum(
                    ex.mul(A[k][i], H[k][j]) for k in a_cols[i] if not _is_zero(H[k][j])
                )
                entries[i][m + j] = ex.neg(off) if kind.cotangent else off
    else:
        raise ValueError(f"unknown lift kind: {kind!r}")

    domain = _bundle_box(g.domain, m)
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


def fiber_lattice(g: ChartedMetric, count: int, seed: int) -> list[FiberPoint]:
    """Deterministic fiber points: lattice over base box x fiber box."""
    m = g.dim
    pts = lattice_points(_bundle_box(g.domain, m), count, seed)
    return [FiberPoint(p[:m], p[m:]) for p in pts]


def check_lift_conditions(
    g: ChartedMetric,
    ghat: ChartedMetric,
    kind: LiftKind,
    samples: int = 64,
    tol: float = 1e-9,
    seed: int = 42,
):
    """Sampled verdict on the lifted-harmonicity trace conditions.

    Evaluates the trace residuals of ``lifted_tension_at`` on a
    deterministic lattice of bundle points (shared base box x fiber box)
    and reports the worst residual over both output families;
    ``per_component_max`` lists the m base components followed by the m
    fiber components.  Bundle points whose base projection makes either
    metric near-degenerate are skipped and replaced, up to 10x
    oversampling.  The residuals come in closed form (see the module
    docstring): the base tension tau from the sampler's first jets at the
    base projections, placed as (tau, 0), or (0, 2 tau) for complete-tm.
    """
    if not isinstance(kind, LiftKind):
        raise ValueError(f"unknown lift kind: {kind!r}")
    m = g.dim
    complete = kind is LiftKind.COMPLETE_TM

    def residual(tau):
        zero = np.zeros_like(tau)
        return np.concatenate((zero, 2.0 * tau) if complete else (tau, zero), axis=-1)

    domain = _bundle_box(shared_domain(g, ghat), m)
    return _sampled_report(g, ghat, domain, residual, samples, tol, seed)
