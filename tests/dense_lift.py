"""Reference assembly of the lifted charts by full index loops.

Every Christoffel symbol sums over all l, A over all h (or a), the
quadratic block over all (k, l) and the off-diagonal block over all k, and
`ex.mul` / `ex.add` fold the zero terms away; the cofactor inverse skips
only zero `Num` entries.  `lifts.lift_to_chart` skips the zero terms
before building them, and `tests/test_sparse_lift.py` holds its printed
charts to the ones built here.
"""

from metriclift import exprlang as ex
from metriclift.exprlang import ExprAst
from metriclift.lifts import LiftKind, _bundle_box, _fiber_names
from metriclift.metric import ChartedMetric, mirror_components


def _symbolic_inverse(components):
    m = len(components)
    memo: dict = {}

    def det(rows: tuple, cols: tuple) -> ExprAst:
        if (rows, cols) not in memo:
            acc = ex.const(0.0 if rows else 1.0)
            for n, j in enumerate(cols):
                e = components[rows[0]][j]
                if isinstance(e, ex.Num) and e.value == 0.0:
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
        for i in range(m):
            for j in range(i, m):
                acc = ex.const(0.0)
                for l in range(m):
                    combo = ex.sub(ex.add(dg[j][l][i], dg[i][l][j]), dg[i][j][l])
                    acc = ex.add(acc, ex.mul(ginv[k][l], combo))
                gamma[k][i][j] = gamma[k][j][i] = ex.mul(ex.const(0.5), acc)
    return gamma, ginv


def _sum(terms) -> ExprAst:
    acc = ex.const(0.0)
    for t in terms:
        acc = ex.add(acc, t)
    return acc


def dense_lift_to_chart(g: ChartedMetric, kind: LiftKind) -> ChartedMetric:
    m = g.dim
    fiber = _fiber_names(g.coords, kind.cotangent)
    coords = g.coords + fiber
    w = [ex.sym(m + h, fiber[h]) for h in range(m)]
    comp = g.components
    zero = ex.const(0.0)
    dmemo: dict = {}

    entries = [[zero] * (2 * m) for _ in range(2 * m)]

    if kind in (LiftKind.COMPLETE_TM, LiftKind.HORIZONTAL_TM):
        for i in range(m):
            for j in range(i, m):
                entries[i][j] = _sum(
                    ex.mul(w[h], ex.differentiate(comp[i][j], h, dmemo)) for h in range(m)
                )
            for j in range(m):
                entries[i][m + j] = comp[i][j]
    else:
        gamma, ginv = _symbolic_christoffels(g, dmemo)
        if kind.cotangent:
            H = ginv
            A = [[None] * m for _ in range(m)]
            for k in range(m):
                for i in range(k, m):
                    A[k][i] = A[i][k] = _sum(
                        ex.mul(w[a], gamma[a][k][i]) for a in range(m)
                    )
        else:
            H = comp
            A = [
                [_sum(ex.mul(w[h], gamma[k][h][i]) for h in range(m)) for i in range(m)]
                for k in range(m)
            ]
        for i in range(m):
            for j in range(i, m):
                quad = _sum(
                    ex.mul(ex.mul(H[k][l], A[k][i]), A[l][j])
                    for k in range(m)
                    for l in range(m)
                )
                entries[i][j] = ex.add(comp[i][j], quad)
                entries[m + i][m + j] = H[i][j]
            for j in range(m):
                off = _sum(ex.mul(A[k][i], H[k][j]) for k in range(m))
                entries[i][m + j] = ex.neg(off) if kind.cotangent else off

    return ChartedMetric(coords, mirror_components(entries), _bundle_box(g.domain, m))
