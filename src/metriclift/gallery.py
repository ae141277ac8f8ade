"""Built-in parametrized metric families with closed-form harmonicity
predicates.

Three families are provided, each on coordinates x1..xm:

* Egorov: f(x^m) sum_{i<=m-2} (dx^i)^2 + 2 dx^{m-1} dx^m, f > 0.
  For a pair (f, fhat) the identity-map tension has at most one nonzero
  component, index m-1 (1-based), equal to (m-2)(f' - fhat')/(2f).
* Walker (4d, signature (2,2) normal form):
  2 dx1 dx4 + 2 dx2 dx3 + a (dx3)^2 + b (dx4)^2 + 2c dx3 dx4; det = 1.
  No closed-form predicate is hard-coded: the coordinate meaning of the
  standard two-condition criterion is identified empirically by the test
  suite (it comes out as d2(a) + d1(c) and d1(b) + d2(c) matching their
  hatted counterparts, two independent scalar constraints).
* Goedel-type: [dx1 + H(x2) dx3]^2 - (dx2)^2 - P^2(x2) (dx3)^2 - (dx4)^2,
  nondegenerate where P != 0.  A hatted pair is harmonic exactly when
  Hhat'(Hhat - H) - Phat Phat' + P P' vanishes; ``godel_condition``
  evaluates that expression as an independent predicate.

Family parameters are expression sources in the relevant coordinate;
positivity/nonvanishing requirements are checked on a sampled grid of
the declared interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang as ex
from .exprlang import EvalDomainError
from .metric import ChartedMetric, mirror_components

__all__ = [
    "EgorovSpec",
    "WalkerSpec",
    "GodelSpec",
    "egorov_metric",
    "egorov_residual_closed_form",
    "walker_metric",
    "godel_metric",
    "godel_condition",
]

_PROFILE_CHECK_SAMPLES = 257
# Largest Egorov dimension accepted: the family builds m x m entry lists,
# so an unchecked m from a manifest would allocate without bound.
MAX_EGOROV_DIM = 64


def coordinate_names(m: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(m))


def _profile_values(source: str, var: str, interval) -> np.ndarray:
    expr = ex.parse_expression(source, [var])
    lo, hi = interval
    ts = np.linspace(lo, hi, _PROFILE_CHECK_SAMPLES)
    return np.asarray(ex.evaluate(expr, [ts]))


def _profile_jet(source: str, var: str, t):
    """Value and first derivative of the profile ``source`` over ``var``
    at ``t``; a constant profile gives arrays too."""
    expr = ex.parse_expression(source, [var])
    jet = ex.eval_jet2(expr, np.asarray(t, dtype=float)[..., None])
    return jet.value, jet.grad[..., 0]


@dataclass(frozen=True)
class EgorovSpec:
    m: int
    f: str
    interval: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("Egorov family needs dimension m >= 3")
        if self.m > MAX_EGOROV_DIM:
            raise ValueError(f"Egorov family needs dimension m <= {MAX_EGOROV_DIM}")
        vals = _profile_values(self.f, f"x{self.m}", self.interval)
        if not np.all(vals > 0.0):
            raise ValueError(
                f"profile {self.f!r} must be strictly positive on {self.interval}"
            )


@dataclass(frozen=True)
class WalkerSpec:
    a: str
    b: str
    c: str
    box: tuple[tuple[float, float], ...] = (((-1.0, 1.0),) * 4)

    def __post_init__(self):
        if len(self.box) != 4:
            raise ValueError("Walker box must give four intervals")
        for source in (self.a, self.b, self.c):
            ex.parse_expression(source, coordinate_names(4))


@dataclass(frozen=True)
class GodelSpec:
    H: str
    P: str
    interval: tuple[float, float] = (0.1, 1.0)

    def __post_init__(self):
        vals = _profile_values(self.P, "x2", self.interval)
        if np.any(vals == 0.0):
            raise ValueError(
                f"profile {self.P!r} must be nonvanishing on {self.interval}"
            )


def egorov_metric(spec: EgorovSpec) -> ChartedMetric:
    m = spec.m
    coords = coordinate_names(m)
    f_ast = ex.parse_expression(spec.f, coords)
    zero, one = ex.const(0.0), ex.const(1.0)
    entries = [[zero] * m for _ in range(m)]
    for i in range(m - 2):
        entries[i][i] = f_ast
    entries[m - 2][m - 1] = one
    domain = tuple((-1.0, 1.0) for _ in range(m - 1)) + (spec.interval,)
    return ChartedMetric(coords, mirror_components(entries), domain)


def egorov_residual_closed_form(spec: EgorovSpec, fhat: str, x) -> float:
    """(m-2)(f' - fhat')/(2f) evaluated at the last coordinate of ``x``;
    the single possibly-nonzero tension component of an Egorov pair."""
    t = np.asarray(x, dtype=float)[..., spec.m - 1]
    var = f"x{spec.m}"
    f, df = _profile_jet(spec.f, var, t)
    fh, dfh = _profile_jet(fhat, var, t)
    if np.any(f <= 0.0) or np.any(fh <= 0.0):
        raise EvalDomainError("profile must stay positive", ex.parse_expression(spec.f, [var]))
    out = (spec.m - 2) * (df - dfh) / (2.0 * f)
    return float(out) if out.ndim == 0 else out


def walker_metric(spec: WalkerSpec) -> ChartedMetric:
    coords = coordinate_names(4)
    a = ex.parse_expression(spec.a, coords)
    b = ex.parse_expression(spec.b, coords)
    c = ex.parse_expression(spec.c, coords)
    zero, one = ex.const(0.0), ex.const(1.0)
    entries = [
        [zero, zero, zero, one],
        [zero, zero, one, zero],
        [zero, one, a, c],
        [one, zero, c, b],
    ]
    return ChartedMetric(coords, mirror_components(entries), tuple(spec.box))


def godel_metric(spec: GodelSpec) -> ChartedMetric:
    coords = coordinate_names(4)
    H = ex.parse_expression(spec.H, coords)
    P = ex.parse_expression(spec.P, coords)
    zero, one = ex.const(0.0), ex.const(1.0)
    minus_one = ex.const(-1.0)
    # [dx1 + H dx3]^2 - dx2^2 - P^2 dx3^2 - dx4^2
    g13 = H
    g33 = ex.sub(ex.mul(H, H), ex.mul(P, P))
    entries = [
        [one, zero, g13, zero],
        [zero, minus_one, zero, zero],
        [zero, zero, g33, zero],
        [zero, zero, zero, minus_one],
    ]
    domain = ((-1.0, 1.0), spec.interval, (-1.0, 1.0), (-1.0, 1.0))
    return ChartedMetric(coords, mirror_components(entries), domain)


def godel_condition(spec: GodelSpec, spec_hat: GodelSpec, x2) -> float:
    """Hhat'(Hhat - H) - Phat Phat' + P P' at radius ``x2``; the scalar
    obstruction to harmonicity of the hatted pair (zero iff harmonic)."""
    Hv, Hd = _profile_jet(spec.H, "x2", x2)
    Pv, Pd = _profile_jet(spec.P, "x2", x2)
    Hhv, Hhd = _profile_jet(spec_hat.H, "x2", x2)
    Phv, Phd = _profile_jet(spec_hat.P, "x2", x2)
    out = Hhd * (Hhv - Hv) - Phv * Phd + Pv * Pd
    return float(out) if np.ndim(out) == 0 else out
