import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from metriclift import (
    EgorovSpec,
    GodelSpec,
    WalkerSpec,
    egorov_metric,
    godel_metric,
    walker_metric,
)
from metriclift.harmonic import lattice_points
from metriclift.metric import ChartedMetric, metric_at

# One profile for every property test, each keeping its own max_examples:
# no deadline (an example may lift or check a whole chart), the same
# examples on every run, and no example database.
settings.register_profile("metriclift", deadline=None, derandomize=True, database=None)
settings.load_profile("metriclift")

# Harmonic pairs used by the lift-equivalence suites: 6 Egorov, 3 Goedel,
# 3 Walker.  Every pair has identically vanishing identity-map tension.
HARMONIC_PAIRS = [
    ("egorov-m3-exp", egorov_metric(EgorovSpec(3, "exp(x3)")),
     egorov_metric(EgorovSpec(3, "exp(x3)+0.5"))),
    ("egorov-m3-quad", egorov_metric(EgorovSpec(3, "x3^2+2")),
     egorov_metric(EgorovSpec(3, "x3^2+3"))),
    ("egorov-m3-cosh", egorov_metric(EgorovSpec(3, "cosh(x3)")),
     egorov_metric(EgorovSpec(3, "cosh(x3)+2"))),
    ("egorov-m4-exp", egorov_metric(EgorovSpec(4, "exp(x4)")),
     egorov_metric(EgorovSpec(4, "exp(x4)+1"))),
    ("egorov-m4-cosh", egorov_metric(EgorovSpec(4, "cosh(x4)")),
     egorov_metric(EgorovSpec(4, "cosh(x4)+0.5"))),
    ("egorov-m5-quad", egorov_metric(EgorovSpec(5, "x5^2+2")),
     egorov_metric(EgorovSpec(5, "x5^2+2.5"))),
    ("godel-cosh", godel_metric(GodelSpec("x2", "cosh(x2)")),
     godel_metric(GodelSpec("x2", "sqrt(cosh(x2)^2+1)"))),
    ("godel-exp", godel_metric(GodelSpec("x2^2", "exp(x2)")),
     godel_metric(GodelSpec("x2^2", "sqrt(exp(x2)^2+0.5)"))),
    # Hhat' (Hhat - H) = 1 is cancelled by Phat Phat' - P P' = 1
    ("godel-shifted", godel_metric(GodelSpec("x2 - 1", "cosh(x2)")),
     godel_metric(GodelSpec("x2", "sqrt(cosh(x2)^2 + 2*x2)"))),
    ("walker-const", walker_metric(WalkerSpec("x1", "x2", "0")),
     walker_metric(WalkerSpec("x1 + 1", "x2 - 2", "0.5"))),
    ("walker-linear", walker_metric(WalkerSpec("x1", "x2", "0")),
     walker_metric(WalkerSpec("2*x1", "x2 - x1", "x2"))),
    ("walker-mixed", walker_metric(WalkerSpec("sin(x3)", "x1*x4", "x2")),
     walker_metric(WalkerSpec("sin(x3) + 2", "x1*x4 + x2", "x2"))),
]

# Pairs with generically nonzero tension, for the converse direction.
NON_HARMONIC_PAIRS = [
    ("egorov-m3-2exp", egorov_metric(EgorovSpec(3, "exp(x3)")),
     egorov_metric(EgorovSpec(3, "2*exp(x3)"))),
    ("egorov-m4-2exp", egorov_metric(EgorovSpec(4, "exp(x4)")),
     egorov_metric(EgorovSpec(4, "2*exp(x4)"))),
    ("godel-2h", godel_metric(GodelSpec("x2", "cosh(x2)")),
     godel_metric(GodelSpec("2*x2", "cosh(x2)"))),
    ("walker-x2x3", walker_metric(WalkerSpec("x1", "x2", "0")),
     walker_metric(WalkerSpec("x1 + x2*x3", "x2", "0"))),
]

# On [0, 1]^2 the first two lattice points of seed 2 are about
# (0.016, 0.868) and (0.771, 0.438).  Entry (2,2) of this chart overflows
# at the first point, while entry (1,1), first in entry order, overflows at
# the second point only: a non-finite chart is named at its first
# non-finite point, then by its first non-finite entry there.
NON_FINITE_ORDER_SEED = 2
NON_FINITE_ORDER = {
    "coordinates": ["x1", "x2"],
    "metric": [["exp(1000*x1 - 50)", "0"], ["0", "exp(1000*x2 - 100)"]],
    "domain": [[0.0, 1.0], [0.0, 1.0]],
}

# The same box and seed, 512 points split into chunks of 256: the first
# derivative of entry (2,2) overflows past about x1 = 0.9959, that of
# (1,1) past about x2 = 0.9989, and none of the first 256 lattice points
# reach either.  Of the next 256, point 355 (x1 about 0.9981) is the first
# past either, for (2,2); entry (1,1), first in entry order, overflows at
# point 367 (x2 about 0.9997) only.
NON_FINITE_SPLIT = {
    "coordinates": ["x1", "x2"],
    "metric": [["exp(1000*x2 - 296)", "0"], ["0", "exp(1000*x1 - 293)"]],
    "domain": [[0.0, 1.0], [0.0, 1.0]],
}

GALLERY_METRICS = [(name, g) for name, g, _ in HARMONIC_PAIRS] + [
    (f"{name}-hat", ghat) for name, _, ghat in HARMONIC_PAIRS
]


def dense_metric(m: int, quad: float = 0.25, amp: float = 0.1) -> ChartedMetric:
    """Diagonal ``m+2 + quad x_a x_a``, off-diagonal
    ``quad x_a x_b + amp sin(x_a + x_b)``."""
    x = [f"x{a + 1}" for a in range(m)]
    entries = [
        [
            f"{m + 2} + {quad}*{x[a]}*{x[a]}"
            if a == b
            else f"{quad}*{x[min(a, b)]}*{x[max(a, b)]} + {amp}*sin({x[min(a, b)]} + {x[max(a, b)]})"
            for b in range(m)
        ]
        for a in range(m)
    ]
    return ChartedMetric.from_strings(x, entries, [(-1.0, 1.0)] * m)


def traced_peak(fn):
    """``(fn(), peak)``: what ``fn()`` returns, and the peak in bytes of
    the Python heap it allocated on top of what was held before, as
    tracemalloc traced it."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def domain_points(g, count, seed=1234):
    """Deterministic sample points of a metric's own box."""
    return lattice_points(g.domain, count, seed)


def fd_christoffel(g, x, h=1e-5):
    """Finite-difference Levi-Civita symbols: first derivatives of the
    component matrix by central differences, exact inverse at x."""
    x = np.asarray(x, dtype=float)
    m = g.dim
    G = metric_at(g, x)
    ginv = np.linalg.inv(G)
    dG = np.empty((m, m, m))
    for k in range(m):
        e = np.zeros(m)
        e[k] = h
        dG[:, :, k] = (metric_at(g, x + e) - metric_at(g, x - e)) / (2 * h)
    C = (
        np.einsum("jli->lij", dG)
        + np.einsum("ilj->lij", dG)
        - np.einsum("ijl->lij", dG)
    )
    return 0.5 * np.einsum("kl,lij->kij", ginv, C)


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
