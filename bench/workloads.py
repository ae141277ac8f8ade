"""Seeded input generator for the metriclift benchmark.

``build(workload, seed)`` returns the manifests a user would write and the
ops (CLI invocations) one cycle of the workload runs over them.  The seed
picks the Egorov and Goedel profile constants, the dense-metric
coefficients and each manifest's lattice ``seed``; the tree shapes stay
fixed, so runs with different seeds do the same amount of work.  The
program only ever sees the manifests, which ``run.py`` writes to disk.

Every op carries the reference its output is judged against:

* base pairs: harmonic when built so (shifted Egorov profiles, constant
  Walker shifts, Goedel ``Phat^2 = P^2 + c``, homothetic dense metrics),
  not-harmonic otherwise; Egorov residuals also against the closed form;
* ``check --lift KIND``: the base verdict (the block conditions hold
  exactly when the base pair is harmonic);
* ``lift | check``: the base verdict for horizontal and complete lifts
  (README Known result 1, tension ``(0, 2 tau)``); not-harmonic for the
  Sasaki kinds on harmonic Egorov bases (Known result 2); harmonic for
  the Sasaki TM lift of a homothetic pair, whose lifts are homothetic
  too; not-harmonic for a Sasaki lift of a not-harmonic base, as
  recorded when the benchmark was defined.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SASAKI_TM = "sasaki-tm"
HORIZONTAL_TM = "horizontal-tm"
COMPLETE_TM = "complete-tm"
SASAKI_CTM = "sasaki-ctm"

HARMONIC = "harmonic-on-samples"
NOT_HARMONIC = "not-harmonic"

# Percentile of all op times reported as op_tail_s.  Fixed per workload so
# that parent and child commits report the same statistic; each run keeps
# going until at least ten ops lie beyond it.  Each lies inside the runs of
# the cycle's two heaviest ops (the dense pair of highest m), which make up
# the top 11%, 12.5% and 6.25% of op runs.
TAIL_PERCENTILE = {"harmonic-batch": 95, "lift-blocks": 94, "lift-roundtrip": 96}


@dataclass(frozen=True)
class Pair:
    """A base metric pair with its expected identity-map verdict."""

    name: str
    dim: int
    body: dict  # manifest keys describing the two metrics
    harmonic: bool
    egorov: tuple | None = None  # (m, f, fhat) where the closed form applies
    homothetic: bool = False


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call and the reference its output must meet."""

    label: str
    command: str  # "check" or "lift"
    manifest: str  # file name inside the run directory
    lift: str | None = None  # value of --lift, if given
    emits: str | None = None  # file the stdout is saved to (lift ops)
    verdict: str | None = None  # expected verdict (check ops)
    egorov: tuple | None = None  # closed-form reference (m, f, fhat)
    residual_factor: float = 1.0  # 2 for horizontal/complete lifted charts
    dim: int = 0  # expected dimension of an emitted manifest

    def argv(self, run_dir) -> list[str]:
        out = [self.command, "--manifest", str(run_dir / self.manifest)]
        if self.lift is not None:
            out += ["--lift", self.lift]
        return out


@dataclass(frozen=True)
class Cycle:
    manifests: dict  # file name -> manifest dict
    ops: tuple


def _dec4(v: float) -> float:
    """``v`` with exactly four decimals, the last one nonzero, so that the
    manifest text, and the work of parsing and printing it, has the same
    length whatever the seed."""
    v = round(v, 4)
    return round(v + 0.0001, 4) if round(v * 10000) % 10 == 0 else v


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return _dec4(rng.uniform(lo, hi))


def _egorov_pairs(rng: random.Random) -> list[Pair]:
    """Harmonic and not-harmonic pairs for m = 3..6; the not-harmonic hats
    either rescale or tilt the profile so the residual varies by case."""
    out = []
    for m in (3, 4, 5, 6):
        x = f"x{m}"
        if m in (3, 6):
            a = _num(rng, 0.6, 1.2)
            f = f"exp({a}*{x})"
            fh = f"{f} + {_num(rng, 0.3, 1.0)}"
            # exp(a x) >= exp(-1.2) > 0.3 on [-1, 1], so the tilt stays positive
            fn = f"{_num(rng, 1.5, 2.5)}*{f}" if m == 3 else f"{f} + {_num(rng, 0.1, 0.25)}*{x}"
        elif m == 4:
            a, b = _num(rng, 0.5, 1.5), _num(rng, 0.2, 1.0)
            f = f"cosh({a}*{x}) + {b}"
            fh = f"cosh({a}*{x}) + {_dec4(b + _num(rng, 0.3, 1.0))}"
            fn = f"{f} + {_num(rng, 0.2, 0.5)}*{x}"
        else:
            b = _num(rng, 1.5, 2.5)
            f = f"{x}^2 + {b}"
            fh = f"{x}^2 + {_dec4(b + _num(rng, 0.3, 1.0))}"
            fn = f"{_num(rng, 1.5, 2.5)}*{x}^2 + {b}"
        for tag, hat, harmonic in (("h", fh, True), ("n", fn, False)):
            body = {
                "dimension": m,
                "family": {"name": "egorov", "m": m, "f": f},
                "hat_family": {"name": "egorov", "m": m, "f": hat},
            }
            out.append(Pair(f"egorov-m{m}-{tag}", m, body, harmonic, (m, f, hat)))
    return out


def _walker_pairs(rng: random.Random) -> list[Pair]:
    # harmonic iff d2(a) + d1(c) and d1(b) + d2(c) match their hatted values
    p, c1, q = _num(rng, 0.5, 1.5), _num(rng, 0.5, 2.0), _num(rng, 0.5, 1.5)
    s = _num(rng, 0.5, 1.5)
    h = {
        "family": {"name": "walker", "a": f"sin({p}*x3)", "b": "x1*x4", "c": "x2"},
        "hat_family": {
            "name": "walker",
            "a": f"sin({p}*x3) + {c1}",
            "b": f"x1*x4 + {q}*x2",
            "c": "x2",
        },
    }
    n = {
        "family": {"name": "walker", "a": "x1", "b": "x2", "c": "0"},
        "hat_family": {"name": "walker", "a": f"x1 + {s}*x2*x3", "b": "x2", "c": "0"},
    }
    return [Pair("walker-h", 4, h, True), Pair("walker-n", 4, n, False)]


def _godel_pairs(rng: random.Random) -> list[Pair]:
    # harmonic iff Hhat'(Hhat - H) - Phat Phat' + P P' vanishes
    s, c = _num(rng, 0.5, 1.5), _num(rng, 0.5, 1.5)
    k = _dec4(s + _num(rng, 0.5, 1.0))
    h = {
        "family": {"name": "godel", "H": f"{s}*x2", "P": "cosh(x2)"},
        "hat_family": {"name": "godel", "H": f"{s}*x2", "P": f"sqrt(cosh(x2)^2 + {c})"},
    }
    n = {
        "family": {"name": "godel", "H": f"{s}*x2", "P": "cosh(x2)"},
        "hat_family": {"name": "godel", "H": f"{k}*x2", "P": "cosh(x2)"},
    }
    return [Pair("godel-h", 4, h, True), Pair("godel-n", 4, n, False)]


def dense_matrix(m: int, quad: float, amp: float, scale: float | None = None):
    """ROADMAP fixture: diagonal ``m+2 + q x_a x_a``, off-diagonal
    ``q x_a x_b + amp sin(x_a + x_b)``; diagonally dominant on [-1, 1]^m."""
    rows = []
    for a in range(m):
        row = []
        for b in range(m):
            lo, hi = min(a, b) + 1, max(a, b) + 1
            if a == b:
                e = f"{m + 2} + {quad}*x{lo}*x{lo}"
            else:
                e = f"{quad}*x{lo}*x{hi} + {amp}*sin(x{lo} + x{hi})"
            row.append(e if scale is None else f"{scale}*({e})")
        rows.append(row)
    return rows


def _dense_pairs(rng: random.Random, dims) -> list[Pair]:
    quad, amp = _num(rng, 0.2, 0.3), _num(rng, 0.08, 0.12)
    lam, amp_hat = _num(rng, 1.3, 2.0), _dec4(amp * _num(rng, 1.5, 2.0))
    out = []
    for m in dims:
        g = dense_matrix(m, quad, amp)
        h = {"dimension": m, "metric": g, "hat_metric": dense_matrix(m, quad, amp, lam)}
        n = {"dimension": m, "metric": g, "hat_metric": dense_matrix(m, quad, amp_hat)}
        out.append(Pair(f"dense-m{m}-h", m, h, True, homothetic=True))
        out.append(Pair(f"dense-m{m}-n", m, n, False))
    return out


def _base_pairs(rng: random.Random, dense_dims) -> list[Pair]:
    return (
        _egorov_pairs(rng) + _walker_pairs(rng) + _godel_pairs(rng)
        + _dense_pairs(rng, dense_dims)
    )


def _verdict(harmonic: bool) -> str:
    return HARMONIC if harmonic else NOT_HARMONIC


def _manifest(pair: Pair, rng: random.Random, samples: int | None) -> dict:
    doc = dict(pair.body)
    doc["tol"] = 1e-9
    doc["seed"] = rng.randrange(1, 2**31)
    if samples is not None:
        doc["samples"] = samples
    return doc


def _harmonic_batch(rng: random.Random) -> Cycle:
    pairs = _base_pairs(rng, (3, 5, 7))
    manifests, ops = {}, []
    for p in pairs:
        fname = f"{p.name}.json"
        manifests[fname] = _manifest(p, rng, 4096)
        ops.append(Op(p.name, "check", fname, verdict=_verdict(p.harmonic),
                      egorov=None if p.harmonic else p.egorov))
    return Cycle(manifests, tuple(ops))


def _lift_blocks(rng: random.Random) -> Cycle:
    pairs = _base_pairs(rng, (3, 5))
    # one kind per base family, each kind on two families; dense m=5 runs
    # the Sasaki TM lift, the slowest block assembly
    kind_of = {
        "egorov-m3": SASAKI_TM, "egorov-m4": HORIZONTAL_TM,
        "egorov-m5": COMPLETE_TM, "egorov-m6": SASAKI_CTM,
        "walker": SASAKI_CTM, "godel": HORIZONTAL_TM,
        "dense-m3": COMPLETE_TM, "dense-m5": SASAKI_TM,
    }
    manifests, ops = {}, []
    for p in pairs:
        fname = f"{p.name}.json"
        manifests[fname] = _manifest(p, rng, None)  # default N = 64
        kind = kind_of[p.name.rsplit("-", 1)[0]]
        ops.append(Op(f"{p.name}:{kind}", "check", fname, lift=kind,
                      verdict=_verdict(p.harmonic)))
    return Cycle(manifests, tuple(ops))


def _lift_roundtrip(rng: random.Random) -> Cycle:
    pairs = _base_pairs(rng, (2, 3))
    # Dense m=3 takes only the horizontal lift: its Sasaki charts take
    # 7-9 s and 400-650 MB to check, so dense Sasaki runs at m=2.
    kind_of = {
        "egorov-m3": HORIZONTAL_TM, "egorov-m4": SASAKI_TM,
        "egorov-m5": COMPLETE_TM, "egorov-m6": SASAKI_CTM,
        "walker": HORIZONTAL_TM, "godel": COMPLETE_TM,
        "dense-m2": SASAKI_TM, "dense-m3": HORIZONTAL_TM,
    }
    manifests, ops = {}, []
    for p in pairs:
        fname = f"{p.name}.json"
        manifests[fname] = _manifest(p, rng, 32)
        kind = kind_of[p.name.rsplit("-", 1)[0]]
        lifted = f"{p.name}.{kind}.json"
        honest = kind in (HORIZONTAL_TM, COMPLETE_TM)
        harmonic = p.harmonic if honest else p.homothetic and kind == SASAKI_TM
        ops.append(Op(f"{p.name}:lift-{kind}", "lift", fname, lift=kind,
                      emits=lifted, dim=2 * p.dim))
        ops.append(Op(f"{p.name}:check-{kind}", "check", lifted,
                      verdict=_verdict(harmonic),
                      egorov=p.egorov if honest and not p.harmonic else None,
                      residual_factor=2.0))
    return Cycle(manifests, tuple(ops))


BUILDERS = {
    "harmonic-batch": _harmonic_batch,
    "lift-blocks": _lift_blocks,
    "lift-roundtrip": _lift_roundtrip,
}


def build(workload: str, seed: int) -> Cycle:
    """Manifests and one cycle of ops for ``workload``; same seed, same inputs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
