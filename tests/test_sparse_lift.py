"""The lifted charts are assembled from their nonzero terms only.

`lifts.lift_to_chart` reads the zero pattern of g^-1, of the Christoffel
trees and of A once per chart and builds only the terms with no zero
factor.  These tests hold the printed charts to the full index loops of
`dense_lift.py`, on every fixture pair and on random sparse metrics with
every spelling of zero, and bound the products the sparse assembly builds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclift import EgorovSpec, egorov_metric
from metriclift import exprlang as ex
from metriclift.lifts import LiftKind, _is_zero, lift_to_chart
from metriclift.metric import ChartedMetric, shared_component_sources
from conftest import HARMONIC_PAIRS, NON_HARMONIC_PAIRS
from dense_lift import dense_lift_to_chart

ALL_KINDS = list(LiftKind)
PAIRS = HARMONIC_PAIRS + NON_HARMONIC_PAIRS


def _printed(lift, charts, kind):
    return shared_component_sources([lift(g, kind) for g in charts])


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("name,g,ghat", PAIRS, ids=[p[0] for p in PAIRS])
def test_fixture_pairs_print_as_the_full_loops(name, g, ghat, kind):
    # both charts together, as `lift` prints them: the same definitions too
    assert _printed(lift_to_chart, (g, ghat), kind) == _printed(
        dense_lift_to_chart, (g, ghat), kind
    )


ZEROS = ["0", "0.0", "-0", "-0.0"]
CONSTANTS = ["1", "2.5", "-1.5", "0.5", "-(3)"]


@st.composite
def _sparse_metrics(draw):
    """A symmetric m x m entry matrix, m = 2..6, mostly zeros (in every
    spelling), with constant and coordinate-dependent entries."""
    m = draw(st.integers(2, 6))
    x = [f"x{a + 1}" for a in range(m)]
    var = st.sampled_from(x)
    entry = st.one_of(
        st.sampled_from(ZEROS),
        st.sampled_from(CONSTANTS),
        st.builds(lambda a: f"{a}^2 + 2", var),
        st.builds(lambda a, b: f"{a}*{b}", var, var),
        st.builds(lambda a: f"exp({a}) - 0", var),
        st.builds(lambda a: f"sin({a})*0 + 1", var),
    )
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        # the diagonal is seldom zero, the rest mostly
        rows[i][i] = draw(entry)
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = draw(st.one_of(st.sampled_from(ZEROS), entry))
    return ChartedMetric.from_strings(x, rows, [(-1.0, 1.0)] * m)


@settings(max_examples=120)
@given(_sparse_metrics(), st.sampled_from(ALL_KINDS))
def test_random_sparse_metrics_print_as_the_full_loops(g, kind):
    assert _printed(lift_to_chart, (g,), kind) == _printed(dense_lift_to_chart, (g,), kind)


@pytest.mark.parametrize("source", ["0", "0.0", "-0", "-0.0", "-(0)"])
def test_every_spelling_of_zero_is_skipped(source):
    e = ex.parse_expression(source, ["x1"])
    assert _is_zero(e)
    # the product it is skipped from folds to zero
    assert ex.mul(e, ex.sym(0, "x1")) == ex.const(0.0)


@pytest.mark.parametrize("source", ["1", "-1e-300", "--0", "x1 - x1", "0*x1"])
def test_only_zero_constants_are_skipped(source):
    # "--0" is zero, but `ex.mul` does not fold by it, so it is kept
    e = ex.parse_expression(source, ["x1"])
    assert not _is_zero(e)
    assert ex.mul(e, ex.sym(0, "x1")) != ex.const(0.0)


# `ex.mul` calls of `lift_to_chart` on Egorov m=24, fixed before the sparse
# assembly.  The full loops made 555,596 (sasaki-tm) and 548,972
# (sasaki-ctm) calls there; the sparse assembly makes about 17,000.
MUL_CALLS_EGOROV_M24 = 30_000


@pytest.mark.parametrize("kind", [LiftKind.SASAKI_TM, LiftKind.SASAKI_CTM], ids=lambda k: k.value)
def test_egorov_m24_sasaki_builds_the_nonzero_products_only(kind, monkeypatch):
    g = egorov_metric(EgorovSpec(24, "exp(x24)"))
    calls = 0
    mul = ex.mul

    def counted(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    monkeypatch.setattr(ex, "mul", counted)
    lift_to_chart(g, kind)
    assert calls <= MUL_CALLS_EGOROV_M24
