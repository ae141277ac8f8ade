"""The package's surface and its single routes.

Every name a module exports must resolve: the benchmark tracer wraps
each ``__all__`` entry with ``getattr``, so a stale one breaks every
traced run.  So must every cross-reference in a docstring.  And the
jets, the screened inverse and LAPACK are each reached from the one
place that owns them, read from the source."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import metriclift

MODULES = [
    "metriclift",
    "metriclift.exprlang",
    "metriclift.metric",
    "metriclift.harmonic",
    "metriclift.lifts",
    "metriclift.gallery",
    "metriclift.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


# :func:`name` and the like, as the docstrings cite the package's objects
DOC_REFERENCE = re.compile(r":(?:func|class|meth|mod):`([^`]+)`")


def _resolves(mod, target: str) -> bool:
    """Whether ``target`` names an object of ``mod`` or, as
    ``module.name``, of the package."""

    def lookup(obj, path: str) -> bool:
        for part in path.split("."):
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    return lookup(mod, target) or lookup(metriclift, target.removeprefix("metriclift."))


@pytest.mark.parametrize("stem", sorted(p.stem for p in Path(metriclift.__file__).parent.glob("*.py")))
def test_every_docstring_reference_resolves(stem):
    mod = importlib.import_module("metriclift" if stem == "__init__" else f"metriclift.{stem}")
    tree = ast.parse(Path(mod.__file__).read_text())
    docs = [
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    targets = {t for doc in docs for t in DOC_REFERENCE.findall(doc)}
    assert [t for t in sorted(targets) if not _resolves(mod, t)] == []


def _owners(match) -> set:
    """``module.function`` of the top-level definition around each node of
    the package source that ``match`` accepts (``module.<module>`` for a
    node outside every definition)."""
    found = set()
    for path in sorted(Path(metriclift.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            if any(match(node) for node in ast.walk(top)):
                found.add(f"{path.stem}.{owner}")
    return found


def _calls(name: str):
    def match(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        fn = node.func
        return getattr(fn, "id", None) == name or getattr(fn, "attr", None) == name

    return match


def _text(needle: str):
    def match(node) -> bool:
        return isinstance(node, ast.Constant) and needle in str(node.value)

    return match


def _reads(name: str):
    def match(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id == name and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Attribute) and node.attr == name

    return match


def _formats_floats(node) -> bool:
    return isinstance(node, ast.GeneratorExp) and "repr(float(" in ast.unparse(node)


def _catches(name: str):
    def match(node) -> bool:
        return isinstance(node, ast.ExceptHandler) and getattr(node.type, "id", None) == name

    return match


def _yields(node) -> bool:
    return isinstance(node, (ast.Yield, ast.YieldFrom))


def _uses_linalg(node) -> bool:
    if isinstance(node, ast.alias):  # import numpy.linalg, from numpy import linalg
        return "linalg" in node.name.split(".")
    return getattr(node, "attr", None) == "linalg" or getattr(node, "id", None) == "linalg"


def _uses_blas(node) -> bool:
    if isinstance(node, ast.MatMult):
        return True
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    if name == "einsum":
        return any(kw.arg == "optimize" for kw in node.keywords)
    return name in ("dot", "vdot", "inner", "matmul", "tensordot")


def test_one_route_to_the_jets_the_inverse_and_lapack():
    # g's inverse and connection come from metric._connection_at; only the
    # chunk loop that the sampler and the identity tension share takes its
    # jets on its own, from the component pass, as support rows for the
    # tension kernel on jets, which factors each metric once per chunk: it
    # never builds the dense first jets
    assert _owners(_calls("metric_jets_at")) == {"metric._connection_at"}
    assert _owners(_calls("_component_jets")) == {
        "metric.metric_jets_at",
        "harmonic._chunked_tension",
    }
    # every jet pass checks its own jets are finite, and nothing else does
    assert _owners(_text("or a derivative of it is not finite")) == {"metric._component_jets"}
    assert _owners(_calls("_checked_inverse")) == {"metric._connection_at"}
    assert _owners(_calls("_solve")) == {
        "metric._checked_inverse",
        "harmonic._tension_kernel",
    }
    assert _owners(_uses_linalg) == {
        "metric._solve",
        "lifts.connection_in_frame",
        "lifts.components_in_adapted_frame",
    }
    # BLAS may block a product differently for different batch sizes: the
    # tension kernel sums elementwise along the samples instead, so a
    # point's tension is the same in the sampler's batches and in
    # tension_identity_at's
    assert _owners(_uses_blas) == {"lifts._lift_blocks"}


def test_one_expression_walk():
    # the jet pass and the value pass are each one evaluate walk, which
    # returns the roots' values in order; the expression language has no
    # generator that hands them out one at a time
    assert {"metric._component_jets", "metric.metric_at"} <= _owners(_calls("evaluate"))
    assert not any(owner.startswith("exprlang.") for owner in _owners(_yields))


def test_one_owner_per_rule_of_a_sampled_check():
    # every screen asks metric._nondegenerate, the one reader of the
    # threshold, and every error that names a point prints it by one
    # function
    assert _owners(_reads("DEGENERACY_EPS")) == {"metric._nondegenerate"}
    assert _owners(_calls("_point_text")) == {
        "metric.MetricDegenerate",
        "metric._component_jets",
        "harmonic._sampled_report",
    }
    assert _owners(_formats_floats) == {"metric._point_text"}
    # a jet's domain error becomes an expression error in one place, and
    # the manifest's two metrics are held to one chart in one place
    assert _owners(_catches("JetDomainError")) == {"exprlang._apply_fn"}
    assert _owners(_text("hat metric must share the chart")) == {"cli.build_metrics"}
