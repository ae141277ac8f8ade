"""Every name a module exports must resolve: the benchmark tracer wraps
each ``__all__`` entry with ``getattr``, so a stale one breaks every
traced run."""

import importlib

import pytest

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
