"""Every name a ``trackmem`` module exports in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import trackmem

MODULES = ["trackmem"] + [f"trackmem.{m.name}" for m in pkgutil.iter_modules(trackmem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == []
