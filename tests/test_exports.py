"""Every name a ``trackmem`` module exports in ``__all__`` exists in it, and the
run path loads no test oracle."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import trackmem

MODULES = ["trackmem"] + [f"trackmem.{m.name}" for m in pkgutil.iter_modules(trackmem.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == []


def test_importing_the_harness_leaves_the_oracles_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(trackmem.__file__).parents[1]), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, trackmem.harness; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    loaded = done.stdout.split()
    assert "trackmem.harness" in loaded
    assert "trackmem.oracles" not in loaded
