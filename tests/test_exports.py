"""Every name a ``trackmem`` module exports in ``__all__`` exists in it, every
exported policy and metric function is called by the library or a demo, the
library imports only the standard library, itself and its declared
dependencies, and the CLI offers only the product's commands."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import tomllib
from pathlib import Path

import pytest

import trackmem
from trackmem.cli import build_parser, main as cli_main

MODULES = ["trackmem"] + [f"trackmem.{m.name}" for m in pkgutil.iter_modules(trackmem.__path__)]
REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == []


def call_sites(path: Path) -> set[tuple[Path, str | None, str]]:
    """``(path, top-level definition around the call or None, called name)`` of
    every call in ``path`` of a plain or dotted name."""
    sites = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name:
                    sites.add((path, owner, name))
    return sites


@pytest.mark.parametrize("name", ["trackmem.policies", "trackmem.metrics"])
def test_every_exported_function_has_a_caller_in_the_library_or_a_demo(name):
    """A helper that only tests call, or that only calls itself, is not exported."""
    module = importlib.import_module(name)
    own_file = Path(module.__file__).resolve()
    paths = [*(REPO / "src" / "trackmem").glob("*.py"), *(REPO / "demos").glob("*.py")]
    sites = set().union(*(call_sites(p.resolve()) for p in paths))
    functions = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
    uncalled = [n for n in functions
                if not any(called == n and (path, owner) != (own_file, n)
                           for path, owner, called in sites)]
    assert functions and uncalled == []


def test_library_imports_only_the_stdlib_itself_and_its_dependencies():
    """No test module (``oracles``, ``reference``, ``conftest``) or test tool is imported."""
    with open(REPO / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    allowed = {*sys.stdlib_module_names, "trackmem",
               *(re.match(r"[A-Za-z0-9_.-]+", d).group(0).replace("-", "_") for d in declared)}
    imported = set()
    for path in sorted((REPO / "src" / "trackmem").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, a.name.split(".")[0]) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert "numpy" in {name for _, name in imported}
    assert sorted((f, name) for f, name in imported if name not in allowed) == []


def test_cli_offers_only_run_and_compare(tmp_path):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == ["compare", "run"]
    with pytest.raises(SystemExit) as exc:
        cli_main(["oracle", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
