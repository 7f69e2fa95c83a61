"""Every name a ``trackmem`` module exports in ``__all__`` exists in it, the
library imports only the standard library, itself and its declared
dependencies, and the CLI offers only the product's commands."""

import ast
import importlib
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
