"""The package's public names: the README's library examples import only names
the package still has, and every name a module exports exists."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ircmap

README = Path(__file__).resolve().parent.parent / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _ircmap_imports() -> list[ast.ImportFrom]:
    imports = []
    for block in _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8")):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ircmap":
                imports.append(node)
    return imports


IMPORTS = _ircmap_imports()


def test_readme_shows_ircmap_imports():
    assert IMPORTS, "no `from ircmap... import ...` line in README's python blocks"


@pytest.mark.parametrize("node", IMPORTS, ids=ast.unparse)
def test_readme_import_runs(node):
    exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), {})


MODULES = ["ircmap", *(f"ircmap.{module.name}" for module in pkgutil.iter_modules(ircmap.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)] == []
