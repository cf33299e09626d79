"""The README's library examples import only names the package still has."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

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
