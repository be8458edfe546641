"""Every name a liverec module imports is used in that module.

Package ``__init__`` files are exempt: their imports are re-exports.
"""
import ast
from pathlib import Path

import pytest

import liverec

MODULES = sorted(p for p in Path(liverec.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import prod, sqrt\nprint(sqrt(os.sep))\n") == ["line 2: prod"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
