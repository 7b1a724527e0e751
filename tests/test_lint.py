"""Every import of a package module is used in it.

A stdlib-only lint over ``src/qeqlog/*.py``: each name that a module binds
by ``import`` or ``from ... import`` must be read in that module, as a name
or as the base of an attribute. ``__init__.py`` imports in order to
re-export, and is exempt; so is ``from __future__ import annotations``.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qeqlog"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in line order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name for name in imported if name not in read), key=imported.get)


def test_the_lint_finds_an_unused_import():
    source = ("import os.path\nimport re as regex\nfrom json import dumps, loads as read\n"
              "from .errors import QeqlogError\nprint(os.sep, read)\n")
    assert unused_imports(source) == ["regex", "dumps", "QeqlogError"]


def test_the_lint_skips_the_future_import_and_reads_annotations():
    source = ("from __future__ import annotations\nfrom typing import Callable\n"
              "def f(g: Callable) -> None: ...\n")
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_of_a_module_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
