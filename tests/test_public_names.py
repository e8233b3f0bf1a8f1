"""The interface is every name without a leading underscore; each such def and class is documented."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mnlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_every_public_def_and_class_has_a_docstring(path):
    tree = ast.parse(path.read_text())
    undocumented = [node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and ast.get_docstring(node) is None]
    assert undocumented == []
