"""Static checks on the package source, with the standard library only."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "factoradic"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never uses.

    A name counts as used when it is read anywhere in the module or listed
    in ``__all__``; ``from __future__ import ...`` counts as used.
    """
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import sys\n"
        "from math import pi, tau\n"
        "__all__ = ['pi']\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == ["os", "osp", "tau"]
