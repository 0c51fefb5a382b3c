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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level name with one leading underscore
    that no module of ``sources`` (module name -> source) reads.

    A definition is a function, a class or an assigned name.  A read is a
    name loaded, an attribute of that name, or a ``from ... import`` of it,
    in any top-level statement but the definition itself, so a function
    that only calls itself is not read.
    """
    defined, reads = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(a.name for a in node.names)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, stmt.name, len(reads)))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [(module, t.id, len(reads)) for t in targets if isinstance(t, ast.Name)]
            reads.append(names)
    return sorted(
        f"{module}.{name}" for module, name, i in defined
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for j, names in enumerate(reads) if j != i)
    )


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


def test_no_private_name_is_left_unread():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": (
            "_read = 1\n_unread = 2\n_TABLE: dict = {}\n"
            "def _called(): return _TABLE\ndef _dead(): return _dead()\nclass _Kept: pass\n"
            "print(_called())\n"
        ),
        "b": "from .a import _read\nimport a\nprint(a._Kept)\n__dunder__ = 3\n_only_stored = 6\n",
    }
    assert unread_private_names(sources) == ["a._dead", "a._unread", "b._only_stored"]
