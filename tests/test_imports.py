"""Every name a package module imports is used there or listed in its
``__all__``, and no module defines a function or class name twice in one
block. Package ``__init__`` files only re-export, so they are exempt."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zenoforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_detector_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "x = np.pi * tau\n"
    )
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def redefinitions(source: str) -> list[str]:
    """Function and class names defined twice in one statement block; a
    decorated definition (a property setter, an overload) is exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):  # a lambda's or IfExp's body is an expression
                continue
            names = Counter(
                stmt.name
                for stmt in block
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.decorator_list
            )
            found += [name for name, count in names.items() if count > 1]
    return sorted(found)


def test_detector_flags_only_redefined_names():
    source = (
        "def f(): pass\n"
        "def f(): pass\n"
        "class C:\n"
        "    @property\n"
        "    def x(self): return 1\n"
        "    @x.setter\n"
        "    def x(self, v): pass\n"
        "def outer():\n"
        "    def g(): pass\n"
        "    def g(): pass\n"
        "    def f(): pass\n"
        "if True:\n"
        "    def h(): pass\n"
        "else:\n"
        "    def h(): pass\n"
    )
    assert redefinitions(source) == ["f", "g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_redefines_no_name(path):
    assert redefinitions(path.read_text()) == []
