"""Every name a package or test module imports is used there or listed in
its ``__all__``, no module defines a function or class name twice in one
block, and no module but ``ops`` decides whether a matrix is Hermitian.
Package ``__init__`` files only re-export, so they are exempt; every name
they re-export is in its module's ``__all__``, and every ``__all__`` entry
is defined. scipy is imported only inside the functions that call it, so
the commands that need none of it never load it. Every public function is
named outside its module: by another package module, a test, the benchmark
or the README."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from zenoforge.models import MODEL_NAMES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zenoforge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
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


def _adjoint_of(node):
    """E for an expression ``E.conj().T`` or ``E.T.conj()``, else None."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        call = node.value
        if isinstance(call, ast.Call) and not call.args and isinstance(call.func, ast.Attribute):
            return call.func.value if call.func.attr == "conj" else None
    if isinstance(node, ast.Call) and not node.args and isinstance(node.func, ast.Attribute):
        inner = node.func.value
        if node.func.attr == "conj" and isinstance(inner, ast.Attribute) and inner.attr == "T":
            return inner.value
    return None


def hermiticity_checks(source: str) -> list[int]:
    """Lines that subtract ``E.conj().T`` from the same expression E, or the
    reverse: a Hermiticity decision, which ``ops.hermitian`` alone makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                e = _adjoint_of(b)
                if e is not None and ast.dump(e) == ast.dump(a):
                    found.append(node.lineno)
                    break
    return found


def test_detector_flags_only_hermiticity_checks():
    source = (
        "skew = m - m.conj().T\n"
        "skew = x.T.conj() - x\n"
        "skew = (a @ b).conj().T - a @ b\n"
        "part = m + m.conj().T\n"
        "other = m - n.conj().T\n"
        "unitary = u @ u.conj().T - eye\n"
        "defect = l.conj().T @ l - l @ l.conj().T\n"
    )
    assert hermiticity_checks(source) == [1, 2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "ops.py"], ids=lambda p: p.name)
def test_only_ops_decides_hermiticity(path):
    assert hermiticity_checks(path.read_text()) == []


def scipy_modules_after(argvs) -> list[str]:
    """The scipy modules loaded in a fresh process by ``import zenoforge``
    and then ``cli.main`` on each argv, every one of which must exit 0."""
    script = (
        "import contextlib, io, sys\n"
        "import zenoforge\n"
        "from zenoforge import cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_table1_lie_dim_and_dfs_load_no_scipy():
    argvs = [
        ["reproduce-table1", "--nmax", "4"],
        ["lie-dim", "--model", "n-level-atom", "--n", "6"],
        ["lie-dim", "--model", "two-qubit-amp"],
    ] + [["dfs", "--model", name] for name in MODEL_NAMES]
    assert scipy_modules_after(argvs) == []


def test_importing_the_cli_loads_neither_scipy_linalg_nor_optimize():
    # scipy.linalg alone costs more than twice a benchmark worker's set-up
    loaded = scipy_modules_after([])
    assert "scipy.linalg" not in loaded and "scipy.optimize" not in loaded


def test_zeno_check_loads_scipy_linalg_but_not_optimize():
    loaded = scipy_modules_after([["zeno-check", "--steps", "1,4", "--gammas", "10"]])
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.split(".")[:2] == ["scipy", "optimize"]]


def reexports(source: str) -> dict[str, list[str]]:
    """The names a package ``__init__`` imports from each sibling module."""
    found: dict[str, list[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, []).extend(a.name for a in node.names)
    return found


def test_init_reexports_only_public_names():
    exported = reexports((PACKAGE / "__init__.py").read_text())
    assert exported
    for module, names in exported.items():
        public = importlib.import_module(f"zenoforge.{module}").__all__
        assert [n for n in names if n not in public] == [], module


@pytest.mark.parametrize(  # importing __main__ runs the CLI
    "path", [p for p in MODULES if p.name != "__main__.py"], ids=lambda p: p.name
)
def test_every_public_name_is_defined(path):
    module = importlib.import_module(f"zenoforge.{path.stem}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def named(source: str) -> set[str]:
    """The identifiers a module's code names: names, attributes and imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_detector_collects_names_attributes_and_imports():
    source = "from a.b import c as d\nimport e.f\nx = g.h(i)  # j\n"
    assert named(source) == {"c", "f", "x", "g", "h", "i"}


@pytest.mark.parametrize(  # importing __main__ runs the CLI
    "path", [p for p in MODULES if p.name != "__main__.py"], ids=lambda p: p.name
)
def test_every_public_function_is_named_outside_its_module(path):
    # the package __init__ only re-exports, so naming a function there does
    # not count; classes are exempt, since they type returned values
    module = importlib.import_module(f"zenoforge.{path.stem}")
    others = [p for p in MODULES if p != path] + TEST_MODULES
    others += sorted((ROOT / "perfbench").glob("*.py"))
    outside = set().union(*(named(p.read_text()) for p in others))
    outside |= set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    functions = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
    assert [n for n in functions if n not in outside] == []
