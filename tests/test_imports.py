"""Every module-level import in the package is read by its module.

An import whose name the module body never reads is dead code that still
costs an import and suggests a dependency that is not there. This test
parses every module of the package, except `__init__.py`, whose imports
load the modules for callers and re-export nothing (see
`tests/test_package_surface.py`), and fails on a module-level import
binding that no expression of the module reads. It also keeps
`matrix._pivot`, the one fraction-free row operation, inside `matrix` and
`lp`: every other module eliminates through `matrix._bareiss` or
`matrix._gauss_jordan`, so a new private pivot loop fails here. Likewise
`bordered` is the one module that builds an LP, so no other module outside
`lp` itself imports `lp`, and no module but `bordered` names its depth LP.

Three more formats have one owner each. Only `loglin` reads a LogLin's
term tuples (`.rat`, `.logs`) or wraps them unchecked (`LogLin._built`);
other modules add rationals to LogLin values. Only `radicals` sizes a
witness: `divergence` names none of the closed-form sizing routines, forms
no minor, and reads candidates, Plucker supports and sizes from one stream
of `radicals`, whose supports it reads as pure weights through
`radicals._pure_weights`.
"""

import ast
from pathlib import Path

import cuspwatch

PACKAGE = Path(cuspwatch.__file__).parent


def _module_imports(body):
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_imports(getattr(node, field, []))


def _unread_imports(tree):
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                yield node.lineno, name


def test_detector_sees_every_form():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, lcm\n"
        "from .matrix import Mat\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    numpy = None\n"
        "if flag:\n"
        "    from fractions import Fraction\n"
        "def fn():\n"
        "    import sys\n"
        "    return lcm(2, 3), js.dumps(numpy)\n"
        "class K:\n"
        "    attr: Mat\n"
    )
    found = [name for _, name in _unread_imports(ast.parse(src))]
    assert found == ["os", "os", "gcd", "Fraction"]


def test_no_unread_module_level_imports():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = [
        "%s:%d: %s" % (path.relative_to(PACKAGE), line, name)
        for path in modules
        for line, name in _unread_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def _references(tree, names):
    """Each node that names one of names: a name, an attribute or an import."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.alias) and node.name in names):
            yield node


def _users(find):
    """The file names of the package's modules in which find(tree) finds a node."""
    return sorted(
        path.name for path in PACKAGE.rglob("*.py")
        if any(find(ast.parse(path.read_text(), str(path))))
    )


def test_pivot_detector_sees_every_form():
    src = (
        "from .matrix import _pivot as step\n"
        "from . import matrix\n"
        "def fn(a):\n"
        "    return matrix._pivot(a, 0, 0, 1)\n"
    )
    assert len(list(_references(ast.parse(src), {"_pivot"}))) == 2


def test_only_matrix_and_lp_use_the_pivot_step():
    assert _users(lambda tree: _references(tree, {"_pivot"})) == ["lp.py", "matrix.py"]


def test_only_bordered_names_the_depth_lp():
    assert _users(lambda tree: _references(tree, {"_depth_lp"})) == ["bordered.py"]


_SIZING = {"_closed_vectors", "_closed_table", "_closed_components", "_support",
           "_closed_columns", "_enumerated", "_int_minors", "_moved", "_conj_minors"}


def test_divergence_leaves_witness_sizing_to_radicals():
    tree = ast.parse((PACKAGE / "divergence.py").read_text())
    assert [node.lineno for node in _references(tree, _SIZING)] == []
    imported = sorted(alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module == "radicals"
                      for alias in node.names)
    assert imported == ["RadicalWitness", "_keyed", "_log_size", "_pure_weights"]


def _loglin_terms(tree):
    """Each read of a .rat or .logs attribute, and each LogLin._built."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr in ("rat", "logs")
                or node.attr == "_built"
                and isinstance(node.value, ast.Name) and node.value.id == "LogLin"):
            yield node


def test_loglin_terms_detector_sees_every_form():
    src = (
        "from .loglin import LogLin\n"
        "from .wedge import WedgeVector\n"
        "def fn(v, q):\n"
        "    a, b = v.logs, (-v).rat\n"
        "    w = WedgeVector._built(1, 1, {})\n"
        "    return LogLin._built(q - b, a), v + q\n"
    )
    assert len(list(_loglin_terms(ast.parse(src)))) == 3


def test_only_loglin_reads_loglin_terms():
    assert _users(_loglin_terms) == ["loglin.py"]


def _lp_imports(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and ((node.module or "").split(".")[-1] == "lp"
                     or any(alias.name == "lp" for alias in node.names))
                or isinstance(node, ast.Import)
                and any(alias.name.split(".")[-1] == "lp" for alias in node.names)):
            yield node


def test_lp_detector_sees_every_form():
    src = (
        "from .lp import solve_lp\n"
        "from .lp import lp_feasible as feasible\n"
        "from . import lp\n"
        "import cuspwatch.lp\n"
        "from .bordered import _depth_lp\n"
        "from .lattice import positive_primitive\n"
    )
    assert len(list(_lp_imports(ast.parse(src)))) == 4


def test_only_bordered_imports_the_lp_module():
    assert _users(_lp_imports) == ["bordered.py"]
