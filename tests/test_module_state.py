"""No unbounded memo lives at module level in the package.

A module-level name bound to an empty dict, list or set is a container
that code fills for the life of the process, which is how an unbounded
cache starts. Memos in the package are bounded `functools.lru_cache`s or
live on the object they describe. This test parses every module of the
package and fails on such a binding outside function and class bodies.
"""

import ast
from pathlib import Path

import cuspwatch

PACKAGE = Path(cuspwatch.__file__).parent


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("dict", "list", "set") and not (node.args or node.keywords)
    return False


def _module_statements(body):
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_statements(getattr(node, field, []))


def _empty_globals(tree):
    for node in _module_statements(tree.body):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if _is_empty_container(node.value):
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def test_detector_sees_every_form():
    src = (
        "a = {}\n"
        "b: dict = {}\n"
        "c = set()\n"
        "d = e = dict()\n"
        "f = []\n"
        "if flag:\n"
        "    g = list()\n"
        "try:\n"
        "    pass\n"
        "except ImportError:\n"
        "    h = {}\n"
        "full = {1: 2}\n"
        "frozen = frozenset()\n"
        "items: list\n"
        "def fn():\n"
        "    local = {}\n"
        "class K:\n"
        "    attr = []\n"
    )
    found = [name for _, name in _empty_globals(ast.parse(src))]
    assert found == ["a", "b", "c", "d", "e", "f", "g", "h"]


def test_no_module_level_empty_containers():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        "%s:%d: %s" % (path.relative_to(PACKAGE), line, name)
        for path in modules
        for line, name in _empty_globals(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
