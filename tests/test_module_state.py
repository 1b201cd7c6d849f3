"""No unbounded memo lives at module level in the package.

A module-level name bound to an empty dict, list or set is a container
that code fills for the life of the process, which is how an unbounded
cache starts. Memos in the package are bounded `functools.lru_cache`s or
live on the object they describe. This test parses every module of the
package and fails on such a binding outside function and class bodies.
A second check fails on a functools cache without an explicit integer
maxsize: `functools.cache`, a bare `lru_cache`, or `maxsize=None`. A third
fails on any `global` statement: rebinding a module-level name from a
function is how a module-level memo of any shape, not only an empty
container, keeps state between calls.
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


def _unbounded_caches(tree):
    """(line, form) of each functools cache without an explicit integer
    maxsize: `cache`, a bare `lru_cache`, `lru_cache()` or a None size."""
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name == "cache":
                    yield node.lineno, "cache"
        if not isinstance(node, (ast.Name, ast.Attribute)):
            continue
        name = node.id if isinstance(node, ast.Name) else node.attr
        if isinstance(node, ast.Attribute) and name == "cache":
            yield node.lineno, "cache"
        if name != "lru_cache":
            continue
        call = calls.get(id(node))
        if call is None:
            yield node.lineno, "lru_cache"
            continue
        size = call.args[0] if call.args else next(
            (k.value for k in call.keywords if k.arg == "maxsize"), None)
        if not (isinstance(size, ast.Constant) and type(size.value) is int):
            yield node.lineno, "lru_cache"


def test_cache_detector_sees_every_form():
    src = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(): pass\n"
        "@functools.lru_cache(16, typed=True)\n"
        "def b(): pass\n"
        "@lru_cache\n"
        "def c(): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def d(): pass\n"
        "@functools.lru_cache(None)\n"
        "def e(): pass\n"
        "@functools.cache\n"
        "def f(): pass\n"
        "g = lru_cache(typed=True)(len)\n"
    )
    found = sorted(_unbounded_caches(ast.parse(src)))
    assert found == [(2, "cache"), (7, "lru_cache"), (9, "lru_cache"),
                     (11, "lru_cache"), (13, "cache"), (15, "lru_cache")]


def test_every_lru_cache_has_an_integer_maxsize():
    modules = sorted(PACKAGE.rglob("*.py"))
    found = [
        "%s:%d: %s" % (path.relative_to(PACKAGE), line, form)
        for path in modules
        for line, form in _unbounded_caches(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def _global_statements(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield node.lineno, name


def test_global_detector_sees_every_form():
    src = (
        "_memo = None\n"
        "def a():\n"
        "    global _memo\n"
        "    _memo = (1, 2)\n"
        "class K:\n"
        "    def b(self):\n"
        "        global x, y\n"
        "def c():\n"
        "    def inner():\n"
        "        global z\n"
        "    return inner\n"
        "global top\n"
    )
    found = sorted(_global_statements(ast.parse(src)))
    assert found == [(3, "_memo"), (7, "x"), (7, "y"), (10, "z"), (12, "top")]


def test_no_global_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    found = [
        "%s:%d: %s" % (path.relative_to(PACKAGE), line, name)
        for path in modules
        for line, name in _global_statements(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
