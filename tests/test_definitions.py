"""Every module-level definition in the package is read somewhere.

A function, class or assigned name that nothing reads is dead code: it is
kept in step with the code around it, and it suggests a use that is not
there. This test parses every module of the package and fails on a
module-level function, class or assignment whose name no expression in
`src`, `tests`, `scripts` or `perfbench` reads (as a name or as an
attribute), outside the lines of its own definition. The scan goes by name
alone, so a read of any object with the same name counts. A second test
fails on a function or class name that two modules of the package define,
and a third on a copy of the denominator-clearing expression outside
`scalars._cleared`.
"""

import ast
from pathlib import Path

import cuspwatch

PACKAGE = Path(cuspwatch.__file__).parent
ROOT = PACKAGE.parents[1]
READERS = ("src", "tests", "scripts", "perfbench")


def _definitions(body):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node


def _reads(trees):
    """name -> [(key, line)] of every name or attribute load."""
    out = {}
    for key, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.id, []).append((key, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.setdefault(node.attr, []).append((key, node.lineno))
    return out


def _unread_definitions(modules, trees):
    """(module key, line, name) of each definition in modules (key -> tree)
    that no tree in trees reads outside the definition's own lines."""
    reads = _reads(trees)
    for key, tree in modules.items():
        for name, node in _definitions(tree.body):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(k != key or not node.lineno <= line <= node.end_lineno
                       for k, line in reads.get(name, [])):
                yield key, node.lineno, name


def test_detector_sees_every_form():
    mod = ast.parse(
        "__all__ = ['used']\n"
        "Alias = int | float\n"
        "LIMIT: int = 3\n"
        "a, (b, c) = 1, (2, 3)\n"
        "def used():\n"
        "    return b\n"
        "def recursive(k):\n"
        "    return recursive(k - 1) if k else Alias\n"
        "class Node:\n"
        "    def make(self):\n"
        "        return Node()\n"
        "def by_attribute():\n"
        "    pass\n"
    )
    other = ast.parse("import mod\nmod.used()\nmod.by_attribute\nLIMIT = 4\nc\n")
    found = [name for _, _, name in
             _unread_definitions({"mod": mod}, {"mod": mod, "other": other})]
    assert found == ["LIMIT", "a", "recursive", "Node"]


def test_no_unread_module_level_definitions():
    trees = {p: ast.parse(p.read_text(), str(p))
             for d in READERS for p in sorted((ROOT / d).rglob("*.py"))}
    modules = {p: tree for p, tree in trees.items() if p.is_relative_to(PACKAGE)}
    assert modules
    found = ["%s:%d: %s" % (path.relative_to(PACKAGE), line, name)
             for path, line, name in _unread_definitions(modules, trees)]
    assert found == []


def test_no_function_or_class_name_is_defined_in_two_modules():
    # one implementation per job: a second module-level definition of a
    # name is a copy of a helper that should be imported instead
    where = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where.setdefault(node.name, []).append(str(path.relative_to(PACKAGE)))
    assert {name: mods for name, mods in where.items() if len(mods) > 1} == {}


def _is_clearing(node) -> bool:
    """Whether node is x.numerator * (d // x.denominator), in either order
    of the factors and under any names."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    for num, quo in ((node.left, node.right), (node.right, node.left)):
        if (isinstance(num, ast.Attribute) and num.attr == "numerator"
                and isinstance(quo, ast.BinOp) and isinstance(quo.op, ast.FloorDiv)
                and isinstance(quo.right, ast.Attribute) and quo.right.attr == "denominator"):
            return True
    return False


def _clearing_functions(tree) -> list:
    """Names of the innermost functions holding the clearing expression,
    in source order; None stands for module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if _is_clearing(node) and where not in found:
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_clearing_detector_sees_every_form():
    mod = ast.parse(
        "top = [v.numerator * (m // v.denominator) for v in row]\n"
        "def per_row(row, k):\n"
        "    return [x.numerator * (k // x.denominator) for x in row]\n"
        "def swapped(x, d):\n"
        "    return (d // x.denominator) * x.numerator\n"
        "def outer(rows, d):\n"
        "    def inner(x):\n"
        "        return x.numerator * (d // x.denominator)\n"
        "    return [inner(x) for r in rows for x in r]\n"
        "def not_clearing(x, d):\n"
        "    return x.numerator * d // x.denominator + x.numerator * (d / x.denominator)\n"
    )
    assert _clearing_functions(mod) == [None, "per_row", "swapped", "inner"]


def test_denominators_are_cleared_in_one_function():
    # one integer boundary: every rational row becomes integer through
    # scalars._cleared, so a second copy of its expression is a helper to
    # import instead
    sites = [(path.stem, name) for path in sorted(PACKAGE.rglob("*.py"))
             for name in _clearing_functions(ast.parse(path.read_text(), str(path)))]
    assert sites == [("scalars", "_cleared")]
