"""Decision paths in the package and the scripts raise named errors or
exit, never `assert`.

`python -O` strips `assert` statements, so a check written as one would
silently stop deciding anything. This test parses every module of the
package and every script and fails on an `assert` statement or a
`raise AssertionError`.
"""

import ast
from pathlib import Path

import cuspwatch

PACKAGE = Path(cuspwatch.__file__).parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _assert_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_detector_sees_every_form():
    src = "assert x\nraise AssertionError('y')\nraise AssertionError\nraise ValueError\n"
    assert [line for line, _ in _assert_sites(ast.parse(src))] == [1, 2, 3]


def test_no_assert_on_decision_paths():
    modules = sorted(PACKAGE.rglob("*.py"))
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert modules and scripts
    found = [
        "%s:%d: %s" % (path.relative_to(path.parents[1]), line, what)
        for path in modules + scripts
        for line, what in _assert_sites(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
