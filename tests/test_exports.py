"""The package's export list is exactly what its `__init__` imports.

Cutting a name from the API means deleting its import and its `__all__`
entry together. A stale entry breaks only `from cuspwatch import *`, and a
forgotten one leaves the name public, so both directions are checked.
"""

import ast
from pathlib import Path

import cuspwatch


def _public_imports():
    tree = ast.parse(Path(cuspwatch.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_exported_name_resolves():
    for name in cuspwatch.__all__:
        assert hasattr(cuspwatch, name), name
    namespace = {}
    exec("from cuspwatch import *", namespace)
    assert set(cuspwatch.__all__) <= set(namespace)


def test_exports_equal_public_imports():
    assert len(set(cuspwatch.__all__)) == len(cuspwatch.__all__)
    assert sorted(cuspwatch.__all__) == sorted(_public_imports())
