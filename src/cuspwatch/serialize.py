"""Shared JSON conventions for the command-line surface.

Rationals travel as "p/q" strings in both directions so no output ever
passes through binary floating point. Objects expose `to_json`; this
module flattens the results into plain JSON trees and renders them with
a fixed, deterministic layout.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from .errors import PreconditionError
from .matrix import Mat
from .scalars import _rational, frac, frac_str


def jsonable(x):
    """Recursively convert exact values into a JSON-ready tree."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        raise PreconditionError("refusing to serialize a finite float")
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    to_json = getattr(x, "to_json", None)
    if callable(to_json):
        return jsonable(to_json())
    raise PreconditionError("no JSON form for %r" % type(x).__name__)


def dumps(x) -> str:
    return json.dumps(jsonable(x), separators=(", ", ": "))


def reject_float(text: str):
    """`json.loads` parse_float hook: input rationals are integers or "p/q"
    strings, never binary floats."""
    raise PreconditionError("JSON number %s is not an integer; write it as a quoted \"p/q\"" % text)


def parse_vectors(text: str) -> list:
    """List of rational vectors from JSON rows of integer or "p/q" entries."""
    rows = json.loads(text, parse_float=reject_float)
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise PreconditionError("expected a JSON array of rows")
    return [[_rational(x) for x in r] for r in rows]


def parse_matrix(text: str) -> Mat:
    """Matrix from a JSON array of rows with "p/q" or integer entries."""
    return Mat(parse_vectors(text))


def parse_csv_fracs(text: str) -> tuple:
    """Comma-separated rationals, e.g. "-3,-1,1,3" or "1/2,0"."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise PreconditionError("expected comma-separated rationals")
    return tuple(frac(p) for p in parts)


def run_manifest(argv, version: str, digits: int) -> dict:
    """The manifest line of a run: its command line, that line's sha256,
    the package version and the decimal precision of the output."""
    canon = json.dumps(list(argv), separators=(",", ":"))
    return {
        "command_line": list(argv),
        "parameter_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
        "version": version,
        "precision_digits": digits,
    }
