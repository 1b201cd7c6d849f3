"""The benchmark's tracer still finds everything it wraps.

`perfbench/tracer.py` binds its spans by module, class and attribute name,
so a refactor that drops or renames a traced function breaks traced
benchmark runs; this test catches that in tier-1.
"""

import importlib
import sys
from pathlib import Path

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_every_traced_span_resolves():
    for mod in tracer.MODULES:
        importlib.import_module("cuspwatch." + mod)
    names = {target[0] for target in tracer._targets()}
    spans = {"lp.solve_lp", "lp.lp_feasible"}
    spans |= {"%s.%s.%s" % (mod, cls, attr)
              for mod, classes in tracer.METHODS.items()
              for cls, attrs in classes.items() for attr in attrs}
    for metric, _ in tracer.PER_LAYER:
        for suffix in (".calls", ".self_s"):
            if metric.endswith(suffix):
                span = metric[: -len(suffix)]
                if span == "matrix.elim":
                    spans |= {"matrix.Mat." + e for e in tracer.ELIM}
                elif span != "loglin.iv_log":   # counted on mpmath.iv.log
                    spans.add(span)
    assert sorted(spans - names) == []
    assert callable(mpmath.iv.log)
