"""Per-layer call tracing of cuspwatch from outside the package.

`Tracer.install` wraps every public function of the traced modules and a
list of methods, and rebinds each wrapper wherever a cuspwatch module holds
the original under a name (`bordered.solve_lp`, `sl4q.conj_ad_wedge`, the
package re-exports).  Methods are wrapped on their class.  A wrapper records
one span: its call count and its self time, which is its duration minus the
full duration of the traced spans nested in it.  Bookkeeping done outside
the timed part of a span (input keys, result counters) is charged to no
layer.  Spans live in memory; `metrics` reduces them at the end.

`profile_counts` counts calls of the same originals with `sys.setprofile`,
an independent route that sees every call whatever name it went through,
so comparing the two finds a binding the tracer missed.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

import mpmath

# modules whose public functions are wrapped (front end and data-only
# modules are left out)
MODULES = ("scalars", "matrix", "wedge", "loglin", "chars", "lattice", "lp",
           "bruhat", "radicals", "bordered", "cover", "divergence", "sl4q")

METHODS = {
    "loglin": {"LogLin": ("sign", "to_decimal")},
    "matrix": {"Mat": ("__mul__", "det", "rank", "rref", "kernel_basis", "inverse", "solve")},
    "bordered": {"BorderedSet": ("rho",)},
    "cover": {"CoverElement": ("is_active", "contains")},
}

ELIM = ("det", "rank", "rref", "kernel_basis", "inverse", "solve")
CERT_SPANS = ("divergence.build_certificate", "divergence.check_certificate")

# (metric, unit) in report order; see metrics() for the definitions
PER_LAYER = (
    ("lp.solve_lp.calls", "count"), ("lp.solve_lp.self_s", "s"),
    ("lp.solve_lp.infeasible_frac", "ratio"), ("lp.solve_lp.repeat_frac", "ratio"),
    ("lp.lp_feasible.calls", "count"),
    ("loglin.LogLin.sign.calls", "count"), ("loglin.LogLin.sign.self_s", "s"),
    ("loglin.iv_log.calls", "count"), ("loglin.interval_frac", "ratio"),
    ("loglin.LogLin.to_decimal.self_s", "s"),
    ("bordered.contract_step.calls", "count"), ("bordered.contract_step.self_s", "s"),
    ("bordered.is_bounded.calls", "count"), ("bordered.is_bounded.self_s", "s"),
    ("bordered.BorderedSet.rho.self_s", "s"),
    ("cover.build_cover.self_s", "s"),
    ("cover.CoverElement.is_active.calls", "count"), ("cover.CoverElement.is_active.self_s", "s"),
    ("cover.CoverElement.contains.calls", "count"), ("cover.CoverElement.contains.self_s", "s"),
    ("cover.active_frac", "ratio"),
    ("radicals.active_radicals.self_s", "s"),
    ("radicals.conj_ad_wedge.calls", "count"), ("radicals.conj_ad_wedge.self_s", "s"),
    ("radicals.radical_from_subspace.self_s", "s"), ("radicals.enumerate_witnesses.self_s", "s"),
    ("radicals.active_frac", "ratio"),
    ("wedge.wedge_of_vectors.calls", "count"), ("wedge.wedge_of_vectors.self_s", "s"),
    ("wedge.plucker.self_s", "s"), ("wedge.apply_wedge_matrix.self_s", "s"),
    ("matrix.elim.calls", "count"), ("matrix.elim.self_s", "s"),
    ("matrix.Mat.__mul__.self_s", "s"),
    ("divergence.search_witnesses.self_s", "s"), ("divergence.build_certificate.self_s", "s"),
    ("divergence.check_certificate.self_s", "s"),
    ("divergence.fan_lps", "count"), ("divergence.fan_cells", "count"),
    ("divergence.realizable_frac", "ratio"),
)


def _lp_key(v):
    """Hashable exact form of an LP argument; LogLin values by their terms."""
    if isinstance(v, (list, tuple)):
        return tuple(_lp_key(x) for x in v)
    if hasattr(v, "logs"):
        return ("log", v.rat, v.logs)
    return Fraction(v)


def _targets():
    """(span name, owner object, attribute, original) for everything traced."""
    out = []
    for mod_name in MODULES:
        mod = sys.modules["cuspwatch." + mod_name]
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                continue
            out.append(("%s.%s" % (mod_name, attr), mod, attr, fn))
        for cls_name, methods in METHODS.get(mod_name, {}).items():
            cls = getattr(mod, cls_name)
            for attr in methods:
                out.append(("%s.%s.%s" % (mod_name, cls_name, attr), cls, attr, vars(cls)[attr]))
    return out


class _Frame:
    __slots__ = ("name", "excluded", "flag")

    def __init__(self, name):
        self.name = name
        self.excluded = 0.0
        self.flag = False


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()     # derived counters for the ratios
        self.stack = []
        self._lp_seen = set()
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _on_call(self, name, args, kwargs):
        if name == "lp.solve_lp":
            key = _lp_key(self._lp_sig.bind(*args, **kwargs).args)
            if key in self._lp_seen:
                self.counts["lp.repeat"] += 1
            else:
                self._lp_seen.add(key)
        elif name == "radicals.conj_ad_wedge":
            if any(f.name == "radicals.active_radicals" for f in self.stack):
                self.counts["radicals.nested_conj"] += 1

    def _on_return(self, name, result):
        if name == "lp.solve_lp":
            self.counts["lp.infeasible"] += result.status == "infeasible"
        elif name == "lp.lp_feasible":
            if any(f.name in CERT_SPANS for f in self.stack):
                self.counts["divergence.fan_lps"] += 1
                self.counts["divergence.fan_cells"] += bool(result[0])
        elif name == "cover.CoverElement.is_active":
            self.counts["cover.active"] += bool(result)
        elif name == "radicals.active_radicals":
            self.counts["radicals.returned"] += len(result)

    def _wrap(self, name, fn):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        hooked = name in ("lp.solve_lp", "radicals.conj_ad_wedge")
        counted = name in ("lp.solve_lp", "lp.lp_feasible", "cover.CoverElement.is_active",
                           "radicals.active_radicals")
        is_sign = name == "loglin.LogLin.sign"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t_in = perf_counter()
            if hooked:
                self._on_call(name, args, kwargs)
            frame = _Frame(name)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += (t1 - t0) - frame.excluded
            if counted:
                self._on_return(name, result)
            if is_sign and frame.flag:
                self.counts["loglin.interval_signs"] += 1
            if stack:
                stack[-1].excluded += perf_counter() - t_in
            return result

        return span

    def _iv_log(self, fn):
        stack, counts = self.stack, self.counts

        def iv_log(*args, **kwargs):
            counts["loglin.iv_log"] += 1
            for f in reversed(stack):
                if f.name == "loglin.LogLin.sign":
                    f.flag = True
                    break
            return fn(*args, **kwargs)

        return iv_log

    # -- installation ------------------------------------------------------

    def install(self):
        targets = _targets()
        self._orig = {name: fn for name, _, _, fn in targets}
        self._lp_sig = inspect.signature(self._orig["lp.solve_lp"])
        wrapped = {}
        for name, owner, attr, fn in targets:
            w = self._wrap(name, fn)
            wrapped[id(fn)] = (fn, w)
            if inspect.isclass(owner):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, w)
        # rebind every module-level name that holds a wrapped original
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cuspwatch" or mod_name.startswith("cuspwatch.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        iv = mpmath.iv
        self._undo.append((iv, "log", vars(iv).get("log")))   # None: a class attribute
        iv.log = self._iv_log(iv.log)
        return self

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            if val is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, val)
        self._undo = []

    # -- reduction ---------------------------------------------------------

    def metrics(self):
        c, s, k = self.calls, self.self_s, self.counts

        def frac(a, b):
            return a / b if b else 0.0

        values = {}
        for name, unit in PER_LAYER:
            if name.endswith(".calls"):
                span = name[: -len(".calls")]
                v = sum(c["matrix.Mat." + e] for e in ELIM) if span == "matrix.elim" else c[span]
            elif name.endswith(".self_s"):
                span = name[: -len(".self_s")]
                v = sum(s["matrix.Mat." + e] for e in ELIM) if span == "matrix.elim" else s[span]
            else:
                v = {
                    "lp.solve_lp.infeasible_frac": frac(k["lp.infeasible"], c["lp.solve_lp"]),
                    "lp.solve_lp.repeat_frac": frac(k["lp.repeat"], c["lp.solve_lp"]),
                    "loglin.iv_log.calls": k["loglin.iv_log"],
                    "loglin.interval_frac": frac(k["loglin.interval_signs"], c["loglin.LogLin.sign"]),
                    "cover.active_frac": frac(k["cover.active"], c["cover.CoverElement.is_active"]),
                    "radicals.active_frac": frac(k["radicals.returned"], k["radicals.nested_conj"]),
                    "divergence.fan_lps": k["divergence.fan_lps"],
                    "divergence.fan_cells": k["divergence.fan_cells"],
                    "divergence.realizable_frac": frac(k["divergence.fan_cells"], k["divergence.fan_lps"]),
                }[name]
            values[name] = {"value": v, "unit": unit}
        return values

    # -- cross-check -------------------------------------------------------

    def profile_counts(self, fn, *args):
        """Run fn(*args) under sys.setprofile and count the calls that reach
        each traced original, keyed like the spans; returns (counts, result)."""
        codes = {orig.__code__: name for name, orig in self._orig.items()}
        counts = Counter()

        def prof(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    counts[name] += 1

        sys.setprofile(prof)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
        return counts, result

    def binding_mismatches(self, fn, *args):
        """Names whose span count differs from the profiler's count while
        fn(*args) runs; empty when every call went through a wrapper."""
        before = Counter(self.calls)
        counts, result = self.profile_counts(fn, *args)
        spans = self.calls - before
        names = set(counts) | set(spans)
        return {n: (spans[n], counts[n]) for n in sorted(names) if spans[n] != counts[n]}, result
