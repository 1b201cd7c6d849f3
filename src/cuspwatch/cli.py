"""Command-line front end: one binary, six subcommand families.

All results go to standard output as JSON (or CSV where the result is a
table and --csv is passed); diagnostics go to standard error. Exit codes:
0 success, 2 rejected input, 1 internal error, 64 unknown subcommand.
Outputs are deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .bordered import (
    BorderedSet,
    ConvexSpec,
    Gauge,
    intersect_nonempty,
    invdim,
    is_bounded,
    is_k_trivial,
    positively_nontrivial,
)
from .bruhat import bruhat_factor
from .chars import Character, SubgroupSpec, box_points
from .cover import build_cover, enumerate_local, good_restrictions, verify_subcover
from .divergence import _analyze, _verdict_json, search_witnesses
from .errors import PreconditionError
from .radicals import (
    active_radicals,
    cusp_profile,
    enumerate_witnesses,
    radical_from_subspace,
)
from .scalars import _rational, frac, frac_str
from .serialize import (dumps, parse_csv_fracs, parse_matrix,
                        parse_vectors, reject_float, run_manifest)
from .sl4q import gr_plus, sl4_divergence_demo, verify_periodicity, x_membership

USAGE = """usage: cuspwatch <command> <action> [options]

commands:
  bruhat    factor --matrix JSON
  radicals  search --matrix JSON --eps p/q --height H [--mode brute|reduction]
            profile --matrix JSON --grid R:STEP [--subgroup JSON] [--height H]
  bordered  check --what nontrivial|bounded|invdim|ktrivial|intersect ...
  cover     build|local|goodres|verify ...
  diverge   check|search ...
  sl4       verify-periodicity | grplus --alpha a1,a2,a3,a4
            | xmember --basis JSON | demo --alpha a1,a2,a3,a4 [--tamper]

common flags: --csv (tables only), --manifest (prepend a run manifest line)
"""

# flags whose values may start with "-" (negative rationals); argparse only
# accepts those in --flag=value form, so merge the split form up front
_VALUE_FLAGS = (
    "--alpha", "--c0", "--eps", "--gauge", "--delta", "--radius",
    "--c", "--c2", "--core-c",
)


def _merge_value_flags(argv: list) -> list:
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def _parser(prog: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cuspwatch " + prog, allow_abbrev=False)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--manifest", action="store_true")
    return p


def _subgroup(args, n: int) -> SubgroupSpec:
    if getattr(args, "subgroup", None):
        return SubgroupSpec(n, tuple(tuple(r) for r in parse_vectors(args.subgroup)))
    return SubgroupSpec.full_torus(n)


def _gauge(args) -> Gauge | None:
    if getattr(args, "gauge", None) is None:
        return None
    return Gauge.linear(frac(args.gauge))


def _bordered_pairs(phi_text: str, c_text: str | None):
    rows = parse_vectors(phi_text)
    if c_text:
        try:
            data = json.loads(c_text, parse_float=reject_float)
        except json.JSONDecodeError:
            data = c_text          # a bare rational like 1/2
        if not isinstance(data, list):
            data = [data]
        consts = [_rational(x) for x in data]
    else:
        consts = [Fraction(0)] * len(rows)
    if len(consts) != len(rows):
        raise PreconditionError("one constant per functional is required")
    return tuple((tuple(r), c) for r, c in zip(rows, consts))


def _grid(spec: str, dim: int):
    parts = spec.split(":")
    if len(parts) != 2:
        raise PreconditionError("grid must be RADIUS:STEP, e.g. 2:1/2")
    return box_points(dim, frac(parts[0]), frac(parts[1]))


def _run_bruhat(argv) -> object:
    p = _parser("bruhat")
    p.add_argument("action", choices=["factor"])
    p.add_argument("--matrix", required=True)
    args = p.parse_args(argv)
    fac = bruhat_factor(parse_matrix(args.matrix))
    return args, {
        "w": fac.w.to_json(),
        "n": fac.n.to_json(),
        "w0": fac.w0.to_json(),
        "b": fac.b.to_json(),
        "bound": frac_str(fac.bound),
    }


def _run_radicals(argv) -> object:
    p = _parser("radicals")
    p.add_argument("action", choices=["search", "profile"])
    p.add_argument("--matrix", required=True)
    p.add_argument("--eps")
    p.add_argument("--height", type=int, default=3)
    p.add_argument("--mode", choices=["brute", "reduction"], default="brute")
    p.add_argument("--grid")
    p.add_argument("--subgroup")
    p.add_argument("--digits", type=int)
    args = p.parse_args(argv)
    g = parse_matrix(args.matrix)
    if args.action == "search":
        if args.eps is None:
            raise PreconditionError("search needs --eps p/q")
        hits = active_radicals(g, frac(args.eps), args.height, method=args.mode)
        return args, [
            {"witness": h.witness.to_json(), "norm": frac_str(h.norm)} for h in hits
        ]
    if args.grid is None:
        raise PreconditionError("profile needs --grid RADIUS:STEP")
    A = _subgroup(args, g.nrows)
    witnesses = enumerate_witnesses(g.nrows, args.height)
    if not witnesses:
        raise PreconditionError("no witnesses at this height bound")
    grid = _grid(args.grid, A.dim)
    args.digits = _digits(args)
    return args, cusp_profile(g, A, grid, witnesses, digits=args.digits)


def _run_bordered(argv) -> object:
    p = _parser("bordered")
    p.add_argument("action", choices=["check"])
    p.add_argument(
        "--what",
        required=True,
        choices=["nontrivial", "bounded", "invdim", "ktrivial", "intersect"],
    )
    p.add_argument("--phi")
    p.add_argument("--c")
    p.add_argument("--phi2")
    p.add_argument("--c2")
    p.add_argument("--gauge")
    p.add_argument("--points")
    p.add_argument("--rays")
    p.add_argument("--k", type=int)
    args = p.parse_args(argv)

    if args.what == "ktrivial" or (args.what == "invdim" and args.phi is None):
        pts = parse_vectors(args.points) if args.points else []
        rays = parse_vectors(args.rays) if args.rays else []
        S = ConvexSpec(
            points=tuple(tuple(r) for r in pts), rays=tuple(tuple(r) for r in rays)
        )
        if args.what == "invdim":
            return args, {"result": invdim(S)}
        if args.k is None:
            raise PreconditionError("ktrivial needs --k")
        return args, {"result": is_k_trivial(S, args.k)}

    if args.phi is None:
        raise PreconditionError("this check needs --phi")

    if args.what == "nontrivial":
        ok, cert = positively_nontrivial([tuple(r) for r in parse_vectors(args.phi)])
        key = "v" if ok else "lambda"
        return args, {"result": ok, key: [frac_str(x) for x in cert]}

    pairs = _bordered_pairs(args.phi, args.c)
    l = len(pairs[0][0])
    gauge = _gauge(args) or Gauge.zero()
    U = BorderedSet(l, pairs, gauge)
    if args.what == "bounded":
        return args, {"result": is_bounded(U)}
    if args.what == "invdim":
        return args, {"result": invdim(U.zero_gauge())}
    # intersect: second set optional, defaults to the first
    if args.phi2:
        pairs2 = _bordered_pairs(args.phi2, args.c2)
        V = BorderedSet(len(pairs2[0][0]), pairs2, Gauge.zero())
        ok, point = intersect_nonempty([U, V])
    else:
        ok, point = intersect_nonempty([U])
    return args, {
        "result": ok,
        "point": [frac_str(x) for x in point] if point is not None else None,
    }


def _run_cover(argv) -> object:
    p = _parser("cover")
    p.add_argument("action", choices=["build", "local", "goodres", "verify"])
    p.add_argument("--matrix")
    p.add_argument("--subgroup")
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--c0", default="0")
    p.add_argument("--gauge")
    p.add_argument("--radius", default="2")
    p.add_argument("--delta", default="1")
    p.add_argument("--psi")
    p.add_argument("--l", type=int)
    p.add_argument("--core-phi", dest="core_phi")
    p.add_argument("--core-c", dest="core_c")
    args = p.parse_args(argv)

    if args.action == "goodres":
        if not (args.subgroup and args.psi) or args.l is None:
            raise PreconditionError("goodres needs --subgroup, --psi and --l")
        rows = parse_vectors(args.subgroup)
        A = SubgroupSpec(len(rows[0]), tuple(tuple(r) for r in rows))
        Psi = [Character(tuple(r)) for r in parse_vectors(args.psi)]
        ok, bad = good_restrictions(A, Psi, args.l)
        return args, {
            "result": ok,
            "violating": [ch.to_json() for ch in bad] if bad else None,
        }

    if not args.matrix:
        raise PreconditionError("this action needs --matrix")
    g = parse_matrix(args.matrix)
    A = _subgroup(args, g.nrows)

    if args.action == "local":
        hits = enumerate_local(g, A, frac(args.radius), frac(args.c0), args.height)
        return args, [w.to_json() for w in hits]

    candidates = enumerate_witnesses(g.nrows, args.height)
    elements = build_cover(g, A, candidates, C0=frac(args.c0), gauge=_gauge(args))
    if args.action == "build":
        return args, [e.to_json() for e in elements]

    if not (args.core_phi):
        raise PreconditionError("verify needs --core-phi (and optional --core-c)")
    pairs = _bordered_pairs(args.core_phi, args.core_c)
    core = BorderedSet(A.dim, pairs, Gauge.zero())
    report = verify_subcover(elements, frac(args.radius), frac(args.delta), core)
    return args, report.to_json()


def _run_diverge(argv) -> object:
    p = _parser("diverge")
    p.add_argument("action", choices=["check", "search"])
    p.add_argument("--matrix", required=True)
    p.add_argument("--subgroup")
    p.add_argument("--subspace", action="append", default=[])
    p.add_argument("--height", type=int, default=2)
    args = p.parse_args(argv)
    g = parse_matrix(args.matrix)
    A = _subgroup(args, g.nrows)
    if args.action == "search":
        return args, [w.to_json() for w in search_witnesses(g, A, args.height)]
    if not args.subspace:
        raise PreconditionError("check needs at least one --subspace")
    ws = [radical_from_subspace(parse_vectors(t), g.nrows) for t in args.subspace]
    return args, _verdict_json(*_analyze(g, A, ws))


def _run_sl4(argv) -> object:
    p = _parser("sl4")
    p.add_argument(
        "action", choices=["verify-periodicity", "grplus", "xmember", "demo"]
    )
    p.add_argument("--alpha")
    p.add_argument("--basis")
    p.add_argument("--tamper", action="store_true")
    args = p.parse_args(argv)
    if args.action == "verify-periodicity":
        return args, {"ok": verify_periodicity()}
    if args.action == "grplus":
        if not args.alpha:
            raise PreconditionError("grplus needs --alpha a1,a2,a3,a4")
        pair, dim = gr_plus(parse_csv_fracs(args.alpha))
        return args, {"pair": list(pair), "dim": dim}
    if args.action == "xmember":
        if not args.basis:
            raise PreconditionError("xmember needs --basis JSON")
        pair = x_membership(parse_vectors(args.basis))
        return args, {"pair": list(pair)}
    if not args.alpha:
        raise PreconditionError("demo needs --alpha a1,a2,a3,a4")
    res = sl4_divergence_demo(parse_csv_fracs(args.alpha), tamper=args.tamper)
    return args, res.to_json()


_RUNNERS = {
    "bruhat": _run_bruhat,
    "radicals": _run_radicals,
    "bordered": _run_bordered,
    "cover": _run_cover,
    "diverge": _run_diverge,
    "sl4": _run_sl4,
}


def _digits(args) -> int:
    """The decimal digits of rendered values: --digits when given, else the
    environment variable CUSPWATCH_PRECISION, else 50; either must be
    positive."""
    digits = getattr(args, "digits", None)
    source, raw = "--digits", digits
    if digits is None:
        source, raw = "CUSPWATCH_PRECISION", os.environ.get("CUSPWATCH_PRECISION", "50")
        try:
            digits = int(raw)
        except ValueError:
            digits = 0
    if digits < 1:
        raise PreconditionError("%s must be a positive integer, got %r" % (source, raw))
    return digits


def _emit(command: str, argv, args, result) -> None:
    """Render everything before writing, so a rejected input prints nothing."""
    if args.csv:
        to_csv = getattr(result, "to_csv", None)
        if not callable(to_csv):
            raise PreconditionError("this subcommand has no CSV form")
        text = to_csv()
    else:
        text = dumps(result) + "\n"
    if args.manifest:
        manifest = run_manifest([command] + list(argv), __version__, _digits(args))
        text = dumps(manifest) + "\n" + text
    sys.stdout.write(text)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in _RUNNERS:
        sys.stderr.write(USAGE)
        return 64
    command, rest = argv[0], _merge_value_flags(argv[1:])
    try:
        args, result = _RUNNERS[command](rest)
        _emit(command, rest, args, result)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader closed stdout early; point it at devnull so the
        # interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except SystemExit as e:
        # argparse already printed its message (help exits 0, errors 2)
        return 0 if not e.code else 2
    except ValueError as e:     # a PreconditionError is a ValueError
        sys.stderr.write("error: %s\n" % e)
        return 2
    except Exception as e:   # pragma: no cover - internal failure path
        sys.stderr.write("internal error: %s: %s\n" % (type(e).__name__, e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
