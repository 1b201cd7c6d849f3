"""Depth profile of the 355/113 shear under the diagonal flow.

A shear by a rational number sends one rational line to a coordinate
line, so the sheared lattice eventually dives into the cusp.  The dive
is carried by a single deep vector: here (-355, 113), whose image is
113 times a basis vector.  Every other primitive line of height below
355 keeps an expanding component of size at least 1/113, which pins the
sampled depth profile above the floor -2*log(113) for all s >= 0.

The experiment enumerates all primitive lines up to a height cap,
evaluates the exact profile on a forward ray, certifies the floor, and
then shows the excluded deep line breaking through it past
s = 2*log(113) ~ 9.45.

Run with --height 200 --smax 10 to reproduce the full-size table
(takes a few minutes; the default is a fast small-height version).
"""

import argparse
import sys
import time
from fractions import Fraction

from cuspwatch.chars import SubgroupSpec
from cuspwatch.loglin import LogLin
from cuspwatch.matrix import Mat
from cuspwatch.radicals import cusp_profile, enumerate_witnesses, radical_from_subspace


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--height", type=int, default=30,
                    help="candidate line height cap (default 30, must be < 355)")
    ap.add_argument("--smax", type=int, default=8, help="end of the sampled ray")
    ap.add_argument("--step", default="1", help="grid step, a rational like 1/2")
    ap.add_argument("--digits", type=int, default=12)
    args = ap.parse_args()
    if not 1 <= args.height < 355:
        ap.error("--height must be in [1, 355)")

    g = Mat.rationalize([[1, "355/113"], [0, 1]])
    A = SubgroupSpec.full_torus(2)
    floor = LogLin(0, ((113, -2),))

    t0 = time.monotonic()
    wits = enumerate_witnesses(2, args.height)
    step = Fraction(args.step)
    grid = []
    s = Fraction(0)
    while s <= args.smax:
        grid.append((s,))
        s += step
    prof = cusp_profile(g, A, grid, wits, digits=args.digits)
    dt = time.monotonic() - t0

    print("shear by 355/113, %d candidate lines (height <= %d), %d grid points, %.1fs"
          % (len(wits), args.height, len(grid), dt))
    print("%8s  %18s  %s" % ("s", "profile", "minimizing line"))
    violations = 0
    for (p, text), raw, w in zip(prof.rendered(), prof.values, prof.argmin):
        ok = (raw - floor).sign() >= 0
        violations += not ok
        line = tuple(int(w.p_std.coeff((i,))) for i in (1, 2))    # primitive, first nonzero > 0
        print("%8s  %18s  %s%s" % (p[0], text, line, "" if ok else "  BELOW FLOOR"))
    print("floor -2*log(113) = %s" % floor.to_decimal(args.digits))
    if violations:
        sys.exit("%d profile values fell below the floor" % violations)
    print("floor certified on all %d points" % len(grid))

    # the deep line alone: it crosses the floor once s > 2*log(113)
    deep = radical_from_subspace([[-355, 113]], 2)
    tail = [(Fraction(s),) for s in (8, 9, 10, 11)]
    single = cusp_profile(g, A, tail, [deep], digits=args.digits)
    print("\ndeep line (-355, 113) on its own:")
    for (p, text), raw in zip(single.rendered(), single.values):
        side = "above" if (raw - floor).sign() >= 0 else "below"
        print("%8s  %18s  %s the floor" % (p[0], text, side))


if __name__ == "__main__":
    main()
