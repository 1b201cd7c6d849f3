"""Divergence certificates for the quaternionic degree-4 demo.

Builds the two-witness divergence certificate for the plane subgroup in
both exponent regimes (the symmetric one where the expanding block pair
is (1,3) and an asymmetric one where it is (1,4)), prints the fan, and
evaluates each owning witness's depth along its ray at t = 1, 2, 4, 8
to show the strict decrease.  A tampered run with one witness dropped
demonstrates the failure mode: an explicit uncovered direction.
"""

import json
import sys
from fractions import Fraction

from cuspwatch.divergence import ray_profile
from cuspwatch.sl4q import gr_plus, sl4_divergence_demo, v_g_check

TIMES = (Fraction(1), Fraction(2), Fraction(4), Fraction(8))


def show(alpha):
    print("alpha = %s   block pair %s, dim V_G / stabilizer = %s"
          % (alpha, gr_plus(alpha), v_g_check(alpha)))
    demo = sl4_divergence_demo(alpha)
    if not demo.ok:
        sys.exit("demo did not certify")
    cert = demo.certificate
    print("  witnesses:  %s" % [w.label or w.to_json() for w in cert.witnesses])
    print("  hyperplanes: %s" % (cert.hyperplanes,))
    for cell in cert.fan:
        w = cert.witnesses[cell.witness_index]
        prof = ray_profile(w, cert.subgroup, cell.direction, TIMES)
        decs = [v.to_decimal(10) for v in prof]
        if any((b - a).sign() != -1 for a, b in zip(prof, prof[1:])):
            sys.exit("depth does not strictly decrease on cell %s" % (cell.pattern,))
        print("  cell %-10s dir %-10s owner %d  depth %s"
              % (cell.pattern, cell.direction, cell.witness_index, decs))
    print("  strict decrease certified on every fan cell")


def main():
    for alpha in ((-3, -1, 1, 3), (-4, -1, 2, 3)):
        show(alpha)
        print()
    tampered = sl4_divergence_demo((-3, -1, 1, 3), tamper=True)
    if tampered.ok:
        sys.exit("the tampered run certified")
    print("tampered run (one witness dropped): %s"
          % json.dumps(tampered.to_json(), sort_keys=True))


if __name__ == "__main__":
    main()
