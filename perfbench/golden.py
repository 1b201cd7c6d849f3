"""Byte-exact golden outputs of the README CLI examples and both scripts.

Each case runs in its own interpreter, as a user would run it, against the
checkout's `src`.  The only masked field is the wall-clock time in the
header line of `golden_shear_profile.py`.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "data" / "golden"

CLI = "cli"
SCRIPT = "script"

# (file stem, kind, arguments) -- the CLI lines are the README's examples
CASES = (
    ("bruhat_factor", CLI, ["bruhat", "factor", "--matrix", "[[0,1],[-1,0]]"]),
    ("radicals_search", CLI, ["radicals", "search", "--matrix", '[["5","0"],["0","1/5"]]',
                              "--eps", "1/10", "--height", "3"]),
    ("radicals_profile", CLI, ["radicals", "profile", "--matrix", '[[2,0],[0,"1/2"]]',
                               "--grid", "1:1", "--csv"]),
    ("bordered_bounded", CLI, ["bordered", "check", "--what", "bounded",
                               "--phi", "[[1,0],[0,1],[-1,-1]]", "--gauge", "1/8"]),
    ("bordered_intersect", CLI, ["bordered", "check", "--what", "intersect", "--phi", "[[1,0]]",
                                 "--c", "1/2", "--phi2", "[[-1,0]]", "--c2", "-3/4"]),
    ("cover_local", CLI, ["cover", "local", "--matrix", "[[1,0],[0,1]]", "--radius", "1",
                          "--c0", "-2", "--height", "3"]),
    ("diverge_check", CLI, ["diverge", "check", "--matrix", "[[1,0],[0,1]]",
                            "--subspace", "[[1,0]]", "--subspace", "[[0,1]]"]),
    ("sl4_demo", CLI, ["sl4", "demo", "--alpha=-3,-1,1,3"]),
    ("sl4_verify_periodicity", CLI, ["sl4", "verify-periodicity"]),
    ("golden_shear_profile", SCRIPT, ["scripts/golden_shear_profile.py"]),
    ("sl4_certificates", SCRIPT, ["scripts/sl4_certificates.py"]),
)

_TIMING = re.compile(rb"(grid points, )[0-9.]+s\n")


def run_case(kind, args) -> bytes:
    """Exit code line plus the exact stdout bytes of one case."""
    env = dict(os.environ)
    env.pop("CUSPWATCH_PRECISION", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, "-m", "cuspwatch.cli", *args] if kind == CLI else [sys.executable, *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120, check=False)
    out = _TIMING.sub(rb"\1<masked>s\n", proc.stdout, count=1)
    return b"exit %d\n" % proc.returncode + out


def check() -> list:
    """Names of the cases whose bytes differ from the recorded ones."""
    return [name for name, kind, args in CASES
            if run_case(kind, args) != (GOLDEN / (name + ".out")).read_bytes()]


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, kind, args in CASES:
        (GOLDEN / (name + ".out")).write_bytes(run_case(kind, args))
