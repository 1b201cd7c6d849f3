"""The README CLI examples and both scripts reproduce their recorded bytes.

The cases and the recorded outputs live with the benchmark in `perfbench/`
(`perfbench/golden.py`, `perfbench/data/golden/`); this test runs the same
check in tier-1, so every refactor is held to byte-identical output.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import golden  # noqa: E402


def test_golden_cli_and_script_bytes():
    assert golden.check() == []
