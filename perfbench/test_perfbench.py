"""Checks of the benchmark's own machinery; run from the repository root:

    python3 -m pytest -q perfbench

The tracer must see every call the profiler sees (a missed rebinding shows
as a count mismatch), and a traced run's counts must repeat exactly for one
seed and follow the inputs when the seed changes.  Each count comes from a
fresh process, because the program memoizes across calls.  The host-speed
meter's clock must leave out the time its samples take.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# ops per count run
SMALL = {"contraction": 4, "containment": 40, "fan": 2, "radicals": 1}
EXACT = ("lp.solve_lp.repeat_frac", "loglin.iv_log.calls", "divergence.fan_lps")


def _counts(name, seed):
    """Traced counts and first canonical output of a small run, in a fresh process."""
    proc = subprocess.run([sys.executable, __file__, name, str(seed)], cwd=HERE.parent,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracer_sees_every_profiled_call(name):
    wl = workloads.small(name)
    tracer = Tracer().install()
    try:
        mismatches, _ = tracer.binding_mismatches(run._one_op, wl, 5)
    finally:
        tracer.uninstall()
    assert mismatches == {}
    assert sum(tracer.calls.values()) > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_for_one_seed(name):
    a, b, c = _counts(name, 7), _counts(name, 7), _counts(name, 8)
    assert a == b
    assert a["first"] != c["first"]
    exact = [k for k in a["metrics"] if k.endswith(".calls") or k in EXACT]
    assert any(a["metrics"][k] for k in exact)


def test_speedometer_clock_leaves_out_its_samples():
    meter = run.Speedometer().start()
    w0, c0 = run.perf_counter(), meter.clock()
    while run.perf_counter() - w0 < 0.5:
        sum(range(1000))
    w1, c1 = run.perf_counter(), meter.clock()
    meter.stop()
    assert len(meter.samples) >= 0.5 / run.SAMPLE_EVERY_S / 2
    assert 0 < meter.spent < 0.5
    assert abs((w1 - w0) - (c1 - c0) - meter.spent) < 0.1 * meter.spent
    (factor,) = meter.scales([(w0, w1)])
    assert factor > 0


def _main(name, seed):
    wl = workloads.small(name)
    tracer = Tracer().install()
    runner = run.Runner(wl, wl.setup(seed), seed)
    runner.digesting = True
    for _ in range(SMALL[name]):
        runner.step()
    tracer.uninstall()
    metrics = {k: v["value"] for k, v in tracer.metrics().items()
               if k.endswith(".calls") or k in EXACT}
    print(json.dumps({"metrics": metrics, "first": runner.canons[0], "failed": runner.failed}))


if __name__ == "__main__":
    _main(sys.argv[1], int(sys.argv[2]))
