"""cuspwatch benchmark: one seeded workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload contraction --seed 1 --seconds 15 --trace 0

Workloads: contraction, containment, fan, radicals (see workloads.py and
README.md).  The program is imported from the checkout's `src`; it runs in
this one process and thread, one op after another (a closed loop with one
client).  Every op's output is checked exactly.

--trace 0 times whole cycles of ops (see workloads.py) for at most
--seconds, at least one cycle, and reports the end-to-end metrics:
ops_per_s (checked ops per second of op time), op_p50_ms, op_p90_ms,
setup_s (import, input generation and shared program work; median of
several fresh processes) and peak_rss_mb.  Times are scaled to a fixed
host speed, sampled on a timer during and between the ops (see
Speedometer); the raw wall-clock figures go to standard error.

--trace 1 runs a fixed number of ops under the tracer, so that call counts
repeat exactly for one seed, and reports the per-layer metrics.  It also
cross-checks the tracer against sys.setprofile and checks the golden CLI
and script outputs.

At the default seed both modes also compare a digest of the first ops'
canonical outputs with the one recorded in data/digests.json.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# ops per traced run; at the default seed the same prefix of ops is digested
TRACE_OPS = {"contraction": 60, "containment": 400, "fan": 20, "radicals": 24}
SETUP_SAMPLES = 3

# The shared 2-vCPU host ran the same work up to 1.7 times faster in some
# 10-second windows than in others, and its speed also moved within a
# one-second op.  So a timer signal samples the host speed every
# SAMPLE_EVERY_S, during ops and between them: the handler times a small
# Fraction kernel (its second run, the first warming it up, with the
# garbage collector off so that the program's young objects are not
# scanned in it).  Each op time is scaled by KERNEL_NOMINAL_S over the
# median kernel time of the samples taken during the op or within
# WINDOW_S of it, at least MIN_SAMPLES of them.  KERNEL_NOMINAL_S is near
# the kernel's time on that host in its fast periods; only ratios matter.
# Time spent in the handler is left out of every measured span.
KERNEL_NOMINAL_S = 0.00025
SAMPLE_EVERY_S = 0.025
WINDOW_S = 0.1
MIN_SAMPLES = 9


def _kernel():
    a, s = Fraction(1, 3), Fraction(0)
    for k in range(1, 60):
        s += a * Fraction(k, k + 1)


class Speedometer:
    """Host-speed samples on a timer signal, and a clock that stops while
    the samples are taken."""

    def __init__(self):
        self.samples = []       # (time of the sample, kernel seconds)
        self.spent = 0.0        # seconds spent in the signal handler

    def _sample(self, signum, frame):
        t0 = perf_counter()
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            _kernel()
            t = perf_counter()
            _kernel()
            t1 = perf_counter()
        finally:
            if gc_was_on:
                gc.enable()
        self.samples.append((t, t1 - t))
        self.spent += perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def stop(self):
        """Stop the timer; a short span gets its samples right after it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < MIN_SAMPLES:
            self._sample(None, None)

    def clock(self) -> float:
        """perf_counter without the time spent in the handler."""
        return perf_counter() - self.spent

    def scales(self, spans):
        """For each (start, end) span of perf_counter times, the factor from
        its wall time to its time at the nominal host speed."""
        times = [t for t, _ in self.samples]
        factors = []
        for start, end in spans:
            w = WINDOW_S
            while True:
                lo = bisect.bisect_left(times, start - w)
                hi = bisect.bisect_right(times, end + w)
                if hi - lo >= MIN_SAMPLES or (lo == 0 and hi == len(times)):
                    break
                w *= 2
            factors.append(KERNEL_NOMINAL_S / statistics.median(k for _, k in self.samples[lo:hi]))
        return factors


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("contraction", "containment", "fan", "radicals"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program():
    sys.path.insert(0, str(SRC))
    import cuspwatch

    if Path(cuspwatch.__file__).resolve().parent != SRC / "cuspwatch":
        raise ImportError("cuspwatch was not imported from %s" % SRC)


def _digest(canons) -> str:
    blob = json.dumps(canons, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class Runner:
    """Runs and checks ops of one workload, keeping the digest prefix."""

    def __init__(self, wl, state, seed, clock=perf_counter):
        self.wl, self.state, self.clock = wl, state, clock
        self.inputs = wl.inputs(seed, state)
        self.digesting = seed == DEFAULT_SEED
        self.canons = []
        self.attempted = 0
        self.failed = 0

    def step(self):
        """One op; returns (seconds spent in the op, passed its check)."""
        inp = next(self.inputs)
        t = self.clock()
        try:
            out = self.wl.op(self.state, inp)
            dt = self.clock() - t
            ok = bool(self.wl.check(self.state, inp, out))
        except Exception:
            dt = self.clock() - t
            traceback.print_exc()
            out, ok = None, False
        self.attempted += 1
        self.failed += not ok
        if not ok:
            print("failed op %d: %r" % (self.attempted - 1, inp), file=sys.stderr)
        if self.digesting and len(self.canons) < TRACE_OPS[self.wl.name]:
            self.canons.append(self.wl.canon(inp, out) if ok else None)
        return dt, ok

    def digest_ok(self):
        """True unless this is the default seed and the outputs changed."""
        if not self.digesting:
            return True
        while len(self.canons) < TRACE_OPS[self.wl.name]:
            self.step()
        recorded = json.loads((HERE / "data" / "digests.json").read_text())[self.wl.name]
        got = _digest(self.canons)
        if got != recorded:
            print("digest mismatch for %s: %s != %s" % (self.wl.name, got, recorded),
                  file=sys.stderr)
        return got == recorded


def _setup_sample(workload, seed) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _run_ops(runner, meter, done):
    """Run ops until done(ops run, seconds since the first) holds, then
    stop the meter; returns the scaled and the raw op times, the number of
    ops that passed and the wall time of the phase."""
    ops, passed = [], 0
    t0 = perf_counter()
    while not ops or not done(len(ops), perf_counter() - t0):
        start = perf_counter()
        dt, ok = runner.step()
        ops.append((start, perf_counter(), dt))
        passed += ok
    phase = perf_counter() - t0
    meter.stop()
    raw = [dt for _, _, dt in ops]
    factors = meter.scales([(a, b) for a, b, _ in ops])
    return [dt * f for dt, f in zip(raw, factors)], raw, passed, phase


def _setup_s(meter, span):
    start, end, raw = span
    return raw * meter.scales([(start, end)])[0]


def _timed(runner, meter, seconds, setup_span, workload, seed):
    cycle = runner.wl.cycle
    # whole cycles only, and no cycle that would end past --seconds
    durations, raw, passed, phase = _run_ops(
        runner, meter, lambda n, elapsed: n % cycle == 0 and elapsed * (1 + cycle / n) > seconds)
    # the unscaled wall-clock figures, for comparison with the scaled ones
    print("raw wall clock: " + json.dumps({
        "phase_ops_per_s": passed / phase,
        "ops_per_s": passed / sum(raw),
        "op_p50_ms": statistics.median(raw) * 1e3,
        "op_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        "kernel_ms": statistics.median(k for _, k in meter.samples) * 1e3,
        "samples": len(meter.samples)}), file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest_ok = runner.digest_ok()
    setups = [_setup_s(meter, setup_span)]
    setups += [_setup_sample(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    p90 = statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else durations[0]
    print("%s: %d timed ops, setup samples %s" % (workload, len(durations),
          ", ".join("%.3f" % s for s in setups)), file=sys.stderr)
    metrics = {
        "ops_per_s": (passed / sum(durations), "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return digest_ok, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _one_op(wl, seed):
    """Set-up and the first op of a workload, for the tracer cross-check."""
    state = wl.setup(seed)
    return wl.op(state, next(wl.inputs(seed, state)))


def _traced(runner, meter, tracer, workload):
    import golden
    import workloads

    t = perf_counter()
    durations, _, _, _ = _run_ops(runner, meter, lambda n, _: n == TRACE_OPS[workload])
    metrics = tracer.metrics()
    # compare with 1000 / ops_per_s of an untraced run for the tracing overhead
    print("%s: %d traced ops, mean op time %.4g ms (scaled as in --trace 0)"
          % (workload, len(durations), statistics.mean(durations) * 1e3), file=sys.stderr)
    # every traced call must also be seen by the profiler, and vice versa
    mismatches, _ = tracer.binding_mismatches(_one_op, workloads.small(workload), DEFAULT_SEED)
    tracer.uninstall()
    print("%s: tracer cross-check done at %.3f s" % (workload, perf_counter() - t), file=sys.stderr)
    for name, (spans, profiled) in mismatches.items():
        print("tracer binding: %s has %d spans but %d profiled calls" % (name, spans, profiled),
              file=sys.stderr)
    bad_golden = golden.check()
    for name in bad_golden:
        print("golden output differs: %s" % name, file=sys.stderr)
    return runner.digest_ok() and not mismatches and not bad_golden, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    meter = Speedometer().start()
    w0, t0 = perf_counter(), meter.clock()
    try:
        _import_program()
        import workloads
    except ImportError as e:
        meter.stop()
        print("error: cannot import the program: %s" % e, file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    state = wl.setup(args.seed)
    setup_span = (w0, perf_counter(), meter.clock() - t0)
    if args.setup_only:
        meter.stop()
        print(json.dumps({"setup_s": _setup_s(meter, setup_span)}))
        return 0
    runner = Runner(wl, state, args.seed, meter.clock)
    if tracer is not None:
        ok, metrics = _traced(runner, meter, tracer, args.workload)
    else:
        ok, metrics = _timed(runner, meter, args.seconds, setup_span, args.workload, args.seed)
    print(json.dumps({
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
