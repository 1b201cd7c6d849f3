"""Record the benchmark's reference data in perfbench/data.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py            # radicals counts, golden outputs and digests
    python3 perfbench/record.py --corpus   # also redraw the fan corpus

The fan corpus is drawn from a fixed stream of random SL3 matrices (entry
height <= 10): the first 4 whose witness family certifies and the first 6
whose family leaves a direction uncovered, in drawing order.  Recording
the verdicts lets a run fix the mix of the two; recording the number of
witnesses and fan cells of each, and the number of radicals of each
(base, eps) pair of the radicals workload, lets every op check that its
answer is complete, not only sound.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import run


def _fan_corpus(workloads):
    fan = workloads.WORKLOADS["fan"]
    from cuspwatch import chars

    T = chars.SubgroupSpec.full_torus(3)
    rng = random.Random("fan-corpus")
    want = {"certified": 4, "uncovered": 6}
    corpus = []
    while want["certified"] or want["uncovered"]:
        g = workloads.random_sl(3, rng, 10)
        ws, cert, _ = fan.op((None, T), (None, g))
        verdict = "certified" if cert is not None else "uncovered"
        if want[verdict]:
            want[verdict] -= 1
            corpus.append({"g": g.to_json(), "verdict": verdict, "witnesses": len(ws),
                           "cells": 0 if cert is None else len(cert.fan)})
            print("fan corpus: %d %s" % (len(corpus), verdict), file=sys.stderr)
    return corpus


def _radicals_counts(workloads):
    rad = workloads.WORKLOADS["radicals"]
    bases = rad.bases()
    return {key: len(rad.op(None, (bases[k], eps, key))) for k, eps, key in rad.pairs()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", action="store_true", help="redraw the fan corpus")
    args = ap.parse_args()
    run._import_program()
    import golden
    import workloads

    data = run.HERE / "data"
    data.mkdir(exist_ok=True)
    if args.corpus:
        corpus = _fan_corpus(workloads)
        (data / "fan_corpus.json").write_text(json.dumps(corpus, indent=1) + "\n")
    counts = _radicals_counts(workloads)
    (data / "radicals_counts.json").write_text(json.dumps(counts, indent=1) + "\n")
    digests = {}
    for name, wl in workloads.WORKLOADS.items():
        runner = run.Runner(wl, wl.setup(run.DEFAULT_SEED), run.DEFAULT_SEED)
        for _ in range(run.TRACE_OPS[name]):
            runner.step()
        if runner.failed:
            sys.exit("%s: %d ops failed their check; nothing recorded" % (name, runner.failed))
        digests[name] = run._digest(runner.canons)
        print("digest %s %s" % (name, digests[name]), file=sys.stderr)
    (data / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    golden.record()


if __name__ == "__main__":
    main()
