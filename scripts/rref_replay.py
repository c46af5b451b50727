#!/usr/bin/env python3
"""Replay the GF(p) eliminations of one benchmark pass.

Runs one pass of a perfbench workload (perfbench/workloads.py, imported and
used as it is), records the arguments of every exactcore._rref_prime call
it makes, over Q lifts included, and then eliminates each recorded matrix
again, best of 3, with nothing else running.  Prints calls, pivots and
time per pivot by matrix width, and by the path _rref_prime took: its
one-pass Gauss-Jordan (exactcore._rref_one_pass) or its 32-wide panels:

    python scripts/rref_replay.py --workload tor-1-42 --seed 1

Run it with one BLAS thread (OPENBLAS_NUM_THREADS=1), as the benchmark's
workers do, so the numbers compare with a benchmark pass.
"""

import argparse
import os
import sys
import time

import numpy as np

from bigres import exactcore

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import WORKLOADS  # noqa: E402

CLASSES = (("<=8", 8), ("<=32", 32), ("<=256", 256), (">256", None))


def record(workload, seed):
    """[(matrix, p, path)] for every _rref_prime call of one pass, in call
    order; path is "one-pass" or "panels"."""
    wl = WORKLOADS[workload]
    inputs = wl.setup(seed)
    calls = []
    kernel, one_pass = exactcore._rref_prime, exactcore._rref_one_pass
    took = []

    def recording(a, p):
        took.clear()
        a = np.array(a, copy=True)
        out = kernel(a, p)
        calls.append((a, p, "one-pass" if took else "panels"))
        return out

    def marking(a, p):
        took.append(True)
        return one_pass(a, p)

    exactcore._rref_prime, exactcore._rref_one_pass = recording, marking
    try:
        wl.run(inputs)
    finally:
        exactcore._rref_prime, exactcore._rref_one_pass = kernel, one_pass
    return calls


def replay(calls):
    """[(width, path, pivots, best of 3 seconds)] per recorded call."""
    out = []
    for a, p, path in calls:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _, piv = exactcore._rref_prime(a, p)
            best = min(best, time.perf_counter() - t0)
        out.append((a.shape[1], path, len(piv), best))
    return out


def width_class(n):
    return next(name for name, top in CLASSES if top is None or n <= top)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    rows = replay(record(args.workload, args.seed))
    print(f"workload={args.workload} seed={args.seed} best of 3")
    print(f"{'class':>8} {'calls':>6} {'pivots':>7} {'ms':>9} {'us/call':>8} {'us/pivot':>9}")
    for name in [c for c, _ in CLASSES] + ["one-pass", "panels", "all"]:
        sel = [(k, t) for n, path, k, t in rows if name in ("all", path, width_class(n))]
        calls, pivots, secs = len(sel), sum(k for k, _ in sel), sum(t for _, t in sel)
        per_call = f"{1e6 * secs / calls:8.1f}" if calls else f"{'-':>8}"
        per_pivot = f"{1e6 * secs / pivots:9.2f}" if pivots else f"{'-':>9}"
        print(f"{name:>8} {calls:6d} {pivots:7d} {1e3 * secs:9.2f} {per_call} {per_pivot}")


if __name__ == "__main__":
    main()
