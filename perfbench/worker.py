"""One workload in a fresh process: set up, run timed passes, report JSON.

Started by run.py.  With --setup-only it stops once the inputs are built
and reports the monotonic time it got there, so the parent can time set-up
from process start, and the speed probes taken around set-up.  Otherwise
it runs passes for about --seconds and prints one JSON object on stdout.

Pass and set-up times are reported raw and speed-normalized.  The
interpreter speed of a small shared VM swings by a fifth or more within
seconds, as other tenants load the cores, which moves raw times far beyond
any useful regression bound.  A SpeedProbe times a fixed piece of Python
work every PROBE_INTERVAL_S during each untraced pass after the first, and
SETUP_PROBES times back to back just before and just after set-up.  The
normalized time is the raw time less the probes, scaled by the mean probe
speed relative to REF_PROBE_S, raised to the workload's speed_exponent
(workloads.py): the time the work would take at the reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


PROBE_INTERVAL_S = 0.02
# the probe mixes interpreter-bound small-int work with Bareiss-style big-int
# steps, the two kinds of work the passes slow down on under contention
PROBE_LOOPS = 3000
PROBE_BIG = tuple(3 ** (400 + i) for i in range(8))
# the probe's time at full speed on the 2-vCPU Xeon the bounds were set on;
# a constant, so normalized times compare across runs and commits
REF_PROBE_S = 3.4e-4
# probes run back to back just before and just after set-up, to normalize it
SETUP_PROBES = 15


class SpeedProbe:
    """Samples interpreter speed, on a SIGALRM timer while a pass runs or
    back to back around set-up."""

    def __init__(self):
        self.samples = []

    def _probe(self, signum=None, frame=None):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        a = PROBE_BIG
        for _ in range(30):
            x = (a[0] * a[1] - a[2] * a[3]) // a[4]
            acc += (a[5] * a[6] - a[7] * x) // a[4]
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def burst(self, n):
        """Take n samples back to back; return the time they took."""
        t0 = time.perf_counter()
        for _ in range(n):
            self._probe()
        return time.perf_counter() - t0

    def speed(self, exponent=1.0):
        """Mean speed over the samples, relative to the reference speed,
        raised to the power by which the timed work follows the probe."""
        return statistics.mean((REF_PROBE_S / c) ** exponent for c in self.samples)

    def normalize(self, wall, exponent):
        """(pass time less the probes, the same at the reference speed)."""
        if not self.samples:
            return wall, wall
        work = wall - sum(self.samples)
        return work, work * self.speed(exponent)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_metric(name):
    """Metrics that are counts and must repeat exactly on the same inputs."""
    return name.endswith(".calls") or name in ("exactcore.rref.cells",
                                               "exactcore.rref.repeat_frac")


def blas_info():
    """numpy version, BLAS library, and the BLAS thread count in this process."""
    import ctypes
    import numpy as np
    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def layer_metrics(tracer, traced_walls, untraced_walls):
    """Median per-layer metrics over the traced passes, plus self-checks."""
    from tracer import pass_metrics
    per_pass = [pass_metrics(spans, info, wall)
                for (spans, info), wall in zip(tracer.passes, traced_walls)]
    names = sorted(set().union(*per_pass))
    out, unstable = {}, []
    for name in names:
        vals = [m.get(name, 0) for m in per_pass]
        if count_metric(name):
            if len(set(vals)) > 1:
                unstable.append(name)
            out[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                  / statistics.median(untraced_walls) - 1.0)
    return out, unstable


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file to write the recorded spans to")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    probe = SpeedProbe()
    probe_s = probe.burst(SETUP_PROBES)
    import bigres  # set-up time includes the package import
    inputs = wl.setup(args.seed)
    ready = time.monotonic()
    probe.burst(SETUP_PROBES)
    setup = {"ready": ready, "probe_s": probe_s, "speed": probe.speed()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    passes = []
    deadline = ready + args.seconds
    while True:
        # the first pass runs without probe signals, so that when they arrive
        # cannot change what it allocates; peak_rss_mb is taken from it.
        # Then untraced (probed) and traced passes alternate.
        probed = bool(passes) and (tracer is None or len(passes) % 2 == 0)
        traced = bool(passes) and not probed
        if traced:
            tracer.install()
        with probe if probed else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.run(inputs)
            wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            tracer.end_pass()
        work, norm = probe.normalize(wall, wl.speed_exponent) if probed else (wall, None)
        rss = peak_rss_mb()  # before the gate, which imports jsonschema
        attempted, failed, notes = wl.check(inputs, out)
        del out
        passes.append({"traced": traced, "probed": probed, "wall_s": work,
                       "norm_s": norm, "probes": len(probe.samples) if probed else 0,
                       "peak_rss_mb": rss,
                       "attempted": attempted, "failed": failed, "notes": notes})
        # stop when one more pass would end nearer past the deadline than
        # short of it, so a run measures about --seconds of passes; the
        # second pass is probed, or traced in a traced run
        if time.monotonic() + wall / 2 >= deadline and len(passes) >= 2:
            break

    report = {**setup, "passes": passes,
              "bigres": bigres.__version__, "env": blas_info()}
    if tracer is not None:
        walls = {flag: [p["wall_s"] for p in passes if p["traced"] == flag]
                 for flag in (True, False)}
        layer, unstable = layer_metrics(tracer, walls[True], walls[False])
        report.update(layer=layer, unstable_counts=unstable,
                      bindings=tracer.binding_count)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
