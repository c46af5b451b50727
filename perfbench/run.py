"""bigres benchmark: one seeded workload per invocation, checked and timed.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh worker
process (worker.py), one caller handling systems one after another (a closed
loop).  Before it, with --trace 0, SETUP_REPEATS more workers only set up, so
set-up time is a median too.  The last line of standard output is one JSON
object: correctness, systems attempted and failed, and the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).  A run record with
the machine, versions and every sample is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
# all the workers of one run must end within this many seconds
RUN_BUDGET_S = 170

COVERAGE_MIN = 0.95


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env(seed):
    """The workload's environment: bigres from src/, one OpenBLAS thread,
    and BIGRES_THREADS unset so Betti strands run on the caller's thread.

    A second OpenBLAS thread bought nothing on 2 vCPUs (raw tor-1-42 pass
    24-27.7 s with one thread, 24-27.4 s with two), and its spin-waiting on
    the sibling vCPU slowed the speed probe without slowing the pass, which
    spread wall_norm_s on tor-1-42 from about 3% to 7%.

    The string-hash seed is the workload seed.  Peak memory on tor-1-42
    depends on it: one input peaked at 108, 115 or 121 MB under different
    hash seeds, and always at the same value under one hash seed.  So a
    seed fixes the whole run, and ten seeds sample ten hash orders."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env.pop("BIGRES_THREADS", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_worker(args, extra, deadline):
    """Start worker.py, wait for it, return (spawn time, its JSON report).
    A worker still running at the monotonic ``deadline`` is killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(args.seed), cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(t_spawn, rep):
    """A worker's set-up time, from spawn to ready, less the probe burst
    that precedes set-up; raw and normalized to the reference speed."""
    raw = rep["ready"] - t_spawn - rep["probe_s"]
    return raw, raw * rep["speed"]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    try:
        # the ceiling keeps git from taking the commit of an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10, env=env,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bigres", "__init__.py")):
        print("error: src/bigres not found; run from the root of a bigres checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    deadline = time.monotonic() + RUN_BUDGET_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            t_spawn, rep = run_worker(args, ["--setup-only"], deadline)
            setups.append(setup_time(t_spawn, rep))
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", os.path.join(OUT, tag + ".spans.jsonl.gz")]
    t_spawn, rep = run_worker(args, extra, deadline)
    setups.append(setup_time(t_spawn, rep))

    passes = rep["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    problems = sorted({n for p in passes for n in p["notes"]})
    if args.trace:
        layer = rep["layer"]
        silent = [m for m in WORKLOADS[args.workload].fires if not layer.get(m)]
        if silent:
            problems.append(f"self-check: metrics did not fire: {silent}")
        if layer["trace.coverage_frac"] < COVERAGE_MIN:
            problems.append(f"self-check: trace.coverage_frac "
                            f"{layer['trace.coverage_frac']:.3f} < {COVERAGE_MIN}")
        if rep["unstable_counts"]:
            problems.append(f"self-check: counts differ between traced passes: "
                            f"{rep['unstable_counts']}")
        metrics = {m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = {"setup_s": statistics.median(norm for _, norm in setups),
                  "wall_norm_s": statistics.median(p["norm_s"] for p in passes
                                                   if p["probed"]),
                  "peak_rss_mb": passes[0]["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commit": git_commit(), "nproc": nproc(),
              "cpu": cpu_model(), "python": platform.python_version(),
              "bigres": rep["bigres"], **rep["env"],
              "samples": {"passes": len(passes), "untraced_passes": len(untraced),
                          "setups": len(setups)},
              "wall_s": statistics.median(untraced),
              "pass_wall_s": [p["wall_s"] for p in passes],
              "pass_norm_s": [p["norm_s"] for p in passes],
              "pass_probes": [p["probes"] for p in passes],
              "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
              "pass_traced": [p["traced"] for p in passes],
              "pass_probed": [p["probed"] for p in passes],
              "setup_raw_s": [raw for raw, _ in setups],
              "setup_norm_s": [norm for _, norm in setups], "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "problems": problems,
              "metrics": metrics}
    if args.trace:
        record["bindings"] = rep["bindings"]
    path = os.path.join(OUT, tag + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes "
          f"({len(untraced)} untraced), {len(setups)} set-ups, "
          f"nproc {record['nproc']}, BLAS threads {record['blas_threads']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  raw wall_s (median of untraced passes) = {record['wall_s']} s")
    print(f"  failed_frac = {record['failed_frac']} ({failed}/{attempted} systems)")
    for line in problems:
        print(f"  problem: {line}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
