"""Self-tests of the benchmark: metric lists, gates, exact counts.

    python3 -m pytest perfbench -q

The gate tests run each workload once on reduced inputs and show that the
gate passes on the true expected values and fails on a deliberately wrong
one.  The count test runs every workload's traced run twice on one seed and
requires every count to repeat exactly.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, LabQ, SweepGFp, Tor142  # noqa: E402
from worker import count_metric  # noqa: E402


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_the_workloads_and_layers():
    b = bench()
    assert [w["name"] for w in b["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in b["per_layer"]}
    fired = set().union(*(w.fires for w in WORKLOADS.values()))
    # every listed layer metric is required to fire on some workload
    assert fired == {n for n in per_layer if not n.startswith("trace.")}
    assert {m["name"] for m in b["end_to_end"]} == {"setup_s", "wall_norm_s", "peak_rss_mb"}


def test_tor_gate():
    inputs = Tor142.setup(3)
    cheap = [(1, 126), (3, 76), (6, 69)]
    inputs["degrees"] = cheap + [(2, 84)]
    inputs["expected"] = {a: m for a, m in inputs["expected"].items() if a in cheap}
    out = Tor142.run(inputs)
    assert Tor142.check(inputs, out) == (1, 0, [])
    wrong = copy.deepcopy(inputs)
    wrong["expected"][(3, 76)] += 1
    assert Tor142.check(wrong, out)[:2] == (1, 1)


def test_sweep_gate():
    inputs = SweepGFp.setup(3)
    inputs["systems"] = inputs["systems"][:2]
    outs = SweepGFp.run(inputs)
    assert SweepGFp.check(inputs, outs) == (2, 0, [])
    a, hf, h1, h2, h3 = outs[1]["cells"][5]
    outs[1]["cells"][5] = (a, hf + 1, h1, h2, h3)
    assert SweepGFp.check(inputs, outs)[:2] == (2, 1)
    outs[0]["rows"][0]["gen_match"] = False
    assert SweepGFp.check(inputs, outs)[:2] == (2, 2)


def test_lab_gate(monkeypatch):
    inputs = LabQ.setup(3)
    out = LabQ.run(inputs)
    assert LabQ.check(inputs, out) == (1, 0, [])
    monkeypatch.setattr(LabQ, "generic_beta1", {"1,9": 2, "3,5": 3})
    assert LabQ.check(inputs, out)[:2] == (1, 1)
    bad_schema = dict(inputs, schema=dict(inputs["schema"], required=["nosuchkey"]))
    monkeypatch.undo()
    assert LabQ.check(bad_schema, out)[:2] == (1, 1)


def traced_counts(workload, seed):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", "1"], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"], proc.stdout
    return {k: v["value"] for k, v in res["metrics"].items() if count_metric(k)}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload, 5)
    assert first["exactcore.rref.calls"] > 0
    assert traced_counts(workload, 5) == first
