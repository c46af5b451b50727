"""Smoke tests: each script under scripts/ runs on a small input and prints
its expected line."""

import os
import subprocess
import sys

import bigres

SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts")


def run_script(name, *args):
    # run against the package the tests imported, as test_nd_grid_cli_bytes does
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(bigres.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_plot_figures(tmp_path):
    lines = run_script("plot_figures.py", "--shapes", "1,2", "--out", str(tmp_path))
    svg = tmp_path / "beta1_1_2.svg"
    assert lines == [f"wrote {svg} (2 markers)"]
    assert svg.read_text().rstrip().endswith("</svg>")


def test_generic_survey():
    lines = run_script("generic_survey.py", "--shapes", "1,1;1,2", "--trials", "2")
    assert "d=(1, 1) trials=2 seed=0 field=GF(32003) box=(4, 4)" in lines
    assert "d=(1, 2) trials=2 seed=0 field=GF(32003) box=(4, 8)" in lines
    assert lines.count("generic: 2/2 (fraction 1.000), basepoint rejections: 0") == 2


def test_probe_structures():
    lines = run_script("probe_structures.py", "--n", "3")
    assert len(lines) == 9
    assert lines[1] == '  classify: {"evidence": {"syzygy_degree": [3, 3]}, "verdict": "SmoothConic"}'
    assert '"label": "random-control"' in lines[-1]


def test_dev_sign_search():
    lines = run_script("dev_sign_search.py", "--n", "5", "--points", "2")
    assert lines[0] == "n=5 seed=0: 2 surviving sign assignments out of 4096"
    # the first survivor is the convention betti.syz3star hard-codes
    assert lines[1] == ("  a=(+m12, -m02, +m01)  b=(+m15-m24, +m23-m05, +m04-m13)"
                        "  c=(+m45, -m35, +m34)")
    assert len(lines) == 3


def test_rref_replay():
    # tor-1-42 has matrices on both sides of the one-pass threshold
    lines = run_script("rref_replay.py", "--workload", "tor-1-42", "--seed", "1")
    assert lines[0] == "workload=tor-1-42 seed=1 best of 3"
    assert lines[1].split() == ["class", "calls", "pivots", "ms", "us/call", "us/pivot"]
    table = {row.split()[0]: row.split()[1:] for row in lines[2:]}
    widths, paths = ["<=8", "<=32", "<=256", ">256"], ["one-pass", "panels"]
    assert list(table) == widths + paths + ["all"]
    calls = {name: int(cells[0]) for name, cells in table.items()}
    pivots = {name: int(cells[1]) for name, cells in table.items()}
    assert all(calls[name] > 0 and pivots[name] > 0 for name in paths)
    for split in (widths, paths):
        assert sum(calls[name] for name in split) == calls["all"]
        assert sum(pivots[name] for name in split) == pivots["all"]
