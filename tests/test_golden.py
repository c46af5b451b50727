"""Golden outputs of the explicit syzygy and resolution constructions, and
of the CLI over Q.

The resolution tests elsewhere assert only that a resolution verifies; these
pin every sign and coefficient of the differentials and syzygies.
golden_q.json pins the bytes of `bigres lab --field Q` and of betti, h1,
hf, generic and classify on the Q copies of the three tests/data systems:
the answers over Q that strands and betti read from a certified GF(p)
image.  Both files in tests/data were written by running this module as a
script from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from bigres.exactcore import GF
from bigres.bipoly import BiPoly, SystemF
from bigres.betti import alicia_syzygy, syz3star
from bigres.cli import dump_system, main
from bigres.lab import ExperimentConfig, sample_system

from helpers import data_path, random_form

FLD = GF(32003)
GOLDEN = data_path("golden_syzygies.json")
GOLDEN_Q = data_path("golden_q.json")
DATA_SYSTEMS = ("sys_bp", "sys_conic12", "sys_maps6")


def _resolve_stdout(path, case):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["resolve", path, "--case", case]) == 0
    return out.getvalue()


def _threepoint_system():
    # the seeded system of test_cli.py::test_resolve_threepoint
    s, t = BiPoly.variable(FLD, "s"), BiPoly.variable(FLD, "t")
    rng = random.Random(7)
    hs = [random_form(FLD, (0, 3), rng) for _ in range(3)]
    return SystemF(FLD, (1, 3), (s * hs[0], t * hs[1], (s + t) * hs[2]))


def _outputs(tmp_dir):
    path = tmp_dir / "threepoint.json"
    path.write_text(json.dumps(dump_system(_threepoint_system())))
    sys15 = sample_system(ExperimentConfig((1, 5), trials=1, seed=0))
    return {
        "resolve_conic": _resolve_stdout(data_path("sys_conic12.json"), "conic"),
        "resolve_threepoint": _resolve_stdout(str(path), "threepoint"),
        "alicia_1_5": [e.to_text() for e in alicia_syzygy(sys15).entries],
        "syz3star_1_5": [[e.to_text() for e in syz.entries] for syz in syz3star(sys15)],
    }


def test_golden_syzygies_and_resolutions(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert _outputs(tmp_path) == golden


def _run(argv):
    """[exit code, stdout, stderr] of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return [rc, out.getvalue(), err.getvalue()]


def _q_outputs(tmp_dir):
    runs = {}
    for seed in range(3):
        for d, trials in (("1,3", 1), ("1,2", 2)):
            argv = ["lab", "--d", d, "--field", "Q", "--seed", str(seed),
                    "--trials", str(trials), "--json"]
            runs[" ".join(argv)] = _run(argv)
    for name in DATA_SYSTEMS:
        # the same coefficients read as rationals
        with open(data_path(f"{name}.json")) as fh:
            obj = dict(json.load(fh), field="Q")
        path = tmp_dir / f"{name}_q.json"
        path.write_text(json.dumps(obj))
        for cmd in (["betti", "--box", "4,7", "--json"], ["h1", "--box", "4,7"],
                    ["hf", "--box", "4,7"], ["generic"], ["classify"]):
            runs[" ".join([cmd[0], f"{name}_q", *cmd[1:]])] = _run([cmd[0], str(path), *cmd[1:]])
    return runs


def test_golden_q_outputs(tmp_path):
    with open(GOLDEN_Q) as fh:
        golden = json.load(fh)
    assert _q_outputs(tmp_path) == golden


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        payloads = {GOLDEN: _outputs(Path(tmp)), GOLDEN_Q: _q_outputs(Path(tmp))}
    for path, payload in payloads.items():
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
