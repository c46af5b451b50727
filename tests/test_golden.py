"""Golden outputs of the explicit syzygy and resolution constructions.

The resolution tests elsewhere assert only that a resolution verifies; these
pin every sign and coefficient of the differentials and syzygies.  The file
tests/data/golden_syzygies.json was written by running this module as a
script from the repository root:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

import io
import json
import random
from contextlib import redirect_stdout

from bigres.exactcore import GF
from bigres.bipoly import BiPoly, SystemF
from bigres.betti import alicia_syzygy, syz3star
from bigres.cli import dump_system, main
from bigres.lab import ExperimentConfig, sample_system

from helpers import data_path, random_form

FLD = GF(32003)
GOLDEN = data_path("golden_syzygies.json")


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


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        payload = _outputs(Path(tmp))
    with open(GOLDEN, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
