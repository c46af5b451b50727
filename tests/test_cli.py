import json
import os
import random
from fractions import Fraction

import jsonschema
import pytest

from bigres.exactcore import GF, QQ
from bigres.bipoly import BiPoly, SystemF
from bigres.combinat import chi, nd, neg_part, pos_part, render_grid
from bigres.strands import h1_dim
from bigres.betti import betti_table
from bigres.cli import dump_system, load_system, main

from helpers import data_path, load_json, random_form

FLD = GF(32003)
CONIC12 = data_path("sys_conic12.json")
MAPS6 = data_path("sys_maps6.json")
BP = data_path("sys_bp.json")


SCHEMAS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "docs", "schemas")


def _write_system(tmp_path, sys_, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(dump_system(sys_)))
    return str(path)


def test_nd_golden_bytes(capsys):
    assert main(["nd", "--d", "1,6", "--box", "10,20"]) == 0
    out = capsys.readouterr().out
    with open(data_path("nd_grid_1_6.txt")) as fh:
        assert out == fh.read()


def test_chi_grids(capsys):
    assert main(["chi", "--d", "1,1", "--box", "3,3"]) == 0
    out = capsys.readouterr().out
    d = (1, 1)
    expected = ""
    for label, fn in (("chi", lambda a: chi(d, a)),
                      ("chi_plus", lambda a: pos_part(chi(d, a))),
                      ("chi_minus", lambda a: neg_part(chi(d, a))),
                      ("nd", lambda a: nd(d, a))):
        grid = [[fn((a1, a2)) for a2 in range(4)] for a1 in range(4)]
        expected += label + "\n" + render_grid(grid)
    assert out == expected


@pytest.mark.parametrize("argv,schema", [
    (["betti", CONIC12, "--box", "4,7", "--json"], "betti.schema.json"),
    (["betti", MAPS6, "--box", "4,7", "--convention", "quotient", "--json"],
     "betti.schema.json"),
    (["classify", CONIC12], "classification.schema.json"),
    (["classify", MAPS6], "classification.schema.json"),
    (["lab", "--d", "1,2", "--trials", "2", "--json"], "lab_report.schema.json"),
    (["lab", "--d", "1,1", "--field", "Q", "--trials", "1", "--json"],
     "lab_report.schema.json"),
], ids=["betti", "betti-quotient", "classify-conic", "classify-maps6", "lab", "lab-Q"])
def test_json_output_matches_schema(capsys, argv, schema):
    assert main(argv) == 0
    with open(os.path.join(SCHEMAS, schema)) as fh:
        jsonschema.validate(json.loads(capsys.readouterr().out), json.load(fh))


def test_h1_grid_matches_library(capsys):
    assert main(["h1", CONIC12, "--box", "3,5"]) == 0
    out = capsys.readouterr().out
    sys_ = load_system(CONIC12)
    grid = [[h1_dim(sys_, (a1, a2)) for a2 in range(6)] for a1 in range(4)]
    assert out == render_grid(grid)


def test_betti_cli_matches_library(capsys):
    assert main(["betti", CONIC12, "--box", "4,7", "--json"]) == 0
    out = capsys.readouterr().out
    sys_ = load_system(CONIC12)
    assert out == betti_table(sys_, box=(4, 7)).to_json() + "\n"
    assert main(["betti", CONIC12, "--box", "4,7", "--convention", "quotient"]) == 0
    out = capsys.readouterr().out
    table = betti_table(sys_, box=(4, 7), convention="QuotientConvention")
    assert out == table.to_text() + "\n"


def test_resolve_conic(capsys):
    assert main(["resolve", CONIC12, "--case", "conic"]) == 0
    out = capsys.readouterr().out
    assert "resolution verified" in out
    for block in ("d1 (degrees", "d2 (degrees", "d3 (degrees"):
        assert block in out


def test_resolve_threepoint(tmp_path, capsys):
    s, t = BiPoly.variable(FLD, "s"), BiPoly.variable(FLD, "t")
    rng = random.Random(7)
    hs = [random_form(FLD, (0, 3), rng) for _ in range(3)]
    sys_ = SystemF(FLD, (1, 3), (s * hs[0], t * hs[1], (s + t) * hs[2]))
    path = _write_system(tmp_path, sys_)
    assert main(["resolve", path, "--case", "threepoint"]) == 0
    assert "resolution verified" in capsys.readouterr().out


def test_resolve_error_paths(tmp_path, capsys):
    # basepointed input is a computation error, not a usage error
    assert main(["resolve", BP, "--case", "conic"]) == 1
    assert "not basepoint-free" in capsys.readouterr().err
    rng = random.Random(8)
    vecs = [[FLD.rand(rng) for _ in range(8)] for _ in range(3)]
    generic = SystemF(FLD, (1, 3),
                      [BiPoly.from_vector(FLD, (1, 3), v) for v in vecs])
    path = _write_system(tmp_path, generic)
    assert main(["resolve", path, "--case", "threepoint"]) == 1
    assert "factorization" in capsys.readouterr().err
    assert main(["resolve", path, "--case", "conic"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["32003", "Q"])
def test_basepoint_witness_prints_field_elements(tmp_path, capsys, field):
    # the witness reads the same over both fields: coordinates are printed
    # as field elements, never as Fraction reprs
    obj = load_json("sys_bp.json")
    obj["field"] = field
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(obj))
    assert main(["resolve", str(path), "--case", "conic"]) == 1
    assert capsys.readouterr().err == ("error: system is not basepoint-free: "
                                       "HasBasepoint at ((0, 1), (0, 1))\n")


def test_classify_cli(capsys):
    assert main(["classify", CONIC12]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "SmoothConic"


def test_classify_degenerate_conic_is_one_line_error(capsys):
    # the basepointed system makes detect_conic raise ImpossibleFactorization
    assert main(["classify", BP]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: conic syzygy coefficients span a "
                            "degenerate quadric space\n")


def test_generic_cli(capsys):
    assert main(["generic", MAPS6]) == 0
    assert "NotGeneric(witness (3, 6))" in capsys.readouterr().out


def test_usage_errors(tmp_path, capsys):
    assert main(["nd", "--d", "1,6"]) == 2  # missing --box
    capsys.readouterr()
    assert main(["nd", "--d", "3", "--box", "4,4"]) == 2
    assert "comma-separated" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "32003",\n  "d": [1, 1\n}')
    assert main(["betti", str(bad), "--box", "4,4"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:1" in err  # line:col from the JSON decoder
    assert main(["betti", str(tmp_path / "missing.json"), "--box", "4,4"]) == 2
    capsys.readouterr()
    incomplete = tmp_path / "short.json"
    incomplete.write_text(json.dumps({"field": "32003", "d": [1, 1],
                                      "polys": [[["1", 1, 0, 1, 0]]]}))
    assert main(["betti", str(incomplete), "--box", "4,4"]) == 2
    assert "3 polynomials" in capsys.readouterr().err
    # a zero denominator is a malformed file too, named in one line
    zero_den = tmp_path / "q0.json"
    zero_den.write_text(json.dumps({"field": "Q", "d": [1, 1], "polys": [
        [["1/0", 1, 0, 1, 0]], [["1", 0, 1, 0, 1]], [["1", 1, 0, 0, 1]]]}))
    assert main(["hf", str(zero_den), "--box", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert str(zero_den) in captured.err
    # so is a bad "field", which names the file like every other one
    for field in ("4", "x"):
        bad_field = tmp_path / f"field_{field}.json"
        bad_field.write_text(json.dumps({"field": field, "d": [1, 1], "polys": []}))
        assert main(["hf", str(bad_field), "--box", "1,1"]) == 2, field
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, field
        assert captured.err.startswith(f"error: {bad_field}: "), field
    # a negative --box entry is a usage error, not a crash or an empty grid
    for argv in (["nd", "--d", "1,6", "--box=-1,3"],
                 ["hf", MAPS6, "--box=-1,2"],
                 ["h1", MAPS6, "--box", "3,-1"],
                 ["plot", MAPS6, "--box=-1,2", "-o", str(tmp_path / "neg.svg")]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert "--box" in captured.err, argv
    assert not (tmp_path / "neg.svg").exists()
    # so is a genericity box below (3d1+1, 3d2+1), which cannot cover the
    # critical ranges
    for argv in (["generic", CONIC12, "--box", "3,6"], ["lab", "--d", "1,2", "--box", "3,6"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: box too small: need at least (4,7)\n"
    # --d below (1,1) and --trials below 1 are usage errors too, reported
    # before any computation and by the flag the user gave
    small_d = "error: --d entries must be at least 1\n"
    for argv, err in ((["lab", "--d", "0,2"], small_d),
                      (["lab", "--d", "1,2", "--trials", "0"],
                       "error: --trials must be at least 1\n"),
                      (["chi", "--d", "0,2", "--box", "3,3"], small_d),
                      (["nd", "--d", "0,2", "--box", "3,3"], small_d)):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == err, argv
    # an output file in a missing directory is refused before computing
    for flag, argv in (("-o", ["plot", MAPS6, "--box", "10,20", "-o"]),
                       ("--csv", ["lab", "--d", "1,3", "--trials", "2", "--csv"])):
        path = str(tmp_path / "missing" / f"out{flag}")
        assert main(argv + [path]) == 2, flag
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {path}: no such directory\n"


def test_svg_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["plot", CONIC12, "--box", "4,7", "-o", str(out1)]) == 0
    assert main(["plot", CONIC12, "--box", "4,7", "-o", str(out2)]) == 0
    capsys.readouterr()
    data1, data2 = out1.read_bytes(), out2.read_bytes()
    assert data1 == data2
    text = data1.decode()
    assert text.startswith('<?xml version="1.0"')
    assert text.rstrip().endswith("</svg>")
    assert "<title>beta1(" in text


def test_plot_marks_every_beta1_of_a_net_with_basepoints(tmp_path, capsys):
    # sys_bp has beta1 at (1,2) and (2,1), where the phi model's h1_dim is
    # 0; the plot reads them off the Betti table of the whole box
    out = tmp_path / "bp.svg"
    assert main(["plot", BP, "--box", "6,6", "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} (2 markers)\n"
    text = out.read_text()
    assert text.count("<title>beta1(") == 2


def test_svg_empty_points(tmp_path, capsys):
    rng = random.Random(9)
    vecs = [[FLD.rand(rng) for _ in range(4)] for _ in range(3)]
    sys_ = SystemF(FLD, (1, 1), [BiPoly.from_vector(FLD, (1, 1), v) for v in vecs])
    path = _write_system(tmp_path, sys_)
    out = tmp_path / "empty.svg"
    assert main(["plot", path, "--box", "2,2", "-o", str(out)]) == 0
    assert "(0 markers)" in capsys.readouterr().out
    text = out.read_text()
    assert "<title>" not in text and "</svg>" in text


def test_dump_load_roundtrip_gf(tmp_path):
    sys_ = load_system(CONIC12)
    path = _write_system(tmp_path, sys_)
    again = load_system(path)
    assert again.d == sys_.d
    assert [f.coeffs for f in again.polys] == [f.coeffs for f in sys_.polys]


def test_dump_load_roundtrip_rational(tmp_path):
    half = Fraction(1, 2)
    polys = [BiPoly.from_vector(QQ, (1, 1), vec) for vec in
             ([half, 0, 0, 1], [0, 1, 0, 3], [0, 0, 1, 0])]
    sys_ = SystemF(QQ, (1, 1), polys)
    dumped = dump_system(sys_)
    assert any("1/2" in str(term[0]) for term in dumped["polys"][0])
    path = _write_system(tmp_path, sys_)
    again = load_system(path)
    assert not again.field.is_prime_field
    assert [f.coeffs for f in again.polys] == [f.coeffs for f in sys_.polys]


def test_lab_cli(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    assert main(["lab", "--d", "1,1", "--trials", "2", "--seed", "5",
                 "--json", "--csv", str(csv_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["genericCount"] == 2
    assert data["trials"] == 2
    assert csv_path.read_text().splitlines()[0] == "trial,a1,a2,dimH1,nd,hf,chi"
    assert main(["lab", "--d", "1,1", "--trials", "2", "--seed", "5"]) == 0
    assert "generic: 2/2" in capsys.readouterr().out
