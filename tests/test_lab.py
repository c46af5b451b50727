import json
import sys

import pytest

from bigres import exactcore, lab, segre
from bigres.exactcore import GF, QQ
from bigres.bipoly import BiPoly, SystemF, strand_dim
from bigres.lab import (ExperimentConfig, generic_report, probe_system, rs_check,
                        sample_system)
from bigres.strands import critical_ranges
from bigres.cli import load_system

from helpers import data_path

FLD = GF(32003)


def _maps6():
    return load_system(data_path("sys_maps6.json"))


def test_config_validation():
    cfg = ExperimentConfig((1, 2))
    assert cfg.box == (4, 8)
    assert cfg.field.p == 32003
    with pytest.raises(ValueError, match="at least one trial"):
        ExperimentConfig((1, 1), trials=0)
    with pytest.raises(ValueError, match="box"):
        ExperimentConfig((1, 2), box=(2, 8))
    # is_generic's bound: (3d1, 3d2) itself is too small
    with pytest.raises(ValueError, match=r"box too small: need at least \(4,7\)"):
        ExperimentConfig((1, 2), box=(3, 6))


def test_sampling_deterministic():
    cfg = ExperimentConfig((1, 1), trials=2, seed=9)
    a = sample_system(cfg, 0)
    b = sample_system(cfg, 0)
    assert [f.coeffs for f in a.polys] == [f.coeffs for f in b.polys]
    c = sample_system(cfg, 1)
    assert [f.coeffs for f in a.polys] != [f.coeffs for f in c.polys]


def test_d11_report_clean():
    cfg = ExperimentConfig((1, 1), trials=3, seed=5)
    rep = generic_report(cfg)
    assert rep.generic_count == 3
    assert rep.fraction_generic == 1.0
    assert rep.mismatches == []
    assert rep.rs_violations == []
    assert rep.nongeneric == []
    assert rep.betti_histogram == {(1, 3): 3, (3, 1): 3}
    assert "generic: 3/3" in rep.summary()


def test_report_json_bitwise_deterministic():
    cfg = ExperimentConfig((1, 1), trials=3, seed=5)
    one = generic_report(cfg).to_json()
    two = generic_report(cfg).to_json()
    assert one == two
    payload = json.loads(one)
    assert payload["bettiHistogram"] == {"1,3": 3, "3,1": 3}
    assert payload["genericCount"] == 3


@pytest.mark.parametrize("field", [FLD, QQ], ids=["GF", "QQ"])
def test_one_trial_runs_the_basepoint_test_once(field, monkeypatch):
    # the draw and is_generic read one stored verdict per system; every
    # binding of the basepoint test in the package is counted
    calls = []
    basepoint_free = segre.basepoint_free

    def counting(sys_):
        calls.append(sys_)
        return basepoint_free(sys_)

    for name, mod in list(sys.modules.items()):
        if name.startswith("bigres.") and getattr(mod, "basepoint_free", None) is basepoint_free:
            monkeypatch.setattr(mod, "basepoint_free", counting)
    rep = generic_report(ExperimentConfig((1, 3), seed=1, trials=1, field=field))
    assert rep.basepoint_rejections == 0 and rep.generic_count == 1
    assert len(calls) == 1


def test_q_trial_eliminates_nothing_over_q_after_the_draw(monkeypatch):
    # over Q every answer of a lab trial is read from the GF(p) image: the
    # only elimination over Q is the independence check of the drawn forms
    calls = []
    rref_rational = exactcore._rref_rational

    def counting(a):
        calls.append(a.shape)
        return rref_rational(a)
    monkeypatch.setattr(exactcore, "_rref_rational", counting)
    rep = generic_report(ExperimentConfig((1, 3), seed=1, trials=1, field=QQ))
    assert rep.basepoint_rejections == 0 and rep.generic_count == 1
    assert calls == [(3, strand_dim((1, 3)))]


def test_rs_check_maps6_inside_critical():
    sys_ = _maps6()
    viols = rs_check(sys_, (4, 12))
    degrees = {a for a, hf, cp, esc in viols}
    assert (3, 6) in degrees
    crit = set(critical_ranges((1, 6), (4, 12)))
    assert degrees <= crit
    assert all(not esc for _, _, _, esc in viols)
    assert viols[0] == ((3, 6), 20, 19, False)


def test_planted_maps6_report():
    cfg = ExperimentConfig((1, 6), trials=1, seed=3, box=(4, 20))
    rep = generic_report(cfg, planted=[_maps6()])
    assert rep.generic_count == 1
    assert rep.nongeneric == [(1, (3, 6))]
    planted_viols = [v for v in rep.rs_violations if v[0] == 1]
    assert planted_viols and all(not v[4] for v in planted_viols)
    assert {v[1] for v in planted_viols} <= set(critical_ranges((1, 6), (4, 20)))


def test_probe_detectors():
    row = probe_system(_maps6(), "planted 0")
    assert not row.generic
    assert row.witness == (3, 6)
    assert row.detectors == ["conic", "factorized", "pencil"]
    assert row.note == "explained"
    parsed = json.loads(row.to_json())
    assert parsed["witness"] == [3, 6]

    s, t = BiPoly.variable(FLD, "s"), BiPoly.variable(FLD, "t")
    u5 = BiPoly.from_vector(FLD, (0, 5), [1, 0, 0, 0, 0, 0])
    v5 = BiPoly.from_vector(FLD, (0, 5), [0, 0, 0, 0, 0, 1])
    sq = SystemF(FLD, (1, 5), (s * u5, t * v5, (s + t) * (u5 + v5)))
    row5 = probe_system(sq, "square case")
    assert row5.detectors == ["conic", "factorized", "pencil", "square"]


def test_probe_propagates_detector_errors(monkeypatch):
    # only ImpossibleFactorization means "no conic"; any other error from a
    # detector is a bug and must not be swallowed
    def broken(sys):
        raise ArithmeticError("detector bug")
    monkeypatch.setattr(lab, "detect_conic", broken)
    with pytest.raises(ArithmeticError, match="detector bug"):
        probe_system(_maps6(), "planted 0")


def test_probe_generic_rows():
    cfg = ExperimentConfig((1, 1), trials=2, seed=1)
    rows = [probe_system(sample_system(cfg, t), f"trial {t}", cfg.box) for t in range(2)]
    assert [r.generic for r in rows] == [True, True]
    assert all(r.note == "generic" and r.detectors == [] for r in rows)


def test_grid_csv(tmp_path):
    cfg = ExperimentConfig((1, 1), trials=1, seed=2)
    rep = generic_report(cfg, collect_grid=True)
    assert len(rep.grid_rows) == (cfg.box[0] + 1) * (cfg.box[1] + 1)
    out = tmp_path / "grid.csv"
    rep.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,a1,a2,dimH1,nd,hf,chi"
    assert len(lines) == 1 + len(rep.grid_rows)
    # hf - chi_+ equals dimH1 - nd on every row
    for line in lines[1:]:
        t, a1, a2, h1, nd_, hf, chi_ = map(int, line.split(","))
        assert hf - max(chi_, 0) == h1 - nd_
