"""End-to-end acceptance checks for the headline computations.

One test per headline claim, each printing a single PASS line with its
measured runtime (visible under pytest -v -s or in the captured output).
Stated runtime budgets are asserted, not aspirational.  All arithmetic is
exact, so every comparison is equality; expected tables live in tests/data
and were frozen from independent oracle runs.
"""

import os
import random
import subprocess
import sys
import time
import warnings
from collections import Counter

import numpy as np

import bigres
from bigres.exactcore import GF
from bigres.bipoly import BiPoly, SystemF
from bigres.combinat import chi, nd, neg_part
from bigres.strands import h1_dim, is_generic, koszul_strand_homology, phi_matrices
from bigres.betti import (betti_table, hb_kernel, hf_quotient, mcomplex_sums,
                          nonkoszul_beta1, route_equality_report, syz3star,
                          verify_resolution)
from bigres.segre import (FactorizedBasis, conic_resolution, detect_conic,
                          pencil_expected_degrees, psi_image, quartic_value,
                          three_point_resolution)
from bigres.cli import load_system
from helpers import data_path, load_json, random_bpf_system, random_form

FLD = GF(32003)


def golden_entries(name):
    obj = load_json(name)
    return {(i, (a1, a2)): m for i, a1, a2, m in obj["entries"]}


def neighborhood(degrees, d, radius=2):
    """Scan candidates: the given degrees, a Chebyshev ball around each,
    and 2d (where the Koszul syzygies sit)."""
    cands = {(2 * d[0], 2 * d[1])}
    for a1, a2 in degrees:
        for s1 in range(-radius, radius + 1):
            for s2 in range(-radius, radius + 1):
                if a1 + s1 >= 0 and a2 + s2 >= 0:
                    cands.add((a1 + s1, a2 + s2))
    return sorted(cands)


def test_d11_betti_table_is_constant():
    # twenty random basepoint-free (1,1) systems all resolve identically
    t0 = time.monotonic()
    want = golden_entries("betti_11case.json")
    rng = random.Random(11)
    for _ in range(20):
        sys_ = random_bpf_system(FLD, (1, 1), rng)
        tab = betti_table(sys_, box=(4, 4))
        assert tab.entries == want
        assert not tab.warning
    took = time.monotonic() - t0
    assert took < 5.0
    print(f"PASS d=(1,1): 20/20 systems match the constant table ({took:.1f}s)")


def test_conic12_betti_table():
    t0 = time.monotonic()
    sys_ = load_system(data_path("sys_conic12.json"))
    assert detect_conic(sys_) is not None
    tab = betti_table(sys_, box=(4, 7))
    assert tab.entries == golden_entries("betti_smooth12.json")
    assert tab.beta(1, (2, 4)) == 3
    assert tab.beta(2, (3, 4)) == 2
    took = time.monotonic() - t0
    assert took < 5.0
    print(f"PASS d=(1,2) conic: smooth-conic table reproduced ({took:.1f}s)")


def test_d16_generic_beta1_and_mcomplex_sums():
    golden = load_json("beta1_1_6.json")
    listed = {(a1, a2): m for a1, a2, m in golden["nonkoszul_beta1"]}
    cands = neighborhood(listed, (1, 6))
    rng = random.Random(16)
    done = worst = 0
    while done < 10:
        t0 = time.monotonic()
        sys_ = random_bpf_system(FLD, (1, 6), rng)
        if not is_generic(sys_).generic:
            continue  # random draws are generic with overwhelming probability
        tab = betti_table(sys_, degrees=cands)
        nk = nonkoszul_beta1(tab, (1, 6))
        assert nk == listed
        ms = mcomplex_sums(sys_, (9, 21))
        assert ms[1] == golden["hm1_total"] == 18
        assert ms[2] == golden["hm2_total"] == 7
        assert ms[1] - ms[2] == 11 == sum(nk.values())  # no support missed
        took = time.monotonic() - t0
        assert took < 60.0
        worst = max(worst, took)
        done += 1
    print(f"PASS d=(1,6): 10 generic systems, beta1 support and homology "
          f"sums 18/7 (worst {worst:.1f}s/system)")


def test_nd_grid_cli_bytes():
    # run the package the test imported, not an installed console script:
    # a checkout without an install has no `bigres` executable on PATH
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(bigres.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [pkg_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "bigres", "nd", "--d", "1,6",
                           "--box", "10,20"], capture_output=True, env=env)
    took = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr.decode()
    with open(data_path("nd_grid_1_6.txt"), "rb") as fh:
        assert proc.stdout == fh.read()
    assert took < 1.0
    print(f"PASS nd grid: CLI output byte-identical to frozen grid ({took:.2f}s)")


def test_maps6_shape_h1_and_witness():
    t0 = time.monotonic()
    sys_ = load_system(data_path("sys_maps6.json"))
    phi1, phi2 = phi_matrices(sys_, (3, 6))
    assert (phi1.rows, phi1.cols) == (30, 11)
    assert (phi2.rows, phi2.cols) == (0, 0)
    m = phi1.data
    assert not m[:, 5].any()  # 1/(u^6 v^6) is annihilated by all three forms
    want = [["I", "0", "0"], ["0", "0", "0"], ["0", "0", "0"],
            ["0", "0", "I"], ["I", "0", "I"], ["I", "0", "I"]]
    eye = np.eye(5, dtype=np.int64)
    for gr in range(6):
        for cb, sl in enumerate((slice(0, 5), slice(5, 6), slice(6, 11))):
            sub = m[gr * 5:(gr + 1) * 5, sl]
            if want[gr][cb] == "0":
                assert not sub.any(), (gr, cb)
            else:
                assert (sub == eye).all(), (gr, cb)
    assert h1_dim(sys_, (3, 6)) == 1
    verdict = is_generic(sys_)
    assert not verdict.generic and verdict.witness == (3, 6)
    took = time.monotonic() - t0
    assert took < 2.0
    print(f"PASS maps6: block shape, h1 == 1, NotGeneric at (3,6) ({took:.1f}s)")


def test_d142_beta1_support():
    golden = load_json("beta1_1_42.json")
    listed = {(a1, a2): m for a1, a2, m in golden["nonkoszul_beta1"]}
    cands = neighborhood(listed, (1, 42))
    # a full support scan blows the budget, so the run is restricted to the
    # listed bidegrees plus a 2-neighborhood (verified empty there)
    print(f"d=(1,42): beta1 scan restricted to listed support + "
          f"2-neighborhood + 2d ({len(cands)} degrees)")
    rng = random.Random(42)
    worst = 0
    for _ in range(2):
        t0 = time.monotonic()
        sys_ = random_bpf_system(FLD, (1, 42), rng)
        assert is_generic(sys_).generic
        tab = betti_table(sys_, degrees=cands)
        nk = nonkoszul_beta1(tab, (1, 42))
        assert nk == listed
        assert sum(nk.values()) == 68
        took = time.monotonic() - t0
        assert took < 1800.0
        worst = max(worst, took)
    print(f"PASS d=(1,42): 2 generic systems, 16 support bidegrees with "
          f"multiplicities summing to 68 (worst {worst:.0f}s/system)")


# one aggregate box per shape, wide enough that the homology support clears
# the guard shells of mcomplex_sums
AGG_BOX = {(1, 1): (6, 6), (1, 2): (6, 10), (1, 3): (8, 14),
           (1, 5): (12, 19), (2, 2): (9, 9)}


def test_property_suite_200_systems():
    t0 = time.monotonic()
    shapes = [(1, 1), (1, 2), (1, 3), (1, 5), (2, 2)]
    for d in shapes:
        box = (3 * d[0] + 3, 3 * d[1] + 3)
        grid = [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)]
        rng = random.Random(100 + d[0] * 10 + d[1])
        for _ in range(40):
            sys_ = random_bpf_system(FLD, d, rng)
            for a in grid:
                hf = hf_quotient(sys_, a)
                h1 = h1_dim(sys_, a)
                c = chi(d, a)
                assert hf - h1 == c, (d, a)
                assert h1 >= nd(d, a), (d, a)
                assert nd(d, a) == neg_part(c), (d, a)
                assert koszul_strand_homology(sys_, a, 2) == 0, (d, a)
                assert koszul_strand_homology(sys_, a, 3) == 0, (d, a)
            # first syzygies away from 2d are exactly the H1 generators
            for row in route_equality_report(sys_, grid):
                assert row["gen_match"], (d, row)
        # the difference identity balances in aggregate over the full support
        sys_ = random_bpf_system(FLD, d, random.Random(1))
        ms = mcomplex_sums(sys_, AGG_BOX[d])
        abox = AGG_BOX[d]
        tab = betti_table(sys_, box=abox)
        nk = nonkoszul_beta1(tab, d)
        assert sum(nk.values()) == ms[0] == ms[1] - ms[2], (d, ms)
    took = time.monotonic() - t0
    print(f"PASS properties: 200 systems across {len(shapes)} shapes, "
          f"0 failures ({took:.0f}s)")


def test_split_syzygies_twenty_systems():
    t0 = time.monotonic()
    rng = random.Random(8)
    count = 0
    for n in (5, 6, 7):
        for _ in range(7 if n < 7 else 6):
            sys_ = random_bpf_system(FLD, (1, n), rng)
            # syz3star itself verifies M . K^t == 0 and strand membership,
            # raising on any failure
            syzs = syz3star(sys_)
            assert len(syzs) == 5
            assert all(s.total_degree[0] == 3 for s in syzs)
            bks = [2 * n - s.total_degree[1] for s in syzs]
            assert sum(bks) == n
            count += 1
    took = time.monotonic() - t0
    assert count == 20 and took < 30.0
    print(f"PASS split syzygies: 20 systems, five verified syzygies each, "
          f"sum b_k == n ({took:.1f}s)")


def test_resolution_templates():
    t0 = time.monotonic()
    s = BiPoly.variable(FLD, "s")
    t = BiPoly.variable(FLD, "t")
    rng = random.Random(9)
    for n in range(1, 9):
        a0, a1 = (random_form(FLD, (0, n), rng) for _ in range(2))
        sys_ = SystemF(FLD, (1, n), (t * a0, s * a0 + t * a1, s * a1))
        assert verify_resolution(conic_resolution(sys_)).passed, n
    for n in range(3, 7):
        hs = [random_form(FLD, (0, n), rng) for _ in range(3)]
        mu = hb_kernel(hs).column_degrees[0]
        assert 0 < mu <= n // 2, n
        fb = FactorizedBasis([(s, hs[0]), (t, hs[1]), (s + t, hs[2])], i0=0)
        assert verify_resolution(three_point_resolution(fb)).passed, n
    took = time.monotonic() - t0
    assert took < 120.0
    print(f"PASS resolutions: conic n=1..8 and three-point n=3..6 all "
          f"verified ({took:.1f}s)")


def test_pencil_degrees_and_conjectural_table():
    t0 = time.monotonic()
    conjectural = load_json("wholeres_higher_segre.json")["tables"]
    for n, seed in ((4, 11), (5, 12)):
        rng = random.Random(seed)
        g = [random_form(FLD, (1, 1), rng) for _ in range(3)]
        h0 = random_form(FLD, (0, n - 1), rng)
        h1 = random_form(FLD, (0, n - 1), rng)
        h2 = h0 * FLD.normalize(5) + h1 * FLD.normalize(7)
        sys_ = SystemF(FLD, (1, n), (g[0] * h0, g[1] * h1, g[2] * h2))
        tab = betti_table(sys_, box=(2 * n, 3 * n + 2))
        b1 = Counter({a: m for (i, a), m in tab.entries.items() if i == 1})
        assert b1 == Counter(pencil_expected_degrees(n))
        assert b1[(6, 2 * n - 2)] == 1
        # the full table is conjectural: a mismatch is surfaced, never fatal
        want = {(i, (a1, a2)): m for i, a1, a2, m in conjectural[str(n)]}
        got = {k: m for k, m in tab.entries.items() if k[0] >= 1}
        if got != want:
            warnings.warn(f"conjectural golden table deviation at n={n}: "
                          f"got {sorted(got.items())}")
    took = time.monotonic() - t0
    assert took < 300.0
    print(f"PASS pencil: syzygy degree multisets for n=4,5 incl the unique "
          f"(6,2n-2) entry ({took:.1f}s)")


def test_quartic_on_200_product_points():
    t0 = time.monotonic()
    rng = random.Random(4)
    p = 32003
    for _ in range(200):
        pta = [rng.randrange(p) for _ in range(4)]
        ptb = [rng.randrange(p) for _ in range(2)]
        if not any(pta) or not any(ptb):
            continue
        assert FLD.is_zero(quartic_value(FLD, psi_image(FLD, 1, 2, pta, ptb)))
    took = time.monotonic() - t0
    print(f"PASS quartic: 200 random product points all satisfy the "
          f"determinantal quartic ({took:.1f}s)")
