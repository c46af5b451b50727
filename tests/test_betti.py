"""Betti tables, syzygy constructors, Hilbert-Burch kernels, resolution checks."""

import copy
import gc
import random
import weakref
from contextlib import nullcontext
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from bigres.exactcore import GF, QQ, lift_primes, mat_rank
from bigres.bipoly import BiPoly, SystemF, strand_dim
from bigres.betti import (BettiTable, ResolutionComplex,
                          alicia_syzygy, betti_table, box_nonkoszul_beta1, hb_kernel,
                          koszul_syzygies,
                          mcomplex_dims, mcomplex_sums, nonkoszul_beta1,
                          poly_mat_is_zero, poly_mat_mul, prop32_matrices,
                          route_equality_report, syz3star, verify_resolution)
from bigres import betti, exactcore, strands
from bigres.segre import conic_resolution, detect_conic
from bigres.strands import (VAR_DEGREES, _h1_action, _koszul_spots, _ring_differential, h1_dim,
                            hf_quotient, is_generic, koszul_strand_homology)
from bigres.cli import load_system
from helpers import (data_path, full_betti_table, full_module_homology, load_json,
                     random_bpf_system, random_form, random_system, uncertified)

FLD = GF()


def golden_table(name):
    obj = load_json(name)
    return {(i, (a1, a2)): m for i, a1, a2, m in obj["entries"]}


def test_d11_table_is_constant():
    # every basepoint-free (1,1) system resolves the same way
    want = golden_table("betti_11case.json")
    rng = random.Random(42)
    for _ in range(3):
        sys_ = random_bpf_system(FLD, (1, 1), rng)
        tab = betti_table(sys_, box=(4, 4))
        assert tab.convention == "IdealConvention"
        assert tab.entries == want
        assert not tab.warning


def test_smooth12_conic_table():
    sys_ = load_system(data_path("sys_conic12.json"))
    assert detect_conic(sys_) is not None
    tab = betti_table(sys_, box=(4, 7))
    assert tab.entries == golden_table("betti_smooth12.json")
    assert tab.beta(1, (2, 4)) == 3
    assert tab.beta(2, (3, 4)) == 2


def test_generic_small_tables_frozen():
    # stable across draws: the generic tables for d = (1,2) and (1,3)
    rng = random.Random(1)
    tab2 = betti_table(random_bpf_system(FLD, (1, 2), rng), box=(6, 8))
    assert sorted(tab2.entries.items()) == [
        ((0, (1, 2)), 3), ((1, (1, 6)), 1), ((1, (2, 4)), 3), ((1, (3, 3)), 2),
        ((2, (2, 6)), 2), ((2, (3, 4)), 3), ((3, (3, 6)), 1)]
    rng = random.Random(1)
    tab3 = betti_table(random_bpf_system(FLD, (1, 3), rng), box=(8, 14))
    assert sorted(tab3.entries.items()) == [
        ((0, (1, 3)), 3), ((1, (1, 9)), 1), ((1, (2, 6)), 3), ((1, (3, 5)), 3),
        ((1, (6, 4)), 1), ((2, (2, 9)), 2), ((2, (3, 6)), 4), ((2, (6, 5)), 2),
        ((3, (3, 9)), 1), ((3, (6, 6)), 1)]


def test_conventions_shift_by_one():
    rng = random.Random(7)
    sys_ = random_bpf_system(FLD, (1, 1), rng)
    ideal = betti_table(sys_, box=(4, 4))
    quot = betti_table(sys_, box=(4, 4), convention="QuotientConvention")
    assert quot.beta(0, (0, 0)) == 1
    for (i, a), m in ideal.entries.items():
        assert quot.beta(i + 1, a) == m
    with pytest.raises(ValueError):
        betti_table(sys_, box=(4, 4), convention="Tor")
    with pytest.raises(ValueError):
        betti_table(sys_)
    with pytest.raises(ValueError):
        nonkoszul_beta1(quot, (1, 1))


def test_nonkoszul_removes_exactly_three_at_2d():
    rng = random.Random(8)
    sys_ = random_bpf_system(FLD, (1, 2), rng)
    tab = betti_table(sys_, box=(6, 8))
    nk = nonkoszul_beta1(tab, (1, 2))
    assert nk == {(1, 6): 1, (3, 3): 2}
    assert tab.beta(1, (2, 4)) == 3  # the Koszul triple itself


@pytest.mark.parametrize("name", ["sys_bp.json", "sys_conic12.json", "sys_maps6.json"])
def test_box_nonkoszul_beta1_matches_the_box_table_on_data(name):
    # Tor only on the H1 support and at 2d of a basepoint-free net, on the
    # whole box of sys_bp, whose beta1 at (1,2) and (2,1) lies where the
    # phi model's h1_dim is 0
    sys_ = load_system(data_path(name))
    d = sys_.d
    box = (3 * d[0] + 3, 3 * d[1] + 3)
    assert box_nonkoszul_beta1(sys_, box) == nonkoszul_beta1(betti_table(sys_, box=box), d)


@pytest.mark.parametrize("fld", [GF(5), GF(7), QQ], ids=["GF5", "GF7", "QQ"])
def test_box_nonkoszul_beta1_matches_the_box_table(fld):
    rng = random.Random(29)
    kinds = set()
    for d in ((1, 1), (1, 2), (2, 1), (1, 3)):
        for _ in range(2):
            sys_ = random_system(fld, d, rng)
            box = (3 * d[0] + 3, 3 * d[1] + 3)
            # a net whose Koszul syzygies are not minimal raises on both routes
            got = _outcome(lambda: box_nonkoszul_beta1(sys_, box))
            assert got == _outcome(lambda: nonkoszul_beta1(betti_table(sys_, box=box), d)), d
            kinds.add((strands._free(sys_), isinstance(got, dict)))
    assert (True, True) in kinds


def test_basepoint_input_sets_warning():
    sys_ = load_system(data_path("sys_bp.json"))
    tab = betti_table(sys_, box=(3, 3))
    assert tab.warning
    assert "warning" in tab.to_text()


def test_betti_json_roundtrip_and_text():
    rng = random.Random(3)
    tab = betti_table(random_bpf_system(FLD, (1, 1), rng), box=(4, 4))
    back = BettiTable.from_json(tab.to_json())
    assert back.entries == tab.entries and back.convention == tab.convention
    text = tab.to_text()
    assert text.startswith("convention: IdealConvention")
    assert "beta_1" in text
    assert tab.total(0) == 3 and tab.support(3) == [(3, 3)]


@pytest.mark.parametrize("d,msums,mbox", [
    ((1, 1), (2, 4, 2), (6, 6)),
    ((1, 2), (3, 5, 2), (6, 10)),
    ((1, 3), (5, 8, 3), (8, 14)),
])
def test_mcomplex_sums_frozen(d, msums, mbox):
    rng = random.Random(10 * d[0] + d[1])
    sys_ = random_bpf_system(FLD, d, rng)
    assert mcomplex_sums(sys_, mbox) == msums
    # the two route identities tie the sums to the table
    box = (mbox[0] + 2, mbox[1] + 2) if d == (1, 3) else mbox
    nk = nonkoszul_beta1(betti_table(sys_, box=box), d)
    assert sum(nk.values()) == msums[1] - msums[2]


def test_mcomplex_shell_guard():
    rng = random.Random(1)
    sys_ = random_bpf_system(FLD, (1, 3), rng)
    with pytest.raises(ValueError, match="shell"):
        mcomplex_sums(sys_, (6, 13))


def test_mcomplex_tail_vanishes():
    rng = random.Random(5)
    sys_ = random_bpf_system(FLD, (1, 2), rng)
    for a1 in range(6):
        for a2 in range(9):
            hom = mcomplex_dims(sys_, (a1, a2))
            assert len(hom) == 5 and hom[3] == 0 and hom[4] == 0


def test_system_is_freed_after_strand_queries():
    # the strand store is keyed weakly by the system and its records must not
    # refer back to it, or no system would ever be freed
    sys_ = random_bpf_system(FLD, (1, 2), random.Random(8))
    hf_quotient(sys_, (3, 4))
    h1_dim(sys_, (3, 2))
    koszul_strand_homology(sys_, (3, 4), 1)
    is_generic(sys_)
    betti_table(sys_, box=(4, 6))
    mcomplex_dims(sys_, (3, 2))
    ref = weakref.ref(sys_)
    del sys_
    gc.collect()
    assert ref() is None


def test_repeated_queries_build_no_action(monkeypatch):
    # the R/I and H1 actions are records of the strand store, each built once
    # per system: a second betti_table on the same box, or a second
    # mcomplex_dims at the same degree, builds none
    builds = []

    class Records(dict):
        def __setitem__(self, key, value):
            if key[0].endswith("_action"):
                builds.append(key)
            super().__setitem__(key, value)

    class Store(weakref.WeakKeyDictionary):
        def setdefault(self, key, default=None):
            return super().setdefault(key, Records())

    monkeypatch.setattr(strands, "_store", Store())
    sys_ = random_bpf_system(FLD, (1, 2), random.Random(8))
    for query in (lambda: betti_table(sys_, box=(4, 6)), lambda: mcomplex_dims(sys_, (3, 8))):
        before = len(builds)
        query()
        built = len(builds)
        assert built > before
        query()
        assert len(builds) == built
    assert {name for name, *_ in builds} == {"_quotient_action", "_h1_action"}
    assert len(set(builds)) == len(builds)


def _outcome(query):
    # a value, or the error it raised, so that two routes compare on both
    try:
        return query()
    except (ArithmeticError, ValueError) as exc:
        return repr(exc)


def _assert_matches_full_oracle(sys_, box, monkeypatch):
    # betti_table (both conventions, warning flag included), mcomplex_dims,
    # mcomplex_sums and route_equality_report against the same queries with
    # every Koszul differential built and eliminated
    degrees = [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)]
    for conv in ("IdealConvention", "QuotientConvention"):
        got = betti_table(sys_, box=box, convention=conv)
        want = full_betti_table(sys_, degrees, conv)
        assert (got.to_json(), got.warning) == (want.to_json(), want.warning), conv
    dim, action = partial(h1_dim, sys_), partial(_h1_action, sys_)
    for a in degrees:
        want = full_module_homology(sys_.field, VAR_DEGREES, a, dim, action)
        if want[3] or want[4]:
            with pytest.raises(ArithmeticError, match="tail"):
                mcomplex_dims(sys_, a)
        else:
            assert mcomplex_dims(sys_, a) == want, a
    got = (_outcome(lambda: mcomplex_sums(sys_, box)),
           _outcome(lambda: route_equality_report(sys_, degrees)))
    monkeypatch.setattr(strands, "_koszul_homology", full_module_homology)
    monkeypatch.setattr(betti, "betti_table", full_betti_table)
    assert got == (_outcome(lambda: mcomplex_sums(sys_, box)),
                   _outcome(lambda: route_equality_report(sys_, degrees)))
    return got


@pytest.mark.parametrize("fld", [GF(), QQ], ids=["GF", "QQ"])
@pytest.mark.parametrize("d", [(1, 1), (1, 2), (1, 3), (1, 5), (2, 2)])
def test_homology_matches_full_oracle(d, fld, monkeypatch):
    # the box holds (0,0) and crosses both edges a1 = d1, a2 = d2 of the
    # region where Tor of R/I is proved zero
    sys_ = random_bpf_system(fld, d, random.Random(90 + 10 * d[0] + d[1]))
    box = (3 * d[0] + 3, 3 * d[1] + 3) if fld.is_prime_field else (2 * d[0] + 1, 2 * d[1] + 1)
    rows = _assert_matches_full_oracle(sys_, box, monkeypatch)[1]
    assert rows and all(r["gen_match"] for r in rows)


@pytest.mark.parametrize("mode", ["GF", "QQ-uncertified"])
def test_homology_matches_full_oracle_with_a_shared_factor(mode, monkeypatch):
    # rule F asks only that the forms be independent: on a (1,2) net whose
    # forms share a (0,1) factor, a curve of basepoints, H_1 of R/I is
    # still the three generators at d
    fld = GF() if mode == "GF" else QQ
    rng = random.Random(97)
    common = random_form(fld, (0, 1), rng)
    with uncertified() if mode == "QQ-uncertified" else nullcontext():
        sys_ = SystemF(fld, (1, 2), [common * random_form(fld, (1, 1), rng) for _ in range(3)])
        assert not strands._free(sys_)
        assert betti_table(sys_, degrees=[(1, 2)]).beta(0, (1, 2)) == 3
        _assert_matches_full_oracle(sys_, (6, 9) if fld.is_prime_field else (3, 5), monkeypatch)


@pytest.mark.parametrize("name", ["sys_bp.json", "sys_conic12.json", "sys_maps6.json"])
def test_homology_matches_full_oracle_on_data(name, monkeypatch):
    sys_ = load_system(data_path(name))
    d = sys_.d
    _assert_matches_full_oracle(sys_, (3 * d[0] + 3, 3 * d[1] + 3), monkeypatch)


@pytest.mark.parametrize("name", ["sys_bp.json", "sys_conic12.json"])
def test_proved_zero_differentials_are_not_built(name, monkeypatch):
    # betti_table builds no Koszul differential where Tor of R/I is proved
    # zero (a != (0,0), a1 < d1 or a2 < d2) and never d_1 or d_2 on R/I,
    # whose ranks rules C and F give; neither module builds a differential
    # with an empty side, so nothing is built where every spot is empty.
    # The ring complex never builds d_1, as H_0 = hf is known, and
    # eliminates d_3 only on the dims_2 - rank d_2 rows at the free columns
    # of d_2 (rule E)
    built = []
    koszul_differential = strands._koszul_differential

    def recording(field, degs, a, j, dim, action):
        sides = [sum(dim(b) for _, b in _koszul_spots(degs, a, i)) for i in (j - 1, j)]
        if degs != VAR_DEGREES:
            module = "R"
        else:
            module = "R/I" if action.func is strands._quotient_action else "H1"
        built.append((module, a, j, *sides))
        return koszul_differential(field, degs, a, j, dim, action)

    def eliminating(m, rref):
        built.append(("rref", m.rows, m.cols))
        return rref(m)

    monkeypatch.setattr(strands, "_koszul_differential", recording)
    for mod in (exactcore, strands):
        monkeypatch.setattr(mod, "rref", partial(eliminating, rref=mod.rref))
    sys_ = load_system(data_path(name))
    d = sys_.d
    box = (3 * d[0] + 3, 3 * d[1] + 3)
    degrees = [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)]
    betti_table(sys_, box=box)
    for a in degrees:
        _outcome(lambda: mcomplex_dims(sys_, a))
    for a in degrees:
        hf_quotient(sys_, a)
    # with every hf record stored, what follows is the ring complex's homology
    ring_from = len(built)
    for a in degrees:
        koszul_strand_homology(sys_, a, 0)
    monkeypatch.undo()
    dims = {"R/I": partial(hf_quotient, sys_), "H1": partial(h1_dim, sys_)}
    builds = [b for b in built[:ring_from] if b[0] in dims]  # d_1 of hf aside
    assert {module for module, *_ in builds} == set(dims)
    for module, a, j, rows, cols in builds:
        assert rows and cols, (module, a, j)
        assert any(dims[module](b)
                   for i in range(5) for _, b in _koszul_spots(VAR_DEGREES, a, i))
        if module == "R/I":
            assert j > 2, a
            assert a == (0, 0) or (a[0] >= d[0] and a[1] >= d[1]), a
    ring = built[ring_from:]
    assert {(e[0], e[2]) for e in ring if e[0] != "rref"} == {("R", 2), ("R", 3)}
    for k, (module, a, j, *sides) in enumerate(ring):
        if module == "R" and j == 3:
            rows = sides[0] - mat_rank(_ring_differential(sys_, a, 2))
            assert ring[k + 1] == ("rref", rows, sides[1]), a


def _strand_facts(sys_, degrees, box):
    """h1, hf, Koszul H_2 and H_3 and the M-complex at each degree, then
    the Betti table on the box with its warning."""
    cells = [(h1_dim(sys_, a), hf_quotient(sys_, a), koszul_strand_homology(sys_, a, 2),
              koszul_strand_homology(sys_, a, 3), mcomplex_dims(sys_, a)) for a in degrees]
    table = betti_table(sys_, box=box)
    return cells, (table.entries, table.warning)


@pytest.mark.parametrize("d", [(1, 1), (1, 2), (2, 1)])
@given(data=st.data())
@settings(max_examples=4, deadline=None, derandomize=True)
def test_rationals_and_prime_field_agree(d, data):
    # small integer coefficients: every strand fact over Q and mod p
    # coincides unless p divides a minor, which the first lift prime makes
    # unlikely enough for the fixed draws of a derandomized run.  That prime
    # is the one of the image the Q answers are read from, so the Q side is
    # computed uncertified, over Q alone
    n = strand_dim(d)
    vecs = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                              min_size=3, max_size=3))
    try:
        sq, sp = (SystemF(fld, d, [BiPoly.from_vector(fld, d, v) for v in vecs])
                  for fld in (QQ, GF(next(lift_primes()))))
    except ValueError:
        assume(False)
    box = (3 * d[0] + 2, 3 * d[1] + 2)
    degrees = [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)]
    with uncertified():
        cells_q, table_q = _strand_facts(sq, degrees, box)
    cells_p, table_p = _strand_facts(sp, degrees, box)
    for a, q, p in zip(degrees, cells_q, cells_p):
        assert q == p, a
    assert table_q == table_p


def test_route_equality_degree_by_degree():
    # gen_match (nonKoszul beta1 == HM0) is a per-degree theorem; the
    # difference identity only balances in aggregate and the report must say
    # so honestly rather than smooth it over.
    rng = random.Random(2)
    for d, box in [((1, 1), (6, 6)), ((1, 2), (6, 10))]:
        sys_ = random_bpf_system(FLD, d, rng)
        degrees = [(a1, a2) for a1 in range(box[0] + 1)
                   for a2 in range(box[1] + 1)]
        rows = route_equality_report(sys_, degrees)
        assert rows, "report should touch the support"
        for row in rows:
            assert row["gen_match"], row
        nk_total = sum(r["beta1"] for r in rows) - 3
        assert nk_total == sum(r["hm1"] for r in rows) - sum(r["hm2"] for r in rows)


def test_route_equality_diff_mismatches_are_reported():
    # d=(1,1): H1 is two shifted line modules, so the M-complex homology sits
    # strictly above the generators and diff_match fails on every populated
    # row.  Freezing the mismatch set keeps the report honest.
    rng = random.Random(5)
    sys_ = random_bpf_system(FLD, (1, 1), rng)
    degrees = [(a1, a2) for a1 in range(7) for a2 in range(7)]
    rows = route_equality_report(sys_, degrees)
    mismatched = {r["a"] for r in rows if not r["diff_match"]}
    assert mismatched == {(1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)}


def test_koszul_syzygies_shape():
    rng = random.Random(4)
    sys_ = random_bpf_system(FLD, (1, 2), rng)
    kos = koszul_syzygies(sys_)
    assert len(kos) == 3
    for syz in kos:
        assert syz.total_degree == (2, 4)
    # spot the sign pattern of the first one: (0, f2, -f1)
    assert kos[0].entries[0].is_zero()
    assert (kos[0].entries[1] - sys_.polys[2]).is_zero()
    assert (kos[0].entries[2] + sys_.polys[1]).is_zero()


def test_alicia_syzygy_degree_and_failure():
    rng = random.Random(6)
    for n in (1, 2, 4):
        sys_ = random_bpf_system(FLD, (1, n), rng)
        syz = alicia_syzygy(sys_)
        assert syz.total_degree == (1, 3 * n)
    # f_i = (s+t) h_i makes every theta minor vanish
    h = [random_form(FLD, (0, 2), rng) for _ in range(3)]
    st = BiPoly.variable(FLD, "s") + BiPoly.variable(FLD, "t")
    while True:
        try:
            sys_ = SystemF(FLD, (1, 2), [st * hi for hi in h])
            break
        except ValueError:
            h = [random_form(FLD, (0, 2), rng) for _ in range(3)]
    with pytest.raises(ArithmeticError, match="basepoint"):
        alicia_syzygy(sys_)
    with pytest.raises(ValueError):
        alicia_syzygy(random_bpf_system(FLD, (2, 1), rng))


def test_prop32_factorization():
    rng = random.Random(12)
    sys_ = random_bpf_system(FLD, (1, 3), rng)
    A, Aprime, third = prop32_matrices(sys_)
    assert len(A) == 3 and len(A[0]) == 4
    assert len(Aprime) == 4 and len(Aprime[0]) == 3
    assert poly_mat_is_zero(poly_mat_mul(A, Aprime))
    assert poly_mat_is_zero(poly_mat_mul(Aprime, [[x] for x in third]))
    with pytest.raises(ValueError):
        prop32_matrices(random_bpf_system(FLD, (2, 1), rng))


def test_hb_kernel_known_pair():
    # q = (u^2, v^2): the syzygy module of a complete intersection is the
    # Koszul one, a single column (v^2, -u^2) in degree 2
    u2 = BiPoly.from_vector(FLD, (0, 2), [1, 0, 0])
    v2 = BiPoly.from_vector(FLD, (0, 2), [0, 0, 1])
    hb = hb_kernel([u2, v2])
    assert hb.column_degrees == [2]
    col = hb.columns[0]
    assert [e.degree for e in col] == [(0, 2), (0, 2)]
    assert (u2 * col[0] + v2 * col[1]).is_zero()
    # (v^2, -u^2) up to a scalar: coefficients run u-exponent descending
    assert col[0].coeff_vector()[:2] == [0, 0] and col[1].coeff_vector()[1:] == [0, 0]
    mat = hb.column_matrix()
    assert len(mat) == 2 and len(mat[0]) == 1


def test_hb_kernel_three_forms():
    rng = random.Random(9)
    for n in (3, 4):
        while True:
            q = [BiPoly.from_vector(FLD, (0, n), [FLD.rand(rng) for _ in range(n + 1)])
                 for _ in range(3)]
            if not any(f.is_zero() for f in q):
                break
        hb = hb_kernel(q)
        assert len(hb.columns) == 2
        assert sum(hb.column_degrees) == n
        assert hb.column_degrees == sorted(hb.column_degrees)
        for col in hb.columns:
            acc = BiPoly.zero(FLD, (0, n + col[0].degree[1]))
            for f, e in zip(q, col):
                acc = acc + f * e
            assert acc.is_zero()


def test_hb_kernel_rejects_common_factor():
    u = BiPoly.from_vector(FLD, (0, 1), [1, 0])
    v = BiPoly.from_vector(FLD, (0, 1), [0, 1])
    with pytest.raises(ValueError, match="common factor"):
        hb_kernel([u * u, u * v])
    with pytest.raises(ValueError):
        hb_kernel([u])
    with pytest.raises(ValueError):
        hb_kernel([BiPoly.zero(FLD, (0, 1)), BiPoly.zero(FLD, (0, 1))])


def test_syz3star_five_syzygies():
    rng = random.Random(15)
    sys_ = random_bpf_system(FLD, (1, 5), rng)
    syzs = syz3star(sys_)
    assert len(syzs) == 5
    degs = sorted(s.total_degree for s in syzs)
    assert sum(10 - a2 for _, a2 in degs) == 5  # b_k sum to n
    for s in syzs:
        assert s.total_degree[0] == 3


def test_syz3star_rejects_dependent_splits():
    # su^5, tv^5, sv^5 + tu^5 only span 4 of the 6 split slots
    mono = lambda e: BiPoly.monomial(FLD, e)
    sys_ = SystemF(FLD, (1, 5), [mono((1, 0, 5, 0)), mono((0, 1, 0, 5)),
                                 mono((1, 0, 0, 5)) + mono((0, 1, 5, 0))])
    with pytest.raises(ValueError, match="dependent"):
        syz3star(sys_)


def test_verify_resolution_accepts_and_rejects():
    sys_ = load_system(data_path("sys_conic12.json"))
    rc = conic_resolution(sys_)
    report = verify_resolution(rc)
    assert report.passed and report.failures == []
    assert str(report).startswith("resolution verified")
    # tampering with one entry must be caught, never silently absorbed
    bad = ResolutionComplex(rc.sys, rc.shifts,
                            [copy.deepcopy(m) for m in rc.diffs])
    r, c = 0, 0
    entry = bad.diffs[1][r][c]
    assert entry is not None
    bad.diffs[1][r][c] = entry * 7
    bad_report = verify_resolution(bad)
    assert not bad_report.passed
    assert any(f[0] in ("compose", "exactness") for f in bad_report.failures)
    assert "FAILED" in str(bad_report)


def test_resolution_complex_validation():
    sys_ = load_system(data_path("sys_conic12.json"))
    rc = conic_resolution(sys_)
    with pytest.raises(ValueError, match="row count"):
        ResolutionComplex(rc.sys, rc.shifts, [rc.diffs[0][:-1]] + rc.diffs[1:])
    # an entry of the wrong degree is rejected at construction
    wrong = [list(map(list, m)) for m in rc.diffs]
    wrong[0][0][0] = BiPoly.variable(FLD, "s")
    with pytest.raises(ValueError, match="degree"):
        ResolutionComplex(rc.sys, rc.shifts, wrong)
