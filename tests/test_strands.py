"""Strand-level homology: two independent routes must agree degree by degree."""

import random
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from bigres.exactcore import GF, QQ, ExactMatrix, kernel_data, mat_from_blocks, mat_mul, mat_rank, rref
from bigres.bipoly import BiPoly, SystemF, mul_matrix, strand_dim
from bigres.combinat import chi, cod, dom, nd
from bigres import exactcore, strands
from bigres.segre import basepoint_free
from bigres.strands import (VAR_DEGREES, _h1_action, _inverse_block, _koszul_differential,
                            _koszul_spots, _phi_kernels, _phi_spaces, _quotient_action,
                            _quotient_kernel, _ring_differential, critical_ranges, h1_dim,
                            hf_quotient, is_generic, koszul_strand_homology, phi_matrices)
from bigres.cli import load_system
from helpers import (data_path, dense_quotient_kernel, full_box_generic, h1_support_box,
                     inverse_block_oracle, mat_hstack, mat_vstack, mod_p, random_bpf_system,
                     random_form, random_system, uncertified)

FLD = GF()

# the oracle tests run over GF(p), over Q as the package computes it (reading
# its GF(p) image wherever a proof allows), and over Q with no image, so the
# computation over Q alone keeps its oracle too
ORACLE_FIELDS, ORACLE_IDS = [GF(), QQ, "QQ-uncertified"], ["GF", "QQ", "QQ-uncertified"]


@pytest.fixture
def fld(request):
    """The field of an ORACLE_FIELDS case, with the image off for the last."""
    if request.param == "QQ-uncertified":
        with uncertified():
            yield QQ
    else:
        yield request.param


def maps6_system():
    return load_system(data_path("sys_maps6.json"))


def test_phi_dimensions_match_combinatorics():
    rng = random.Random(4)
    for d in [(1, 1), (1, 3), (2, 2)]:
        sys_ = random_bpf_system(FLD, d, rng)
        for a1 in range(4 * d[0] + 1):
            for a2 in range(4 * d[1] + 1):
                phi1, phi2 = phi_matrices(sys_, (a1, a2))
                assert phi1.cols + phi2.cols == dom(d, (a1, a2))
                assert phi1.rows + phi2.rows == 3 * cod(d, (a1, a2))


@pytest.mark.parametrize("d", [(1, 2), (2, 3)])
def test_phi_blocks_prime_field_match_rationals(d):
    # the builder scatters all terms at once; the oracle adds them term by
    # term.  Over Q and GF(p) it must equal the oracle, the GF(p) blocks must
    # be the Q blocks mod p, and so must the module actions built on them.
    p = 32003
    rng = random.Random(d[0] + 5 * d[1])
    vecs = [[rng.randint(-3 * p, 3 * p) for _ in range(strand_dim(d))] for _ in range(3)]
    pairs = [[BiPoly.from_vector(fld, d, v) for fld in (QQ, GF(p))] for v in vecs]
    for a1 in range(4 * d[0] + 1):
        for a2 in range(4 * d[1] + 1):
            for src, _ in _phi_spaces(d, (a1, a2)):
                for fq, fp in pairs:
                    want = inverse_block_oracle(fq, src)
                    got = _inverse_block(fp, src)
                    assert _inverse_block(fq, src) == want, (a1, a2)
                    assert got == inverse_block_oracle(fp, src), (a1, a2)
                    assert got.data.tolist() == [[mod_p(x, p) for x in row]
                                              for row in want.data.tolist()], (a1, a2)
    # small coefficients keep the exact eliminations behind the actions cheap
    rng = random.Random(7 * d[0] + d[1])
    sq = random_system(QQ, d, rng)
    sp = SystemF(GF(p), d, [BiPoly(GF(p), d, f.coeffs) for f in sq.polys])
    for action in (_quotient_action, _h1_action):
        for a1 in range(2 * d[0] + 3):
            for a2 in range(2 * d[1] + 3):
                for xi in range(4):
                    want = action(sq, (a1, a2), xi).data.tolist()
                    got = action(sp, (a1, a2), xi).data.tolist()
                    assert got == [[mod_p(x, p) for x in row] for row in want], \
                        (action.__name__, a1, a2, xi)


@pytest.mark.parametrize("fld", [GF(32003), GF(5), QQ], ids=["GF32003", "GF5", "QQ"])
@pytest.mark.parametrize("d", [(1, 2), (2, 1)])
def test_phi_matrices_stack_per_form_blocks(d, fld):
    # phi_matrices places the blocks of the three forms in one call; each
    # phi must equal the per-form blocks of the oracle (one term and one
    # column at a time) stacked by mat_from_blocks, block for block.  The
    # (3d1+3, 3d2+3) box holds empty and nonempty spaces of both phi, the
    # flipped ones of phi2 included; over Q every entry is a Fraction
    sys_ = random_system(fld, d, random.Random(3 * d[0] + d[1]))
    scalar = int if fld.is_prime_field else Fraction
    seen = set()
    for a1 in range(3 * d[0] + 4):
        for a2 in range(3 * d[1] + 4):
            for phi, (src, tgt) in zip(phi_matrices(sys_, (a1, a2)), _phi_spaces(d, (a1, a2))):
                want = mat_from_blocks(fld, [tgt.dim] * 3, [src.dim],
                                       {(k, 0): inverse_block_oracle(f, src).data
                                        for k, f in enumerate(sys_.polys)})
                assert phi.data.dtype == fld.dtype, (a1, a2)
                assert phi.data.shape == want.data.shape, (a1, a2)
                assert phi.data.tolist() == want.data.tolist(), (a1, a2)
                assert all(type(x) is scalar for row in phi.data.tolist() for x in row)
                seen.add((src.flipped, bool(phi.data.size)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("fld", [GF(), QQ], ids=["GF", "QQ"])
def test_builders_return_field_dtype(fld):
    # one representation: every builder hands back a 2-D ndarray of the
    # field's dtype, with Python ints or Fractions as its entries
    sys_ = random_bpf_system(fld, (1, 2), random.Random(9))
    src1, src2 = _phi_spaces(sys_.d, (4, 2))[0][0], _phi_spaces(sys_.d, (0, 6))[1][0]
    m = ExactMatrix.from_rows(fld, [[1, 2, 0], [0, 3, 4]])
    mats = [m, ExactMatrix.zeros(fld, 2, 3), ExactMatrix.identity(fld, 3),
            mat_mul(m, ExactMatrix.from_rows(fld, [[1, 0], [2, 3], [0, 4]])),
            mat_from_blocks(fld, [2, 1], [3, 2], {(0, 0): m.data}),
            rref(m)[0], kernel_data(m)[0], mul_matrix(sys_.polys[0], (1, 2)),
            *phi_matrices(sys_, (4, 2))[:1], *phi_matrices(sys_, (0, 6))[1:],
            _inverse_block(sys_.polys[0], src1), _inverse_block(sys_.polys[0], src2),
            *(_ring_differential(sys_, (5, 6), j) for j in (1, 2, 3)),
            _quotient_kernel(sys_, (1, 2))[0]]
    mats += [_quotient_action(sys_, (1, 2), xi) for xi in range(4)]
    mats += [_h1_action(sys_, (1, 6), xi) for xi in (2, 3)]
    scalar = int if fld.is_prime_field else Fraction
    for k, mat in enumerate(mats):
        assert isinstance(mat.data, np.ndarray) and mat.data.dtype == fld.dtype, k
        assert mat.data.shape == (mat.rows, mat.cols) and mat.data.size, k
        assert all(type(x) is scalar for row in mat.data.tolist() for x in row), k


@pytest.mark.parametrize("d", [(1, 1), (1, 2), (2, 2)])
def test_h1_two_routes_agree(d):
    # kernel model vs honest Koszul strand ranks, every degree in the box
    rng = random.Random(10 * d[0] + d[1])
    sys_ = random_bpf_system(FLD, d, rng)
    box = (3 * d[0] + 2, 3 * d[1] + 2)
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            a = (a1, a2)
            assert h1_dim(sys_, a) == koszul_strand_homology(sys_, a, 1)


@pytest.mark.parametrize("d", [(1, 1), (1, 3), (2, 2)])
def test_euler_and_tail_vanishing(d):
    rng = random.Random(20 * d[0] + d[1])
    sys_ = random_bpf_system(FLD, d, rng)
    box = (3 * d[0] + 2, 3 * d[1] + 2)
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            a = (a1, a2)
            assert koszul_strand_homology(sys_, a, 0) == hf_quotient(sys_, a)
            assert koszul_strand_homology(sys_, a, 2) == 0
            assert koszul_strand_homology(sys_, a, 3) == 0
            assert hf_quotient(sys_, a) - h1_dim(sys_, a) == chi(d, a)
            assert h1_dim(sys_, a) >= nd(d, a)


def _direct_koszul_ranks(sys_, a):
    """(rank delta1, rank delta2, rank delta3) at a, built from mul_matrix."""
    fld = sys_.field
    d1, d2 = sys_.d
    f0, f1, f2 = sys_.polys
    b = [(a[0] - k * d1, a[1] - k * d2) for k in range(4)]

    def mm(g, k):  # multiplication by g from strand b[k] to strand b[k-1]
        if strand_dim(b[k]) == 0:
            return ExactMatrix.zeros(fld, strand_dim(b[k - 1]), 0)
        return mul_matrix(g, b[k])

    def z(k):
        return ExactMatrix.zeros(fld, strand_dim(b[k - 1]), strand_dim(b[k]))

    delta1 = mat_hstack(fld, [mm(f0, 1), mm(f1, 1), mm(f2, 1)])
    delta2 = mat_vstack(fld, [mat_hstack(fld, [mm(f1, 2), mm(f2, 2), z(2)]),
                              mat_hstack(fld, [mm(-f0, 2), z(2), mm(f2, 2)]),
                              mat_hstack(fld, [z(2), mm(-f0, 2), mm(-f1, 2)])])
    delta3 = mat_vstack(fld, [mm(-f2, 3), mm(f1, 3), mm(-f0, 3)])
    return tuple(mat_rank(m) for m in (delta1, delta2, delta3))


def _ring_spot_dims(d, a):
    """Spot dims of the Koszul complex on three forms of degree d acting on
    R at degree a: dim R_a, then 3, 3 and 1 copies of R_(a - k d)."""
    return [strand_dim(a)] + [3 * strand_dim((a[0] - k * d[0], a[1] - k * d[1]))
                              for k in (1, 2)] + [strand_dim((a[0] - 3 * d[0], a[1] - 3 * d[1]))]


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=ORACLE_IDS, indirect=True)
@pytest.mark.parametrize("d", [(1, 1), (1, 2), (2, 1)])
def test_koszul_differentials_are_complexes(d, fld):
    # every Koszul strand comes from one builder: on R over the net, and on
    # R/I and H1 over the variables.  Consecutive differentials compose to
    # zero and the spots have the closed-form dims; the box reaches 3d + 1,
    # so d_3 of the ring complex is nonzero in it.  The ranks are checked
    # against matrices built from mul_matrix by the store test below.
    sys_ = random_bpf_system(fld, d, random.Random(40 * d[0] + d[1]))
    modules = [((d,) * 3, strand_dim, lambda b, l: mul_matrix(sys_.polys[l], b)),
               (VAR_DEGREES, partial(hf_quotient, sys_), partial(_quotient_action, sys_)),
               (VAR_DEGREES, partial(h1_dim, sys_), partial(_h1_action, sys_))]
    for a1 in range(3 * d[0] + 2):
        for a2 in range(3 * d[1] + 2):
            a = (a1, a2)
            spots = [_koszul_spots((d,) * 3, a, j) for j in range(4)]
            assert [sum(strand_dim(b) for _, b in g) for g in spots] == _ring_spot_dims(d, a)
            for degs, dim, action in modules:
                diffs = [_koszul_differential(fld, degs, a, j, dim, action)
                         for j in range(1, len(degs) + 1)]
                for j, m in enumerate(diffs, 1):
                    assert m.data.dtype == fld.dtype
                    assert m.rows == sum(dim(b) for _, b in _koszul_spots(degs, a, j - 1))
                    assert m.cols == sum(dim(b) for _, b in _koszul_spots(degs, a, j))
                for lo, hi in zip(diffs, diffs[1:]):
                    assert mat_mul(lo, hi).is_zero(), (a, degs)


@pytest.mark.parametrize("fld", [GF(), QQ], ids=["GF", "QQ"])
@pytest.mark.parametrize("d", [(1, 2), (2, 2)])
def test_provider_actions_are_induced_maps(d, fld):
    # each module action record is the map that multiplication by a variable
    # induces on its module.  R/I: projecting to R/I coordinates (K^T, with
    # K the kernel matrix of d_1^T) commutes with multiplication on R.  H1:
    # including kernel coordinates (the kernel basis of phi_k) commutes with
    # the action on each phi source, V1 and V2.
    sys_ = random_bpf_system(fld, d, random.Random(50 * d[0] + d[1]))
    for a1 in range(3 * d[0] + 2):
        for a2 in range(3 * d[1] + 2):
            b = (a1, a2)
            for xi in range(4):
                x = BiPoly.variable(fld, "stuv"[xi])
                bt = (a1 + VAR_DEGREES[xi][0], a2 + VAR_DEGREES[xi][1])
                k_src, k_tgt = _quotient_kernel(sys_, b)[0], _quotient_kernel(sys_, bt)[0]
                proj_src = ExactMatrix(fld, k_src.data.T)
                proj_tgt = ExactMatrix(fld, k_tgt.data.T)
                assert mat_mul(proj_tgt, mul_matrix(x, b)) == \
                    mat_mul(_quotient_action(sys_, b, xi), proj_src), ("R/I", b, xi)
                act = _h1_action(sys_, b, xi).data
                r0 = c0 = 0
                for (src, _), (Ks, _), (Kt, _) in zip(_phi_spaces(d, b), _phi_kernels(sys_, b),
                                                      _phi_kernels(sys_, bt)):
                    block = ExactMatrix(fld, act[r0:r0 + Kt.cols, c0:c0 + Ks.cols])
                    assert mat_mul(_inverse_block(x, src), Ks) == \
                        mat_mul(Kt, block), ("H1", b, xi)
                    r0, c0 = r0 + Kt.cols, c0 + Ks.cols


def test_ring_differential_builds_each_block_once(monkeypatch):
    # the ring complex's actions mul_matrix(f_l, b) grow as dim R_b^2 and are
    # not stored, but one d_2 asks for each of its three once, although two
    # of its blocks carry each f_l
    sys_ = random_bpf_system(FLD, (1, 2), random.Random(11))
    calls = []

    def counting(f, b):
        calls.append(b)
        return mul_matrix(f, b)
    monkeypatch.setattr(strands, "mul_matrix", counting)
    assert _ring_differential(sys_, (4, 6), 2).cols == 3 * strand_dim((2, 2))
    assert calls == [(2, 2)] * 3


# random basepoint-free nets, and two nets with basepoints: sys_bp, whose
# basepoints are isolated, and the common factor net, a curve of
# basepoints, whose ring H_2 is nonzero (at 20 degrees of its box, 1 at
# (3,5) and 2 at (4,5)); that is the only input where rule E drops rows of
# the ring d_3 that matter
_STORE_NETS = {
    "d0": lambda fld: random_bpf_system(fld, (1, 1), random.Random(31)),
    "d1": lambda fld: random_bpf_system(fld, (1, 2), random.Random(32)),
    "d2": lambda fld: random_bpf_system(fld, (2, 2), random.Random(62)),
    "common-factor": lambda fld: _common_factor_net(fld),
    "sys_bp": lambda fld: _over(load_system(data_path("sys_bp.json")), fld),
}


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=ORACLE_IDS, indirect=True)
@pytest.mark.parametrize("net", list(_STORE_NETS))
def test_store_matches_direct_eliminations(net, fld):
    # hf, Koszul H_0 and the Betti quotient strands read one stored
    # elimination; this compares every strand fact with fresh ranks of
    # matrices built here, bypassing the store
    sys_ = _STORE_NETS[net](fld)
    d = sys_.d
    h2 = 0
    for a1 in range(3 * d[0] + 4):
        for a2 in range(3 * d[1] + 4):
            a = (a1, a2)
            ranks = (0,) + _direct_koszul_ranks(sys_, a) + (0,)
            dims = _ring_spot_dims(d, a)
            for i in range(4):
                assert koszul_strand_homology(sys_, a, i) == \
                    dims[i] - ranks[i] - ranks[i + 1], (a, i)
            h2 += koszul_strand_homology(sys_, a, 2) > 0
            assert hf_quotient(sys_, a) == dims[0] - ranks[1]
            phis = phi_matrices(sys_, a)
            assert h1_dim(sys_, a) == sum(p.cols - mat_rank(p) for p in phis)
    assert is_generic(sys_) == full_box_generic(sys_)
    assert h2 == (20 if net == "common-factor" else 0)


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=ORACLE_IDS, indirect=True)
@pytest.mark.parametrize("d", [(1, 1), (1, 2), (1, 3), (1, 5), (2, 2)])
def test_is_generic_matches_full_box_oracle(d, fld):
    # on a basepoint-free net is_generic sweeps only the critical ranges;
    # its verdict and witness must be those of the full sweep of fresh ranks
    sys_ = random_bpf_system(fld, d, random.Random(70 * d[0] + d[1]))
    assert basepoint_free(sys_).kind == "Free"
    assert is_generic(sys_) == full_box_generic(sys_)


@pytest.mark.parametrize("name", ["sys_bp.json", "sys_conic12.json", "sys_maps6.json"])
def test_is_generic_matches_full_box_oracle_on_data(name):
    sys_ = load_system(data_path(name))
    assert is_generic(sys_) == full_box_generic(sys_)


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=ORACLE_IDS, indirect=True)
def test_is_generic_matches_full_box_oracle_on_sparse_nets(fld):
    # sparse nets drop rank often, with and without basepoints; whatever
    # the branch, the verdict and witness are the full sweep's
    rng = random.Random(71)
    seen = Counter()
    for d in [(1, 2), (1, 3), (2, 2)]:
        for _ in range(16):
            vecs = [[fld.rand(rng) if rng.random() < 0.4 else 0
                     for _ in range(strand_dim(d))] for _ in range(3)]
            try:
                sys_ = SystemF(fld, d, [BiPoly.from_vector(fld, d, v) for v in vecs])
            except ValueError:
                continue
            want = full_box_generic(sys_)
            assert is_generic(sys_) == want, (d, vecs)
            seen[basepoint_free(sys_).kind == "Free", want.generic] += 1
    # both branches met a rank drop
    assert seen[True, False] and seen[False, False], seen


def _transpose(sys_, fld):
    """The net with the roles of (s,t) and (u,v) swapped, over fld."""
    d = sys_.d[::-1]
    return SystemF(fld, d, [BiPoly(fld, d, {(c, e, a, b): int(v)
                                            for (a, b, c, e), v in f.coeffs.items()})
                            for f in sys_.polys])


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=ORACLE_IDS, indirect=True)
def test_is_generic_finds_a_first_drop_in_the_mirror_strip(fld):
    # the transpose of sys_maps6 is a Free (6,1) net; its first drop (6,3)
    # lies in the mirror strip a2 >= 3d2, where phi2 is eliminated, and is
    # not a frontier degree
    sys_ = _transpose(maps6_system(), fld)
    assert basepoint_free(sys_).kind == "Free"
    assert strands._frontier((6, 1), (24, 4), True) == [(9, 4), (10, 3)]
    verdict = is_generic(sys_)
    assert str(verdict) == "NotGeneric(witness (6, 3))"
    assert verdict == full_box_generic(sys_)


def test_is_generic_matches_full_box_oracle_on_sparse_nets_mod_7():
    # over GF(7) sparse nets drop rank often, inside and outside the
    # frontier, with and without basepoints
    fld, rng, seen = GF(7), random.Random(7), Counter()
    for d in [(1, 2), (1, 3), (2, 1), (2, 2)]:
        for _ in range(24):
            vecs = [[fld.rand(rng) if rng.random() < 0.5 else 0
                     for _ in range(strand_dim(d))] for _ in range(3)]
            try:
                sys_ = SystemF(fld, d, [BiPoly.from_vector(fld, d, v) for v in vecs])
            except ValueError:
                continue
            want = full_box_generic(sys_)
            assert is_generic(sys_) == want, (d, vecs)
            seen[basepoint_free(sys_).kind == "Free", want.generic] += 1
    assert len(seen) == 4, seen


def test_frontier_frozen():
    # strip 1 of (1,42) on the default box: k = a1 - 3 in {0, 1}, rows 42..82;
    # phi1 has at most as many columns as rows up to a2 = 74 at k = 0 and up
    # to 71 at k = 1, and more above; the mirror strip has no rows
    assert strands._frontier((1, 42), (4, 168), True) == [(3, 74), (3, 75), (4, 71), (4, 72)]
    assert strands._frontier((1, 6), (4, 24), True) == [(3, 10), (4, 9)]
    # on a net with a basepoint the rows start at 0, in both strips
    assert strands._frontier((1, 2), (4, 8), False) == [(0, 8), (4, 2)]
    assert strands._frontier((1, 1), (4, 4), True) == []


def test_is_generic_eliminates_phi_only_at_the_frontier():
    # on a generic net full rank at the 2 frontier degrees decides the 10
    # critical ones; no other phi pair is eliminated
    sys_ = random_bpf_system(FLD, (1, 6), random.Random(16))
    assert is_generic(sys_).generic
    assert len(critical_ranges((1, 6), (4, 24))) == 10
    assert sorted(key[1] for key in strands._store[sys_]
                  if key[0] == "_phi_kernels") == [(3, 10), (4, 9)]


def test_h1_vanishes_outside_support_region():
    rng = random.Random(77)
    for d in [(1, 2), (2, 2)]:
        sys_ = random_bpf_system(FLD, d, rng)
        box = (4 * d[0], 4 * d[1])
        allowed = set(h1_support_box(d, box))
        for a1 in range(box[0] + 1):
            for a2 in range(box[1] + 1):
                if (a1, a2) not in allowed:
                    assert h1_dim(sys_, (a1, a2)) == 0


def test_maps6_phi1_shape():
    sys_ = maps6_system()
    phi1, phi2 = phi_matrices(sys_, (3, 6))
    assert (phi1.rows, phi1.cols) == (30, 11)
    assert (phi2.rows, phi2.cols) == (0, 0)
    m = phi1.data
    # the middle source element 1/(u^6 v^6) is annihilated by all three forms
    assert not m[:, 5].any()
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


def test_maps6_h1_and_genericity():
    sys_ = maps6_system()
    assert h1_dim(sys_, (3, 6)) == 1
    assert koszul_strand_homology(sys_, (3, 6), 1) == 1
    verdict = is_generic(sys_)
    assert not verdict.generic
    assert verdict.witness == (3, 6)
    assert str(verdict) == "NotGeneric(witness (3, 6))"


def _net_1_2(vecs):
    fld = GF(32003)
    return SystemF(fld, (1, 2), [BiPoly.from_vector(fld, (1, 2), v) for v in vecs])


@pytest.mark.parametrize("vecs, witness", [
    ([[0, 0, 13014, 0, 7376, 0], [0, 0, 0, 0, 0, 717], [0, 19418, 0, 0, 0, 1706]], (3, 0)),
    ([[0, 16752, 0, 0, 0, 0], [23311, 5469, 0, 0, 0, 0], [0, 0, 5621, 0, 0, 0]], (0, 6)),
], ids=["strip", "mirror"])
def test_is_generic_sweeps_the_box_on_nets_with_basepoints(vecs, witness, monkeypatch):
    # phi drops rank outside the critical ranges only on a net with a
    # basepoint; a sweep of the critical ranges alone would miss this first
    # drop, so only the Free guard keeps the witness
    sys_ = _net_1_2(vecs)
    assert basepoint_free(sys_).kind == "HasBasepoint"
    verdict = is_generic(sys_)
    assert str(verdict) == f"NotGeneric(witness {witness})"
    assert verdict == full_box_generic(sys_)
    assert witness not in critical_ranges((1, 2), verdict.box)
    monkeypatch.setattr(strands, "_free", lambda _: True)
    assert is_generic(_net_1_2(vecs)).witness != witness


def test_random_systems_are_generic():
    rng = random.Random(123)
    for d in [(1, 2), (1, 3)]:
        sys_ = random_bpf_system(FLD, d, rng)
        verdict = is_generic(sys_)
        assert verdict.generic and verdict.witness is None
        assert verdict.box == (4 * d[0], 4 * d[1])
        # a generic system attains h1 == nd everywhere on the box
        for a1 in range(verdict.box[0] + 1):
            for a2 in range(verdict.box[1] + 1):
                assert h1_dim(sys_, (a1, a2)) == nd(d, (a1, a2))


def test_is_generic_box_validation():
    rng = random.Random(5)
    sys_ = random_bpf_system(FLD, (1, 2), rng)
    with pytest.raises(ValueError, match="box too small"):
        is_generic(sys_, box=(3, 6))
    assert is_generic(sys_, box=(4, 7)).generic in (True, False)


def test_critical_ranges_frozen():
    got = critical_ranges((1, 2), (5, 7))
    # a1 >= 3 with d2 <= a2 <= 2d2-2 collapses to the a2 == 2 strip;
    # the mirror strip needs d1 <= a1 <= 2d1-2 which is empty for d1 == 1
    assert got == [(3, 2), (4, 2), (5, 2)]
    assert critical_ranges((1, 1), (8, 8)) == []
    assert (3, 10) in critical_ranges((1, 6), (10, 20))


def test_hf_quotient_edges():
    rng = random.Random(6)
    sys_ = random_bpf_system(FLD, (1, 1), rng)
    assert hf_quotient(sys_, (-1, 0)) == 0
    assert hf_quotient(sys_, (0, 0)) == 1
    # below d nothing can be hit by the ideal
    assert hf_quotient(sys_, (0, 1)) == strand_dim((0, 1))
    assert hf_quotient(sys_, (3, 3)) == 0


def _assert_records_equal(sys_, box, order="ascending"):
    # the recursion must return the very record of the dense elimination:
    # the same free monomials and the same kernel array, entry for entry,
    # whatever the order of the queries (ascending fills each chain from
    # the bottom, descending starts every chain cold)
    scalar = int if sys_.field.is_prime_field else Fraction
    degrees = [(a1, a2) for a1 in range(-1, box[0] + 1) for a2 in range(-1, box[1] + 1)]
    if order == "descending":
        degrees.reverse()
    elif order == "shuffled":
        random.Random(65).shuffle(degrees)
    for a in degrees:
        (got, free), (want, want_free) = _quotient_kernel(sys_, a), dense_quotient_kernel(sys_, a)
        assert free == want_free, a
        assert got.data.dtype == want.data.dtype, a
        assert got.data.shape == want.data.shape, a
        rows = got.data.tolist()
        assert rows == want.data.tolist(), a
        assert all(type(x) is scalar for row in rows for x in row), a


@pytest.mark.parametrize("fld", [GF(), QQ, GF(5)], ids=["GF", "QQ", "GF5"])
@pytest.mark.parametrize("d", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
def test_quotient_kernel_matches_dense_oracle(d, fld):
    sys_ = random_system(fld, d, random.Random(60 * d[0] + d[1]))
    _assert_records_equal(sys_, (3 * d[0] + 3, 3 * d[1] + 3))


@pytest.mark.parametrize("fld", [GF(), QQ], ids=["GF", "QQ"])
def test_quotient_step_solves_its_free_rows_outright(fld, monkeypatch):
    # on this (1,2) net every row of the compatibility matrix of the steps
    # at (2,2) .. (6,2) meets a free monomial of the record below, so those
    # steps solve every row outright and eliminate only to normalize V_b
    sys_ = random_system(fld, (1, 2), random.Random(62))
    calls = []
    for mod in (exactcore, strands):
        monkeypatch.setattr(mod, "rref", lambda m, rref=mod.rref: calls.append(m) or rref(m))
    made = {}
    for a in [(a1, a2) for a1 in range(-1, 7) for a2 in range(-1, 10)]:
        before = len(calls)
        _quotient_kernel(sys_, a)
        made[a] = len(calls) - before
    monkeypatch.undo()
    assert [made[k, 2] for k in range(2, 7)] == [1] * 5
    _assert_records_equal(sys_, (6, 9))


@pytest.mark.parametrize("name", ["sys_bp.json", "sys_conic12.json", "sys_maps6.json"])
def test_quotient_kernel_matches_dense_oracle_on_data(name):
    sys_ = load_system(data_path(name))
    _assert_records_equal(sys_, (3 * sys_.d[0] + 3, 3 * sys_.d[1] + 3))


def _common_factor_net(fld):
    """A (1,2) net whose forms share a (0,1) factor."""
    rng = random.Random(61)
    common = random_form(fld, (0, 1), rng)
    return SystemF(fld, (1, 2), [common * random_form(fld, (1, 1), rng) for _ in range(3)])


def _over(sys_, fld):
    """The net sys_, whose coefficients are integers, over fld."""
    return SystemF(fld, sys_.d, [BiPoly(fld, sys_.d, {e: int(v) for e, v in f.coeffs.items()})
                                 for f in sys_.polys])


def test_quotient_kernel_matches_dense_oracle_with_common_factor():
    # the recursion assumes nothing of the system: a common (0,1) factor
    # leaves R/I infinite-dimensional and V_b nonzero in every degree
    sys_ = _common_factor_net(GF(101))
    assert hf_quotient(sys_, (9, 12)) > 0
    _assert_records_equal(sys_, (6, 9))


_ORDER_NETS = {
    "(1,3)": lambda fld: random_system(fld, (1, 3), random.Random(63)),
    "(3,1)": lambda fld: _transpose(random_system(fld, (1, 3), random.Random(63)), fld),
    "(2,3)": lambda fld: random_system(fld, (2, 3), random.Random(64)),
    "sys_bp": lambda fld: _over(load_system(data_path("sys_bp.json")), fld),
    "common factor": _common_factor_net,
}


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("net", list(_ORDER_NETS))
@pytest.mark.parametrize("fld", [GF(), QQ, GF(5)], ids=["GF", "QQ", "GF5"])
def test_quotient_kernel_is_independent_of_query_order(fld, net, order):
    # a cold query eliminates the edge b_i = d_i directly, a warm one steps
    # along it; both give the record of the dense elimination, so it cannot
    # depend on which degrees were asked for first
    sys_ = _ORDER_NETS[net](fld)
    _assert_records_equal(sys_, (3 * sys_.d[0] + 3, 3 * sys_.d[1] + 3), order)


def _quotient_records(sys_):
    """The _quotient_kernel records stored for sys_, and for its image over Q."""
    systems = [sys_] if sys_.field.is_prime_field else [sys_, strands._image(sys_)]
    return [key for s in systems if s is not None for key in strands._store.get(s, {})
            if key[0] == "_quotient_kernel"]


@pytest.mark.parametrize("fld", ORACLE_FIELDS, ids=ORACLE_IDS, indirect=True)
def test_cold_quotient_query_eliminates_the_edge(fld):
    # a cold hf at (3,36) steps twice along a1 and eliminates the thin
    # strand on the edge a1 = 1; a walk down the edge to d = (1,12) would
    # store about 30 records.  The transpose steps along a2.  hf is 0 at
    # (3,36) and 3 at (3,20).
    for b, transpose in [((3, 36), False), ((3, 36), True), ((3, 20), False), ((3, 20), True)]:
        sys_ = random_bpf_system(fld, (1, 12), random.Random(66))
        if transpose:
            sys_, b = _transpose(sys_, fld), b[::-1]
        assert hf_quotient(sys_, b) == len(dense_quotient_kernel(sys_, b)[1])
        assert len(_quotient_records(sys_)) <= 8, b


def test_quotient_kernel_deep_chain():
    # the chain from (600, 2) down to the edge a1 = d1 of d = (1,1) is 599
    # steps along a1; it is filled from the bottom up, not by one nested
    # call per step
    sys_ = random_bpf_system(FLD, (1, 1), random.Random(62))
    assert hf_quotient(sys_, (600, 2)) == len(dense_quotient_kernel(sys_, (600, 2))[1])
    assert len(_quotient_records(sys_)) >= 599


@pytest.mark.parametrize("fld", [GF(), GF(5), QQ], ids=["GF", "GF5", "QQ"])
def test_full_rank_matches_phi_ranks(fld):
    # _full_rank compares the sum of the two nullities with _full_rank_h1;
    # it must say what the rank of each phi says, also where ranks drop:
    # on sys_maps6, on a (1,2) net with a basepoint that drops outside the
    # critical strips, and on random nets, over GF(5) often with basepoints
    rng = random.Random(43)
    nets = [random_system(fld, d, rng) for d in ((1, 2), (2, 2), (2, 1))]
    nets += [_over(load_system(data_path(name)), fld)
             for name in ("sys_bp.json", "sys_maps6.json")]
    nets.append(_over(_net_1_2([[0, 0, 13014, 0, 7376, 0], [0, 0, 0, 0, 0, 717],
                                [0, 19418, 0, 0, 0, 1706]]), fld))
    drops = 0
    for sys_ in nets:
        d = sys_.d
        for a1 in range(3 * d[0] + 4):
            for a2 in range(3 * d[1] + 4):
                want = all(mat_rank(p) == min(p.rows, p.cols)
                           for p in phi_matrices(sys_, (a1, a2)))
                assert strands._full_rank(sys_, (a1, a2)) == want, (d, (a1, a2))
                drops += not want
    assert drops


@pytest.mark.parametrize("d", [(1, 3), (3, 1), (2, 2), (1, 42)], ids=lambda d: f"{d[0]}x{d[1]}")
def test_cold_basepoint_test_builds_the_generator_strand_on_the_edge(d, monkeypatch):
    # _free reads hf at (3d1 - 1, 2d2 - 1) off the quotient record, so the
    # generator strand is built only where the quotient chain eliminates it,
    # on the edge b_i = d_i of the axis i of the smaller degree, and never
    # as the square strand off that edge
    built = []
    ring_differential = strands._ring_differential

    def recording(sys_, a, j):
        built.append((tuple(a), j))
        return ring_differential(sys_, a, j)

    sys_ = random_system(FLD, d, random.Random(d[0] * 100 + d[1]))
    monkeypatch.setattr(strands, "_ring_differential", recording)
    free = strands._free(sys_)
    monkeypatch.undo()
    i = 0 if d[0] <= d[1] else 1
    assert built and all(j == 1 and b[i] == d[i] for b, j in built), built
    m = (3 * d[0] - 1, 2 * d[1] - 1)
    assert free == (mat_rank(_ring_differential(sys_, m, 1)) == strand_dim(m))
