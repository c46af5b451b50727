import json
import random
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigres.exactcore import GF, QQ, mat_rank
from bigres.bipoly import BiPoly, SystemF, gcd_binary, split_st, strand_dim, theta_matrix
from bigres import strands
from bigres.strands import _ring_differential, h1_dim, phi_matrices
from bigres.betti import betti_table, cross, hb_kernel, verify_resolution
from bigres.segre import (ConicRedirect, FactorizedBasis, ImpossibleFactorization,
                          basepoint_free, classify, conic_resolution, detect_conic,
                          extract_factorization, lift_syzygy, pencil_expected_degrees,
                          psi_image, quartic_value, square_strand_singular,
                          three_point_resolution)
from bigres.cli import load_system

from helpers import (data_path, dense_quotient_kernel, load_json, random_bpf_system,
                     random_form, uncertified)

FLD = GF(32003)


def _var(name):
    return BiPoly.variable(FLD, name)


def _monomial_form(n, k):
    # u^k v^(n-k) as a (0,n) BiPoly
    vec = [0] * (n + 1)
    vec[n - k] = 1
    return BiPoly.from_vector(FLD, (0, n), vec)


def _evaluate(f, st_pt, uv_pt):
    # through the split f = s p + t q, which evaluate must agree with
    p, q = split_st(f)
    val = FLD.add(FLD.mul(st_pt[0], p.evaluate((0, 0) + tuple(uv_pt))),
                  FLD.mul(st_pt[1], q.evaluate((0, 0) + tuple(uv_pt))))
    assert val == f.evaluate(tuple(st_pt) + tuple(uv_pt))
    return val


def _shift_multiset(rc):
    return Counter((i, tuple(sh)) for i, level in enumerate(rc.shifts)
                   for sh in level)


def _golden_multiset(name):
    data = load_json(name)
    return Counter({(i, (a1, a2)): m for i, a1, a2, m in data["entries"]})


# ------------------------------------------------------------- basepoints

def test_basepoint_witness():
    sys_ = load_system(data_path("sys_bp.json"))
    verdict = basepoint_free(sys_)
    assert verdict.kind == "HasBasepoint"
    assert verdict.witness == ((0, 1), (0, 1))
    assert str(verdict).startswith("HasBasepoint at")
    for f in sys_.polys:
        assert FLD.is_zero(_evaluate(f, verdict.witness[0], verdict.witness[1]))


def test_basepoint_theta_rank_one():
    # every f_i divisible by s+t: theta has rank <= 1 everywhere
    s, t, u, v = map(_var, "stuv")
    sys_ = SystemF(FLD, (1, 2),
                   ((s + t) * (u * u), (s + t) * (v * v), (s + t) * ((u + v) * (u + v))))
    verdict = basepoint_free(sys_)
    assert verdict.kind == "HasBasepoint"
    assert verdict.evidence == "theta rank <= 1"
    st_pt, uv_pt = verdict.witness
    for f in sys_.polys:
        assert FLD.is_zero(_evaluate(f, st_pt, uv_pt))


def test_basepoint_free_verdicts():
    maps6 = load_system(data_path("sys_maps6.json"))
    assert basepoint_free(maps6).kind == "Free"
    s, t = _var("s"), _var("t")
    a0, a1 = _monomial_form(3, 3), _monomial_form(3, 0)
    normal = SystemF(FLD, (1, 3), (t * a0, s * a0 + t * a1, s * a1))
    assert basepoint_free(normal).kind == "Free"


def test_basepoint_d1_two_sided():
    rng = random.Random(1)
    sys_ = random_bpf_system(FLD, (2, 2), rng)
    assert basepoint_free(sys_).kind == "Free"
    s, u, v = _var("s"), _var("u"), _var("v")
    degenerate = SystemF(FLD, (2, 2), (s * s * u * u, s * s * u * v, s * s * v * v))
    verdict = basepoint_free(degenerate)
    # the whole line s = 0 is a base locus; for d1 >= 2 no witness is searched
    assert verdict.kind == "HasBasepoint"
    assert verdict.witness is None and verdict.evidence is None
    assert str(verdict) == "HasBasepoint"


def test_basepoint_consistency():
    rng = random.Random(2)
    for d in [(1, 1), (1, 2)]:
        verdict = basepoint_free(random_bpf_system(FLD, d, rng))
        assert verdict.kind == "Free" and verdict.witness is None
    from bigres.strands import hf_quotient
    bp = load_system(data_path("sys_bp.json"))
    for k in range(1, 4):
        assert hf_quotient(bp, (k, k)) >= 1


def _identity_nets(fld, d, rng):
    """(name, system, has_basepoint) for the nets of the square-strand test:
    None where the construction does not decide."""
    def form(deg, density=1.0):
        return BiPoly.from_vector(fld, deg, [fld.rand(rng) if rng.random() < density else 0
                                             for _ in range(strand_dim(deg))])

    def net(name, make, has_basepoint):
        for _ in range(50):
            try:
                return name, SystemF(fld, d, make()), has_basepoint
            except ValueError:  # dependent or zero forms: draw again
                continue
        raise RuntimeError(f"no independent {name} net of degree {d}")

    d1, d2 = d
    s, t, u, v = (BiPoly.variable(fld, x) for x in "stuv")
    nets = [net("random", lambda: [form(d) for _ in range(3)], False),
            net("sparse", lambda: [form(d, 0.3) for _ in range(3)], None),
            # every form vanishes at s = u = 0
            net("rational", lambda: [s * form((d1 - 1, d2)) + t * u * form((d1 - 1, d2 - 1))
                                     for _ in range(3)], True)]
    if d1 >= 2:
        nets.append(net("s+t", lambda: [(s + t) * form((d1 - 1, d2)) for _ in range(3)], True))
    if strand_dim((d1, d2 - 2)) >= 3:  # room for three independent cofactors
        # u^2 + v^2 has no root in Q nor in GF(32003), as 32003 = 3 mod 4
        nets.append(net("u2+v2", lambda: [(u * u + v * v) * form((d1, d2 - 2))
                                          for _ in range(3)], True))
    return nets


def _minor_gcd_free(sys_):
    """d1 = 1: no basepoint iff the 2x2 minors of theta have a constant gcd."""
    minors = [m for m in cross(*theta_matrix(sys_.polys)) if not m.is_zero()]
    if not minors:
        return False
    g = minors[0]
    for m in minors[1:]:
        g = gcd_binary(g, m)
    return g.degree[1] == 0


def _square_full_rank(sys_, m):
    d1 = _ring_differential(sys_, m, 1)
    assert d1.rows == d1.cols == 6 * sys_.d[0] * sys_.d[1], m
    return mat_rank(d1) == d1.rows


@pytest.mark.parametrize("mode", ["GF", "QQ", "QQ-uncertified"])
@pytest.mark.parametrize("d", [(1, 1), (1, 2), (1, 6), (2, 2), (2, 3), (3, 2)],
                         ids=lambda d: f"{d[0]}x{d[1]}")
def test_square_strand_decides_basepoints(d, mode):
    # the generator strand at (3d1-1, 2d2-1) is square, and it has full rank
    # exactly when the net has no basepoint: it agrees with the gcd of the
    # minors (d1 = 1), with hf(3d) = 0 by a dense elimination and with the
    # mirror strand at (2d1-1, 3d2-1), on nets built with and without one
    fld = FLD if mode == "GF" else QQ
    d1, d2 = d
    with uncertified() if mode == "QQ-uncertified" else nullcontext():
        for name, sys_, has_basepoint in _identity_nets(fld, d, random.Random(d1 * 10 + d2)):
            full = _square_full_rank(sys_, (3 * d1 - 1, 2 * d2 - 1))
            assert full == strands._free(sys_), name
            assert full == (basepoint_free(sys_).kind == "Free"), name
            if has_basepoint is not None:
                assert full == (not has_basepoint), name
            if d1 == 1:
                assert full == _minor_gcd_free(sys_), name
            assert full == (not dense_quotient_kernel(sys_, (3 * d1, 3 * d2))[1]), name
            assert full == _square_full_rank(sys_, (2 * d1 - 1, 3 * d2 - 1)), name


# ------------------------------------------------------------ conic detection

@pytest.mark.parametrize("n", [1, 2, 6])
def test_detect_conic_antidiagonal_family(n):
    s, t = _var("s"), _var("t")
    un, vn = _monomial_form(n, n), _monomial_form(n, 0)
    sys_ = SystemF(FLD, (1, n), (s * un, t * vn, s * vn + t * un))
    nf = detect_conic(sys_)
    assert nf is not None
    b0, b1, b2 = nf.basis
    a0, a1 = nf.a0, nf.a1
    assert a0.degree == a1.degree == (0, n)
    assert (b0 - t * a0).is_zero()
    assert (b1 - (s * a0 + t * a1)).is_zero()
    assert (b2 - s * a1).is_zero()
    assert (s * s * b0 - s * t * b1 + t * t * b2).is_zero()


def test_detect_conic_absent_for_generic():
    # generic (1,2) carries its first syzygies at (3,3), not (3,2), so no
    # normal form there either
    rng = random.Random(3)
    for d in [(1, 3), (1, 6), (1, 2)]:
        assert detect_conic(random_bpf_system(FLD, d, rng)) is None
    assert detect_conic(load_system(data_path("sys_conic12.json"))) is not None


def test_detect_conic_degenerate_branch():
    s, t, u, v = map(_var, "stuv")
    sys_ = SystemF(FLD, (1, 1), (s * u, s * v, t * u))
    with pytest.raises(ImpossibleFactorization):
        detect_conic(sys_)


def test_detect_conic_roundtrip():
    s, t = _var("s"), _var("t")
    a0, a1 = _monomial_form(3, 3), _monomial_form(3, 0)
    sys_ = SystemF(FLD, (1, 3), (t * a0, s * a0 + t * a1, s * a1))
    nf = detect_conic(sys_)
    lam = next(c for c in nf.a0.coeff_vector() if not FLD.is_zero(c))
    assert (nf.a0 - a0 * lam).is_zero()
    assert (nf.a1 - a1 * lam).is_zero()


def test_conic_resolution_tables():
    s, t, u, v = map(_var, "stuv")
    rc1 = conic_resolution(SystemF(FLD, (1, 1), (t * u, s * u + t * v, s * v)))
    assert verify_resolution(rc1).passed
    assert _shift_multiset(rc1) == _golden_multiset("betti_11case.json")
    rc2 = conic_resolution(load_system(data_path("sys_conic12.json")))
    assert verify_resolution(rc2).passed
    assert _shift_multiset(rc2) == _golden_multiset("betti_smooth12.json")


def test_conic_resolution_needs_conic():
    rng = random.Random(4)
    with pytest.raises(ValueError, match="no conic syzygy"):
        conic_resolution(random_bpf_system(FLD, (1, 3), rng))


def test_smoothconic_syzygy_equivalence():
    # (3,n) first syzygy exists iff the conic normal form does
    s, t = _var("s"), _var("t")
    rng = random.Random(5)
    cases = [load_system(data_path("sys_conic12.json")),
             load_system(data_path("sys_maps6.json")),
             random_bpf_system(FLD, (1, 3), rng)]
    hs = [random_form(FLD, (0, 3), rng) for _ in range(3)]
    cases.append(SystemF(FLD, (1, 3),
                         (s * hs[0], t * hs[1], (s + t) * hs[2])))
    for sys_ in cases:
        n = sys_.d[1]
        has_conic = detect_conic(sys_) is not None
        tbl = betti_table(sys_, degrees=[(3, n)])
        assert has_conic == (tbl.beta(1, (3, n)) >= 1)


# ------------------------------------------------------- factorized systems

def _three_point_basis(n, seed, fld=FLD, lines=((1, 0), (0, 1), (1, 1))):
    """Factors g_i h_i with g_i = c_s s + c_t t for (c_s, c_t) in lines."""
    s, t = BiPoly.variable(fld, "s"), BiPoly.variable(fld, "t")
    rng = random.Random(seed)
    hs = [random_form(fld, (0, n), rng) for _ in range(3)]
    gs = [s * fld.normalize(cs) + t * fld.normalize(ct) for cs, ct in lines]
    return FactorizedBasis(list(zip(gs, hs)), i0=0), hs


def test_three_point_n3_cross_route():
    fb, hs = _three_point_basis(3, 7)
    hb = hb_kernel(hs)
    assert hb.column_degrees[0] == 1  # mu forced for n=3
    rc = three_point_resolution(fb)
    assert verify_resolution(rc).passed
    tbl = betti_table(rc.sys, box=(6, 12))
    assert _shift_multiset(rc) == Counter(dict(tbl.entries))


def test_three_point_n4():
    fb, hs = _three_point_basis(4, 9)
    rc = three_point_resolution(fb)
    assert verify_resolution(rc).passed
    mu = hb_kernel(hs).column_degrees[0]
    assert 0 < mu <= 2
    level1 = Counter(tuple(sh) for sh in rc.shifts[1])
    assert level1[(1, 12)] == 1 and level1[(2, 8)] == 3
    hb_shifts = sorted(sh[1] for sh in rc.shifts[1] if sh[0] == 3)
    assert hb_shifts == sorted([4 + mu, 8 - mu])


def test_three_point_rationals_non_unit_factors():
    # s, 3t, 2s + 5t: the solve for g2 = a g0 + b g1 runs through the
    # lifted RREF over Q and must give (a, b) = (2, 5/3)
    fb, hs = _three_point_basis(3, 7, QQ, ((1, 0), (0, 3), (2, 5)))
    rc = three_point_resolution(fb)
    assert verify_resolution(rc).passed
    assert (rc.diffs[1][1][0] - hs[2] * Fraction(2)).is_zero()
    assert (rc.diffs[1][1][1] + hs[2] * Fraction(5, 3)).is_zero()


def test_three_point_redirects_and_errors():
    s, t = _var("s"), _var("t")
    rng = random.Random(8)
    h0, h1 = (random_form(FLD, (0, 3), rng) for _ in range(2))
    dependent = FactorizedBasis([(s, h0), (t, h1), (s + t, h0 + h1)], i0=0)
    with pytest.raises(ConicRedirect):
        three_point_resolution(dependent)
    h2 = random_form(FLD, (0, 3), rng)
    parallel = FactorizedBasis([(s, h0), (s * FLD.normalize(2), h1), (t, h2)], i0=0)
    with pytest.raises(ValueError, match="parallel"):
        three_point_resolution(parallel)
    g2_parallel = FactorizedBasis([(s, h0), (t, h1), (s, h2)], i0=0)
    with pytest.raises(ValueError, match="parallel"):
        three_point_resolution(g2_parallel)


def test_factorized_basis_validation():
    s, t = _var("s"), _var("t")
    rng = random.Random(9)
    h = random_form(FLD, (0, 2), rng)
    with pytest.raises(ValueError, match="three factor pairs"):
        FactorizedBasis([(s, h), (t, h)], i0=0)
    with pytest.raises(ValueError, match="first factor"):
        FactorizedBasis([(s * s, h), (t, h), (s + t, h)], i0=0)
    with pytest.raises(ValueError, match="free of s"):
        FactorizedBasis([(s, s * h), (t, h), (s + t, h)], i0=0)


def _pencil_basis(n, seed):
    rng = random.Random(seed)
    g = [random_form(FLD, (1, 1), rng) for _ in range(3)]
    h0 = random_form(FLD, (0, n - 1), rng)
    h1 = random_form(FLD, (0, n - 1), rng)
    h2 = h0 * FLD.normalize(5) + h1 * FLD.normalize(7)
    return FactorizedBasis([(g[0], h0), (g[1], h1), (g[2], h2)], i0=1)


def test_lift_syzygy_degrees():
    fb = _pencil_basis(4, 11)
    const = lambda c: BiPoly.from_vector(FLD, (0, 0), [FLD.normalize(c)])
    lifted = lift_syzygy(fb, (const(5), const(7), const(-1)))
    assert lifted.total_degree == (3, 6)
    fb0, hs = _three_point_basis(4, 9)
    koszul = lift_syzygy(fb0, (hs[1], -hs[0], BiPoly.zero(FLD, (0, 4))))
    assert koszul.total_degree == (3, 8)
    hb = hb_kernel(hs)
    degs = sorted(lift_syzygy(fb0, tuple(col)).total_degree
                  for col in hb.columns)
    mu = hb.column_degrees[0]
    assert degs == sorted([(3, 4 + mu), (3, 8 - mu)])


def test_lift_syzygy_rejects_non_syzygy():
    fb, hs = _three_point_basis(3, 7)
    with pytest.raises(ValueError, match="not a syzygy"):
        lift_syzygy(fb, (hs[0], hs[1], hs[2]))


def test_pencil_expected_degrees():
    assert pencil_expected_degrees(4) == sorted(
        [(1, 12), (2, 8), (2, 8), (2, 8), (3, 6), (3, 7), (3, 7), (6, 6)])
    with pytest.raises(ValueError):
        pencil_expected_degrees(2)


# ------------------------------------------------------------- psi and quartic

def test_psi_image_values():
    assert psi_image(FLD, 1, 2, (1, 0, 0, 0), (0, 1)) == [0, 1, 0, 0, 0, 0]
    vec = psi_image(FLD, 0, 3, (2, 5), (1, 2, 3, 4))
    row_s, row_t = vec[:4], vec[4:]
    for i in range(4):
        for j in range(4):
            lhs = FLD.mul(row_s[i], row_t[j])
            rhs = FLD.mul(row_s[j], row_t[i])
            assert lhs == rhs  # rank-1 coefficient matrix
    with pytest.raises(ValueError, match="zero input"):
        psi_image(FLD, 1, 2, (0, 0, 0, 0), (1, 1))


@given(st.lists(st.integers(-200, 200), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_quartic_vanishes_on_products(raw):
    pta, ptb = tuple(raw[:4]), tuple(raw[4:])
    assume(any(x % 32003 for x in pta) and any(x % 32003 for x in ptb))
    assert FLD.is_zero(quartic_value(FLD, psi_image(FLD, 1, 2, pta, ptb)))


def test_quartic_nonzero_off_image():
    # su^2 + tv^2 has split quadrics u^2, v^2 with no common root
    assert not FLD.is_zero(quartic_value(FLD, [1, 0, 0, 0, 0, 1]))


# ------------------------------------------------------------ square strand

def test_square_det_repeated_form():
    rng = random.Random(12)
    f0 = random_form(FLD, (1, 5), rng)
    f2 = random_form(FLD, (1, 5), rng)
    assert square_strand_singular([f0, f0, f2])[1]


def test_square_det_matches_h1():
    rng = random.Random(13)
    generic = random_bpf_system(FLD, (1, 5), rng)
    m, singular = square_strand_singular(generic)
    assert not singular and m == phi_matrices(generic, (3, 8))[0]
    assert h1_dim(generic, (3, 8)) == 0
    s, t = _var("s"), _var("t")
    u5, v5 = _monomial_form(5, 5), _monomial_form(5, 0)
    special = SystemF(FLD, (1, 5), (s * u5, t * v5, (s + t) * (u5 + v5)))
    assert square_strand_singular(special)[1]
    assert h1_dim(special, (3, 8)) >= 1


def test_square_det_factorized_samples():
    # products of (1,3) and (0,2) factors: singularity still detects
    # exactly the h1 jump, and the sampled products sit off the zero locus
    for seed in range(100, 104):
        rng = random.Random(seed)
        while True:
            polys = tuple(random_form(FLD, (1, 3), rng) * random_form(FLD, (0, 2), rng)
                          for _ in range(3))
            try:
                sys_ = SystemF(FLD, (1, 5), polys)
                break
            except ValueError:
                continue
        _, singular = square_strand_singular(sys_)
        assert singular == (h1_dim(sys_, (3, 8)) >= 1)
        assert not singular


def test_square_det_wrong_degree():
    rng = random.Random(14)
    with pytest.raises(ValueError, match="1,5"):
        square_strand_singular(random_bpf_system(FLD, (1, 2), rng))


# ------------------------------------------------------------ classification

def test_extract_factorization_roundtrip():
    s, t = _var("s"), _var("t")
    rng = random.Random(15)
    hs = [random_form(FLD, (0, 2), rng) for _ in range(3)]
    sys_ = SystemF(FLD, (1, 2), (s * hs[0], t * hs[1],
                                 (s + t * FLD.normalize(9)) * hs[2]))
    fb = extract_factorization(sys_)
    assert fb is not None and fb.i0 == 0
    assert tuple(fb.products()) == tuple(sys_.polys)
    rng2 = random.Random(16)
    assert extract_factorization(random_bpf_system(FLD, (1, 3), rng2)) is None


def test_classify_verdicts():
    maps6 = load_system(data_path("sys_maps6.json"))
    assert classify(maps6).verdict == "SmoothConic"
    fb, _ = _three_point_basis(3, 7)
    three = classify(SystemF(FLD, (1, 3), fb.products()), fb)
    assert three.verdict == "ThreeNoncollinearPoints"
    assert three.evidence["mu"] == 1
    fbp = _pencil_basis(4, 11)
    pencil_sys = SystemF(FLD, (1, 4), fbp.products())
    assert detect_conic(pencil_sys) is None
    assert classify(pencil_sys, fbp).verdict == "PencilFactorized"
    rng = random.Random(17)
    assert classify(random_bpf_system(FLD, (1, 3), rng)).verdict == "GenericLike"


def test_classification_json():
    fb, _ = _three_point_basis(3, 7)
    out = classify(SystemF(FLD, (1, 3), fb.products()), fb).to_json()
    data = json.loads(out)
    assert data["verdict"] == "ThreeNoncollinearPoints"
    assert data["evidence"]["mu"] == 1
