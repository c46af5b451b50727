"""Polynomial layer: strand order, multiplication matrices, (0,n)-form gcds."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bigres.exactcore import GF, QQ, mat_rank
from bigres.bipoly import (BiPoly, SystemF, binary_roots, gcd_binary, mul_matrix,
                           split_st, strand_basis, strand_dim, strand_index)
from helpers import random_form

FLD = GF()

bidegrees = st.tuples(st.integers(0, 4), st.integers(0, 4))


def _binary(fld, ascending):
    """The (0,n) form with u^j v^(n-j) coefficient ascending[j]."""
    return BiPoly.from_vector(fld, (0, len(ascending) - 1), ascending[::-1])


@given(bidegrees)
def test_strand_basis_order_and_index(a):
    basis = strand_basis(a)
    assert len(basis) == strand_dim(a) == (a[0] + 1) * (a[1] + 1)
    for pos, e in enumerate(basis):
        assert strand_index(a, e) == pos
    # s-exponent descending, then u-exponent descending
    keys = [(-e[0], -e[2]) for e in basis]
    assert keys == sorted(keys)


def test_strand_index_rejects_foreign_monomials():
    with pytest.raises(ValueError):
        strand_index((1, 1), (2, 0, 1, 0))
    with pytest.raises(ValueError):
        strand_index((1, 1), (1, 0, 2, -1))
    assert strand_dim((-1, 3)) == 0
    assert strand_basis((2, -1)) == []


@st.composite
def polys(draw, deg=None):
    if deg is None:
        deg = draw(bidegrees)
    coeffs = {}
    for e in strand_basis(deg):
        if draw(st.booleans()):
            coeffs[e] = draw(st.integers(0, 31))
    return BiPoly(FLD, deg, coeffs)


@given(polys(), polys())
@settings(max_examples=80, deadline=None)
def test_vector_roundtrip_and_linearity(f, g):
    assert BiPoly.from_vector(FLD, f.degree, f.coeff_vector()).coeffs == f.coeffs
    if f.degree == g.degree:
        lhs = (f + g).coeff_vector()
        rhs = [FLD.add(a, b) for a, b in zip(f.coeff_vector(), g.coeff_vector())]
        assert lhs == rhs


@given(polys(), polys())
@settings(max_examples=80, deadline=None)
def test_mul_matrix_agrees_with_product(g, h):
    # the strand matrix of multiplication by g must act exactly as g*h
    mm = mul_matrix(g, h.degree)
    vec = h.coeff_vector()
    out = [FLD.zero()] * mm.rows
    for i in range(mm.rows):
        out[i] = sum(FLD.mul(mm.get(i, j), vec[j])
                     for j in range(mm.cols)) % FLD.p
    assert out == (g * h).coeff_vector()


@given(polys(), polys(), polys())
@settings(max_examples=50, deadline=None)
def test_ring_axioms_spot(f, g, h):
    assert (f * g).coeffs == (g * f).coeffs
    assert ((f * g) * h).coeffs == (f * (g * h)).coeffs
    if g.degree == h.degree:
        assert (f * (g + h)).coeffs == (f * g + f * h).coeffs


def test_scalar_multiplication_normalizes():
    f = BiPoly(FLD, (1, 1), {(1, 0, 1, 0): 1})
    assert (f * (FLD.p + 2)).coeffs == {(1, 0, 1, 0): 2}
    assert (0 * f).is_zero()


def test_to_text_frozen():
    assert BiPoly.zero(FLD, (2, 2)).to_text() == "0"
    f = BiPoly(FLD, (1, 1), {(1, 0, 1, 0): 1, (0, 1, 0, 1): FLD.p - 1})
    assert f.to_text() == "1*s*t^0*u*v^0 + 32002*s^0*t*u^0*v"
    g = BiPoly(QQ, (0, 2), {(0, 0, 1, 1): Fraction(1, 2)})
    assert g.to_text() == "1/2*s^0*t^0*u*v"


def test_bipoly_validation():
    with pytest.raises(ValueError):
        BiPoly(FLD, (1, 1), {(2, 0, 1, 0): 1})
    with pytest.raises(ValueError):
        BiPoly(FLD, (1, 1), {(1, 0, 1, -1): 1})
    # zero coefficients are dropped on construction
    assert BiPoly(FLD, (1, 1), {(1, 0, 1, 0): FLD.p}).is_zero()


def test_split_st_reassembles():
    rng = random.Random(2)
    s = BiPoly.variable(FLD, "s")
    t = BiPoly.variable(FLD, "t")
    for _ in range(20):
        f = random_form(FLD, (1, rng.randint(0, 5)), rng)
        p, q = split_st(f)
        assert p.degree == q.degree == (0, f.degree[1])
        assert (s * p + t * q - f).is_zero()
    with pytest.raises(ValueError):
        split_st(random_form(FLD, (2, 2), rng))


@pytest.mark.parametrize("fld", [FLD, QQ], ids=["GF", "QQ"])
def test_evaluate(fld):
    bf = _binary(fld, [1, 0, 2, 5])  # v^3 + 2 u^2 v + 5 u^3
    assert bf.coeff_vector() == [5, 2, 0, 1]
    assert bf.evaluate((0, 0, 1, 0)) == 5
    assert bf.evaluate((0, 0, 0, 1)) == 1
    assert bf.evaluate((7, 9, 1, 1)) == 8
    assert bf.evaluate((0, 0, 2, -1)) == fld.normalize(-1 - 8 + 40)
    # every variable counts: 3 s^2 u v - t^2 v^2 at (2, 5, -1, 3)
    f = BiPoly(fld, (2, 2), {(2, 0, 1, 1): 3, (0, 2, 0, 2): -1})
    assert f.evaluate((2, 5, -1, 3)) == fld.normalize(3 * 4 * -3 - 25 * 9)
    if fld.is_prime_field:
        # reduced at every step: a large power stays a residue in [0, p)
        x = fld.p - 2
        assert BiPoly.monomial(fld, (9, 0, 0, 0)).evaluate((x, 0, 0, 0)) == (-2) ** 9 % fld.p
    else:
        assert f.evaluate((Fraction(1, 2), 1, 1, 1)) == Fraction(3, 4) - 1
    with pytest.raises(ValueError):
        BiPoly.from_vector(fld, (0, 2), [1, 2])


def test_gcd_binary_known_factors():
    # p = (u - 2v)(u - 3v), q = (u - 2v)(u + v): gcd is monic u - 2v
    lin = lambda a: _binary(FLD, [FLD.normalize(-a), 1])
    p = lin(2) * lin(3)
    q = lin(2) * lin(-1)
    g = gcd_binary(p, q)
    assert g.degree == (0, 1) and g.coeffs == lin(2).coeffs
    # coprime pair
    assert gcd_binary(lin(1), lin(2)).degree == (0, 0)
    # common v-multiplicity must survive dehomogenization (u := u, v := 1)
    v2p = _binary(FLD, [1, 1, 0, 0])   # v^2 (u + v)
    v2q = _binary(FLD, [0, 1, 0, 0])   # v^2 u
    g2 = gcd_binary(v2p, v2q)
    assert g2.degree == (0, 2) and g2.coeff_vector() == [0, 0, 1]  # v^2
    # one zero argument: the other one, made monic in u
    assert gcd_binary(BiPoly.zero(FLD, (0, 2)), p * 3).coeffs == p.coeffs
    with pytest.raises(ValueError):
        gcd_binary(BiPoly.zero(FLD, (0, 2)), BiPoly.zero(FLD, (0, 2)))


def test_gcd_binary_random_products():
    rng = random.Random(9)
    for _ in range(25):
        def rand_bf(n):
            while True:
                bf = _binary(FLD, [FLD.rand(rng) for _ in range(n + 1)])
                if not bf.is_zero():
                    return bf
        g = rand_bf(rng.randint(0, 2))
        a, b = rand_bf(rng.randint(0, 3)), rand_bf(rng.randint(0, 3))
        got = gcd_binary(g * a, g * b)
        # gcd(ga, gb) is divisible by g: degrees bound from below
        assert got.degree[1] >= g.degree[1]
        assert gcd_binary(got, g).degree == g.degree


def test_binary_roots_prime_field():
    lin = lambda a, b: _binary(FLD, [FLD.normalize(b), FLD.normalize(a)])
    # (u)(v)(u - 7v): roots (0:1), (1:0), (7:1)
    bf = lin(1, 0) * lin(0, 1) * lin(1, -7)
    roots = binary_roots(bf)
    assert (1, 0) in roots and (0, 1) in roots and (7, 1) in roots
    assert len(roots) == 3
    for a, b in roots:
        assert FLD.is_zero(bf.evaluate((0, 0, a, b)))
    with pytest.raises(ValueError):
        binary_roots(BiPoly.zero(FLD, (0, 2)))


def test_binary_roots_rationals():
    # (2u - 3v)(u + v) over Q: roots 3/2 and -1
    bf = _binary(QQ, [-3, 2]) * _binary(QQ, [1, 1])
    roots = binary_roots(bf)
    assert (Fraction(3, 2), Fraction(1)) in roots
    assert (Fraction(-1), Fraction(1)) in roots


def test_binary_roots_order():
    # GF(p): (1 : 0) first, then (r : 1) by ascending r
    lin = lambda a, b: _binary(FLD, [FLD.normalize(b), FLD.normalize(a)])
    bf = lin(1, -7) * lin(0, 1) * lin(1, -3) * lin(1, 0)
    assert binary_roots(bf) == [(1, 0), (0, 1), (3, 1), (7, 1)]
    # Q: sorted by str() of the pair
    lin = lambda a, b: _binary(QQ, [Fraction(b), Fraction(a)])
    bf = lin(2, -3) * lin(1, 1) * lin(0, 1) * lin(1, 0)
    assert binary_roots(bf) == [(Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1)),
                                (Fraction(1), Fraction(0)), (Fraction(3, 2), Fraction(1))]


def test_system_validation():
    rng = random.Random(1)
    f = random_form(FLD, (1, 2), rng)
    g = random_form(FLD, (1, 2), rng)
    with pytest.raises(ValueError):
        SystemF(FLD, (1, 2), [f, g, f + g])
    with pytest.raises(ValueError):
        SystemF(FLD, (0, 2), [f, g, f])
    with pytest.raises(ValueError):
        SystemF(FLD, (1, 2), [f, g])
    with pytest.raises(ValueError):
        SystemF(FLD, (1, 3), [f, g, random_form(FLD, (1, 3), rng)])


def test_mul_matrix_shape_and_rank():
    g = BiPoly.monomial(FLD, (1, 0, 0, 0))
    mm = mul_matrix(g, (1, 1))
    assert (mm.rows, mm.cols) == (strand_dim((2, 1)), strand_dim((1, 1)))
    assert mat_rank(mm) == strand_dim((1, 1))
