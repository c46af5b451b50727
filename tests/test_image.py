"""Answers over Q read from one GF(p) image, and the Q path wherever no
proof covers them.

Each test builds a Q system twice: once queried as the package queries it,
reading the image strands._image where a certificate holds, and once inside
helpers.uncertified(), where every answer is computed over Q.  The two must
agree byte for byte, on images that certify everything and on images that
fail a certificate: dependent forms or a denominator divisible by the first
prime (the image moves to the next prime), a basepoint, a rank drop that Q
does not have, and mixed-parity homology.  The image is never searched for
a basepoint witness.
"""

import gc
import random
import weakref
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
import sympy

from bigres import betti, segre, strands
from bigres.exactcore import GF, QQ, lift_primes
from bigres.bipoly import BiPoly, SystemF, strand_dim
from bigres.betti import betti_table
from bigres.strands import _image, _image_free, h1_dim, hf_quotient, is_generic
from bigres.cli import load_system
from helpers import data_path, random_bpf_system, random_form, uncertified

P0, P1 = islice(lift_primes(), 2)


def _answers(make, box):
    """Every answer over Q that an image can certify, on a fresh copy of a
    system: both verdicts, the h1 and hf grids and both Betti conventions
    with the basepoint warning."""
    sys_ = make()
    degrees = [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)]
    return (str(segre.basepoint_free(sys_)), str(is_generic(sys_)),
            [h1_dim(sys_, a) for a in degrees], [hf_quotient(sys_, a) for a in degrees],
            *(betti_table(sys_, box=box, convention=c).to_text()
              for c in ("IdealConvention", "QuotientConvention")))


def _assert_matches_q_path(make, box):
    with uncertified():
        want = _answers(make, box)
    assert _answers(make, box) == want


def _small_form(d, rng):
    while True:
        f = BiPoly.from_vector(QQ, d, [rng.randint(-3, 3) for _ in range(strand_dim(d))])
        if not f.is_zero():
            return f


def test_lift_primes_start_at_the_largest_admissible_prime():
    # the image and the Q lift count down from one prime, the largest that
    # GF admits
    assert GF(P0).p == P0 and P1 == sympy.prevprime(P0)
    with pytest.raises(ValueError, match="too large"):
        GF(sympy.nextprime(P0))


@pytest.mark.parametrize("d", [(1, 2), (2, 2)])
def test_certified_answers_match_the_q_path(d):
    rng = random.Random(3 * d[0] + d[1])
    forms = random_bpf_system(QQ, d, rng).polys
    make = lambda: SystemF(QQ, d, forms)
    img = _image(make())
    assert img.field == GF(P0)
    assert [f.coeff_vector() for f in img.polys] == \
        [[c.numerator % P0 for c in f.coeff_vector()] for f in forms]
    _assert_matches_q_path(make, (2 * d[0] + 2, 2 * d[1] + 2))


def test_image_holds_no_reference_to_its_system():
    sys_ = random_bpf_system(QQ, (1, 2), random.Random(5))
    ref = weakref.ref(sys_)
    img = _image(sys_)
    assert h1_dim(sys_, (4, 2)) == h1_dim(img, (4, 2))
    del sys_
    gc.collect()
    assert ref() is None


def test_second_betti_table_decides_no_certificate(monkeypatch):
    # _hf_certified is a record of the store: a second betti_table on the
    # same Q system reads the certificate of every spot, deciding none
    calls = []
    h1_certified = strands._h1_certified
    monkeypatch.setattr(strands, "_h1_certified",
                        lambda sys_, a: calls.append(a) or h1_certified(sys_, a))
    sys_ = random_bpf_system(QQ, (1, 2), random.Random(7))
    first = betti_table(sys_, box=(4, 6)).to_text()
    assert calls
    calls.clear()
    assert betti_table(sys_, box=(4, 6)).to_text() == first
    assert not calls


def test_prime_fields_never_ask_for_an_image(monkeypatch):
    def no_image(sys_):
        raise AssertionError("GF(p) system asked for an image")
    monkeypatch.setattr(strands, "_image", no_image)
    sys_ = random_bpf_system(GF(), (1, 2), random.Random(6))
    is_generic(sys_)
    for a1 in range(5):
        h1_dim(sys_, (a1, 3)), hf_quotient(sys_, (a1, 3))
    betti_table(sys_, box=(4, 6))


def test_dependent_image_moves_to_the_next_prime():
    # f2 = f0 + p g: mod the first prime f2 = f0, so that prime is skipped
    rng = random.Random(11)
    f0, f1, g = (random_form(QQ, (1, 2), rng) for _ in range(3))
    make = lambda: SystemF(QQ, (1, 2), [f0, f1, f0 + g * P0])
    assert _image(make()).field == GF(P1)
    _assert_matches_q_path(make, (4, 6))


def test_denominator_divisible_by_the_first_prime():
    rng = random.Random(12)
    f0, f1, f2 = (random_form(QQ, (1, 2), rng) for _ in range(3))
    f0 = f0 + BiPoly.monomial(QQ, (1, 0, 2, 0), Fraction(1, P0))
    make = lambda: SystemF(QQ, (1, 2), [f0, f1, f2])
    img = _image(make())
    assert img.field == GF(P1)
    # a coefficient n/d reduces to n d^-1, never to a truncated n // d
    c = f0.coeffs[(1, 0, 2, 0)]
    assert img.polys[0].coeffs[(1, 0, 2, 0)] == c.numerator * pow(c.denominator, -1, P1) % P1
    _assert_matches_q_path(make, (4, 6))


def test_image_with_a_basepoint_falls_back():
    # f_i = s h_i + p g_i: mod p every form vanishes on the line s = 0, while
    # over Q the net is basepoint-free, which only the rank of the square
    # strand over Q can tell, for d1 = 1 and for d1 >= 2
    rng = random.Random(13)
    s = BiPoly.variable(QQ, "s")
    for d in [(1, 2), (2, 2)]:
        h_deg = (d[0] - 1, d[1])
        forms = [s * _small_form(h_deg, rng) + _small_form(d, rng) * P0 for _ in range(3)]
        make = partial(SystemF, QQ, d, forms)
        sys_ = make()
        assert _image(sys_).field == GF(P0)
        assert not _image_free(sys_)
        assert segre.basepoint_free(sys_).kind == "Free"
        _assert_matches_q_path(make, (2 * d[0] + 2, 2 * d[1] + 2))


def test_no_witness_search_on_the_image(monkeypatch):
    # f_i = s A_i + t u B_i has a basepoint at (0:1, 0:1) over Q and mod p.
    # Only Free against not Free is read off the image, so nothing searches
    # it for a witness: that would scan all p residues.  The basepoint
    # verdict over Q searches over Q.
    rng = random.Random(16)
    s, t, u = (BiPoly.variable(QQ, x) for x in "stu")
    forms = [s * _small_form((0, 2), rng) + t * u * _small_form((0, 1), rng) for _ in range(3)]
    make = lambda: SystemF(QQ, (1, 2), forms)
    fields, roots = [], segre.binary_roots

    def recording(g):
        fields.append(g.field)
        return roots(g)
    monkeypatch.setattr(segre, "binary_roots", recording)
    sys_ = make()
    assert not _image_free(sys_)
    assert segre.basepoint_free(sys_).kind == "HasBasepoint"
    _assert_matches_q_path(make, (4, 6))
    assert fields and set(fields) == {QQ}


def test_generic_over_q_with_a_nongeneric_image():
    # the Q copy of sys_maps6 plus p h: mod p it is sys_maps6, NotGeneric at
    # (3, 6); over Q the perturbation makes it generic, which only the
    # sweep over Q can find
    rng = random.Random(14)
    maps6 = load_system(data_path("sys_maps6.json"))
    forms = [BiPoly(QQ, maps6.d, f.coeffs) + _small_form(maps6.d, rng) * P0
             for f in maps6.polys]
    make = lambda: SystemF(QQ, maps6.d, forms)
    sys_ = make()
    assert str(is_generic(_image(sys_))) == "NotGeneric(witness (3, 6))"
    assert is_generic(sys_).generic
    _assert_matches_q_path(make, (4, 7))


def test_mixed_parity_homology_falls_back_to_q(monkeypatch):
    # a consecutive pair added to the image's homology at one degree stands
    # for a cancellation over Q that the image does not show: the nonzero
    # indices then have both parities, and that degree alone is computed
    # over Q
    forms = random_bpf_system(QQ, (1, 2), random.Random(15)).polys
    make = lambda: SystemF(QQ, (1, 2), forms)
    box, a0 = (4, 7), (3, 3)
    with uncertified():
        want = betti_table(make(), box=box)
    assert want.beta(1, a0)  # beta_2 in the quotient convention
    tor, over_q = betti._tor, []

    def tor_with_pair(sys_, a):
        hom = tor(sys_, a)
        if not sys_.field.is_prime_field:
            over_q.append(a)
        elif a == a0:
            hom = tuple(h + (j in (2, 3)) for j, h in enumerate(hom))
        return hom
    monkeypatch.setattr(betti, "_tor", tor_with_pair)
    got = betti_table(make(), box=box)
    assert over_q == [a0]
    assert (got.to_text(), got.warning) == (want.to_text(), want.warning)


@pytest.mark.parametrize("vecs, witness", [
    ([[0, 0, 13014, 0, 7376, 0], [0, 0, 0, 0, 0, 717], [0, 19418, 0, 0, 0, 1706]], (3, 0)),
    ([[0, 16752, 0, 0, 0, 0], [23311, 5469, 0, 0, 0, 0], [0, 0, 5621, 0, 0, 0]], (0, 6)),
], ids=["strip", "mirror"])
def test_rank_drops_outside_the_strips_on_nets_with_basepoints(vecs, witness):
    # the nets of test_strands.py read over Q: phi drops rank at a witness
    # outside the critical strips, which only a Free image may skip
    make = lambda: SystemF(QQ, (1, 2), [BiPoly.from_vector(QQ, (1, 2), v) for v in vecs])
    sys_ = make()
    assert not _image_free(sys_)
    assert str(is_generic(sys_)) == f"NotGeneric(witness {witness})"
    assert h1_dim(sys_, witness) > strands._full_rank_h1((1, 2), witness)
    _assert_matches_q_path(make, (4, 8))


def test_nongeneric_image_is_not_swept():
    # forms sharing u^2 + v^2 drop rank mod p wherever they do over Q; the
    # image only tells whether its frontier drops, and the sweep for the
    # witness runs over Q alone
    rng = random.Random(17)
    u, v = BiPoly.variable(QQ, "u"), BiPoly.variable(QQ, "v")
    forms = [(u * u + v * v) * _small_form((1, 4), rng) for _ in range(3)]
    make = lambda: SystemF(QQ, (1, 6), forms)
    sys_ = make()
    verdict = is_generic(sys_)
    assert str(verdict) == "NotGeneric(witness (3, 0))"
    img = _image(sys_)
    seen = sorted(key[1] for key in strands._store[img] if key[0] == "_phi_kernels")
    # the frontier up to its first drop, where the image stops
    assert seen == strands._frontier((1, 6), verdict.box, False)[:len(seen)]
    assert not strands._full_rank(img, seen[-1])
    _assert_matches_q_path(make, (4, 8))
