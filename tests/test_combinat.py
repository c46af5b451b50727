"""Pure bidegree combinatorics against a symbolic generating-function oracle."""

import itertools

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bigres.combinat import (chi, cod, dom, nd, nd_grid, nd_signed, neg_part, pos_part,
                             render_grid)
from helpers import chi_region, chi_sign, data_path, series_coeffs

ds = st.tuples(st.integers(1, 3), st.integers(1, 3))


def sympy_chi_grid(d, box):
    # expand (1 - x^d1 y^d2)^3 * (sum x^i)^2 * (sum y^j)^2 symbolically; the
    # truncated geometric squares agree with 1/(1-x)^2 1/(1-y)^2 up to box
    x, y = sympy.symbols("x y")
    gx = sum(x ** i for i in range(box[0] + 1))
    gy = sum(y ** j for j in range(box[1] + 1))
    poly = sympy.Poly(((1 - x ** d[0] * y ** d[1]) ** 3 * gx ** 2 * gy ** 2).expand(), x, y)
    return [[int(poly.coeff_monomial(x ** a1 * y ** a2)) for a2 in range(box[1] + 1)]
            for a1 in range(box[0] + 1)]


@pytest.mark.parametrize("d", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2)])
def test_chi_matches_generating_function(d):
    box = (3 * d[0] + 2, 3 * d[1] + 2)
    want = sympy_chi_grid(d, box)
    got_chi, got_pos, got_neg = series_coeffs(d, box)
    assert got_chi == want
    for a1, a2 in itertools.product(range(box[0] + 1), range(box[1] + 1)):
        c = chi(d, (a1, a2))
        assert c == want[a1][a2]
        assert got_pos[a1][a2] == pos_part(c)
        assert got_neg[a1][a2] == neg_part(c)


@given(ds, st.tuples(st.integers(0, 12), st.integers(0, 12)))
@settings(max_examples=200, deadline=None)
def test_nd_is_negative_part_of_chi(d, a):
    assert nd(d, a) == neg_part(chi(d, a))
    assert nd_signed(d, a) == dom(d, a) - 3 * cod(d, a)
    assert nd(d, a) == pos_part(nd_signed(d, a))


@given(ds, st.tuples(st.integers(0, 12), st.integers(0, 12)))
@settings(max_examples=200, deadline=None)
def test_chi_region_piecewise_consistent(d, a):
    tag, val = chi_region(d, a)
    if tag == "Gap":
        # the published case split leaves exactly one strip uncovered
        assert a[0] >= 3 * d[0] and 2 * d[1] <= a[1] < 3 * d[1]
        assert val is None
    else:
        assert tag in ("A1", "A2", "A3", "A4")
        assert val == chi(d, a)
    assert chi_sign(d, a) == (chi(d, a) > 0) - (chi(d, a) < 0)


def test_chi_spot_values():
    # d = (1,1): chi(1,1) = 4 - 3 = 1, chi(2,2) = 9 - 12 + 3 = 0, chi(3,3) = 0
    assert chi((1, 1), (1, 1)) == 1
    assert chi((1, 1), (2, 2)) == 0
    assert chi((1, 1), (3, 3)) == 0
    # d = (1,6): 44 - 3*15 = -1 on the strip where the clamp bites
    assert chi((1, 6), (3, 10)) == -1
    assert nd((1, 6), (3, 10)) == 1
    assert nd((1, 6), (3, 6)) == 0 and chi((1, 6), (3, 6)) == 19
    assert nd((1, 6), (0, 0)) == 0


def test_dom_cod_window_shapes():
    d = (1, 2)
    # dom counts the two rectangular windows around the antidiagonal
    assert dom(d, (3, 0)) == (3 - 3 + 1) * (6 - 0 - 1) == 5
    assert dom(d, (0, 6)) == (3 - 0 - 1) * (6 - 6 + 1) == 2
    assert dom(d, (2, 2)) == 0
    assert cod(d, (2, 2)) == (2 - 2 + 1) * (4 - 2 - 1) == 1
    assert nd(d, (2, 2)) == 0


def test_nd_grid_golden_bytes():
    text = render_grid(nd_grid((1, 6), (10, 20)))
    with open(data_path("nd_grid_1_6.txt"), "rb") as fh:
        assert text.encode() == fh.read()


def test_render_grid_layout():
    # bottom row is a2 = 0; widths adapt per column
    text = render_grid([[1, 2], [30, 4]])
    assert text == "      | 2 4  |\n      | 1 30 |\n"


def test_nd_validation():
    with pytest.raises(ValueError):
        nd((0, 1), (1, 1))
    with pytest.raises(ValueError):
        series_coeffs((1, 1), (-1, 2))
