"""Shared draw/load helpers for the test suite."""

import json
import os
from contextlib import contextmanager
from fractions import Fraction
from functools import partial

import numpy as np

from bigres.exactcore import ExactMatrix, kernel_data, mat_rank
from bigres.bipoly import BiPoly, SystemF, strand_basis
from bigres.combinat import chi
from bigres.betti import BettiTable
from bigres.segre import basepoint_free
from bigres import strands
from bigres.strands import (VAR_DEGREES, GenericityVerdict, InverseStrandBasis,
                            _koszul_differential, _koszul_spots, _quotient_action,
                            _ring_differential, check_box, hf_quotient, phi_matrices)

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def load_json(name):
    with open(data_path(name)) as fh:
        return json.load(fh)


def random_form(fld, deg, rng):
    while True:
        coeffs = {}
        for e in strand_basis(deg):
            c = fld.rand(rng)
            if not fld.is_zero(c):
                coeffs[e] = c
        if coeffs:
            return BiPoly(fld, deg, coeffs)


def random_system(fld, d, rng, tries=500):
    for _ in range(tries):
        try:
            return SystemF(fld, d, [random_form(fld, d, rng) for _ in range(3)])
        except ValueError:
            continue
    raise RuntimeError(f"no independent triple of degree {d} after {tries} draws")


def random_bpf_system(fld, d, rng, tries=500):
    for _ in range(tries):
        sys_ = random_system(fld, d, rng, tries)
        if basepoint_free(sys_).kind == "Free":
            return sys_
    raise RuntimeError(f"no basepoint-free system of degree {d} after {tries} draws")


def multiset(pairs):
    """{(a1,a2): mult} from an iterable of (degree, mult) or a betti support."""
    out = {}
    for a, m in pairs:
        out[tuple(a)] = out.get(tuple(a), 0) + m
    return {k: v for k, v in out.items() if v}


def inverse_block_oracle(f, src):
    """Multiplication by f on an inverse-strand space, one term and one
    column at a time; the reference for strands._inverse_block."""
    fld = f.field
    d1, d2 = f.degree
    if src.flipped:
        tgt = InverseStrandBasis(src.st_deg - d1, src.uv_order + d2, flipped=True)
    else:
        tgt = InverseStrandBasis(src.st_deg + d1, src.uv_order - d2)
    m = ExactMatrix.zeros(fld, tgt.dim, src.dim)
    for col in range(src.dim):
        # s- and u-exponents of the source element: a polynomial and an
        # inverse exponent, or the reverse when src is flipped
        x = src.st_deg - col // (src.uv_order + 1)
        y = src.uv_order - col % (src.uv_order + 1)
        for (al, be, ga, de), coef in f.coeffs.items():
            if src.flipped:
                if x < al or src.st_deg - x < be:
                    continue
                row = ((tgt.st_deg - (x - al)) * (tgt.uv_order + 1)
                       + (tgt.uv_order - (y + ga)))
            else:
                if y < ga or src.uv_order - y < de:
                    continue
                row = ((tgt.st_deg - (x + al)) * (tgt.uv_order + 1)
                       + (tgt.uv_order - (y - ga)))
            m.data[row, col] = fld.add(m.get(row, col), coef)
    return m


def dense_quotient_kernel(sys_, b):
    """kernel_data of d_1^T at b, by one dense elimination of the transposed
    generator strand: the reference for strands._quotient_kernel."""
    return kernel_data(ExactMatrix(sys_.field, _ring_differential(sys_, b, 1).data.T))


def mat_hstack(field, blocks):
    """The blocks side by side: a plain-numpy reference for mat_from_blocks."""
    return ExactMatrix(field, np.hstack([b.data for b in blocks]))


def mat_vstack(field, blocks):
    """The blocks one above the other: a plain-numpy reference for
    mat_from_blocks."""
    return ExactMatrix(field, np.vstack([b.data for b in blocks]))


def mod_p(x, p):
    """A rational (or integer) x as a residue mod p; p must not divide its
    denominator."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


@contextmanager
def uncertified():
    """Inside the block every Q system has no image: strands._image returns
    None, so h1, hf, genericity, the basepoint verdict and Betti numbers
    over Q all take the Q path, as they did before any answer was read from
    a GF(p) image.  Query inside it only systems not queried before it:
    records stored earlier keep their values."""
    image = strands._image
    strands._image = lambda sys_: None
    try:
        yield
    finally:
        strands._image = image


def full_box_generic(sys_, box=None):
    """The genericity verdict by fresh ranks of phi1, phi2 at every degree
    of [0, box], a1 outer and a2 inner: the reference for
    strands.is_generic, which on basepoint-free nets sweeps only the
    critical ranges."""
    box = tuple(box or (4 * sys_.d[0], 4 * sys_.d[1]))
    check_box(sys_.d, box)
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            if any(mat_rank(p) != min(p.rows, p.cols)
                   for p in phi_matrices(sys_, (a1, a2))):
                return GenericityVerdict(False, box, (a1, a2))
    return GenericityVerdict(True, box, None)


def full_module_homology(field, degs, a, dim, action, known=()):
    """Homology dims (H_0..H_n), n = len(degs), at degree a of the Koszul
    complex of strands._koszul_differential on a module, by building and
    eliminating every d_j, empty or not, on all its rows: the reference for
    strands._koszul_homology on the ring, R/I and H1, which builds nothing
    it can prove zero and restricts each rank to the free rows of the last.
    known, the homology that routine is given where a proof gives it, is
    ignored here: every rank is computed."""
    n = len(degs)
    spots = [_koszul_spots(degs, a, j) for j in range(n + 1)]
    dims = [sum(dim(b) for _, b in group) for group in spots]
    ranks = [0] + [mat_rank(_koszul_differential(field, degs, a, j, dim, action))
                   for j in range(1, n + 1)] + [0]
    return tuple(dims[j] - ranks[j] - ranks[j + 1] for j in range(n + 1))


def full_betti_table(sys_, degrees, convention="IdealConvention"):
    """The Betti table by full_module_homology at every degree, and the
    basepoint warning by a dense elimination at 3d (hf(3d) != 0): the
    reference for betti.betti_table, which skips degrees where Tor is
    proved zero and reads the warning off strands._free, hf at (3d1 - 1,
    2d2 - 1)."""
    dim, action = partial(hf_quotient, sys_), partial(_quotient_action, sys_)
    entries = {}
    for a in sorted(set(map(tuple, degrees))):
        for j, h in enumerate(full_module_homology(sys_.field, VAR_DEGREES, a, dim, action)):
            if h:
                entries[(j, a)] = h
    if convention == "IdealConvention":
        entries = {(j - 1, a): m for (j, a), m in entries.items() if j >= 1}
    three_d = (3 * sys_.d[0], 3 * sys_.d[1])
    return BettiTable(convention, entries, bool(dense_quotient_kernel(sys_, three_d)[1]))


def h1_support_box(d, box):
    """Bidegrees <= box where H1 can be nonzero; it vanishes outside the
    two strips (a1 <= 3d1-2, a2 >= 3d2) and (a1 >= 3d1, a2 <= 3d2-2)."""
    d1, d2 = d
    out = []
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            if (a1 <= 3 * d1 - 2 and a2 >= 3 * d2) or \
               (a1 >= 3 * d1 and a2 <= 3 * d2 - 2):
                out.append((a1, a2))
    return out


def chi_sign(d, a):
    c = chi(d, a)
    return (c > 0) - (c < 0)


def chi_region(d, a):
    """Region tag plus the piecewise polynomial value, None on the gap.

    The four published region predicates are tried in order A1..A4; they
    leave {a1 >= 3d1, 2d2 <= a2 < 3d2} unmatched, tagged Gap.  chi() is
    authoritative everywhere; the piecewise value is a cross-check.
    """
    d1, d2 = d
    a1, a2 = a
    if a1 < d1 or a2 < d2:
        return "A1", (a1 + 1) * (a2 + 1)
    if (d1 <= a1 < 2 * d1 and d2 <= a2) or (d1 <= a1 and d2 <= a2 < 2 * d2):
        return "A2", (a1 + 1) * (a2 + 1) - 3 * (a1 - d1 + 1) * (a2 - d2 + 1)
    if (2 * d1 <= a1 < 3 * d1 and 2 * d2 <= a2) or (a1 < 3 * d1 and 2 * d2 <= a2 < 3 * d2):
        return "A3", ((a1 + 1) * (a2 + 1)
                      - 3 * (a1 - d1 + 1) * (a2 - d2 + 1)
                      + 3 * (a1 - 2 * d1 + 1) * (a2 - 2 * d2 + 1))
    if a1 >= 3 * d1 and a2 >= 3 * d2:
        return "A4", 0
    return "Gap", None


def series_coeffs(d, box):
    """chi over [0,box1]x[0,box2] by truncated power series, plus chi_+ / chi_-.

    Expands (1 - x^d1 y^d2)^3 * 1/(1-x)^2 * 1/(1-y)^2 by shift-and-add on a
    dense coefficient array, independent of the chi() arithmetic.  Returns
    three grids indexed [a1][a2].
    """
    d1, d2 = d
    b1, b2 = box
    if b1 < 0 or b2 < 0:
        raise ValueError("box must be >= (0,0)")
    base = np.outer(np.arange(1, b1 + 2, dtype=np.int64),
                    np.arange(1, b2 + 2, dtype=np.int64))
    acc = np.zeros_like(base)
    for k, binom in ((0, 1), (1, -3), (2, 3), (3, -1)):
        s1, s2 = k * d1, k * d2
        if s1 <= b1 and s2 <= b2:
            acc[s1:, s2:] += binom * base[:b1 + 1 - s1, :b2 + 1 - s2]
    chi_grid = acc.tolist()
    pos_grid = np.maximum(acc, 0).tolist()
    neg_grid = np.maximum(-acc, 0).tolist()
    return chi_grid, pos_grid, neg_grid
