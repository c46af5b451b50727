"""Shared draw/load helpers for the test suite."""

import json
import os
from fractions import Fraction

import numpy as np

from bigres.exactcore import ExactMatrix, kernel_data
from bigres.bipoly import BiPoly, SystemF, strand_basis
from bigres.segre import basepoint_free
from bigres.strands import InverseStrandBasis, _ring_differential

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
