"""Bihomogeneous polynomials in K[s,t;u,v] with deg s = t = (1,0), deg u = v = (0,1).

BiPoly is the package's one polynomial type: a binary form in u,v is a
BiPoly of bidegree (0, n), and split_st, gcd_binary and binary_roots take
and return such forms.  theta_matrix is the one place where (1,n) forms are
split as f_i = s p_i + t q_i.

Monomials are exponent tuples (es, et, eu, ev).  The canonical basis of the
degree-(a1,a2) strand lists s-exponent descending, then u-exponent
descending; all matrices in the package index strands in that order, and
so does coeff_vector, also for the (0, n) forms.
Multiplication matrices on polynomial strands (mul_matrix) and on the
inverse-power spaces of strands share one term kernel, _product, which
places several forms of one degree at once; its index rule _term_rows
alone maps a product term to its row.

Canonical text form of a polynomial: terms in basis order, each rendered as
coeff*s^i*t^j*u^k*v^l with every variable present and "^1" omitted; the zero
polynomial renders as "0".
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd as _int_gcd

import numpy as np

from .exactcore import ExactMatrix, FieldSpec, mat_rank


def strand_dim(a):
    """Dimension of the degree-a strand of the ring (0 for negative degrees)."""
    a1, a2 = a
    if a1 < 0 or a2 < 0:
        return 0
    return (a1 + 1) * (a2 + 1)


def strand_basis(a):
    """Monomial exponent tuples of degree a, s-exponent then u-exponent descending."""
    a1, a2 = a
    if a1 < 0 or a2 < 0:
        return []
    return [(es, a1 - es, eu, a2 - eu)
            for es in range(a1, -1, -1)
            for eu in range(a2, -1, -1)]


def strand_index(a, expt):
    """Position of monomial expt inside strand_basis(a)."""
    a1, a2 = a
    es, et, eu, ev = expt
    if es + et != a1 or eu + ev != a2 or min(expt) < 0:
        raise ValueError(f"{expt} is not in strand {a}")
    return (a1 - es) * (a2 + 1) + (a2 - eu)


@dataclass
class BiPoly:
    """Bihomogeneous polynomial: sparse exponent -> nonzero scalar map."""

    field: FieldSpec
    degree: tuple
    coeffs: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        a1, a2 = self.degree
        clean = {}
        for expt, c in self.coeffs.items():
            es, et, eu, ev = expt
            if min(expt) < 0 or es + et != a1 or eu + ev != a2:
                raise ValueError(f"monomial {expt} not bihomogeneous of degree {self.degree}")
            c = self.field.normalize(c)
            if not self.field.is_zero(c):
                clean[expt] = c
        self.coeffs = clean

    @staticmethod
    def zero(field, degree):
        return BiPoly(field, tuple(degree), {})

    @staticmethod
    def monomial(field, expt, coeff=1):
        es, et, eu, ev = expt
        return BiPoly(field, (es + et, eu + ev), {tuple(expt): coeff})

    @staticmethod
    def variable(field, name):
        return BiPoly.monomial(field, {"s": (1, 0, 0, 0), "t": (0, 1, 0, 0),
                                       "u": (0, 0, 1, 0), "v": (0, 0, 0, 1)}[name])

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch {self.degree} vs {other.degree}")
        out = dict(self.coeffs)
        f = self.field
        for e, c in other.coeffs.items():
            out[e] = f.add(out.get(e, f.zero()), c)
        return BiPoly(f, self.degree, out)

    def __neg__(self):
        f = self.field
        return BiPoly(f, self.degree, {e: f.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, BiPoly):
            c0 = f.normalize(other)
            return BiPoly(f, self.degree, {e: f.mul(c, c0) for e, c in self.coeffs.items()})
        deg = (self.degree[0] + other.degree[0], self.degree[1] + other.degree[1])
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                prev = out.get(e, f.zero())
                out[e] = f.add(prev, f.mul(c1, c2))
        return BiPoly(f, deg, out)

    __rmul__ = __mul__

    def coeff_vector(self):
        """Coefficients in strand_basis(self.degree) order."""
        vec = [self.field.zero()] * strand_dim(self.degree)
        for e, c in self.coeffs.items():
            vec[strand_index(self.degree, e)] = c
        return vec

    @staticmethod
    def from_vector(field, degree, vec):
        basis = strand_basis(degree)
        if len(vec) != len(basis):
            raise ValueError("vector length does not match strand dimension")
        return BiPoly(field, tuple(degree), {e: v for e, v in zip(basis, vec)})

    def evaluate(self, point):
        """Value at (s, t, u, v) = point, in field arithmetic."""
        f = self.field
        tops = (self.degree[0],) * 2 + (self.degree[1],) * 2
        powers = []
        for x, top in zip(point, tops):
            x, pw = f.normalize(x), [f.one()]
            for _ in range(top):
                pw.append(f.mul(pw[-1], x))
            powers.append(pw)
        acc = f.zero()
        for e, c in self.coeffs.items():
            for pw, k in zip(powers, e):
                c = f.mul(c, pw[k])
            acc = f.add(acc, c)
        return acc

    def to_text(self):
        if not self.coeffs:
            return "0"
        names = ("s", "t", "u", "v")
        parts = []
        for e in strand_basis(self.degree):
            if e not in self.coeffs:
                continue
            factors = [self.field.to_str(self.coeffs[e])]
            for name, k in zip(names, e):
                factors.append(name if k == 1 else f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly({self.degree}, {self.to_text()})"


def _term_rows(expts, idx, src, sign):
    """Target row of each term times each source element, or -1 where the
    product leaves the target; the one place where a product term is mapped
    to its target row.

    expts holds one exponent row (es, et, eu, ev) per term, all of one
    bidegree, and idx holds source element indices; the result has a row
    per term and a column per index.  src = (X, Y).  Along s,t the space is
    polynomial (sign +1: s^x t^(X-x)) or inverse (sign -1: 1/(s^(x+1)
    t^(X-x+1))), and likewise along u,v with y and Y; element (x, y) sits at
    (X - x)(Y + 1) + (Y - y), the strand_basis order, and a negative X or Y
    gives the zero space.  A term raises a polynomial factor by its
    exponents and contracts an inverse one, which can leave the range of
    the target.  The target is (X + sign[0] deg1, Y + sign[1] deg2).
    """
    (X, Y), (sx, sy) = src, sign
    es, et, eu, ev = expts[0].tolist()
    tx, ty = X + sx * (es + et), Y + sy * (eu + ev)
    x = X - idx // (Y + 1) + sx * expts[:, :1]
    y = Y - idx % (Y + 1) + sy * expts[:, 2:3]
    rows = (tx - x) * (ty + 1) + (ty - y)
    if sx < 0 or sy < 0:
        rows[(x < 0) | (x > tx) | (y < 0) | (y > ty)] = -1
    return rows


def _product(forms, src, sign):
    """Arrays of multiplication by each of the forms, all of one bidegree,
    from the space src to its target, stacked as one (len(forms), h, n)
    array; src and sign as in _term_rows."""
    (X, Y), (sx, sy) = src, sign
    g = forms[0]
    tx, ty = X + sx * g.degree[0], Y + sy * g.degree[1]
    out = g.field.zeros((len(forms), strand_dim((tx, ty)), strand_dim(src)))
    terms = [(k, e, c) for k, f in enumerate(forms) for e, c in f.coeffs.items()]
    if out.size and terms:
        ks, expts, coef = zip(*terms)
        h, n = out.shape[1:]
        idx = np.arange(n)
        rows = _term_rows(np.array(expts, dtype=np.int64), idx, src, sign)
        ok = rows >= 0
        # rows becomes the flat index of each term's cell in its form's
        # block; within a column a term of one form fixes its target row, so
        # no two terms of a form write the same cell and assignment is exact
        rows += np.array(ks)[:, None] * h
        rows *= n
        rows += idx
        coef = np.repeat(np.array(coef, dtype=g.field.dtype), n).reshape(rows.shape)
        out.reshape(-1)[rows[ok]] = coef[ok]
    return out


def mul_matrix(g, b):
    """Matrix of multiplication by g from strand b to strand b + deg(g).

    Columns/rows follow strand_basis order of source/target.  b must be a
    nonnegative bidegree.
    """
    if b[0] < 0 or b[1] < 0:
        raise ValueError("source bidegree must be nonnegative")
    return ExactMatrix(g.field, _product((g,), b, (1, 1))[0])


@dataclass(eq=False)
class SystemF:
    """Three linearly independent bihomogeneous forms of common degree d >= (1,1)."""

    field: FieldSpec
    d: tuple
    polys: tuple

    def __post_init__(self):
        self.d = tuple(self.d)
        self.polys = tuple(self.polys)
        if self.d[0] < 1 or self.d[1] < 1:
            raise ValueError("d must be at least (1,1) in each coordinate")
        if len(self.polys) != 3:
            raise ValueError("a system consists of exactly three forms")
        for f in self.polys:
            if f.degree != self.d:
                raise ValueError(f"form of degree {f.degree}, expected {self.d}")
            if f.field != self.field:
                raise ValueError("field mismatch inside system")
        coeff_rows = [f.coeff_vector() for f in self.polys]
        if mat_rank(ExactMatrix.from_rows(self.field, coeff_rows)) != 3:
            raise ValueError("the three forms are linearly dependent")

    def __repr__(self):
        return f"SystemF(d={self.d}, [" + "; ".join(p.to_text() for p in self.polys) + "])"


def split_st(f):
    """Write a bidegree-(1,n) form as s*p + t*q; returns the (0,n) forms (p, q)."""
    if f.degree[0] != 1:
        raise ValueError("split_st needs s,t-degree exactly 1")
    p, q = {}, {}
    for (es, et, eu, ev), c in f.coeffs.items():
        (p if es else q)[(0, 0, eu, ev)] = c
    n = f.degree[1]
    return BiPoly(f.field, (0, n), p), BiPoly(f.field, (0, n), q)


def theta_matrix(polys):
    """Split forms of the (1,n) forms f_i = s p_i + t q_i as a 2 x len(polys)
    matrix of (0,n) forms: row 0 the p_i, row 1 the q_i."""
    return [list(row) for row in zip(*map(split_st, polys))]


# --------------------------------------------------------------- binary gcds

def _dehom_u(g):
    """Coefficients of the (0,n) form g at v = 1, ascending in u, trailing
    zeros trimmed."""
    c = g.coeff_vector()[::-1]
    while c and g.field.is_zero(c[-1]):
        c.pop()
    return c


def _poly_mod(a, b, field):
    """Remainder of dense univariate division (ascending coefficients)."""
    a = list(a)
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    while len(a) - 1 >= db and a:
        if field.is_zero(a[-1]):
            a.pop()
            continue
        factor = field.mul(a[-1], inv_lead)
        shift = len(a) - 1 - db
        for i, bc in enumerate(b):
            a[shift + i] = field.sub(a[shift + i], field.mul(factor, bc))
        a.pop()
    while a and field.is_zero(a[-1]):
        a.pop()
    return a


def gcd_binary(p, q):
    """Monic gcd of two (0,n) forms (error if both are zero).

    Dehomogenized Euclid in u; common v-multiplicities are tracked separately
    since setting v = 1 loses them.
    """
    field = p.field
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd of two zero forms")
    if p.is_zero() or q.is_zero():
        g = q if p.is_zero() else p
        lead = next(c for c in g.coeff_vector() if not field.is_zero(c))
        return g * field.inv(lead)
    pa, qa = _dehom_u(p), _dehom_u(q)
    vmult = min(p.degree[1] - (len(pa) - 1), q.degree[1] - (len(qa) - 1))
    while qa:
        pa, qa = qa, _poly_mod(pa, qa, field)
    g = [field.mul(c, field.inv(pa[-1])) for c in pa]
    return BiPoly.from_vector(field, (0, len(g) - 1 + vmult),
                              [field.zero()] * vmult + g[::-1])


def binary_roots(bf):
    """Projective roots (alpha, beta) of the (0,n) form bf over the ground
    field, each once.

    Order: over GF(p), (1 : 0) first when v divides bf, then the points
    (r : 1) by ascending r in [0, p).  Over Q, the pairs sorted by their
    str(), a fixed order that is not by value.  Callers that take the first
    root with some property (segre.basepoint_free's witness) depend on it.

    GF(p): exhaustive vectorized scan of (r : 1) plus the point (1 : 0).
    Q: rational-root search on the integer-cleared dehomogenization (divisor
    enumeration capped at |constant| <= 10**12; larger inputs may miss roots,
    which only weakens witness extraction, never correctness of verdicts).
    """
    field = bf.field
    if bf.is_zero():
        raise ValueError("roots of the zero form")
    roots = []
    desc = bf.coeff_vector()
    if field.is_zero(desc[0]):
        roots.append((field.one(), field.zero()))  # (1 : 0), i.e. v | bf
    if field.is_prime_field:
        p = field.p
        rs = np.arange(p, dtype=np.int64)
        acc = np.full(p, desc[0], dtype=np.int64)
        for c in desc[1:]:
            acc = (acc * rs + c) % p
        for r in np.nonzero(acc == 0)[0]:
            roots.append((int(r), 1))
        return roots
    dense = _dehom_u(bf)
    if not dense:
        return roots
    den = 1
    for c in dense:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    ints = [int(c * den) for c in dense]
    while ints and ints[0] == 0:
        ints.pop(0)
        if (Fraction(0), Fraction(1)) not in roots:
            roots.append((Fraction(0), Fraction(1)))
    c0, cl = abs(ints[0]), abs(ints[-1])
    if c0 <= 10 ** 12:
        for a in _divisors(c0):
            for b in _divisors(cl):
                for cand in (Fraction(a, b), Fraction(-a, b)):
                    val = sum(c * cand ** k for k, c in enumerate(ints))
                    if val == 0 and (cand, Fraction(1)) not in roots:
                        roots.append((cand, Fraction(1)))
    return sorted(set(roots), key=str)


def _divisors(n):
    n = abs(n)
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
        if i > 10 ** 6:
            break
    return sorted(out)
