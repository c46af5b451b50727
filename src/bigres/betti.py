"""Bigraded Betti numbers by two independent routes, plus syzygy constructors.

Route one: Tor strands from the Koszul complex of the four variables
(s,t,u,v) tensored with quotient strands of R/I.  Route two: the same
variable Koszul complex applied to the middle homology module H1 realized by
kernel bases of the phi maps.  The two routes are kept separate on purpose;
their pointwise relation is reported, not reconciled.

Both routes read the per-system strand store of strands, which owns every
elimination and every module action, and both exploit the identity pattern
of echelonized kernel bases.  Quotient strands come from the record of the
kernel of d_1^T, the inverse system of I at that degree, which
strands._quotient_kernel builds by recursion on the degree, eliminating
d_1^T only where it is thin: its free monomials are the quotient basis, and
row m of its kernel matrix holds the R/I coordinates of monomial m, so
multiplication by a variable is a row lookup, not a solve.  H1 strands come from the phi
kernel records: coordinates of a kernel vector are its entries at the free
columns.  The variable actions on both modules are store records too
(strands._quotient_action and strands._h1_action), built once per system.

Both Koszul complexes on the variables are run through the one Koszul
homology routine, strands._koszul_homology, given a module's strand dims
and actions; on R/I its first two homology dims are proved (betti_table).

The syzygy constructors share one small polynomial-matrix kernel: poly_dot
is the one sum of products (poly_mat_mul is a comprehension over it), cross
the signed 2x2 minors of two triples, and poly_strand the one builder of the
degree strand of a polynomial matrix, from the multiplication blocks of
bipoly.mul_matrix.  The resolution strands, the Hilbert-Burch span and the
syz3star check all go through poly_strand; the (1,n) split f_i = s p_i +
t q_i is read from bipoly.theta_matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import partial

from .exactcore import ExactMatrix, kernel_data, mat_from_blocks, mat_mul, mat_rank, rref
from .bipoly import BiPoly, gcd_binary, mul_matrix, strand_dim, theta_matrix
from . import strands
from .strands import (VAR_DEGREES, _h1_action, _koszul_spots, _quotient_action, h1_dim,
                      hf_quotient)


# --------------------------------------------------------------- Betti tables

@dataclass
class BettiTable:
    """Sparse bigraded Betti numbers with an explicit homological convention.

    IdealConvention indexes resolutions of the ideal: beta^I_(i,a) equals the
    QuotientConvention entry at i+1.
    """

    convention: str
    entries: dict = dc_field(default_factory=dict)
    warning: bool = False

    def beta(self, i, a):
        return self.entries.get((i, tuple(a)), 0)

    def total(self, i):
        return sum(m for (j, _), m in self.entries.items() if j == i)

    def support(self, i):
        return sorted(a for (j, a) in self.entries if j == i)

    def to_json(self):
        rows = sorted([i, a[0], a[1], m] for (i, a), m in self.entries.items())
        return json.dumps({"convention": self.convention, "entries": rows})

    @staticmethod
    def from_json(text):
        obj = json.loads(text)
        entries = {(i, (a1, a2)): m for i, a1, a2, m in obj["entries"]}
        return BettiTable(obj["convention"], entries)

    def to_text(self):
        lines = [f"convention: {self.convention}"]
        if self.warning:
            lines.append("warning: input may have basepoints")
        for i in sorted({i for i, _ in self.entries}):
            cells = ", ".join(f"{a}^{m}" if m > 1 else f"{a}"
                              for (j, a), m in sorted(self.entries.items()) if j == i)
            lines.append(f"  beta_{i}: {cells}")
        return "\n".join(lines)


def betti_table(sys, box=None, degrees=None, convention="IdealConvention"):
    """Betti table over [0,box] (or an explicit degree list) via Tor strands.

    Quotient homology is computed for homological indices 0..4 and shifted
    down by one for IdealConvention.  Non-basepoint-free input, by the exact
    test strands._free, only sets the warning flag; the table itself stays
    well-defined.  Three facts are proved, with or without basepoints; C
    and F are the known H_0 and H_1 that _tor hands the homology routine:
    - (B) Tor of R/I is 0 at a != (0,0) with a1 < d1 or a2 < d2.  Every spot
      b <= a has I_b = 0, so the strand is the degree-a strand of the Koszul
      complex of R on s,t,u,v, a resolution of k = R/(s,t,u,v) (Eisenbud,
      The Geometry of Syzygies, ch. 1), exact away from degree 0.
    - (C) H_0 = [a = (0,0)], so rank d_1 = hf(a) - [a = (0,0)].  The image
      of d_1 is (m R/I)_a, with m = (s,t,u,v); R/I is cyclic, generated by
      1 in degree (0,0) (d >= (1,1), so hf(0,0) = 1), so (m R/I)_a is all
      of (R/I)_a at a != (0,0) and 0 at (0,0).
    - (F) H_1 = 3 [a = d], so rank d_2 = dims_1 - rank d_1 - 3 [a = d],
      dims_1 the size of the index-1 term.  H_1 = Tor_1(R/I, k)_a = (I/mI)_a
      (Eisenbud, ch. 1): the minimal generators of I in degree a.  I is
      generated by f0, f1, f2 in degree d, and I_b = 0 for b < d, so (mI)_d
      = 0 and (I/mI)_d = I_d, of dimension 3 because SystemF admits only
      independent forms; at a != d, (I/mI)_a = 0.  So H_1 = 3 [a = d],
      with or without basepoints, and rank d_2 = dims_1 - rank d_1 - H_1.
    Over Q each degree is read from the image where _image_tor proves it,
    and computed over Q where it does not.
    """
    if convention not in ("IdealConvention", "QuotientConvention"):
        raise ValueError("unknown convention")
    if degrees is None:
        if box is None:
            raise ValueError("need box or degrees")
        degrees = [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)]
    degrees = sorted(set(map(tuple, degrees)))
    entries = {}
    for a in degrees:
        if a != (0, 0) and (a[0] < sys.d[0] or a[1] < sys.d[1]):
            continue
        hom = None if sys.field.is_prime_field else _image_tor(sys, a)
        for j, h in enumerate(_tor(sys, a) if hom is None else hom):
            if h:
                entries[(j, a)] = h
    if convention == "IdealConvention":
        entries = {(j - 1, a): m for (j, a), m in entries.items() if j >= 1}
    return BettiTable(convention, entries, not strands._free(sys))


def _tor(sys, a):
    """Homology dims (H_0..H_4) of the variable Koszul complex on R/I at a,
    with H_0 and H_1 given by rules C and F of betti_table."""
    return strands._koszul_homology(sys.field, VAR_DEGREES, a, partial(hf_quotient, sys),
                                    partial(_quotient_action, sys),
                                    (int(a == (0, 0)), 3 * (a == sys.d)))


def _image_tor(sys, a):
    """_tor of the Q system sys at a, read from its image where a proof
    makes the two equal; None where none does.

    Let A = Z_(p)[s,t,u,v]/I, with I generated by the p-integral forms of
    sys.  Each A_b is a finitely generated Z_(p)-module with A_b (x) Q =
    (R/I)_b over Q and A_b (x) GF(p) = (R/I)_b of the image, so it is free
    exactly when hf over Q and mod p agree at b.  Suppose hf is certified
    (strands._hf_certified) at every spot a - deg S of the strand; spots
    with a negative coordinate hold 0.  Then the degree-a strand K of the
    Koszul complex on s,t,u,v over A is a complex of free Z_(p)-modules,
    and the universal coefficient theorem gives
        beta_i mod p = beta_i over Q + t_i + t_(i-1),
    with t_i the number of torsion summands of H_i(K).  So beta over Q is
    at most beta mod p, and every drop comes in two consecutive indices
    (Peeva, "Consecutive cancellations in Betti numbers", Proc. AMS 2004):
    t_i > 0 makes beta_i and beta_(i+1) mod p both nonzero.  If the nonzero
    homology of the image at a sits at indices of one parity, no two
    consecutive ones are, so every t_i is 0 and the image's values are
    those over Q.  Otherwise the degree is computed over Q.
    """
    img = strands._image(sys)
    if img is None or not all(strands._hf_certified(sys, b) for j in range(5)
                              for _, b in _koszul_spots(VAR_DEGREES, a, j)):
        return None
    hom = _tor(img, a)
    return hom if len({j % 2 for j, h in enumerate(hom) if h}) <= 1 else None


def nonkoszul_beta1(table, d):
    """beta_1 entries with the three Koszul syzygies at 2d removed."""
    if table.convention != "IdealConvention":
        raise ValueError("expects IdealConvention")
    out = {}
    for (i, a), m in table.entries.items():
        if i != 1:
            continue
        m2 = m - 3 if a == (2 * d[0], 2 * d[1]) else m
        if m2 < 0:
            raise ArithmeticError(f"fewer than 3 Koszul syzygies at {a}")
        if m2:
            out[a] = m2
    return out


def box_nonkoszul_beta1(sys, box):
    """nonkoszul_beta1 of the Betti table on [0, box], with Tor computed
    only where a non-Koszul first syzygy can sit.

    Let Syz be the module of first syzygies of f0, f1, f2 and Kos its
    submodule of Koszul syzygies, generated by the three in degree 2d, so
    that Syz/Kos is H1 of the Koszul complex on the net.  Tensoring 0 ->
    Kos -> Syz -> H1 -> 0 with k = R/(s,t,u,v) gives the exact sequence
    Tor_0(Kos)_a -> Tor_0(Syz)_a -> Tor_0(H1)_a -> 0, and Tor_0(Kos)_a = 0
    at every a != 2d.  So there beta_1(I)_a = Tor_0(Syz)_a = Tor_0(H1)_a,
    which is 0 wherever H1_a = 0, with or without basepoints.  On a net
    that strands._free proves basepoint-free h1_dim is dim H1 (see
    strands.is_generic), so Tor is computed only at 2d and where h1_dim >
    0; on a net with a basepoint h1_dim need not be dim H1, and Tor is
    computed on the whole box.
    """
    d = sys.d
    degrees = [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)]
    if strands._free(sys):
        degrees = [a for a in degrees if a == (2 * d[0], 2 * d[1]) or h1_dim(sys, a) > 0]
    return nonkoszul_beta1(betti_table(sys, degrees=degrees), d)


def mcomplex_dims(sys, a):
    """Homology dims (i=0..4) of the variable Koszul complex on H1 at a.

    The tail must vanish; nonzero H(M)_3 or H(M)_4 signals a broken kernel
    model and raises.
    """
    hom = strands._koszul_homology(sys.field, VAR_DEGREES, tuple(a), partial(h1_dim, sys),
                                   partial(_h1_action, sys))
    if hom[3] or hom[4]:
        raise ArithmeticError(f"M-complex tail homology nonzero at {a}: {hom}")
    return hom


def mcomplex_sums(sys, box):
    """Totals of dim H(M)_i over [0,box] for i = 0,1,2.

    The two outermost shells of the box must contribute nothing; otherwise
    the box missed part of the (finite) support and we refuse to sum.
    """
    sums = [0, 0, 0]
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            hom = mcomplex_dims(sys, (a1, a2))
            on_shell = a1 >= box[0] - 1 or a2 >= box[1] - 1
            if on_shell and any(hom[:3]):
                raise ValueError(f"M-complex support touches box shell at {(a1, a2)}")
            for i in range(3):
                sums[i] += hom[i]
    return tuple(sums)


def route_equality_report(sys, degrees):
    """Compare beta^I_1 with the M-complex homology degree by degree.

    Two identities are tabulated.  The generator identity (nonKoszul beta_1 ==
    HM_0, away from 2d) holds degree by degree: a non-Koszul first syzygy in
    degree a is exactly a minimal generator of H1 there.  The difference
    identity (beta_1 == HM_1 - HM_2) only holds after summing over the whole
    support: HM_1 and HM_2 sit one or two Koszul steps above the generators
    they cancel, so per-degree rows routinely disagree (already for d=(1,1),
    where H1 is a pair of shifted line modules and every populated row has
    diff_match False).  Mismatches are reported as data, never patched.
    """
    table = betti_table(sys, degrees=degrees)
    nk = nonkoszul_beta1(table, sys.d)
    twod = (2 * sys.d[0], 2 * sys.d[1])
    rows = []
    for a in sorted(set(map(tuple, degrees))):
        b1 = table.beta(1, a)
        hom = mcomplex_dims(sys, a)
        row = {"a": a, "beta1": b1, "hm0": hom[0], "hm1": hom[1], "hm2": hom[2],
               "diff_match": b1 == hom[1] - hom[2],
               "gen_match": (a == twod) or nk.get(a, 0) == hom[0]}
        if any((b1, hom[0], hom[1], hom[2])):
            rows.append(row)
    return rows


# --------------------------------------------------------- syzygy constructors

@dataclass
class SyzygyVector:
    """(sigma0, sigma1, sigma2) with sum sigma_i f_i == 0; entries of equal degree."""

    entries: tuple
    total_degree: tuple


def _checked_syzygy(sys, entries):
    total = poly_dot(entries, sys.polys)
    if not total.is_zero():
        raise ArithmeticError("claimed syzygy does not annihilate the system")
    return SyzygyVector(tuple(entries), total.degree)


def koszul_syzygies(sys):
    """The three Koszul syzygies (0,f2,-f1), (-f2,0,f0), (f1,-f0,0)."""
    f0, f1, f2 = sys.polys
    z = BiPoly.zero(sys.field, sys.d)
    return [_checked_syzygy(sys, (z, f2, -f1)),
            _checked_syzygy(sys, (-f2, z, f0)),
            _checked_syzygy(sys, (f1, -f0, z))]


def alicia_syzygy(sys):
    """The unique low-degree syzygy for d=(1,n): signed minors of [p; q]."""
    if sys.d[0] != 1:
        raise ValueError("needs d = (1,n)")
    p, q = theta_matrix(sys.polys)
    sig = cross(q, p)
    if all(s.is_zero() for s in sig):
        raise ArithmeticError("minor vector vanishes: system has a basepoint")
    return _checked_syzygy(sys, sig)


def prop32_matrices(sys):
    """(A, Aprime, third) with A*Aprime == 0 and Aprime*third == 0.

    A packs the minor syzygy next to the Koszul columns; Aprime lifts the
    pair of second syzygies; third = [t, -s, 1].
    """
    if sys.d[0] != 1:
        raise ValueError("needs d = (1,n)")
    fld = sys.field
    f0, f1, f2 = sys.polys
    sig = alicia_syzygy(sys).entries
    p, q = theta_matrix(sys.polys)
    s = BiPoly.variable(fld, "s")
    t = BiPoly.variable(fld, "t")
    A = [[sig[0], f1, f2, None],
         [sig[1], -f0, None, f2],
         [sig[2], None, -f0, -f1]]
    Aprime = [[s, t, None],
              [q[2], -p[2], -f2],
              [-q[1], p[1], f1],
              [q[0], -p[0], -f0]]
    third = [t, -s, BiPoly(fld, (0, 0), {(0, 0, 0, 0): fld.one()})]
    prod = poly_mat_mul(A, Aprime)
    if not poly_mat_is_zero(prod):
        raise ArithmeticError("A * Aprime != 0")
    if not poly_mat_is_zero(poly_mat_mul(Aprime, [[x] for x in third])):
        raise ArithmeticError("Aprime * [t,-s,1] != 0")
    return A, Aprime, third


def poly_dot(u, w):
    """Sum of the products u_k w_k; None entries are structural zeros, and a
    sum without a term is None."""
    acc = None
    for x, y in zip(u, w):
        if x is not None and y is not None:
            acc = x * y if acc is None else acc + x * y
    return acc


def poly_mat_mul(P, Q):
    """Product of polynomial matrices; None entries are structural zeros."""
    return [[poly_dot(row, col) for col in zip(*Q)] for row in P]


def poly_mat_is_zero(P):
    return all(e is None or e.is_zero() for row in P for e in row)


def cross(u, w):
    """Signed 2x2 minors of the triples u, w: the cross product u x w."""
    return [u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0]]


def poly_strand(field, P, src, tgt):
    """Degree strand of the polynomial matrix P: column c reads the ring
    strand src[c], row r lands in tgt[r], and block (r, c) multiplies by
    P[r][c].  None or zero entries and empty sources give zero blocks."""
    blocks = {(r, c): mul_matrix(e, src[c]).data
              for r, row in enumerate(P) for c, e in enumerate(row)
              if e is not None and not e.is_zero() and strand_dim(src[c])}
    return mat_from_blocks(field, [strand_dim(b) for b in tgt],
                           [strand_dim(b) for b in src], blocks)


# ------------------------------------------------------- Hilbert-Burch kernels

@dataclass
class HilbertBurchData:
    """Minimal graded kernel basis of a 1 x m row of (0,n) forms."""

    generators: list
    columns: list
    column_degrees: list

    def column_matrix(self):
        """Kernel basis as rows-of-entries (m x (m-1) when colength is finite)."""
        return [[col[r] for col in self.columns] for r in range(len(self.generators))]


def hb_kernel(q):
    """Minimal syzygies of m >= 2 coprime (0,n) forms, strand by strand.

    Walks degrees upward; at each degree the kernel of the stacked
    multiplication matrix is compared against multiples of the generators
    already found, and kernel columns contributing new pivots are kept.  The
    syzygy module is free of rank m-1 and the column degrees must sum to the
    common degree n: both facts are asserted, not assumed.
    """
    m = len(q)
    if m < 2:
        raise ValueError("need at least two forms")
    fld = q[0].field
    n = q[0].degree[1]
    if any(g.degree != (0, n) for g in q):
        raise ValueError("forms must share one degree")
    if all(g.is_zero() for g in q):
        raise ValueError("all forms are zero")
    g = None
    for form in q:
        if form.is_zero():
            continue
        g = form if g is None else gcd_binary(g, form)
    if g.degree[1] > 0:
        raise ValueError(f"common factor of positive degree {g.degree[1]}: "
                         "syzygy module is not free of rank m-1 here")
    found = []
    for b in range(0, 3 * n + 1):
        # the row [q_0 ... q_(m-1)] on the degree-b strand
        kern = kernel_data(poly_strand(fld, [q], [(0, b)] * m, [(0, n + b)]))[0]
        if kern.cols:
            # multiples of the generators found so far: the degree-b strand
            # of each column [gen_0; ...; gen_(m-1)]
            span = poly_strand(fld, [[gen[l] for gen, _ in found] for l in range(m)],
                               [(0, b - bk) for _, bk in found], [(0, b)] * m)
            _, piv = rref(mat_from_blocks(fld, [m * (b + 1)], [span.cols, kern.cols],
                                          {(0, 0): span.data, (0, 1): kern.data}))
            for j in range(kern.cols):
                if span.cols + j in piv:
                    col = kern.col(j)
                    gen = [BiPoly.from_vector(fld, (0, b), col[l * (b + 1):(l + 1) * (b + 1)])
                           for l in range(m)]
                    found.append((gen, b))
        if len(found) >= m - 1:
            break
    if len(found) != m - 1:
        raise ArithmeticError(f"expected {m - 1} syzygies, found {len(found)} "
                              f"within degree {3 * n}")
    column_degrees = [b for _, b in found]
    if sum(column_degrees) != n:
        raise ArithmeticError(f"column degrees {column_degrees} do not sum to {n}")
    hb = HilbertBurchData(list(q), [gen for gen, _ in found], column_degrees)
    if not poly_mat_is_zero(poly_mat_mul([hb.generators], hb.column_matrix())):
        raise ArithmeticError("kernel column fails [q] . N == 0")
    return hb


def _det(rows):
    """Determinant of a square matrix of BiPolys by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    return poly_dot([e if j % 2 == 0 else -e for j, e in enumerate(rows[0])],
                    [_det([row[:j] + row[j + 1:] for row in rows[1:]])
                     for j in range(len(rows))])


def syz3star(sys):
    """Five quadratic-in-(s,t) syzygies for d=(1,n) from Hilbert-Burch minors.

    The six split forms must be independent (forces n >= 5).  For HB column
    k the 4x4 minors m_ij of N-without-column-k assemble into a kernel
    vector of the 4x9 coefficient matrix M:
      a = (m12, -m02, m01), c = (m45, -m35, m34),
      b = (m15 - m24, m23 - m05, m04 - m13),
    where m_ij carries the complementary sign (-1)^(i+j).  Both the
    polynomial identity M . K^t == 0 and membership in the strand kernel are
    verified at runtime.
    """
    if sys.d[0] != 1:
        raise ValueError("needs d = (1,n)")
    fld = sys.field
    n = sys.d[1]
    p, q = theta_matrix(sys.polys)
    six = p + q
    coeff_rows = [g.coeff_vector() for g in six]
    if mat_rank(ExactMatrix.from_rows(fld, coeff_rows)) != 6:
        raise ValueError("split forms are dependent; use the reduced "
                         "conic/pencil constructions instead")
    hb = hb_kernel(six)
    N = hb.column_matrix()  # 6 rows x 5 columns of (0,*) forms
    Mrows = [p + [None] * 6,
             q + p + [None] * 3,
             [None] * 3 + q + p,
             [None] * 6 + q]
    ss, tt = BiPoly.variable(fld, "s"), BiPoly.variable(fld, "t")
    quad = [ss * ss, ss * tt, tt * tt]
    out = []
    krows = []
    for k in range(5):
        keep = [kk for kk in range(5) if kk != k]
        bk = hb.column_degrees[k]

        def minor(i, j):
            rows = [r for r in range(6) if r not in (i, j)]
            det = _det([[N[r][c] for c in keep] for r in rows])
            return det if (i + j) % 2 == 0 else -det

        a = (minor(1, 2), -minor(0, 2), minor(0, 1))
        c = (minor(4, 5), -minor(3, 5), minor(3, 4))
        bmid = (minor(1, 5) - minor(2, 4),
                minor(2, 3) - minor(0, 5),
                minor(0, 4) - minor(1, 3))
        if all(x.is_zero() for x in a + bmid + c):
            raise ArithmeticError(f"minor construction degenerated at column {k}")
        kvec = list(a) + list(bmid) + list(c)
        krows.append(kvec)
        out.append(_checked_syzygy(sys, [poly_dot(quad, abc) for abc in zip(a, bmid, c)]))
        if out[-1].total_degree != (3, 2 * n - bk):
            raise ArithmeticError("syzygy degree mismatch")
    Kt = [[krows[k][r] for k in range(5)] for r in range(9)]
    if not poly_mat_is_zero(poly_mat_mul(Mrows, Kt)):
        raise ArithmeticError("M . K^t != 0")
    for k in range(5):
        bk = hb.column_degrees[k]
        strand = poly_strand(fld, Mrows, [(0, n - bk)] * 9, [(0, 2 * n - bk)] * 4)
        vec = [x for e in krows[k] for x in e.coeff_vector()]
        col = ExactMatrix.from_rows(fld, [[x] for x in vec])
        if not mat_mul(strand, col).is_zero():
            raise ArithmeticError("strand-kernel cross-check failed")
    return out


# ------------------------------------------------------ resolution verification

@dataclass(eq=False)
class ResolutionComplex:
    """Shifts and polynomial differentials of 0 -> F3 -> F2 -> F1 -> F0.

    shifts[i] lists the twist of each free summand of F_i; diffs[j-1] is the
    matrix of F_j -> F_(j-1) with BiPoly entries (None for structural zero),
    entry (r,c) of degree shifts[j][c] - shifts[j-1][r].
    """

    sys: object
    shifts: list
    diffs: list

    def __post_init__(self):
        if len(self.shifts) != len(self.diffs) + 1:
            raise ValueError("need one more shift list than differentials")
        for j, mat in enumerate(self.diffs, start=1):
            if len(mat) != len(self.shifts[j - 1]):
                raise ValueError(f"differential {j} row count mismatch")
            for r, row in enumerate(mat):
                if len(row) != len(self.shifts[j]):
                    raise ValueError(f"differential {j} column count mismatch")
                for c, e in enumerate(row):
                    if e is None or e.is_zero():
                        continue
                    want = (self.shifts[j][c][0] - self.shifts[j - 1][r][0],
                            self.shifts[j][c][1] - self.shifts[j - 1][r][1])
                    if e.degree != want:
                        raise ValueError(f"entry ({r},{c}) of differential {j} "
                                         f"has degree {e.degree}, want {want}")

    def strand(self, j, a):
        """Matrix of differential j on the degree-a strand."""
        src = [(a[0] - s[0], a[1] - s[1]) for s in self.shifts[j]]
        tgt = [(a[0] - s[0], a[1] - s[1]) for s in self.shifts[j - 1]]
        return poly_strand(self.sys.field, self.diffs[j - 1], src, tgt)

    def strand_dims(self, a):
        return [sum(strand_dim((a[0] - s[0], a[1] - s[1])) for s in shifts)
                for shifts in self.shifts]


@dataclass
class ResolutionReport:
    passed: bool
    failures: list
    box: tuple

    def __str__(self):
        if self.passed:
            return f"resolution verified on box {self.box}"
        head = "; ".join(str(f) for f in self.failures[:4])
        more = "" if len(self.failures) <= 4 else f" (+{len(self.failures) - 4} more)"
        return f"resolution FAILED on box {self.box}: {head}{more}"


def verify_resolution(rc, box=None):
    """Composition, strandwise exactness, Euler count, minimality.

    Exactness over the finite box stands in for the depth criterion: the
    default box exceeds every shift coordinate by 3 in each direction.
    """
    if box is None:
        box = (max(s[0] for shifts in rc.shifts for s in shifts) + 3,
               max(s[1] for shifts in rc.shifts for s in shifts) + 3)
    failures = []
    aug = [list(rc.sys.polys)]
    if len(rc.shifts[0]) == 3 and all(tuple(s) == tuple(rc.sys.d) for s in rc.shifts[0]):
        if not poly_mat_is_zero(poly_mat_mul(aug, rc.diffs[0])):
            failures.append(("compose", 0, "augmentation . d1 != 0"))
    for j in range(len(rc.diffs) - 1):
        if not poly_mat_is_zero(poly_mat_mul(rc.diffs[j], rc.diffs[j + 1])):
            failures.append(("compose", j + 1, f"d{j + 1} . d{j + 2} != 0"))
    for j, mat in enumerate(rc.diffs, start=1):
        for r, row in enumerate(mat):
            for c, e in enumerate(row):
                if e is not None and e.degree == (0, 0) and not e.is_zero():
                    failures.append(("minimality", j, f"scalar entry at ({r},{c})"))
    nspots = len(rc.diffs)
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            a = (a1, a2)
            mats = [rc.strand(j, a) for j in range(1, nspots + 1)]
            ranks = [mat_rank(m) for m in mats]
            for j in range(1, nspots + 1):
                kdim = mats[j - 1].cols - ranks[j - 1]
                imdim = ranks[j] if j < nspots else 0
                if kdim != imdim:
                    failures.append(("exactness", j, a, kdim, imdim))
            dims = rc.strand_dims(a)
            euler = sum((-1) ** i * dims[i] for i in range(len(dims)))
            if strand_dim(a) - euler != hf_quotient(rc.sys, a):
                failures.append(("euler", a, strand_dim(a) - euler,
                                 hf_quotient(rc.sys, a)))
    return ResolutionReport(not failures, failures, tuple(box))
