"""Geometry of the span W against Segre loci: basepoints, conics, factorizations.

The exact basepoint test, for every d, is whether R/I is 0 at (3d1 - 1,
2d2 - 1), where the generator strand is square (the store record
strands._free, read off the quotient record).  For d=(1,n) a net with a
basepoint also gets a witness through the 2x3 matrix theta of split forms
(bipoly.theta_matrix): the gcd of its three 2x2 minors (betti.cross) is
nonconstant, and its roots give the basepoints.
Conic detection looks for a first syzygy with coefficients quadratic in s,t
and rebuilds the normal basis (t a0, s a0 + t a1, s a1).  The resolution
templates for the conic and three-point cases are instantiated here and
verified by betti.verify_resolution.  Every split, sum of products and
minor here goes through bipoly.theta_matrix and betti's poly_dot and cross.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .exactcore import ExactMatrix, kernel_data, mat_rank, rref
from .bipoly import BiPoly, SystemF, binary_roots, gcd_binary, theta_matrix
from .strands import _free, _ring_differential, phi_matrices
from .betti import ResolutionComplex, SyzygyVector, cross, hb_kernel, poly_dot


class ImpossibleFactorization(Exception):
    """Degenerate conic branch: contradicts basepoint-freeness."""


class ConicRedirect(Exception):
    """Dependent (0,n) factors: the conic construction applies instead."""


@dataclass
class BasepointVerdict:
    kind: str                    # Free | HasBasepoint
    witness: tuple | None = None  # ((s0,t0),(u0,v0)) if extractable
    evidence: object = None      # gcd (0,n) BiPoly or note

    def __str__(self):
        if self.kind == "HasBasepoint" and self.witness:
            pts = ", ".join(f"({', '.join(map(str, pt))})" for pt in self.witness)
            return f"HasBasepoint at ({pts})"
        return self.kind


def _st_kernel_at(sys, uv_point):
    """Common (s0,t0) killing all three forms at the given (u0,v0), or None."""
    # f = s p + t q, so f at s,t = (1,0) and (0,1) is p and q at (u0,v0)
    rows = [[f.evaluate((1, 0, *uv_point)), f.evaluate((0, 1, *uv_point))]
            for f in sys.polys]
    k = kernel_data(ExactMatrix.from_rows(sys.field, rows))[0]
    if not k.cols:
        return None
    return tuple(k.col(0))


def basepoint_free(sys):
    """Exact verdict for every d: Free iff hf_quotient is 0 at (3d1 - 1,
    2d2 - 1), that is iff the square generator strand there has full rank
    (strands._free; the proof is in its docstring).

    A net with a basepoint and d1 == 1 also gets a witness or evidence:
    the gcd of the three 2x2 minors of theta, nonconstant there, whose roots
    over the ground field are searched for a point; an irreducible gcd is
    returned as evidence alone.  For d1 >= 2 the verdict is HasBasepoint
    with no witness.
    """
    if _free(sys):
        return BasepointVerdict("Free")
    if sys.d[0] >= 2:
        return BasepointVerdict("HasBasepoint")
    fld = sys.field
    nonzero = [m for m in cross(*theta_matrix(sys.polys)) if not m.is_zero()]
    if not nonzero:
        # theta has rank <= 1 everywhere: every (u0,v0) sits under a basepoint
        for uv in ((fld.one(), fld.zero()), (fld.zero(), fld.one()),
                   (fld.one(), fld.one())):
            st = _st_kernel_at(sys, uv)
            if st is not None:
                return BasepointVerdict("HasBasepoint", witness=(st, uv),
                                        evidence="theta rank <= 1")
        return BasepointVerdict("HasBasepoint", evidence="theta rank <= 1")
    g = nonzero[0]
    for m in nonzero[1:]:
        g = gcd_binary(g, m)
    for alpha, beta in binary_roots(g):
        st = _st_kernel_at(sys, (alpha, beta))
        if st is not None:
            return BasepointVerdict("HasBasepoint", witness=(st, (alpha, beta)),
                                    evidence=g)
    return BasepointVerdict("HasBasepoint", evidence=g)


# ------------------------------------------------------------- conic detection

@dataclass
class ConicNormalForm:
    """f' = change^t . f equals (t a0, s a0 + t a1, s a1) up to nothing."""

    a0: BiPoly            # of degree (0,n)
    a1: BiPoly
    basis: tuple          # the three normalized forms as BiPoly
    change: ExactMatrix   # 3x3, rows are quadric-coefficient triples


def detect_conic(sys):
    """Normal form behind a (3,n)-degree first syzygy, or None.

    The kernel of (A,B,C) -> A f0 + B f1 + C f2 on s,t-quadric coefficients
    is that of the generator strand [f0 f1 f2] at (3,n), a 9-column map; a
    kernel vector whose coefficient matrix has rank 3 rotates f into the
    normal basis.  Rank <= 2 kernels contradict basepoint-freeness and raise
    ImpossibleFactorization.
    """
    if sys.d[0] != 1:
        raise ValueError("needs d = (1,n)")
    fld = sys.field
    kern = kernel_data(_ring_differential(sys, (3, sys.d[1]), 1))[0]
    if kern.cols == 0:
        return None
    vec = kern.col(0)
    cm = ExactMatrix.from_rows(fld, [vec[0:3], vec[3:6], vec[6:9]])
    if mat_rank(cm) != 3:
        raise ImpossibleFactorization(
            "conic syzygy coefficients span a degenerate quadric space")
    fprime = [poly_dot(sys.polys, cm.col(j)) for j in range(3)]
    # s^2 f'_0 + s t f'_1 + t^2 f'_2 == 0 forces f'_0 = t a0, f'_2 = s a1
    s, t = BiPoly.variable(fld, "s"), BiPoly.variable(fld, "t")
    if not poly_dot([s * s, s * t, t * t], fprime).is_zero():
        raise ImpossibleFactorization("kernel vector fails the syzygy identity")
    p, q = theta_matrix(fprime)
    if not p[0].is_zero() or not q[2].is_zero():
        raise ImpossibleFactorization("normalized forms are not divisible by t / s")
    a0, a1 = q[0], p[2]
    basis = (fprime[0], -fprime[1], fprime[2])
    return ConicNormalForm(a0, a1, basis, cm)


def conic_resolution(sys):
    """Length-3 resolution template for the smooth-conic case.

    Attached to the normalized system (same ideal as sys); the conic syzygy
    appears with signs (s^2, -st, t^2), the variant fixed by the verified
    identity.
    """
    nf = detect_conic(sys)
    if nf is None:
        raise ValueError("no conic syzygy: precondition fails")
    fld = sys.field
    n = sys.d[1]
    h = nf.basis
    hsys = SystemF(fld, sys.d, h)
    a0, a1 = nf.a0, nf.a1
    s = BiPoly.variable(fld, "s")
    t = BiPoly.variable(fld, "t")
    h0, h1, h2 = h
    d1 = [[a1 * a1, h1, h2, None, s * s],
          [-(a0 * a1), -h0, None, h2, -(s * t)],
          [a0 * a0, None, -h0, -h1, t * t]]
    d2 = [[t, s, None, None],
          [-a1, None, None, -s],
          [a0, -a1, -s, t],
          [None, a0, t, None],
          [None, None, a1, a0]]
    d3 = [[s], [-t], [a0], [-a1]]
    shifts = [[(1, n)] * 3,
              [(1, 3 * n), (2, 2 * n), (2, 2 * n), (2, 2 * n), (3, n)],
              [(2, 3 * n), (2, 3 * n), (3, 2 * n), (3, 2 * n)],
              [(3, 3 * n)]]
    return ResolutionComplex(hsys, shifts, [d1, d2, d3])


# --------------------------------------------------------- factorized systems

@dataclass
class FactorizedBasis:
    """Three declared factorizations f_i = g_i h_i with deg g_i = (1, i0)."""

    pairs: list
    i0: int = 0

    def __post_init__(self):
        if len(self.pairs) != 3:
            raise ValueError("need three factor pairs")
        for g, h in self.pairs:
            if g.degree[0] != 1 or g.degree[1] != self.i0:
                raise ValueError(f"first factor of degree {g.degree}, "
                                 f"want (1,{self.i0})")
            if h.degree[0] != 0:
                raise ValueError("second factor must be free of s,t")

    @property
    def field(self):
        return self.pairs[0][0].field

    def products(self):
        return tuple(g * h for g, h in self.pairs)


def _linear_st_coords(g):
    """(c_s, c_t) for a (1,0)-form g = c_s s + c_t t."""
    cs = g.coeffs.get((1, 0, 0, 0), g.field.zero())
    ct = g.coeffs.get((0, 1, 0, 0), g.field.zero())
    return cs, ct


def three_point_resolution(fb):
    """Resolution template for three independent (0,n) factors, i0 == 0.

    Normalizes the linear factors to S, T, aS + bT, orients the two
    Hilbert-Burch columns so their cross product reproduces (h0,h1,h2)
    exactly, and instantiates the displayed differentials.  mu is the
    smaller column degree, 0 < mu <= n/2.
    """
    if fb.i0 != 0:
        raise ValueError("template needs i0 == 0")
    fld = fb.field
    hs = [h for _, h in fb.pairs]
    n = hs[0].degree[1]
    if mat_rank(ExactMatrix.from_rows(fld, [h.coeff_vector() for h in hs])) < 3:
        raise ConicRedirect("dependent (0,n) factors: conic construction applies")
    g0, g1, g2 = (g for g, _ in fb.pairs)
    # the columns [g0 g1 | g2] in (s, t) coordinates: g2 = a g0 + b g1
    # exactly, with (a, b) the last column of the reduced form
    coords, piv = rref(ExactMatrix.from_rows(
        fld, list(zip(*map(_linear_st_coords, (g0, g1, g2))))))
    if piv != (0, 1):
        raise ValueError("parallel linear factors: system has a basepoint")
    a, b = coords.col(2)
    if fld.is_zero(a) or fld.is_zero(b):
        raise ValueError("linear factor g2 parallel to g0 or g1: basepoint")
    hsys = SystemF(fld, (1, n), fb.products())
    bp = basepoint_free(hsys)
    if bp.kind != "Free":
        raise ValueError(f"factored system is not basepoint-free: {bp}")
    hb = hb_kernel(hs)
    mu = hb.column_degrees[0]
    if mu == 0:
        raise ConicRedirect("degree-0 kernel column: factors are dependent")
    bcol, ccol = hb.columns[0], hb.columns[1]
    minors = cross(bcol, ccol)
    # minors = lam (h0, h1, h2); h0 != 0, as the factors are independent
    e0, lead = next(iter(hs[0].coeffs.items()))
    lam = fld.div(minors[0].coeffs.get(e0, fld.zero()), lead)
    if fld.is_zero(lam):
        raise ArithmeticError("cross product of kernel columns vanished")
    inv = fld.inv(lam)
    ccol = [e * inv for e in ccol]
    minors = [e * inv for e in minors]
    for w, h in zip(minors, hs):
        if w.coeffs != h.coeffs:
            raise ArithmeticError("kernel column orientation failed")
    S, T = g0, g1
    G2 = g2
    h0, h1, h2 = hs
    b0, b1, b2 = bcol
    c0, c1, c2_ = ccol
    d1 = [[(-a) * (h1 * h2), T * h1, G2 * h2, None, T * G2 * b0, T * G2 * c0],
          [(-b) * (h0 * h2), -(S * h0), None, G2 * h2, S * G2 * b1, S * G2 * c1],
          [h0 * h1, None, -(S * h0), -(T * h1), S * T * b2, S * T * c2_]]
    # column 3 signs: (..., t, 0, -c1, b1) is forced by d1.d2 == 0 together
    # with d2.d3 == 0; the variant with (c1, -b1) kills neither composition
    d2 = [[T, S, None, None, None],
          [a * h2, (-b) * h2, G2, None, None],
          [None, h1, None, T, None],
          [h0, None, None, None, S],
          [None, None, c2_, -c1, c0],
          [None, None, -b2, b1, -b0]]
    d3 = [[S], [-T], [-h2], [h1], [-h0]]
    shifts = [[(1, n)] * 3,
              [(1, 3 * n), (2, 2 * n), (2, 2 * n), (2, 2 * n),
               (3, n + mu), (3, 2 * n - mu)],
              [(2, 3 * n), (2, 3 * n), (3, 2 * n), (3, 2 * n), (3, 2 * n)],
              [(3, 3 * n)]]
    return ResolutionComplex(hsys, shifts, [d1, d2, d3])


def lift_syzygy(fb, avec):
    """Lift a syzygy of the (0,*) factors to the products g_i h_i."""
    g0, g1, g2 = (g for g, _ in fb.pairs)
    if not poly_dot(avec, [h for _, h in fb.pairs]).is_zero():
        raise ValueError("input is not a syzygy of the factors")
    entries = (g1 * g2 * avec[0], g0 * g2 * avec[1], g0 * g1 * avec[2])
    check = poly_dot(entries, fb.products())
    if not check.is_zero():
        raise ArithmeticError("lift fails against the products")
    return SyzygyVector(entries, check.degree)


def pencil_expected_degrees(n):
    """First-syzygy degrees for the empty-intersection pencil case."""
    if n < 3:
        raise ValueError("needs n >= 3")
    return sorted([(1, 3 * n), (2, 2 * n), (2, 2 * n), (2, 2 * n),
                   (3, n + 2), (3, 2 * n - 1), (3, 2 * n - 1), (6, 2 * n - 2)])


def psi_image(fld, i, n, ptA, ptB):
    """Coordinates of the product map at a point pair, in (1,n)-strand order."""
    if all(fld.is_zero(fld.normalize(x)) for x in ptA) or \
       all(fld.is_zero(fld.normalize(x)) for x in ptB):
        raise ValueError("zero input point")
    ga = BiPoly.from_vector(fld, (1, i), list(ptA))
    hb = BiPoly.from_vector(fld, (0, n - i), list(ptB))
    return (ga * hb).coeff_vector()


def quartic_value(fld, x):
    """The degree-4 invariant cutting out the image of the i=1, n=2 product map.

    x indexes the basis (su^2, suv, sv^2, tu^2, tuv, tv^2).
    """
    x0, x1, x2, x3, x4, x5 = (fld.normalize(c) for c in x)
    mul, add = fld.mul, fld.add
    def m(*fs):
        acc = fld.one()
        for e in fs:
            acc = mul(acc, e)
        return acc
    val = fld.zero()
    val = add(val, m(x2, x2, x3, x3))
    val = fld.sub(val, m(x1, x2, x3, x4))
    val = add(val, m(x0, x2, x4, x4))
    val = add(val, m(x1, x1, x3, x5))
    val = fld.sub(val, fld.mul(fld.normalize(2), m(x0, x2, x3, x5)))
    val = fld.sub(val, m(x0, x1, x4, x5))
    val = add(val, m(x0, x0, x5, x5))
    return val


def square_strand_singular(sys):
    """The 6x6 coefficient matrix at bidegree (3,8) for d=(1,5), and whether
    it is singular (rank below 6); callers only ever need that bit, so no
    determinant is formed.

    Rows interleave the split forms (p0,q0,p1,q1,p2,q2); columns list the
    u-exponent descending, the strand order, so the matrix is cross-checked
    against phi1 at (3,8) as it stands.
    Accepts a plain triple of (1,5)-forms too (then the phi cross-check is
    skipped: degenerate triples are allowed there).
    """
    polys = sys.polys if isinstance(sys, SystemF) else list(sys)
    fld = polys[0].field
    if any(tuple(f.degree) != (1, 5) for f in polys) or len(polys) != 3:
        raise ValueError("square strand needs d == (1,5)")
    m = ExactMatrix.from_rows(fld, [g.coeff_vector()
                                    for pq in zip(*theta_matrix(polys)) for g in pq])
    if isinstance(sys, SystemF):
        phi1 = phi_matrices(sys, (3, 8))[0]
        if phi1.rows != 6 or phi1.cols != 6:
            raise AssertionError("phi1 at (3,8) is not 6x6")
        if phi1 != m:
            raise AssertionError("coefficient layout disagrees with phi1 at (3,8)")
    return m, mat_rank(m) < 6


def extract_factorization(sys):
    """FactorizedBasis when every f_i = g_i h_i with g_i of degree (1,0).

    f_i = s p_i + t q_i factors that way iff (p_i, q_i) are proportional;
    returns None as soon as one split pair is not.
    """
    if sys.d[0] != 1:
        return None
    fld = sys.field
    s, t = BiPoly.variable(fld, "s"), BiPoly.variable(fld, "t")
    pairs = []
    for p, q in zip(*theta_matrix(sys.polys)):
        if p.is_zero() and q.is_zero():
            return None
        if p.is_zero():
            pairs.append((t, q))
            continue
        if q.is_zero():
            pairs.append((s, p))
            continue
        e0, cp = next(iter(p.coeffs.items()))
        lam = fld.div(q.coeffs.get(e0, fld.zero()), cp)
        if (q - p * lam).is_zero():
            pairs.append((s + t * lam, p))
        else:
            return None
    return FactorizedBasis(pairs, i0=0)


# ------------------------------------------------------------- classification

@dataclass
class SegreClassification:
    verdict: str
    evidence: dict = dc_field(default_factory=dict)

    def to_json(self):
        ev = {k: (str(v) if not isinstance(v, (int, str, list)) else v)
              for k, v in self.evidence.items()}
        return json.dumps({"verdict": self.verdict, "evidence": ev}, sort_keys=True)


def classify(sys, fb=None):
    """Coarse structure verdict; factorization data sharpens it when given."""
    if sys.d[0] == 1:
        nf = detect_conic(sys)
        if nf is not None:
            return SegreClassification(
                "SmoothConic", {"syzygy_degree": [3, sys.d[1]]})
    if fb is not None:
        hs = [h for _, h in fb.pairs]
        if mat_rank(ExactMatrix.from_rows(fb.field, [h.coeff_vector() for h in hs])) < 3:
            return SegreClassification("PencilFactorized", {"i0": fb.i0})
        if fb.i0 == 0:
            mu = hb_kernel(hs).column_degrees[0]
            return SegreClassification("ThreeNoncollinearPoints", {"mu": mu})
        return SegreClassification("GenericLike", {"i0": fb.i0})
    return SegreClassification("GenericLike", {})
