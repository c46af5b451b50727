"""Per-bidegree linear algebra attached to a three-form system.

The middle Koszul homology strand (H1)_a is computed in the inverse-monomial
model: a kernel of delta_a = diag(phi1, phi2) where each phi maps a mixed
polynomial/inverse-power space to three stacked copies of a smaller one.
Inverse powers 1/(u^(i+1) v^(j+1)) multiply by contraction, truncating to
zero whenever an exponent would leave the allowed range; these blocks and
the polynomial ones come from the one term kernel of bipoly, and every
strand matrix is assembled by exactcore.mat_from_blocks.

Every Koszul strand comes from one builder, _koszul_differential, and
every Koszul homology from one loop over it, _koszul_homology: the complex
on the net f0, f1, f2 acting on R (its d_1 is the generator strand [f0 f1
f2]), and the complex on the variables s, t, u, v acting on R/I or on H1,
whose actions are the records _quotient_action and _h1_action.

Everything here is a pure function of (system, bidegree).  One per-system
store owns every elimination and every module action: the quotient record,
the phi pair, the ring homology, the R/I and H1 actions of each variable
and, over Q, the hf certificate at a degree are each computed once per
system, and hf_quotient, h1_dim, koszul_strand_homology, is_generic and
the Koszul complexes on R/I and H1 in betti all read the same records.
Some records depend on no degree: the basepoint test _free, which
segre.basepoint_free (and so the lab draws), is_generic and the warning
of betti.betti_table all read, and, for a system over Q, its image
_image, the reduction mod the first prime of exactcore.lift_primes that
divides no denominator and keeps the three forms independent;
_image_free is _free of that image.  _free is whether hf_quotient is 0 at
(3d1 - 1, 2d2 - 1), where the generator strand is square, so it reads the
quotient record and eliminates nothing of its own.  Over Q, _free,
is_generic, h1_dim and hf_quotient return the value of the image
wherever a proof makes it the value over Q (the proofs are in their
docstrings and in those of _image_free, _h1_certified and _hf_certified),
and compute over Q wherever none does, degree by degree; betti.betti_table
reads Tor the same way.  A system over GF(p) never asks for an image.
The quotient and the phi pair keep one kind of record, the (kernel,
free columns) pair of kernel_data: for the quotient it is the kernel of
the transposed generator strand d_1^T, the inverse system V_b = (I_b)^perp
of I at that degree, whose free monomials span R/I there; for phi1 and
phi2 it is their kernels, whose dims sum to h1 and whose free columns are
the H1 coordinates.  The generator strand [f0 f1 f2] is eliminated here
only by _inverse_system, as the quotient record on the edge below.

Off one edge that record is not eliminated from d_1^T, a matrix of 3 dim
R_(b-d) x dim R_b.  _quotient_kernel builds V_b from V_(b-e) and
V_(b-2e), with e the unit vector of the axis i of the smaller degree d_i,
by the integration method for dual bases (Mourrain, "Isolated points,
duality and residues", JPAA 1997; Marinari, Moeller and Mora, "Groebner
bases of ideals defined by functionals", 1993): a functional lies in V_b
when its contractions by the two variables of degree e lie in V_(b-e) and
agree on R_(b-2e).  Each step eliminates the part of an hf(b-2e) x 2
hf(b-e) matrix that the free monomials of V_(b-e) leave open, often none
of it, and, to put V_b in the form of kernel_data, one hf(b) x dim R_b
matrix.
On the edge b_i = d_i, d_1^T has only 3 (b_j - d_j + 1) rows, and [f0 f1
f2] is eliminated there directly, unless the record one step down the edge
is stored already; then the step runs along the edge (see _step).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import lcm
from weakref import WeakKeyDictionary

import numpy as np

from .exactcore import (GF, ExactMatrix, _free_columns, kernel_data, lift_primes,
                        mat_from_blocks, mat_mul, rref)
from .bipoly import BiPoly, SystemF, _product, _term_rows, mul_matrix, strand_dim


@dataclass(frozen=True)
class InverseStrandBasis:
    """Basis s^c t^(st_deg-c) x 1/(u^(i+1) v^(j+1)), c and i descending.

    st_deg is the polynomial degree of the s,t part, uv_order = i + j the
    order of the inverse u,v part.  Negative parameters mean the space is 0.
    Mirror spaces (inverse s,t part, polynomial u,v part) reuse this record
    with flipped = True; the index arithmetic is symmetric.
    """

    st_deg: int
    uv_order: int
    flipped: bool = False

    @property
    def dim(self):
        return strand_dim((self.st_deg, self.uv_order))


def _inverse_products(forms, src: InverseStrandBasis):
    """Multiplication by each of the forms, all of one bidegree, on the
    inverse-strand space src, as one (len(forms), h, src.dim) array: the
    polynomial factor (s,t unless src is flipped) gains the exponents of a
    term, the inverse factor is contracted by them."""
    sign = (-1, 1) if src.flipped else (1, -1)
    return _product(forms, (src.st_deg, src.uv_order), sign)


def _inverse_block(f, src: InverseStrandBasis):
    """Multiplication by the one form f on the inverse-strand space src."""
    return ExactMatrix(f.field, _inverse_products((f,), src)[0])


def _phi_spaces(d, a):
    """(source, target) bases of phi1 and of phi2 at bidegree a; each phi
    maps its source to three stacked copies of its target."""
    d1, d2 = d
    a1, a2 = a
    return ((InverseStrandBasis(a1 - 3 * d1, 3 * d2 - a2 - 2),
             InverseStrandBasis(a1 - 2 * d1, 2 * d2 - a2 - 2)),
            (InverseStrandBasis(3 * d1 - a1 - 2, a2 - 3 * d2, flipped=True),
             InverseStrandBasis(2 * d1 - a1 - 2, a2 - 2 * d2, flipped=True)))


def phi_matrices(sys, a):
    """(phi1, phi2) at bidegree a: three stacked multiplication blocks each.

    phi1 acts on st-polynomials of degree a1-3d1 tensored with inverse uv
    powers of order 3d2-a2-2; phi2 mirrors the two factors.  Empty strands
    give 0xk matrices, which count as full rank.  The three blocks of a
    phi are placed at once, and an empty phi builds none.
    """
    out = []
    for src, tgt in _phi_spaces(sys.d, a):
        blocks = _inverse_products(sys.polys, src) if src.dim and tgt.dim else ()
        out.append(mat_from_blocks(sys.field, [tgt.dim] * 3, [src.dim],
                                   {(k, 0): blk for k, blk in enumerate(blocks)}))
    return tuple(out)


def _full_rank_h1(d, a):
    """h1 at a when phi1 and phi2 both have full rank: each kernel then has
    dim cols - min(rows, cols)."""
    return sum(max(src.dim - 3 * tgt.dim, 0) for src, tgt in _phi_spaces(d, a))


# ------------------------------------------------------------ Koszul strands

def _koszul_spots(degs, a, j):
    """The spots of homological index j in the degree-a strand of the
    Koszul complex on forms of bidegrees degs: (S, a - deg S) for the
    j-subsets S of their indices, in combinations order."""
    spots = []
    for S in combinations(range(len(degs)), j):
        b0, b1 = a
        for l in S:
            b0, b1 = b0 - degs[l][0], b1 - degs[l][1]
        spots.append((S, (b0, b1)))
    return spots


def _koszul_differential(field, degs, a, j, dim, action):
    """Degree-a strand of d_j in the Koszul complex on forms x_l of
    bidegrees degs, acting on a module M with strand dims dim(b) and action
    matrices action(b, l): M_b -> M_(b + degs[l]).

    d(e_S m) = sum_k (-1)^k e_(S minus S_k) x_(S_k) m, over the spots of
    _koszul_spots.  Blocks between empty spots are skipped, and each action
    is asked for once per call, since several blocks share it.
    """
    rows, cols = _koszul_spots(degs, a, j - 1), _koszul_spots(degs, a, j)
    row_dims, col_dims = [dim(b) for _, b in rows], [dim(b) for _, b in cols]
    row_of = {S: r for r, (S, _) in enumerate(rows)}
    acts, blocks = {}, {}
    for c, (S, b) in enumerate(cols):
        for k, l in enumerate(S):
            r = row_of[S[:k] + S[k + 1:]]
            if col_dims[c] and row_dims[r]:
                if (b, l) not in acts:
                    acts[b, l] = action(b, l).data
                blk = acts[b, l]
                blocks[r, c] = field.reduce(-blk) if k % 2 else blk
    return mat_from_blocks(field, row_dims, col_dims, blocks)


def _koszul_homology(field, degs, a, dim, action, known=()):
    """Homology dims (H_0..H_n), n = len(degs), at degree a of the Koszul
    complex of _koszul_differential on a module: the one loop over the
    complex on f0, f1, f2 acting on R (n = 3) and on the variables acting
    on R/I or H1 (n = 4).  Each spot degree's dim is read once, in
    ascending order of the degree, so a module whose records are built by
    recursion on the degree (R/I, see _quotient_kernel) fills them from
    the bottom up.  Nothing proved zero is built, and no rank is taken on
    more rows than it needs:
    - (K) known gives H_0..H_(k-1) where a proof gives them; then rank
      d_(j+1) = dims_j - rank d_j - H_j for j < k, and d_1..d_k are not built;
    - (D) a differential whose source or target is empty is the zero map,
      of rank 0, so it is not built; (A) hence, if every spot dim is 0,
      nothing is built and the homology is 0, for any module;
    - (E) rank d_(j+1) is the rank of its rows at the free columns F of
      d_j, when d_j was eliminated.  The columns of d_(j+1) lie in ker d_j,
      and a vector of ker d_j is fixed by its entries at F (kernel_data's
      identity pattern), so restricting to the rows F is injective on the
      column space of d_(j+1).  It keeps every linear relation among the
      columns, hence the rank and the free columns of d_(j+1), which carry
      on to d_(j+2).  With F empty, ker d_j = 0, so d_(j+1) = 0 and is not
      built.  The first differential eliminated, d_(k+1), keeps all its
      rows, so (E) restricts rows from d_(k+2) on.
    """
    n = len(degs)
    spots = [_koszul_spots(degs, a, j) for j in range(n + 1)]
    dim_at = {b: dim(b) for b in sorted({b for group in spots for _, b in group})}
    dims = [sum(dim_at[b] for _, b in group) for group in spots]
    ranks = [0] * (n + 2)
    for j, h in enumerate(known):
        ranks[j + 1] = dims[j] - ranks[j] - h
    rows = None  # the rows of d_j that (E) keeps, the free columns of d_(j-1); None: all
    for j in range(len(known) + 1, n + 1):
        piv = ()
        if dims[j] and (dims[j - 1] if rows is None else len(rows)):
            m = _koszul_differential(field, degs, a, j, dim_at.__getitem__, action).data
            piv = rref(ExactMatrix(field, m if rows is None else m[rows]))[1]
        ranks[j] = len(piv)
        rows = _free_columns(dims[j], piv) if piv else None
    return tuple(dims[j] - ranks[j] - ranks[j + 1] for j in range(n + 1))


def _ring_action(sys, b, l):
    """Multiplication by f_l: R_b -> R_(b + d), the action of the net on R."""
    return mul_matrix(sys.polys[l], b)


def _ring_differential(sys, a, j):
    """d_j of the Koszul complex on f0, f1, f2 acting on R, at degree a."""
    return _koszul_differential(sys.field, (sys.d,) * 3, a, j, strand_dim,
                                partial(_ring_action, sys))


# ------------------------------------------------------------- strand store

_store = WeakKeyDictionary()


def _per_system(build):
    """Memoize build(sys, a, *rest) in the store of sys: one record per
    degree a and further arguments rest.

    Records are keyed by the builder's name, so every builder lives in this
    module.  Records must hold no reference to sys; the weak key alone then
    decides when a system and its records are freed.
    """
    def record(sys, a, *rest):
        a = tuple(a)
        recs = _store.setdefault(sys, {})
        key = (build.__name__, a, *rest)
        if key not in recs:
            recs[key] = build(sys, a, *rest)
        return recs[key]
    return record


def _per_system_once(build):
    """Memoize build(sys) in the store of sys: one record per system, under
    the rules of _per_system."""
    def record(sys):
        recs = _store.setdefault(sys, {})
        if (build.__name__,) not in recs:
            recs[(build.__name__,)] = build(sys)
        return recs[(build.__name__,)]
    return record


@_per_system_once
def _free(sys):
    """Whether the net has no basepoint over the algebraic closure: the one
    exact basepoint test, for every d.  It is whether the generator strand
    d_1 = [f0 f1 f2]: R_(m-d)^3 -> R_m at m = (3d1 - 1, 2d2 - 1) has full
    rank.  That strand is square: dim R_m = 3d1 2d2 = 3 (2d1 d2) = 3 dim
    R_(m-d).  Its determinant is the resultant of the net, a formula of
    Sylvester type (Sturmfels and Zelevinsky, "Multigraded resultants of
    Sylvester type", J. Algebra 1994; Dickenstein and Emiris,
    "Multihomogeneous resultant formulae by means of complexes", JSC 2003).

    Rank does not change under field extension, so both directions may be
    argued over the algebraic closure K.
    * A basepoint P makes the strand singular.  Every sum g0 f0 + g1 f1 +
      g2 f2 vanishes at P, while some monomial of R_m does not, so the
      strand is not onto.
    * Without a basepoint it is onto.  The forms have no common zero on
      X = P1 x P1, so the Koszul complex of sheaves on them is exact, and
      so is its twist by O(m):
        0 -> O(m-3d) -> O(m-2d)^3 -> O(m-d)^3 -> O(m) -> 0.
      Let K be the kernel of O(m-d)^3 -> O(m).  H^0(O(m-d)^3) -> H^0(O(m))
      is onto when H^1(K) = 0, and H^1(K) lies between H^1(O(m-2d))^3 and
      H^2(O(m-3d)).  By Kuenneth both vanish, since O(-1) on P1 has no
      cohomology at all: m - 2d = (d1 - 1, -1) and m - 3d = (-1, -d2 - 1).
      As m - d >= 0, H^0 of O(m-d) and of O(m) are R_(m-d) and R_m.
    The strand is square, so it has full rank iff it is onto, iff R/I is 0
    at m: the test is hf_quotient(sys, m) == 0, read off the quotient
    record, and the strand is not eliminated a second time.

    Over Q, hf_quotient returns the image's value wherever _hf_certified
    holds, and m lies outside both critical strips, so a Free image answers
    True with no elimination over Q.  The record holds only a bool, never
    sys.
    """
    return hf_quotient(sys, (3 * sys.d[0] - 1, 2 * sys.d[1] - 1)) == 0


def _quotient_kernel(sys, b):
    """kernel_data of d_1^T at b, with d_1 = [f0 f1 f2] into R_b: the one
    place the inverse system V_b = (I_b)^perp is computed, mostly by
    recursion on b rather than by eliminating d_1^T.

    Its free columns are the quotient basis monomials of (R/I)_b, and row m
    of its kernel matrix holds the R/I coordinates of monomial m.  That
    record depends on V_b alone (see _inverse_system), so the recursion
    returns exactly what kernel_data(d_1^T) would, whichever route built it
    and in whatever order the degrees were asked for.

    Each step reads the records at b - e and b - 2e (see _step).  The chain
    of steps is walked down to a stored record or a base case and then
    filled from the bottom up, so the call depth does not grow with b;
    every record on it stays in the store of sys.  The chain runs along the
    axis i of the smaller degree d_i down to the edge b_i = d_i, where the
    record is eliminated directly from the thin strand d_1^T, unless the
    record one step down the edge is stored already; so a cold query at b
    costs b_i - d_i steps and one thin elimination, not a walk down to d.
    """
    recs, b = _store.setdefault(sys, {}), tuple(b)
    chain = [(b, _step(sys.d, b, recs))]
    while ("_quotient_kernel", chain[-1][0]) not in recs and (e := chain[-1][1]):
        c = (chain[-1][0][0] - e[0], chain[-1][0][1] - e[1])
        chain.append((c, _step(sys.d, c, recs)))
    for c, e in reversed(chain):
        if ("_quotient_kernel", c) not in recs:
            recs["_quotient_kernel", c] = _inverse_system(sys, c, e)
    return recs["_quotient_kernel", b]


VAR_DEGREES = ((1, 0), (1, 0), (0, 1), (0, 1))
VAR_EXPONENTS = np.eye(4, dtype=np.int64)  # rows s, t, u, v


def _step(d, b, recs):
    """The direction e of the recursion step at b, None at a base case.

    The step runs along the axis i of the smaller degree d_i (i = 0 on a
    tie): e is the unit vector of i while b_i > d_i.  On the edge b_i = d_i
    it is the unit vector of the other axis j when the record at b minus
    that vector is in recs, the store of the system, and b_j > d_j; else b
    is a base case, as is every b with b1 < d1 or b2 < d2.

    Why the edge is a base case.  There d_1^T has 3 dim R_(b-d) = 3 (b_j -
    d_j + 1) rows, so one thin elimination builds the record and needs no
    other record, while a walk along the edge needs every record down to d.
    A full sweep of a box reaches each edge record after the one below it,
    so it keeps walking the edge one cheap step at a time.
    """
    if b[0] < d[0] or b[1] < d[1]:
        return None
    i = 0 if d[0] <= d[1] else 1
    j = 1 - i
    if b[i] > d[i]:
        return (j, i)
    if b[j] > d[j] and ("_quotient_kernel", (b[0] - i, b[1] - j)) in recs:
        return (i, j)
    return None


def _inverse_system(sys, b, e):
    """The record of _quotient_kernel at b, built from those at b - e and
    b - 2e, with e the step of _step at b and (x0, x1) = (s, t) or (u, v).

    * Base cases (e None).  Below d in either coordinate I_b = 0, so V_b =
      R_b^*: the identity record (0 x 0 at a negative b).  On the edge b_i =
      d_i of _step (b = d among them) the record is kernel_data of the
      transposed generator strand, 3 (b_j - d_j + 1) x dim R_b, which is
      the record by its definition: one thin elimination, and no other
      record is read.
    * Step.  I_b = x0 I_(b-e) + x1 I_(b-e), so a functional lambda on R_b
      lies in V_b exactly when mu = x0 o lambda and nu = x1 o lambda (the
      contractions, (x o lambda)(m) = lambda(x m)) both lie in V_(b-e).  By
      exactness of the Koszul complex of k[x0, x1] in positive degree, a
      pair (mu, nu) is of that form, for exactly one lambda, when x1 o mu =
      x0 o nu on R_(b-2e).  Both sides lie in V_(b-2e), so they agree
      exactly when they agree at its free monomials F2.  With mu = K1 alpha
      and nu = K1 beta in the basis K1 of V_(b-e), the pairs are the kernel
      Z of M = [K1[x1 F2] | -K1[x0 F2]], a matrix of hf(b-2e) x 2 hf(b-e).
      K1 is the identity on the free monomials F1 of V_(b-e), so on the rows
      S of M where x1 F2[i] is the free monomial F1[c(i)] the row reads
      alpha_c(i) = (K1[x0 F2[S]] beta)_i; the c(i) are distinct, as the x1
      F2[i] are.  Substituting alpha_C, C = c(S), into the other rows T
      leaves the residual [K1[x1 F2[T]][:, C'] | K1[x1 F2[T]][:, C]
      K1[x0 F2[S]] - K1[x0 F2[T]]], C' the other indices, of |T| x (2 hf(b-e)
      - |S|), whose kernel gives alpha_C' and beta, and alpha_C = K1[x0
      F2[S]] beta completes Z.  A step with T empty eliminates nothing here.
      This basis of ker M differs from kernel_data(M), but any basis will
      do: the normalization below reads only the span V_b of Lambda.
    * Lift.  lambda(x0 m) = mu(m) fills the rows x0 m of Lambda with K1
      alpha; the other monomials of R_b are x1 m with m free of x0 (rest),
      whose rows are nu(m) = K1[m] beta.  K1 is the identity on F1, so the
      rows at x0 F1 and at x1 m for m in F1 and rest are copies of rows of
      alpha and beta, and only the rows of K1 off F1 are multiplied.
    * Normalize.  A monomial c is a free column of d_1^T, that is not a
      combination of the columns before it, exactly when some lambda in V_b
      has its last nonzero entry at c.  Reversing the monomial order turns
      last into first, so the pivots piv of rref(Lambda[::-1]^T) give the
      free set n-1-piv, and the rows of that RREF, reversed both ways, are
      the kernel basis with the identity on the free set: the record
      kernel_data(d_1^T) returns.
    """
    field, d, n = sys.field, sys.d, strand_dim(b)
    if e is None:
        if b[0] < d[0] or b[1] < d[1]:
            return ExactMatrix.identity(field, n), tuple(range(n))
        return kernel_data(ExactMatrix(field, _ring_differential(sys, b, 1).data.T))
    xs = VAR_EXPONENTS[[0, 1] if e == (1, 0) else [2, 3]]  # rows x0, x1
    b_e = (b[0] - e[0], b[1] - e[1])
    b_2e = (b_e[0] - e[0], b_e[1] - e[1])
    K1, F1 = _quotient_kernel(sys, b_e)
    h1 = K1.cols
    if not h1:
        return ExactMatrix.zeros(field, n, 0), ()
    K = K1.data
    col = np.full(K1.rows, -1)  # the F1-index of each monomial of R_(b-e), -1 off F1
    col[list(F1)] = np.arange(h1)
    F2 = np.array(_quotient_kernel(sys, b_2e)[1], dtype=np.int64)
    at0, at1 = _term_rows(xs, F2, b_2e, (1, 1))  # rows of x0 F2, x1 F2
    S = col[at1] >= 0
    C = col[at1[S]]
    unsolved = np.ones(h1, dtype=bool)  # C', the alpha not solved on S
    unsolved[C] = False
    x0S, x1T = ExactMatrix(field, K[at0[S]]), K[at1[~S]]  # K1 at x0 F2[S], x1 F2[T]
    resid = mat_mul(ExactMatrix(field, x1T[:, C]), x0S).data - K[at0[~S]]
    Y = kernel_data(mat_from_blocks(field, [len(x1T)], [h1 - len(C), h1],
                                    {(0, 0): x1T[:, unsolved], (0, 1): field.reduce(resid)}))[0]
    if not Y.cols:
        return ExactMatrix.zeros(field, n, 0), ()
    beta = ExactMatrix(field, Y.data[h1 - len(C):])
    alpha = ExactMatrix.zeros(field, h1, Y.cols)
    alpha.data[unsolved] = Y.data[:h1 - len(C)]
    alpha.data[C] = mat_mul(x0S, beta).data
    rows0, rows1 = _term_rows(xs, np.arange(K1.rows), b_e, (1, 1))
    free, every = col >= 0, np.ones(K1.rows, dtype=bool)
    lam = field.zeros((n, Y.cols))
    for rows, z, of in ((rows0, alpha, every), (rows1, beta, ~np.isin(rows1, rows0))):
        lam[rows[of & free]] = z.data[col[of & free]]
        lam[rows[of & ~free]] = mat_mul(ExactMatrix(field, K[of & ~free]), z).data
    R, piv = rref(ExactMatrix(field, lam[::-1].T))
    return (ExactMatrix(field, np.ascontiguousarray(R.data[len(piv) - 1::-1, ::-1].T)),
            tuple(n - 1 - c for c in reversed(piv)))


@_per_system
def _phi_kernels(sys, a):
    """(kernel_data(phi1), kernel_data(phi2)) at a: for each phi, its kernel
    basis and free columns, the record kind of _quotient_kernel.  The source
    and target of each phi are _phi_spaces(sys.d, a)."""
    return tuple(kernel_data(phi) for phi in phi_matrices(sys, a))


@_per_system
def _ring_homology(sys, a):
    """Homology dims (H_0..H_3) at a of the Koszul complex on f0, f1, f2
    acting on R.  H_0 = R/I is hf_quotient, so d_1 is not built."""
    return _koszul_homology(sys.field, (sys.d,) * 3, a, strand_dim, partial(_ring_action, sys),
                            (hf_quotient(sys, a),))


@_per_system
def _quotient_action(sys, b, xi):
    """Multiplication by variable xi: quotient strand b -> b + deg(xi).

    xi times a quotient basis monomial of b is a monomial of b + deg(xi),
    whose R/I coordinates are its row of the kernel matrix there.
    """
    dx = VAR_DEGREES[xi]
    free_src = np.array(_quotient_kernel(sys, b)[1], dtype=np.int64)
    kern_tgt = _quotient_kernel(sys, (b[0] + dx[0], b[1] + dx[1]))[0]
    tgt = _term_rows(VAR_EXPONENTS[xi:xi + 1], free_src, b, (1, 1))[0]
    return ExactMatrix(sys.field, kern_tgt.data[tgt].T)


@_per_system
def _h1_action(sys, b, xi):
    """Variable action on H1 kernel coordinates, block diagonal over V1/V2:
    H1 strand b -> b + deg(xi)."""
    dx = VAR_DEGREES[xi]
    x = BiPoly.variable(sys.field, "stuv"[xi])
    src, tgt = _phi_kernels(sys, b), _phi_kernels(sys, (b[0] + dx[0], b[1] + dx[1]))
    blocks = {(k, k): mat_mul(_inverse_block(x, space), Ks).data[list(Ft)]
              for k, ((space, _), (Ks, _), (Kt, Ft))
              in enumerate(zip(_phi_spaces(sys.d, b), src, tgt)) if Ks.cols and Kt.cols}
    return mat_from_blocks(sys.field, [K.cols for K, _ in tgt], [K.cols for K, _ in src],
                           blocks)


def h1_dim(sys, a):
    """dim of the middle Koszul homology strand in the phi model: the sum
    of the kernel dims of phi1 and phi2 in the _phi_kernels record.  It is
    H1 on a basepoint-free net (see is_generic); with a basepoint it may
    differ from koszul_strand_homology(sys, a, 1).

    Over Q, where _h1_certified holds, both phi have full rank, and the
    value is the closed form _full_rank_h1, that of the image too.
    """
    if not sys.field.is_prime_field and _h1_certified(sys, a):
        return _full_rank_h1(sys.d, a)
    return sum(K.cols for K, _ in _phi_kernels(sys, a))


def hf_quotient(sys, a):
    """Hilbert function of R/I at a: dim R_a minus rank of [f0 f1 f2].

    Nothing eliminates that matrix: the value is dim V_a, the number of
    free monomials of the record _quotient_kernel builds by recursion.
    Over Q, where _hf_certified holds, it is the value of the image.
    """
    if not sys.field.is_prime_field and _hf_certified(sys, a):
        return hf_quotient(_image(sys), a)
    return len(_quotient_kernel(sys, a)[1])


def koszul_strand_homology(sys, a, i):
    """dim H_i of the degree-a strand of the Koszul complex, i in 0..3."""
    if i not in (0, 1, 2, 3):
        raise ValueError("homological index must be 0..3")
    return _ring_homology(sys, a)[i]


@dataclass(frozen=True)
class GenericityVerdict:
    generic: bool
    box: tuple
    witness: tuple | None

    def __str__(self):
        if self.generic:
            return f"GenericOnBox{self.box}"
        return f"NotGeneric(witness {self.witness})"


def _is_critical(d, a):
    """Whether a lies in a critical strip, where full rank of phi1/phi2 is
    not automatic on a basepoint-free net (see is_generic)."""
    d1, d2 = d
    a1, a2 = a
    return (a1 >= 3 * d1 and d2 <= a2 <= 2 * d2 - 2) or \
        (a2 >= 3 * d2 and d1 <= a1 <= 2 * d1 - 2)


def critical_ranges(d, box):
    """Bidegrees <= box where full rank of phi1/phi2 is not automatic."""
    return [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)
            if _is_critical(d, (a1, a2))]


def check_box(d, box):
    """Reject a genericity box smaller than (3d1+1, 3d2+1): a smaller one
    cannot cover the critical ranges."""
    d1, d2 = d
    if box[0] < 3 * d1 + 1 or box[1] < 3 * d2 + 1:
        raise ValueError(f"box too small: need at least ({3 * d1 + 1},{3 * d2 + 1})")


def is_generic(sys, box=None):
    """Full-rank verdict of phi1, phi2 over [0, box]; it is box-relative.

    The default box (4d1, 4d2) covers the critical ranges; check_box rejects
    any box that cannot.  Degrees are swept a1 outer, a2 inner, and the
    first one where phi1 or phi2 drops rank is the witness.  On a net that
    _free proves basepoint-free, only critical_ranges(d, box) is swept, in
    that same order; a net with a basepoint sweeps the whole box.  Either
    sweep runs only after a degree of _frontier(d, box, free) drops rank:
    full rank at those few degrees is full rank on the whole sweep.

    Why the critical ranges suffice on a basepoint-free net:
    - A phi with an empty source or an empty target has full rank.  phi1
      maps st-degree a1 - 3d1, uv-order 3d2 - a2 - 2 to st-degree a1 - 2d1,
      uv-order 2d2 - a2 - 2, so both are nonempty iff a1 >= 3d1 and
      a2 <= 2d2 - 2.  Outside the critical strip that leaves a1 >= 3d1,
      a2 <= d2 - 1.
    - There every Koszul spot a - deg S with S nonempty has second
      coordinate a2 - |S| d2 < 0, so the degree-a strand of the Koszul
      complex on f0, f1, f2 is R_a alone, and H1_a = 0.
    - On a basepoint-free net, H1_a = ker phi1 (+) ker phi2.  phi1 and phi2
      are the last Koszul map on the local cohomology H^2 of R at <u,v>
      and at <s,t>; the paper (Botbol, Dickenstein and Schenck,
      arXiv:2011.02974) reads H1 off them through the spectral sequence of
      the Koszul complex against the Cech complex of B = <s,t> cap <u,v>,
      where basepoint-freeness makes the Koszul homology B-torsion.  h1_dim
      stands on this model, and tests/test_strands.py checks it against
      the Koszul strands.
    - So ker phi1 = 0 there: phi1 is injective, hence of full rank, and
      phi2 is empty.  The mirror case (a2 >= 3d2, a1 <= d1 - 1) is the same
      with the roles of phi1 and phi2 swapped.
    Every rank drop therefore lies in the critical list, which keeps the
    sweep order, so its first drop is the witness of the whole box.  With
    a basepoint H1 has no such model and drops outside the strips do occur
    (the tests hold a (1,2) net over GF(32003) with witness (3, 0)).

    Why the frontier decides the sweep.  Take strip 1 of the sweep: a1 >=
    3d1 and rows a2 from the first row the sweep visits there (d2 on a
    Free net, 0 otherwise; below it a free net has full rank by the proof
    above) up to min(2d2 - 2, box2).  Outside the two strips phi1 and phi2
    are empty.  Write k = a1 - 3d1; phi2 is empty on the strip.  The mirror
    strip (a2 >= 3d2, phi2) is the same with the axes swapped.
    - Along k.  At a fixed a2, phi1 is the degree-k strand of a map of
      free K[s,t]-modules, the source generated in degree 0 and the target
      in degree d1.  If phi1 x = 0 in degree k - 1, then phi1 (s x) = 0 in
      degree k, and s x != 0.  So injective at k implies injective below
      k.  The target in degree k + 1 is spanned by s and t times the target
      in degree k, so onto at k implies onto above k.
    - Along a2.  At a fixed k, phi1 acts on inverse forms of order m =
      3d2 - a2 - 2 in E = K[u^-1, v^-1], the injective hull of K as a
      K[u,v]-module (Macaulay's inverse system; Bruns and Herzog,
      Cohen-Macaulay Rings, 3.2), and it commutes with contraction by u and
      v.  Raising a2 by one lowers the order on both sides by one, and
      contraction by u maps order m onto order m - 1.  So onto at a2
      implies onto at every larger a2.  A nonzero inverse form keeps a
      nonzero contraction of every lower order, since contraction by a
      monomial sends distinct inverse monomials to distinct ones or to 0,
      and monomials do not cancel.  So injective at a2 implies injective
      at every smaller a2.
    - Shape.  cols / rows = (k+1)(3d2-a2-1) / (3(k+d1+1)(2d2-a2-1)) grows
      in k and in a2.  So the degrees where cols <= rows, where full rank
      means injective, form a down-set of the strip, and the rest, where
      cols > rows and full rank means onto, form an up-set.
    Full rank at the maximal points of the down-set and at the minimal
    points of the up-set (_frontier, at most two degrees per k) therefore
    gives full rank on the whole strip.  A drop there makes the sweep run,
    in the order above, to name the first witness.

    Over Q full rank of the image at its frontier proves sys GenericOnBox.
    The image's phi matrices are those of sys reduced mod p, and a matrix
    over Z_(p) has rank mod p at most its rank over Q, so a phi of full
    rank mod p has full rank over Q.  The image's frontier decides the
    whole box (on an image that _image_free proves Free, by the proofs
    above), so the sweep over Q would find no drop either.  A drop of the
    image proves nothing, and the image is not swept: sys goes through
    _first_drop as any system does, and finds the witness over Q.
    """
    d1, d2 = sys.d
    if box is None:
        box = (4 * d1, 4 * d2)
    check_box(sys.d, box)
    if not sys.field.is_prime_field and (img := _image(sys)) is not None \
            and all(_full_rank(img, a) for a in _frontier(sys.d, box, _image_free(sys))):
        return GenericityVerdict(True, tuple(box), None)
    a = _first_drop(sys, box, _free(sys))
    return GenericityVerdict(a is None, tuple(box), a)


def _full_rank(sys, a):
    """Whether phi1 and phi2 both have full rank at a: whether the sum of
    their nullities is _full_rank_h1.  Each nullity cols - rank is at least
    max(cols - rows, 0), with equality exactly at full rank, and
    _full_rank_h1 is the sum of those two bounds; so the sum of nullities
    reaches it exactly when both phi have full rank."""
    return sum(K.cols for K, _ in _phi_kernels(sys, a)) == _full_rank_h1(sys.d, a)


def _frontier(d, box, free):
    """The degrees of box whose phi ranks decide is_generic, in sweep order:
    in each critical strip, the maximal degrees where its phi has no more
    columns than rows and the minimal ones where it has more (see
    is_generic).  A strip's rows start where the sweep starts them: at d2
    (or d1) on a Free net, at 0 otherwise."""
    out = set()
    for i, j in ((0, 1), (1, 0)):  # phi1 along a1, phi2 along a2
        rows = range(d[j] if free else 0, min(2 * d[j] - 2, box[j]) + 1)
        ks = range(box[i] - 3 * d[i] + 1)

        def at(k, r):
            return (3 * d[0] + k, r) if i == 0 else (r, 3 * d[1] + k)

        def excess(k, r):  # cols - rows of the strip's phi
            src, tgt = _phi_spaces(d, at(k, r))[i]
            return src.dim - 3 * tgt.dim

        # top[k + 1]: the last row of column k where cols <= rows; above it
        # cols > rows.  top[k + 1] is nonincreasing in k.
        top = [rows.stop - 1] + [max((r for r in rows if excess(k, r) <= 0),
                                     default=rows.start - 1) for k in ks] + [rows.start - 1]
        for k in ks:
            if top[k + 1] > top[k + 2]:
                out.add(at(k, top[k + 1]))
            if top[k + 1] < top[k]:
                out.add(at(k, top[k + 1] + 1))
    return sorted(out)


def _first_drop(sys, box, free):
    """The first degree of the is_generic sweep of box where phi1 or phi2
    drops rank, None if there is none; free sweeps only critical_ranges.
    Nothing is swept unless a degree of _frontier drops rank."""
    if all(_full_rank(sys, a) for a in _frontier(sys.d, box, free)):
        return None
    if free:
        degrees = critical_ranges(sys.d, box)
    else:
        degrees = [(a1, a2) for a1 in range(box[0] + 1) for a2 in range(box[1] + 1)]
    return next(a for a in degrees if not _full_rank(sys, a))


# ---------------------------------------------- Q answers from one GF(p) image

@_per_system_once
def _image(sys):
    """The image of a Q system: its reduction mod the first prime p of
    lift_primes that divides no denominator of its coefficients and keeps
    its three forms independent, a SystemF over GF(p); None if there is
    none.  A coefficient n/d becomes n d^-1 mod p.  The image is built from
    the coefficients alone and holds no reference to sys.

    Every strand matrix of the image (phi, the generator strand, the
    module actions) is the matching matrix of sys reduced mod p, because
    the builders only place coefficients.  _free, is_generic,
    h1_dim and hf_quotient here, and betti.betti_table degree by degree,
    read the image's value wherever a proof in their docstrings makes it
    the value over Q (Arnold, "Modular algorithms for computing Groebner
    bases", JSC 2003, for lucky primes), and compute over Q elsewhere.
    Over GF(p) none of them asks for an image.
    """
    den = lcm(*(c.denominator for f in sys.polys for c in f.coeffs.values()))
    for p in lift_primes():
        if den % p == 0:
            continue
        fld = GF(p)
        polys = [BiPoly(fld, sys.d, {e: c.numerator * pow(c.denominator, -1, p) % p
                                     for e, c in f.coeffs.items()})
                 for f in sys.polys]
        try:
            return SystemF(fld, sys.d, polys)
        except ValueError:  # the forms are dependent mod p
            continue
    return None


def _image_free(sys):
    """Whether the Q system sys has an image without basepoints (_free of
    the image).  Then sys has no basepoints either: the image's generator
    strand at (3d1 - 1, 2d2 - 1) is that of sys reduced mod p, and rank
    mod p is at most rank over Q, so the square strand of sys has full rank
    too.  An image with a basepoint proves nothing.
    """
    img = _image(sys)
    return img is not None and _free(img)


def _h1_certified(sys, a):
    """Whether phi1 and phi2 of the Q system sys have full rank at a by a
    proof read off its image, so that h1 over Q is h1 of the image.

    If phi1 and phi2 of the image have full rank at a, then rank mod p <=
    rank over Q <= min(rows, cols) = rank mod p for each, so the nullities
    over Q and mod p agree.  On a Free image (_image_free) every a outside
    the critical strips has full rank by the proof in is_generic, with no
    elimination; only a critical a, or any a on an image that is not Free,
    eliminates the image's phi pair.
    """
    img = _image(sys)
    if img is None:
        return False
    if _image_free(sys) and not _is_critical(sys.d, a):
        return True
    return _full_rank(img, a)


@_per_system
def _hf_certified(sys, a):
    """Whether hf of the Q system sys at a is hf of its image: the image is
    Free and h1 is certified at a.  Then sys is basepoint-free as well (see
    _image_free), and on a basepoint-free net H2 = H3 = 0 in the Koszul
    complex on f0, f1, f2 (I has grade 2), so its Euler characteristic
    gives hf = chi + h1 on both nets.  chi depends on d alone, and h1
    agrees at a, so hf agrees too.  The record holds only a bool, so
    hf_quotient and betti.betti_table, which asks at every spot of each Tor
    strand, decide it once per degree."""
    return _image_free(sys) and _h1_certified(sys, a)
