"""Per-bidegree linear algebra attached to a three-form system.

The middle Koszul homology strand (H1)_a is computed in the inverse-monomial
model: a kernel of delta_a = diag(phi1, phi2) where each phi maps a mixed
polynomial/inverse-power space to three stacked copies of a smaller one.
Inverse powers 1/(u^(i+1) v^(j+1)) multiply by contraction, truncating to
zero whenever an exponent would leave the allowed range; these blocks and
the polynomial ones come from the one term kernel of bipoly, and every
strand matrix (phi maps, Koszul maps, the generator strand) is assembled by
exactcore.mat_from_blocks.

Everything here is a pure function of (system, bidegree).  One per-system
store owns every elimination: the generator strand [f0 f1 f2], the phi pair
and the higher Koszul maps at a degree are each built and eliminated once per
system, and hf_quotient, h1_dim, koszul_strand_homology, is_generic and the
Betti strand providers in betti all read the same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np

from .exactcore import ExactMatrix, free_columns, kernel_data, mat_from_blocks, mat_rank, rref
from .bipoly import StrandMap, _product, mul_matrix, strand_dim
from .combinat import chi, nd


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

    def describe(self):
        if self.dim == 0:
            return "0"
        if self.flipped:
            return f"inv-st order {self.st_deg} x uv-deg {self.uv_order}"
        return f"st-deg {self.st_deg} x inv-uv order {self.uv_order}"


def _inverse_block(f, src: InverseStrandBasis):
    """Multiplication by f on the inverse-strand space src: the polynomial
    factor (s,t unless src is flipped) gains the exponents of a term, the
    inverse factor is contracted by them."""
    sign = (-1, 1) if src.flipped else (1, -1)
    return ExactMatrix(f.field, _product(f, (src.st_deg, src.uv_order), sign))


def _phi_sources(d, a):
    """Source bases of phi1 and phi2 at bidegree a."""
    d1, d2 = d
    a1, a2 = a
    return (InverseStrandBasis(a1 - 3 * d1, 3 * d2 - a2 - 2),
            InverseStrandBasis(3 * d1 - a1 - 2, a2 - 3 * d2, flipped=True))


def phi_matrices(sys, a):
    """(phi1, phi2) at bidegree a: three stacked multiplication blocks each.

    phi1 acts on st-polynomials of degree a1-3d1 tensored with inverse uv
    powers of order 3d2-a2-2; phi2 mirrors the two factors.  Empty strands
    give 0xk matrices, which count as full rank.
    """
    d1, d2 = sys.d
    a1, a2 = a
    src1, src2 = _phi_sources(sys.d, a)
    tgt1 = InverseStrandBasis(a1 - 2 * d1, 2 * d2 - a2 - 2)
    tgt2 = InverseStrandBasis(2 * d1 - a1 - 2, a2 - 2 * d2, flipped=True)
    phis = []
    for src, tgt in ((src1, tgt1), (src2, tgt2)):
        blocks = {(k, 0): _inverse_block(f, src).data for k, f in enumerate(sys.polys)}
        phis.append(StrandMap(mat_from_blocks(sys.field, [tgt.dim] * 3, [src.dim], blocks),
                              src.describe(), "3 x (" + tgt.describe() + ")"))
    return tuple(phis)


# ------------------------------------------------------------- strand store

_store = WeakKeyDictionary()


def _per_system(build):
    """Memoize build(sys, a) in the store of sys: one record per degree.

    Records must hold no reference to sys; the weak key alone then decides
    when a system and its records are freed.
    """
    def record(sys, a):
        a = tuple(a)
        recs = _store.setdefault(sys, {})
        key = (build.__name__, a)
        if key not in recs:
            recs[key] = build(sys, a)
        return recs[key]
    return record


@_per_system
def _quotient_echelon(sys, b):
    """(free, free_pos, piv_pos, neg_tail) of the quotient strand (R/I)_b.

    The transpose of [f0 f1 f2] into R_b is echelonized: a pivot monomial
    equals its row of neg_tail (one column per free monomial) over the free
    (quotient basis) monomials, so multiplication by a variable is a row
    lookup, not a solve.  free_pos and piv_pos map a monomial index to its
    position among free or pivot monomials, -1 elsewhere.
    """
    fld = sys.field
    n = strand_dim(b)
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.full(1, -1), np.full(1, -1), None
    src = (b[0] - sys.d[0], b[1] - sys.d[1])
    echelon, piv = fld.zeros((0, n)), ()
    if strand_dim(src):
        # the transpose of [f0 f1 f2], a block row per form; each block is
        # written as soon as it is built, and the whole strand, unnamed, is
        # freed as soon as it is eliminated
        R, piv = rref(mat_from_blocks(fld, [strand_dim(src)] * 3, [n],
                                      (((k, 0), mul_matrix(f, src).matrix.data.T)
                                       for k, f in enumerate(sys.polys))))
        echelon = R.data
    free = free_columns(n, piv)
    free_pos = np.full(n, -1, dtype=np.int64)
    piv_pos = np.full(n, -1, dtype=np.int64)
    free_pos[free] = np.arange(len(free))
    piv_pos[list(piv)] = np.arange(len(piv))
    neg_tail = fld.reduce(-echelon[:len(piv), free])
    return free, free_pos, piv_pos, ExactMatrix(fld, neg_tail)


@dataclass(frozen=True)
class _PhiKernel:
    """One phi map at one degree: its source basis, the kernel_data of its
    matrix (kernel basis columns and free columns) and its row count."""

    src: InverseStrandBasis
    kernel: ExactMatrix
    free: tuple
    rows: int

    @property
    def nullity(self):
        return self.kernel.cols

    @property
    def full_rank(self):
        cols = self.src.dim
        return cols - self.nullity == min(self.rows, cols)


@_per_system
def _phi_kernels(sys, a):
    """(_PhiKernel of phi1, _PhiKernel of phi2) at a."""
    return tuple(_PhiKernel(src, *kernel_data(phi.matrix), phi.rows)
                 for src, phi in zip(_phi_sources(sys.d, a), phi_matrices(sys, a)))


# (row block, column block, form, sign) of the blocks of delta2 and delta3
_DELTA2 = ((0, 0, 1, 1), (0, 1, 2, 1), (1, 0, 0, -1), (1, 2, 2, 1),
           (2, 1, 0, -1), (2, 2, 1, -1))
_DELTA3 = ((0, 0, 2, -1), (1, 0, 1, 1), (2, 0, 0, -1))


def _koszul_strands(sys, a):
    """Strand matrices (delta2, delta3) of the length-3 Koszul complex.

    Exterior basis order e01, e02, e12 in the middle; signs follow
    delta1 = [f0 f1 f2], delta2 = [[f1, f2, 0], [-f0, 0, f2], [0, -f0, -f1]],
    delta3 = (-f2, f1, -f0).  delta1 is the generator strand that
    _quotient_echelon eliminates, so it is not built here.
    """
    fld = sys.field
    d1, d2 = sys.d
    out = []
    for k, table, shape in ((2, _DELTA2, (3, 3)), (3, _DELTA3, (3, 1))):
        src = (a[0] - k * d1, a[1] - k * d2)
        nt, ns = strand_dim((src[0] + d1, src[1] + d2)), strand_dim(src)
        blocks = {}
        if ns:
            mul = [mul_matrix(f, src).matrix.data for f in sys.polys]
            blocks = {(i, j): mul[form] if sign > 0 else fld.reduce(-mul[form])
                      for i, j, form, sign in table}
        out.append(mat_from_blocks(fld, [nt] * shape[0], [ns] * shape[1], blocks))
    return tuple(out)


@_per_system
def _koszul_ranks(sys, a):
    """(rank delta2, rank delta3) at a."""
    return tuple(mat_rank(m) for m in _koszul_strands(sys, a))


def h1_dim(sys, a):
    """dim of the middle Koszul homology strand: ker(phi1) + ker(phi2)."""
    return sum(k.nullity for k in _phi_kernels(sys, a))


def hf_quotient(sys, a):
    """Hilbert function of R/I at a: dim R_a minus rank of [f0 f1 f2]."""
    return len(_quotient_echelon(sys, a)[0])


def koszul_strand_homology(sys, a, i):
    """dim H_i of the degree-a strand of the Koszul complex, i in 0..3."""
    if i not in (0, 1, 2, 3):
        raise ValueError("homological index must be 0..3")
    d1, d2 = sys.d
    a1, a2 = a
    dims = (strand_dim(a), 3 * strand_dim((a1 - d1, a2 - d2)),
            3 * strand_dim((a1 - 2 * d1, a2 - 2 * d2)),
            strand_dim((a1 - 3 * d1, a2 - 3 * d2)))
    rk = (0, dims[0] - hf_quotient(sys, a)) + _koszul_ranks(sys, a) + (0,)
    return dims[i] - rk[i] - rk[i + 1]


@dataclass(frozen=True)
class GenericityVerdict:
    generic: bool
    box: tuple
    witness: tuple | None

    def __str__(self):
        if self.generic:
            return f"GenericOnBox{self.box}"
        return f"NotGeneric(witness {self.witness})"


def critical_ranges(d, box):
    """Bidegrees <= box where full rank of phi1/phi2 is not automatic."""
    d1, d2 = d
    out = []
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            if (a1 >= 3 * d1 and d2 <= a2 <= 2 * d2 - 2) or \
               (a2 >= 3 * d2 and d1 <= a1 <= 2 * d1 - 2):
                out.append((a1, a2))
    return out


def check_box(d, box):
    """Reject a genericity box smaller than (3d1+1, 3d2+1): a smaller one
    cannot cover the critical ranges."""
    d1, d2 = d
    if box[0] < 3 * d1 + 1 or box[1] < 3 * d2 + 1:
        raise ValueError(f"box too small: need at least ({3 * d1 + 1},{3 * d2 + 1})")


def is_generic(sys, box=None):
    """Full-rank sweep of phi1, phi2 over [0, box]; verdict is box-relative.

    The default box (4d1, 4d2) covers the critical ranges; check_box rejects
    any box that cannot.
    """
    d1, d2 = sys.d
    if box is None:
        box = (4 * d1, 4 * d2)
    check_box(sys.d, box)
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            if not all(k.full_rank for k in _phi_kernels(sys, (a1, a2))):
                return GenericityVerdict(False, tuple(box), (a1, a2))
    return GenericityVerdict(True, tuple(box), None)


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
