"""Per-bidegree linear algebra attached to a three-form system.

The middle Koszul homology strand (H1)_a is computed in the inverse-monomial
model: a kernel of delta_a = diag(phi1, phi2) where each phi maps a mixed
polynomial/inverse-power space to three stacked copies of a smaller one.
Inverse powers 1/(u^(i+1) v^(j+1)) multiply by contraction, truncating to
zero whenever an exponent would leave the allowed range; these blocks and
the polynomial ones come from the one term kernel of bipoly, and every
strand matrix is assembled by exactcore.mat_from_blocks.

Every Koszul strand comes from one builder, _koszul_differential: the
complex on the net f0, f1, f2 acting on R (its d_1 is the generator strand
[f0 f1 f2]), and the complex on the variables s, t, u, v acting on R/I or
on H1 (the Betti strand providers in betti).

Everything here is a pure function of (system, bidegree).  One per-system
store owns every elimination: the generator strand, the phi pair and the
higher Koszul maps at a degree are each built and eliminated once per
system, and hf_quotient, h1_dim, koszul_strand_homology, is_generic and the
Betti strand providers all read the same records.  The generator strand and
the phi pair keep one kind of record, kernel_data: for the generator strand
it is the kernel of its transpose, the inverse system of I at that degree,
whose free monomials span R/I there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from weakref import WeakKeyDictionary

from .exactcore import ExactMatrix, kernel_data, mat_from_blocks, mat_rank
from .bipoly import _product, mul_matrix, strand_dim


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
    return tuple(mat_from_blocks(sys.field, [tgt.dim] * 3, [src.dim],
                                 {(k, 0): _inverse_block(f, src).data
                                  for k, f in enumerate(sys.polys)})
                 for src, tgt in ((src1, tgt1), (src2, tgt2)))


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
    matrices action(l, b): M_b -> M_(b + degs[l]).

    d(e_S m) = sum_k (-1)^k e_(S minus S_k) x_(S_k) m, over the spots of
    _koszul_spots.  Each spot's dim is read once; blocks between empty spots
    are skipped; each action is built once and dropped as soon as its blocks
    are written.
    """
    rows, cols = _koszul_spots(degs, a, j - 1), _koszul_spots(degs, a, j)
    row_dims, col_dims = [dim(b) for _, b in rows], [dim(b) for _, b in cols]
    row_of = {S: r for r, (S, _) in enumerate(rows)}
    uses = {}    # (l, b) -> [(row spot, column spot, sign is odd)]
    for c, (S, b) in enumerate(cols):
        for k, l in enumerate(S):
            r = row_of[S[:k] + S[k + 1:]]
            if col_dims[c] and row_dims[r]:
                uses.setdefault((l, b), []).append((r, c, k % 2))

    def blocks():
        for (l, b), places in uses.items():
            blk = action(l, b).data
            for r, c, odd in places:
                yield (r, c), field.reduce(-blk) if odd else blk
    return mat_from_blocks(field, row_dims, col_dims, blocks())


def _ring_differential(sys, a, j):
    """d_j of the Koszul complex on f0, f1, f2 acting on R, at degree a."""
    return _koszul_differential(sys.field, (sys.d,) * 3, a, j, strand_dim,
                                lambda l, b: mul_matrix(sys.polys[l], b))


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
def _quotient_kernel(sys, b):
    """kernel_data of d_1^T at b, with d_1 = [f0 f1 f2] into R_b: the one
    place the inverse system V_b = (I_b)^perp is computed.

    Its free columns are the quotient basis monomials of (R/I)_b, and row m
    of its kernel matrix holds the R/I coordinates of monomial m.
    """
    # the transpose is a view, not a copy, and the whole strand, unnamed,
    # is freed as soon as it is eliminated
    return kernel_data(ExactMatrix(sys.field, _ring_differential(sys, b, 1).data.T))


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
    return tuple(_PhiKernel(src, *kernel_data(phi), phi.rows)
                 for src, phi in zip(_phi_sources(sys.d, a), phi_matrices(sys, a)))


@_per_system
def _koszul_ranks(sys, a):
    """(rank d_2, rank d_3) at a."""
    return tuple(mat_rank(_ring_differential(sys, a, j)) for j in (2, 3))


def h1_dim(sys, a):
    """dim of the middle Koszul homology strand: ker(phi1) + ker(phi2)."""
    return sum(k.nullity for k in _phi_kernels(sys, a))


def hf_quotient(sys, a):
    """Hilbert function of R/I at a: dim R_a minus rank of [f0 f1 f2]."""
    return len(_quotient_kernel(sys, a)[1])


def koszul_strand_homology(sys, a, i):
    """dim H_i of the degree-a strand of the Koszul complex, i in 0..3."""
    if i not in (0, 1, 2, 3):
        raise ValueError("homological index must be 0..3")
    dim = sum(strand_dim(b) for _, b in _koszul_spots((sys.d,) * 3, a, i))
    rk = (0, strand_dim(a) - hf_quotient(sys, a)) + _koszul_ranks(sys, a) + (0,)
    return dim - rk[i] - rk[i + 1]


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
