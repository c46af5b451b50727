"""Exact dense linear algebra over Q and over prime fields GF(p).

A matrix is one numpy array for both fields: int64 residues in [0, p) over
GF(p), Fraction objects (dtype object) over Q.  FieldSpec holds the only
facts that depend on the field (the dtype, the zero array and the reduction
mod p), so products and kernels take one path.
Block matrices, every strand matrix of the package among them, are
assembled only by mat_from_blocks, the one place that computes block
offsets.  Elimination has one kernel, _rref_prime, and its pivoting rule
(first nonzero entry, columns scanned left to right) makes ranks, kernels
and reduced echelon forms bit-reproducible:

* GF(p): _rref_prime eliminates a float64 copy in 32-wide column panels
  with delayed reduction, exact as long as every entry stays below 2^51;
  FieldSpec admits only the p for which one panel of updates does.
  mat_mul is a float64 (BLAS) product of the residues, its inner dimension
  cut into chunks of (2^51 - p) // (p-1)^2 terms so that every partial sum
  stays below 2^51.  Both reduce with the one floor reduction _reduce.
* Q: _rref_rational lifts the RREF from _rref_prime modulo several primes
  and returns it only once an exact integer check proves it.  lift_primes
  is the one order of those primes, which strands._image reads too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import isqrt

import numpy as np

DEFAULT_PRIME = 32003
_PANEL = 32
_ROW_CHUNK = 512  # rows per trailing-update matmul; bounds its temporary
_EXACT = 2 ** 51  # float64 is exact to 2^53; see _rref_prime for the margin


@cache
def _is_prime(n):
    return n > 1 and all(n % i for i in range(2, isqrt(n) + 1))


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: GF(p) for a prime modulus p > 3, Q when p is None.

    Matrices over it are numpy arrays of one dtype: int64 residues in [0, p)
    over GF(p), Fraction objects over Q.  dtype, zeros and reduce are the
    only matrix facts that depend on the field.  Build it with QQ or GF(p).
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if self.p <= 3 or not _is_prime(self.p):
            raise ValueError(f"modulus must be a prime > 3, got {self.p}")
        # keep _rref_prime exact: 128 (p-1)^2 < 2^53 gives it one panel
        # of updates below 2^51 - p (see its docstring)
        if 128 * (self.p - 1) ** 2 >= 2 ** 53:
            raise ValueError(f"modulus too large for exact elimination: {self.p}")

    @property
    def is_prime_field(self):
        return self.p is not None

    @property
    def dtype(self):
        return np.int64 if self.is_prime_field else object

    def zeros(self, shape):
        """Zero array of the field's dtype; over Q every cell is Fraction(0)."""
        if self.is_prime_field:
            return np.zeros(shape, dtype=np.int64)
        return np.full(shape, Fraction(0), dtype=object)

    def reduce(self, x):
        """Canonical form of a scalar or an array: x mod p over GF(p), x over Q."""
        return x % self.p if self.is_prime_field else x

    # scalar arithmetic; prime-field scalars are ints in [0, p), rational
    # scalars are Fractions
    def normalize(self, x):
        return int(x) % self.p if self.is_prime_field else Fraction(x)

    def zero(self):
        return self.normalize(0)

    def one(self):
        return self.normalize(1)

    def add(self, a, b):
        return self.reduce(a + b)

    def sub(self, a, b):
        return self.reduce(a - b)

    def mul(self, a, b):
        return self.reduce(a * b)

    def neg(self, a):
        return self.reduce(-a)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.is_prime_field:
            return pow(int(a), self.p - 2, self.p)
        return 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return self.reduce(a) == 0

    def from_str(self, s):
        s = s.strip()
        return self.normalize(int(s) if self.is_prime_field else Fraction(s))

    def to_str(self, x):
        return str(x)

    def rand(self, rng):
        """Uniform scalar: [0, p) over GF(p), integers in [-100, 100] over Q."""
        if self.is_prime_field:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-100, 100))


QQ = FieldSpec()


def GF(p=DEFAULT_PRIME):
    if p is None:
        raise ValueError("modulus must be a prime > 3, got None")
    return FieldSpec(p)


@dataclass
class ExactMatrix:
    """Dense matrix over a FieldSpec.

    data is a 2-D numpy array of field.dtype: int64 residues over GF(p),
    Fractions (dtype object) over Q; rows and cols read its shape.  get and
    col return Python ints or Fractions.  Empty shapes (0 x n, n x 0) are
    legal throughout.
    """

    field: FieldSpec
    data: np.ndarray

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @staticmethod
    def zeros(field, rows, cols):
        return ExactMatrix(field, field.zeros((rows, cols)))

    @staticmethod
    def identity(field, n):
        m = ExactMatrix.zeros(field, n, n)
        np.fill_diagonal(m.data, field.one())
        return m

    @staticmethod
    def from_rows(field, rows):
        rows = [list(map(field.normalize, r)) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(field, np.array(rows, dtype=field.dtype).reshape(nr, nc))

    def get(self, i, j):
        return self.data.item(i, j)

    def col(self, j):
        return self.data[:, j].tolist()

    def is_zero(self):
        return not self.field.reduce(self.data).any()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.field, self.rows, self.cols) != (other.field, other.rows, other.cols):
            return False
        return not self.field.reduce(self.data - other.data).any()


def mat_mul(a, b):
    """The product a b.  Over GF(p) it is a float64 (BLAS) product of the
    residues in [0, p), exact because its inner dimension is cut into
    chunks of _terms(p) = (2^51 - p) // (p-1)^2 terms: a chunk adds at most
    that many products of at most (p-1)^2 to an accumulator below p, so
    every partial sum is an integer below 2^51, which float64 holds
    exactly, and _reduce brings the accumulator back below p after each
    chunk."""
    if a.field != b.field or a.cols != b.rows:
        raise ValueError("shape/field mismatch")
    f = a.field
    if not f.is_prime_field:
        return ExactMatrix(f, f.zeros((a.rows, b.cols)) + a.data @ b.data)
    p, chunk = f.p, _terms(f.p)
    A, B = a.data.astype(np.float64), b.data.astype(np.float64)
    out = np.zeros((a.rows, b.cols))
    for s in range(0, a.cols, chunk):
        out += A[:, s:s + chunk] @ B[s:s + chunk]
        _reduce(out, p)
    return ExactMatrix(f, out.astype(np.int64))


def mat_from_blocks(field, row_dims, col_dims, blocks):
    """Block matrix whose block rows have heights row_dims and whose block
    columns have widths col_dims; the one place that computes block offsets.

    blocks maps (i, j) to the array of block (i, j); omitted blocks are
    zero.  A block of any shape other than (row_dims[i], col_dims[j])
    raises ValueError, also where numpy would broadcast it.
    """
    r0, c0 = [0, *accumulate(row_dims)], [0, *accumulate(col_dims)]
    out = field.zeros((r0[-1], c0[-1]))
    for (i, j), blk in blocks.items():
        if np.shape(blk) != (row_dims[i], col_dims[j]):
            raise ValueError(f"block ({i},{j}) has shape {np.shape(blk)}, "
                             f"its slot {(row_dims[i], col_dims[j])}")
        out[r0[i]:r0[i + 1], c0[j]:c0[j + 1]] = blk
    return ExactMatrix(field, out)


# ---------------------------------------------------------------- GF(p) RREF

def _reduce(x, p):
    """x mod p in place, for a float64 array of integers 0 <= x < 2^51.

    floor((x + 1/2) / p) is the exact quotient: (x + 1/2) / p lies at least
    1 / (2p) from every integer, and two roundings move it by less than
    x 2^-52 / p < 1 / (2p).  np.remainder is exact too, but its time grows
    with the quotient, so it serves only short vectors.
    """
    if x.size <= 128:
        return np.remainder(x, p, out=x)
    t = x + 0.5
    t *= 1.0 / p
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _terms(p):
    """How many products of residues mod p a reduced accumulator can add
    and stay below 2^51, where _reduce is exact: (2^51 - p) // (p-1)^2."""
    return (_EXACT - p) // (p - 1) ** 2


def _rref_prime(a, p):
    """RREF over GF(p); returns (int64 ndarray, list of pivot columns).

    Delayed reduction on a float64 working copy A.  Every entry of A is a
    nonnegative integer of at most top = 2^51 - p, and it is reduced mod p
    only when it is about to be used:

    * Column panels of width _PANEL are eliminated forward only (rows below
      the pivot) in a column-contiguous copy.  The panel column is reduced
      to find its pivot, and the pivot row entries before they scale a
      rank-one update.  Multipliers are stored negated (p - l), so every
      update adds and nothing goes below zero.
    * The U rows of the panel are the reduced rows times the inverse of the
      panel's unit lower triangle, and one matmul adds (negated L) @ U to
      the trailing block.  That block is reduced only when its running bound
      grow + k (p-1)^2 would pass top.
    * The pivot rows are normalized, and the reduced form comes from blocked
      back-substitution on the free columns only; every matmul's inner
      dimension is chunked to _terms(p) terms and the accumulator is
      reduced after each chunk.

    FieldSpec admits only p with 128 (p-1)^2 < 2^53; for those p, 32 (p-1)^2
    + 2p <= 2^51, so a whole panel of updates stays below top.
    """
    a = np.asarray(a)
    m, n = a.shape
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.int64), []
    if a.min() < 0 or a.max() >= p:
        a = a % p
    A = np.array(a, dtype=np.float64, order="C")
    q = float(p)
    sq = (p - 1) ** 2
    top = _EXACT - p

    pivots = []
    neg_invs = []
    r = 0
    grow = p - 1  # bound on the entries of A[r:, c0:]
    for c0 in range(0, n, _PANEL):
        c1 = min(c0 + _PANEL, n)
        w = c1 - c0
        mm = m - r
        P = np.ascontiguousarray(A[r:, c0:c1].T)
        if grow >= p:
            _reduce(P, p)
        pc = []
        swaps = []
        k = 0
        # P is reduced here, so one any() finds the zero columns, and they
        # are skipped: a zero column stays zero, as swaps permute its
        # entries and each rank-one update adds to it the pivot column times
        # its own entry in the pivot row, which is zero.
        for j in np.flatnonzero(P.any(axis=1)).tolist():
            col = P[j, k:]
            if j:
                _reduce(col, p)
            if col[0]:
                i = k
            else:
                nz = col.nonzero()[0]
                if not nz.size:
                    continue
                i = k + int(nz[0])
                swap = P[:, k].copy()
                P[:, k] = P[:, i]
                P[:, i] = swap
                swaps.append((k, i))
            neg_inv = p - pow(int(P[j, k]), p - 2, p)
            if j + 1 < w:
                prow = _reduce(P[j + 1:, k], p)
                if k + 1 < mm:
                    P[j + 1:, k + 1:] += _reduce(prow * neg_inv, p)[:, None] * P[j, k + 1:]
            pc.append(j)
            pivots.append(c0 + j)
            neg_invs.append(neg_inv)
            k += 1
            if k == mm:
                break
        if not k:
            continue
        # Below its pivot, a pivot column still holds the reduced entries it
        # eliminated; they stay in A under the diagonal of U, where nothing
        # reads them.
        A[r:r + k, :c0] = 0
        A[r:r + k, c0:c1] = P[:, :k].T
        if c1 < n:
            for i0, i1 in swaps:
                A[[r + i0, r + i1], c1:] = A[[r + i1, r + i0], c1:]
            # scaled, those entries are the negated multipliers
            neg_l = _reduce(P[pc].T * np.array(neg_invs[-k:], dtype=np.float64), p)
            # U rows: the inverse of the unit lower triangle times the rows
            Z = _unitri_inverse(neg_l[:k] * _LOWER[:k, :k], p)
            A[r:r + k, c1:] = _reduce(Z @ _reduce(A[r:r + k, c1:], p), p)
            if k < mm:
                if grow + k * sq > top:
                    _reduce(A[r + k:, c1:], p)
                    grow = p - 1
                U12 = A[r:r + k, c1:]
                for s in range(k, mm, _ROW_CHUNK):
                    A[r + s:r + s + _ROW_CHUNK, c1:] += neg_l[s:s + _ROW_CHUNK] @ U12
                grow += k * sq
        r += k
        if r == m:
            break
    if not pivots:
        return np.zeros((m, n), dtype=np.int64), pivots
    piv = np.asarray(pivots)
    free = _free_columns(n, pivots)
    inv = q - np.array(neg_invs, dtype=np.float64)[:, None]
    X = _reduce(A[:r, free] * inv, p)
    if free.size:
        N = _reduce(A[:r, piv] * (q - inv), p)  # minus the normalized U, on pivots
        chunk = _terms(p)
        for i1 in range(r, 0, -_PANEL):
            i0 = max(0, i1 - _PANEL)
            B = X[i0:i1]
            for s in range(i1, r, chunk):
                B += N[i0:i1, s:s + chunk] @ X[s:s + chunk]
                _reduce(B, p)
            b = i1 - i0
            W = _unitri_inverse(N[i0:i1, i0:i1] * _LOWER[:b, :b].T, p)
            X[i0:i1] = _reduce(W @ B, p)
    del A
    R = np.zeros((m, n), dtype=np.int64)
    R[np.arange(r), piv] = 1
    R[:r, free] = X
    return R, pivots


_LOWER = np.tri(_PANEL, k=-1)  # mask of the strict lower triangle


def _unitri_inverse(S, p):
    """(I - S)^-1 = (I + S)(I + S^2)(I + S^4)... for S strictly triangular
    of size at most _PANEL with reduced entries; every product has an inner
    dimension of at most _PANEL terms."""
    W = S + np.eye(len(S))
    h = 2
    while h < len(S):
        S = _reduce(S @ S, p)
        W = _reduce(W + W @ S, p)
        h *= 2
    return W


# -------------------------------------------------------------------- Q RREF

def lift_primes():
    """The primes that carry exact answers over Q, largest first: every
    prime from 8388593, the largest that GF admits, down to 5."""
    return filter(_is_prime, range(8388593, 3, -2))


_RATIO = np.frompyfunc(Fraction.as_integer_ratio, 1, 2)


def _integral(F):
    """(F den, den): den is the column of each row's lcm of denominators."""
    num, den = _RATIO(F)
    lcms = np.lcm.reduce(den, axis=1, keepdims=True, initial=1)
    return num * (lcms // den), lcms


def _lift(X, M):
    """X as the Fractions n/d == X mod M with |n|, d <= isqrt(M / 2), by
    rational reconstruction (half-extended Euclid); None at the first entry
    that has none."""
    bound = isqrt(M // 2)
    out = np.empty(X.shape, dtype=object)
    for i, x in enumerate(X.flat):
        r0, r1, t0, t1 = M, x, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if not 0 < abs(t1) <= bound:
            return None
        out.flat[i] = Fraction(r1, t1)
    return out


def _rref_rational(a):
    """RREF over Q of a Fraction array, lifted from _rref_prime; returns
    (Fraction array, pivots).

    * Each row is scaled to integers once, by the lcm of its denominators;
      that keeps rank, kernel and row space.  The integer matrix A is then
      eliminated modulo the primes of lift_primes, in that order.
    * Modulo p the rank is at most the rank over Q, and at equal rank the
      pivots are lexicographically at least the Q pivots.  So a prime with
      more pivots, or as many coming earlier, restarts the lift; a prime
      with any other pivot set is skipped.
    * The entries X of the pivot rows on the free columns are combined by
      CRT and lifted by _lift each time the modulus has doubled in bits.
      With den scaling each column of X to integers, X is returned only if
      A[:, free] den == A[:, piv] @ (X den) over Python ints.  That bounds
      the rank over Q by the rank mod p, and as X is zero left of each
      pivot, as in every echelon form mod p, it proves rank, pivots and X.
    """
    m, n = a.shape
    A = _integral(a)[0]
    best = None
    for p in lift_primes():
        R, piv = _rref_prime((A % p).astype(np.int64), p)
        if best is None or (len(piv), best) > (len(best), piv):
            best, free, M, tried = piv, _free_columns(n, piv), 1, 0
            X = np.zeros((len(piv), len(free)), dtype=object)
        elif piv != best:
            continue
        X += M * ((R[:len(piv), free] - X % p) * pow(M, -1, p) % p)
        M *= p
        if M.bit_length() < 2 * tried:
            continue
        tried = M.bit_length()
        F = _lift(X, M)
        if F is None:
            continue
        Y, den = _integral(F.T)
        if (A[:, free] * den.T == A[:, piv] @ Y.T).all():
            out = QQ.zeros((m, n))
            out[np.arange(len(piv)), piv] = Fraction(1)
            out[:len(piv), free] = F
            return out, piv


def rref(m):
    """Reduced row echelon form; returns (ExactMatrix, tuple of pivot columns)."""
    if m.field.is_prime_field:
        data, piv = _rref_prime(m.data, m.field.p)
    else:
        data, piv = _rref_rational(m.data)
    return ExactMatrix(m.field, data), tuple(piv)


# ------------------------------------------------------------------- the API

def mat_rank(m):
    if m.rows == 0 or m.cols == 0:
        return 0
    _, piv = rref(m)
    return len(piv)


def _free_columns(n, pivots):
    """The columns 0..n-1 that are not pivots, ascending, as an index array."""
    is_free = np.ones(n, dtype=bool)
    is_free[list(pivots)] = False
    return np.flatnonzero(is_free)


def kernel_data(m):
    """(kernel matrix, free columns): the coordinate trick in one place.

    Kernel basis vectors carry the identity pattern on the free columns
    (vector for free column f has 1 at f and minus the echelon entries at
    the pivots), in increasing free-column order.  Consequently the
    coordinates of any kernel vector w in this basis are just w[free].
    """
    f = m.field
    n = m.cols
    if n == 0:
        return ExactMatrix.zeros(f, 0, 0), ()
    if m.rows == 0:
        return ExactMatrix.identity(f, n), tuple(range(n))
    R, piv = rref(m)
    free = _free_columns(n, piv)
    k = ExactMatrix.zeros(f, n, len(free))
    k.data[free, np.arange(len(free))] = f.one()
    k.data[list(piv)] = f.reduce(-R.data[:len(piv), free])
    return k, tuple(free.tolist())
