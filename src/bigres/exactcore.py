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

* GF(p): _rref_prime is Gauss-Jordan elimination with delayed reduction,
  on one of two paths chosen by the matrix's own size.  Up to _ONE_PASS
  = 8192 cells, _rref_one_pass runs it in one pass over the int64
  transpose: each pivot reduces its column and makes one rank-one update
  of the later columns, whose entries stay below p + min(m,n) (p-1)^2 <
  2^63 for every prime FieldSpec admits (min(m,n) <= 90 there).  Larger
  matrices go in 32-wide column panels.  Inside a panel each pivot is one
  rank-one update of a contiguous int64 block: the panel's later columns
  and the transform that eliminates the panel, so a pivot costs O(1)
  numpy calls whatever its position.  Outside the panel that transform is
  one float64 (BLAS) product per chunk of rows, and the rows above the
  panel are eliminated with the rest, so the reduced echelon form needs
  no back-substitution.  Every float64 entry stays an integer below
  2^51; FieldSpec admits only the p for which a panel of 32 updates does.
  mat_mul is a float64 (BLAS) product of the residues, its inner dimension
  cut into chunks of (2^51 - p) // (p-1)^2 terms so that every partial sum
  stays below 2^51.  Both reduce float64 arrays with the one floor
  reduction _reduce.
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
_ONE_PASS = 8192  # cells up to which _rref_prime eliminates in one pass
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
        # keep _rref_prime exact: 128 (p-1)^2 < 2^53, so a panel of 32
        # updates of reduced products, 32 (p-1)^2 + 2p, stays below 2^51,
        # and the at most 90 updates of the one pass below 2^53 (see the
        # docstrings of _rref_prime and _rref_one_pass)
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


def _rref_one_pass(a, p):
    """_rref_prime of a reduced matrix of at most _ONE_PASS cells.

    Gauss-Jordan elimination on W, the int64 transpose of a, one column (a
    row of W) at a time, so a pivot costs O(1) numpy calls and no
    transform, product or write-back is kept.  A column is reduced when it
    is reached; its pivot row is the first nonzero at or below the pivot
    rows, swapped into place in it and every later column.  One rank-one
    update of the later columns, later += f (x) c, then eliminates it: f is
    their entries in the pivot row times -1/v, v the pivot, and c the
    column with its pivot entry replaced by v - 1.  That subtracts c_i / v
    times the pivot row from every other row i and divides the pivot row
    by v.  The column itself becomes the unit vector of its pivot row.  An
    earlier column is zero below the pivot rows, so no later pivot changes
    it, and once every column is reached W is the transposed RREF.

    Exactness: f and c are reduced, so an update adds at most (p-1)^2 to an
    entry, and an entry takes at most one update per pivot: it stays below
    p + min(m,n) (p-1)^2.  With m n <= _ONE_PASS, min(m,n) <= 90, and
    FieldSpec admits only p with 128 (p-1)^2 < 2^53, so the bound is below
    2^53 < 2^63.  The product of such an entry and -1/v mod p is below
    (min(m,n) + 1) p^3; where that is below 2^63 f takes one remainder,
    and otherwise the entry is reduced before it is multiplied.
    """
    m, n = a.shape
    W = np.array(a.T, dtype=np.int64, order="C")
    once = (min(m, n) + 1) * p ** 3 < 2 ** 63
    pivots = []
    r = 0
    for j in range(n):
        col = W[j]
        np.remainder(col, p, out=col)
        if not col[r]:
            nz = col[r:].nonzero()[0]
            if not nz.size:
                continue
            i = r + int(nz[0])
            swap = W[j:, r].copy()
            W[j:, r] = W[j:, i]
            W[j:, i] = swap
        v = int(col[r])
        rest = W[j + 1:]
        if rest.size:
            if once:
                f = rest[:, r] * (p - pow(v, -1, p))
            else:
                f = rest[:, r] % p
                f *= p - pow(v, -1, p)
            f %= p
            col[r] = v - 1
            rest += f[:, None] * col
        col[:] = 0
        col[r] = 1
        pivots.append(j)
        r += 1
        if r == m:
            np.remainder(rest, p, out=rest)  # the columns not reached
            break
    return np.ascontiguousarray(W.T), pivots


def _rref_prime(a, p):
    """RREF over GF(p); returns (int64 ndarray, list of pivot columns).

    A matrix of at most _ONE_PASS cells is eliminated by _rref_one_pass.
    A larger one goes by Gauss-Jordan elimination in column panels of
    width _PANEL.  The matrix lives in a float64 copy A whose entries are
    nonnegative integers; the rows found as pivots are moved to the top, in
    order, as they are found.

    * Panel: its columns that are nonzero below the pivot rows, on all m
      rows, are copied transposed into the int64 array W, above one row per
      pivot of the panel for the transform T that eliminates it (row t of
      that block is column r + t of T, r the pivots before the panel).  A
      pivot costs O(1) numpy calls: the column is reduced and its pivot row
      is the first nonzero at or below r + t, swapped into place in every
      row of W.  The rows of W it acts on are contiguous: the panel columns
      after it and the transform rows up to its own, which starts as the
      unit vector of its pivot row.  One rank-one update does it, block +=
      f (x) c: f is the block's entries in the pivot row times -1/v, v the
      pivot, and c the pivot column with its pivot entry replaced by v - 1.
      That subtracts c_i / v times the pivot row from every other row i,
      rows above r included, and divides the pivot row by v.  f and c are
      reduced, so an update adds at most (p-1)^2 to an entry.
    * Trailing columns: the rows A[r:r+k] are swapped like W and reduced,
      and one float64 product per _ROW_CHUNK rows applies T to every other
      row; the new pivot rows are T's own k x k block times them, reduced.
      The panel's free columns are written back from W; nothing reads its
      pivot columns again, and no back-substitution is left: A[:r] ends in
      reduced echelon form.

    Exactness: W starts reduced and takes at most 32 updates per entry, so
    its entries stay below p + 32 (p-1)^2.  A trailing entry is at most
    grow, which a panel of k pivots raises by k (p-1)^2 (reduced operands,
    k terms per sum); it is reduced when grow would pass top = 2^51 - p.
    FieldSpec admits only p with 128 (p-1)^2 < 2^53, that is
    32 (p-1)^2 + 2p <= 2^51, so both bounds stay below 2^51, where float64
    holds integers exactly and _reduce is exact.
    """
    a = np.asarray(a)
    m, n = a.shape
    if m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.int64), []
    if a.min() < 0 or a.max() >= p:
        a = a % p
    if m * n <= _ONE_PASS:
        return _rref_one_pass(a, p)
    A = np.array(a, dtype=np.float64, order="C")
    sq = (p - 1) ** 2
    top = _EXACT - p

    pivots = []
    r = 0
    grow = p - 1  # bound on the entries of A outside the reduced pivot rows
    for c0 in range(0, n, _PANEL):
        c1 = c0 + _PANEL
        # a column that is zero below the pivot rows has no pivot here, and
        # the panel leaves it as it is: it is zero in the panel's pivot rows
        live = c0 + np.flatnonzero(A[r:, c0:c1].any(axis=0))
        if not live.size:
            continue
        w = live.size
        live = live.tolist()
        W = np.zeros((w + min(w, m - r), m), dtype=np.int64)
        W[:w] = A[:, live].T
        if grow >= p:
            W[:w] %= p
        swaps = []
        t = 0
        for j in range(w):
            col = W[j]
            np.remainder(col, p, out=col)
            k = r + t
            if not col[k]:
                nz = col[k:].nonzero()[0]
                if not nz.size:
                    continue
                i = k + int(nz[0])
                swap = W[:, k].copy()
                W[:, k] = W[:, i]
                W[:, i] = swap
                swaps.append((k, i))
            v = int(col[k])
            col[k] = v - 1
            W[w + t, k] = 1
            rows = W[j + 1:w + t + 1]
            f = np.remainder(rows[:, k], p)
            np.multiply(f, p - pow(v, -1, p), out=f)
            np.remainder(f, p, out=f)
            rows += f[:, None] * col
            pivots.append(live[j])
            t += 1
            if r + t == m:
                break
        if not t:
            continue
        A[:, live] = W[:w].T
        if c1 < n:
            order = list(range(m))
            for i0, i1 in swaps:
                order[i0], order[i1] = order[i1], order[i0]
            moved = [i for i in range(r, m) if order[i] != i]
            if moved:
                A[moved, c1:] = A[[order[i] for i in moved], c1:]
            T = (W[w:w + t] % p).astype(np.float64)
            U = A[r:r + t, c1:].copy()
            if grow >= p:
                _reduce(U, p)
            if grow + t * sq > top:
                _reduce(A[:, c1:], p)
                grow = p - 1
            for s0, s1 in ((0, r), (r + t, m)):
                for s in range(s0, s1, _ROW_CHUNK):
                    e = min(s + _ROW_CHUNK, s1)
                    A[s:e, c1:] += T[:, s:e].T @ U
            A[r:r + t, c1:] = _reduce(T[:, r:r + t].T @ U, p)
            grow += t * sq
        r += t
        if r == m:
            break
    R = np.zeros((m, n), dtype=np.int64)
    if r:
        R[:r] = _reduce(A[:r], p)
        R[:r, pivots] = 0
        R[np.arange(r), pivots] = 1
    return R, pivots


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
