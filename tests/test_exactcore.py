"""Exact linear algebra: both backends against a naive Fraction oracle."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bigres import exactcore
from bigres.exactcore import (GF, QQ, DEFAULT_PRIME, ExactMatrix, kernel_data, lift_primes,
                              mat_from_blocks, mat_mul, mat_rank, rref)

from helpers import mat_hstack, mat_vstack


def naive_rref(rows):
    # classic Gauss-Jordan over Fraction; the production code lifts the RREF
    # from elimination modulo primes, so agreement is a genuine two-route check
    a = [[Fraction(x) for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    piv = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        f = a[r][c]
        a[r] = [x / f for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                g = a[i][c]
                a[i] = [x - g * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
        if r == m:
            break
    return a, piv


small_entries = st.integers(min_value=-6, max_value=6)
small_rationals = st.one_of(small_entries, st.fractions(-6, 6, max_denominator=9))


@st.composite
def small_matrix(draw, max_dim=6, entries=small_entries):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


@given(small_matrix(entries=small_rationals))
@settings(max_examples=150, deadline=None)
def test_rational_rref_matches_naive(rows):
    got, piv = rref(ExactMatrix.from_rows(QQ, rows))
    want, wpiv = naive_rref(rows)
    assert list(piv) == wpiv
    assert got.data.tolist() == want


def _low_rank_rationals(m, n, k, bits, rng):
    """An m x n product of an m x k and a k x n matrix whose entries are
    fractions with numerators and denominators of about `bits` bits."""
    def frac():
        return Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), rng.getrandbits(bits) | 1)
    left = [[frac() for _ in range(k)] for _ in range(m)]
    right = [[frac() for _ in range(n)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
            for row in left]


FIRST_PRIME = next(lift_primes())


@pytest.mark.parametrize("rows", [
    [[1, 1], [1, 1 + FIRST_PRIME]],  # rank 1 modulo the first prime, 2 over Q
    [[FIRST_PRIME, 1]],              # pivot column 1 modulo the first prime, 0 over Q
    _low_rank_rationals(6, 7, 4, 64, random.Random(7)),  # needs many primes
], ids=["rank-drop", "pivot-shift", "large-entries"])
def test_rational_rref_lift_matches_naive(rows):
    got, piv = rref(ExactMatrix.from_rows(QQ, rows))
    want, wpiv = naive_rref(rows)
    assert list(piv) == wpiv
    assert got.data.tolist() == want
    assert mat_rank(ExactMatrix.from_rows(QQ, rows)) == len(wpiv)


@given(small_matrix())
@settings(max_examples=150, deadline=None)
def test_prime_rref_matches_naive_mod_p(rows):
    # entries stay far below p, so the mod-p image of the Q pivots is exact
    p = DEFAULT_PRIME
    got, piv = rref(ExactMatrix.from_rows(GF(p), rows))
    want, wpiv = naive_rref(rows)
    dens = {x.denominator for row in want for x in row}
    assert all(d % p != 0 for d in dens)
    assert list(piv) == wpiv
    lifted = [[(x.numerator * pow(x.denominator, p - 2, p)) % p for x in row]
              for row in want]
    assert got.data.tolist() == lifted


@given(small_matrix())
@settings(max_examples=100, deadline=None)
def test_rank_nullity_and_kernel(rows):
    for fld in (QQ, GF()):
        m = ExactMatrix.from_rows(fld, rows)
        k, free_cols = kernel_data(m)
        assert k.cols == len(free_cols) == m.cols - mat_rank(m)
        if k.cols:
            assert mat_mul(m, k).is_zero()
            assert mat_rank(k) == k.cols
        # identity block on the free columns
        for j, c in enumerate(free_cols):
            assert k.get(c, j) == fld.one()


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_transpose_invariant(rows):
    for fld in (QQ, GF()):
        m = ExactMatrix.from_rows(fld, rows)
        assert mat_rank(m) == mat_rank(ExactMatrix(fld, m.data.T))


@given(small_matrix(max_dim=5))
@settings(max_examples=100, deadline=None)
def test_rank_agrees_between_fields(rows):
    # minors are bounded by 5! * 6^5 < 32003^2, but a single prime can still
    # divide one; entries <= 6 and dim <= 5 keep every minor under p
    bound = 120 * 6 ** 5
    assert bound < DEFAULT_PRIME ** 2
    rq = mat_rank(ExactMatrix.from_rows(QQ, rows))
    rp = mat_rank(ExactMatrix.from_rows(GF(), rows))
    assert rp <= rq
    if all(abs(x) <= 6 for row in rows for x in row) and len(rows) <= 5:
        if 120 * 6 ** min(len(rows), len(rows[0])) < DEFAULT_PRIME:
            assert rp == rq


def test_empty_matrix_kernel_is_identity():
    # a 0 x 5 matrix kills nothing: kernel is all of K^5
    m = ExactMatrix.zeros(GF(), 0, 5)
    k, free_cols = kernel_data(m)
    assert tuple(free_cols) == tuple(range(5))
    assert k == ExactMatrix.identity(GF(), 5)
    assert mat_rank(m) == 0


def test_dependent_columns_kernel():
    m = ExactMatrix.from_rows(QQ, [[1, 2], [2, 4]])
    k = kernel_data(m)[0]
    assert k.cols == 1
    v = k.col(0)
    # kernel of [[1,2],[2,4]] is spanned by (-2, 1)
    assert v[0] == -2 * v[1]


@pytest.mark.parametrize("fld", [GF(), QQ], ids=["GF", "QQ"])
def test_mat_from_blocks_matches_zero_padded_stacking(fld):
    # oracle: every slot filled, omitted ones with a zero block, each block
    # row hstacked and the block rows vstacked
    rng = random.Random(5)
    row_dims, col_dims = [2, 0, 3], [1, 4, 0, 2]
    written = set()
    for trial in range(8):
        blocks, grid = {}, []
        for i, r in enumerate(row_dims):
            row = []
            for j, c in enumerate(col_dims):
                blk = ExactMatrix.zeros(fld, r, c)
                if trial and rng.random() < 0.6:  # trial 0 omits every block
                    for x in range(r):
                        for y in range(c):
                            blk.data[x, y] = fld.normalize(rng.randint(-9, 9))
                    blocks[i, j] = blk.data
                row.append(blk)
            grid.append(mat_hstack(fld, row))
        want = mat_vstack(fld, grid)
        got = mat_from_blocks(fld, row_dims, col_dims, blocks)
        assert got.data.dtype == fld.dtype
        assert got.data.tolist() == want.data.tolist(), trial
        written |= set(blocks)
    assert {(1, 0), (1, 3), (0, 2), (2, 2)} <= written  # 0-row and 0-column blocks
    # a block must fit its slot exactly, also where numpy would broadcast it
    for key, shape in [((2, 1), (1, 4)), ((2, 1), (3, 1)), ((2, 1), (4, 3)),
                       ((0, 3), (2, 0)), ((1, 1), (2, 4)), ((2, 2), (3, 1))]:
        with pytest.raises(ValueError, match="slot"):
            mat_from_blocks(fld, row_dims, col_dims, {key: fld.zeros(shape)})


def test_kernel_matrix_composes():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[rng.randrange(7) for _ in range(4)] for _ in range(3)]
        m = ExactMatrix.from_rows(GF(7), rows)
        k = kernel_data(m)[0]
        if k.cols:
            assert mat_mul(m, k).is_zero()


def test_modulus_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(3)
    with pytest.raises(ValueError):
        # would overflow the exact float64 elimination bound
        GF(2 ** 31 - 1)
    assert GF(5).p == 5
    # the largest accepted prime and the next prime: 128 (p-1)^2 < 2^53
    assert GF(8388593).p == 8388593
    with pytest.raises(ValueError):
        GF(8388617)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(GF(), [[1, 2], [3]])


# ------------------------------------------- GF(p) kernel against a reference

def gauss_jordan_mod(rows, p):
    """Reduced row echelon form mod p by textbook Gauss-Jordan: one pivot at
    a time (the first nonzero entry at or below the pivot row), swap, scale,
    eliminate from every other row, on exact int64 rows (entries below p,
    so every product is below p^2 < 2^63)."""
    if not rows:
        return [], []
    a = np.array(rows, dtype=np.int64) % p
    m, n = a.shape
    piv = []
    r = 0
    for c in range(n):
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        pr = r + int(nz[0])
        a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        f = a[:, c].copy()
        f[r] = 0
        a = (a - np.outer(f, a[r]) % p) % p
        piv.append(c)
        r += 1
        if r == m:
            break
    return a.tolist(), piv


def _kernel_cases(p, rng):
    """(name, rows, ncols) for the GF(p) kernel: empty shapes, dense and
    sparse draws, zero columns, repeated rows and low-rank products."""
    def dense(m, n, density=1.0):
        return [[rng.randrange(p) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(m)]

    def product(m, n, k):
        left, right = dense(m, k), dense(k, n)
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                for row in left]

    cases = [("0x5", [], 5), ("5x0", [[]] * 5, 0), ("1x1 zero", [[0]], 1),
             ("3x7", dense(3, 7), 7), ("7x3", dense(7, 3), 3),
             ("sparse 45x50", dense(45, 50, 0.08), 50),
             ("dense 150x140", dense(150, 140), 140),
             ("tall 300x40", dense(300, 40), 40),
             ("wide 40x300", dense(40, 300), 300),
             ("rank 20 of 120x150", product(120, 150, 20), 150),
             ("rank 70 of 100x90", product(100, 90, 70), 90),
             # every panel after the first starts out zero below the pivots
             ("wide rank 12 of 40x200", product(40, 200, 12), 200)]
    rows = dense(60, 80)
    for c in rng.sample(range(80), 25):
        for row in rows:
            row[c] = 0
    cases.append(("25 zero columns", rows, 80))
    rows = dense(30, 70)
    rows += [list(rows[rng.randrange(30)]) for _ in range(40)]
    rng.shuffle(rows)
    cases.append(("repeated rows", rows, 70))
    # Entries of -1 throughout: L [U | F], L all ones below the diagonal, U
    # unit upper with -1 above it and F all -1, where every multiplier of a
    # forward elimination is 1 and every U row -1.
    r = 200
    top = [[1 if j == i else p - 1 if j > i else 0 for j in range(r)] + [p - 1] * 5
           for i in range(r)]
    acc = [0] * (r + 5)
    rows = []
    for row in top:
        acc = [(x + y) % p for x, y in zip(acc, row)]
        rows.append(acc)
    cases.append(("all-ones L times [U | -1]", rows, r + 5))
    # [U | F], U unit upper with 1 above the diagonal and F[i][j] = i + j:
    # the reduced free columns are -1 down to the last row.
    rows = [[1 if j >= i else 0 for j in range(r)] + [i + j for j in range(5)]
            for i in range(r)]
    rng.shuffle(rows)
    cases.append(("[U | F] with -1 free columns", rows, r + 5))
    # Worst case for the Gauss-Jordan trailing update: at every panel the
    # pivot block is the identity, the rows below it are all ones there and
    # the pivot rows are all -1 to its right, so each panel adds 32 (p-1)^2
    # to every trailing entry below it.  Built from the last panel back, as
    # S_b = [[I, -1], [1, S_(b+1) - 32]], whose Schur complement is S_(b+1).
    # The last 8 columns are free, so their echelon entries show any error.
    rows = dense(8, 16)
    for _ in range(5):
        rows = ([[int(j == i) for j in range(32)] + [p - 1] * len(rows[0]) for i in range(32)]
                + [[1] * 32 + [(x - 32) % p for x in row] for row in rows])
    cases.append(("trailing sums of 32 (p-1)^2 over five panels", rows, len(rows[0])))
    # panel edges: one column short of a panel, one panel, one column over,
    # two panels and one column over, full rank and rank-deficient
    for m, n in [(40, 31), (40, 32), (40, 33), (70, 64), (70, 65)]:
        cases.append((f"dense {m}x{n}", dense(m, n), n))
        cases.append((f"rank 20 of {m}x{n}", product(m, n, 20), n))
    cases += [("1x70", dense(1, 70), 70), ("70x1", dense(70, 1), 1),
              ("1x70 sparse", dense(1, 70, 0.05), 70)]
    # row i is nonzero only in column i + 1 (row m - 1 in column 0), then
    # dense columns: every pivot is the last remaining row, so every column
    # but the last of the square part swaps, across three panels
    m = 70
    rows = [[rng.randrange(1, p) if j == (i + 1) % m else 0 for j in range(m)]
            + dense(1, 30)[0] for i in range(m)]
    cases.append(("pivot always in the last row", rows, m + 30))
    # the short-wide and tall shapes a benchmark pass records
    cases += [("27x114", dense(27, 114), 114), ("252x135", dense(252, 135), 135),
              ("128x2108", dense(128, 2108), 2108),
              # more rows below the first panel than one 512-row product takes,
              # and pivots in the last 40 of them
              ("600x70", product(560, 70, 10) + dense(40, 70), 70)]
    left = np.array(dense(505, 200), dtype=np.int64)
    right = np.array(dense(200, 1216), dtype=np.int64)
    cases.append(("rank 200 of 505x1216", (left @ right % p).tolist(), 1216))
    # the one-pass threshold of 8192 cells: at it and one column over, and
    # the squarest shape under it, where the one-pass bound is largest (the
    # 1 x 8192 shapes, whose kernels fill 8192 x 8191, are tested apart)
    for m, n in [(64, 128), (64, 129), (90, 91)]:
        cases.append((f"dense {m}x{n}", dense(m, n), n))
    # Worst case for int64 growth in the one pass: row 0 is zero and row
    # i > 0 is -(c + 1) at column c < i - 1 and 2 - i from there on.  At
    # pivot t the zero row sits in the pivot position and the pivot, 1, one
    # row below, so every column swaps; the pivot row is 1 on every later
    # column, so every multiplier is p - 1, and the column is -1 on the rows
    # below, so each pivot adds (p-1)^2 to every later entry there.  The row
    # of the last pivot reaches it holding 88 (p-1)^2, and its multipliers
    # need two remainders at p = 8388593: 89 p^3 > 2^63.
    rows = [[0] * 91] + [[-(c + 1) % p if c + 1 < i else (2 - i) % p for c in range(91)]
                         for i in range(1, 90)]
    cases.append(("one pass: every multiplier p - 1, every column swaps", rows, 91))
    return cases


@pytest.mark.parametrize("p", [5, 7, 32003, 8388593])
def test_prime_kernel_matches_gauss_jordan(p):
    # 8388593 is the largest prime GF accepts: (p-1)^2 fills the float64
    # margin, so the guard that reduces the trailing block runs, and the
    # worst case for it would lose exactness without
    fld = GF(p)
    most = 0
    for name, rows, n in _kernel_cases(p, random.Random(p)):
        m = ExactMatrix.from_rows(fld, rows) if rows else ExactMatrix.zeros(fld, 0, n)
        want, wpiv = gauss_jordan_mod(rows, p)
        got, piv = rref(m)
        assert list(piv) == wpiv, name
        assert got.data.tolist() == want, name
        assert mat_rank(m) == len(wpiv), name
        k, free = kernel_data(m)
        assert list(free) == [c for c in range(n) if c not in wpiv], name
        expect = [[0] * len(free) for _ in range(n)]
        for j, fc in enumerate(free):
            expect[fc][j] = 1
            for i, pc in enumerate(wpiv):
                expect[pc][j] = -want[i][fc] % p
        assert k.data.tolist() == expect, name
        most = max(most, len(wpiv))
    assert most > 128


@pytest.mark.parametrize("p", [5, 8388593])
@pytest.mark.parametrize("m, n", [(1, 8192), (1, 8193), (8192, 1), (8193, 1)])
def test_prime_rref_one_pass_threshold_lines(p, m, n):
    # one row or column at the threshold of 8192 cells and one cell over it;
    # a zero first entry makes the single pivot look further along
    rng = random.Random(m + n + p)
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    rows[0][0] = 0
    want, wpiv = gauss_jordan_mod(rows, p)
    got, piv = rref(ExactMatrix(GF(p), np.array(rows, dtype=np.int64)))
    assert list(piv) == wpiv
    assert got.data.tolist() == want


def test_prime_rref_reduces_raw_entries():
    # data outside [0, p), as a caller may build it, is reduced on entry
    fld = GF(7)
    rng = random.Random(2)
    rows = [[rng.randint(-50, 50) for _ in range(9)] for _ in range(6)]
    raw = ExactMatrix(fld, np.array(rows, dtype=np.int64))
    want, wpiv = gauss_jordan_mod(rows, 7)
    got, piv = rref(raw)
    assert list(piv) == wpiv
    assert got.data.tolist() == want


@pytest.mark.parametrize("p", [5, 32003, 8388593])
def test_prime_mat_mul_is_exact(p):
    # the float64 product against Python-int products mod p, with entries
    # all p-1, uniform and near p-1 (the largest partial sums, and odd
    # terms, which a float64 sum past 2^53 rounds), at inner dims around
    # the chunk of terms mat_mul sums before it reduces; only 8388593 has a
    # chunk under 300, so only there is it crossed.  A 3 x 4 result reduces
    # by np.remainder, a 12 x 11 one by the floor reduction
    fld = GF(p)
    rng = random.Random(p)
    chunk = (2 ** 51 - p) // (p - 1) ** 2
    assert (chunk + 1 < 300) == (p == 8388593)
    draws = (lambda: p - 1, lambda: rng.randrange(p), lambda: rng.randrange(p - 1 - p // 8, p))
    for inner in [n for n in (0, 1, chunk - 1, chunk, chunk + 1, 300) if n <= 300]:
        for (rows, cols), draw in itertools.product(((3, 4), (12, 11)), draws):
            a = [[draw() for _ in range(inner)] for _ in range(rows)]
            b = [[draw() for _ in range(cols)] for _ in range(inner)]
            got = mat_mul(ExactMatrix(fld, np.array(a, dtype=np.int64).reshape(rows, inner)),
                          ExactMatrix(fld, np.array(b, dtype=np.int64).reshape(inner, cols)))
            assert (got.data.dtype, got.data.shape) == (np.int64, (rows, cols))
            want = [[sum(a[i][k] * b[k][j] for k in range(inner)) % p for j in range(cols)]
                    for i in range(rows)]
            assert got.data.tolist() == want, (inner, rows)


@st.composite
def _kernel_shapes(draw):
    """(m, n) on either side of the one-pass threshold of _ONE_PASS cells:
    one side from 1 to 130, the panel edges 31-33 and 63-65 sampled, and
    the other up to the threshold, the threshold itself sampled, or past it."""
    a = draw(st.integers(1, 130) | st.sampled_from([31, 32, 33, 63, 64, 65]))
    top = exactcore._ONE_PASS // a
    if draw(st.booleans()):
        b = draw(st.integers(1, min(top, 130)) | st.just(top))
    else:
        b = draw(st.integers(top + 1, top + 70))
    return (a, b) if draw(st.booleans()) else (b, a)


@given(seed=st.integers(0, 2 ** 32 - 1), shape=_kernel_shapes(),
       density=st.sampled_from([1.0, 0.3, 0.05]), rank=st.sampled_from([None, 1, 5, 31, 33]))
@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("p", [5, 8388593])
def test_prime_kernel_property(p, seed, shape, density, rank):
    # random shapes on both sides of the one-pass threshold and of the
    # 32-wide panel; at p = 5 many columns are dependent or need a swap, at
    # 8388593 the products fill the float64 margin and the one-pass
    # multipliers take two remainders
    m, n = shape
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, (m, n)) * (rng.random((m, n)) < density)
    if rank is not None:
        a = rng.integers(0, p, (m, rank)) @ (a[:rank] if rank <= m else
                                             rng.integers(0, p, (rank, n))) % p
    rows = a.tolist()
    want, wpiv = gauss_jordan_mod(rows, p)
    got, piv = rref(ExactMatrix(GF(p), np.array(a, dtype=np.int64)))
    assert list(piv) == wpiv
    assert got.data.tolist() == want
