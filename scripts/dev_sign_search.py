#!/usr/bin/env python3
"""Sign search for the quadratic syzygy kernel vectors.

The five syzygies sigma_k = s^2 a + st b + t^2 c of a split system
f_i = s p_i + t q_i are assembled from 4x4 minors of the Hilbert-Burch
matrix N of (p0,p1,p2,q0,q1,q2) with column k removed: which minors enter
which slot follows from expanding the block structure of the kernel
condition M . k == 0, but the signs do not come for free.  This script
fixes them the blunt way, which is how the shipped convention was found:
enumerate all 2^12 sign assignments over the twelve minor occurrences,
keep those for which every row of M . k vanishes at random sample points,
for every column k, and print the survivors.  Exactly two survive (a
kernel vector and its negation); the library hardcodes the first and then
re-verifies M . K^t == 0 exactly on every call, so this search is a
reproducibility aid, not a runtime dependency.

Minor naming: m(i,j) = (-1)^(i+j) det(N without rows i,j, without column k).
Slots:  a = (s1 m12, s2 m02, s3 m01)
        b = (s4 m15 + s5 m24, s6 m23 + s7 m05, s8 m04 + s9 m13)
        c = (s10 m45, s11 m35, s12 m34)
"""

import argparse
import itertools
import random

from bigres.exactcore import GF
from bigres.bipoly import theta_matrix
from bigres.betti import hb_kernel
from bigres.lab import ExperimentConfig, sample_system

PAIRS = [(1, 2), (0, 2), (0, 1),            # a slots
         (1, 5), (2, 4), (2, 3), (0, 5), (0, 4), (1, 3),   # b slots, two each
         (4, 5), (3, 5), (3, 4)]            # c slots
SLOT_OF = [0, 1, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8]  # occurrence -> kernel entry 0..8


def det4(rows, p):
    # expansion along the first row; 4x4 only, exact mod p
    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % p

    acc = 0
    for j in range(4):
        sub = [[rows[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        term = rows[0][j] * det3(sub)
        acc = (acc - term if j % 2 else acc + term) % p
    return acc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=24)
    args = ap.parse_args()

    p = 32003
    fld = GF(p)
    sys_ = sample_system(ExperimentConfig((1, args.n), trials=1, seed=args.seed))
    p_row, q_row = theta_matrix(sys_.polys)
    six = p_row + q_row  # p0,p1,p2,q0,q1,q2
    N = hb_kernel(six).column_matrix()

    rng = random.Random(args.seed + 1)
    pts = [(rng.randrange(1, p), rng.randrange(1, p)) for _ in range(args.points)]

    # per (point, column k): values of the twelve signed minors and of the
    # 4x9 block matrix M = [[p,0,0],[q,p,0],[0,q,p],[0,0,q]] (3-wide blocks)
    mrows_t = [[six[0], six[1], six[2]] + [None] * 6,
               [six[3], six[4], six[5], six[0], six[1], six[2]] + [None] * 3,
               [None] * 3 + [six[3], six[4], six[5], six[0], six[1], six[2]],
               [None] * 6 + [six[3], six[4], six[5]]]
    data = []
    for alpha, beta in pts:
        nval = [[e.evaluate((0, 0, alpha, beta)) for e in row] for row in N]
        mval = [[0 if e is None else e.evaluate((0, 0, alpha, beta)) for e in row]
                for row in mrows_t]
        for k in range(5):
            keep = [c for c in range(5) if c != k]
            minors = []
            for i, j in PAIRS:
                rows = [[nval[r][c] for c in keep] for r in range(6)
                        if r not in (i, j)]
                m = det4(rows, p)
                minors.append(m if (i + j) % 2 == 0 else (-m) % p)
            data.append((minors, mval))

    def residual(signs, minors, mval):
        kvec = [0] * 9
        for occ, sg in enumerate(signs):
            kvec[SLOT_OF[occ]] = (kvec[SLOT_OF[occ]] + sg * minors[occ]) % p
        return [sum(mr[c] * kvec[c] for c in range(9)) % p for mr in mval]

    survivors = []
    coarse = data[0]
    for signs in itertools.product((1, -1), repeat=12):
        if any(residual(signs, *coarse)):
            continue
        if all(not any(residual(signs, *dk)) for dk in data[1:]):
            survivors.append(signs)

    print(f"n={args.n} seed={args.seed}: {len(survivors)} surviving "
          f"sign assignments out of 4096")
    names = ["m12", "m02", "m01", "m15", "m24", "m23", "m05", "m04", "m13",
             "m45", "m35", "m34"]
    for signs in survivors:
        terms = [f"{'+' if s > 0 else '-'}{nm}" for s, nm in zip(signs, names)]
        print("  a=(%s, %s, %s)  b=(%s%s, %s%s, %s%s)  c=(%s, %s, %s)"
              % tuple(terms))


if __name__ == "__main__":
    main()
