#!/usr/bin/env python3
"""Probe structured families against the nongenericity detectors.

Builds one system per special family (conic normal form, three noncollinear
points, pencil-factorized, and the repeated-form square case), runs the
full-rank sweep, and prints which detectors explain each failure together
with the classification verdict.  A generic control row goes last; any
"unexplained" note on a structured row is worth a closer look.
"""

import argparse
import random

from bigres.exactcore import GF
from bigres.bipoly import BiPoly, SystemF
from bigres.segre import classify, extract_factorization
from bigres.lab import ExperimentConfig, probe_system, sample_system


def _form(fld, deg, rng):
    dim = (deg[0] + 1) * (deg[1] + 1)
    while True:
        vec = [fld.rand(rng) for _ in range(dim)]
        if any(not fld.is_zero(c) for c in vec):
            return BiPoly.from_vector(fld, deg, vec)


def build_cases(fld, n, rng):
    s = BiPoly.variable(fld, "s")
    t = BiPoly.variable(fld, "t")
    a0, a1 = (_form(fld, (0, n), rng) for _ in range(2))
    conic = SystemF(fld, (1, n), (t * a0, s * a0 + t * a1, s * a1))
    hs = [_form(fld, (0, n), rng) for _ in range(3)]
    threept = SystemF(fld, (1, n), (s * hs[0], t * hs[1], (s + t) * hs[2]))
    g = [_form(fld, (1, 1), rng) for _ in range(3)]
    h0, h1 = (_form(fld, (0, n - 1), rng) for _ in range(2))
    h2 = h0 * fld.normalize(5) + h1 * fld.normalize(7)
    pencil = SystemF(fld, (1, n), (g[0] * h0, g[1] * h1, g[2] * h2))
    mono = lambda e: BiPoly.monomial(fld, e)
    square = SystemF(fld, (1, 5), [
        mono((1, 0, 5, 0)), mono((0, 1, 0, 5)),
        mono((1, 0, 5, 0)) + mono((1, 0, 0, 5)) + mono((0, 1, 5, 0))
        + mono((0, 1, 0, 5))])
    return [("conic", conic), ("threepoint", threept),
            ("pencil", pencil), ("square", square)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5, help="second degree component")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p", type=int, default=32003)
    args = ap.parse_args()

    fld = GF(args.p)
    rng = random.Random(args.seed)
    for label, sys_ in build_cases(fld, args.n, rng):
        report = probe_system(sys_, label)
        verdict = classify(sys_, extract_factorization(sys_))
        print(report.to_json())
        print(f"  classify: {verdict.to_json()}")
    cfg = ExperimentConfig((1, args.n), trials=1, field=fld, seed=args.seed)
    control = sample_system(cfg)
    print(probe_system(control, "random-control").to_json())


if __name__ == "__main__":
    main()
