#!/usr/bin/env python3
"""Emit the beta1 scatter figures as standalone SVG files.

Draws one seeded random basepoint-free system per requested shape, locates
the H1 support on the box, and plots the non-Koszul first syzygies as
diamond markers over the marching-squares boundary of the region nd >= 1.
Output is deterministic for a fixed seed.
"""

import argparse
import pathlib

from bigres.exactcore import GF
from bigres.lab import ExperimentConfig, sample_system
from bigres.cli import PlotSpec, emit_svg, plot_points


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shapes", default="1,6",
                    help="semicolon-separated d pairs, e.g. '1,6;1,3'")
    ap.add_argument("--box", default=None,
                    help="a1,a2 bounds (default 4*d1, 4*d2)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p", type=int, default=32003)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("figures"))
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    for part in args.shapes.split(";"):
        d = tuple(int(x) for x in part.split(","))
        box = (tuple(int(x) for x in args.box.split(","))
               if args.box else (4 * d[0], 4 * d[1]))
        cfg = ExperimentConfig(d, trials=1, field=GF(args.p), seed=args.seed,
                               box=box)
        sys_ = sample_system(cfg)
        points = plot_points(sys_, box)
        path = args.out / f"beta1_{d[0]}_{d[1]}.svg"
        emit_svg(PlotSpec(points, d, box), path)
        print(f"wrote {path} ({len(points)} markers)")


if __name__ == "__main__":
    main()
