"""Command-line front end: system files in, grids / tables / SVG out.

Exit codes: 0 success, 1 computation error (basepoints, degenerate input,
arithmetic contradictions), 2 usage error (bad flags, malformed files).
Grid text and SVG bytes are deterministic for fixed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import dataclass

from .exactcore import GF, QQ
from .bipoly import BiPoly, SystemF
from .combinat import chi, nd, nd_grid, neg_part, pos_part, render_grid
from .strands import check_box, h1_dim, hf_quotient, is_generic
from .betti import betti_table, box_nonkoszul_beta1, verify_resolution
from .segre import (ConicRedirect, ImpossibleFactorization, basepoint_free,
                    classify, conic_resolution, extract_factorization,
                    three_point_resolution)
from . import lab as labmod


class UsageError(Exception):
    pass


class ComputationError(Exception):
    pass


def parse_field(text):
    if text in ("Q", "q", "rationals"):
        return QQ
    try:
        p = int(text)
    except ValueError:
        raise UsageError(f"field must be Q or a prime, got {text!r}")
    try:
        return GF(p)
    except ValueError as e:
        raise UsageError(str(e))


def load_system(path):
    """SystemFile JSON -> SystemF; malformed JSON reports line/column."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"{path}: {e.strerror}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    try:
        fld = parse_field(str(obj["field"]))
        d = tuple(obj["d"])
        raw = obj["polys"]
        if len(raw) != 3:
            raise ValueError("need exactly 3 polynomials")
        polys = []
        for terms in raw:
            coeffs = {}
            for coeff, es, et, eu, ev in terms:
                e = (es, et, eu, ev)
                c = fld.from_str(str(coeff))
                coeffs[e] = fld.add(coeffs.get(e, fld.zero()), c)
            polys.append(BiPoly(fld, d, coeffs))
        return SystemF(fld, d, polys)
    except UsageError as e:  # a bad "field"
        raise UsageError(f"{path}: {e}")
    except (KeyError, TypeError) as e:
        raise UsageError(f"{path}: malformed system file ({e})")
    except ValueError as e:
        raise UsageError(f"{path}: {e}")
    except ZeroDivisionError:
        raise UsageError(f"{path}: zero denominator in a coefficient")


def dump_system(sys_):
    """SystemF -> SystemFile dict (inverse of load_system)."""
    fld = sys_.field
    return {
        "field": "Q" if not fld.is_prime_field else str(fld.p),
        "d": list(sys_.d),
        "polys": [[[fld.to_str(c), *e] for e, c in sorted(f.coeffs.items(),
                                                          reverse=True)]
                  for f in sys_.polys],
    }


def _pair(text, what):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{what} must be two comma-separated integers")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise UsageError(f"{what} must be two comma-separated integers")


def _degree(text):
    """--d: the bidegree of the forms, at least (1,1)."""
    d = _pair(text, "--d")
    if min(d) < 1:
        raise UsageError("--d entries must be at least 1")
    return d


def _box(text):
    box = _pair(text, "--box")
    if min(box) < 0:
        raise UsageError("--box entries must be nonnegative")
    return box


def _generic_box(text, d):
    """--box of a genericity sweep: None (the default box) or a box that
    covers the critical ranges of shape d."""
    if not text:
        return None
    box = _box(text)
    try:
        check_box(d, box)
    except ValueError as e:
        raise UsageError(str(e))
    return box


def _check_output_dir(path):
    """-o/--csv name a file in a directory that exists; checked before
    anything is computed."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"{path}: no such directory")


def _value_grid(box, fn):
    return [[fn((a1, a2)) for a2 in range(box[1] + 1)]
            for a1 in range(box[0] + 1)]


# ------------------------------------------------------------------ plotting

@dataclass
class PlotSpec:
    points: list          # (a1, a2, beta)
    d: tuple
    bounds: tuple

    def __post_init__(self):
        for a1, a2, _ in self.points:
            if not (0 <= a1 <= self.bounds[0] and 0 <= a2 <= self.bounds[1]):
                raise ValueError(f"point ({a1},{a2}) outside bounds {self.bounds}")


def _boundary_segments(d, box):
    """Marching-squares segments for the region {nd >= 1}, on edge midpoints."""
    b1, b2 = box
    inside = [[1 if nd(d, (a1, a2)) >= 1 else 0
               for a2 in range(b2 + 2)] for a1 in range(b1 + 2)]
    segs = []
    # midpoints of the four edges of the cell with corners (i..i+1, j..j+1)
    for i in range(b1 + 1):
        for j in range(b2 + 1):
            c = (inside[i][j], inside[i + 1][j], inside[i + 1][j + 1],
                 inside[i][j + 1])
            code = c[0] + 2 * c[1] + 4 * c[2] + 8 * c[3]
            if code in (0, 15):
                continue
            left = (i, j + 0.5)
            right = (i + 1, j + 0.5)
            bottom = (i + 0.5, j)
            top = (i + 0.5, j + 1)
            table = {
                1: [(left, bottom)], 2: [(bottom, right)], 3: [(left, right)],
                4: [(right, top)], 5: [(left, bottom), (right, top)],
                6: [(bottom, top)], 7: [(left, top)], 8: [(top, left)],
                9: [(bottom, top)], 10: [(bottom, left), (top, right)],
                11: [(top, right)], 12: [(left, right)],
                13: [(bottom, right)], 14: [(left, bottom)],
            }
            segs.extend(table[code])
    return segs


def plot_points(sys_, box):
    """(a1, a2, beta) of the non-Koszul first syzygies in the box, by
    betti.box_nonkoszul_beta1: Tor only on the H1 support and at 2d of a
    basepoint-free net, on the whole box of a net with a basepoint."""
    return [(a[0], a[1], m) for a, m in box_nonkoszul_beta1(sys_, box).items()]


def emit_svg(spec, path):
    """Deterministic SVG 1.1: axes, beta1 markers, nd-region boundary."""
    b1, b2 = spec.bounds
    cell = 24 if max(b1, b2) <= 30 else max(6, 720 // max(b1, b2))
    mleft, mbottom, mtop, mright = 46, 36, 16, 16
    w = mleft + cell * (b1 + 1) + mright
    h = mtop + cell * (b2 + 1) + mbottom

    def X(a1):
        return mleft + cell * a1

    def Y(a2):
        return h - mbottom - cell * a2

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
               f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">')
    out.append(f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>')
    out.append(f'<line x1="{X(0)}" y1="{Y(0)}" x2="{X(b1)}" y2="{Y(0)}" '
               f'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{X(0)}" y1="{Y(0)}" x2="{X(0)}" y2="{Y(b2)}" '
               f'stroke="black" stroke-width="1"/>')
    step1 = 1 if b1 <= 20 else 5
    step2 = 1 if b2 <= 24 else 5
    for a1 in range(0, b1 + 1, step1):
        out.append(f'<text x="{X(a1)}" y="{Y(0) + 14}" font-size="9" '
                   f'text-anchor="middle" font-family="monospace">{a1}</text>')
    for a2 in range(0, b2 + 1, step2):
        out.append(f'<text x="{X(0) - 6}" y="{Y(a2) + 3}" font-size="9" '
                   f'text-anchor="end" font-family="monospace">{a2}</text>')
    out.append(f'<text x="{X(b1) + 8}" y="{Y(0) + 4}" font-size="11" '
               f'font-family="monospace">a1</text>')
    out.append(f'<text x="{X(0) - 4}" y="{Y(b2) - 6}" font-size="11" '
               f'text-anchor="end" font-family="monospace">a2</text>')
    parts = []
    for (x1, y1), (x2, y2) in _boundary_segments(spec.d, spec.bounds):
        parts.append(f"M {X(x1):.1f} {Y(y1):.1f} L {X(x2):.1f} {Y(y2):.1f}")
    if parts:
        out.append(f'<path d="{" ".join(parts)}" stroke="#808080" '
                   f'stroke-width="1.2" fill="none"/>')
    for a1, a2, beta in sorted(spec.points):
        r = 4
        out.append(f'<path d="M {X(a1)} {Y(a2) - r} L {X(a1) + r} {Y(a2)} '
                   f'L {X(a1)} {Y(a2) + r} L {X(a1) - r} {Y(a2)} Z" '
                   f'fill="black"><title>beta1({a1},{a2}) = {beta}</title></path>')
    out.append('</svg>')
    data = "\n".join(out) + "\n"
    with open(path, "w") as fh:
        fh.write(data)
    return data


# --------------------------------------------------------------- subcommands

def cmd_nd(args, out):
    d = _degree(args.d)
    box = _box(args.box)
    out.write(render_grid(nd_grid(d, box)))
    return 0


def cmd_chi(args, out):
    d = _degree(args.d)
    box = _box(args.box)
    for label, fn in (("chi", lambda a: chi(d, a)),
                      ("chi_plus", lambda a: pos_part(chi(d, a))),
                      ("chi_minus", lambda a: neg_part(chi(d, a))),
                      ("nd", lambda a: nd(d, a))):
        out.write(label + "\n")
        out.write(render_grid(_value_grid(box, fn)))
    return 0


def cmd_h1(args, out):
    sys_ = load_system(args.file)
    box = _box(args.box)
    out.write(render_grid(_value_grid(box, lambda a: h1_dim(sys_, a))))
    return 0


def cmd_hf(args, out):
    sys_ = load_system(args.file)
    box = _box(args.box)
    out.write(render_grid(_value_grid(box, lambda a: hf_quotient(sys_, a))))
    return 0


def cmd_betti(args, out):
    sys_ = load_system(args.file)
    box = _box(args.box)
    convention = ("IdealConvention" if args.convention == "ideal"
                  else "QuotientConvention")
    table = betti_table(sys_, box=box, convention=convention)
    out.write(table.to_json() + "\n" if args.json else table.to_text() + "\n")
    return 0


def cmd_classify(args, out):
    sys_ = load_system(args.file)
    fb = extract_factorization(sys_)
    out.write(classify(sys_, fb).to_json() + "\n")
    return 0


def _render_diff(mat):
    rows = []
    for row in mat:
        rows.append("[ " + " , ".join("0" if e is None else e.to_text()
                                      for e in row) + " ]")
    return "\n".join(rows)


def cmd_resolve(args, out):
    sys_ = load_system(args.file)
    bp = basepoint_free(sys_)
    if bp.kind != "Free":
        raise ComputationError(f"system is not basepoint-free: {bp}")
    if args.case == "conic":
        rc = conic_resolution(sys_)
    else:
        fb = extract_factorization(sys_)
        if fb is None:
            raise ComputationError("no (1,0) x (0,n) factorization found")
        try:
            rc = three_point_resolution(fb)
        except ConicRedirect as e:
            raise ComputationError(f"{e}; rerun with --case conic")
    for j, diff in enumerate(rc.diffs, start=1):
        out.write(f"d{j} (degrees {rc.shifts[j - 1]} <- {rc.shifts[j]})\n")
        out.write(_render_diff(diff) + "\n")
    report = verify_resolution(rc)
    out.write(str(report) + "\n")
    return 0 if report.passed else 1


def cmd_generic(args, out):
    sys_ = load_system(args.file)
    out.write(str(is_generic(sys_, _generic_box(args.box, sys_.d))) + "\n")
    return 0


def cmd_lab(args, out):
    d = _degree(args.d)
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    cfg = labmod.ExperimentConfig(
        d=d, trials=args.trials, seed=args.seed,
        field=parse_field(args.field),
        box=_generic_box(args.box, d))
    if args.csv:
        _check_output_dir(args.csv)
    rep = labmod.generic_report(cfg, collect_grid=bool(args.csv))
    if args.csv:
        rep.write_csv(args.csv)
    out.write((rep.to_json() if args.json else rep.summary()) + "\n")
    return 0


def cmd_plot(args, out):
    sys_ = load_system(args.file)
    box = _box(args.box)
    _check_output_dir(args.output)
    points = plot_points(sys_, box)
    emit_svg(PlotSpec(points, sys_.d, box), args.output)
    out.write(f"wrote {args.output} ({len(points)} markers)\n")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="bigres",
                                 description="bigraded syzygies of three "
                                             "(d1,d2)-forms on P1 x P1")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="bigraded Betti table")
    p.add_argument("file")
    p.add_argument("--box", required=True)
    p.add_argument("--convention", choices=("ideal", "quotient"),
                   default="ideal")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("h1", help="grid of dim (H1)_a")
    p.add_argument("file")
    p.add_argument("--box", required=True)
    p.set_defaults(fn=cmd_h1)

    p = sub.add_parser("hf", help="grid of dim (R/I)_a")
    p.add_argument("file")
    p.add_argument("--box", required=True)
    p.set_defaults(fn=cmd_hf)

    p = sub.add_parser("chi", help="chi, chi_+/-, and nd grids")
    p.add_argument("--d", required=True)
    p.add_argument("--box", required=True)
    p.set_defaults(fn=cmd_chi)

    p = sub.add_parser("nd", help="bare grid of n_d(a)")
    p.add_argument("--d", required=True)
    p.add_argument("--box", required=True)
    p.set_defaults(fn=cmd_nd)

    p = sub.add_parser("classify", help="structure verdict as JSON")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("resolve", help="explicit resolution templates")
    p.add_argument("file")
    p.add_argument("--case", choices=("conic", "threepoint"), required=True)
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("generic", help="phi full-rank verdict on the box")
    p.add_argument("file")
    p.add_argument("--box")
    p.set_defaults(fn=cmd_generic)

    p = sub.add_parser("lab", help="seeded random experiments")
    p.add_argument("--d", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="32003")
    p.add_argument("--box")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_lab)

    p = sub.add_parser("plot", help="SVG of beta1 markers over the nd region")
    p.add_argument("file")
    p.add_argument("--box", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_plot)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args, _sys.stdout)
    except UsageError as e:
        print(f"error: {e}", file=_sys.stderr)
        return 2
    except (ComputationError, ImpossibleFactorization) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    _sys.exit(main())
