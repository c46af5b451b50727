"""Seeded workloads: inputs from the seed, one timed pass, an untimed gate.

Each workload has three parts:

- ``setup(seed)`` builds the inputs (coefficient vectors, argv) from the seed
  alone, filtering draws through ``segre.basepoint_free`` where needed;
- ``run(inputs)`` is the timed pass.  It rebuilds every ``SystemF`` from the
  coefficient vectors, so the per-system memo caches, keyed by object
  identity, start empty as they do for each new system a user passes in;
- ``check(inputs, outputs)`` is the correctness gate, run outside the timed
  region; it returns ``(attempted, failed, notes)`` counted in systems.

A system that raises inside the pass is recorded as its exception and
counted as failed by the gate.

``speed_exponent`` is how a workload's time follows the speed probe of
worker.py: the slope of log(time) on log(probe time), fitted over 21 timed
pieces of each workload, interleaved, on a 2-vCPU Xeon whose speed swung by
a third (correlation 0.93-0.98).  Eliminations of large GF(p) matrices run
mostly in numpy and BLAS and slow down half as much as the interpreter;
Fraction arithmetic slows down more.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIELD_P = 32003


def _draw_bpf(fld, d, rng):
    """Coefficient vectors of a basepoint-free system of degree d."""
    from bigres.bipoly import BiPoly, SystemF, strand_dim
    from bigres.segre import basepoint_free
    dim = strand_dim(d)
    while True:
        vecs = [[fld.rand(rng) for _ in range(dim)] for _ in range(3)]
        try:
            sys_ = SystemF(fld, d, [BiPoly.from_vector(fld, d, v) for v in vecs])
        except ValueError:
            continue
        if basepoint_free(sys_).kind == "Free":
            return vecs


def _system(fld, d, vecs):
    from bigres.bipoly import BiPoly, SystemF
    return SystemF(fld, d, [BiPoly.from_vector(fld, d, v) for v in vecs])


# ------------------------------------------------------------------ tor-1-42

class Tor142:
    """One generic (1,42) system: is_generic, then betti_table on the golden
    non-Koszul support plus 2d, gated against tests/data/beta1_1_42.json."""

    name = "tor-1-42"
    speed_exponent = 0.5
    d = (1, 42)
    # (33,63) alone takes about 32 s on a 2-core Xeon, more than the other
    # fifteen degrees together, which still have strands with dim R_b above 1024
    left_out = ((33, 63),)
    fires = ("exactcore.rref.calls", "exactcore.rref.self_s", "exactcore.rref.cells",
             "exactcore.rref.small.calls", "exactcore.rref.small.self_s",
             "exactcore.rref.mid.calls", "exactcore.rref.mid.self_s",
             "exactcore.rref.large.calls", "exactcore.rref.large.self_s",
             "exactcore.mat_rank.calls", "exactcore.mat_rank.self_s",
             "bipoly.mul_matrix.calls", "bipoly.mul_matrix.self_s",
             "strands.phi_matrices.self_s", "strands.is_generic.self_s",
             "strands.hf_quotient.self_s", "betti.betti_table.self_s")

    @classmethod
    def expected(cls):
        with open(os.path.join(ROOT, "tests", "data", "beta1_1_42.json")) as fh:
            golden = json.load(fh)["nonkoszul_beta1"]
        return {(a1, a2): m for a1, a2, m in golden if (a1, a2) not in cls.left_out}

    @classmethod
    def setup(cls, seed):
        from bigres.exactcore import GF
        fld = GF(FIELD_P)
        vecs = _draw_bpf(fld, cls.d, random.Random(seed))
        expected = cls.expected()
        degrees = sorted(set(expected) | {(2 * cls.d[0], 2 * cls.d[1])})
        return {"field": fld, "vecs": vecs, "degrees": degrees, "expected": expected}

    @classmethod
    def run(cls, inputs):
        from bigres.strands import is_generic
        from bigres.betti import betti_table, nonkoszul_beta1
        try:
            sys_ = _system(inputs["field"], cls.d, inputs["vecs"])
            generic = is_generic(sys_).generic
            tab = betti_table(sys_, degrees=inputs["degrees"])
            return {"generic": generic, "beta1": nonkoszul_beta1(tab, cls.d)}
        except Exception as exc:  # counted as a failed system by check()
            return {"error": repr(exc)}

    @staticmethod
    def check(inputs, out):
        if "error" in out:
            return 1, 1, [out["error"]]
        notes = []
        if not out["generic"]:
            notes.append("is_generic: NotGeneric")
        if out["beta1"] != inputs["expected"]:
            notes.append(f"beta1 {sorted(out['beta1'].items())} != golden")
        return 1, int(bool(notes)), notes


# ----------------------------------------------------------------- sweep-gfp

class SweepGFp:
    """The property-suite mix: K basepoint-free systems per shape over
    GF(32003), each swept over the box (3d1+3, 3d2+3)."""

    name = "sweep-gfp"
    speed_exponent = 0.9
    shapes = ((1, 1), (1, 2), (1, 3), (1, 5), (2, 2))
    per_shape = 1
    fires = ("exactcore.rref.calls", "exactcore.rref.self_s", "exactcore.rref.cells",
             "exactcore.rref.small.calls", "exactcore.rref.small.self_s",
             "exactcore.rref.repeat_frac",
             "exactcore.mat_rank.calls", "exactcore.mat_rank.self_s",
             "exactcore.kernel_data.calls", "exactcore.kernel_data.self_s",
             "exactcore.mat_mul.self_s",
             "bipoly.mul_matrix.calls", "bipoly.mul_matrix.self_s",
             "strands.phi_matrices.self_s", "strands.h1_dim.self_s",
             "strands.hf_quotient.self_s", "strands.koszul_strand_homology.self_s",
             "betti.betti_table.self_s", "betti.mcomplex_dims.self_s",
             "betti.route_equality_report.self_s")

    @classmethod
    def setup(cls, seed):
        from bigres.exactcore import GF
        fld = GF(FIELD_P)
        rng = random.Random(seed)
        systems = [(d, _draw_bpf(fld, d, rng))
                   for d in cls.shapes for _ in range(cls.per_shape)]
        return {"field": fld, "systems": systems}

    @staticmethod
    def box_grid(d):
        return [(a1, a2) for a1 in range(3 * d[0] + 4) for a2 in range(3 * d[1] + 4)]

    @classmethod
    def run(cls, inputs):
        from bigres.strands import h1_dim, hf_quotient, koszul_strand_homology
        from bigres.betti import route_equality_report
        outs = []
        for d, vecs in inputs["systems"]:
            try:
                sys_ = _system(inputs["field"], d, vecs)
                grid = cls.box_grid(d)
                cells = [(a, hf_quotient(sys_, a), h1_dim(sys_, a),
                          koszul_strand_homology(sys_, a, 2),
                          koszul_strand_homology(sys_, a, 3)) for a in grid]
                outs.append({"d": d, "cells": cells,
                             "rows": route_equality_report(sys_, grid)})
            except Exception as exc:  # counted as a failed system by check()
                outs.append({"d": d, "error": repr(exc)})
        return outs

    @staticmethod
    def check(inputs, outs):
        from bigres.combinat import chi, nd
        failed, notes = 0, []
        for out in outs:
            d = out["d"]
            bad = [out["error"]] if "error" in out else []
            for a, hf, h1, h2, h3 in out.get("cells", ()):
                if hf - h1 != chi(d, a):
                    bad.append(f"hf - h1 != chi at {a}")
                if h1 < nd(d, a):
                    bad.append(f"h1 < nd at {a}")
                if h2 or h3:
                    bad.append(f"H2/H3 nonzero at {a}")
            bad += [f"gen_match false at {r['a']}" for r in out.get("rows", ())
                    if not r["gen_match"]]
            if bad:
                failed += 1
                notes.append(f"d={d}: " + "; ".join(bad[:3]))
        return len(outs), failed, notes


# --------------------------------------------------------------------- lab-q

class LabQ:
    """``bigres lab --d 1,3 --field Q --seed S --trials K --json`` through
    ``bigres.cli.main``, gated by the report schema and the histogram the
    GF(p) route gives for this shape."""

    name = "lab-q"
    speed_exponent = 1.3
    trials = 1
    # non-Koszul beta1 of every generic (1,3) system
    generic_beta1 = {"1,9": 1, "3,5": 3}
    fires = ("exactcore.rref.calls", "exactcore.rref.self_s", "exactcore.rref.cells",
             "exactcore.rref.small.calls", "exactcore.rref.small.self_s",
             "exactcore.mat_rank.calls", "exactcore.mat_rank.self_s",
             "bipoly.mul_matrix.calls", "bipoly.mul_matrix.self_s",
             "strands.phi_matrices.self_s", "strands.h1_dim.self_s",
             "strands.hf_quotient.self_s", "strands.is_generic.self_s",
             "betti.betti_table.self_s",
             "segre.basepoint_free.calls", "segre.basepoint_free.self_s",
             "lab.generic_report.self_s", "lab.rs_check.self_s", "cli.main.self_s")

    @classmethod
    def setup(cls, seed):
        from bigres.cli import build_parser
        argv = ["lab", "--d", "1,3", "--field", "Q", "--seed", str(seed),
                "--trials", str(cls.trials), "--json"]
        build_parser().parse_args(argv)  # usage errors surface in setup
        with open(os.path.join(ROOT, "docs", "schemas", "lab_report.schema.json")) as fh:
            schema = json.load(fh)
        return {"argv": argv, "schema": schema}

    @staticmethod
    def run(inputs):
        from bigres import cli
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(inputs["argv"])
            return {"rc": rc, "stdout": buf.getvalue()}
        except Exception as exc:  # counted as failed systems by check()
            return {"error": repr(exc)}

    @classmethod
    def check(cls, inputs, out):
        import jsonschema
        k = cls.trials
        if "error" in out:
            return k, k, [out["error"]]
        if out["rc"] != 0:
            return k, k, [f"exit code {out['rc']}"]
        try:
            rep = json.loads(out["stdout"])
            jsonschema.validate(rep, inputs["schema"])
        except (ValueError, jsonschema.ValidationError) as exc:
            return k, k, [f"report invalid: {exc}"]
        n = rep["genericCount"]
        want = {a: m * n for a, m in cls.generic_beta1.items()} if n else {}
        if rep["bettiHistogram"] != want:
            return k, k, [f"bettiHistogram {rep['bettiHistogram']} != {want}"]
        bad = {row[0] for row in rep["mismatches"]}
        bad |= {row[0] for row in rep["rsViolations"] if row[4]}
        notes = [f"trial {t}: H1 mismatch or escalated rs violation" for t in sorted(bad)]
        return k, len(bad), notes


WORKLOADS = {w.name: w for w in (Tor142, SweepGFp, LabQ)}
