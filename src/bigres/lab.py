"""Seeded random experiments: genericity frequency, dimension conjecture data,
and structure detection on the nongeneric locus.

Everything here reports; nothing here asserts a conjecture.  The only hard
aborts are theorem violations (dim H1 below the combinatorial lower bound,
or a quotient Hilbert function below chi_+), which indicate a bug rather
than interesting mathematics.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field as dc_field

from .exactcore import GF, DEFAULT_PRIME, ExactMatrix, mat_rank
from .bipoly import BiPoly, SystemF, strand_dim, theta_matrix
from .combinat import chi, nd, pos_part
from .strands import check_box, critical_ranges, h1_dim, hf_quotient, is_generic
from .betti import box_nonkoszul_beta1
from .segre import (ImpossibleFactorization, basepoint_free, detect_conic,
                    extract_factorization, square_strand_singular)

MAX_REJECTIONS = 100


def field_label(fld):
    return f"GF({fld.p})" if fld.is_prime_field else "Q"


@dataclass
class ExperimentConfig:
    d: tuple
    trials: int = 10
    field: object = None
    seed: int = 0
    box: tuple = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.field is None:
            self.field = GF(DEFAULT_PRIME)
        if self.box is None:
            self.box = (4 * self.d[0], 4 * self.d[1])
        check_box(self.d, self.box)


def _draw(cfg, trial):
    """(system, rejection count) for one trial; deterministic in (seed, trial)."""
    rng = random.Random(cfg.seed ^ trial)
    fld = cfg.field
    dim = strand_dim(cfg.d)
    rejections = 0
    while rejections <= MAX_REJECTIONS:
        vecs = [[fld.rand(rng) for _ in range(dim)] for _ in range(3)]
        try:
            sys = SystemF(fld, cfg.d, [BiPoly.from_vector(fld, cfg.d, v) for v in vecs])
        except ValueError:
            rejections += 1
            continue
        if basepoint_free(sys).kind == "Free":
            return sys, rejections
        rejections += 1
    raise RuntimeError(f"no basepoint-free sample after {MAX_REJECTIONS} rejections "
                       f"(trial {trial}): tiny field or a bug")


def sample_system(cfg, trial=0):
    return _draw(cfg, trial)[0]


@dataclass
class ExperimentReport:
    d: tuple
    trials: int
    seed: int
    field_name: str
    box: tuple
    generic_count: int = 0
    basepoint_rejections: int = 0
    mismatches: list = dc_field(default_factory=list)    # (trial, a, dimH1, nd)
    rs_violations: list = dc_field(default_factory=list) # (trial, a, hf, chi+, escalated)
    betti_histogram: dict = dc_field(default_factory=dict)
    nongeneric: list = dc_field(default_factory=list)    # (trial, witness)
    grid_rows: list = dc_field(default_factory=list)     # optional CSV payload

    @property
    def fraction_generic(self):
        return self.generic_count / self.trials if self.trials else 0.0

    def to_json(self):
        payload = {
            "d": list(self.d), "trials": self.trials, "seed": self.seed,
            "field": self.field_name, "box": list(self.box),
            "genericCount": self.generic_count,
            "basepointRejections": self.basepoint_rejections,
            "mismatches": [[t, list(a), h, n] for t, a, h, n in self.mismatches],
            "rsViolations": [[t, list(a), hf, cp, esc]
                             for t, a, hf, cp, esc in self.rs_violations],
            "bettiHistogram": {f"{a1},{a2}": m
                               for (a1, a2), m in sorted(self.betti_histogram.items())},
            "nongeneric": [[t, list(w) if w else None] for t, w in self.nongeneric],
        }
        return json.dumps(payload, sort_keys=True)

    def summary(self):
        lines = [f"d={self.d} trials={self.trials} seed={self.seed} "
                 f"field={self.field_name} box={self.box}",
                 f"generic: {self.generic_count}/{self.trials} "
                 f"(fraction {self.fraction_generic:.3f}), "
                 f"basepoint rejections: {self.basepoint_rejections}"]
        if self.nongeneric:
            lines.append("nongeneric witnesses: "
                         + ", ".join(f"trial {t} at {w}" for t, w in self.nongeneric))
        lines.append(f"dimension mismatches (dim H1 != n_d): {len(self.mismatches)}")
        esc = [v for v in self.rs_violations if v[4]]
        lines.append(f"quotient-vs-chi+ violations: {len(self.rs_violations)} "
                     f"({len(esc)} escalated ERRORs)")
        if self.betti_histogram:
            hist = " ".join(f"{a}:{m}" for a, m in sorted(self.betti_histogram.items()))
            lines.append(f"beta1 histogram (non-Koszul, generic trials): {hist}")
        return "\n".join(lines)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "a1", "a2", "dimH1", "nd", "hf", "chi"])
            w.writerows(self.grid_rows)


def rs_check(sys, box):
    """Compare dim(R/I)_a against chi_+ on the box.

    hf - chi_+ == dim H1 - n_d, so a deficit is a theorem violation and
    aborts.  Excesses are violations; those outside the critical ranges are
    escalated (there the equality is proved, not conjectured: phi1 and
    phi2 have full rank there on a basepoint-free net, by the proof in
    strands.is_generic).
    """
    d = sys.d
    crit = set(critical_ranges(d, box))
    out = []
    for a1 in range(box[0] + 1):
        for a2 in range(box[1] + 1):
            a = (a1, a2)
            hf = hf_quotient(sys, a)
            cp = pos_part(chi(d, a))
            if hf < cp:
                raise RuntimeError(f"internal error: hf {hf} < chi_+ {cp} at {a}")
            if hf > cp:
                out.append((a, hf, cp, a not in crit))
    return out


def generic_report(cfg, planted=(), collect_grid=False):
    """Run cfg.trials random draws (plus planted systems) and tabulate.

    Generic trials are checked pointwise against n_d on the box; dim H1
    below n_d aborts (proved bound), above n_d is recorded as a mismatch.
    The beta1 histogram aggregates non-Koszul first syzygies over the
    generic trials only (betti.box_nonkoszul_beta1 on the box).
    """
    rep = ExperimentReport(cfg.d, cfg.trials + len(planted), cfg.seed,
                           field_label(cfg.field), cfg.box)
    d = cfg.d
    runs = []
    for t in range(cfg.trials):
        sys, rej = _draw(cfg, t)
        rep.basepoint_rejections += rej
        runs.append((t, sys))
    runs += [(cfg.trials + j, sys) for j, sys in enumerate(planted)]
    for t, sys in runs:
        verdict = is_generic(sys, cfg.box)
        if not verdict.generic:
            rep.nongeneric.append((t, verdict.witness))
            continue
        rep.generic_count += 1
        for a1 in range(cfg.box[0] + 1):
            for a2 in range(cfg.box[1] + 1):
                a = (a1, a2)
                h1 = h1_dim(sys, a)
                lower = nd(d, a)
                if h1 < lower:
                    raise RuntimeError(
                        f"internal error: dim H1 {h1} < n_d {lower} at {a}")
                if h1 != lower:
                    rep.mismatches.append((t, a, h1, lower))
                if collect_grid:
                    rep.grid_rows.append(
                        [t, a1, a2, h1, lower, hf_quotient(sys, a), chi(d, a)])
        for a, m in box_nonkoszul_beta1(sys, cfg.box).items():
            rep.betti_histogram[a] = rep.betti_histogram.get(a, 0) + m
    rep.rs_violations = [(t,) + v for t, sys in runs for v in rs_check(sys, cfg.box)]
    return rep


# ---------------------------------------------------------- structure probes

@dataclass
class ProbeRow:
    label: str
    generic: bool
    witness: tuple | None
    detectors: list
    note: str

    def to_json(self):
        return json.dumps({"label": self.label, "generic": self.generic,
                           "witness": list(self.witness) if self.witness else None,
                           "detectors": self.detectors, "note": self.note},
                          sort_keys=True)


def probe_system(sys, label, box=None):
    """Which structural detectors explain a nongeneric system, if any."""
    verdict = is_generic(sys, box)
    if verdict.generic:
        return ProbeRow(label, True, None, [], "generic")
    detectors = []
    if sys.d[0] == 1:
        try:
            if detect_conic(sys) is not None:
                detectors.append("conic")
        except ImpossibleFactorization:
            pass
        if extract_factorization(sys) is not None:
            detectors.append("factorized")
        rows = [g.coeff_vector() for row in theta_matrix(sys.polys) for g in row]
        if mat_rank(ExactMatrix.from_rows(sys.field, rows)) <= 4:
            detectors.append("pencil")
        if tuple(sys.d) == (1, 5):
            if square_strand_singular(sys)[1]:
                detectors.append("square")
    note = "explained" if detectors else "unexplained (conjecture candidate)"
    return ProbeRow(label, False, verdict.witness, detectors, note)
