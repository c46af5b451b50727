"""Span tracer that times the bigres layers from outside the package.

Every public function of the traced modules is replaced by a wrapper that
records a span (name, start, end, parent).  ``from .exactcore import rref``
copies the reference into the importing module, so the wrapper is bound
under every module-level name in the package that refers to the function,
not only in the defining module.  Bindings are restored by ``uninstall``,
so untraced passes run the program unchanged.

``rref`` spans also record the matrix shape and a content digest; the time
spent hashing is excluded from every self time and shows up only in the
trace overhead.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import inspect
import json
import sys
import time

LAYERS = ("exactcore", "bipoly", "strands", "betti", "segre", "lab", "cli")

# rref size classes by max(rows, cols): (name, upper bound exclusive)
RREF_CLASSES = (("small", 256), ("mid", 1024), ("large", None))

# span record fields
NAME, START, END, PARENT, SKIP = range(5)


def _digest(m):
    """(field, shape, content) key of a matrix, to count repeated eliminations."""
    data = m.data
    if hasattr(data, "tobytes"):
        content = hashlib.blake2b(data.tobytes(), digest_size=16).digest()
    else:
        content = hash(tuple(tuple(row) for row in data))
    return (m.field, m.rows, m.cols, content)


class Tracer:
    """Install/uninstall span wrappers on the bigres layers; keep spans per pass."""

    def __init__(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bigres.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    originals[obj] = f"{layer}.{name}"
        self.spans = []          # records of the pass in progress
        self.rref_info = {}      # span index -> (rows, cols, digest)
        self.passes = []         # (spans, rref_info) of finished passes
        self._stack = []
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        self._bindings = []
        for modname, mod in list(sys.modules.items()):
            if modname != "bigres" and not modname.startswith("bigres."):
                continue
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val in wrappers:
                    self._bindings.append((mod, attr, val, wrappers[val]))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_rref = name == "exactcore.rref"
        rref_info = self.rref_info

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            rec = [name, clock(), 0.0, parent, 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                if is_rref:
                    t0 = clock()
                    m = args[0] if args else kwargs["m"]
                    rref_info[idx] = (m.rows, m.cols, _digest(m))
                    rec[SKIP] += clock() - t0
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][SKIP] += rec[END] - rec[START]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @property
    def binding_count(self):
        return len(self._bindings)

    def install(self):
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def end_pass(self):
        """Move the finished pass's spans out of the live buffers."""
        self.passes.append((list(self.spans), dict(self.rref_info)))
        self.spans.clear()
        self.rref_info.clear()

    def dump(self, path):
        """Write every recorded span as one gzipped JSON array per line:
        [pass, name, start, end, parent index]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for k, (spans, _) in enumerate(self.passes):
                for rec in spans:
                    fh.write(json.dumps([k, rec[NAME], rec[START], rec[END],
                                         rec[PARENT]]) + "\n")


def pass_metrics(spans, rref_info, wall):
    """Per-layer counts and self times of one traced pass of ``wall`` seconds."""
    calls, self_s = {}, {}
    covered = 0.0
    for rec in spans:
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (rec[END] - rec[START] - rec[SKIP])
        if rec[PARENT] < 0:
            covered += rec[END] - rec[START]
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    cells = repeats = 0
    seen = set()
    for cls, _ in RREF_CLASSES:
        out[f"exactcore.rref.{cls}.calls"] = 0
        out[f"exactcore.rref.{cls}.self_s"] = 0.0
    for idx, (m, n, key) in rref_info.items():
        rec = spans[idx]
        cells += m * n * min(m, n)
        if key in seen:
            repeats += 1
        seen.add(key)
        cls = next(c for c, hi in RREF_CLASSES if hi is None or max(m, n) < hi)
        out[f"exactcore.rref.{cls}.calls"] += 1
        out[f"exactcore.rref.{cls}.self_s"] += rec[END] - rec[START] - rec[SKIP]
    out["exactcore.rref.cells"] = cells
    out["exactcore.rref.repeat_frac"] = repeats / len(rref_info) if rref_info else 0.0
    out["trace.coverage_frac"] = covered / wall if wall > 0 else 0.0
    return out
