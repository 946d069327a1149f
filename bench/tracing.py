"""Spans and counters around qcframe's public functions.

The tracer wraps each function in ``TARGETS`` from the outside: a module
function is replaced in every qcframe module that binds it (so calls
between modules are seen too), a method is replaced on its class.  Each
wrapped call records a span ``(name, start, end, parent)``; the two
hottest entry points -- ``Poly.__mul__`` and ``GaussRational.__init__``
-- are only counted.  Spans stay in memory until the run writes them out.

Recording is on only while an operation (or a set-up step) runs, so the
benchmark's own correctness checks, which also call qcframe, are not
counted.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

# (module, attribute path) of every function that gets a span
TARGETS = (
    ("forms", "differential"), ("forms", "Form.wedge"),
    ("rules", "build_rules"), ("rules", "substitute_flat"),
    ("rules", "bianchi_residuals"), ("rules", "star_two_path_check"),
    ("rules", "star_symmetry_check"),
    ("model", "SpModel.to_matrix"), ("model", "SpModel.from_matrix"),
    ("model", "SpModel.bracket"), ("model", "SpModel.bracket_fast"),
    ("model", "SpModel.killing_gram"), ("model", "SpModel.calibration"),
    ("model", "SpModel.dual_frames"), ("model", "jacobi_residual"),
    ("model", "grading_check"), ("model", "g1_compose"), ("model", "g1_to_matrix"),
    ("tensors", "symmetrize"), ("tensors", "jmap"),
    ("cochains", "random_components"), ("cochains", "assemble_kappa"),
    ("cochains", "kostant_codiff_direct"), ("cochains", "kostant_codiff_closed"),
    ("cochains", "trace_conditions"), ("cochains", "homogeneity_classify"),
    ("cochains", "kappa_coordinate_forms"), ("cochains", "codiff_closed_constants"),
    ("heisenberg", "chart_certificates"), ("heisenberg", "reeb_fields"),
    ("heisenberg", "lex_coframe"),
    ("cli", "run"),
)
# (module, attribute path, metric name) of the count-only entry points
COUNTED = (
    ("forms", "Poly.__mul__", "forms.Poly.mul.calls"),
    ("gauss", "GaussRational.__init__", "gauss.new"),
)

# the per-layer metrics, as reported: (name, unit)
PER_LAYER = (
    [("gauss.new", "count")]
    + [(f"forms.{m}", u) for m, u in (
        ("differential.calls", "count"), ("differential.self_s", "s"),
        ("Form.wedge.calls", "count"), ("Form.wedge.self_s", "s"),
        ("Poly.mul.calls", "count"))]
    + [(f"rules.{f}.s", "s") for f in (
        "build_rules", "substitute_flat", "bianchi_residuals",
        "star_two_path_check", "star_symmetry_check")]
    + [(f"model.{m}", u) for m, u in (
        ("SpModel.to_matrix.calls", "count"), ("SpModel.from_matrix.calls", "count"),
        ("SpModel.from_matrix.self_s", "s"), ("SpModel.bracket.calls", "count"),
        ("SpModel.bracket.self_s", "s"), ("jacobi_residual.s", "s"),
        ("grading_check.s", "s"), ("SpModel.calibration.s", "s"),
        ("g1_compose.s", "s"), ("g1_to_matrix.s", "s"),
        ("SpModel.killing_gram.s", "s"), ("SpModel.dual_frames.s", "s"),
        ("SpModel.bracket_fast.calls", "count"), ("SpModel.bracket_fast.self_s", "s"))]
    + [(f"tensors.{m}", u) for m, u in (
        ("symmetrize.calls", "count"), ("symmetrize.self_s", "s"), ("jmap.self_s", "s"))]
    + [(f"cochains.{f}.s", "s") for f in (
        "random_components", "assemble_kappa", "kostant_codiff_direct",
        "kostant_codiff_closed", "trace_conditions", "homogeneity_classify",
        "kappa_coordinate_forms", "codiff_closed_constants")]
    + [(f"heisenberg.{f}.s", "s") for f in (
        "chart_certificates", "reeb_fields", "lex_coframe")]
    + [("cli.run.s", "s"), ("cli.report_bytes", "count")]
)

Span = Tuple[str, float, float, int]


def _resolve(owner, path: str):
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: List[int] = []

    # -- installation --------------------------------------------------------

    def install(self, lib) -> None:
        """Wrap every target in the freshly imported qcframe ``lib``."""
        modules = [getattr(lib, m) for m in vars(lib)]
        for mod, path in TARGETS:
            owner, attr = _resolve(getattr(lib, mod), path)
            orig = getattr(owner, attr)
            wrapped = self._span_wrapper(f"{mod}.{path}", orig)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:  # rebind in every module that imported the function
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, name, wrapped)
        for mod, path, metric in COUNTED:
            owner, attr = _resolve(getattr(lib, mod), path)
            setattr(owner, attr, self._count_wrapper(metric, getattr(owner, attr)))

    def _span_wrapper(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[calls] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
        return wrapper

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- recording -----------------------------------------------------------

    def call(self, fn):
        """Run ``fn`` with recording on."""
        self.active = True
        try:
            return fn()
        finally:
            self.active = False

    def mark(self) -> Tuple[int, Counter]:
        """A position in the record, to cut it into phases."""
        return len(self.spans), Counter(self.counts)

    def phase_metrics(self, start: Tuple[int, Counter], end: Tuple[int, Counter]) -> Dict[str, float]:
        """Inclusive seconds (``.s``), self seconds (``.self_s``) and call
        counts (``.calls``) of every traced name between two marks."""
        (i0, c0), (i1, c1) = start, end
        spans = self.spans[i0:i1]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= i0:
                child[parent - i0] += t1 - t0
        out: Dict[str, float] = Counter()
        for k, (name, t0, t1, parent) in enumerate(spans):
            out[name + ".self_s"] += (t1 - t0) - child[k]
            # inclusive time counts only the outermost span of a name
            p = parent
            while p >= i0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < i0:
                out[name + ".s"] += t1 - t0
        for key in c1:
            out[key] = c1[key] - c0[key]
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write every span, with names interned, as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra, names=names, fields=["name", "start_us", "end_us", "parent"],
                   spans=[[index[n], round((t0 - base) * 1e6), round((t1 - base) * 1e6), p]
                          for n, t0, t1, p in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
