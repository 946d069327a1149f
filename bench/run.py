"""qcframe benchmark: reference-scaled pass and set-up times per workload.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload {structure,lie,normality} --seed N \
        --seconds S --trace {0,1}

The run imports qcframe from ``src/`` of the checkout, builds the objects
the workload shares (set-up, done ``SETUP_REPEATS`` times, each time from
a fresh import), then repeats whole passes over the workload's operation
list until ``--seconds`` have gone by and at least ``MIN_PASSES`` passes
are done.  Every operation's output is checked (``checks.py``).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are ``pass_s``, ``setup_s`` and ``peak_rss_mb``; with
``--trace 1`` they are the per-layer metrics of ``tracing.PER_LAYER``,
and the spans are written to ``bench/out/``.  Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import tracing
import workloads
from clock import Segment, time_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3
MIN_PASSES = 3


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed, and whether every failure is a
    known fault."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, op, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if not op.known_fault:
                self.correct = False
            log(f"  FAILED {op.label}: {problems[0]}"
                + ("  (known fault)" if op.known_fault else ""))


def drive(ops, segment, tally, tracer=None):
    """Run the operations of one generator, timing each in ``segment``."""
    out = None
    while True:
        try:
            op = ops.send(out)
        except StopIteration:
            return
        fn = op.run if tracer is None else (lambda run=op.run: tracer.call(run))
        try:
            out = segment.run(fn)
            problems = op.check(out)
        except Exception as ex:  # an operation or its check broke: count it
            out, problems = None, [f"{type(ex).__name__}: {ex}"]
        tally.record(op, problems)


def setup(workload_cls, seed, segment, tally, tracer=None):
    lib = segment.run(workloads.load_qcframe)
    if not os.path.abspath(lib.cli.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"qcframe was imported from {lib.cli.__file__}, not from {ROOT}/src")
    if tracer is not None:
        tracer.install(lib)
    wl = workload_cls(lib, seed, OUT)
    drive(wl.setup(), segment, tally, tracer)
    return wl


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one fixed string-hash seed: the same dict layouts and set orders
        # in every run, so counts repeat exactly and layouts add no spread
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qcframe", "__init__.py")):
        log(f"no qcframe sources under {ROOT}/src")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)

    cls = workloads.WORKLOADS[args.workload]
    # set-up steps are checked but not counted: attempted and failed count
    # pass operations only, so the failed share is the same in every run
    setup_tally, tally = Tally(), Tally()
    time_reference()  # warm the reference kernel

    tracer = tracing.Tracer() if args.trace else None
    setup_s = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        seg = Segment()
        start = tracer.mark() if tracer else None
        wl = setup(cls, args.seed, seg, setup_tally, tracer)
        setup_marks = (start, tracer.mark()) if tracer else None
        setup_s.append(sum(seg.close()))
        log(f"{args.workload}: setup {setup_s[-1]:.3f} s (scaled), {sum(seg.raw):.3f} s raw")

    pass_s, phases, detail = [], [], []
    t_start = time.perf_counter()
    while len(pass_s) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        seg = Segment()
        wl.counters = dict.fromkeys(wl.counters, 0)
        start = tracer.mark() if tracer else None
        drive(wl.operations(), seg, tally, tracer)
        scaled = seg.close()
        pass_s.append(sum(scaled))
        detail.append({"scaled_s": scaled, "raw_s": seg.raw, "ref_s": seg.refs})
        if tracer:
            phases.append((tracer.phase_metrics(start, tracer.mark()), dict(wl.counters)))
        log(f"{args.workload}: pass {len(pass_s)} {pass_s[-1]:.3f} s (scaled), "
            f"{sum(seg.raw):.3f} s raw")

    if tracer:
        metrics = per_layer(tracer, wl, setup_marks, phases)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed,
                     "pass_s": pass_s, "passes": len(pass_s)})
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"pass_s": {"value": statistics.median(pass_s), "unit": "s"},
                   "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MiB"}}
    result = {"correct": setup_tally.correct and tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, pass_s=pass_s, setup_s=setup_s, passes=detail), fh)
    print(json.dumps(result))
    return 0


def per_layer(tracer, wl, setup_marks, phases):
    """Per-layer metrics: the median over passes, except the names the
    workload builds in set-up, which are read from the traced set-up."""
    setup_vals = tracer.phase_metrics(*setup_marks)
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if base in wl.setup_spans:
            value = setup_vals.get(name, 0)
        else:
            value = statistics.median(
                counters.get(name, vals.get(name, 0)) for vals, counters in phases)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
