#!/usr/bin/env python3
"""chipfire benchmark: one workload, one fixed seeded sequence, one process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It imports chipfire from ``src/`` beside
this directory and refuses to run without it.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it runs the same sequence with a
span around every traced library function and prints the per-layer
metrics.  Times are rescaled to a reference core speed by the probe in
``speed.py``.  The last line of standard output is one JSON object; a run
record (versions, core count, git SHA, seeds, latencies; the spans of a
traced run) goes to ``benchmark/results/``.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Fixed before the interpreter starts: hash order and single-threaded BLAS.
# Bytecode is compiled afresh in every run, so set-up never depends on what
# an earlier run left in __pycache__.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

MIN_OPS = 40  # a tail percentile needs 10 operations beyond it
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def pin_environment():
    """Re-exec this script under PINNED_ENV unless it already holds."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def tail_percentile(n_ops):
    """Highest listed percentile with at least ten operations beyond it."""
    for p in TAIL_PERCENTILES:
        if n_ops * (100.0 - p) / 100.0 >= 10:
            return p
    raise ValueError("fewer than 40 operations have no tail")


def nearest_rank(sorted_values, p):
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(k) - 1]


def git_sha():
    """HEAD's commit from .git without starting git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def set_up(name, cls, seed, n_ops, rep):
    """Build the workload, generate its inputs, run its warm-up operations."""
    wl = cls(seed)
    inputs = [
        wl.make_input(random.Random(f"{name}/{seed}/{i}"), i) for i in range(n_ops)
    ]
    for j in range(wl.warmup):
        wl.run(wl.make_input(random.Random(f"{name}/{seed}/warmup{rep}/{j}"), j))
    return wl, inputs


def time_sequence(wl, inputs, tracer, traced):
    """Time each operation alone and check its output after the clock stops.

    Returns ({operation: (start, end) in ns} of the operations that passed,
    failure records, whether every check passed).  The tracer records spans
    only while an operation runs, never while its output is checked.
    """
    import checks

    intervals = {}
    failures = []
    correct = True
    gc.collect()
    clock = time.perf_counter_ns
    for i, inp in enumerate(inputs):
        tracer.op = i
        tracer.enabled = bool(traced)
        start = clock()
        try:
            out = wl.run(inp)
        except Exception:  # a failed operation is counted, not fatal
            tracer.enabled = False
            failures.append({"op": i, "error": traceback.format_exc(limit=3)})
            continue
        end = clock()
        tracer.enabled = False
        try:
            wl.check(inp, out)
        except checks.CheckError as exc:
            correct = False
            failures.append({"op": i, "check": str(exc)})
            continue
        intervals[i] = (start, end)
    try:
        wl.final_check()
    except checks.CheckError as exc:
        correct = False
        failures.append({"op": None, "check": str(exc)})
    return intervals, failures, correct


def main(argv):
    args = parse_args(argv)
    if not (SRC / "chipfire" / "__init__.py").is_file():
        print(f"error: no chipfire sources at {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))

    import speed

    clock = time.perf_counter_ns
    probe = speed.SpeedProbe()
    probe.start()
    try:
        t0 = clock()
        import chipfire

        import_interval = (t0, clock())
        if Path(chipfire.__file__).resolve().parent != SRC / "chipfire":
            print(f"error: imported chipfire from {chipfire.__file__}",
                  file=sys.stderr)
            return 2

        from tracing import Tracer, metric_names
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        cls = WORKLOADS[args.workload]
        n_ops = max(MIN_OPS, round(args.seconds * cls.rate))

        setup_intervals = []
        for rep in range(SETUP_REPEATS):
            t = clock()
            wl, inputs = set_up(args.workload, cls, args.seed, n_ops, rep)
            setup_intervals.append((t, clock()))

        tracer = Tracer()
        if args.trace:
            tracer.install()
        try:
            intervals, failures, correct = time_sequence(
                wl, inputs, tracer, args.trace
            )
        finally:
            tracer.uninstall()
    finally:
        probe.stop()

    import numpy

    if not intervals:
        print("error: no operation completed", file=sys.stderr)
        for f in failures[:3]:
            print(f, file=sys.stderr)
        return 1

    latencies = {i: probe.rescale(a, b) for i, (a, b) in intervals.items()}
    lat_ms = sorted(x / 1e6 for x in latencies.values())
    import_s = probe.rescale(*import_interval) / 1e9
    setups = [probe.rescale(a, b) / 1e9 for a, b in setup_intervals]
    tail_p = tail_percentile(n_ops)
    if args.trace:
        factors = {i: probe.factor(a, b) for i, (a, b) in intervals.items()}
        layers = tracer.layer_metrics(n_ops, probe, factors)
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in metric_names()
        }
        metrics["traced.ms_per_op"] = {
            "value": statistics.fmean(lat_ms), "unit": "ms"
        }
    else:
        metrics = {
            "ops_per_s": {"value": len(lat_ms) / (sum(lat_ms) / 1e3), "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "latency_tail_ms": {"value": nearest_rank(lat_ms, tail_p), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
        }
    result = {
        "correct": correct,
        "attempted": n_ops,
        "failed": n_ops - len(lat_ms),
        "metrics": metrics,
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "streams": f"{args.workload}/{args.seed}/<op>",
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "tail_percentile": tail_p,
        "import_s": import_s,
        "setup_repeats_s": setups,
        "wall_import_s": (import_interval[1] - import_interval[0]) / 1e9,
        "wall_setup_repeats_s": [(b - a) / 1e9 for a, b in setup_intervals],
        "probe": {
            "period_s": speed.PERIOD_S, "ref_ns": speed.REF_NS,
            "count": len(probe.durations),
            "median_ns": statistics.median(probe.durations),
        },
        "latencies_ms": {i: x / 1e6 for i, x in latencies.items()},
        "wall_latencies_ms": {i: (b - a) / 1e6 for i, (a, b) in intervals.items()},
        "failures": failures,
        **result,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "op", "start_ns", "end_ns", "parent"],
             "spans": tracer.spans}
        ) + "\n")

    print(f"workload {args.workload} seed {args.seed}: attempted {n_ops}, "
          f"failed {result['failed']}, correct {str(correct).lower()}, "
          f"tail = p{tail_p:g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
