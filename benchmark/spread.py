#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

    python3 benchmark/spread.py --workload NAME --seeds 501-510 [--seconds 16] [--trace 0]

Runs are sequential, one ``run.py`` process at a time, each awaited before
the next starts.  For every metric it prints the median over the seeds and
the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="first-last, e.g. 501-510")
    p.add_argument("--seconds", default="16")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:12.4f}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
