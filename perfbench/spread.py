"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload grammar --seeds 1-10 --seconds 22

For every metric the runs print, shows the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  Also shows the failed share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", default="22")
    p.add_argument("--trace", default="0")
    args = p.parse_args(argv)
    lo, hi = map(int, args.seeds.split("-"))
    results = []
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + json.dumps(results[-1]), flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
