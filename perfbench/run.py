"""Run one benchmark workload against the gramsem source of this checkout.

    python3 perfbench/run.py --workload sentences --seed 1 --seconds 20 --trace 0

Prints one JSON object as the last line of stdout: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` every gramsem function the
benchmark times is wrapped and the per-layer metrics are printed instead.
Raw per-operation timings go to ``perfbench/out/``, spans of a traced run
beside them.
Exit status: 0 when every output checked out, 1 when one did not, 2 when
the checkout has no gramsem source.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 7     # set-up is timed this many times and the median reported
MIN_SAMPLES = 100  # successful operations per run, so p90 has ten beyond it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["sentences", "grammar", "corpus", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def attempt(workload, op):
    try:
        return workload.run(op)
    except Exception as exc:  # the check decides whether this failure is expected
        return exc


def checked(mismatches, name, check, *args):
    """Run a check; returns what it returns (False for the expected failure)
    and records any disagreement as a mismatch."""
    try:
        return check(*args)
    except Exception as exc:  # a crashing check is a failed check too
        mismatches.append(f"{name}: {exc!r}")
        return True


def measure(args, workdir):
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        workload.traced = True

    # set-up runs once before the first operation and again after each
    # timed round, so its median samples the whole run
    setup_times = []

    def setup():
        if tracer:
            tracer.phase = "setup"
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.phase = "ops"

    setup()
    # one untimed pass over the batch warms caches
    mismatches = []
    if tracer:
        tracer.phase = "warmup"
    for op in workload.batch:
        if hasattr(workload, "warmup_check"):
            checked(mismatches, workload.name, workload.warmup_check, op)
        else:
            checked(mismatches, workload.name, workload.check, op,
                    attempt(workload, op))

    if tracer:
        tracer.phase = "ops"
    gc.collect()
    latencies, attempted, failed, busy, rounds = [], 0, 0, 0.0, 0
    timings = [[] for _ in workload.batch]
    elapsed = 0.0  # wall time of the rounds, set-ups between them excluded
    while elapsed < args.seconds or len(latencies) < MIN_SAMPLES:
        start = time.perf_counter()
        for k, op in enumerate(workload.batch):
            if tracer:
                tracer.op = (rounds, k)
            t0 = time.perf_counter()
            out = attempt(workload, op)
            dt = time.perf_counter() - t0
            attempted += 1
            busy += dt
            timings[k].append(dt * 1e3)
            if checked(mismatches, workload.name, workload.check, op, out):
                latencies.append(dt)
            else:
                failed += 1
        elapsed += time.perf_counter() - start
        rounds += 1
        if len(setup_times) < SETUP_REPS:
            setup()
    while len(setup_times) < SETUP_REPS:
        setup()

    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "rounds": rounds, "busy_s": busy, "setup_s": setup_times,
           "throughput_ops_s": len(latencies) / busy,
           "timings_ms": timings,
           "mismatches": mismatches[:20]}
    if tracer:
        extra = (workload.process_metrics(statistics.median(setup_times))
                 if hasattr(workload, "process_metrics") else {})
        metrics = tracer.metrics(SETUP_REPS, rounds, extra)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        peak_kib = resource.getrusage(getattr(workload, "rusage",
                                              resource.RUSAGE_SELF)).ru_maxrss
        metrics = {
            "throughput_ops_s": {"value": len(latencies) / busy, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(latencies) * 1e3,
                               "unit": "ms"},
            "latency_p90_ms": {"value": statistics.quantiles(latencies, n=10)[8] * 1e3,
                               "unit": "ms"},
            "peak_rss_mb": {"value": peak_kib * 1024 / 1e6, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    raw["metrics"] = metrics
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    for line in mismatches[:5]:
        print(f"check failed: {line}", file=sys.stderr)
    return {"correct": not mismatches, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gramsem" / "__init__.py").is_file():
        print(f"no gramsem source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads; children inherit it and the path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC))
    import gramsem
    if Path(gramsem.__file__).resolve().parent != SRC / "gramsem":
        print(f"imported gramsem from {gramsem.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
