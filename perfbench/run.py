"""Benchmark of fftmix: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload infer-224 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import shutil
import statistics
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats at least this many times and until this much time has passed.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# Every median has at least two samples, even when one round outlasts --seconds.
MIN_ROUNDS = 2


def import_package():
    """Put the checkout's ``src`` first on the path; fail if it has no fftmix."""
    src = ROOT / "src"
    if not (src / "fftmix" / "__init__.py").is_file():
        sys.exit(f"error: no fftmix package under {src}")
    sys.path.insert(0, str(src))


def run_op(wl, slot, tracer=None):
    """One operation: untimed preparation, the timed call, then its check."""
    m, call = wl.prepare(slot)
    if tracer is not None:
        tracer.register(m)
    gc.collect()
    t0 = perf_counter()
    out = call()
    dt = perf_counter() - t0
    return dt, wl.check(slot, out)


def run_round(wl, slots, tracer=None):
    """One operation per slot; returns ({slot: seconds}, problems, failed operations)."""
    times, problems, failed = {}, [], 0
    for slot in slots:
        times[slot], found = run_op(wl, slot, tracer)
        problems += found
        failed += bool(found)
    return times, problems, failed


def peak_round(wl, slots):
    """The largest tracemalloc peak of one operation on each of ``slots``, in bytes."""
    peak, problems, failed = 0, [], 0
    for slot in slots:
        m, call = wl.prepare(slot)
        gc.collect()
        tracemalloc.start()
        try:
            out = call()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        found = wl.check(slot, out)
        problems += found
        failed += bool(found)
    return peak, problems, failed


def measure(make, slots, seconds, log):
    """End-to-end metrics: timed rounds for ``seconds``, then the peak-memory pass.

    Set-up runs on fresh workload objects, at least ``SETUP_REPEATS`` times
    and for ``SETUP_SECONDS``; the last one is measured.
    """
    setups, wl = [], None
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        wl = None
        gc.collect()
        wl = make()
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
    problems = wl.verify()
    rounds, failed_ops = [], 0
    start = perf_counter()
    while True:
        times, found, failed = run_round(wl, slots)
        rounds.append(times)
        failed_ops += failed
        log.extend(found)
        elapsed = perf_counter() - start
        # Stop when the next round would end more than half a round late.
        if len(rounds) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            break
    busy = sum(sum(r.values()) for r in rounds)
    peak, found, failed = peak_round(wl, wl.peak_slots)
    failed_ops += failed
    log.extend(found)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "images_per_s": (len(rounds) * len(slots) * wl.images_per_op / busy, "images/s"),
    }
    for slot in slots:
        samples = [r[slot] for r in rounds]
        metrics[f"op_s.{slot}"] = (statistics.median(samples), "s")
        print(f"op_s.{slot}: median {statistics.median(samples):.4f} s over {len(samples)} samples")
    metrics["peak_mb"] = (peak / 1e6, "MB")
    attempted = len(rounds) * len(slots) + len(wl.peak_slots)
    return metrics, attempted, failed_ops, problems


def measure_traced(make, slots, seconds, log):
    """Per-layer metrics: untraced and traced rounds in turn, then a memory round."""
    import layertrace

    wl = make()
    wl.setup()
    problems = wl.verify()
    tracer = layertrace.Tracer()
    plain_walls, traced_walls, failed_ops = [], [], 0
    start = perf_counter()
    while True:
        plain, found_plain, failed_plain = run_round(wl, slots)
        with tracer:
            traced, found_traced, failed_traced = run_round(wl, slots, tracer)
        plain_walls.append(sum(plain.values()))
        traced_walls.append(sum(traced.values()))
        failed_ops += failed_plain + failed_traced
        log.extend(found_plain + found_traced)
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(plain_walls) >= seconds:
            break
    ops = wl.memory_ops()
    with layertrace.Tracer(memory=True) as mem:
        for m, _ in ops:
            mem.register(m)
        tracemalloc.start()
        try:
            for _, call in ops:
                gc.collect()
                call()
        finally:
            tracemalloc.stop()
    rounds = len(traced_walls)
    metrics = {}
    for name in layertrace.PER_LAYER:
        value = tracer.totals.get(name, 0.0) / rounds
        if name not in layertrace.PER_RUN:
            value /= wl.steps_per_op
        metrics[name] = (mem.totals.get(name, value), layertrace.unit_of(name))
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"tracing overhead: {overhead:.4f} s per round (median traced "
          f"{statistics.median(traced_walls):.4f} s, untraced {statistics.median(plain_walls):.4f} s, "
          f"{rounds} rounds each)")
    return metrics, 2 * rounds * len(slots), failed_ops, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / f".perfbench_out-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload]

    def make():
        return workload(args.seed, out_dir)

    log: list[str] = []
    try:
        if args.trace:
            metrics, attempted, failed, problems = measure_traced(make, workloads.SLOTS, args.seconds, log)
        else:
            metrics, attempted, failed, problems = measure(make, workloads.SLOTS, args.seconds, log)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for line in problems + log:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
