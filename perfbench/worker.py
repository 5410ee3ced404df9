"""One workload process of the benchmark; `run.py` starts it.

The process is started with the BLAS thread count already pinned in its
environment, so numpy reads it on import.  It imports logop, generates the
seeded inputs, runs one warm-up operation and reports the set-up time measured
from its start (`--t0`, a `time.perf_counter()` reading taken by the parent
just before the start; on Linux that clock is system-wide).  Unless
`--setup-only`, it then runs the workload's batch in a closed loop, one
operation at a time, for about `--seconds`, checks every output after the
batch, outside the timed region, and prints one JSON line of results.  Peak
RSS is read after the first batch's operations, before any check runs.

With `--trace 1` untraced and traced batches alternate: the traced ones give
the per-layer metrics, the difference of the two medians is the tracing
overhead, and all spans are written to `.perfbench/traces/` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--corrupt", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work", required=True)
    return p.parse_args(argv)


def _threads():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def run_batch(workload, tracer, corrupt):
    """Run every op once, then check every output; returns (op durations,
    failures, peak RSS in MB before the checks).  Checks run with tracing off."""
    times, outputs = [], []
    for op in workload.ops:
        if tracer is not None:
            tracer.op += 1
            tracer.install()
        t = time.perf_counter()
        try:
            outputs.append((op.run(), None))
        except Exception:
            outputs.append((None, traceback.format_exc()))
        finally:
            times.append(time.perf_counter() - t)
            if tracer is not None:
                tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = 0
    for k, (op, (output, error)) in enumerate(zip(workload.ops, outputs)):
        if error is None:
            try:
                op.check(output, corrupt and k == 0)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            print(f"perfbench: {op.name} failed:\n{error}", file=sys.stderr)
    return times, failed, peak_rss_mb


def _op_medians(batches):
    """Median duration of each op over the batches.  Their sum estimates the
    time of one batch, and their maximum the slowest op, with less weight on
    a batch slowed by other load than the median of batch sums would give."""
    return [statistics.median(b["times"][k] for b in batches)
            for k in range(len(batches[0]["times"]))]


def main(argv=None):
    args = _parse(argv)
    import numpy as np

    import workloads

    workload = workloads.build(args.workload, args.seed, args.size, args.work)
    try:
        workload.ops[workload.warmup].run()
    except Exception:   # the same op fails again in the loop, where it is counted
        print(f"perfbench: warm-up failed:\n{traceback.format_exc()}", file=sys.stderr)
    setup_s = time.perf_counter() - args.t0
    np.ones((64, 64)) @ np.ones((64, 64))
    result = {"setup_s": setup_s, "threads_after_matmul": _threads()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.patch(workloads, "wobble_kernel", tracer.kernel_factory(workloads.wobble_kernel))

    plain, traced, layers = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        on = tracer is not None and len(plain) > len(traced)
        times, bad, rss = run_batch(workload, tracer if on else None,
                                    args.corrupt and not plain and not traced)
        if not plain:
            peak_rss_mb = rss
        attempted += len(times)
        failed += bad
        (traced if on else plain).append({"times": times, "elapsed": time.perf_counter() - t})
        if on:
            layers.append(tracing.layer_metrics(tracer.take()))
        elapsed = time.perf_counter() - start
        batches = plain + traced
        pair_done = tracer is None or len(plain) == len(traced)
        per_batch = statistics.median(b["elapsed"] for b in batches)
        if pair_done and elapsed + per_batch * (2 if tracer else 1) > args.seconds:
            break

    op_s = _op_medians(plain)
    result.update({
        "attempted": attempted,
        "failed": failed,
        "batches": len(plain),
        "wall_s": sum(op_s),
        "op_max_s": max(op_s),
        "peak_rss_mb": peak_rss_mb,
    })
    if tracer is not None:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = sum(_op_medians(traced)) - result["wall_s"]
        result["layers"] = {k: (metrics[k], unit) for k, unit in tracing.LAYER_METRICS.items()}
        result["traced_batches"] = len(traced)
        out_dir = os.path.join(os.path.dirname(args.work), "traces")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
