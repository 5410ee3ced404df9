"""Benchmark of logop: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve-2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; logop is imported from `src/`.  Workloads are
`solve-2d`, `dense-1d`, `verify-2d` and `xdep-2d` (see BENCHMARK.json and
perfbench/NOTES.md); `all` runs each in turn.  Each workload runs in its own
process, started with the BLAS thread count pinned to 1 before numpy loads,
a fixed hash seed and address-space randomisation off.  Set-up is measured in
SETUP_SAMPLES processes and reported as their median.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end ones,
with `--trace 1` the per-layer ones.  The lines before it repeat each metric
with its unit and sample count.  Exit code 0 means the run completed, even if
some outputs were wrong (`correct` is then false).

`--size tiny` and `--corrupt` serve perfbench/selfcheck.py.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-2d", "dense-1d", "verify-2d", "xdep-2d")
SETUP_SAMPLES = 5
DEADLINE_S = 170   # every worker of one run must end within this, from the start
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# With a fixed hash seed and no address-space randomisation the heap grows the
# same way in every run, so peak RSS repeats; otherwise it differs by up to
# 6 MB from run to run on xdep-2d.
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000


def _no_aslr():
    """Turn off address-space randomisation for this (forked) process and what
    it executes.  Where the call is refused the run goes on randomised."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb one output of the first batch (must be caught)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _child(args, workload, work, setup_only, deadline):
    env = dict(os.environ, **BLAS_ENV, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--work", work]
    if args.corrupt:
        cmd.append("--corrupt")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, preexec_fn=_no_aslr)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload} worker passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(args, workload, deadline):
    """Metrics of one workload as {name: (value, unit, samples)} plus counts."""
    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}-{workload}")
    os.makedirs(work, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [_child(args, workload, work, True, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        res = _child(args, workload, work, False, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    batches = res["batches"]
    if args.trace:
        metrics = {k: (v, unit, res["traced_batches"]) for k, (v, unit) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "wall_s": (res["wall_s"], "s", batches),
            "op_s.max": (res["op_max_s"], "s", batches),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
            "ok_frac": (1.0 - res["failed"] / res["attempted"], "ratio", res["attempted"]),
        }
    blas = ", ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    print(f"# {workload}: seed {args.seed}, {batches} untraced batches, "
          f"{res['attempted']} operations, {res['failed']} failed; "
          f"BLAS pinned {blas}, process threads after a matmul: {res['threads_after_matmul']}")
    for name, (value, unit, n) in metrics.items():
        print(f"{workload:10s} {name:36s} {value:14.6g} {unit:6s} n={n}")
    return metrics, res["attempted"], res["failed"]


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "logop", "__init__.py")):
        print(f"perfbench: no logop sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for w in names:
        m, a, f = run_workload(args, w, time.perf_counter() + DEADLINE_S)
        prefix = f"{w}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
