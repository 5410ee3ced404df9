"""Quick self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload it runs `run.py --size tiny --seconds 1` untraced and
traced and confirms that the result line has exactly the keys `correct`,
`attempted`, `failed` and `metrics`, that every metric BENCHMARK.json names
is printed with its unit and a sample count, and that no operation failed.
It then runs each workload with `--corrupt`, which perturbs one output
value, and confirms the failure is counted.  Last, it confirms that
`run.py` refuses to run, without printing a result, in a copy holding only
BENCHMARK.json and this directory.  Exits 1 and lists the problems if any
check fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _check_output(proc, expected, label, problems, corrupt=False):
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(res)}")
    if set(res["metrics"]) != set(expected):
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(res['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        got = res["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} printed as {got}")
        pattern = rf"\s{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=[1-9]\d*$"
        if not any(re.search(pattern, line) for line in lines[:-1]):
            problems.append(f"{label}: no line gives {name} with its unit and sample count")
    if corrupt:
        if res["correct"] or res["failed"] < 1 or res["metrics"].get(
                "ok_frac", {}).get("value", 1.0) >= 1.0:
            problems.append(f"{label}: the corrupted output was not counted as failed")
    elif not res["correct"] or res["failed"] != 0:
        problems.append(f"{label}: {res['failed']} of {res['attempted']} operations failed\n"
                        f"{proc.stderr[-2000:]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for w in (wl["name"] for wl in bench["workloads"]):
        base = ["--workload", w, "--seed", "7", "--size", "tiny"]
        _check_output(_run(base + ["--trace", "0"]), end_to_end, f"{w} trace 0", problems)
        _check_output(_run(base + ["--trace", "1"]), per_layer, f"{w} trace 1", problems)
        _check_output(_run(base + ["--trace", "0", "--corrupt"]), end_to_end,
                      f"{w} corrupt", problems, corrupt=True)
        print(f"selfcheck: {w} done", flush=True)

    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = _run(["--workload", "solve-2d", "--seed", "1", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bare copy: run.py did not refuse to run")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"selfcheck: FAIL {p}")
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
