"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs the smallest request of each workload through ``run.py``, untraced and
traced, and checks that every metric named in BENCHMARK.json is printed with
its unit.  Then shows that the correctness gate can fail: a deliberately
perturbed answer must be marked as a miss.  Last, checks that a directory
holding only the benchmark (no ``src/``) makes ``run.py`` exit non-zero
without printing a result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_output(workload: str, trace: int, spec: dict) -> None:
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        sys.exit(f"{workload} trace={trace}: {result}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        sys.exit(f"{workload} trace={trace}: metrics {got} differ from {want}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            sys.exit(f"{workload}: {name} = {m['value']!r}")
    print(f"{workload} trace={trace}: {len(got)} metrics with units")


def check_gate() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    from spans import Off

    for workload in workloads.WORKLOADS:
        req = workloads.generate(workload, 1)[0]
        outcome = workloads.run(req, Off())
        if workloads.check(req, outcome):
            sys.exit(f"{workload}: exact answer marked as a miss: {req}")
        # ten times the target, relative for loss and absolute elsewhere
        if req["route"] == "loss":
            bumped = {**outcome, "I": [v * (1 + 10 * workloads.LOSS_TOLERANCE)
                                       for v in outcome["I"]]}
        else:
            bumped = {"I": outcome["I"] + 10 * workloads.TOLERANCE[req["route"]]}
        if not workloads.check(req, bumped):
            sys.exit(f"{workload}: perturbed answer passed the gate: {req}")
    print("perturbed answers are marked as misses")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "loss", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}, no result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_output(workload, trace, spec)
    check_gate()
    check_bare_directory()
    print("smoke: ok")


if __name__ == "__main__":
    main()
