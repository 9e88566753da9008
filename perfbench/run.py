"""Benchmark of macroq: one closed-loop caller, three workloads.

    python3 perfbench/run.py --workload {manymode,phasespace,loss} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; it measures the sources under ``src/``.
Every run is made of fresh interpreters (see ``worker.py``), each pinned to
one BLAS/OpenMP thread.  A warm-up interpreter byte-compiles the sources first
and its timing is discarded.

With ``--trace 0`` it prints the end-to-end metrics: ``wall_s`` (time to
answer the request list, summed from each request's median over the passes
that fit in ``--seconds``), ``setup_s`` (median of five fresh ``import
macroq`` plus request generation), ``peak_rss_mb`` and ``accurate_frac``
(requests that met their accuracy target, over requests attempted).  With
``--trace 1`` it runs the workload untraced for half the window and traced for
the other half, and prints the per-layer metrics: span times and counts around
the benchmark's own calls into each macroq module, an ``-X importtime``
breakdown, and the tracing overhead.  The last line of stdout is the JSON result; the
lines before it are a readable report and the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("manymode", "phasespace", "loss")
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 4      # fresh interpreters besides the measured one
IMPORTTIME_SAMPLES = 3
BUDGET_S = 170.0       # a run must end well inside 180 s

PER_LAYER = {
    "import.macroq_s": "s",
    "import.scipy_integrate_s": "s",
    "import.scipy_special_s": "s",
    "catalog.build_s": "s",
    "catalog.build.calls": "count",
    "lowrank.to_dense_s": "s",
    "lowrank.to_dense.out_bytes": "B_computed",
    "lowrank.measure_lowrank_s": "s",
    "lowrank.measure_lowrank.calls": "count",
    "measure.operator_s": "s",
    "measure.operator.calls": "count",
    "measure.operator.matrix_bytes": "B_computed",
    "measure.char_quadrature_s": "s",
    "measure.char_quadrature.self_s": "s",
    "measure.wigner_grid_s": "s",
    "measure.wigner_grid.points": "count",
    "phasespace.angular_mean_sq_s": "s",
    "phasespace.angular_mean_sq.calls": "count",
    "phasespace.wigner_of_s": "s",
    "phasespace.wigner_of.points": "count",
    "dynamics.evolve_s": "s",
    "dynamics.evolve.rk4_steps": "count_computed",
    "dynamics.evolve.a_rho_adag_calls": "count_computed",
    "dynamics.purity_rate_s": "s",
    "fock.density_matrix_s": "s",
    "trace.overhead_s": "s",
}
IMPORTS = {"macroq": "import.macroq_s", "scipy.integrate": "import.scipy_integrate_s",
           "scipy.special": "import.scipy_special_s"}


class BenchError(RuntimeError):
    """A step of the benchmark itself failed; the run prints no result."""


class Runner:
    """Starts the interpreters of one run, all within one time budget."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.args = [workload, str(seed)]
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINS)
        self.deadline = time.monotonic() + BUDGET_S

    def _run(self, label: str, cmd: list[str]) -> subprocess.CompletedProcess:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget used up")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{label} overran the time budget") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"{label} exited with {proc.returncode}")
        return proc

    def worker(self, *flags: str, seconds: float | None = None) -> dict:
        seconds = self.seconds if seconds is None else seconds
        proc = self._run("worker", [sys.executable, str(BENCH / "worker.py"), *self.args,
                                    str(seconds), *flags])
        sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def importtime(self) -> dict:
        """Cumulative import time of macroq and two scipy subpackages, in s."""
        proc = self._run("-X importtime",
                         [sys.executable, "-X", "importtime", "-c", "import macroq"])
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTS:
                found.setdefault(IMPORTS[parts[2].strip()], int(parts[1]) * 1e-6)
        if len(found) != len(IMPORTS):
            raise BenchError(f"-X importtime did not report {sorted(IMPORTS)}")
        return found


def environment(seed: int, workload: str, sha: str, versions: dict) -> dict:
    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def source_digest():
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def commit():
        if not (ROOT / ".git").exists():
            return "unknown (not a git checkout)"
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    return {"workload": workload, "seed": seed, "requests_sha256": sha,
            "nproc": os.cpu_count(), "cpu": cpu_model(), **versions,
            "thread_pins": PINS, "commit": commit(), "src_sha256": source_digest()}


def _report(result: dict, env: dict, lines: list[str]) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))


def _accuracy_lines(runs: list[dict]) -> list[str]:
    attempted = sum(r["attempted"] for r in runs)
    misses = sum(r["misses"] for r in runs)
    unexpected = [u for r in runs for u in r["unexpected"]]
    lines = [f"failed_frac {misses / attempted:.6g} frac ({misses} of {attempted} requests "
             f"raised or missed their target: {misses - len(unexpected)} known, "
             f"{len(unexpected)} unexpected; {sum(r['failed'] for r in runs)} raised)"]
    lines += ["unexpected miss " + json.dumps(u) for u in unexpected]
    return lines


def _verdict(runs: list[dict]) -> dict:
    return {"correct": not any(r["unexpected"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}


def untraced(runner: Runner, smoke: list[str]) -> tuple[dict, dict, list[str]]:
    setups = [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    run = runner.worker(*smoke)
    setups.append(run["setup_s"])
    metrics = {
        "wall_s": {"value": run["wall_s"], "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
        "accurate_frac": {"value": 1.0 - run["misses"] / run["attempted"], "unit": "frac"},
    }
    lines = [f"passes {len(run['pass_wall_s'])}: "
             + " ".join(f"{w:.4f}" for w in run["pass_wall_s"]) + " s",
             "setup samples " + " ".join(f"{s:.4f}" for s in setups) + " s"]
    return {**_verdict([run]), "metrics": metrics}, run, lines + _accuracy_lines([run])


def traced(runner: Runner, smoke: list[str]) -> tuple[dict, dict, list[str]]:
    imports = [runner.importtime() for _ in range(IMPORTTIME_SAMPLES)]
    base = runner.worker(*smoke, seconds=runner.seconds / 2)
    run = runner.worker("--trace", *smoke, seconds=runner.seconds / 2)
    values = {name: statistics.median(i[name] for i in imports) for name in IMPORTS.values()}
    values["trace.overhead_s"] = run["wall_s"] - base["wall_s"]
    for name in PER_LAYER:
        values.setdefault(name, run["layers"].get(name, 0.0))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    lines = [f"untraced wall_s {base['wall_s']:.6f} s, traced wall_s {run['wall_s']:.6f} s"]
    lines += [f"request {r['seconds']:10.6f} s {json.dumps(r['request'])}"
              for r in run["requests"]]
    return {**_verdict([base, run]), "metrics": metrics}, run, lines + _accuracy_lines([base, run])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run only the first (cheap) request, once")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "macroq" / "__init__.py").is_file():
        print("perfbench: no macroq sources under src/; run it from a full checkout",
              file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.seconds)
    smoke = ["--smoke"] if args.smoke else []
    try:
        runner.worker("--setup-only")  # warm-up: byte-compiles the sources
        result, run, lines = (traced if args.trace else untraced)(runner, smoke)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _report(result, environment(args.seed, args.workload, run["requests_sha256"],
                                run["versions"]), lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
