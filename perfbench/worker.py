"""One run of one workload in a fresh interpreter.

It imports macroq, draws the request list from the seed (together, the set-up
time), then issues the requests one at a time, each after the previous answer
came back, in passes over the list until the time window is used up.  Only
the calls into macroq are timed; each answer is checked after its timer
stops.  ``wall_s`` is the sum over the requests of each one's median time
across the passes, so a slow patch of the host that hits one pass moves it
little.  Prints one JSON object on stdout.

    PYTHONPATH=src python3 perfbench/worker.py WORKLOAD SEED SECONDS [--trace]
        [--setup-only] [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback

from spans import Off, Tracer


def _versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _run_pass(workloads, requests, tracer) -> dict:
    walls, misses, failed, unexpected = [], 0, 0, []
    for index, req in enumerate(requests):
        tracer.request = index
        start = time.perf_counter()
        try:
            outcome = workloads.run(req, tracer)
        except Exception as exc:  # a request that raises is counted, not fatal
            walls.append(time.perf_counter() - start)
            traceback.print_exc()
            failed += 1
            bad = [f"raised {type(exc).__name__}: {exc}"]
        else:
            walls.append(time.perf_counter() - start)
            bad = workloads.check(req, outcome)
        if bad:
            misses += 1
            if not workloads.known_miss(req):
                unexpected.append({"request": req, "problems": bad})
    out = {"wall_s": sum(walls), "request_s": walls, "misses": misses,
           "failed": failed, "unexpected": unexpected}
    if tracer.enabled:
        out["layers"] = tracer.summary()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over the first (smallest) request only")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import workloads
    requests = workloads.generate(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.smoke:
        requests = requests[:1]

    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(_run_pass(workloads, requests, Tracer() if args.trace else Off()))
        # start another pass only if one more fits in the window
        now = time.perf_counter()
        if args.smoke or now - start + (now - pass_start) > args.seconds:
            break
    request_s = [statistics.median(p["request_s"][i] for p in passes)
                 for i in range(len(requests))]

    out = {
        "setup_s": setup_s,
        "wall_s": sum(request_s),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(requests) * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "misses": sum(p["misses"] for p in passes),
        "unexpected": [u for p in passes for u in p["unexpected"]],
        "requests_sha256": hashlib.sha256(
            json.dumps(requests, sort_keys=True).encode()).hexdigest(),
        "versions": _versions(),
    }
    if args.trace:
        keys = sorted({k for p in passes for k in p["layers"]})
        out["layers"] = {k: statistics.median(p["layers"].get(k, 0.0) for p in passes)
                         for k in keys}
        out["requests"] = [{"request": req, "seconds": seconds}
                           for req, seconds in zip(requests, request_s)]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
