#!/usr/bin/env python3
"""Size of many-party superpositions without ever building the big matrix.

A state in product form holds one small vector per mode and term, and the
low-rank route measures it in Gram space, so GHZ-type states over hundreds of
modes cost almost nothing.  This demo scales up a family of nearly-parallel
product superpositions, checks the small cases against the operator route on
the same state, and shows the N epsilon^2 / 4 law emerge.

Run:
    python3 demos/many_mode_scaling.py
"""

import time

from macroq import catalog
from macroq.lowrank import measure_lowrank
from macroq.measure import measure_operator


def main():
    eps = 0.1
    print("small systems, low-rank against the operator route:")
    for n in (2, 5, 10):
        state = catalog.make_dur(n, eps)
        low = measure_lowrank(state).value
        op = measure_operator(state).value
        print(f"  N={n:>3}: low-rank {low:.12f}  operator {op:.12f}  "
              f"gap {abs(low - op):.1e}")

    print("\nscaling up (dense would need a 2^N dimensional matrix):")
    print(f"{'N':>6} {'I':>12} {'N eps^2/4':>12} {'ratio':>8} {'time':>9}")
    for n in (10, 100, 1000, 10000):
        t0 = time.perf_counter()
        val = catalog.dur_measure(n, eps).value
        dt = time.perf_counter() - t0
        asym = catalog.dur_asymptotic(n, eps)
        print(f"{n:>6} {val:>12.6f} {asym:>12.6f} {val / asym:>8.4f} {dt * 1e3:>7.1f}ms")
    print("\nthe ratio approaches 1: a superposition of N nearly identical")
    print("parties is only as macroscopic as N times the tiny per-party angle")


if __name__ == "__main__":
    main()
