#!/usr/bin/env python3
"""Watch a cat state lose its size under photon loss.

Applies the exact loss channel to an even superposition of |alpha> and
|-alpha>, prints the measured size next to the closed-form value, and verifies
the purity-rate identity dP/dtau = -2 I along the way.

Run:
    python3 demos/cat_decoherence.py
"""

import numpy as np

from macroq import catalog
from macroq.dynamics import evolve, purity_rate_residuals


def main():
    alpha = 2.0
    state = catalog.make_scs(alpha, 40)
    taus = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0]
    traj = evolve(state, taus)

    print(f"cat state, alpha = {alpha}, starting size I = "
          f"{traj[0].value:.6f} (= alpha^2 tanh alpha^2 = "
          f"{alpha**2 * np.tanh(alpha**2):.6f})\n")
    print(f"{'tau':>6} {'I (evolved)':>14} {'I (closed)':>14} {'purity':>10} {'mean n':>10}")
    for p in traj:
        closed = catalog.closed_form_decohered_scs(alpha, p.tau)
        print(f"{p.tau:>6.2f} {p.value:>14.8f} {closed.value:>14.8f} "
              f"{p.purity:>10.6f} {p.mean_n:>10.6f}")

    resid = purity_rate_residuals(state, [0.1, 0.3, 0.7])
    print(f"\nmax |dP/dtau + 2 I| over the trajectory: {max(resid):.2e}")
    print("the interference term dies on the 1/(4 alpha^2) time scale, long")
    print("before the photons themselves are lost (mean n decays like e^-tau)")


if __name__ == "__main__":
    main()
