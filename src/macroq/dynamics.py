"""Vacuum amplitude-damping evolution in the truncated Fock space.

Time is dimensionless (one unit is one damping time), the rate is one per
mode.  Loss only lowers occupations, so the semigroup has the closed form

    rho(tau) = eta^(N/2) exp[(1 - eta) sum_m A_m](rho) eta^(N/2)

with eta = e^-tau, A_m(rho) = a_m rho a_m^dag and N the total number
operator (Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)).  It holds exactly
on the truncated space, for any real tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, ModeCutoffs, a_rho_adag, number_diagonal
from .measure import measure_operator

# smallest eigenvalue an input state to evolve may have
POSITIVITY_FLOOR = -1e-9


def lindblad_rhs(rho: np.ndarray, cutoffs: ModeCutoffs) -> np.ndarray:
    """d rho / d tau = sum_m [a_m rho a_m^dag - (n_m rho + rho n_m) / 2]."""
    nd = number_diagonal(cutoffs)
    out = -0.5 * (nd[:, None] + nd[None, :]) * rho
    for m in range(cutoffs.modes):
        out = out + a_rho_adag(rho, cutoffs, m)
    return out


def damp(rho: np.ndarray, cutoffs: ModeCutoffs, tau: float) -> np.ndarray:
    """Apply the loss channel of duration tau to rho (any real tau).

    A_m is nilpotent on the truncated space, so exp[(1 - eta) A_m] is the
    finite sum over k < d_m of (1 - eta)^k / k! A_m^k: d_m - 1 calls to
    ``a_rho_adag`` per mode.  Negative tau gives the exact inverse map.
    """
    c = -np.expm1(-tau)  # 1 - eta
    out = np.array(rho, dtype=complex)
    for m, d in enumerate(cutoffs.cutoffs):
        term = out
        for k in range(1, d):
            term = a_rho_adag(term, cutoffs, m)
            term *= c / k
            out += term
    s = np.exp(-0.5 * tau * number_diagonal(cutoffs))
    return out * s[:, None] * s[None, :]


@dataclass(frozen=True)
class TrajectoryPoint:
    tau: float
    state: DensityMatrix
    value: float
    purity: float
    mean_n: float


def evolve(state: DensityMatrix, record_times, step=None) -> list[TrajectoryPoint]:
    """Apply the loss channel to the input, recording I, purity and occupation.

    Each record point is ``damp`` of the input state itself.  The channel is
    completely positive and trace preserving for tau >= 0, so the input is
    checked for positivity once, against ``POSITIVITY_FLOOR``.
    ``step`` is accepted and ignored, for callers of the former integrator.
    """
    times = [float(t) for t in record_times]
    if not times:
        raise ValueError("need at least one record time")
    if any(t < 0 for t in times) or times != sorted(times):
        raise ValueError("record times must be nonnegative and ascending")
    low = state.min_eigenvalue()
    if low < POSITIVITY_FLOOR:
        raise RuntimeError(f"input state is not positive (smallest eigenvalue {low:.3e})")
    cut = state.cutoffs
    out = []
    for tau in times:
        point = DensityMatrix(cut, damp(state.data, cut, tau))
        out.append(TrajectoryPoint(tau=tau, state=point,
                                   value=measure_operator(point).value,
                                   purity=point.purity(), mean_n=point.mean_number()))
    return out


def purity_rate_residuals(state: DensityMatrix, taus, step=None,
                          h: float = 0.002) -> np.ndarray:
    """|dP/dtau + 2 I| at the requested times.

    The derivative uses a fourth-order centered stencil whose four legs
    (tau +- h, tau +- 2h) come from ``damp``, so the residual measures the
    identity itself and the stencil's O(h^4) error.  ``step`` is accepted and
    ignored, for callers of the former integrator.
    """
    out = []
    for pt in evolve(state, taus):
        ps = []
        for k in (-2, -1, 1, 2):
            leg = damp(pt.state.data, pt.state.cutoffs, k * h)
            ps.append(float(np.real(np.einsum("ij,ji->", leg, leg))))
        dp = (-ps[3] + 8.0 * ps[2] - 8.0 * ps[1] + ps[0]) / (12.0 * h)
        out.append(abs(dp + 2.0 * pt.value))
    return np.array(out)
