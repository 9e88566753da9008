"""The interference measure I(rho) and its three mutually checking routes.

For a state of M modes,

    I(rho) = sum_m [ Tr(rho^2 n_m) - Tr(rho a_m rho a_m^dag) ]

which equals the phase-space form (1/2 pi^M) integral (sum_m |xi_m|^2 - M)
|chi(xi)|^2 d^2M xi and also -Tr[rho L(rho)] for the vacuum amplitude-damping
Lindbladian L.  The operator route evaluates the trace form directly; the
quadrature route integrates the characteristic function; the grid route works
from sampled Wigner data.  They share no code paths beyond the state itself,
which is what makes cross-checks between them meaningful.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from . import phasespace
from .config import DEFAULT, Tolerances
from .fock import DensityMatrix, exchange_trace, number_diagonal

class ConvergenceError(RuntimeError):
    """Quadrature failed to meet tolerance; .partial holds the best estimate."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class MeasureResult:
    """Value of I plus the bookkeeping every route must report."""

    value: float
    route: str
    mean_n: float
    purity: float
    err_estimate: float
    warnings: tuple = field(default=())

    def as_dict(self) -> dict:
        out = {"value": self.value, "route": self.route, "mean_n": self.mean_n,
               "purity": self.purity, "err_estimate": self.err_estimate}
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


# ---------------------------------------------------------------------------
# operator route

def measure_operator(state: DensityMatrix) -> MeasureResult:
    """Evaluate I from the dense matrix by index shifts, O(modes * dim^2).

    Relies on the exactly Hermitian ``data`` that ``DensityMatrix`` guarantees
    on construction: Tr(rho^2 n_m) is read as sum_j n_m(j) sum_i |rho_ij|^2
    and the exchange term from shifted views of rho (``exchange_trace``), so
    rho is never transposed or copied.

    The err_estimate is a truncation heuristic driven by the population of the
    top Fock level; it is zero for states that genuinely fit the cutoff.
    """
    rho = np.ascontiguousarray(state.data)
    cut = state.cutoffs
    flat = rho.view(np.float64)
    # (rho^2)_jj = sum_i |rho_ij|^2, the squared norm of row j for Hermitian rho
    second = np.einsum("ij,ij->i", flat, flat)
    value = 0.0
    for m in range(cut.modes):
        nd = number_diagonal(cut, mode=m)
        exchange = exchange_trace(rho, cut, m)
        value += float(second @ nd) - exchange

    top = np.zeros(cut.cutoffs, dtype=bool)
    for m, d in enumerate(cut.cutoffs):
        idx = [slice(None)] * cut.modes
        idx[m] = d - 1
        top[tuple(idx)] = True
    pops = rho.diagonal().real
    p_top = float(pops[top.ravel()].sum())
    n_top = float(number_diagonal(cut).max())
    err = 2.0 * p_top * (n_top + 1.0)
    warns = ()
    if p_top > 1e-8:
        warns = (f"top Fock level holds population {p_top:.3e}; "
                 "the cutoff may be truncating the state",)
    return MeasureResult(value=value, route="operator", mean_n=state.mean_number(),
                         purity=state.purity(), err_estimate=err, warnings=warns)


# ---------------------------------------------------------------------------
# characteristic-function quadrature route

def _angular_mean(chi, n_start: int = 64, n_max: int = 1024):
    """Return a scalar function r -> mean over angles of |chi(r e^{i t})|^2.

    Uses the exact diagonal decomposition when the callable provides it, and a
    doubling periodic trapezoid otherwise (callables must accept ndarrays).
    """
    if hasattr(chi, "angular_mean_sq"):
        return lambda r: float(np.atleast_1d(chi.angular_mean_sq(np.array([r])))[0])

    def s(r):
        n = n_start
        prev = None
        while True:
            th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            val = float(np.mean(np.abs(chi(r * np.exp(1j * th))) ** 2))
            if prev is not None and abs(val - prev) <= max(1e-10 * abs(val), 1e-15):
                return val
            if n >= n_max:
                return val
            prev, n = val, 2 * n
    return s


def _probe_radial_cut(s) -> tuple[float, tuple]:
    """Walk outward until the integrand weight is negligible; cap at r = 30."""
    prev = np.inf
    for r in np.arange(2.0, 30.0, 1.0):
        cur = s(r)
        if cur * r ** 3 < 1e-15 and cur <= prev:
            return float(min(r + 2.0, 30.0)), ()
        prev = cur
    return 30.0, ("radial cut capped at 30 with the integrand still significant",)


def _tail_estimates(s, R: float) -> tuple[float, float]:
    """Gaussian-decay extrapolation of the neglected r > R contribution.

    Returns (tail of the I integrand, tail of the purity integrand); infinite
    when s(r) is not decaying at R, which callers turn into a convergence
    failure rather than a silent truncation.
    """
    sR = s(R)
    if sR < 1e-300:
        return 0.0, 0.0
    r1 = R - min(0.5, 0.05 * R)
    s1 = s(r1)
    if not s1 > sR:
        return np.inf, np.inf
    kappa = np.log(s1 / sR) / (R * R - r1 * r1)
    tail_i = 0.5 * sR * (1.0 / kappa ** 2 + (R * R - 1.0) / kappa)
    tail_p = 0.5 * sR / kappa
    # the I-integrand is signed below r = 1, so only the magnitude is a bound
    return abs(float(tail_i)), float(tail_p)


def _default_breakpoints(R: float) -> list[float]:
    pts = {0.05, 0.2, 1.0, 3.0, 0.1 * R, 0.3 * R}
    return sorted(p for p in pts if 0.0 < p < R)


def _mean_n_from_char(chi) -> float:
    """Second derivative of chi at the origin, angularly averaged, Richardson-refined."""
    def est(h):
        pts = np.array([h, -h, 1j * h, -1j * h], dtype=complex)
        avg = float(np.mean(np.real(chi(pts))))
        return (1.0 - avg) / h ** 2 - 0.5
    e1 = est(2e-3)
    e2 = est(1e-3)
    return (4.0 * e2 - e1) / 3.0


def _single_mode_quadrature(chi, radial_cut, tol, breakpoints):
    s = _angular_mean(chi)
    warns = []
    if radial_cut is None:
        R, capped = _probe_radial_cut(s)
        warns.extend(capped)
    else:
        R = float(radial_cut)
    pts = _default_breakpoints(R) if breakpoints is None else \
        sorted(p for p in breakpoints if 0.0 < p < R)

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always", IntegrationWarning)
        val_i, err_i = quad(lambda r: (r * r - 1.0) * s(r) * r, 0.0, R,
                            points=pts, limit=200, epsabs=1e-13, epsrel=1e-10)
        val_p, err_p = quad(lambda r: s(r) * r, 0.0, R,
                            points=pts, limit=200, epsabs=1e-13, epsrel=1e-10)
    if caught:
        warns.append(f"radial quadrature reported: {caught[0].message}")

    tail_i, tail_p = _tail_estimates(s, R)
    mean_attr = getattr(chi, "mean_n", None)
    mean = float(mean_attr) if mean_attr is not None else _mean_n_from_char(chi)
    pur_attr = getattr(chi, "purity", None)
    purity = float(pur_attr) if pur_attr is not None else 2.0 * (val_p + tail_p if np.isfinite(tail_p) else val_p)
    return {"I": val_i, "errI": err_i + tail_i, "P": 2.0 * val_p,
            "errP": 2.0 * (err_p + tail_p), "mean": mean,
            "purity": purity, "R": R, "warnings": warns}


def measure_char_quadrature(chi, radial_cut: float | None = 8.0, tol: float = 1e-8,
                            breakpoints=None) -> MeasureResult:
    """Integrate (|xi|^2 - 1)|chi|^2 / (2 pi) radially, with the angle exact or
    trapezoid-sampled.

    ``chi`` is a callable on complex arrays, or a sequence of per-mode callables
    for a product state (I then adds per-mode contributions weighted by the
    other modes' purities).  ``radial_cut=None`` probes for a safe cut instead
    of trusting the default 8, which strongly squeezed states outgrow.  Raises
    ConvergenceError, with the partial result attached, when the error budget
    lands above 50 * tol.
    """
    chis = list(chi) if isinstance(chi, (list, tuple)) else [chi]
    parts = [_single_mode_quadrature(c, radial_cut, tol, breakpoints) for c in chis]

    purities = np.array([p["purity"] for p in parts])
    total_p = float(np.prod(purities))
    value = 0.0
    err = 0.0
    for m, part in enumerate(parts):
        others = total_p / purities[m] if purities[m] > 1e-12 else np.prod(
            np.delete(purities, m))
        value += part["I"] * others
        err += part["errI"] * others
        rel_others = sum(parts[k]["errP"] / max(purities[k], 1e-12)
                         for k in range(len(parts)) if k != m)
        err += abs(part["I"]) * others * rel_others
    mean = float(sum(p["mean"] for p in parts))
    warns = tuple(w for p in parts for w in p["warnings"])

    result = MeasureResult(value=float(value), route="char-quadrature", mean_n=mean,
                           purity=total_p, err_estimate=float(err), warnings=warns)
    if not np.isfinite(err) or err > 50.0 * tol:
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds 50 * tol = {50 * tol:.1e}; "
            "the radial cut is likely too small for this state", partial=result)
    return result


# ---------------------------------------------------------------------------
# Wigner-grid route

def measure_wigner_grid(grid: phasespace.WignerGrid, tol: Tolerances = DEFAULT) -> MeasureResult:
    """Evaluate I from Wigner samples through the dual characteristic grid.

    The transform is a dense two-sided DFT, spectrally accurate for states the
    grid actually contains, hence the hard checks on normalization and
    boundary leak.  err_estimate compares against a half-resolution pass.
    """
    norm_dev = abs(grid.norm() - 1.0)
    if norm_dev > tol.grid_normalization:
        raise ValueError(f"Wigner grid integral deviates from 1 by {norm_dev:.4f}")
    peak = float(np.abs(grid.values).max())
    vals = grid.values
    edge = max(np.abs(vals[0, :]).max(), np.abs(vals[-1, :]).max(),
               np.abs(vals[:, 0]).max(), np.abs(vals[:, -1]).max())
    if peak == 0.0 or edge > tol.boundary_leak * peak:
        raise ValueError(
            f"state is not contained in the grid: edge/peak = {edge / max(peak, 1e-300):.2e}")

    def eval_i(xs, ps, W):
        xi_r, xi_i, chi = phasespace._char_from_arrays(xs, ps, W)
        w2 = xi_r[:, None] ** 2 + xi_i[None, :] ** 2
        cell = (xi_r[1] - xi_r[0]) * (xi_i[1] - xi_i[0])
        return float(((w2 - 1.0) * np.abs(chi) ** 2).sum() * cell / (2.0 * np.pi))

    xs, ps = grid.x.points, grid.p.points
    value = eval_i(xs, ps, grid.values)
    half = eval_i(xs[::2], ps[::2], grid.values[::2, ::2])
    return MeasureResult(value=value, route="wigner-grid", mean_n=grid.mean_number(),
                         purity=grid.purity(), err_estimate=abs(value - half))


# ---------------------------------------------------------------------------
# dispatcher

def measure(state, route: str | None = None) -> MeasureResult:
    """Evaluate I by the named route, or by the one the state's type implies.

    Without a route, a ``ProductRankState`` takes ``low-rank``, a
    ``DensityMatrix`` takes ``operator`` and any other object, taken to be a
    characteristic function (``GaussianChar``, ``ThermalSCSChar``,
    ``DenseChar``), takes ``char-quadrature``.  A ``ProductRankState`` goes
    through ``to_dense()`` for the other routes.  ``char-quadrature`` wraps a
    ``DensityMatrix`` with ``char_of`` and probes for its radial cut, since the
    dispatcher cannot know the state's phase-space extent; callers that need
    their own cut or grid call the route functions directly.  A state that
    lacks the form a route needs, and an unknown route, raise ValueError.
    """
    from .lowrank import ProductRankState, measure_lowrank  # lowrank imports this module

    lowrank = isinstance(state, ProductRankState)
    dense = lowrank or isinstance(state, DensityMatrix)
    modes = state.modes if lowrank else state.cutoffs.modes if dense else 1
    if route is None:
        route = "low-rank" if lowrank else "operator" if dense else "char-quadrature"
    # whether the state has the form each route needs, and that form's name
    needs = {"operator": (dense, "a Fock-space form"),
             "char-quadrature": (modes == 1, "a single-mode form"),
             "wigner-grid": (dense and modes == 1, "a single-mode Fock-space form"),
             "low-rank": (lowrank, "a product-rank form")}
    if route not in needs:
        raise ValueError(f"unknown route {route!r}; routes are {', '.join(needs)}")
    fits, form = needs[route]
    if not fits:
        shape = f" of {modes} modes" if modes > 1 else ""
        raise ValueError(f"the {route} route needs {form}, "
                         f"not a {type(state).__name__}{shape}")
    if route == "low-rank":
        return measure_lowrank(state)
    if lowrank:
        state = state.to_dense()
    if route == "operator":
        return measure_operator(state)
    if route == "wigner-grid":
        return measure_wigner_grid(phasespace.wigner_of(state))
    return measure_char_quadrature(phasespace.char_of(state) if dense else state,
                                   radial_cut=None)
