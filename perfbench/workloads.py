"""The three workloads: request lists drawn from a seed, the calls each request
makes into macroq, and the exact values that check every answer.

A request is a plain dict, so a request list can be hashed and printed.  Fock
cutoffs are fixed per request kind and parameters are drawn so that two seeds
give lists of nearly equal cost: the seed moves the parameters, not the amount
of work.

Accuracy targets come from the acceptance tests in ``tests/test_acceptance.py``.
A miss is a value outside its target; a request that raises is both a failure
and a miss.  Some misses are defects of the program as it stands, listed in
:func:`known_miss`.  They stay in the lists and are counted; only a miss that is
not listed there makes a run incorrect.
"""

from __future__ import annotations

import math
import random

import numpy as np

from macroq import catalog, phasespace
from macroq.dynamics import evolve, purity_rate_residuals
from macroq.fock import DensityMatrix, ModeCutoffs
from macroq.lowrank import measure_lowrank
from macroq.measure import measure_char_quadrature, measure_operator, measure_wigner_grid

WORKLOADS = ("manymode", "phasespace", "loss")

# absolute targets on I, per route
TOLERANCE = {
    "operator-manymode": 1e-10,  # criterion 07: low-rank against dense operator
    "low-rank": 1e-10,           # criterion 07
    "operator": 1e-6,            # criteria 03 and 05: single-mode operator route
    "char-quadrature": 1e-6,     # criterion 06: quadrature against closed form
    "wigner-grid": 1e-3,         # criterion 09: route triangle
}
LOSS_TOLERANCE = 1e-5  # criterion 04: relative I gap and |dP/dtau + 2 I|
LOSS_STEP = 0.01       # the default --step of `macroq evolve`
LOSS_TAUS = (0.25, 0.5, 1.0)


# ---------------------------------------------------------------------------
# request lists

def generate(workload: str, seed: int) -> list[dict]:
    """The request list of one workload; the same seed gives the same list.

    The first request of each list is a cheap one, which the smoke test runs.
    """
    rng = random.Random(f"{workload}:{seed}")
    return {"manymode": _manymode, "phasespace": _phasespace, "loss": _loss}[workload](rng)


def _manymode(rng: random.Random) -> list[dict]:
    def branch_state(modes):
        state = rng.choice(("ghz", "dur"))
        epsilon = rng.uniform(0.05, 0.5) if state == "dur" else None
        return {"state": state, "modes": modes, "epsilon": epsilon}

    # every list holds the 12-mode request, which takes most of a pass; 11
    # modes is left out so that two passes fit in the time window
    dense = [{"route": "operator-manymode", **branch_state(n)} for n in (9, 10, 12)]
    lowrank = [{"route": "low-rank", **branch_state(rng.randrange(lo, lo + 300))}
               for lo in range(200, 2000, 300)]
    return dense + lowrank


def _near(rng: random.Random, center: float, half_width: float) -> float:
    return rng.uniform(center - half_width, center + half_width)


def _phasespace(rng: random.Random) -> list[dict]:
    # quadrature cost jumps with the amplitudes and grows with the Fock
    # cutoff, so each amplitude is drawn in a narrow band around a fixed point
    # of its range, with a cutoff that holds the state to well below the
    # targets.  One state per kind keeps a pass near 7 s, so that several
    # passes fit in the time window
    states = [{"state": "squeezed", "s": _near(rng, 0.55, 0.02), "cutoff": 40},
              {"state": "coherent", "alpha": _near(rng, 0.875, 0.05),
               "phase": rng.uniform(0.0, 2.0 * math.pi), "cutoff": 16}]
    # the grid route misses its target on cats from alpha ~2.83 on; the
    # second cat always lies there and the first never does
    states += [{"state": "cat", "alpha": _near(rng, alpha, 0.05), "cutoff": cutoff}
               for alpha, cutoff in ((1.45, 24), (2.95, 37))]
    states += [{"state": "decohered-cat", "alpha": _near(rng, 1.5, 0.05),
                "tau": _near(rng, 0.325, 0.05), "cutoff": 24}]
    requests = [{"route": route, **st} for st in states
                for route in ("operator", "char-quadrature", "wigner-grid")]
    requests += [{"route": "char-quadrature", "state": "thermal-scs",
                  "V": _near(rng, V, 0.5), "d": _near(rng, d, 0.25)}
                 for V, d in ((4.0, 2.0), (8.0, 4.0))]
    return requests


def _loss(rng: random.Random) -> list[dict]:
    # the cost depends on the Fock dimensions only, fixed here.  RK4 at the
    # default step misses the criterion-04 target on single cats from alpha
    # ~2.42 on; no cat lies in 2.2-2.6, so the number of misses does not
    # depend on the seed
    requests = [{"route": "loss", "alpha": [rng.uniform(lo, hi)], "cutoff": [40]}
                for lo, hi in ((1.0, 1.6), (1.6, 2.2), (2.6, 2.9), (2.9, 3.2))]
    requests += [{"route": "loss", "alpha": [rng.uniform(lo, hi), rng.uniform(lo, hi)],
                  "cutoff": [cut, cut]}
                 for lo, hi, cut in ((0.5, 1.0, 14), (1.0, 1.3, 17))]
    return requests


def known_miss(req: dict) -> bool:
    """Whether the request hits a defect the program is known to have.

    Onsets were measured on the seed program: the grid route at cat amplitude
    2.83 (5.8e-2 off at 3.0) and RK4 at step 0.01 on single cats at 2.42.
    """
    if req["route"] == "wigner-grid":
        return req["state"] == "cat" and req["alpha"] >= 2.83
    if req["route"] == "loss":
        return len(req["alpha"]) == 1 and req["alpha"][0] >= 2.42
    return False


# ---------------------------------------------------------------------------
# running a request

class CountingChar:
    """Passes every call through to a DenseChar; times and counts the radial
    integrand evaluations the quadrature route makes."""

    def __init__(self, chi, tracer):
        self._chi = chi
        self._tracer = tracer

    def __call__(self, xi):
        return self._chi(xi)

    def angular_mean_sq(self, r):
        self._tracer.count("phasespace.angular_mean_sq.calls")
        with self._tracer.span("phasespace.angular_mean_sq"):
            return self._chi.angular_mean_sq(r)

    @property
    def mean_n(self):
        return self._chi.mean_n

    @property
    def purity(self):
        return self._chi.purity


def _build(req: dict, tracer):
    tracer.count("catalog.build.calls")
    with tracer.span("catalog.build"):
        state = req["state"]
        if state == "ghz":
            return catalog.make_ghz(req["modes"])
        if state == "dur":
            return catalog.make_dur(req["modes"], req["epsilon"])
        if state == "coherent":
            return catalog.make_coherent(req["alpha"] * np.exp(1j * req["phase"]), req["cutoff"])
        if state == "cat":
            return catalog.make_scs(req["alpha"], req["cutoff"])
        if state == "decohered-cat":
            return catalog.make_decohered_scs(req["alpha"], req["tau"], req["cutoff"])
        if state == "squeezed":
            return catalog.make_squeezed(req["s"], req["cutoff"])
        if state == "thermal-scs":
            return catalog.ThermalSCSChar(req["V"], req["d"])
    raise ValueError(f"unknown state {state!r}")


def _operator(state, tracer) -> float:
    tracer.count("measure.operator.calls")
    tracer.count("measure.operator.matrix_bytes", state.data.nbytes)
    with tracer.span("measure.operator"):
        return measure_operator(state).value


def _rk4_steps(taus, step: float) -> int:
    """RK4 steps `evolve` takes to reach each record time, as dynamics does."""
    steps, t = 0, 0.0
    for target in taus:
        if target > t + 1e-12:
            steps += max(math.ceil((target - t) / step), 1)
            t = target
    return steps


def run(req: dict, tracer) -> dict:
    """Issue one request and return what it computed."""
    route = req["route"]
    if route == "loss":
        return _run_loss(req, tracer)
    state = _build(req, tracer)
    if route == "operator-manymode":
        with tracer.span("lowrank.to_dense"):
            dense = state.to_dense()
        tracer.count("lowrank.to_dense.out_bytes", dense.data.nbytes)
        return {"I": _operator(dense, tracer)}
    if route == "low-rank":
        tracer.count("lowrank.measure_lowrank.calls")
        with tracer.span("lowrank.measure_lowrank"):
            return {"I": measure_lowrank(state).value}
    if route == "operator":
        return {"I": _operator(state, tracer)}
    if route == "char-quadrature":
        if isinstance(state, DensityMatrix):
            state = phasespace.char_of(state)
            if tracer.enabled:
                state = CountingChar(state, tracer)
        with tracer.span("measure.char_quadrature"):
            return {"I": measure_char_quadrature(state, radial_cut=None).value}
    if route == "wigner-grid":
        with tracer.span("phasespace.wigner_of"):
            grid = phasespace.wigner_of(state)
        tracer.count("phasespace.wigner_of.points", grid.values.size)
        tracer.count("measure.wigner_grid.points", grid.values.size)
        with tracer.span("measure.wigner_grid"):
            return {"I": measure_wigner_grid(grid).value}
    raise ValueError(f"unknown route {route!r}")


def _run_loss(req: dict, tracer) -> dict:
    tracer.count("catalog.build.calls", len(req["alpha"]))
    with tracer.span("catalog.build"):
        modes = [catalog.make_scs(a, c) for a, c in zip(req["alpha"], req["cutoff"])]
    if len(modes) == 1:
        state = modes[0]
    else:
        with tracer.span("fock.density_matrix"):
            state = DensityMatrix(ModeCutoffs(tuple(req["cutoff"])),
                                  np.kron(modes[0].data, modes[1].data))
    steps = _rk4_steps(LOSS_TAUS, LOSS_STEP)
    tracer.count("dynamics.evolve.rk4_steps", steps)
    tracer.count("dynamics.evolve.a_rho_adag_calls", 4 * steps * len(modes))
    with tracer.span("dynamics.evolve"):
        traj = evolve(state, LOSS_TAUS, step=LOSS_STEP)
    with tracer.span("dynamics.purity_rate"):
        resid = purity_rate_residuals(state, LOSS_TAUS, step=LOSS_STEP)
    return {"I": [p.value for p in traj], "residual": [float(r) for r in resid]}


# ---------------------------------------------------------------------------
# oracles

def exact(req: dict) -> float | list[float]:
    """The exact I the request should return (one value per record time for loss)."""
    state = req.get("state")
    if req["route"] == "loss":
        parts = [[catalog.closed_form_decohered_scs(a, tau) for tau in LOSS_TAUS]
                 for a in req["alpha"]]
        if len(parts) == 1:
            return [r.value for r in parts[0]]
        # I of a product state: I_a P_b + I_b P_a
        return [a.value * b.purity + b.value * a.purity for a, b in zip(*parts)]
    if state == "ghz":
        return req["modes"] / 2.0
    if state == "dur":
        return catalog.dur_exact(req["modes"], req["epsilon"])
    if state == "coherent":
        # I is displacement invariant, so a coherent state scores as the vacuum
        return catalog.gaussian_measure(1.0, 1.0).value
    if state == "cat":
        return catalog.closed_form_scs(req["alpha"]).value
    if state == "decohered-cat":
        return catalog.closed_form_decohered_scs(req["alpha"], req["tau"]).value
    if state == "squeezed":
        return catalog.gaussian_measure(*catalog.squeezed_char_params(req["s"])).value
    if state == "thermal-scs":
        return catalog.thermal_scs_measure(req["V"], req["d"]).value
    raise ValueError(f"no exact value for {req!r}")


def check(req: dict, outcome: dict) -> list[str]:
    """The comparisons an answer fails; empty when it meets its target."""
    want = exact(req)
    if req["route"] != "loss":
        got, want, tol = outcome["I"], float(want), TOLERANCE[req["route"]]
        return [] if abs(got - want) <= tol else [f"I = {got!r}, exact {want!r}, tol {tol:g}"]
    bad = []
    for tau, got, ref, resid in zip(LOSS_TAUS, outcome["I"], want, outcome["residual"]):
        if not abs(got - ref) <= LOSS_TOLERANCE * abs(ref):
            bad.append(f"tau={tau}: I = {got!r}, exact {ref!r}, relative tol {LOSS_TOLERANCE:g}")
        if not resid <= LOSS_TOLERANCE:
            bad.append(f"tau={tau}: |dP/dtau + 2I| = {resid!r}, tol {LOSS_TOLERANCE:g}")
    return bad
