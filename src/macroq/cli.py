"""Command line front end.

Exit codes: 0 on success, 1 on numeric failure or a state that cannot take
the requested route (a structured JSON message goes to stderr), 2 on usage
errors argparse catches.  All numbers are printed with 12 significant digits
and no locale dependence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from typing import Callable

import numpy as np

from . import catalog, dynamics, phasespace
from .fock import (DensityMatrix, TruncationLeakError, apply_displacement,
                   apply_rotation, exchange_trace)
from .lowrank import ProductRankState
from .measure import (ConvergenceError, measure, measure_char_quadrature,
                      measure_operator, measure_wigner_grid)


def _sig12(x):
    if isinstance(x, float):
        return float(f"{x + 0.0:.12g}")  # + 0.0 folds -0.0 into 0.0
    if isinstance(x, dict):
        return {k: _sig12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_sig12(v) for v in x]
    return x


def _emit_json(payload, stream=None):
    print(json.dumps(_sig12(payload)), file=stream or sys.stdout)


# ---------------------------------------------------------------------------
# state construction from flags

@dataclasses.dataclass(frozen=True)
class StateEntry:
    """How one ``--state`` name is built and measured.

    ``build(*values, cutoff)`` returns the object ``measure()`` takes, with
    ``values`` read from ``flags`` in order; ``closed(*values)`` is the
    closed form and ``char(*values)`` the analytic characteristic function
    that ``--route char-quadrature`` integrates in place of the built state.
    """

    flags: tuple[str, ...]
    route: str
    build: Callable
    closed: Callable | None = None
    char: Callable | None = None


STATES = {
    "fock": StateEntry(("n",), "operator", catalog.make_fock),
    "coherent": StateEntry(("alpha",), "operator", catalog.make_coherent),
    "scs": StateEntry(("alpha",), "operator", catalog.make_scs,
                      closed=catalog.closed_form_scs),
    "mixture-scs": StateEntry(("alpha",), "closed-form", catalog.make_mixture_scs,
                              closed=catalog.mixture_scs_measure),
    "decohered-scs": StateEntry(("alpha", "tau"), "closed-form",
                                catalog.make_decohered_scs,
                                closed=catalog.closed_form_decohered_scs),
    "squeezed": StateEntry(("s",), "operator", catalog.make_squeezed,
                           closed=lambda s: catalog.gaussian_measure(
                               *catalog.squeezed_char_params(s))),
    "gaussian": StateEntry(("A", "B"), "closed-form",
                           lambda A, B, cut: catalog.GaussianChar(A, B),
                           closed=catalog.gaussian_measure),
    "thermal": StateEntry(("nbar",), "closed-form", catalog.make_thermal,
                          closed=catalog.thermal_measure,
                          char=lambda nbar: catalog.GaussianChar(2 * nbar + 1,
                                                                 2 * nbar + 1)),
    "thermal-scs": StateEntry(("V", "d"), "closed-form", catalog.make_thermal_scs,
                              closed=catalog.thermal_scs_measure,
                              char=catalog.ThermalSCSChar),
    "ghz": StateEntry(("n-modes",), "low-rank", lambda n, cut: catalog.make_ghz(n)),
    "noon": StateEntry(("n",), "low-rank", lambda n, cut: catalog.make_noon(n)),
    "dur": StateEntry(("n-modes", "epsilon"), "low-rank",
                      lambda n, eps, cut: catalog.make_dur(n, eps),
                      closed=catalog.dur_measure),
    "maximally-mixed": StateEntry(("dim",), "operator",
                                  lambda dim, cut: catalog.make_maximally_mixed(dim)),
}


def _add_state_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state", required=True, choices=tuple(STATES))
    p.add_argument("--n", type=int, help="photon number (fock, noon)")
    p.add_argument("--alpha", type=float, help="coherent amplitude")
    p.add_argument("--tau", type=float, help="damping time (decohered-scs)")
    p.add_argument("--s", type=float, help="squeezing parameter")
    p.add_argument("--A", type=float, help="Gaussian width, real axis")
    p.add_argument("--B", type=float, help="Gaussian width, imaginary axis")
    p.add_argument("--nbar", type=float, help="thermal occupation")
    p.add_argument("--V", type=float, help="thermal broadening (thermal-scs)")
    p.add_argument("--d", type=float, help="branch displacement (thermal-scs)")
    p.add_argument("--n-modes", type=int, help="mode count (ghz, dur)")
    p.add_argument("--epsilon", type=float, help="branch angle (dur)")
    p.add_argument("--dim", type=int, help="dimension (maximally-mixed)")
    p.add_argument("--cutoff", type=int,
                   help="Fock cutoff; defaults to MACROQ_DEFAULT_CUTOFF or a "
                        "per-state heuristic")


def _resolve_cutoff(args) -> int | None:
    """Explicit flag, then the environment override, then None (per-state default)."""
    if args.cutoff is not None:
        return args.cutoff
    env = os.environ.get("MACROQ_DEFAULT_CUTOFF")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MACROQ_DEFAULT_CUTOFF={env!r} is not an integer")
    return None


def _state_args(parser, args) -> tuple[StateEntry, list, int | None]:
    """The chosen STATES entry, its flag values in order, and the Fock cutoff."""
    cut = _resolve_cutoff(args)
    entry = STATES[args.state]
    values = [getattr(args, flag.replace("-", "_")) for flag in entry.flags]
    for flag, value in zip(entry.flags, values):
        if value is None:
            parser.error(f"--state {args.state} requires --{flag}")
    return entry, values, cut


def _dense(state) -> DensityMatrix:
    """The Fock-space matrix of a built state, for the commands that need one."""
    if isinstance(state, ProductRankState):
        return state.to_dense()
    if not isinstance(state, DensityMatrix):
        raise ValueError(f"a {type(state).__name__} has no Fock-space form")
    return state


# ---------------------------------------------------------------------------
# subcommands

def cmd_measure(parser, args) -> int:
    entry, values, cut = _state_args(parser, args)
    route = args.route or entry.route
    if route == "closed-form":
        if entry.closed is None:
            raise ValueError(f"the closed-form route needs a closed form, "
                             f"which state {args.state} lacks")
        res = entry.closed(*values)
    elif route == "char-quadrature" and entry.char is not None:
        res = measure(entry.char(*values), route)
    else:
        res = measure(entry.build(*values, cut), route)
    _emit_json(res.as_dict())
    return 0


def _csv_line(*cells) -> str:
    out = []
    for c in cells:
        out.append(f"{c + 0.0:.12g}" if isinstance(c, float) else str(c))
    return ",".join(out)


def cmd_sweep(parser, args) -> int:
    lines = ["param,axis_value,I,mean_n,purity"]
    n = args.samples
    if args.preset == "fig1a":
        for alpha in (2.0, 4.0, 6.0, 27.3):
            for r in np.linspace(0.0, 1.0, n):
                x = 1.0 - r * r
                tau = np.inf if x == 0.0 else -np.log(x)
                res = catalog.closed_form_decohered_scs(alpha, tau)
                lines.append(_csv_line(f"alpha={alpha:g}", float(r), res.value,
                                       res.mean_n, res.purity))
    elif args.preset == "fig1b":
        for s in (1.5, 2.1, 2.5, 7.0):
            a0, b0 = catalog.squeezed_char_params(s)
            for r in np.linspace(0.0, 1.0, n):
                x = 1.0 - r * r
                tau = np.inf if x == 0.0 else -np.log(x)
                a, b = catalog.gaussian_decohere(a0, b0, tau)
                res = catalog.gaussian_measure(a, b)
                lines.append(_csv_line(f"s={s:g}", float(r), res.value,
                                       res.mean_n, res.purity))
    elif args.preset == "thermal-limit":
        for v in np.geomspace(1.0, 1e4, n):
            res = catalog.thermal_scs_measure(float(v), 0.0)
            lines.append(_csv_line("d=0", float(v), res.value, res.mean_n, res.purity))
    else:
        parser.error(f"unknown preset {args.preset!r}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_emit_wigner(parser, args) -> int:
    entry, values, cut = _state_args(parser, args)
    state = entry.build(*values, cut)
    # checked before _dense, which would expand a product-rank state first
    modes = state.modes if isinstance(state, ProductRankState) else \
        state.cutoffs.modes if isinstance(state, DensityMatrix) else 1
    if modes > 1:
        raise ValueError(f"Wigner grids are single-mode, and state {args.state} "
                         f"has {modes} modes")
    state = _dense(state)
    axes = {}
    if args.half_width is not None:
        points = args.points
        if points is None:
            points = phasespace.default_points(state, args.half_width)
        ax = phasespace.Axis(-args.half_width, args.half_width, points)
        axes = {"x_axis": ax, "p_axis": ax}
    grid = phasespace.wigner_of(state, points=args.points, **axes)
    words = [args.state]  # e.g. "scs alpha=2"
    for flag, v in zip(entry.flags, values):
        words.append(f"{flag.replace('-', '_')}={format(v, 'g') if isinstance(v, float) else v}")
    grid.meta["state"] = " ".join(words)
    phasespace.save_wigner(grid, args.output)
    return 0


def cmd_score_wigner(parser, args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grid = phasespace.load_wigner(args.input,
                                      strict_normalization=args.strict_normalization)
        res = measure_wigner_grid(grid)
    payload = res.as_dict()
    notes = [str(w.message) for w in caught]
    if notes:
        payload["warnings"] = payload.get("warnings", []) + notes
    _emit_json(payload)
    return 0


def cmd_evolve(parser, args) -> int:
    entry, values, cut = _state_args(parser, args)
    state = _dense(entry.build(*values, cut))
    times = np.linspace(0.0, args.t_max, args.samples)
    traj = dynamics.evolve(state, times)
    lines = ["tau,I,purity,mean_n"]
    for pt in traj:
        lines.append(_csv_line(pt.tau, pt.value, pt.purity, pt.mean_n))
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(parser, args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []

    def operator_route(state):
        res = measure_operator(state)
        if not args.inject_fault:
            return res
        # flip the sign of the exchange term Tr(a_m rho a_m^dag rho)
        cut = state.cutoffs
        exchange = sum(exchange_trace(state.data, cut, m) for m in range(cut.modes))
        return dataclasses.replace(res, value=res.value + 2.0 * exchange)

    def record(name, ok, margin):
        rows.append((name, bool(ok), float(margin)))

    dim = 6
    results = []
    for _ in range(args.ensemble):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        state = DensityMatrix((dim,), rho)
        results.append(operator_route(state))
    # a pure state with a nonzero field average: the flipped exchange term
    # overshoots the occupation here, so an injected fault cannot hide
    results.append(operator_route(catalog.make_coherent(1.0, 25)))
    slack = [r.mean_n - r.value for r in results]
    record("occupation-bound", min(slack) >= -1e-9, min(slack))

    mixed = [s for s, r in zip(slack, results) if r.purity < 1.0 - 1e-6]
    record("strict-bound-when-mixed", bool(mixed) and min(mixed) > 0.0,
           min(mixed) if mixed else np.nan)

    gaps = [abs(measure_operator(catalog.make_fock(n)).value - n) for n in range(6)]
    cat = measure_operator(catalog.make_scs(1.2))
    gaps.append(abs(cat.value - cat.mean_n))
    record("pure-zero-overlap-equality", max(gaps) <= 1e-8, max(gaps))

    base = catalog.make_scs(1.0, 40)
    i0 = measure_operator(base).value
    moved = apply_displacement(base, [1.0 + 0.5j])
    record("displacement-invariance",
           abs(measure_operator(moved).value - i0) <= 1e-5,
           abs(measure_operator(moved).value - i0))
    turned = apply_rotation(base, [0.37])
    record("rotation-invariance",
           abs(measure_operator(turned).value - i0) <= 1e-10,
           abs(measure_operator(turned).value - i0))

    coh = catalog.make_coherent(1.0, 25)
    r_op = measure_operator(coh).value
    r_ch = measure_char_quadrature(phasespace.char_of(coh), radial_cut=None).value
    r_wg = measure_wigner_grid(phasespace.wigner_of(coh)).value
    spread = max(r_op, r_ch, r_wg) - min(r_op, r_ch, r_wg)
    record("route-triangle", spread <= 1e-3, spread)

    resid = dynamics.purity_rate_residuals(catalog.make_scs(1.0, 30), [0.2])
    record("purity-rate-identity", resid[0] <= 1e-5, resid[0])

    left = catalog.make_coherent(0.8, 12)
    right = catalog.make_thermal(0.5, 16)
    both = DensityMatrix((12, 16), np.kron(left.data, right.data))
    i_two = measure_operator(both).value
    i_parts = (measure_operator(left).value * right.purity()
               + measure_operator(right).value * left.purity())
    record("product-additivity", abs(i_two - i_parts) <= 1e-8, abs(i_two - i_parts))

    ok_all = True
    for name, ok, margin in rows:
        ok_all &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} margin={margin:.3e}")
    print(f"{sum(ok for _, ok, _ in rows)}/{len(rows)} properties hold")
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="macroq",
                                     description="Interference-based macroscopicity "
                                                 "of bosonic states")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate I for a named state")
    _add_state_flags(p)
    p.add_argument("--route", choices=("operator", "char-quadrature", "wigner-grid",
                                       "closed-form", "low-rank"))
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="closed-form decoherence curves as CSV")
    p.add_argument("--preset", required=True,
                   choices=("fig1a", "fig1b", "thermal-limit"))
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("emit-wigner", help="sample a state's Wigner function to a file")
    _add_state_flags(p)
    p.add_argument("--points", type=int,
                   help="points per axis (default: sized from the state's Fock bandwidth)")
    p.add_argument("--half-width", type=float)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_emit_wigner)

    p = sub.add_parser("score-wigner", help="evaluate I from a WIGNER-GRID file")
    p.add_argument("--input", required=True)
    p.add_argument("--strict-normalization", action="store_true")
    p.set_defaults(func=cmd_score_wigner)

    p = sub.add_parser("evolve", help="amplitude-damping trajectory as CSV")
    _add_state_flags(p)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=11)
    p.add_argument("--output")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("check", help="self-test the measure's defining properties")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--ensemble", type=int, default=50)
    p.add_argument("--inject-fault", action="store_true",
                   help="flip one Lindblad term to prove the checks can fail")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except ConvergenceError as exc:
        payload = {"error": "convergence", "message": str(exc)}
        if exc.partial is not None:
            payload["partial"] = exc.partial.as_dict()
        _emit_json(payload, stream=sys.stderr)
        return 1
    except (TruncationLeakError, ValueError, RuntimeError, OSError) as exc:
        _emit_json({"error": type(exc).__name__, "message": str(exc)},
                   stream=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
