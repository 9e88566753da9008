"""Acceptance gate: one test per numbered criterion, each printing a verdict.

Every test prints `criterion NN <slug>: PASS/FAIL (<measured numbers>)` before
asserting, so one run yields the complete scorecard.  The literal
squeezed-vacuum configuration of criterion 5 cannot reach its stated tolerance
at the stated cutoff; that part is kept as a strict expected failure with the
measured gap, and a companion test shows the identical pipeline converging
once the cutoff is adequate.
"""

import time

import numpy as np
import pytest

from macroq import catalog, phasespace
from macroq.cli import main
from macroq.dynamics import evolve, purity_rate_residuals
from macroq.fock import DensityMatrix, a_rho_adag, apply_displacement, apply_rotation, as_cutoffs
from macroq.lowrank import measure_lowrank
from macroq.measure import measure_char_quadrature, measure_operator, measure_wigner_grid


def verdict(num, slug, ok, detail):
    print(f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d} {slug}: {detail}"


def test_criterion_01_fock_ladder():
    t0 = time.perf_counter()
    devs = [abs(measure_operator(catalog.make_fock(n)).value - n) for n in range(11)]
    elapsed = time.perf_counter() - t0
    worst = max(devs)
    verdict(1, "fock-ladder", worst <= 1e-10 and elapsed < 1.0,
            f"max|I - n| = {worst:.3e}, tol 1e-10, {elapsed:.2f}s")


def test_criterion_02_occupation_bound_ensemble():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    dim = 6
    cuts = as_cutoffs(dim)
    min_slack = np.inf
    strict_ok = True
    equality_idx, small_exchange_idx = set(), set()
    for i in range(500):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        st = DensityMatrix(cuts, g @ g.conj().T)
        res = measure_operator(st)
        slack = res.mean_n - res.value
        min_slack = min(min_slack, slack)
        if res.purity < 1.0 - 1e-6 and slack <= 0.0:
            strict_ok = False
        exchange = float(np.real(np.einsum("ij,ji->", a_rho_adag(st.data, cuts, 0),
                                           st.data)))
        if slack <= 1e-12:
            equality_idx.add(i)
        if exchange <= 1e-12:
            small_exchange_idx.add(i)
    elapsed = time.perf_counter() - t0
    ok = (min_slack >= -1e-9 and strict_ok and equality_idx == small_exchange_idx
          and elapsed < 30.0)
    verdict(2, "occupation-bound", ok,
            f"min slack = {min_slack:.3e}, equality cases = {len(equality_idx)}, "
            f"{elapsed:.1f}s over 500 states")


def test_criterion_03_maximal_states():
    t0 = time.perf_counter()
    gaps = []
    res = measure_operator(catalog.make_scs(2.0))
    gaps.append(abs(res.value - res.mean_n))
    res = measure_lowrank(catalog.make_ghz(8))
    gaps.append(abs(res.value - res.mean_n))
    res = measure_lowrank(catalog.make_noon(5))
    gaps.append(abs(res.value - res.mean_n))
    elapsed = time.perf_counter() - t0
    verdict(3, "maximal-states", max(gaps) <= 1e-6 and elapsed < 10.0,
            f"max|I - <n>| = {max(gaps):.3e} over scs/ghz/noon, {elapsed:.2f}s")


def test_criterion_04_damped_cat_trajectory():
    t0 = time.perf_counter()
    alpha, taus = 2.0, [0.1, 0.3, 0.7]
    state = catalog.make_scs(alpha, 40)
    traj = evolve(state, taus)
    rels = []
    for p in traj:
        ref = catalog.closed_form_decohered_scs(alpha, p.tau).value
        rels.append(abs(p.value - ref) / abs(ref))
    resid = purity_rate_residuals(state, taus)
    elapsed = time.perf_counter() - t0
    ok = max(rels) <= 1e-5 and max(resid) <= 1e-5 and elapsed < 60.0
    verdict(4, "damped-cat", ok,
            f"max rel I gap = {max(rels):.3e}, max |dP/dtau + 2I| = "
            f"{max(resid):.3e}, {elapsed:.1f}s")


def test_criterion_05_thermal_sign():
    num = measure_operator(catalog.make_thermal(1.0, 80)).value
    closed = catalog.gaussian_measure(3.0, 3.0).value
    gap_num = abs(num - (-1.0 / 9.0))
    gap_closed = abs(closed - (-1.0 / 9.0))
    verdict(5, "thermal-sign", gap_num <= 1e-6 and gap_closed <= 1e-12,
            f"numeric gap = {gap_num:.3e}, closed-form gap = {gap_closed:.3e}, "
            f"target -1/9")


@pytest.mark.xfail(strict=True,
                   reason="cutoff 60 discards 5.7e-4 of the squeezed norm; the "
                          "renormalized state sits 3.7e-2 below sinh^2(1.5), far "
                          "outside the stated 1e-5")
def test_criterion_05_squeezed_cutoff60():
    target = np.sinh(1.5) ** 2
    with pytest.warns(RuntimeWarning):
        rho = catalog.make_squeezed(1.5, 60)
    gap = abs(measure_operator(rho).value - target)
    verdict(5, "squeezed-cutoff60", gap <= 1e-5,
            f"|I - sinh^2 1.5| = {gap:.3e} at cutoff 60, tol 1e-5")


def test_criterion_05_squeezed_resolved():
    target = np.sinh(1.5) ** 2
    rho = catalog.make_squeezed(1.5, 200)
    gap = abs(measure_operator(rho).value - target)
    verdict(5, "squeezed-resolved", gap <= 1e-5,
            f"|I - sinh^2 1.5| = {gap:.3e} at cutoff 200, tol 1e-5")


def test_criterion_06_broadened_cat_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for V in (2.0, 5.0, 10.0):
        for d in (1.0, 3.0, 5.0):
            oracle = measure_char_quadrature(catalog.ThermalSCSChar(V, d),
                                             radial_cut=None).value
            worst = max(worst, abs(catalog.thermal_scs_measure(V, d).value - oracle))
    sat = catalog.thermal_scs_measure(1e4, 0.0).value
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and abs(sat - 0.5) <= 1e-2 and elapsed < 60.0
    verdict(6, "broadened-cat", ok,
            f"max closed-vs-quadrature gap = {worst:.3e} on 3x3 grid, "
            f"I(V=1e4, d=0) = {sat:.6f}, {elapsed:.1f}s")


def test_criterion_07_many_party_asymptotics():
    t0 = time.perf_counter()
    big = catalog.dur_measure(1000, 0.1).value
    t_closed = time.perf_counter() - t0
    rel = abs(big - 2.5) / 2.5
    gaps = []
    t_dense = t_operator = 0.0
    for n in (2, 5, 12):
        state = catalog.make_dur(n, 0.1)
        low = measure_lowrank(state).value
        t1 = time.perf_counter()
        dense = state.to_dense()
        t2 = time.perf_counter()
        gaps.append(abs(low - measure_operator(dense).value))
        t_dense += t2 - t1
        t_operator += time.perf_counter() - t2
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.15 and max(gaps) <= 1e-10 and elapsed < 10.0
    verdict(7, "many-party", ok,
            f"I(1000, 0.1) = {big:.6f} vs 2.5 ({100 * rel:.1f}%), "
            f"max lowrank-dense gap = {max(gaps):.3e}, {elapsed:.1f}s "
            f"(closed form {t_closed:.2f}s, to_dense {t_dense:.2f}s, "
            f"operator route {t_operator:.2f}s)")


def test_criterion_08_invariance():
    base = catalog.make_scs(1.0, 40)
    i0 = measure_operator(base).value
    d_gap = abs(measure_operator(apply_displacement(base, 1.0 + 0.5j)).value - i0)
    r_gap = abs(measure_operator(apply_rotation(base, 0.37)).value - i0)
    verdict(8, "invariance", d_gap <= 1e-5 and r_gap <= 1e-10,
            f"displacement shift = {d_gap:.3e} (tol 1e-5), rotation shift = "
            f"{r_gap:.3e} (tol 1e-10)")


def test_criterion_09_route_triangle():
    states = {
        "vacuum": catalog.make_fock(0, cutoff=16),
        "fock1": catalog.make_fock(1, cutoff=16),
        "coherent1": catalog.make_coherent(1.0),
        "scs1.5": catalog.make_scs(1.5),
        "dec-scs": catalog.make_decohered_scs(1.5, 0.3),
        "squeezed1": catalog.make_squeezed(1.0),
    }
    worst = 0.0
    for name, st in states.items():
        vo = measure_operator(st).value
        vq = measure_char_quadrature(phasespace.char_of(st), radial_cut=None).value
        vw = measure_wigner_grid(phasespace.wigner_of(st, points=201)).value
        spread = max(vo, vq, vw) - min(vo, vq, vw)
        worst = max(worst, spread)
    verdict(9, "route-triangle", worst <= 1e-3,
            f"max spread across operator/quadrature/grid = {worst:.3e}, tol 1e-3")


def _read_curves(path):
    rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
    curves = {}
    for param, r, value, _, _ in rows:
        curves.setdefault(param, []).append((float(r), float(value)))
    return curves


def test_criterion_10_decoherence_figures(tmp_path):
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--preset", "fig1a", "--samples", "21",
                 "--output", str(fa)]) == 0
    assert main(["sweep", "--preset", "fig1b", "--samples", "21",
                 "--output", str(fb)]) == 0
    curves_a, curves_b = _read_curves(fa), _read_curves(fb)

    shapes_ok = True
    for curves, start_of in ((curves_a, lambda q: q ** 2 * np.tanh(q ** 2)),
                             (curves_b, lambda q: np.sinh(q) ** 2)):
        for param, pts in curves.items():
            q = float(param.split("=")[1])
            vals = np.array([v for _, v in pts])
            if abs(vals[0] - start_of(q)) > 1e-9 * max(1.0, start_of(q)):
                shapes_ok = False
            positive = vals > 1e-12
            k = int(np.argmax(~positive)) if (~positive).any() else len(vals)
            if not (np.diff(vals[:k]) <= 1e-12).all():
                shapes_ok = False

    # slower normalized decay for the squeezed state deep into the curve
    scs = dict(curves_a["alpha=2"])
    gauss = dict(curves_b["s=1.5"])
    order_ok = all(gauss[r] / gauss[0.0] > scs[r] / scs[0.0]
                   for r in (0.5, 0.6, 0.65))
    verdict(10, "decoherence-figures", shapes_ok and order_ok,
            f"8 curves monotone on the positive branch with exact r=0 starts, "
            f"normalized robustness ordering holds at r in (0.5, 0.6, 0.65)")
