"""Tests for the three evaluation routes and their failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macroq import catalog, phasespace
from macroq.fock import (DensityMatrix, ModeCutoffs, annihilation_op, exchange_trace,
                         factored_exchange_trace, number_diagonal, number_op)
from macroq.measure import (
    ConvergenceError,
    MeasureResult,
    _angular_mean,
    _laguerre_rule,
    _probe_radial_cut,
    measure,
    measure_char_quadrature,
    measure_operator,
    measure_wigner_grid,
)


@pytest.mark.parametrize("n", range(6))
def test_operator_route_fock_states(n):
    res = measure_operator(catalog.make_fock(n))
    assert res.value == pytest.approx(float(n), abs=1e-12)
    assert res.route == "operator"


def test_operator_route_coherent_is_zero():
    res = measure_operator(catalog.make_coherent(1.4, 35))
    assert abs(res.value) < 1e-10
    assert res.mean_n == pytest.approx(1.96, abs=1e-9)
    assert res.purity == pytest.approx(1.0, abs=1e-12)


def test_operator_route_thermal_closed_form():
    # nbar = 1 sits at the analytic value -1/9
    res = measure_operator(catalog.make_thermal(1.0, 60))
    assert res.value == pytest.approx(-1.0 / 9.0, abs=1e-8)


def test_operator_route_pure_state_identity():
    # for pure states the measure is <n> minus the coherent displacement part
    rho = catalog.make_coherent(0.9, 30)
    shifted = catalog.make_scs(1.1, 30)
    from macroq.fock import annihilation_op

    for state in (rho, shifted):
        res = measure_operator(state)
        a = annihilation_op(state.cutoffs)
        amp = abs(np.trace(state.data @ a)) ** 2
        assert res.value == pytest.approx(state.mean_number() - amp, abs=1e-10)


@pytest.mark.parametrize("dims", [(3, 1, 4), (2, 2, 2, 2)])
def test_operator_route_matches_explicit_operators_unequal_cutoffs(dims):
    # the route reads rho through shifted views; rebuild every number it
    # reports from explicit operator matrices, including a one-level mode
    rng = np.random.default_rng(sum(dims))
    cuts = ModeCutoffs(dims)
    g = rng.normal(size=(cuts.dim, 3)) + 1j * rng.normal(size=(cuts.dim, 3))
    state = DensityMatrix(cuts, g @ g.conj().T)
    rho = state.data
    value = 0.0
    for m in range(cuts.modes):
        a = annihilation_op(cuts, m)
        n_m = a.conj().T @ a
        value += np.trace(rho @ rho @ n_m) - np.trace(a @ rho @ a.conj().T @ rho)
    res = measure_operator(state)
    assert abs(value.imag) < 1e-15
    assert res.value == pytest.approx(value.real, abs=1e-12)
    assert res.mean_n == pytest.approx(np.trace(rho @ number_op(cuts)).real, abs=1e-12)
    assert res.purity == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)
    assert res.purity < 0.9  # genuinely mixed


def test_operator_route_warns_on_top_population():
    # build a state with visible weight at the truncation edge by hand
    data = np.diag([0.5, 0.0, 0.5])
    state = DensityMatrix(3, data)
    res = measure_operator(state)
    assert any("population" in w for w in res.warnings)


def test_operator_route_sees_no_top_level_on_one_level_modes():
    # the only level of a one-level mode is not a truncation edge
    res = measure_operator(DensityMatrix((1,), [[1.0]]))
    assert res.value == 0.0 and res.err_estimate == 0.0 and res.warnings == ()
    cat = catalog.make_scs(1.0, 40)
    alone = measure_operator(cat)
    both = measure_operator(DensityMatrix((1, 40), cat.data))
    assert both.value == pytest.approx(alone.value, rel=1e-15, abs=1e-15)
    assert both.err_estimate == alone.err_estimate
    assert both.warnings == alone.warnings


def _operator_by_modes(state):
    """measure_operator's value, occupation and error bar from the per-mode
    public functions, each of which builds its mode's ladder itself."""
    cut = state.cutoffs
    number = number_diagonal(cut)
    if state.factors is not None:
        V, C = state.factors
        gram = V.conj().T @ V
        value = float(np.real(np.einsum("ij,jk,kl,li->", C, gram, C,
                                        V.conj().T @ (number[:, None] * V))))
        value -= sum(factored_exchange_trace(V, C, cut, m) for m in range(cut.modes))
        return value, state.mean_number(), 0.0
    rho = state.data
    flat = rho.view(np.float64)
    value = float(np.einsum("ij,ij->i", flat, flat) @ number)
    value -= sum(exchange_trace(rho, cut, m) for m in range(cut.modes))
    top = np.zeros(cut.dim, dtype=bool)
    for m, d in enumerate(cut.cutoffs):
        if d > 1:
            top |= number_diagonal(cut, m) == d - 1
    err = 2.0 * float(rho.diagonal().real[top].sum()) * (number.max() + 1.0)
    return value, state.mean_number(), err


@pytest.mark.parametrize("make", [
    lambda: DensityMatrix((12, 13), np.kron(catalog.make_scs(1.0, 12).data,
                                            catalog.make_coherent(0.5 + 1.2j, 13).data)),
    lambda: catalog.make_dur(12, 0.3)], ids=["dense-2-mode", "dur-12"])
def test_operator_route_is_bit_identical_to_its_per_mode_terms(make):
    # the route builds each mode's ladder once and passes it to every term;
    # that must not move a bit against the per-mode functions
    state = make()
    res = measure_operator(state)
    value, mean, err = _operator_by_modes(state)
    assert (res.value, res.mean_n, res.err_estimate) == (value, mean, err)
    assert res.purity == state.purity()
    assert (err > 0.0) == (state.factors is None)


def test_result_as_dict_round_trip():
    res = measure_operator(catalog.make_fock(2))
    d = res.as_dict()
    assert d["value"] == pytest.approx(2.0)
    assert d["route"] == "operator"
    assert "warnings" not in d or isinstance(d["warnings"], list)


def test_quadrature_route_matches_operator():
    rho = catalog.make_scs(1.5, 45)
    ref = measure_operator(rho).value
    res = measure_char_quadrature(phasespace.char_of(rho), radial_cut=None)
    assert res.route == "char-quadrature"
    assert res.value == pytest.approx(ref, abs=1e-9)
    assert res.err_estimate < 1e-7


def test_quadrature_route_closed_form_char():
    chi = catalog.ThermalSCSChar(2.0, 1.0)
    res = measure_char_quadrature(chi, radial_cut=None)
    assert res.value == pytest.approx(catalog.thermal_scs_measure(2.0, 1.0).value,
                                      abs=1e-9)


def test_quadrature_route_flags_bad_cut():
    chi = phasespace.char_of(catalog.make_scs(2.0, 40))
    with pytest.raises(ConvergenceError) as exc:
        measure_char_quadrature(chi, radial_cut=0.4, tol=1e-10)
    partial = exc.value.partial
    assert isinstance(partial, MeasureResult)
    assert partial.err_estimate > 0


class _CountingChar:
    """Passes calls through to a DenseChar and counts angular_mean_sq calls.

    Unless given ``levels``, it exposes none, so the route takes its panels.
    """

    def __init__(self, chi, levels=None):
        self._chi = chi
        self.radii = []
        if levels is not None:
            self.levels = levels

    @property
    def calls(self):
        return len(self.radii)

    def __call__(self, xi):
        return self._chi(xi)

    def angular_mean_sq(self, r):
        self.radii.append(np.size(r))
        return self._chi.angular_mean_sq(r)

    @property
    def mean_n(self):
        return self._chi.mean_n

    @property
    def purity(self):
        return self._chi.purity


def test_quadrature_route_batches_radial_evaluations():
    # one call for the probe, one per refinement level, one for the tail:
    # a route that asked for the integrand radius by radius makes thousands
    chi = _CountingChar(phasespace.char_of(catalog.make_scs(2.0, 40)))
    res = measure_char_quadrature(chi, radial_cut=None)
    assert chi.calls <= 10
    assert res.value == pytest.approx(catalog.closed_form_scs(2.0).value, abs=1e-9)


class _BareChar:
    """Only the callable of a DenseChar, so the angle is trapezoid-sampled."""

    def __init__(self, chi):
        self._chi = chi

    def __call__(self, xi):
        return self._chi(xi)


@pytest.mark.parametrize("state", [catalog.make_scs(1.5, 45),
                                   catalog.make_squeezed(0.55, 40)],
                         ids=["cat", "squeezed"])
def test_quadrature_trapezoid_angle_matches_exact_angle(state):
    chi = phasespace.char_of(state)
    exact = measure_char_quadrature(chi, radial_cut=None)
    sampled = measure_char_quadrature(_BareChar(chi), radial_cut=None)
    assert sampled.value == pytest.approx(exact.value, abs=1e-9)


def test_quadrature_route_warns_when_panel_budget_runs_out():
    # |chi|^2 jumps at r = 1.234, so the panel holding the jump never settles
    def step(xi):
        return (np.abs(xi) < 1.234).astype(float)
    with pytest.raises(ConvergenceError) as exc:
        measure_char_quadrature(step, radial_cut=3.0)
    assert any("unconverged" in w for w in exc.value.partial.warnings)


def test_quadrature_route_probes_its_cut_by_default():
    # squeezed s = 1.5 reaches past r = 8, so a fixed cut there would truncate it
    params = catalog.squeezed_char_params(1.5)
    res = measure_char_quadrature(catalog.GaussianChar(*params))
    exact = catalog.gaussian_measure(*params).value
    assert res.value == pytest.approx(exact, abs=1e-6)


@pytest.mark.parametrize("V, d, gap", [(2.0, 20.0, 0.25), (1.0, 8.75, 0.5),
                                       (4.0, 14.25, 0.125)])
def test_quadrature_route_closes_purity_on_the_panels(V, d, gap):
    # the wings at |xi| = 2d lie past a cut at 6, so the panels see half
    # of the purity (or less); the closure turns that into a loud failure
    # instead of a value off by about 2 d^2 with a tiny err_estimate
    chi = catalog.ThermalSCSChar(V, d)
    with pytest.raises(ConvergenceError) as exc:
        measure_char_quadrature(chi, radial_cut=6.0)
    partial = exc.value.partial
    assert partial.purity == chi.purity
    assert partial.err_estimate == pytest.approx(gap, rel=1e-6)
    exact = catalog.thermal_scs_measure(V, d).value
    assert abs(partial.value - exact) > 1.0


def test_quadrature_route_closes_purity_on_closed_form_states():
    # where the cut holds the state, the closure adds only rounding
    for chi in (catalog.ThermalSCSChar(4.0, 2.0), catalog.ThermalSCSChar(8.0, 4.0),
                catalog.GaussianChar(*catalog.squeezed_char_params(1.5))):
        res = measure_char_quadrature(chi)
        assert res.err_estimate < 1e-10


def test_quadrature_route_reaches_thermal_scs_wings_at_any_displacement():
    # the wings sit at |xi| = 2d; a walk from r = 2 capped at 30 misses
    # them from d = 8.75 (V = 1), 10 (V = 2) and 14.25 (V = 4) on and
    # raises just below those onsets, so the scan runs past each.  Started
    # at 2 sqrt(<n>), the probe reaches them at every d, and err_estimate
    # covers the gap to the closed form.  From V = 100 on the wings, about
    # sqrt(V) wide, outgrow a cap 30 past the start: it raised at 104 of
    # the 121 d at V = 100 and at all of them at V = 200 and 1000, until
    # the cap grew with 1 / sqrt(purity)
    for V in (1.0, 2.0, 4.0, 8.0, 20.0, 60.0, 100.0, 200.0, 1000.0):
        for d in np.arange(121) * 0.25:
            res = measure_char_quadrature(catalog.ThermalSCSChar(V, d))
            gap = abs(res.value - catalog.thermal_scs_measure(V, d).value)
            assert gap <= res.err_estimate, (V, d, gap, res.err_estimate)


def test_probe_walk_stays_small_for_very_mixed_states():
    # a cap 30 / sqrt(P) past the start spans 4.2e7 unit steps at nbar = 1e12
    # and 3e11 at A = B = 1e20; the walk coarsens its steps to stay at 3000
    # radii, and a V = 1e12 superposition, whose wings are 1e6 wide, still
    # reaches them
    for chi in (catalog.GaussianChar(2e12 + 1, 2e12 + 1), catalog.GaussianChar(1e20, 1e20),
                catalog.ThermalSCSChar(1e12, 0.0)):
        s, sizes = _angular_mean(chi), []
        _, capped = _probe_radial_cut(lambda r: sizes.append(np.size(r)) or s(r),
                                      chi.mean_n, chi.purity)
        assert capped == () and max(sizes) <= 3001
    assert measure(catalog.Named("thermal", (1e14,)), "char-quadrature").value == 0.0
    res = measure_char_quadrature(catalog.ThermalSCSChar(1e12, 0.0))
    assert abs(res.value - catalog.thermal_scs_measure(1e12, 0.0).value) <= res.err_estimate


@pytest.mark.parametrize("chi", [catalog.ThermalSCSChar(4.0, 2.0),
                                 catalog.ThermalSCSChar(2.0, 20.0),
                                 catalog.GaussianChar(*catalog.squeezed_char_params(1.5))],
                         ids=["thermal-scs", "thermal-scs-wide", "squeezed"])
def test_quadrature_route_never_samples_a_closed_form_char(chi, monkeypatch):
    # both carry angular_mean_sq, mean_n and purity, so the route needs no
    # value of chi itself: no trapezoid over angles, no derivative at 0
    calls = []
    real = type(chi).__call__
    monkeypatch.setattr(type(chi), "__call__",
                        lambda self, xi: calls.append(np.size(xi)) or real(self, xi))
    measure_char_quadrature(chi)
    assert calls == []
    chi(np.zeros(3))  # the wrapper does count
    assert calls == [3]


class _NanChar:
    """A chi whose integrand is NaN everywhere, as a NaN parameter makes it.

    It has angular_mean_sq, so each radius costs one float whatever the
    route does; it counts the radii it is asked for.
    """

    def __init__(self):
        self.radii = 0

    def __call__(self, xi):
        return np.full(np.shape(xi), np.nan)

    def angular_mean_sq(self, r):
        self.radii += np.size(r)
        return np.full(np.shape(r), np.nan)


def test_quadrature_route_stops_at_a_non_finite_integrand():
    # a NaN never passes the halving test, so panels that kept halving would
    # reach 12 levels, about 3 million radii, and blame the radial cut
    chi = _NanChar()
    with pytest.raises(ConvergenceError, match="integrand is not finite"):
        measure_char_quadrature(chi)
    assert chi.radii <= 500


def test_laguerre_rule_matches_laggauss():
    for n in (1, 2, 3, 7, 40, 100, 150):
        u, scaled = _laguerre_rule(n)
        x, w = np.polynomial.laguerre.laggauss(n)
        assert np.allclose(u, x, rtol=1e-10, atol=0)
        assert np.allclose(scaled, w * np.exp(x), rtol=1e-10, atol=0)


def test_laguerre_rule_stays_finite_and_exact_at_500_nodes():
    # laggauss gives NaN from about 200 nodes on; the scaled weights do not
    u, scaled = _laguerre_rule(500)
    assert np.isfinite(u).all() and np.isfinite(scaled).all()
    assert (np.diff(u) > 0).all() and u[0] > 0
    weights = scaled * np.exp(-u)
    for k in range(20):
        assert weights @ u ** k == pytest.approx(math.factorial(k), rel=1e-12)


def test_laguerre_rule_polishes_its_upper_nodes():
    # the Jacobi eigenvalues sit up to 1.9e-15 relative from the roots of
    # L_100 on the upper half; the Newton step brings those to 3e-16
    mpmath = pytest.importorskip("mpmath")
    n = 100
    u, _ = _laguerre_rule(n)
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, u[n // 2:]):
            ln, lm = mpmath.laguerre(n, 0, x), mpmath.laguerre(n - 1, 0, x)
            assert abs(ln / (n * (ln - lm))) <= 6e-16  # |L_n / L_n'| / u


def test_exact_radial_rule_gives_zero_on_the_vacuum():
    chi = phasespace.char_of(catalog.make_fock(0, 1))
    assert chi.levels == 1
    res = measure_char_quadrature(chi)
    assert res.value == 0.0
    assert res.err_estimate < 1e-15


_SINGLE_MODE = {
    "fock5": lambda: catalog.make_fock(5),
    "coherent": lambda: catalog.make_coherent(1.3 + 0.4j),
    "scs": lambda: catalog.make_scs(2.2),
    "scs8": lambda: catalog.make_scs(8),
    "mixture-scs": lambda: catalog.make_mixture_scs(1.7),
    "decohered-scs": lambda: catalog.make_decohered_scs(1.5, 0.3),
    "thermal": lambda: catalog.make_thermal(1.2, 60),
    "squeezed1.5": lambda: catalog.make_squeezed(1.5),
    "maximally-mixed": lambda: catalog.make_maximally_mixed(7),
    "thermal-scs": lambda: catalog.make_thermal_scs(2.0, 1.5),
}


@pytest.mark.parametrize("make", list(_SINGLE_MODE.values()), ids=list(_SINGLE_MODE))
def test_exact_radial_rule_matches_operator_on_the_catalog(make):
    state = make()
    dense = phasespace.char_of(state)
    chi = _CountingChar(dense, levels=dense.levels)
    res = measure_char_quadrature(chi)
    assert chi.radii == [chi.levels]
    assert res.err_estimate < 1e-12
    assert res.value == pytest.approx(measure_operator(state).value, abs=1e-12)


@pytest.mark.parametrize("n", [380, 450])
def test_exact_radial_rule_measures_high_fock_states(n):
    # the outer nodes reach r^2 ~ 4n, where the displacement recurrence's
    # seeds lie below the float range
    res = measure_char_quadrature(phasespace.char_of(catalog.make_fock(n, n + 1)))
    assert res.value == pytest.approx(n, abs=1e-10)
    assert res.err_estimate < 1e-10


def test_exact_radial_rule_flags_weight_past_its_levels():
    # a chi whose levels undercount its state has a purity the rule cannot
    # close, so the route fails loudly instead of returning the truncated sum
    chi = _CountingChar(phasespace.char_of(catalog.make_scs(2.0, 40)), levels=8)
    with pytest.raises(ConvergenceError, match="8-node rule does not close") as exc:
        measure_char_quadrature(chi)
    assert exc.value.partial.err_estimate > 1e-3


def test_wigner_grid_route_matches_operator():
    rho = catalog.make_scs(1.5, 45)
    grid = phasespace.wigner_of(rho, points=201)
    res = measure_wigner_grid(grid)
    assert res.route == "wigner-grid"
    assert res.value == pytest.approx(measure_operator(rho).value, abs=1e-6)


@pytest.mark.parametrize("make, exact", [
    (lambda: catalog.make_scs(3.0, 40), lambda: catalog.closed_form_scs(3.0).value),
    (lambda: catalog.make_squeezed(1.5),
     lambda: catalog.gaussian_measure(*catalog.squeezed_char_params(1.5)).value),
    (lambda: catalog.make_fock(10, 12), lambda: 10.0),
], ids=["cat3", "squeezed1.5", "fock10"])
def test_wigner_grid_default_resolution_meets_closed_form(make, exact):
    # the dispatcher samples at the bandwidth-sized default grid
    res = measure(make(), "wigner-grid")
    gap = abs(res.value - exact())
    assert gap <= 1e-6
    assert res.err_estimate >= gap


def test_wigner_grid_route_rejects_clipped_grid():
    rho = catalog.make_scs(1.5, 45)
    ax = phasespace.Axis(-2.0, 2.0, 64)
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("ignore")
        grid = phasespace.wigner_of(rho, x_axis=ax, p_axis=ax)
    with pytest.raises(ValueError):
        measure_wigner_grid(grid)
    # the edge gate sits at 1e-8 of the peak |W|, here on one corner sample
    held = phasespace.wigner_of(rho)
    peak = np.abs(held.values).max()
    for ratio, clips in ((2e-8, True), (5e-9, False)):
        vals = held.values.copy()
        vals[0, 0] = ratio * peak
        edged = phasespace.WignerGrid(held.x, held.p, vals)
        if clips:
            with pytest.raises(ValueError):
                measure_wigner_grid(edged)
        else:
            assert measure_wigner_grid(edged).value == pytest.approx(
                catalog.closed_form_scs(1.5).value, abs=1e-3)


def test_wigner_grid_route_rejects_denormalized_grid():
    grid = phasespace.wigner_of(catalog.make_fock(0, cutoff=10), points=64)
    bad = phasespace.WignerGrid(grid.x, grid.p, grid.values * 1.05)
    with pytest.raises(ValueError):
        measure_wigner_grid(bad)
    # the norm gate sits at 2 percent
    for scale in (1.021, 0.979):
        with pytest.raises(ValueError):
            measure_wigner_grid(phasespace.WignerGrid(grid.x, grid.p, grid.values * scale))
    for scale in (1.019, 0.981):
        measure_wigner_grid(phasespace.WignerGrid(grid.x, grid.p, grid.values * scale))


def _phase(k):
    """A fixed phase for the k-th coherent amplitude, spread around the circle."""
    return np.exp(2j * np.pi * (0.3 + 0.37 * k))


# catalog states at their default cutoffs: Fock states, coherent states at
# fixed phases, real and complex cats, mixtures, decohered cats, thermal,
# squeezed and thermal-superposition states
GRID_SWEEP = {
    **{f"fock{n}": (lambda n=n: catalog.make_fock(n)) for n in (0, 1, 5, 20, 80)},
    **{f"coherent{a}": (lambda a=a, k=k: catalog.make_coherent(a * _phase(k)))
       for k, a in enumerate((0.5, 1.5, 3.0, 5.0))},
    **{f"cat{a}": (lambda a=a: catalog.make_scs(a)) for a in (0.5, 1.0, 2.0, 2.95, 4.0, 6.0)},
    "complex-cat": lambda: catalog.make_scs(2.0 * np.exp(0.25j * np.pi)),
    **{f"mixture{a}": (lambda a=a: catalog.make_mixture_scs(a)) for a in (1.5, 3.0)},
    **{f"decohered{a},{t}": (lambda a=a, t=t: catalog.make_decohered_scs(a, t))
       for a, t in ((1.5, 0.3), (3.0, 0.1), (2.0, 1.0))},
    **{f"thermal{nbar}": (lambda nbar=nbar: catalog.make_thermal(nbar))
       for nbar in (0.5, 1.0, 3.0, 10.0)},
    **{f"squeezed{s}": (lambda s=s: catalog.make_squeezed(s)) for s in (0.3, 0.8, 1.2, 1.5)},
    **{f"thermal-scs{V},{d}": (lambda V=V, d=d: catalog.make_thermal_scs(V, d))
       for V, d in ((2.0, 1.5), (3.0, 1.0))},
    "maximally-mixed7": lambda: catalog.make_maximally_mixed(7),
}


def _grid_gap(state, exact, points=None):
    """The grid route on ``state``'s default axes, and its gap to ``exact``."""
    res = measure_wigner_grid(phasespace.wigner_of(state, points=points))
    return res, abs(res.value - exact)


@pytest.mark.parametrize("name", list(GRID_SWEEP))
def test_grid_route_bar_covers_its_gap_across_the_catalog(name):
    # the default grid holds the state and the route's bar covers its gap
    # to the operator route on the same matrix; on grids of 3/4 and 1/2 the
    # default count, whose dual grids end inside chi's reach on many of
    # these states, the bar still covers the gap and reads within 1e6 of it
    state = GRID_SWEEP[name]()
    exact = measure_operator(state).value
    grid = phasespace.wigner_of(state)
    assert grid.faults() == (None, None)
    res = measure_wigner_grid(grid)
    assert res.err_estimate >= abs(res.value - exact)
    for share in (0.75, 0.5):
        coarse, gap = _grid_gap(state, exact, int(share * grid.x.n) | 1)
        assert gap <= coarse.err_estimate <= 1e6 * max(gap, 1e-16), share
    # where the turning point sets the width, W on the edge is within
    # 1.2e-12 of its peak: the vacuum's Gaussian three units out
    if phasespace.default_half_width(state) < 4.3 * np.sqrt(2 * state.mean_number() + 1):
        W = grid.values
        edge = max(np.abs(side).max() for side in (W[0], W[-1], W[:, 0], W[:, -1]))
        assert edge <= 1.2e-12 * np.abs(W).max()


def _random_state(levels, rank, seed):
    """A state on ``levels`` levels: rank 1 or 2, complex amplitudes from ``seed``."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((levels, rank)) + 1j * rng.standard_normal((levels, rank))
    weights = rng.uniform(0.05, 1.0, rank)
    return DensityMatrix((levels,), (vecs * weights) @ vecs.conj().T)


@settings(max_examples=30, deadline=None, database=None)
@given(levels=st.integers(1, 30), rank=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_grid_route_bar_covers_its_gap_on_random_states(levels, rank, seed):
    # on 600 such states the default grid's bar read 10 to 2e4 times its
    # gap and the 3/4 grid's at least 14 times; the 1/2 grid and the upper
    # bound on the 3/4 grid fail on about 1 % of them (the cases below)
    state = _random_state(levels, rank, seed)
    exact = measure_operator(state).value
    grid = phasespace.wigner_of(state)
    assert grid.faults() == (None, None)
    res = measure_wigner_grid(grid)
    gap = abs(res.value - exact)
    assert gap <= res.err_estimate <= 1e6 * max(gap, 1e-16)
    coarse, gap = _grid_gap(state, exact, int(0.75 * grid.x.n) | 1)
    assert gap <= coarse.err_estimate


@pytest.mark.xfail(strict=True, reason="the band stands for chi past the edge only once "
                   "the dual grid reaches past chi's bulk; on coarser grids it can read "
                   "below the gap, and on nearly resolved ones far above it")
@pytest.mark.parametrize("levels, rank, seed, share", [
    (2, 1, 160, 0.5),    # gap 3.0e-5, bar 3.8e-6
    (14, 1, 123, 0.5),   # gap 0.568, bar 0.554
    (30, 1, 305, 0.75),  # gap 6.3e-12, bar 7.7e-5
])
def test_grid_route_bar_on_coarse_grids_of_random_states(levels, rank, seed, share):
    state = _random_state(levels, rank, seed)
    coarse, gap = _grid_gap(state, measure_operator(state).value,
                            int(share * phasespace.wigner_of(state).x.n) | 1)
    assert gap <= coarse.err_estimate <= 1e6 * max(gap, 1e-16)


def test_measure_adds_the_truncation_tail_and_route_functions_do_not():
    # measure() answers for the untruncated state, the route functions for
    # the matrix: the squeezed vacuum cut at 40 levels is 0.22 below its
    # closed form, which the operator route alone reports with err_estimate 0
    with pytest.warns(RuntimeWarning, match="cutoff misses"):
        state = catalog.make_squeezed(1.5, 40)
    exact = catalog.gaussian_measure(*catalog.squeezed_char_params(1.5)).value
    own = {"operator": measure_operator(state),
           "char-quadrature": measure_char_quadrature(phasespace.char_of(state)),
           "wigner-grid": measure_wigner_grid(phasespace.wigner_of(state))}
    assert own["operator"].err_estimate == 0.0
    for route, alone in own.items():
        res = measure(state, route)
        assert res.value == alone.value, route
        assert res.err_estimate == alone.err_estimate + state.tail, route
        assert abs(res.value - exact) <= res.err_estimate, route
    # a state whose tail is unknown takes the route's own bar
    thermal = catalog.make_thermal(1.0, 40)
    assert measure(thermal, "operator") == measure_operator(thermal)


def test_dispatcher_routes_and_ket_support():
    rho = catalog.make_coherent(1.0, 30)
    for route in ("operator", "char-quadrature", "wigner-grid"):
        res = measure(rho, route=route)
        assert abs(res.value) < 1e-6, route
    # a pure state built from its amplitudes takes the operator route by default
    res = measure(catalog.make_fock(1, 5))
    assert res.route == "operator"
    assert res.value == pytest.approx(1.0, abs=1e-12)
    # a product-rank state defaults to low-rank and reaches the dense routes
    ghz = catalog.make_ghz(6)
    res = measure(ghz)
    assert res.route == "low-rank"
    assert res.value == pytest.approx(3.0, abs=1e-12)
    res = measure(ghz, "operator")
    assert res.route == "operator"
    assert res.value == pytest.approx(3.0, abs=1e-12)
    # a characteristic function defaults to the quadrature route
    res = measure(catalog.GaussianChar(3.0, 0.5))
    assert res.route == "char-quadrature"
    assert res.value == pytest.approx(catalog.gaussian_measure(3.0, 0.5).value, abs=1e-9)
    with pytest.raises(ValueError, match="operator route .* GaussianChar"):
        measure(catalog.GaussianChar(3.0, 0.5), "operator")
    # a dense state reports its modes as a product-rank state does
    two = DensityMatrix((2, 3), np.eye(6))
    assert two.modes == 2
    with pytest.raises(ValueError, match="single-mode form, not a DensityMatrix of 2 modes"):
        measure(two, "char-quadrature")


def test_dispatcher_rejects_unknown_route(monkeypatch):
    with pytest.raises(ValueError):
        measure(catalog.make_fock(0), route="monte-carlo")
    # a named state is refused before it is built: V = 1000, d = 50 would
    # size 39,840 levels
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock state was built")

    for name in ("__init__", "_from_hermitian", "product"):
        monkeypatch.setattr(DensityMatrix, name, refuse)
    with pytest.raises(ValueError, match="^unknown route 'char_quadrature'"):
        measure(catalog.Named("thermal-scs", (1000, 50)), "char_quadrature")
    with pytest.raises(ValueError, match="^unknown state 'thermal_scs'"):
        catalog.Named("thermal_scs", (1000, 50))


# small parameters for every named state with a closed form
_CLOSED = {"scs": (1.2,), "mixture-scs": (1.0,), "decohered-scs": (1.0, 0.3),
           "squeezed": (0.5,), "gaussian": (3.0, 0.5), "thermal": (0.5,),
           "thermal-scs": (2.0, 1.0), "dur": (4, 0.3)}


def test_named_states_answer_closed_form_and_analytic_chi_without_a_fock_state(monkeypatch):
    # both describe the untruncated state, so neither may build it: a build
    # sizes its cutoff from the parameters (thermal-scs V = 1000, d = 50
    # would take 39,840 levels) and refuses a cutoff that misses the state
    # (thermal-scs V = 2, d = 3 at cutoff 20)
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock state was built")

    for name in ("__init__", "_from_hermitian", "product"):
        monkeypatch.setattr(DensityMatrix, name, refuse)
    assert set(_CLOSED) == {name for name, e in catalog.STATES.items() if e.closed}
    for name, params in _CLOSED.items():
        res = measure(catalog.Named(name, params, cutoff=3), "closed-form")
        assert res == catalog.STATES[name].closed(*params), name
        if name in ("thermal", "thermal-scs", "gaussian"):
            quad = measure(catalog.Named(name, params, cutoff=3), "char-quadrature")
            assert quad.route == "char-quadrature"
            assert quad.value == pytest.approx(res.value, abs=quad.err_estimate + 1e-14), name
    assert measure(catalog.Named("thermal-scs", (2, 20)), "closed-form").value == 200.0625
    res = measure(catalog.Named("thermal-scs", (2.0, 3.0), cutoff=20), "closed-form")
    assert res.value == pytest.approx(4.56193597106, abs=1e-11)


def test_closed_form_route_needs_a_named_state_with_a_closed_form():
    lacking = {"fock": (2,), "coherent": (0.8,), "ghz": (3,), "noon": (2,),
               "maximally-mixed": (4,)}
    assert set(lacking) == {name for name, e in catalog.STATES.items() if e.closed is None}
    for name, params in lacking.items():
        with pytest.raises(ValueError, match=f"^the closed-form route needs a closed form, "
                                             f"which state {name} lacks$"):
            measure(catalog.Named(name, params), "closed-form")
    # any other input names the route and what it takes
    with pytest.raises(ValueError, match="^the closed-form route needs a named catalog "
                                         "state, not a DensityMatrix$"):
        measure(catalog.make_thermal(0.5), "closed-form")
