"""Characteristic functions, Wigner grids, transforms, and the text formats."""

import functools
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import macroq
from macroq import catalog
from macroq.measure import (_BAND, _NODE_RULE_BYTES, _SAMPLE_ERR, _gauss_laguerre,
                            _laguerre_rule, _node_rule, _node_rule_fits, _power_score,
                            measure_char_quadrature, measure_operator, measure_wigner_grid)
from macroq.phasespace import (
    GRID_EDGE_TOL,
    GRID_NORM_TOL,
    _angular_mean_sq,
    _angular_mean_sq_at_nodes,
    _CHI_DECAY,
    _SUPPORT_MARGIN,
    _TRIM,
    _W_DECAY,
    Axis,
    _hermite_functions,
    DenseChar,
    WignerGrid,
    _sample_wigner,
    _significant_level,
    char_of,
    char_points,
    default_half_width,
    default_points,
    fringe_frequency,
    load_wigner,
    save_wigner,
    wigner_of,
    wigner_points,
)


def coherent_char(alpha, xi):
    return np.exp(-0.5 * np.abs(xi) ** 2 + xi * np.conj(alpha) - np.conj(xi) * alpha)


def test_char_points_origin_gives_trace():
    rho = catalog.make_thermal(0.7, 25)
    val = char_points(rho.data, [0.0])
    assert val[0] == pytest.approx(1.0, abs=1e-14)


def test_char_points_coherent_closed_form():
    alpha = 0.9 + 0.4j
    rho = catalog.make_coherent(alpha, 35)
    xis = np.array([0.3, -0.5 + 0.2j, 1.1j, 2.0 - 1.0j])
    np.testing.assert_allclose(char_points(rho.data, xis), coherent_char(alpha, xis),
                               atol=1e-12)


def test_dense_char_moments_match_state():
    rho = catalog.make_scs(1.2, 30)
    chi = char_of(rho)
    assert chi.mean_n == pytest.approx(rho.mean_number(), abs=1e-9)
    assert chi.purity == pytest.approx(rho.purity(), abs=1e-9)


def test_angular_mean_matches_direct_average():
    rho = catalog.make_scs(1.0, 25)
    chi = char_of(rho)
    r = 1.3
    angles = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    vals = chi(r * np.exp(1j * angles))
    ref = np.mean(np.abs(vals) ** 2)
    assert chi.angular_mean_sq(r) == pytest.approx(ref, abs=1e-12)


def test_wigner_points_vacuum_and_single_photon():
    alphas = np.array([0.0, 0.5, 0.3 - 0.7j])
    vac = catalog.make_fock(0, cutoff=12)
    one = catalog.make_fock(1, cutoff=12)
    gauss = (2.0 / np.pi) * np.exp(-2 * np.abs(alphas) ** 2)
    np.testing.assert_allclose(wigner_points(vac, alphas), gauss, atol=1e-12)
    np.testing.assert_allclose(wigner_points(one, alphas),
                               gauss * (4 * np.abs(alphas) ** 2 - 1), atol=1e-12)


def test_axis_validation_and_points():
    ax = Axis(-2.0, 2.0, 5)
    np.testing.assert_allclose(ax.points, [-2, -1, 0, 1, 2])
    assert ax.step == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Axis(1.0, -1.0, 5)
    with pytest.raises(ValueError):
        Axis(0.0, 1.0, 1)


def test_wigner_grid_rejects_bad_values():
    ax = Axis(-3.0, 3.0, 16)
    vals = np.ones((16, 16))
    with pytest.raises(ValueError):
        WignerGrid(ax, ax, vals[:8])
    bad = vals.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        WignerGrid(ax, ax, bad)
    with pytest.raises(ValueError):
        WignerGrid(Axis(-3.0, 3.0, 8), ax, np.ones((8, 16)))


def test_wigner_grid_moments_coherent():
    grid = wigner_of(catalog.make_coherent(1.1, 30), points=161)
    assert grid.norm() == pytest.approx(1.0, abs=1e-9)
    assert grid.mean_number() == pytest.approx(1.21, abs=1e-8)
    assert grid.purity() == pytest.approx(1.0, abs=1e-8)


def test_wigner_of_warns_when_window_clips():
    rho = catalog.make_coherent(2.0, 30)
    ax = Axis(-1.5, 1.5, 41)
    with pytest.warns(RuntimeWarning):
        wigner_of(rho, x_axis=ax, p_axis=ax)


def test_wigner_of_warns_when_grid_misses_the_norm():
    rho = catalog.make_coherent(2.0, 30)
    ax = Axis(-1.5, 1.5, 41)
    with pytest.warns(RuntimeWarning) as caught:
        wigner_of(rho, x_axis=ax, p_axis=ax)
    messages = [str(w.message) for w in caught]
    assert any("clips the state" in m for m in messages)
    assert any("norm" in m and "deviates from 1" in m for m in messages)


def test_hermite_functions_stay_orthonormal_past_the_float_range():
    # at n = 700 the functions reach |u| ~ 38, where exp(-u^2 / 2) alone
    # underflows; the trapezoid Gram matrix is exact for these integrands
    u = np.arange(-48.0, 48.0, 0.05)
    phi = _hermite_functions(700, u)
    gram = 0.05 * phi @ phi.T
    assert np.abs(gram - np.eye(700)).max() < 1e-12


ORACLE_STATES = {
    "squeezed1.5": lambda: catalog.make_squeezed(1.5),
    "cat2": lambda: catalog.make_scs(2.0, 40),
    "cat3": lambda: catalog.make_scs(3.0, 40),
    "decohered-cat": lambda: catalog.make_decohered_scs(1.5, 0.3, 30),
    "thermal": lambda: catalog.make_thermal(1.0, 40),
    "fock5": lambda: catalog.make_fock(5, 12),
    "coherent": lambda: catalog.make_coherent(0.9 - 0.6j, 30),
    # complex amplitudes give a complex rho, which the sampler does not read
    # as a real one
    "complex-cat": lambda: catalog.make_scs(2.0 * np.exp(0.25j * np.pi)),
}


@functools.cache
def _oracle_data(name):
    return ORACLE_STATES[name]().data


def _oracle_gap(rho, grid, step=1):
    """max |wigner_of - wigner_points| over every step-th sample, relative to the peak."""
    ix = np.unique(np.r_[0:grid.x.n:step, grid.x.n - 1])
    ip = np.unique(np.r_[0:grid.p.n:step, grid.p.n - 1])
    ref = wigner_points(rho, grid.x.points[ix, None] + 1j * grid.p.points[None, ip])
    return np.abs(grid.values[np.ix_(ix, ip)] - ref).max() / np.abs(grid.values).max()


@pytest.mark.parametrize("name", list(ORACLE_STATES))
def test_wigner_of_matches_pointwise_oracle(name):
    # the position-space sampler against the displaced-parity sum, on the
    # default grid (every 15th sample keeps the oracle cheap at dim 224)
    rho = ORACLE_STATES[name]()
    grid = wigner_of(rho)
    assert _oracle_gap(rho, grid, step=15) <= 1e-13


@pytest.mark.parametrize("x_axis, p_axis", [
    (Axis(-4.0, 4.0, 21), Axis(-4.0, 4.0, 21)),    # coarse
    (Axis(-2.5, 5.5, 41), Axis(-6.0, 3.0, 33)),    # off-centre, x and p differ
    (Axis(-3.0, 3.0, 17), Axis(-7.0, 7.0, 201)),   # coarse x, fine wide p
], ids=["coarse", "offset", "mixed"])
@pytest.mark.parametrize("name", ["coherent", "cat3", "squeezed1.5"])
def test_wigner_of_explicit_axes_match_pointwise_oracle(name, x_axis, p_axis):
    # a coarse or off-centre axis must neither alias nor shift the samples;
    # these windows clip some states, which only warns
    rho = ORACLE_STATES[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        grid = wigner_of(rho, x_axis=x_axis, p_axis=p_axis)
    assert _oracle_gap(rho, grid) <= 1e-13


def _reference_sample_wigner(rho, x_axis, p_axis):
    """The sampler as index-array gathers and full cos/sin tables: the
    bracket for every x step and offset is read through explicit up and down
    indices into the lattice, every eigenpair above 1e-16 of the largest is
    kept, and the y-sum is one GEMM against stacked cos and sin tables."""
    n = _significant_level(rho) + 1
    lam, vecs = np.linalg.eigh(rho[:n, :n])
    keep = np.abs(lam) > _TRIM * np.abs(lam).max()
    lam, vecs = lam[keep], vecs[:, keep]
    support = np.sqrt(2.0 * n + 1.0) + _SUPPORT_MARGIN
    dx, ps = x_axis.step, p_axis.points
    m = max(1, int(np.ceil((np.abs(ps).max() + support / np.sqrt(2.0)) * 2.0 * dx / np.pi)))
    h = np.sqrt(2.0) * dx / m
    q0 = np.sqrt(2.0) * x_axis.start
    lo = int(np.floor((-support - q0) / h))
    hi = int(np.ceil((support - q0) / h))
    nu = hi - lo + 1
    psi = np.zeros((nu + 1, lam.size), dtype=complex)
    psi[:nu] = _hermite_functions(n, q0 + h * np.arange(lo, hi + 1)).T @ vecs
    j = np.arange((nu + 1) // 2)
    centre = m * np.arange(x_axis.n)[:, None] - lo
    up, down = centre + j, centre - j
    outside = (up >= nu) | (down < 0)
    up[outside] = nu
    down[outside] = nu
    bracket = np.zeros(up.shape, dtype=complex)
    for weight, col in zip(lam, psi.T):
        bracket += weight * col[up] * col[down].conj()
    arg = 2.0 * np.sqrt(2.0) * h * np.outer(j, ps)
    fold = np.where(j == 0, 1.0, 2.0)[:, None]
    basis = np.vstack([fold * np.cos(arg), fold * np.sin(arg)])
    return (2.0 * h / np.pi) * (np.hstack([bracket.real, bracket.imag]) @ basis)


def _char_from_arrays(xs, ps, W):
    """Transform Wigner samples to the dual chi grid with one real 2-D FFT.

    Returns (xi_r, xi_i, chi) with chi indexed [xi_r, xi_i] and
    chi(xi) = dx dp sum_jk W(x_j, p_k) e^{2i (x_j xi_i - p_k xi_r)}.  Each
    dual axis spans +-pi / (2 step) in as many points as its sample axis, so
    its spacing pi / ((N - 1) step) turns the kernel into
    (-1)^j e^{+-2 pi i j a / (N - 1)} times one phase per output point: a DFT
    of period N - 1, in which sample N - 1 is sample 0 again and output
    N - 1 is output 0.  W is real, so the rows past xi_r = 0 follow from
    chi(-xi) = conj chi(xi).  Each step is the axis span over N - 1, so the
    dual grid sits on the FFT's exact lattice.  The grid route scores |chi|^2
    without forming chi; this full transform is its reference.
    """
    nx, n_p = xs.size, ps.size
    lx, lp = nx - 1, n_p - 1
    dx = (xs[-1] - xs[0]) / lx
    dp = (ps[-1] - ps[0]) / lp
    xi_r = np.linspace(-np.pi / (2 * dp), np.pi / (2 * dp), n_p)
    xi_i = np.linspace(-np.pi / (2 * dx), np.pi / (2 * dx), nx)
    # the dual edge at -pi / (2 step) alternates the sign of the samples
    signs = np.outer(1 - 2 * (np.arange(nx) % 2), 1 - 2 * (np.arange(n_p) % 2))
    s = np.asarray(W, dtype=float) * signs
    period = s[:lx, :lp].copy()
    period[0] += s[lx, :lp]
    period[:, 0] += s[:lx, lp]
    period[0, 0] += s[lx, lp]
    # rfft2 gives the p frequencies 0 .. lp // 2, the rows up to xi_r = 0; the
    # x kernel carries e^{+2 pi i j a / lx}, so column a reads frequency -a
    half = lp // 2 + 1
    chi = np.empty((n_p, nx), dtype=complex)
    chi[:half] = np.fft.rfft2(period)[-np.arange(nx) % lx].T
    chi[:half] *= np.outer(np.exp(-2j * ps[0] * xi_r[:half]) * (dx * dp),
                           np.exp(2j * xs[0] * xi_i))
    chi[half:] = chi[n_p - 1 - half::-1, ::-1].conj()
    return xi_r, xi_i, chi


def _char_score(xs, ps, W):
    """The grid route's sum (|xi|^2 - 1) |chi|^2 cell / (2 pi) over the full
    dual chi grid, the same sum of its magnitudes, which bounds its
    rounding, and the sums of (|xi|^2 + 1) |chi|^2 cell / (2 pi) over the
    points whose row or column lies more than 1 - _BAND of its axis' half
    width from the centre, in steps, and over the whole grid."""
    xi_r, xi_i, chi = _char_from_arrays(xs, ps, W)
    w2 = xi_r[:, None] ** 2 + xi_i[None, :] ** 2
    cell = (xi_r[1] - xi_r[0]) * (xi_i[1] - xi_i[0]) / (2.0 * np.pi)
    power = np.abs(chi) ** 2 * cell
    terms = (w2 - 1.0) * power
    lp, lx = ps.size - 1, xs.size - 1
    band = ((np.abs(2 * np.arange(lp + 1) - lp) > (1.0 - _BAND) * lp)[:, None]
            | (np.abs(2 * np.arange(lx + 1) - lx) > (1.0 - _BAND) * lx)[None, :])
    plus = (w2 + 1.0) * power
    return (float(terms.sum()), float(np.abs(terms).sum()), float(plus[band].sum()),
            float(plus.sum()))


# |W| <= 2 / pi, so the bound is absolute; the sampler reorders the
# reference's arithmetic and meets it to a few 1e-15
SAMPLER_TOL = 1e-13

SAMPLER_AXES = {
    "coarse": (Axis(-4.0, 4.0, 21), Axis(-4.0, 4.0, 21)),
    "offset": (Axis(-2.5, 5.5, 41), Axis(-6.0, 3.0, 33)),
    "mixed": (Axis(-3.0, 3.0, 17), Axis(-7.0, 7.0, 201)),
    "wider-than-support": (Axis(-40.0, 3.0, 64), Axis(-5.0, 5.0, 64)),
    "coarse-wide": (Axis(-60.0, 60.0, 300), Axis(-60.0, 60.0, 300)),
    "past-the-support": (Axis(25.0, 40.0, 16), Axis(-5.0, 5.0, 16)),
    # p axes symmetric about 0, where a real state's W is computed on the
    # first ceil(N_p / 2) columns and mirrored
    "symmetric-even": (Axis(-5.0, 5.0, 200), Axis(-5.0, 5.0, 200)),
    "symmetric-odd": (Axis(-3.0, 4.0, 36), Axis(-6.5, 6.5, 61)),
    "off-support": (Axis(1.0, 2.0, 16), Axis(-1.0, 30.0, 90)),
}
SAMPLER_CASES = (
    [(name, "default") for name in ORACLE_STATES]
    + [(name, axes) for name in ("coherent", "complex-cat", "cat3", "squeezed1.5")
       for axes in SAMPLER_AXES if axes != "off-support"]
    + [("squeezed1.5", "off-support")]
)


def _sampler_gap(rho, x_axis, p_axis):
    return np.abs(_sample_wigner(rho, x_axis, p_axis)
                  - _reference_sample_wigner(rho, x_axis, p_axis)).max()


@pytest.mark.parametrize("name, axes", SAMPLER_CASES,
                         ids=[f"{name}-{axes}" for name, axes in SAMPLER_CASES])
def test_sampler_matches_the_gather_reference(name, axes):
    # window views, the rank eigh resolves and the split phase tables against
    # the index-array formulation, on default grids, on windows wider than
    # the support, off it or past it, and on coarse and mixed axes
    state = ORACLE_STATES[name]()
    x_axis, p_axis = (wigner_of(state).x,) * 2 if axes == "default" else SAMPLER_AXES[axes]
    assert _sampler_gap(state.data, x_axis, p_axis) <= SAMPLER_TOL


def test_sampler_matches_the_gather_reference_on_the_bench_cat():
    # the bench's large cat on the 401-point, +-18.3 grid it once took
    state = catalog.make_scs(2.91, 37)
    hw = 4.3 * np.sqrt(2.0 * state.mean_number() + 1.0)
    axis = Axis(-hw, hw, 401)
    assert _sampler_gap(state.data, axis, axis) <= SAMPLER_TOL


@settings(max_examples=100, deadline=None, database=None)
@given(name=st.sampled_from(["coherent", "complex-cat", "cat3", "decohered-cat",
                              "thermal", "fock5"]),
       x0=st.floats(-12.0, 12.0), x_span=st.floats(1.0, 40.0), nx=st.integers(16, 80),
       p0=st.floats(-12.0, 12.0), p_span=st.floats(1.0, 40.0), n_p=st.integers(16, 80))
def test_sampler_matches_the_gather_reference_on_any_axes(name, x0, x_span, nx,
                                                          p0, p_span, n_p):
    x_axis, p_axis = Axis(x0, x0 + x_span, nx), Axis(p0, p0 + p_span, n_p)
    assert _sampler_gap(_oracle_data(name), x_axis, p_axis) <= SAMPLER_TOL


@pytest.mark.parametrize("axes", ["symmetric-even", "symmetric-odd"])
def test_sampler_mirrors_real_states_on_symmetric_p_axes(axes):
    # a real state's W is even in p; the mirrored half is a copy, bit for
    # bit, while a complex state's W is not even and keeps every column
    x_axis, p_axis = SAMPLER_AXES[axes]
    W = _sample_wigner(_oracle_data("cat3"), x_axis, p_axis)
    assert (W == W[:, ::-1]).all()
    W = _sample_wigner(_oracle_data("complex-cat"), x_axis, p_axis)
    assert np.abs(W - W[:, ::-1]).max() > 1e-3


@pytest.mark.parametrize("name", list(ORACLE_STATES))
def test_node_tensor_matches_the_recurrence_on_oracle_states(name):
    # the exact radial rule reads the angular mean at its nodes off the
    # cached node tensor where D fits the cache, and from the displacement
    # recurrence otherwise (squeezed 1.5, D = 223); both give one I and one
    # quadrature purity
    state = ORACLE_STATES[name]()
    chi = char_of(state)
    D = chi.levels
    u, scaled = _laguerre_rule(D)
    ref = _angular_mean_sq(state.data, np.sqrt(u))
    s = ref
    if _node_rule_fits(D):
        node_u, node_scaled, tensor = _node_rule(D)
        assert (node_u == u).all() and (node_scaled == scaled).all()
        s = _angular_mean_sq_at_nodes(state.data, tensor)
        assert np.abs(s - ref).max() <= 1e-14 * ref.max()
    else:
        assert name == "squeezed1.5"
    value = 0.5 * (u - 1.0) @ (scaled * ref)
    assert abs(scaled @ s - scaled @ ref) <= 1e-14
    res = measure_char_quadrature(chi)
    assert abs(res.value - value) <= 1e-14 * max(1.0, abs(value))


def test_node_rule_above_the_cache_cap_takes_the_recurrence():
    # make_scs(4.5) occupies 57 levels, past the 50 the cache admits: the
    # route reruns the recurrence, caches no tensor, and meets the value
    # that an uncached tensor gives
    state = catalog.make_scs(4.5)
    chi = char_of(state)
    assert chi.levels == 57 and not _node_rule_fits(57) and _node_rule_fits(50)
    with pytest.raises(ValueError, match="57-node tensor"):
        _node_rule(57)
    before = _node_rule.cache_info()
    res = measure_char_quadrature(chi)
    after = _node_rule.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    u, scaled, tensor = _gauss_laguerre(57, True)
    value = 0.5 * (u - 1.0) @ (scaled * _angular_mean_sq_at_nodes(state.data, tensor))
    assert res.value == pytest.approx(value, rel=1e-14, abs=0)
    assert res.value == pytest.approx(measure_operator(state).value, rel=1e-12)


def test_node_rule_cache_stays_within_its_bytes():
    # 16 rules at n = 35 .. 50 hold 10.2 MB together; the cache keeps the
    # last 8 of them, within its stated 8 MiB
    slots = _node_rule.cache_parameters()["maxsize"]
    assert slots * _NODE_RULE_BYTES <= 8 << 20
    _node_rule.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for n in range(35, 51):
            _node_rule(n)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert _node_rule.cache_info().currsize == slots
    assert held <= slots * _NODE_RULE_BYTES


def test_import_builds_no_node_rule():
    # rules and tensors are built on first use, so import time does not pay them
    code = ("import sys, macroq; m = sys.modules['macroq.measure']; "
            "print(m._node_rule.cache_info().currsize, m._laguerre_rule.cache_info().currsize)")
    src = str(Path(macroq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["0", "0"]


def test_default_points_follow_fock_bandwidth():
    # the dual chi grid must reach past the turning point sqrt(4 n + 2) of the
    # highest Fock level; the count is odd and at least 17
    counts = []
    for n in (0, 30, 60):
        rho = catalog.make_fock(n, n + 2)
        count = default_points(rho, 20.0)
        assert count % 2 == 1 and count >= 17
        step = 40.0 / (count - 1)
        assert np.pi / (2 * step) >= np.sqrt(4 * n + 2)
        counts.append(count)
    assert counts[0] < counts[1] < counts[2]
    # a narrow window takes the floor of 17 points, one more than a
    # WignerGrid needs
    assert default_points(catalog.make_fock(0, 2), 0.5) == 17
    # and the default grid of wigner_of is that size on the state's own axes
    rho = catalog.make_scs(3.0, 40)
    grid = wigner_of(rho)
    hw = default_half_width(rho)
    assert grid.x.n == grid.p.n == default_points(rho, hw)
    assert (grid.x.start, grid.x.stop) == (grid.p.start, grid.p.stop) == (-hw, hw)


def test_default_half_width_ends_where_w_ends():
    # the axes end _W_DECAY past the outermost turning point sqrt(n + 1/2) of
    # the highest significant level, or at 4.3 sqrt(2 nbar + 1), whichever is
    # nearer: the first sets the width of displaced states, the second that
    # of squeezed and thermal ones
    cat = catalog.make_scs(2.95, 37)
    assert default_half_width(cat) == np.sqrt(_significant_level(cat.data) + 0.5) + _W_DECAY
    assert default_half_width(cat) < 9.1 < 18.4 < 4.3 * np.sqrt(2 * cat.mean_number() + 1)
    for state in (catalog.make_squeezed(1.5), catalog.make_thermal(1.0, 40)):
        assert default_half_width(state) == 4.3 * np.sqrt(2 * state.mean_number() + 1)
    # the bench's large cat fits in at most 211 points per axis
    assert wigner_of(catalog.make_scs(2.95, 37)).x.n <= 211


def _bandwidth_points(state, half_width):
    """The default count before rounding: odd, at least 17, with the dual
    edge _CHI_DECAY past the turning point of the top Fock level."""
    edge = np.sqrt(4.0 * _significant_level(state.data) + 2.0) + _CHI_DECAY
    n = max(17, int(np.ceil(4.0 * half_width * edge / np.pi)) + 1)
    return n + (n % 2 == 0)


def _seven_smooth(n):
    for f in (2, 3, 5, 7):
        while n % f == 0:
            n //= f
    return n == 1


def test_default_points_have_smooth_half_periods():
    # the grid route's FFT runs at period N - 1: the default count is the
    # least odd one at or above the bandwidth count whose period has no
    # prime factor above 7, so its half period has none either
    states = [catalog.make_scs(a, 37) for a in np.linspace(2.5, 3.5, 21)]
    states += [catalog.make_fock(n, n + 2) for n in (0, 7, 30, 41, 60)]
    for state in states:
        hw = default_half_width(state)
        floor, count = _bandwidth_points(state, hw), default_points(state, hw)
        assert count % 2 == 1 and _seven_smooth(count - 1)
        assert count >= floor
        assert not any(_seven_smooth(n - 1) for n in range(floor, count, 2))
    # counts whose period is smooth do not move
    assert default_points(catalog.make_fock(0, 2), 0.5) == 17


def test_wigner_samples_transform_to_the_dense_char():
    # the forward transform the grid route applies to Wigner samples lands on
    # Tr[rho D(xi)] over the whole dual grid, aliasing-free out to its edges
    def gap(rho, xs, ps, values, every=1):
        xi_r, xi_i, chi = _char_from_arrays(xs, ps, values)
        assert chi.shape == (ps.size, xs.size)
        exact = char_points(rho.data, xi_r[::every, None] + 1j * xi_i[None, ::every])
        return np.abs(chi[::every, ::every] - exact).max()

    for rho in (catalog.make_coherent(0.9 - 0.6j, 30), catalog.make_scs(1.3, 35)):
        grid = wigner_of(rho, points=161)
        assert gap(rho, grid.x.points, grid.p.points, grid.values) < 1e-12
    # the bench's large cat on the 421-point, +-18.6 grid it once took,
    # period 420 = 2^2 * 3 * 5 * 7; every other dual point, both edges
    # included, quarters the cost of the char_points reference
    rho = catalog.make_scs(2.95, 37)
    hw = 4.3 * np.sqrt(2.0 * rho.mean_number() + 1.0)
    ax = Axis(-hw, hw, 421)
    grid = wigner_of(rho, x_axis=ax, p_axis=ax)
    assert gap(rho, grid.x.points, grid.p.points, grid.values, every=2) < 1e-12
    # an even count, and an every-other-sample slice of it
    rho = catalog.make_coherent(0.9 - 0.6j, 30)
    grid = wigner_of(rho, points=160)
    xs, ps = grid.x.points, grid.p.points
    assert gap(rho, xs, ps, grid.values) < 1e-12
    assert gap(rho, xs[::2], ps[::2], grid.values[::2, ::2]) < 1e-12
    # explicit axes with different counts and spans
    rho = catalog.make_scs(1.3, 35)
    grid = wigner_of(rho, x_axis=Axis(-6.0, 7.0, 150), p_axis=Axis(-7.5, 6.0, 181))
    assert gap(rho, grid.x.points, grid.p.points, grid.values) < 1e-12


@settings(max_examples=60, deadline=None, database=None)
@example(nx=90, n_p=39, x0=-3.0, p0=2.0, x_span=7.0, p_span=11.0, seed=0)
@given(nx=st.integers(16, 90), n_p=st.integers(16, 90),
       x0=st.floats(-8.0, 8.0), p0=st.floats(-8.0, 8.0),
       x_span=st.floats(2.0, 16.0), p_span=st.floats(2.0, 16.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_char_transform_matches_the_direct_double_sum(nx, n_p, x0, p0, x_span,
                                                      p_span, seed):
    # any real samples, any counts (periods N - 1 that are prime or twice a
    # prime included), any spans: the FFT equals the double sum
    # dx dp sum_jk W_jk e^{2i x_j xi_i} e^{-2i p_k xi_r} on its own dual grid
    W = np.random.default_rng(seed).standard_normal((nx, n_p))
    xs = np.linspace(x0, x0 + x_span, nx)
    ps = np.linspace(p0, p0 + p_span, n_p)
    xi_r, xi_i, chi = _char_from_arrays(xs, ps, W)
    cell = x_span / (nx - 1) * p_span / (n_p - 1)
    direct = cell * np.einsum("ai,ij,jb->ba", np.exp(2j * np.outer(xi_i, xs)), W,
                              np.exp(-2j * np.outer(ps, xi_r)), optimize=True)
    assert np.abs(chi - direct).max() <= 1e-12 * np.abs(W).sum() * cell


@settings(max_examples=60, deadline=None, database=None)
@example(nx=18, n_p=16, x0=-3.0, p0=2.0, x_span=7.0, p_span=11.0, seed=0)
@example(nx=90, n_p=84, x0=0.5, p0=-8.0, x_span=16.0, p_span=2.0, seed=1)
@example(nx=75, n_p=23, x0=-8.0, p0=8.0, x_span=2.0, p_span=16.0, seed=2)
@example(nx=16, n_p=61, x0=1.0, p0=-1.0, x_span=9.0, p_span=9.0, seed=3)
@given(nx=st.integers(16, 90), n_p=st.integers(16, 90),
       x0=st.floats(-8.0, 8.0), p0=st.floats(-8.0, 8.0),
       x_span=st.floats(2.0, 16.0), p_span=st.floats(2.0, 16.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_power_score_matches_the_char_score(nx, n_p, x0, p0, x_span, p_span, seed):
    # the grid route's power-spectrum score, band mass and whole mass against
    # the sums over the full complex chi grid, on any real samples, counts
    # and spans; the examples take even counts and periods N - 1 that are
    # prime (17, 89, 83) or twice a prime (74, 22)
    W = np.random.default_rng(seed).standard_normal((nx, n_p))
    xs = np.linspace(x0, x0 + x_span, nx)
    ps = np.linspace(p0, p0 + p_span, n_p)
    _assert_power_score_matches(xs, ps, W)


def _assert_power_score_matches(xs, ps, W):
    ref, scale, band_ref, whole_ref = _char_score(xs, ps, W)
    value, band, whole = _power_score(xs, ps, W)
    assert abs(value - ref) <= 1e-13 * scale
    assert abs(band - band_ref) <= 1e-13 * whole_ref
    assert abs(whole - whole_ref) <= 1e-13 * whole_ref


@pytest.mark.parametrize("alpha", [2.91, 2.95])
def test_power_score_matches_the_char_score_on_the_bench_cats(alpha):
    # the bench's large cats on their default grids, and on the every-other-
    # sample grids, whose dual grids end inside chi's reach
    grid = wigner_of(catalog.make_scs(alpha, 37))
    xs, ps, W = grid.x.points, grid.p.points, grid.values
    for sl in (slice(None), slice(None, None, 2)):
        _assert_power_score_matches(xs[sl], ps[sl], W[sl, sl])


# the grid route's I on each oracle state's default grid, as the full
# complex-chi transform scored it on the bandwidth counts before their half
# periods were rounded to 7-smooth ones (squeezed1.5 607 points, now 631;
# cat2 287, now 289; cat3 417, now 421; complex-cat 247, now 251; the
# others 201)
GRID_ROUTE_I = {
    "squeezed1.5": 4.533830992222325,
    "cat2": 3.9973171989563467,
    "cat3": 8.999999725858936,
    "decohered-cat": 0.15614138626432508,
    "thermal": -0.11111111111131322,
    "fock5": 4.9999999999999245,
    "coherent": -5.0829897504197737e-17,
    "complex-cat": 3.997317198947111,
}


@pytest.mark.parametrize("name", list(ORACLE_STATES))
def test_grid_route_keeps_its_value_on_oracle_states(name):
    grid = wigner_of(ORACLE_STATES[name]())
    result = measure_wigner_grid(grid)
    assert abs(result.value - GRID_ROUTE_I[name]) <= 1e-12
    # and on the same grid, the same value as the complex-chi sum, and an
    # error bar of twice its band mass plus the rounding floor, which covers
    # the gap to the operator route
    xs, ps, W = grid.x.points, grid.p.points, grid.values
    full, _, band, whole = _char_score(xs, ps, W)
    assert abs(result.value - full) <= 1e-12
    assert abs(result.err_estimate - 2.0 * (band + _SAMPLE_ERR * whole)) <= 1e-13 * whole
    gap = abs(result.value - measure_operator(ORACLE_STATES[name]()).value)
    assert result.err_estimate >= gap


def _reference_faults(grid):
    """``WignerGrid.faults`` as the whole-array reads of |W| it replaced."""
    vals = np.abs(grid.values)
    dev = abs(grid.norm() - 1.0)
    peak = float(vals.max())
    edge = max(vals[0].max(), vals[-1].max(), vals[:, 0].max(), vals[:, -1].max())
    return (None if dev <= GRID_NORM_TOL else dev,
            edge / peak if edge > GRID_EDGE_TOL * peak else None)


@pytest.mark.parametrize("name", list(ORACLE_STATES))
def test_grid_moments_and_faults_match_the_whole_grid_forms(name):
    # the occupation from row and column sums against the sum over an r^2
    # grid, and the faults read off W against those read off a copy of |W|
    grid = wigner_of(ORACLE_STATES[name]())
    xs, ps, W = grid.x.points, grid.p.points, grid.values
    r2 = xs[:, None] ** 2 + ps[None, :] ** 2
    ref = (W * r2).sum() * grid.cell - 0.5
    assert abs(grid.mean_number() - ref) <= 1e-14 * max(1.0, abs(ref))
    assert grid.faults() == _reference_faults(grid) == (None, None)
    # an edge sample of either sign past the gate, on the Fock state whose
    # peak |W| is its most negative sample
    fock1 = wigner_of(catalog.make_fock(1, 3), points=41)
    assert -fock1.values.min() > fock1.values.max()
    peak = np.abs(fock1.values).max()
    for where, ratio in (((0, 7), 3e-8), ((40, 40), -5e-8), ((12, -1), 2e-8)):
        vals = fock1.values.copy()
        vals[where] = ratio * peak
        edged = WignerGrid(fock1.x, fock1.p, vals)
        assert edged.faults() == _reference_faults(edged)
        assert edged.faults()[1] == pytest.approx(abs(ratio), rel=1e-12)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5])
def test_fringe_frequency_tracks_cat_size(alpha):
    rho = catalog.make_scs(alpha)
    grid = wigner_of(rho, points=301)
    # interference fringes oscillate at 2*alpha/pi cycles per unit momentum
    assert fringe_frequency(grid) == pytest.approx(2 * alpha / np.pi, rel=0.05)


def test_wigner_file_round_trip(tmp_path):
    grid = wigner_of(catalog.make_scs(1.5), points=101)
    path = tmp_path / "cat.wig"
    save_wigner(grid, path)
    text = path.read_text()
    assert text.startswith("WIGNER-GRID v1\n")
    assert "# convention=alpha-plane" in text
    loaded = load_wigner(path)
    assert loaded.x == grid.x
    assert loaded.p == grid.p
    np.testing.assert_array_equal(loaded.values, grid.values)


def test_load_wigner_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.wig"
    path.write_text("WIGNER-GRID v2\nx 0 1 16\np 0 1 16\n" + "0 " * 256)
    with pytest.raises(ValueError):
        load_wigner(path)


def test_load_wigner_rejects_truncated_data(tmp_path):
    grid = wigner_of(catalog.make_fock(0, cutoff=8), points=21)
    path = tmp_path / "cut.wig"
    save_wigner(grid, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(ValueError):
        load_wigner(path)


def test_load_wigner_rejects_non_finite_extent(tmp_path):
    def write(x_line):
        path = tmp_path / "wide.wig"
        rows = ["0 " * 15 + "0"] * 16
        path.write_text("\n".join(["WIGNER-GRID v1", x_line, "p -3 3 16"] + rows) + "\n")
        return path

    with pytest.raises(ValueError, match="not finite"):
        load_wigner(write("x -inf inf 16"))
    # finite bounds whose span overflows give a NaN integral, which is a
    # deviation beyond the tolerance, not a pass
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="deviates"):
        load_wigner(write("x -1e308 1e308 16"), strict_normalization=True)


def test_load_wigner_normalization_policy(tmp_path):
    grid = wigner_of(catalog.make_fock(0, cutoff=8), points=41)
    skewed = WignerGrid(grid.x, grid.p, grid.values * 1.05)
    path = tmp_path / "skew.wig"
    save_wigner(skewed, path)
    with pytest.warns(RuntimeWarning):
        load_wigner(path)
    with pytest.raises(ValueError):
        load_wigner(path, strict_normalization=True)
    # within the 2 percent tolerance: no warning, even when strict
    save_wigner(WignerGrid(grid.x, grid.p, grid.values * 1.019), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_wigner(path, strict_normalization=True)
