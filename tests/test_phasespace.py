"""Characteristic functions, Wigner grids, transforms, and the text formats."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from macroq import catalog
from macroq.phasespace import (
    Axis,
    _hermite_functions,
    DenseChar,
    WignerGrid,
    _char_from_arrays,
    char_of,
    char_points,
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
}


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
    assert _oracle_gap(rho, grid, step=15) <= 1e-12


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
    assert _oracle_gap(rho, grid) <= 1e-12


def test_default_points_follow_fock_bandwidth():
    # the dual chi grid must reach past the turning point sqrt(4 n + 2) of the
    # highest Fock level; the count is odd and never below 201
    counts = []
    for n in (0, 30, 60):
        rho = catalog.make_fock(n, n + 2)
        count = default_points(rho, 20.0)
        assert count % 2 == 1 and count >= 201
        step = 40.0 / (count - 1)
        assert np.pi / (2 * step) >= np.sqrt(4 * n + 2)
        counts.append(count)
    assert counts[0] == 201 and counts[0] < counts[1] < counts[2]
    # and the default grid of wigner_of is that size
    rho = catalog.make_scs(3.0, 40)
    grid = wigner_of(rho)
    hw = 4.3 * np.sqrt(2 * rho.mean_number() + 1)
    assert grid.x.n == grid.p.n == default_points(rho, hw) > 201


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
    # the bench's large cat on its default grid: 403 points, period 402 =
    # 2 * 3 * 67; every other dual point, both edges included, quarters the
    # cost of the char_points reference
    rho = catalog.make_scs(2.95, 37)
    grid = wigner_of(rho)
    assert grid.x.n == grid.p.n == 403
    assert gap(rho, grid.x.points, grid.p.points, grid.values, every=2) < 1e-12
    # an even count, and the half-resolution slice the grid route scores
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
