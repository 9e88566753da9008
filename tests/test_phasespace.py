"""Characteristic functions, Wigner grids, transforms, and the text formats."""

import numpy as np
import pytest

from macroq import catalog
from macroq.phasespace import (
    Axis,
    DenseChar,
    WignerGrid,
    _char_from_arrays,
    char_of,
    char_points,
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


def test_wigner_samples_transform_to_the_dense_char():
    # the forward transform the grid route applies to Wigner samples lands on
    # Tr[rho D(xi)] over the whole dual grid, aliasing-free out to its edges
    for rho in (catalog.make_coherent(0.9 - 0.6j, 30), catalog.make_scs(1.3, 35)):
        grid = wigner_of(rho, points=161)
        xi_r, xi_i, chi = _char_from_arrays(grid.x.points, grid.p.points, grid.values)
        exact = char_points(rho.data, xi_r[:, None] + 1j * xi_i[None, :])
        assert np.abs(chi - exact).max() < 1e-12


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


def test_load_wigner_normalization_policy(tmp_path):
    grid = wigner_of(catalog.make_fock(0, cutoff=8), points=41)
    skewed = WignerGrid(grid.x, grid.p, grid.values * 1.05)
    path = tmp_path / "skew.wig"
    save_wigner(skewed, path)
    with pytest.warns(RuntimeWarning):
        load_wigner(path)
    with pytest.raises(ValueError):
        load_wigner(path, strict_normalization=True)
