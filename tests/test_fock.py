"""Tests for the truncated Fock-space layer."""

import re

import numpy as np
import pytest

from macroq.fock import (
    DensityMatrix,
    _displaced_columns,
    ModeCutoffs,
    TruncationLeakError,
    a_rho_adag,
    annihilation_op,
    apply_displacement,
    apply_rotation,
    as_cutoffs,
    displacement_matrix,
    exchange_trace,
    mode_view,
    number_diagonal,
    number_op,
    suggest_cutoff,
)


def test_cutoffs_indexing_round_trip():
    cuts = ModeCutoffs((3, 4, 2))
    assert cuts.modes == 3
    assert cuts.dim == 24
    for idx in range(cuts.dim):
        occ = cuts.occupations_of(idx)
        assert cuts.index_of(occ) == idx


def test_as_cutoffs_accepts_int_and_sequence():
    assert as_cutoffs(5).cutoffs == (5,)
    assert as_cutoffs([2, 3]).cutoffs == (2, 3)
    assert as_cutoffs(ModeCutoffs((4,))).cutoffs == (4,)


@pytest.mark.parametrize("bad", [0, -1, (3, 0)])
def test_cutoffs_must_be_positive(bad):
    with pytest.raises(ValueError):
        as_cutoffs(bad)


def test_suggest_cutoff_grows_with_mean_occupation():
    assert suggest_cutoff(0.0) == 10
    assert suggest_cutoff(4.0) > suggest_cutoff(1.0)
    # the window must hold essentially all of a coherent state's mass
    nbar = 9.0
    cut = suggest_cutoff(nbar)
    k = np.arange(cut)
    mass = np.exp(-nbar) * np.cumsum(nbar ** k / np.cumprod(np.maximum(k, 1)))
    assert 1.0 - mass[-1] < 1e-6


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(2, np.array([[1.0, 1.0], [0.0, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DensityMatrix(3, np.eye(2))
    # trace normalization is applied silently
    rho = DensityMatrix(2, np.diag([2.0, 2.0]))
    assert rho.data.trace() == pytest.approx(1.0)


def test_density_matrix_moments():
    rho = DensityMatrix(4, np.diag([0.5, 0.25, 0.25, 0.0]))
    assert rho.mean_number() == pytest.approx(0.75)
    assert rho.purity() == pytest.approx(0.375)
    assert rho.min_eigenvalue() == pytest.approx(0.0, abs=1e-15)


def test_annihilation_op_matrix_elements():
    a = annihilation_op(4)
    expected = np.diag(np.sqrt([1.0, 2.0, 3.0]), k=1)
    np.testing.assert_allclose(a, expected)


def test_annihilation_op_acts_on_named_mode():
    cuts = ModeCutoffs((2, 3))
    a1 = annihilation_op(cuts, mode=1)
    vec = np.zeros(cuts.dim)
    vec[cuts.index_of((1, 2))] = 1.0
    out = a1 @ vec
    assert out[cuts.index_of((1, 1))] == pytest.approx(np.sqrt(2.0))
    assert np.count_nonzero(out) == 1


def test_number_diagonal_sums_modes():
    cuts = ModeCutoffs((2, 3))
    total = number_diagonal(cuts)
    per = number_diagonal(cuts, mode=0) + number_diagonal(cuts, mode=1)
    np.testing.assert_allclose(total, per)
    np.testing.assert_allclose(np.diag(total), number_op(cuts))


def test_a_rho_adag_matches_explicit_product():
    rng = np.random.default_rng(3)
    cuts = ModeCutoffs((3, 4))
    m = rng.normal(size=(cuts.dim, cuts.dim)) + 1j * rng.normal(size=(cuts.dim, cuts.dim))
    rho = m @ m.conj().T
    rho /= rho.trace()
    for mode in (0, 1):
        a = annihilation_op(cuts, mode)
        np.testing.assert_allclose(a_rho_adag(rho, cuts, mode), a @ rho @ a.conj().T,
                                   atol=1e-14)


def test_a_rho_adag_one_level_mode_and_fortran_input():
    rng = np.random.default_rng(4)
    cuts = ModeCutoffs((3, 1, 4))
    m = rng.normal(size=(cuts.dim, cuts.dim)) + 1j * rng.normal(size=(cuts.dim, cuts.dim))
    rho = np.asfortranarray(m @ m.conj().T)
    for mode in range(cuts.modes):
        a = annihilation_op(cuts, mode)
        np.testing.assert_allclose(a_rho_adag(rho, cuts, mode), a @ rho @ a.conj().T,
                                   atol=1e-13)


@pytest.mark.parametrize("dims", [(5,), (2, 3), (3, 1, 4), (2, 2, 2)])
def test_exchange_trace_matches_explicit_product(dims):
    rng = np.random.default_rng(len(dims))
    cuts = ModeCutoffs(dims)
    g = rng.normal(size=(cuts.dim, 2)) + 1j * rng.normal(size=(cuts.dim, 2))
    rho = DensityMatrix(cuts, g @ g.conj().T).data
    for mode in range(cuts.modes):
        a = annihilation_op(cuts, mode)
        expected = np.trace(a @ rho @ a.conj().T @ rho).real
        assert exchange_trace(rho, cuts, mode) == pytest.approx(expected, abs=1e-14)


def test_mode_view_is_a_view_and_refuses_strided_input():
    rho = np.arange(36.0).reshape(6, 6)
    view = mode_view(rho, (2, 3), 1)
    assert view.shape == (2, 3, 1, 2, 3, 1)
    assert np.shares_memory(view, rho)
    with pytest.raises(ValueError):
        mode_view(rho.T, (2, 3), 1)


def test_density_matrix_tiled_hermitian_part_matches_whole_array():
    # dim 600 spans several tiles and a ragged edge
    rng = np.random.default_rng(6)
    g = rng.normal(size=(600, 4)) + 1j * rng.normal(size=(600, 4))
    raw = g @ g.conj().T + 1e-13 * rng.normal(size=(600, 600))
    before = raw.copy()
    state = DensityMatrix(600, raw)
    sym = 0.5 * (raw + raw.conj().T)
    expected = sym / float(sym.trace().real)
    assert np.array_equal(state.data.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(raw, before)
    # a single asymmetric entry is found from either triangle and at tile edges
    for i, j in ((599, 3), (255, 300), (256, 255)):
        bad = raw.copy()
        bad[i, j] += 0.5
        dev = float(np.abs(bad - bad.conj().T).max())
        with pytest.raises(ValueError, match=re.escape(f"max deviation {dev:.3e}")):
            DensityMatrix(600, bad)


def test_displaced_columns_match_laguerre_closed_form():
    # <n+k| D(r) |n> = sqrt(n!/(n+k)!) r^k e^{-r^2/2} L_n^(k)(r^2), evaluated
    # in mpmath, at the squeezed s=1.5 dimension over the radii the routes
    # reach, including small r on far diagonals, where r^k underflows long
    # before the recurrence ends.  The forward recurrence adds a rounding per
    # level, so the bound grows by a few eps per level: measured worst 3.3e-13
    # at k = 0, n = 222, r = 1e-3, against 1e-13 + 8 (n + 1) eps = 4.9e-13.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    dim = 224
    radii = [1e-3, 0.05, 0.3, 2.0, 7.5, 15.0]
    k = np.arange(dim)
    table = np.zeros((dim, dim, len(radii)))
    for n, f in _displaced_columns(np.array(radii), k, dim - k):
        table[:f.shape[0], n] = f
    eps = np.finfo(float).eps
    for kk in [*range(0, dim, 7), dim - 1]:
        for n in [*range(0, dim - kk, 7), dim - 1 - kk]:
            bound = 1e-13 + 8 * (n + 1) * eps
            for j, rr in enumerate(radii):
                x = mpmath.mpf(rr) ** 2
                exact = mpmath.exp((mpmath.loggamma(n + 1) - mpmath.loggamma(n + kk + 1)) / 2
                                   + kk * mpmath.log(rr) - x / 2) * mpmath.laguerre(n, kk, x)
                assert abs(table[kk, n, j] - float(exact)) <= bound, (kk, n, rr)


def test_displacement_matrix_ground_column():
    beta = 0.7 - 0.2j
    d = displacement_matrix(30, beta)
    # first column carries the coherent-state amplitudes
    n = np.arange(30)
    from scipy.special import gammaln
    ref = np.exp(-abs(beta) ** 2 / 2 + n * np.log(abs(beta)) - gammaln(n + 1) / 2)
    ref = ref * np.exp(1j * n * np.angle(beta))
    np.testing.assert_allclose(d[:, 0], ref, atol=1e-14)


def test_displacement_matrix_near_unitary():
    d = displacement_matrix(40, 1.0 + 0.5j)
    gram = d.conj().T @ d
    # unitarity holds away from the truncation corner
    np.testing.assert_allclose(gram[:15, :15], np.eye(15), atol=1e-12)


def test_apply_displacement_moves_vacuum_to_coherent():
    from macroq.catalog import make_coherent, make_fock

    vac = make_fock(0, cutoff=40)
    moved = apply_displacement(vac, 0.8 + 0.3j)
    target = make_coherent(0.8 + 0.3j, cutoff=40)
    np.testing.assert_allclose(moved.data, target.data, atol=1e-12)


def test_apply_displacement_raises_on_truncation_leak():
    from macroq.catalog import make_fock

    small = make_fock(0, cutoff=4)
    with pytest.raises(TruncationLeakError):
        apply_displacement(small, 3.0)


def test_apply_rotation_phases_number_basis():
    rho = DensityMatrix(3, np.full((3, 3), 1.0 / 3.0))
    out = apply_rotation(rho, 0.5)
    phases = np.exp(1j * 0.5 * np.arange(3))
    expected = rho.data * np.outer(phases, phases.conj())
    np.testing.assert_allclose(out.data, expected, atol=1e-15)
    # diagonal, and hence the spectrum-free moments, are untouched
    assert out.mean_number() == pytest.approx(rho.mean_number())
