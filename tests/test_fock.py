"""Tests for the truncated Fock-space layer."""

import re
import warnings

import numpy as np
import pytest

from macroq import catalog
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


@pytest.mark.parametrize("d, modes", [(2, 63), (2, 64), (3, 41), (2, 2000)])
def test_cutoffs_dim_does_not_wrap(d, modes):
    # a fixed-width product wraps past 2^63; product states reach 2000 modes
    assert ModeCutoffs((d,) * modes).dim == d ** modes


def test_as_cutoffs_accepts_int_and_sequence():
    assert as_cutoffs(5).cutoffs == (5,)
    assert as_cutoffs([2, 3]).cutoffs == (2, 3)
    assert as_cutoffs(ModeCutoffs((4,))).cutoffs == (4,)


@pytest.mark.parametrize("bad", [0, -1, (3, 0)])
def test_cutoffs_must_be_positive(bad):
    with pytest.raises(ValueError):
        as_cutoffs(bad)


def test_cutoffs_refuse_fractional_values_by_name():
    # a whole float is a cutoff, as in the catalog constructors' counts
    assert ModeCutoffs((3.0, np.int64(2), np.float64(4.0))).cutoffs == (3, 2, 4)
    assert all(type(d) is int for d in ModeCutoffs((3.0, np.int64(2))).cutoffs)
    assert as_cutoffs(3.0).cutoffs == (3,)
    with pytest.raises(ValueError, match=r"cutoff of mode 0 is not an integer: 2\.5"):
        ModeCutoffs((2.5, 3))
    with pytest.raises(ValueError, match=r"cutoff of mode 1 is not an integer: .*3\.5"):
        as_cutoffs(np.array([2.0, 3.5]))
    with pytest.raises(ValueError, match=r"cutoff of mode 0 is not an integer: 2\.5"):
        as_cutoffs(2.5)
    for bad in (np.nan, np.inf, "3"):
        with pytest.raises(ValueError, match="cutoff of mode 1 is not an integer"):
            ModeCutoffs((2, bad))
    with pytest.raises(ValueError, match="positive, got 0 for mode 1"):
        ModeCutoffs((3, 0))
    with pytest.raises(ValueError, match="at least one mode"):
        ModeCutoffs(())


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
    # the Hermiticity gate sits at 1e-12 of max|rho|
    with pytest.raises(ValueError):
        DensityMatrix(2, np.array([[1.0, 2e-12], [0.0, 1.0]]))
    DensityMatrix(2, np.array([[1.0, 5e-13], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        DensityMatrix(2, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DensityMatrix(3, np.eye(2))
    # trace normalization is applied silently
    rho = DensityMatrix(2, np.diag([2.0, 2.0]))
    assert rho.data.trace() == pytest.approx(1.0)


@pytest.mark.parametrize("entries", [[[np.nan, 0.0], [0.0, 1.0]],
                                     [[1.0, np.nan], [np.nan, 1.0]],
                                     [[np.inf, 0.0], [0.0, 1.0]]])
def test_density_matrix_refuses_entries_that_are_not_finite(entries):
    # refused before any arithmetic on them, so numpy emits no warning first
    with warnings.catch_warnings(), pytest.raises(ValueError, match="not finite"):
        warnings.simplefilter("error")
        DensityMatrix(2, np.array(entries))


def test_density_matrix_scales_entries_near_the_float_limit():
    # rho + rho^H overflows past half the float range; the state is the same
    # as that of the matrix divided by its largest entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = DensityMatrix(2, np.diag([1e308, 1e308]))
        phased = DensityMatrix(2, np.array([[1e308, -1e308j], [1e308j, 1e308]]))
    assert np.array_equal(rho.data, np.diag([0.5, 0.5]).astype(complex))
    assert rho.purity() == 0.5
    assert np.allclose(phased.data, [[0.5, -0.5j], [0.5j, 0.5]], rtol=0, atol=1e-16)
    # the Hermiticity gate still reads deviations in the caller's units
    with pytest.raises(ValueError, match=re.escape("max deviation 1.000e+300")):
        DensityMatrix(2, np.array([[1e308, 1e300], [0.0, 1.0]]))


def test_density_matrix_refuses_a_trace_that_is_not_finite():
    # each entry is below half the float range, but their sum is not finite
    with warnings.catch_warnings(), pytest.raises(ValueError, match="trace inf is not finite"):
        warnings.simplefilter("error")
        DensityMatrix(3, np.diag([8e307, 8e307, 8e307]))


def test_density_matrix_moments():
    rho = DensityMatrix(4, np.diag([0.5, 0.25, 0.25, 0.0]))
    assert rho.mean_number() == pytest.approx(0.75)
    assert rho.purity() == pytest.approx(0.375)
    assert rho.min_eigenvalue() == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("field", [float, complex])
@pytest.mark.parametrize("low, clears", [(-5e-10, True), (-2e-9, False)])
def test_clears_floor_on_real_and_complex_states(monkeypatch, field, low, clears):
    # a state with no imaginary part is factored as a real matrix; the
    # decision at the floor -1e-9 is the same either way
    rng = np.random.default_rng(4)
    z = rng.standard_normal((6, 6)) + (1j * rng.standard_normal((6, 6)) if field is complex else 0)
    q, _ = np.linalg.qr(z)
    spec = rng.uniform(0.5, 1.5, 6)
    spec *= (1.0 - low) / spec[1:].sum()
    spec[0] = low
    state = DensityMatrix(6, (q * spec) @ q.conj().T)
    assert state.data.imag.any() == (field is complex)
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a.dtype) or cholesky(a))
    assert state.clears_floor(-1e-9) == clears
    assert factored == [np.dtype(field)]
    assert state.min_eigenvalue() == pytest.approx(low, abs=1e-15)


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
    for dims in ((2, 3), (2, 1, 3)):
        cuts = ModeCutoffs(dims)
        total = number_diagonal(cuts)
        per = sum(number_diagonal(cuts, mode=m) for m in range(cuts.modes))
        np.testing.assert_allclose(total, per)
        np.testing.assert_allclose(np.diag(total), number_op(cuts))
        explicit = sum(annihilation_op(cuts, m).conj().T @ annihilation_op(cuts, m)
                       for m in range(cuts.modes))
        np.testing.assert_allclose(np.diag(total), explicit)


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


@pytest.mark.parametrize("dims", [(5,), (2, 3), (3, 1, 4), (2, 2, 2), (1, 4), (4, 1), (2, 7, 3)])
def test_exchange_trace_matches_explicit_product(dims):
    rng = np.random.default_rng(len(dims))
    cuts = ModeCutoffs(dims)
    g = rng.normal(size=(cuts.dim, 2)) + 1j * rng.normal(size=(cuts.dim, 2))
    rho = DensityMatrix(cuts, g @ g.conj().T).data
    if dims == (2, 7, 3):
        rho = np.asfortranarray(rho)
    for mode in range(cuts.modes):
        a = annihilation_op(cuts, mode)
        expected = np.trace(a @ rho @ a.conj().T @ rho).real
        assert exchange_trace(rho, cuts, mode) == pytest.approx(expected, abs=1e-14)


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


@pytest.mark.parametrize("r,n", [(38.0, 1444), (40.0, 1600), (45.0, 2025)])
def test_displaced_columns_past_seed_underflow(r, n):
    # the seed e^{-r^2/2} of the main diagonal lies below the float range, yet
    # <n|D(r)|n> = e^{-r^2/2} L_n(r^2) at n = r^2 is of order 1e-2
    mpmath = pytest.importorskip("mpmath")
    for level, f in _displaced_columns(np.array([r]), np.array([0]), np.array([n + 1])):
        got = float(f[0, 0])
    assert level == n
    with mpmath.workdps(int(r * r / 2) + 60):
        x = mpmath.mpf(r) ** 2
        exact = float(mpmath.exp(-x / 2) * mpmath.laguerre(n, 0, x))
    assert abs(exact) > 1e-3
    assert abs(got - exact) <= 1e-16


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


def _random_mixture(n_modes, dim, rank, seed):
    rng = np.random.default_rng(seed)
    terms = [[rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(n_modes)]
             for _ in range(rank)]
    return DensityMatrix.mixture(terms, rng.uniform(0.1, 1.0, rank))


@pytest.mark.parametrize("make", [
    lambda: catalog.make_ghz(4),
    lambda: catalog.make_dur(6, 0.3),
    lambda: catalog.make_noon(3),
    lambda: _random_mixture(3, 3, 4, 5),
    lambda: _random_mixture(2, 2, 4, 6),  # dim = rank: no zero eigenvalue
], ids=["ghz4", "dur6", "noon3", "mixture-rank4", "mixture-full-rank"])
def test_product_min_eigenvalue_matches_dense(make):
    state = make()
    low = state.min_eigenvalue()
    assert state._data is None
    dense = DensityMatrix(state.cutoffs, state.data).min_eigenvalue()
    assert low == pytest.approx(dense, abs=1e-15)


def test_product_min_eigenvalue_builds_no_dense_matrix():
    state = catalog.make_ghz(12)
    assert state.min_eigenvalue() == 0.0
    assert state._data is None


def test_product_moments_of_forty_modes_build_nothing_dim_sized():
    # dim 2^40: the occupation and purity come from r x r overlaps alone
    ghz = catalog.make_ghz(40)
    assert ghz.mean_number() == 20
    assert ghz.purity() == 1
    # the normalization in DensityMatrix.product leaves a rounding of a few ulps
    assert catalog.make_dur(40, 0.3).purity() == pytest.approx(1.0, abs=1e-15)
    assert "factors" not in ghz.__dict__ and ghz._data is None


@pytest.mark.parametrize("make", [
    lambda: catalog.make_ghz(1),
    lambda: catalog.make_ghz(10),
    lambda: catalog.make_noon(1),
    lambda: catalog.make_noon(5),
    lambda: catalog.make_dur(3, 0.7),
    lambda: catalog.make_dur(10, 0.3),
    lambda: _random_mixture(3, 3, 4, 5),
    lambda: _random_mixture(1, 6, 3, 8),
], ids=["ghz1", "ghz10", "noon1", "noon5", "dur3", "dur10", "mixture-3x3", "mixture-1-mode"])
def test_product_moments_match_dense(make):
    state = make()
    mean, purity = state.mean_number(), state.purity()
    assert "factors" not in state.__dict__ and state._data is None
    data = state.data
    assert mean == pytest.approx(float(np.real(data.diagonal() @ number_diagonal(state.cutoffs))),
                                 abs=1e-12)
    assert purity == pytest.approx(float(np.sum(np.abs(data) ** 2)), abs=1e-12)
