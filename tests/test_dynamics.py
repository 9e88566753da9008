"""Amplitude-damping evolution and the purity-rate identity."""

import math
import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from macroq import catalog, dynamics
from macroq.dynamics import damp, evolve, lindblad_rhs, purity_rate_residuals
from macroq.fock import (DensityMatrix, ModeCutoffs, _ladder, annihilation_op, as_cutoffs,
                         flat_shift_weights, number_diagonal)
from macroq.measure import measure_operator


def test_rhs_is_trace_free_and_hermitian():
    rho = catalog.make_scs(1.2, 30)
    out = lindblad_rhs(rho.data, rho.cutoffs)
    assert abs(out.trace()) < 1e-14
    assert np.abs(out - out.conj().T).max() < 1e-14


def test_rhs_defines_the_measure():
    # -Tr[rho L(rho)] is the operator-route value
    rho = catalog.make_scs(1.2, 30)
    lhs = -float(np.real(np.einsum("ij,ji->", rho.data, lindblad_rhs(rho.data, rho.cutoffs))))
    assert lhs == pytest.approx(measure_operator(rho).value, abs=1e-12)


def test_evolve_requires_sane_record_times():
    rho = catalog.make_fock(1)
    with pytest.raises(ValueError):
        evolve(rho, [0.3, 0.1])
    with pytest.raises(ValueError):
        evolve(rho, [-0.1, 0.2])
    with pytest.raises(ValueError):
        evolve(rho, [])


def test_evolve_records_requested_times():
    rho = catalog.make_coherent(1.0, 25)
    times = [0.0, 0.15, 0.4]
    traj = evolve(rho, times)
    assert [p.tau for p in traj] == times
    assert traj[0].value == pytest.approx(measure_operator(rho).value, abs=1e-12)


def test_mean_occupation_decays_exponentially():
    rho = catalog.make_coherent(1.3, 30)
    n0 = rho.mean_number()
    traj = evolve(rho, [0.0, 0.2, 0.5, 1.0])
    for p in traj:
        assert p.mean_n == pytest.approx(n0 * np.exp(-p.tau), abs=1e-6)


def test_coherent_state_stays_coherent():
    # a displaced vacuum only shrinks; I stays zero along the way
    traj = evolve(catalog.make_coherent(1.0, 25), [0.3, 0.8])
    for p in traj:
        assert abs(p.value) < 1e-7
        assert p.purity == pytest.approx(1.0, abs=1e-7)


def test_thermal_purity_grows_towards_vacuum():
    rho = catalog.make_thermal(1.0, 40)
    traj = evolve(rho, [0.0, 0.5, 1.5])
    purs = [p.purity for p in traj]
    assert purs[0] < purs[1] < purs[2]
    # negative measure means purity is increasing, consistently
    assert traj[0].value < 0


def _random_state(cutoffs, seed):
    rng = np.random.default_rng(seed)
    d = cutoffs.dim
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return DensityMatrix(cutoffs, g @ g.conj().T)


def _generator(cut):
    """The superoperator of lindblad_rhs, assembled column by column."""
    d = cut.dim
    gen = np.empty((d * d, d * d), dtype=complex)
    for col in range(d * d):
        unit = np.zeros(d * d, dtype=complex)
        unit[col] = 1.0
        gen[:, col] = lindblad_rhs(unit.reshape(d, d), cut).ravel()
    return gen


@pytest.mark.parametrize("tau", [-0.01, 0.3, 2.0])
def test_damp_matches_generator_exponential(tau):
    cut = ModeCutoffs((3, 2))
    d = cut.dim
    rho = _random_state(cut, 3).data
    ref = (expm(tau * _generator(cut)) @ rho.ravel()).reshape(d, d)
    assert np.abs(damp(rho, cut, tau) - ref).max() < 1e-13


def test_batched_damp_matches_scalar_calls_and_generator():
    cut = ModeCutoffs((3, 2))
    d = cut.dim
    rho = _random_state(cut, 3).data
    gen = _generator(cut)
    taus = np.array([-0.01, 0.0, 0.3, 2.0])
    batch = damp(rho, cut, taus)
    assert batch.shape == (4, d, d)
    for tau, out in zip(taus, batch):
        assert np.abs(out - damp(rho, cut, tau)).max() < 1e-13
        ref = (expm(tau * gen) @ rho.ravel()).reshape(d, d)
        assert np.abs(out - ref).max() < 1e-13
    assert damp(rho, cut, 0.3).shape == (d, d)
    grid = damp(rho, cut, taus.reshape(2, 2))
    assert grid.shape == (2, 2, d, d)
    assert np.abs(grid.reshape(4, d, d) - batch).max() < 1e-13


def _explicit_channel(cut, tau):
    """The loss channel on the row-major vec(rho), from ``annihilation_op`` alone."""
    d = cut.dim
    eye = np.eye(d)
    gen = np.zeros((d * d, d * d), dtype=complex)
    for m in range(cut.modes):
        a = annihilation_op(cut, m)
        n = a.conj().T @ a
        gen += np.kron(a, a.conj()) - 0.5 * (np.kron(n, eye) + np.kron(eye, n.T))
    return expm(tau * gen)


@pytest.mark.parametrize("per", [1, 2, 6])
def test_shift_series_with_a_one_level_middle_mode(monkeypatch, per):
    # cutoffs (3, 1, 4): odd dims, modes 0 and 1 share the stride 4, K = 5;
    # a budget of per matrices: whole-matrix blocks of 2 powers (three blocks) or of 6 (one)
    cut = ModeCutoffs((3, 1, 4))
    d = cut.dim
    rho = _random_state(cut, 11).data
    taus = np.array([-0.02, 0.0, 0.4, 1.5])
    want = np.array([(_explicit_channel(cut, t) @ rho.ravel()).reshape(d, d) for t in taus])
    for x, ref in ((rho, want), (rho.real + rho.imag, want.real + want.imag)):
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", per * x.nbytes)
        out = np.empty((taus.size, d, d), dtype=x.dtype)
        dynamics._series_sum(x, cut, taus, out)
        assert np.abs(out - ref).max() < 1e-12
    batch = damp(rho, cut, taus)
    assert np.abs(batch - want).max() < 1e-12
    for tau, got in zip(taus, batch):
        assert np.abs(got - damp(rho, cut, tau)).max() < 1e-15


def _plan_of(cut, x, times=4):
    """(powers, powers per block, rows per strip, rows per product) of the series of x."""
    size = sum(cut.cutoffs) - cut.modes + 1
    strides = [cut.dim // math.prod(cut.cutoffs[:m + 1])
               for m in range(cut.modes) if cut.cutoffs[m] > 1]
    return (size,) + dynamics._plan(cut.dim, max(strides) + 1, size, x.strides[0], times)


def _sparse_generator(cut):
    """The superoperator of lindblad_rhs on the row-major vec(rho), sparse."""
    eye = sparse.identity(cut.dim, format="csr")
    gen = sparse.csr_matrix((cut.dim ** 2, cut.dim ** 2))
    for m in range(cut.modes):
        a = sparse.csr_matrix(annihilation_op(cut, m).real)
        n = a.T @ a
        gen = gen + sparse.kron(a, a) - 0.5 * (sparse.kron(n, eye) + sparse.kron(eye, n))
    return gen.tocsr()


def _regime(cut, x):
    size, per, strip, _ = _plan_of(cut, x)
    if strip < cut.dim:
        return "strips"
    return "whole" if per == size else "whole blocks"


# cutoffs, _BLOCK_BYTES (None: the default) and the regime it gives packed
# and complex input
REGIMES = [
    ((17, 17), None, "strips", "whole blocks"),
    ((6, 6, 6), None, "strips", "strips"),
    ((2,) * 8, None, "whole blocks", "whole blocks"),  # a qubit's stride n/2: no halo fits
    ((2, 2, 3), None, "whole", "whole"),
    ((3, 1, 5), None, "whole", "whole"),
    ((14, 14), 2 ** 21, "strips", "whole blocks"),
    ((6, 6, 6), 2 ** 18, "whole blocks", "whole blocks"),
]


@pytest.mark.parametrize("cutoffs,budget,packed,full", REGIMES)
def test_series_regimes_match_the_generator_exponential(monkeypatch, cutoffs, budget, packed,
                                                        full):
    # strips with a halo, the whole-matrix limit in one block and in several,
    # against expm of the generator, complex and packed, for either sign of tau
    cut = ModeCutoffs(cutoffs)
    d = cut.dim
    if budget is not None:
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", budget)
    rho = _random_state(cut, 19).data
    taus = np.array([-0.02, 0.0, 0.25, 1.0])
    gen = _sparse_generator(cut)
    want = np.array([expm_multiply(t * gen, rho.ravel()).reshape(d, d) for t in taus])
    packing = (rho.real + rho.imag, want.real + want.imag, packed)
    for x, ref, regime in ((rho, want, full), packing):
        assert _regime(cut, x) == regime
        out = np.empty((taus.size, d, d), dtype=x.dtype)
        dynamics._series_sum(x, cut, taus, out)
        assert np.abs(out - ref).max() < 1e-13


def _untrimmed_series_sum(x, cut, taus):
    """The series of ``dynamics._series_sum`` over whole matrices, in its
    association: the powers per block, rows per strip and rows per product
    of ``dynamics._plan``, and each product over the powers of the block not
    zero on its strip.  Each power is made over all its rows, and a block
    after the first, whose strip is the whole matrix, is added over all its
    rows."""
    size, per, strip, group = _plan_of(cut, x, taus.size)
    n = x.shape[0]
    coef = (-np.expm1(-taus))[:, None] ** np.arange(size)
    shifts = [flat_shift_weights(cut, m) for m in reversed(range(cut.modes)) if cut.cutoffs[m] > 1]
    powers = np.zeros((size, n * n), dtype=x.dtype)
    powers[0] = x.ravel()
    for k in range(1, size):
        for i, (offset, weights) in enumerate(shifts):
            part = weights * powers[k - 1, offset:]
            if i:
                powers[k, :part.size] += part
            else:
                powers[k, :part.size] = part
        powers[k] *= 1.0 / k
    out = np.empty((taus.size, n, n), dtype=x.dtype)
    flat_out = out.reshape(taus.size, -1).view(np.float64)
    flat_powers = powers.view(np.float64)
    row = flat_out.shape[1] // n
    for k0 in range(0, size, per):
        for r1 in range(n, 0, -strip):
            r0 = max(0, r1 - strip)
            # the powers of the block that are not zero on the strip
            made = np.count_nonzero(flat_powers[k0:k0 + per, r0 * row:r1 * row].any(axis=1))
            w = coef[:, k0:k0 + made]
            if not k0:
                flat_out[:, r0 * row:r1 * row] = w @ flat_powers[:made, r0 * row:r1 * row]
            for g0 in range(r0, r1 if k0 else r0, group):
                cols = slice(g0 * row, min(r1, g0 + group) * row)
                flat_out[:, cols] += w @ flat_powers[k0:k0 + made, cols]
    s = np.exp(-0.5 * taus[:, None] * number_diagonal(cut))
    out *= s[:, :, None]
    out *= s[:, None, :]
    return out


# at the default budget, strips whose top one is shorter than the halo: the
# halo a slot hands on to that strip overlaps its source in the slot
SHORT_TOPS = [((17, 17), float), ((6, 6, 6), complex)]


def test_some_trimmed_cases_have_a_top_strip_shorter_than_the_halo():
    for cutoffs, dtype in SHORT_TOPS:
        cut = ModeCutoffs(cutoffs)
        _, _, strip, _ = _plan_of(cut, np.zeros((cut.dim, cut.dim), dtype=dtype))
        halo = cut.dim // cut.cutoffs[0] + 1
        assert 0 < cut.dim % strip < halo


@pytest.mark.parametrize("per", [1, 2, None])
@pytest.mark.parametrize("cutoffs", [(40,), (14, 14), (17, 17), (3, 1, 5), (2, 7, 3), (2,) * 8,
                                     (6, 6, 6)])
def test_trimmed_series_matches_the_untrimmed_one(monkeypatch, cutoffs, per):
    # each power is made and summed over its leading rows only; the result is
    # the untrimmed series in the same strips and blocks bit for bit, complex
    # and packed, for either sign of tau.  A budget of per matrices gives
    # several blocks of whole matrices; the default, one block of strips
    # where the halo fits, with a top strip shorter than the halo on the
    # cases of SHORT_TOPS
    cut = ModeCutoffs(cutoffs)
    d = cut.dim
    rho = _random_state(cut, 13).data
    taus = np.array([-0.02, 0.0, 0.25, 1.0])
    for x in (rho.real + rho.imag, rho):
        if per is not None:
            monkeypatch.setattr(dynamics, "_BLOCK_BYTES", per * x.nbytes)
        want = _untrimmed_series_sum(x, cut, taus)
        out = np.empty((taus.size, d, d), dtype=x.dtype)
        assert np.array_equal(dynamics._series_sum(x, cut, taus, out), want)
    assert np.array_equal(damp(rho, cut, taus), want)


def test_evolve_states_match_damp_on_a_complex_state():
    # evolve runs the series on the real packing Re rho + Im rho of the state
    state = _random_state(ModeCutoffs((4, 3)), 7)
    taus = [0.0, 0.1, 0.7, 3.0]
    ref = damp(state.data, state.cutoffs, np.array(taus))
    for point, want in zip(evolve(state, taus), ref):
        assert np.abs(point.state.data - want).max() < 1e-14
        assert point.purity == pytest.approx(float(np.sum(np.abs(want) ** 2)), abs=1e-14)


def test_damp_reads_every_time_off_one_series(monkeypatch):
    # a two-mode 17 x 17 state: K = 32 powers of A; each call runs one series,
    # which makes every strip of every power once
    series, strips = [], []
    real_series, real_shift = dynamics._series_sum, dynamics._shift_sum
    monkeypatch.setattr(dynamics, "_series_sum",
                        lambda x, cut, taus, out: series.append(taus.size)
                        or real_series(x, cut, taus, out))
    monkeypatch.setattr(dynamics, "_shift_sum",
                        lambda prev, shifts, start, k, *args: strips.append((k, start))
                        or real_shift(prev, shifts, start, k, *args))
    cut = ModeCutoffs((17, 17))
    cats = [catalog.make_scs(a, 17).data for a in (1.1, 1.2)]
    state = DensityMatrix(cut, np.kron(*cats))
    calls = [lambda: damp(state.data, cut, np.linspace(0.0, 1.0, 15)),
             lambda: evolve(state, [0.25, 0.5, 1.0]),
             # all fifteen stencil times off one series
             lambda: purity_rate_residuals(state, [0.25, 0.5, 1.0])]
    for call, times in zip(calls, (15, 3, 15)):
        series.clear()
        strips.clear()
        call()
        assert series == [times]
        assert len(set(strips)) == len(strips)
        assert {k for k, _ in strips} == set(range(1, 33))
        # the top strip of every power
        assert {k for k, start in strips if start == 0} == set(range(1, 33))


def test_purity_rate_residuals_does_not_rerun_evolve(monkeypatch):
    state = catalog.make_scs(1.3, 30)
    before = purity_rate_residuals(state, [0.0, 0.2, 0.6])

    def refuse(*args, **kwargs):
        raise AssertionError("purity_rate_residuals called evolve")

    monkeypatch.setattr(dynamics, "evolve", refuse)
    after = purity_rate_residuals(state, [0.0, 0.2, 0.6])
    assert np.array_equal(before, after)
    assert max(after) < 1e-6
    with pytest.raises(ValueError):
        purity_rate_residuals(state, [0.3, 0.1])
    with pytest.raises(ValueError):
        purity_rate_residuals(state, [-0.1, 0.2])
    with pytest.raises(RuntimeError):
        purity_rate_residuals(DensityMatrix(2, np.diag([-2e-9, 1.0])), [0.1])


def _two_mode_cat():
    cats = [catalog.make_scs(a, 17).data for a in (1.1, 1.2)]
    return DensityMatrix(ModeCutoffs((17, 17)), np.kron(*cats))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _random_state(ModeCutoffs((4, 3)), 3), id="4x3"),
    pytest.param(lambda: _random_state(ModeCutoffs((3, 1, 4)), 4), id="3x1x4"),
    pytest.param(lambda: _random_state(ModeCutoffs((2,) * 6), 5), id="qubits6"),
    pytest.param(_two_mode_cat, id="cat17x17"),
])
def test_packed_score_matches_the_operator_route(make):
    # I read off a packed state is I of the unpacked one; a multiple of the
    # packed matrix scores the same, its trace divided out
    state = make()
    cut = state.cutoffs
    ladders = [_ladder(cut, m) for m in range(cut.modes)]
    (_, stack), = dynamics._packed_batches(state, np.array([0.0, 0.3]))
    for packed in stack:
        for y in (packed, 1.7 * packed):
            point = DensityMatrix._from_hermitian(cut, dynamics._unpacked(y))
            want = measure_operator(point).value
            assert abs(dynamics._packed_value(y, ladders) - want) <= 1e-13


def test_purity_rate_residuals_builds_no_state_and_measures_none(monkeypatch):
    state = _two_mode_cat()
    before = purity_rate_residuals(state, [0.0, 0.25, 1.0])

    def refuse(*args, **kwargs):
        raise AssertionError("purity_rate_residuals built or measured a state")

    monkeypatch.setattr(DensityMatrix, "_from_hermitian", refuse)
    monkeypatch.setattr(dynamics, "measure_operator", refuse)
    after = purity_rate_residuals(state, [0.0, 0.25, 1.0])
    assert np.array_equal(before, after)
    assert max(after) < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_times_that_are_not_finite_are_refused(bad):
    # the series of such a time is NaN throughout; each entry point names it
    state = catalog.make_scs(1.0, 12)
    message = re.escape(f"time {bad!r} is not finite")
    with pytest.raises(ValueError, match=message):
        damp(state.data, state.cutoffs, bad)
    with pytest.raises(ValueError, match=message):
        damp(state.data, state.cutoffs, np.array([[0.1, bad], [0.2, 0.3]]))
    with pytest.raises(ValueError, match=message):
        evolve(state, [0.1, bad])
    with pytest.raises(ValueError, match=message):
        purity_rate_residuals(state, [bad])


def test_ignored_step_keyword_changes_nothing():
    # the benchmark's loss workload still passes step=0.01
    state = catalog.make_scs(1.5, 30)
    taus = [0.25, 0.5, 1.0]
    plain, stepped = evolve(state, taus), evolve(state, taus, step=0.01)
    for a, b in zip(plain, stepped):
        assert (a.tau, a.value, a.purity, a.mean_n) == (b.tau, b.value, b.purity, b.mean_n)
        assert np.array_equal(a.state.data, b.state.data)
    assert np.array_equal(purity_rate_residuals(state, taus),
                          purity_rate_residuals(state, taus, step=0.01))


def test_damp_is_a_trace_preserving_semigroup():
    state = _random_state(ModeCutoffs((4, 3)), 5)
    cut = state.cutoffs
    twice = damp(damp(state.data, cut, 0.2), cut, 0.3)
    once = damp(state.data, cut, 0.5)
    assert np.abs(twice - once).max() < 1e-14
    for tau in (0.5, 3.0):
        assert damp(state.data, cut, tau).trace() == pytest.approx(1.0, abs=1e-14)


def test_damp_shrinks_coherent_amplitude():
    alpha = 1.1 - 0.6j
    rho = catalog.make_coherent(alpha, 30)
    for tau in (0.3, 1.7):
        out = damp(rho.data, rho.cutoffs, tau)
        ref = catalog.make_coherent(np.exp(-tau / 2) * alpha, 30).data
        assert np.abs(out - ref).max() < 1e-12


def test_cat_trajectory_matches_closed_form():
    alpha = 1.5
    rho = catalog.make_scs(alpha, 40)
    taus = [0.1, 0.3, 0.7]
    traj = evolve(rho, taus)
    for p in traj:
        closed = catalog.closed_form_decohered_scs(alpha, p.tau)
        assert p.value == pytest.approx(closed.value, abs=2e-6)
        assert p.purity == pytest.approx(closed.purity, abs=1e-6)


def test_purity_rate_identity_on_cat():
    resid = purity_rate_residuals(catalog.make_scs(1.0, 30), [0.1, 0.5])
    assert max(resid) < 1e-6


def test_purity_rate_identity_on_thermal():
    # works for mixed states too, where the rate is positive
    resid = purity_rate_residuals(catalog.make_thermal(0.8, 30), [0.2])
    assert resid[0] < 1e-6


def _counted(monkeypatch, name):
    calls = []
    real = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda a: calls.append(a) or real(a))
    return calls


def test_evolve_and_residuals_check_positivity_once(monkeypatch):
    state = catalog.make_scs(1.0, 12)
    factorizations = _counted(monkeypatch, "cholesky")
    spectra = _counted(monkeypatch, "eigvalsh")
    traj = evolve(state, [0.0, 0.5])
    purity_rate_residuals(state, [0.5])
    # one factorization for both, and no eigenvalues of a positive state
    assert len(factorizations) == 1 and not spectra
    # each point's purity and occupation are those of its state
    for p in traj:
        assert p.purity == p.state.purity() and p.mean_n == p.state.mean_number()


def test_evolve_rejects_unphysical_drift():
    # a state that is not positive blows the positivity monitor quickly
    data = np.eye(6) / 6.0
    data[0, 5] = data[5, 0] = 0.49
    bad = DensityMatrix(as_cutoffs(6), data)
    with pytest.raises(RuntimeError):
        evolve(bad, [2.0])
    # the positivity floor sits at a smallest eigenvalue of -1e-9
    with pytest.raises(RuntimeError):
        evolve(DensityMatrix(2, np.diag([-2e-9, 1.0])), [0.1])
    evolve(DensityMatrix(2, np.diag([-5e-10, 1.0])), [0.1])


def _state_with_spectrum(cut, low, seed):
    """A dense state with smallest eigenvalue ``low`` in a random basis."""
    rng = np.random.default_rng(seed)
    d = cut.dim
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    spec = rng.uniform(0.5, 1.5, d)
    spec *= (1.0 - low) / spec[1:].sum()
    spec[0] = low
    return DensityMatrix(cut, (q * spec) @ q.conj().T)


def test_positivity_floor_at_dim_289(monkeypatch):
    cut = ModeCutoffs((17, 17))
    bad = _state_with_spectrum(cut, -2e-9, 1)
    with pytest.raises(RuntimeError, match=r"smallest eigenvalue -2\.000e-09"):
        evolve(bad, [0.1])
    evolve(_state_with_spectrum(cut, -5e-10, 2), [0.1])
    # a pure two-mode cat: its smallest eigenvalue is zero up to rounding
    spectra = _counted(monkeypatch, "eigvalsh")
    cats = [catalog.make_scs(a, 17).data for a in (1.1, 1.2)]
    evolve(DensityMatrix(cut, np.kron(*cats)), [0.1])
    assert not spectra


def test_evolve_points_equal_those_of_the_public_constructor():
    # the points skip the Hermitian part of DensityMatrix, which on the
    # exactly Hermitian unpacked matrix changes no bit
    state = _random_state(ModeCutoffs((4, 3)), 17)
    taus = np.array([0.0, 0.1, 0.7, 3.0])
    (_, stack), = dynamics._packed_batches(state, taus)
    for point, packed in zip(evolve(state, taus), stack):
        public = DensityMatrix(state.cutoffs, dynamics._unpacked(packed))
        res = measure_operator(public)
        assert np.array_equal(point.state.data, public.data)
        assert (point.value, point.purity, point.mean_n) == (res.value, res.purity, res.mean_n)


def test_a_real_product_state_runs_the_series_of_its_complex_matrix():
    # the -1 in a ket leaves entries of -0.0 in the float64 data, where the
    # packed form Re rho + Im rho of the complex matrix holds 0.0
    state = DensityMatrix.superposition([[np.array([1.0, 0.0]), np.array([0.0, -1.0])],
                                         [np.array([0.0, 1.0]), np.array([1.0, 0.0])]])
    rho = state.data
    assert rho.dtype == np.float64 and (np.signbit(rho) & (rho == 0.0)).any()
    z = rho.astype(complex)
    taus = np.array([0.0, 0.3, 1.0])
    want = dynamics._series_sum(z.real + z.imag, state.cutoffs, taus,
                                np.empty((taus.size,) + rho.shape))
    (_, got), = dynamics._packed_batches(state, taus)
    assert got.tobytes() == want.tobytes()


def test_cat_decoherence_demo_meets_identity(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "cat_decoherence.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    resid = re.search(r"max \|dP/dtau \+ 2 I\| over the trajectory: (\S+)", out)
    assert resid is not None
    assert float(resid.group(1)) <= 1e-5
