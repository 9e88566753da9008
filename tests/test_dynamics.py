"""Amplitude-damping evolution and the purity-rate identity."""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from macroq import catalog, dynamics
from macroq.dynamics import damp, evolve, lindblad_rhs, purity_rate_residuals
from macroq.fock import (DensityMatrix, ModeCutoffs, annihilation_op, as_cutoffs,
                         number_diagonal, shift_weights)
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
    # per powers to a block: per = 1 and 2 reuse the slot that held the input
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


def _untrimmed_series_sum(x, cut, taus, per):
    """The series of ``dynamics._series_sum`` over whole matrices, ``per`` powers
    to a block: every shift writes its full block out[:n-R, :n-R] and every
    block product reads all the columns, strip by strip."""
    size = sum(cut.cutoffs) - cut.modes + 1
    coef = (-np.expm1(-taus))[:, None] ** np.arange(size)
    n = x.shape[0]
    shifts = [shift_weights(cut, m) for m in reversed(range(cut.modes)) if cut.cutoffs[m] > 1]
    ring = np.zeros((max(per, 2),) + x.shape, dtype=x.dtype)
    ring[0] = x
    out = np.zeros((taus.size,) + x.shape, dtype=x.dtype)
    flat_ring = ring.reshape(len(ring), -1).view(np.float64)
    flat_out = out.reshape(taus.size, -1).view(np.float64)
    for k in range(size):
        slot = k % len(ring)
        if k:
            term, power = ring[(k - 1) % len(ring)], ring[slot]
            power[:] = 0.0
            stride, weights = shifts[0]
            head = power[:n - stride, :n - stride]
            np.multiply(weights, term[stride:, stride:], out=head)
            for stride, weights in shifts[1:]:
                power[:n - stride, :n - stride] += weights * term[stride:, stride:]
            head *= 1.0 / k
        j = k % per
        if j == per - 1 or k == size - 1:
            for c0 in range(0, flat_out.shape[1], dynamics._STRIP):
                cols = slice(c0, c0 + dynamics._STRIP)
                flat_out[:, cols] += coef[:, k - j:k + 1] @ flat_ring[slot - j:slot + 1, cols]
    s = np.exp(-0.5 * taus[:, None] * number_diagonal(cut))
    out *= s[:, :, None]
    out *= s[:, None, :]
    return out


@pytest.mark.parametrize("per", [1, 2, None])
@pytest.mark.parametrize("cutoffs", [(40,), (14, 14), (17, 17), (3, 1, 5), (2, 7, 3)])
def test_trimmed_series_matches_the_untrimmed_one(monkeypatch, cutoffs, per):
    # each power is shifted and summed over its support only; the result is
    # the untrimmed series bit for bit, complex and packed, for either sign of tau
    cut = ModeCutoffs(cutoffs)
    d = cut.dim
    size = sum(cutoffs) - len(cutoffs) + 1
    rho = _random_state(cut, 13).data
    taus = np.array([-0.02, 0.0, 0.25, 1.0])
    block = size if per is None else per
    for x in (rho.real + rho.imag, rho):
        monkeypatch.setattr(dynamics, "_BLOCK_BYTES", block * x.nbytes)
        want = _untrimmed_series_sum(x, cut, taus, block)
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
    # a two-mode 17 x 17 state: K = 32 powers of A, each one call of the kernel
    calls = []
    real = dynamics._next_power
    monkeypatch.setattr(dynamics, "_next_power",
                        lambda term, k, *args: calls.append(k) or real(term, k, *args))
    cut = ModeCutoffs((17, 17))
    cats = [catalog.make_scs(a, 17).data for a in (1.1, 1.2)]
    state = DensityMatrix(cut, np.kron(*cats))
    series = list(range(1, 33))
    damp(state.data, cut, np.linspace(0.0, 1.0, 15))
    assert calls == series
    calls.clear()
    evolve(state, [0.25, 0.5, 1.0])
    assert calls == series
    calls.clear()
    # all fifteen stencil times off one series
    purity_rate_residuals(state, [0.25, 0.5, 1.0])
    assert calls == series


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


def test_cat_decoherence_demo_meets_identity(capsys):
    demo = Path(__file__).resolve().parents[1] / "demos" / "cat_decoherence.py"
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    resid = re.search(r"max \|dP/dtau \+ 2 I\| over the trajectory: (\S+)", out)
    assert resid is not None
    assert float(resid.group(1)) <= 1e-5
