"""The calls the benchmark (``perfbench/workloads.py``) makes into macroq.

The benchmark's files change only in their own revisions, so the names and
behaviours they rely on are pinned here, in the tier-1 suite.
"""

import numpy as np
import pytest

from macroq import catalog, phasespace
from macroq.dynamics import evolve, purity_rate_residuals
from macroq.lowrank import measure_lowrank
from macroq.measure import measure_char_quadrature, measure_operator


def test_manymode_operator_request():
    dense = catalog.make_ghz(12).to_dense()
    rho = dense.data
    assert rho.shape == (4096, 4096)
    # exactly Hermitian, compared a block of rows at a time
    for i in range(0, 4096, 512):
        assert np.array_equal(rho[i:i + 512], rho[:, i:i + 512].conj().T)
    factors = dense.factors
    res = measure_operator(dense)
    # err_estimate 0 marks the factors path: the dense path reports the
    # population of the top level, half of this state
    assert res.value == pytest.approx(6.0, abs=1e-12) and res.err_estimate == 0.0
    assert dense.factors is factors and dense.data is rho  # each built once


def test_manymode_lowrank_request_builds_no_factor():
    state = catalog.make_ghz(2000)
    assert measure_lowrank(state).value == pytest.approx(1000.0, abs=1e-9)
    # factors is a cached property: it enters the instance dict once read
    assert "factors" not in vars(state)


def test_loss_request_passes_step():
    state = catalog.make_ghz(3)
    taus = [0.1, 0.2]
    assert [p.tau for p in evolve(state, taus, step=0.01)] == taus
    assert purity_rate_residuals(state, taus, step=0.01).max() <= 1e-5


class _TracedChar:
    """Shaped like the benchmark's tracing wrapper: it forwards the call,
    angular_mean_sq, mean_n and purity of a DenseChar, and has no levels."""

    def __init__(self, chi):
        self._chi = chi

    def __call__(self, xi):
        return self._chi(xi)

    def angular_mean_sq(self, r):
        return self._chi.angular_mean_sq(r)

    @property
    def mean_n(self):
        return self._chi.mean_n

    @property
    def purity(self):
        return self._chi.purity


@pytest.mark.parametrize("make", [
    lambda: catalog.make_scs(1.45, 24),
    lambda: catalog.make_scs(2.95, 37),
    lambda: catalog.make_squeezed(0.55, 40),
    lambda: catalog.make_coherent(0.875 * np.exp(2.1j), 16),
    lambda: catalog.make_decohered_scs(1.5, 0.325, 24)],
    ids=["cat-1.45", "cat-2.95", "squeezed", "coherent-complex", "decohered-cat"])
def test_phasespace_traced_quadrature_request(make):
    # a traced pass wraps each DenseChar, so without levels the route runs
    # its probe, panels and tail instead of the exact rule
    state = make()
    chi = _TracedChar(phasespace.char_of(state))
    res = measure_char_quadrature(chi, radial_cut=None)
    assert res.value == pytest.approx(measure_operator(state).value, abs=1e-6)
