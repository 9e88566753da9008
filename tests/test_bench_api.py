"""The calls the benchmark (``perfbench/workloads.py``) makes into macroq.

The benchmark's files change only in their own revisions, so the names and
behaviours they rely on are pinned here, in the tier-1 suite.
"""

import numpy as np
import pytest

from macroq import catalog
from macroq.dynamics import evolve, purity_rate_residuals
from macroq.lowrank import measure_lowrank
from macroq.measure import measure_operator


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
