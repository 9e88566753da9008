"""State constructors and the closed-form evaluators that go with them."""

import warnings

import numpy as np
import pytest

from macroq import catalog
from macroq.fock import TruncationLeakError
from macroq.measure import measure_char_quadrature, measure_operator


def test_make_fock_defaults():
    rho = catalog.make_fock(3)
    assert rho.dim == 5  # cutoff n + 2
    assert rho.mean_number() == pytest.approx(3.0)


def test_make_coherent_moments():
    rho = catalog.make_coherent(1.2 + 0.5j)
    assert rho.mean_number() == pytest.approx(1.69, abs=1e-10)
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_leak_gate_raises_when_cutoff_hopeless():
    with pytest.raises(TruncationLeakError):
        catalog.make_coherent(3.0, cutoff=8)


def test_leak_gate_warns_on_marginal_cutoff():
    with pytest.warns(RuntimeWarning):
        catalog.make_thermal(0.5, 12)


def test_make_scs_mean_and_measure():
    alpha = 1.5
    rho = catalog.make_scs(alpha)
    assert rho.mean_number() == pytest.approx(catalog.scs_mean_n(alpha), abs=1e-10)
    res = measure_operator(rho)
    closed = catalog.closed_form_scs(alpha)
    assert res.value == pytest.approx(closed.value, abs=1e-9)
    assert closed.value == pytest.approx(alpha ** 2 * np.tanh(alpha ** 2))


def test_closed_form_scs_handles_huge_amplitude():
    # tanh saturates; no overflow allowed at alpha = 27.3
    res = catalog.closed_form_scs(27.3)
    assert res.value == pytest.approx(27.3 ** 2)
    assert np.isfinite(res.purity)


def test_mixture_scs_measure_vanishes_for_separated_branches():
    res = catalog.mixture_scs_measure(3.0)
    assert abs(res.value) < 1e-6
    dense = measure_operator(catalog.make_mixture_scs(3.0))
    assert dense.value == pytest.approx(res.value, abs=1e-9)


def test_decohered_scs_endpoints():
    alpha = 1.3
    start = catalog.closed_form_decohered_scs(alpha, 0.0)
    assert start.value == pytest.approx(catalog.closed_form_scs(alpha).value, abs=1e-12)
    # photon loss eventually empties the mode entirely
    late = catalog.closed_form_decohered_scs(alpha, 60.0)
    assert late.value == pytest.approx(0.0, abs=1e-12)
    assert late.purity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("tau", [0.05, 0.3, 1.0])
def test_decohered_scs_closed_form_vs_dense(tau):
    alpha = 1.5
    rho = catalog.make_decohered_scs(alpha, tau)
    res = measure_operator(rho)
    closed = catalog.closed_form_decohered_scs(alpha, tau)
    assert res.value == pytest.approx(closed.value, abs=1e-9)
    assert rho.purity() == pytest.approx(closed.purity, abs=1e-9)


def test_make_thermal_moments_and_measure():
    nbar = 1.0
    rho = catalog.make_thermal(nbar, 80)
    assert rho.mean_number() == pytest.approx(nbar, abs=1e-9)
    assert rho.purity() == pytest.approx(1.0 / (2 * nbar + 1), abs=1e-9)
    closed = catalog.thermal_measure(nbar)
    assert closed.value == pytest.approx(-1.0 / 9.0, abs=1e-15)
    assert measure_operator(rho).value == pytest.approx(closed.value, abs=1e-8)


def test_thermal_measure_equals_gaussian_formula():
    for nbar in (0.2, 1.0, 3.5):
        a = 2 * nbar + 1
        assert catalog.thermal_measure(nbar).value == pytest.approx(
            catalog.gaussian_measure(a, a).value, abs=1e-14)


def test_make_squeezed_auto_cutoff_mean():
    for s in (0.8, 1.5):
        rho = catalog.make_squeezed(s)
        assert rho.mean_number() == pytest.approx(np.sinh(s) ** 2, rel=1e-7)


def test_gaussian_measure_values():
    assert catalog.gaussian_measure(1.0, 1.0).value == pytest.approx(0.0, abs=1e-15)
    s = 1.2
    A, B = catalog.squeezed_char_params(s)
    assert A == pytest.approx(np.exp(2 * s))
    res = catalog.gaussian_measure(A, B)
    assert res.value == pytest.approx(np.sinh(s) ** 2, rel=1e-12)
    assert res.mean_n == pytest.approx(np.sinh(s) ** 2, rel=1e-12)
    assert res.purity == pytest.approx(1.0, abs=1e-12)


def test_gaussian_char_requires_physical_widths():
    with pytest.raises(ValueError):
        catalog.GaussianChar(0.5, 0.5)


def test_gaussian_decohere_endpoints():
    A, B = catalog.squeezed_char_params(1.0)
    a0, b0 = catalog.gaussian_decohere(A, B, 0.0)
    assert (a0, b0) == (pytest.approx(A), pytest.approx(B))
    a1, b1 = catalog.gaussian_decohere(A, B, 50.0)
    assert a1 == pytest.approx(1.0, abs=1e-12)
    assert b1 == pytest.approx(1.0, abs=1e-12)


def test_gaussian_char_feeds_quadrature():
    A, B = 3.0, 3.0
    chi = catalog.GaussianChar(A, B)
    res = measure_char_quadrature(chi, radial_cut=None)
    assert res.value == pytest.approx(-1.0 / 9.0, abs=1e-10)


def test_maximally_mixed_is_exactly_neutral():
    rho = catalog.make_maximally_mixed(24)
    res = measure_operator(rho)
    assert res.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("V,d", [(2.0, 1.0), (5.0, 2.0)])
def test_thermal_scs_closed_form_vs_dense(V, d):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho = catalog.make_thermal_scs(V, d)
    closed = catalog.thermal_scs_measure(V, d)
    assert measure_operator(rho).value == pytest.approx(closed.value, abs=1e-9)
    assert rho.mean_number() == pytest.approx(catalog.ThermalSCSChar(V, d).mean_n,
                                              abs=1e-8)
    assert rho.purity() == pytest.approx(catalog.ThermalSCSChar(V, d).purity, abs=1e-9)


def test_thermal_scs_closed_form_vs_quadrature():
    for V, d in ((2.0, 1.0), (5.0, 3.0), (10.0, 5.0)):
        chi = catalog.ThermalSCSChar(V, d)
        oracle = measure_char_quadrature(chi, radial_cut=None)
        assert catalog.thermal_scs_measure(V, d).value == pytest.approx(
            oracle.value, abs=1e-9), (V, d)


def test_thermal_scs_pure_limit():
    # V = 1 collapses onto the plain superposition formulas
    assert catalog.thermal_scs_measure(1.0, 1.4).value == pytest.approx(
        catalog.closed_form_scs(1.4).value, rel=1e-12)
    assert catalog.ThermalSCSChar(1.0, 1.4).purity == pytest.approx(1.0, abs=1e-12)


def test_thermal_scs_large_v_saturates():
    assert catalog.thermal_scs_measure(1e4, 0.0).value == pytest.approx(0.5, abs=1e-2)


def test_thermal_scs_rejects_unphysical_v():
    with pytest.raises(ValueError):
        catalog.make_thermal_scs(0.5, 1.0)


def test_dur_exact_matches_lowrank_and_asymptotics():
    val = catalog.dur_exact(1000, 0.1)
    assert catalog.dur_measure(1000, 0.1).value == pytest.approx(val, abs=1e-10)
    assert val == pytest.approx(catalog.dur_asymptotic(1000, 0.1), rel=0.02)


def test_dur_exact_degenerate_cases():
    assert catalog.dur_exact(1, 0.4) == pytest.approx(0.0, abs=1e-15)
    assert catalog.dur_exact(5, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_ghz_noon_constructors():
    ghz = catalog.make_ghz(6)
    assert ghz.coeff.shape == (2, 2)
    assert ghz.rank == 2 and ghz.modes == 6
    noon = catalog.make_noon(4)
    dense = noon.to_dense()
    assert dense.mean_number() == pytest.approx(4.0)
