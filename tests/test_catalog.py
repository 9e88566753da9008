"""State constructors and the closed-form evaluators that go with them."""

import numpy as np
import pytest

import warnings

from macroq import catalog
from macroq.fock import DensityMatrix, TruncationLeakError, apply_displacement
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


def test_make_thermal_default_cutoff_holds_the_state(monkeypatch):
    # the default cutoff is the least c whose dropped norm q^c is below 1e-8,
    # so it builds without a leak warning
    for nbar in (0.5, 1.0, 5.0, 10.0, 50.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = catalog.make_thermal(nbar)
        q = nbar / (1.0 + nbar)
        assert q ** rho.dim < 1e-8 <= q ** (rho.dim - 1), nbar
        assert measure_operator(rho).value == pytest.approx(
            catalog.thermal_measure(nbar).value, abs=1e-6)
    # one that needs more than 4096 levels is refused before any state is built
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock state was built")

    for name in ("__init__", "_from_hermitian", "product"):
        monkeypatch.setattr(DensityMatrix, name, refuse)
    with pytest.raises(TruncationLeakError, match="thermal nbar=10000.0"):
        catalog.make_thermal(1e4)


# pure catalog states cut at a cutoff d, and the closed form of the state
# they cut: squeezed vacua at odd and even top levels, cats and coherent states
TAIL_CASES = (
    [("squeezed", 1.5, d) for d in (40, 41, 60, 61, None)]
    + [("scs", 3.0, d) for d in (24, 25, 40)]
    + [("scs", a, None) for a in (4.0, 6.0, 8.0)]
    + [("scs", 2.0, d) for d in (12, 13)]
    + [("coherent", 2.0, d) for d in (10, 11)]
    + [("coherent", 3.0, 20), ("coherent", 1.0, None)]
)


@pytest.mark.parametrize("name, param, cutoff", TAIL_CASES,
                         ids=[f"{n}{p}-{d}" for n, p, d in TAIL_CASES])
def test_truncation_tail_bounds_the_gap_to_the_closed_form(name, param, cutoff):
    # the operator route on the cut state misses the untruncated I by at
    # most the tail, and by at least a tenth of it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = {"squeezed": catalog.make_squeezed, "scs": catalog.make_scs,
                 "coherent": catalog.make_coherent}[name](param, cutoff)
    exact = {"squeezed": catalog.gaussian_measure(*catalog.squeezed_char_params(param)).value,
             "scs": catalog.closed_form_scs(param).value, "coherent": 0.0}[name]
    gap = abs(measure_operator(state).value - exact)
    assert gap <= state.tail <= 10.0 * gap


def test_tail_is_known_only_where_the_state_was_cut_from_a_known_one():
    # exact states carry 0, the pure states cut from an untruncated one their
    # bound, and mixed or derived states None
    assert catalog.make_fock(3).tail == 0.0
    assert catalog.make_ghz(4).tail == 0.0
    assert catalog.make_coherent(0.0).tail == catalog.make_scs(0.0).tail == 0.0
    for state in (catalog.make_coherent(1.2), catalog.make_scs(1.5), catalog.make_squeezed(0.7)):
        assert 0.0 < state.tail < 1e-8
    for state in (catalog.make_thermal(1.0), catalog.make_mixture_scs(1.0),
                  catalog.make_decohered_scs(1.0, 0.2), catalog.make_thermal_scs(2.0, 1.0),
                  catalog.make_maximally_mixed(3), apply_displacement(catalog.make_scs(1.0), [0.5])):
        assert state.tail is None


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


@pytest.mark.parametrize("V,d", [(2.0, 1.0), (2.0, 3.0), (3.0, 1.0), (5.0, 2.0),
                                 (8.0, 4.0), (10.0, 5.0), (2.0, 0.0)])
@pytest.mark.filterwarnings("error")  # the default cutoff holds the state
def test_thermal_scs_closed_form_vs_dense(V, d):
    rho = catalog.make_thermal_scs(V, d)
    closed = catalog.thermal_scs_measure(V, d)
    assert measure_operator(rho).value == pytest.approx(closed.value, abs=1e-12)
    assert rho.mean_number() == pytest.approx(catalog.ThermalSCSChar(V, d).mean_n,
                                              abs=1e-12)
    assert rho.purity() == pytest.approx(catalog.ThermalSCSChar(V, d).purity, abs=1e-12)


def test_thermal_scs_pure_branch_is_the_superposition():
    # V = 1 leaves the displaced thermal branch a coherent state
    np.testing.assert_allclose(catalog.make_thermal_scs(1.0, 1.4).data,
                               catalog.make_scs(1.4).data, rtol=0, atol=1e-15)
    np.testing.assert_allclose(catalog.make_thermal_scs(1.0, -1.4).data,
                               catalog.make_scs(1.4).data, rtol=0, atol=1e-15)


def test_thermal_scs_cutoff_gate():
    with pytest.raises(TruncationLeakError, match="2.629e-02"):
        catalog.make_thermal_scs(2.0, 3.0, cutoff=20)
    with pytest.warns(RuntimeWarning, match="1.404e-06") as caught:
        catalog.make_thermal_scs(2.0, 3.0, cutoff=40)
    # the warning names the constructor's caller, not a catalog frame
    assert caught[0].filename == __file__
    # a cutoff far below the thermal width is refused without building the
    # thermal levels past twice the cutoff
    with pytest.raises(TruncationLeakError, match="9.900e-01"):
        catalog.make_thermal_scs(1e4, 0.0, cutoff=50)


@pytest.mark.parametrize("make", [
    lambda: catalog.make_scs(3.0, cutoff=24),
    lambda: catalog.make_mixture_scs(3.0, cutoff=24),
    lambda: catalog.make_decohered_scs(3.5, 0.1, cutoff=30),
], ids=["scs", "mixture", "decohered"])
def test_cat_leak_warning_points_at_the_caller(make):
    with pytest.warns(RuntimeWarning, match="cutoff misses") as caught:
        make()
    assert caught[0].filename == __file__


def test_real_amplitude_cats_are_real_with_exact_parity_zeros():
    cat = catalog.make_scs(2.95, 37).data
    assert not cat.imag.any()
    assert not cat[1::2].any() and not cat[:, 1::2].any()
    assert np.count_nonzero(np.abs(cat.diagonal()) > 1e-300) == 19
    for rho in (catalog.make_mixture_scs(2.0), catalog.make_decohered_scs(2.0, 0.3)):
        assert not rho.data.imag.any()
    # the mixture holds no coherence between the parity sectors
    mix = catalog.make_mixture_scs(2.0).data
    assert not mix[0::2, 1::2].any()


def test_thermal_scs_closed_form_vs_quadrature():
    for V, d in ((2.0, 1.0), (5.0, 3.0), (10.0, 5.0)):
        chi = catalog.ThermalSCSChar(V, d)
        oracle = measure_char_quadrature(chi, radial_cut=None)
        assert catalog.thermal_scs_measure(V, d).value == pytest.approx(
            oracle.value, abs=1e-9), (V, d)


def _sampled_mean_sq(chi, r, n=4096):
    """Mean of |chi|^2 over n equally spaced angles at each radius r."""
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.mean(np.abs(chi(np.multiply.outer(r, np.exp(1j * phi)))) ** 2, axis=-1)


@pytest.mark.parametrize("V", [1.0, 1.5, 4.0, 60.0])
def test_thermal_scs_angular_mean_matches_the_sampled_char(V):
    # the closed form is checked against chi itself, not against
    # thermal_scs_measure, so the quadrature route stays an independent
    # check of that closed form
    for d in (0.0, 1.4, -1.4, 8.75, 20.0):
        chi = catalog.ThermalSCSChar(V, d)
        a, w = 2.0 * abs(d), 3.0 * np.sqrt(V)
        r = np.array([0.0, 0.3, 1.0, a, a - w, a + w, 40.0])
        exact = chi.angular_mean_sq(r)
        sampled = _sampled_mean_sq(chi, r)
        big = sampled > 1e-250
        assert big.sum() >= 5
        np.testing.assert_allclose(exact[big], sampled[big], rtol=1e-12, atol=0,
                                   err_msg=f"V={V} d={d}")
        assert np.all(exact[~big] <= 1e-249)


def test_thermal_scs_angular_mean_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for V, d, r in ((1.5, 1.4, 1.0), (4.0, -1.4, 2.8), (60.0, 8.75, 17.5)):
            V, d, r = mpmath.mpf(V), mpmath.mpf(d), mpmath.mpf(r)
            norm = 1 + mpmath.exp(-2 * d * d / V) / V

            def sq(phi):
                x, y = r * mpmath.cos(phi), r * mpmath.sin(phi)
                main = mpmath.exp(-V * r * r / 2) * mpmath.cos(2 * d * y)
                wings = (mpmath.exp(-((x - 2 * d) ** 2 + y * y) / (2 * V))
                         + mpmath.exp(-((x + 2 * d) ** 2 + y * y) / (2 * V))) / (2 * V)
                return ((main + wings) / norm) ** 2

            exact = mpmath.quad(sq, mpmath.linspace(0, 2 * mpmath.pi, 33)) / (2 * mpmath.pi)
            got = catalog.ThermalSCSChar(float(V), float(d)).angular_mean_sq(float(r))
            assert abs(got - exact) <= 1e-13 * exact, (V, d, r)


@pytest.mark.parametrize("make", [lambda x: catalog.ThermalSCSChar(2.0, x),
                                  lambda x: catalog.ThermalSCSChar(x, 1.0),
                                  lambda x: catalog.GaussianChar(x, 1.0),
                                  lambda x: catalog.GaussianChar(1.0, x)],
                         ids=["thermal-scs-d", "thermal-scs-V", "gaussian-A", "gaussian-B"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closed_form_chars_refuse_non_finite_parameters(make, bad):
    with pytest.raises(ValueError, match="finite"):
        make(bad)


_NON_FINITE = {
    "thermal-scs-d": (lambda: catalog.make_thermal_scs(2.0, np.nan), "d"),
    "thermal-scs-V": (lambda: catalog.make_thermal_scs(np.inf, 1.0), "V"),
    "scs": (lambda: catalog.make_scs(np.nan), "alpha"),
    "mixture-scs": (lambda: catalog.make_mixture_scs(-np.inf), "alpha"),
    "coherent": (lambda: catalog.make_coherent(np.nan), "alpha"),
    "coherent-complex": (lambda: catalog.make_coherent(complex(1.0, np.inf)), "alpha"),
    "squeezed": (lambda: catalog.make_squeezed(np.nan), "s"),
    "squeezed-inf": (lambda: catalog.make_squeezed(np.inf), "s"),
    "decohered-scs-tau": (lambda: catalog.make_decohered_scs(1.0, np.nan), "tau"),
    "decohered-scs-alpha": (lambda: catalog.make_decohered_scs(np.inf, 0.3), "alpha"),
    "thermal": (lambda: catalog.make_thermal(np.nan), "nbar"),
    "dur": (lambda: catalog.make_dur(4, np.nan), "epsilon"),
}


@pytest.mark.parametrize("make, name", list(_NON_FINITE.values()), ids=list(_NON_FINITE))
def test_constructors_name_a_non_finite_parameter(make, name):
    # checked before any cutoff is sized from the parameter, where a NaN or
    # infinity failed with "cannot convert float NaN to integer" or an
    # OverflowError, or (tau) passed the sign test
    with pytest.raises(ValueError, match=f"^{name} is not finite"):
        make()


# each count a constructor takes, as a function of the count
_COUNTS = {
    "fock-n": (lambda k: catalog.make_fock(k), "n"),
    "fock-cutoff": (lambda k: catalog.make_fock(1, k), "cutoff"),
    "coherent": (lambda k: catalog.make_coherent(0.1, k), "cutoff"),
    "scs": (lambda k: catalog.make_scs(0.1, k), "cutoff"),
    "mixture-scs": (lambda k: catalog.make_mixture_scs(0.1, k), "cutoff"),
    "decohered-scs": (lambda k: catalog.make_decohered_scs(0.1, 0.3, k), "cutoff"),
    "thermal": (lambda k: catalog.make_thermal(0.01, k), "cutoff"),
    "squeezed": (lambda k: catalog.make_squeezed(0.01, k), "cutoff"),
    "thermal-scs": (lambda k: catalog.make_thermal_scs(1.0, 0.1, k), "cutoff"),
    "maximally-mixed": (lambda k: catalog.make_maximally_mixed(k), "dim"),
    "ghz": (lambda k: catalog.make_ghz(k), "n_modes"),
    "noon": (lambda k: catalog.make_noon(k), "n"),
    "dur": (lambda k: catalog.make_dur(k, 0.3), "n_modes"),
}


@pytest.mark.parametrize("make, name", list(_COUNTS.values()), ids=list(_COUNTS))
def test_constructors_name_a_non_integral_count(make, name):
    # int() truncated them: make_fock(2.5) built |2>, make_ghz(2.7) two modes
    for bad in (2.5, 2.7, np.nan):
        with pytest.raises(ValueError, match=f"^{name} is not an integer"):
            make(bad)
    ref = make(3)
    for k in (3.0, np.int64(3)):
        state = make(k)
        assert state.cutoffs == ref.cutoffs and np.array_equal(state.data, ref.data)


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
    # a mode count is whole, as make_dur requires
    for formula in (catalog.dur_exact, catalog.dur_asymptotic, catalog.dur_measure):
        with pytest.raises(ValueError, match="^n_modes is not an integer"):
            formula(4.5, 0.3)


def test_ghz_noon_constructors():
    ghz = catalog.make_ghz(6)
    assert ghz.coeff.shape == (2, 2)
    assert ghz.kets.shape == (6, 2, 2) and ghz.modes == 6
    noon = catalog.make_noon(4)
    assert noon.mean_number() == pytest.approx(4.0)


def _relative_gap(got, exact, mpmath):
    """|got - exact| / |exact|; a result that underflows to within 1e-300 counts as exact."""
    err = abs(mpmath.mpf(got) - exact)
    if abs(exact) < 1e-300:
        return 0.0 if err < 1e-300 else float("inf")
    return float(err / abs(exact))


def test_sinh_ratio_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(60):
        # both sides of the c = 300 switch to the exponential form
        for c in (1e-3, 0.5, 10.0, 299.0, 299.999, 300.0, 300.5, 700.0, 1800.0):
            for y in (-1.0, -0.999, -0.7, -0.3, -1e-3, 0.0, 1e-6, 0.3, 0.7, 0.9999, 1.0):
                exact = mpmath.sinh(mpmath.mpf(c) * y) / mpmath.sinh(mpmath.mpf(c))
                got = catalog._sinh_ratio(c, y, 1.0 - abs(y))
                worst = max(worst, _relative_gap(got, exact, mpmath))
    assert worst <= 1e-13


def _damped_cat_oracle(alpha, tau, mpmath):
    """I, <n> and purity of the damped even cat, from its coherent-state form.

    rho = sum_ij c_ij |b_i><b_j| with b = (beta, -beta), beta = alpha e^(-tau/2)
    and c proportional to [[1, gamma], [gamma, 1]], gamma = exp(-2 alpha^2 (1 - e^-tau)).
    With <p|q> = exp(-(p - q)^2 / 2) for real amplitudes, Tr(rho^2 n) - Tr(a rho a^dag rho)
    is sum c_ij c_kl <b_j|b_k> <b_l|b_i> b_i (b_l - b_j).
    """
    x = mpmath.exp(-mpmath.mpf(tau))
    beta = mpmath.mpf(alpha) * mpmath.sqrt(x)
    gamma = mpmath.exp(-2 * mpmath.mpf(alpha) ** 2 * (1 - x))
    b = (beta, -beta)

    def overlap(p, q):
        return mpmath.exp(-(p - q) ** 2 / 2)

    weight = [[1, gamma], [gamma, 1]]
    norm = sum(weight[i][j] * overlap(b[j], b[i]) for i in range(2) for j in range(2))
    c = [[weight[i][j] / norm for j in range(2)] for i in range(2)]
    value = purity = 0
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        w = c[i][j] * c[k][l] * overlap(b[j], b[k]) * overlap(b[l], b[i])
        purity += w
        value += w * b[i] * (b[l] - b[j])
    mean_n = sum(c[i][j] * b[i] * b[j] * overlap(b[j], b[i])
                 for i in range(2) for j in range(2))
    return value, mean_n, purity


def test_decohered_scs_closed_form_against_mpmath():
    # 2 alpha^2 on both sides of the c = 300 switch of _sinh_ratio, up to
    # alpha = 30; tau around ln 2, where I changes sign.  The bound holds while
    # the exponent 2 alpha^2 (1 - |2 e^-tau - 1|) stays below about 400: past
    # that, the float64 exponential itself costs about 2e-16 per unit of the
    # exponent (1.0e-13 at alpha = 25, tau = 1.35, where I = -5.7e-280)
    mpmath = pytest.importorskip("mpmath")
    ln2 = float(np.log(2.0))
    worst = 0.0
    with mpmath.workdps(60):
        for alpha in (0.5, 2.0, 12.2, 12.3, 20.0, 30.0):
            for tau in (1e-4, 0.05, 0.3, ln2 - 1e-9, ln2, ln2 + 1e-6, 1.0, 2.5):
                res = catalog.closed_form_decohered_scs(alpha, tau)
                exact = _damped_cat_oracle(alpha, tau, mpmath)
                for got, ref in zip((res.value, res.mean_n, res.purity), exact):
                    worst = max(worst, _relative_gap(got, ref, mpmath))
    assert worst <= 1e-13
