"""Cross-cutting invariants, exercised on random and parametric families."""

import numpy as np
import pytest

from macroq import catalog, phasespace
from macroq.dynamics import evolve, lindblad_rhs, purity_rate_residuals
from macroq.fock import (DensityMatrix, apply_displacement, apply_rotation,
                         as_cutoffs)
from macroq.measure import (measure_char_quadrature, measure_operator,
                            measure_wigner_grid)


def random_state(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return DensityMatrix(as_cutoffs(dim), g @ g.conj().T)


def test_occupation_bound_on_ensemble():
    rng = np.random.default_rng(42)
    for _ in range(200):
        st = random_state(rng, 7)
        res = measure_operator(st)
        assert res.value <= res.mean_n + 1e-9
        if res.purity < 1.0 - 1e-6:
            assert res.value < res.mean_n


def test_operator_route_equals_generator_overlap():
    rng = np.random.default_rng(5)
    for _ in range(50):
        st = random_state(rng, 6)
        direct = -float(np.real(np.einsum("ij,ji->", st.data,
                                          lindblad_rhs(st.data, st.cutoffs))))
        assert measure_operator(st).value == pytest.approx(direct, abs=1e-12)


def test_rotation_invariance_random_states():
    rng = np.random.default_rng(9)
    for _ in range(20):
        st = random_state(rng, 8)
        base = measure_operator(st).value
        turned = measure_operator(apply_rotation(st, rng.uniform(0, 2 * np.pi))).value
        assert turned == pytest.approx(base, abs=1e-12)


def test_displacement_invariance_with_headroom():
    rng = np.random.default_rng(13)
    # small random cores embedded in a large window so the shift cannot leak
    for _ in range(5):
        core = random_state(rng, 4)
        data = np.zeros((30, 30), dtype=complex)
        data[:4, :4] = core.data
        st = DensityMatrix(as_cutoffs(30), data)
        base = measure_operator(st).value
        moved = apply_displacement(st, complex(*rng.uniform(-0.7, 0.7, 2)))
        assert measure_operator(moved).value == pytest.approx(base, abs=1e-8)


def test_two_mode_additivity_random_products():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = random_state(rng, 4)
        b = random_state(rng, 5)
        joint = DensityMatrix((4, 5), np.kron(a.data, b.data))
        ia = measure_operator(a)
        ib = measure_operator(b)
        expected = ia.value * ib.purity + ib.value * ia.purity
        assert measure_operator(joint).value == pytest.approx(expected, abs=1e-10)


def test_route_triangle_random_states():
    rng = np.random.default_rng(33)
    for _ in range(5):
        st = random_state(rng, 8)
        vo = measure_operator(st).value
        vq = measure_char_quadrature(phasespace.char_of(st), radial_cut=None).value
        vw = measure_wigner_grid(phasespace.wigner_of(st, points=161)).value
        assert vq == pytest.approx(vo, abs=1e-6)
        assert vw == pytest.approx(vo, abs=1e-6)


def test_purity_rate_identity_random_state():
    rng = np.random.default_rng(17)
    st = random_state(rng, 10)
    resid = purity_rate_residuals(st, [0.0, 0.3])
    assert max(resid) < 1e-6


def test_damped_squeezed_state_follows_gaussian_closed_form():
    A, B = catalog.squeezed_char_params(1.0)
    traj = evolve(catalog.make_squeezed(1.0), [0.2, 0.6])
    for p in traj:
        ref = catalog.gaussian_measure(*catalog.gaussian_decohere(A, B, p.tau))
        assert p.value == pytest.approx(ref.value, abs=1e-7)
        assert p.purity == pytest.approx(ref.purity, abs=1e-7)


def test_dur_size_grows_with_party_count():
    vals = [catalog.dur_exact(n, 0.1) for n in (2, 5, 10, 50, 200, 1000)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # and approaches the quarter rule from below at this epsilon
    assert vals[-1] == pytest.approx(catalog.dur_asymptotic(1000, 0.1), rel=0.02)


def test_bigger_cats_decohere_faster():
    # curves start ordered by size and cross as the bigger one collapses
    taus = np.linspace(0.0, 1.0, 101)
    gap = np.array([catalog.closed_form_decohered_scs(4.0, t).value
                    - catalog.closed_form_decohered_scs(2.0, t).value for t in taus])
    assert gap[0] > 0
    assert (gap[1:] * gap[:-1] < 0).any()


def test_truncated_squeezed_char_matches_gaussian_formula():
    s = 1.0
    A, B = catalog.squeezed_char_params(s)
    chi_num = phasespace.char_of(catalog.make_squeezed(s))
    chi_ref = catalog.GaussianChar(A, B)
    pts = np.array([0.4, 0.9j, 0.5 + 0.5j, 1.5, 1.2j])
    np.testing.assert_allclose(chi_num(pts), chi_ref(pts), atol=1e-9)


def test_auto_cutoff_squeezed_measure_reaches_formula():
    s = 1.5
    res = measure_operator(catalog.make_squeezed(s))
    assert res.value == pytest.approx(np.sinh(s) ** 2, abs=1e-6)


def test_interference_needs_coherence():
    # the incoherent mixture of the same branches carries no size
    for alpha in (3.0, 4.0):
        coherent = catalog.closed_form_scs(alpha).value
        mixed = catalog.mixture_scs_measure(alpha).value
        assert coherent == pytest.approx(alpha ** 2, rel=1e-3)
        assert abs(mixed) < 1e-6


def test_wigner_grid_moments_match_operator_moments():
    rng = np.random.default_rng(29)
    st = random_state(rng, 9)
    grid = phasespace.wigner_of(st, points=181)
    assert grid.mean_number() == pytest.approx(st.mean_number(), abs=1e-7)
    assert grid.purity() == pytest.approx(st.purity(), abs=1e-7)


def test_char_transform_preserves_score(tmp_path):
    # score computed after a file round trip equals the in-memory score
    from macroq.phasespace import load_wigner, save_wigner

    st = catalog.make_scs(1.2, 35)
    grid = phasespace.wigner_of(st, points=161)
    direct = measure_wigner_grid(grid).value
    path = tmp_path / "g.wig"
    save_wigner(grid, path)
    again = measure_wigner_grid(load_wigner(path)).value
    assert again == direct  # text format is exact for doubles
