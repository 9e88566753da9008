"""Tests for the low-rank product-state engine."""

import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from macroq import catalog
from macroq.fock import DensityMatrix
from macroq.lowrank import measure_lowrank
from macroq.measure import measure, measure_operator


def two_mode_branch(a0, a1, b0, b1):
    return [np.array([a0, a1], dtype=complex), np.array([b0, b1], dtype=complex)]


def test_superposition_bell_pair():
    up = two_mode_branch(1, 0, 1, 0)
    down = two_mode_branch(0, 1, 0, 1)
    state = DensityMatrix.superposition([up, down])
    vec = np.array([1, 0, 0, 1]) / np.sqrt(2)
    np.testing.assert_allclose(state.data, np.outer(vec, vec), atol=1e-14)


def test_mixture_probabilities():
    up = two_mode_branch(1, 0, 1, 0)
    down = two_mode_branch(0, 1, 0, 1)
    state = DensityMatrix.mixture([up, down], [0.25, 0.75])
    expected = np.zeros((4, 4))
    expected[0, 0] = 0.25
    expected[3, 3] = 0.75
    np.testing.assert_allclose(state.data, expected, atol=1e-14)


def test_coeff_must_be_hermitian_psd():
    up = two_mode_branch(1, 0, 1, 0)
    down = two_mode_branch(0, 1, 0, 1)
    with pytest.raises(ValueError):
        DensityMatrix.product([up, down], np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        DensityMatrix.product([up, down], np.array([[1.0, 2.0], [2.0, 1.0]]))
    # the Hermiticity gate sits at 1e-12 of max|coeff|, the weight floor at -1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix.product([up, down], np.array([[1.0, 2e-12], [0.0, 1.0]]))
    DensityMatrix.product([up, down], np.array([[1.0, 5e-13], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="negative weight"):
        DensityMatrix.product([up, down], np.diag([1.0, -2e-9]))
    DensityMatrix.product([up, down], np.diag([1.0, -5e-10]))


@pytest.mark.parametrize("ket, weight", [([np.nan, 1.0], 1.0), ([np.inf, 0.0], 1.0),
                                         ([1.0, 0.0], np.nan), ([1.0, 0.0], np.inf)])
def test_product_refuses_entries_that_are_not_finite(ket, weight):
    up = [np.array(ket, dtype=complex), np.array([1.0, 0.0], dtype=complex)]
    down = two_mode_branch(0, 1, 0, 1)
    with pytest.raises(ValueError, match="not finite"):
        DensityMatrix.product([up, down], np.diag([weight, 1.0]))
    # else the low-rank route reads I = NaN with err_estimate 0
    with pytest.raises(ValueError, match="not finite"):
        catalog.make_dur(4, np.nan)


def test_factor_dims_must_agree_per_mode():
    good = two_mode_branch(1, 0, 1, 0)
    bad = [np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0])]
    with pytest.raises(ValueError):
        DensityMatrix.superposition([good, bad])


def test_unnormalized_factors_are_folded_in():
    # scaling a branch must not change the normalized state
    base = DensityMatrix.superposition([two_mode_branch(1, 0, 1, 0),
                                        two_mode_branch(0, 1, 0, 1)])
    scaled = DensityMatrix.superposition([two_mode_branch(3, 0, 3, 0),
                                          two_mode_branch(0, 1, 0, 1)])
    # not the same state (weights shift), but both remain unit trace
    for st in (base, scaled):
        assert st.data.trace() == pytest.approx(1.0)
    r = measure_lowrank(scaled)
    assert 0.0 <= r.value <= r.mean_n + 1e-12


@pytest.mark.parametrize("n_modes", [2, 3, 5])
def test_ghz_measure_matches_dense(n_modes):
    state = catalog.make_ghz(n_modes)
    low = measure_lowrank(state)
    assert low.route == "low-rank"
    # the factored Gram route and the dense index-shift route
    for dense in (measure_operator(state),
                  measure_operator(DensityMatrix(state.cutoffs, state.data))):
        assert low.value == pytest.approx(dense.value, abs=1e-12)
        assert low.mean_n == pytest.approx(dense.mean_n, abs=1e-12)
        assert low.purity == pytest.approx(dense.purity, abs=1e-12)


def test_ghz_value_is_half_party_count():
    # mean occupation n/2 and no single-mode coherences
    res = measure_lowrank(catalog.make_ghz(8))
    assert res.value == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_many_mode_factor_norms_do_not_overflow(scale):
    # the per-term norm product, scale^1100, leaves the float range either way
    e0, e1 = np.array([scale, 0.0]), np.array([0.0, scale])
    state = DensityMatrix.superposition([[e0] * 1100, [e1] * 1100])
    assert measure_lowrank(state).value == pytest.approx(550.0, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_noon_measure_matches_dense(n):
    state = catalog.make_noon(n)
    low = measure_lowrank(state)
    dense = measure_operator(state)
    assert low.value == pytest.approx(dense.value, abs=1e-12)
    assert low.value == pytest.approx(float(n), abs=1e-12)


@pytest.mark.parametrize("n_modes", [1, 2, 5, 12])
def test_dur_measure_matches_dense(n_modes):
    state = catalog.make_dur(n_modes, 0.1)
    low = measure_lowrank(state)
    assert low.value == pytest.approx(measure_operator(state).value, abs=1e-10)
    if n_modes <= 5:
        dense = measure_operator(DensityMatrix(state.cutoffs, state.data))
        assert low.value == pytest.approx(dense.value, abs=1e-10)


def test_dur_single_party_is_pure_coherent_free():
    # one branch pair on one mode: a pure qubit state has I = <n> - |<a>|^2
    res = measure_lowrank(catalog.make_dur(1, 0.3))
    assert res.value == pytest.approx(0.0, abs=1e-14)


def test_random_rank_three_product_state_matches_dense():
    rng = np.random.default_rng(11)
    modes, dim, rank = 3, 4, 3
    terms = [[rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(modes)]
             for _ in range(rank)]
    w = rng.normal(size=rank) + 1j * rng.normal(size=rank)
    state = DensityMatrix.superposition(terms, weights=w)
    low = measure_lowrank(state)
    dense = measure_operator(state)
    assert low.value == pytest.approx(dense.value, abs=1e-10)
    assert low.purity == pytest.approx(dense.purity, abs=1e-12)


def test_to_dense_guards_dimension():
    # the factored form is built at any dimension; only the dense matrix refuses
    dense = catalog.make_ghz(20)
    assert dense.dim == 2 ** 20
    with pytest.raises(ValueError, match="exceeds the 4096 limit"):
        dense.data


def test_to_dense_refuses_an_oversized_factor():
    # dim 2^40 x rank 2: refused before any of V is allocated
    with pytest.raises(ValueError, match="exceeds the 4194304 limit"):
        catalog.make_ghz(40).factors
    with pytest.raises(ValueError, match="exceeds the 4194304 limit"):
        measure(catalog.make_ghz(30), "operator")


def test_gram_diagonal_is_branch_norm():
    state = catalog.make_ghz(4)
    V, _ = state.factors
    g = V.conj().T @ V
    np.testing.assert_allclose(np.diag(g).real, 1.0, atol=1e-12)
    assert g.shape == (2, 2)


def _random_factored(dims, rank, seed):
    rng = np.random.default_rng(seed)
    terms = [[rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
             for _ in range(rank)]
    g = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    return DensityMatrix.product(terms, g @ g.conj().T)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("dims", [(3, 1, 4), (2, 2, 2, 2), (4, 1)])
def test_factored_operator_route_matches_dense(dims, rank):
    factored = _random_factored(dims, rank, seed=rank + len(dims))
    low = measure_operator(factored)
    assert factored._data is None  # the Gram route never builds the matrix
    dense = measure_operator(DensityMatrix(factored.cutoffs, factored.data))
    assert low.value == pytest.approx(dense.value, abs=1e-12)
    assert low.mean_n == pytest.approx(dense.mean_n, abs=1e-12)
    assert low.purity == pytest.approx(dense.purity, abs=1e-12)
    assert low.err_estimate == 0.0 and low.warnings == ()


def _weighted(dims, weights, seed):
    """Random complex unit kets under C = Q diag(weights) Q^H, Q a random unitary."""
    rng = np.random.default_rng(seed)
    r = len(weights)
    terms = [[u / np.linalg.norm(u) for u in
              (rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims)] for _ in range(r)]
    q, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    return DensityMatrix.product(terms, (q * np.asarray(weights)) @ q.conj().T)


@pytest.mark.parametrize("make", [
    # (3,)*6 and (5, 2, 61) span several row strips, each with a ragged last one
    pytest.param(lambda: _random_factored((3, 1, 4), 3, seed=3), id="dims0"),
    pytest.param(lambda: _random_factored((3,) * 6, 3, seed=6), id="dims1"),
    pytest.param(lambda: _random_factored((5, 2, 61), 3, seed=3), id="dims2"),
    # real rank-1 states: the sum has one term and no imaginary half
    pytest.param(lambda: catalog.make_ghz(10), id="ghz10"),
    pytest.param(lambda: catalog.make_dur(10, 0.3), id="dur10"),
    pytest.param(lambda: catalog.make_noon(5), id="noon5"),
    # a negative weight that the weight floor admits keeps its sign: dropped,
    # it would move entries by about 1e-11; one below eigh's resolution goes
    pytest.param(lambda: _weighted((3, 4), [1.0, 0.4, -1e-10], seed=5), id="admitted-negative"),
    pytest.param(lambda: _weighted((3, 4), [1.0, 0.4, 1e-20], seed=5), id="below-resolution"),
])
def test_factored_data_is_exactly_hermitian(make):
    state = make()
    rho = state.data
    assert np.array_equal(rho, rho.conj().T)
    V, C = state.factors
    np.testing.assert_allclose(rho, V @ C @ V.conj().T, rtol=0, atol=1e-15)
    assert rho.trace().real == pytest.approx(1.0, abs=1e-14)
    assert state.data is rho  # built once, then cached


def test_ghz_data_holds_four_entries():
    # V of GHZ-12 lives on rows 0 and 4095, so rho holds four entries of 1/2
    # and the strips without those rows are written as exact zeros
    state = catalog.make_ghz(12)
    V, C = state.factors
    ends = [0, 4095]
    assert np.array_equal(np.flatnonzero(np.abs(V).sum(axis=1)), ends)
    rho = state.data
    rows, cols = np.nonzero(rho)
    assert rows.tolist() == [0, 0, 4095, 4095] and cols.tolist() == [0, 4095, 0, 4095]
    corner = rho[np.ix_(ends, ends)]
    assert np.array_equal(corner, corner.conj().T)
    np.testing.assert_allclose(corner, V[ends] @ C @ V[ends].conj().T, rtol=0, atol=1e-15)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: catalog.make_ghz(9), id="ghz9"),
    pytest.param(lambda: catalog.make_dur(10, 0.3), id="dur10"),
    pytest.param(lambda: catalog.make_noon(5), id="noon5"),
])
def test_real_product_data_is_float64_and_holds_the_complex_builds_real_part(make):
    # each is a superposition of real kets: C has rank 1 and the one kept
    # eigenpair gives b = V u sqrt(lam), real; the complex build wrote the
    # products s b_i b_j into its real half and nothing into the imaginary one
    state = make()
    rho = state.data
    assert rho.dtype == np.float64
    V, C = state.factors
    lam, U = np.linalg.eigh(C.real)
    top = np.argmax(np.abs(lam))
    assert np.abs(np.delete(lam, top)).max() <= 2 * np.finfo(float).eps * abs(lam[top])
    b = ((V @ U[:, [top]]) * np.sqrt(abs(lam[top]))).real.ravel()
    assert np.array_equal(rho, np.multiply.outer(np.sign(lam[top]) * b, b))


def _coherent_ket(alpha, cutoff):
    """<n|alpha> for n < cutoff, a float array for a real alpha."""
    n = np.arange(cutoff)
    return math.exp(-0.5 * abs(alpha) ** 2) * alpha ** n / np.sqrt(
        [float(math.factorial(k)) for k in n])


def test_complex_product_kets_keep_a_complex_matrix():
    # a two-mode cat of complex coherent kets: b has an imaginary part
    plus = [_coherent_ket(1.1 + 0.7j, 12), _coherent_ket(0.5j, 12)]
    minus = [_coherent_ket(-1.1 - 0.7j, 12), _coherent_ket(-0.5j, 12)]
    state = DensityMatrix.superposition([plus, minus])
    rho = state.data
    assert rho.dtype == np.complex128 and rho.imag.any()
    assert np.array_equal(rho, rho.conj().T)
    V, C = state.factors
    np.testing.assert_allclose(rho, V @ C @ V.conj().T, rtol=0, atol=1e-15)


def _single_mode_cat(alpha, cutoff):
    """Even cat of real coherent kets, as a product state of one mode."""
    return DensityMatrix.superposition([[_coherent_ket(alpha, cutoff)],
                                        [_coherent_ket(-alpha, cutoff)]])


@pytest.mark.parametrize("route", ["operator", "char-quadrature", "wigner-grid"])
def test_routes_read_real_product_data_as_its_complex_twin(route):
    state = _single_mode_cat(1.3, 24)
    assert state.data.dtype == np.float64
    twin = DensityMatrix(state.cutoffs, state.data)
    assert twin.data.dtype == np.complex128
    if route == "operator":
        # the dense operator route, on the real matrix itself
        real = DensityMatrix._from_hermitian(state.cutoffs, state.data.copy())
        got = measure_operator(real).value
    else:
        got = measure(state, route).value
    assert got == pytest.approx(measure(twin, route).value, rel=0, abs=1e-13)


@pytest.mark.parametrize("make", [lambda: catalog.make_ghz(12),
                                  lambda: catalog.make_dur(12, 0.2)], ids=["ghz12", "dur12"])
def test_real_build_of_4096_modes_allocates_one_float_matrix(make):
    # a complex build would peak at 4096^2 * 16 B = 268 MB
    state = make()
    tracemalloc.start()
    try:
        rho = state.data
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.shape == (4096, 4096) and rho.dtype == np.float64
    assert peak <= 4096 ** 2 * 8 + 2 * 2 ** 20


def test_product_purity_keeps_its_digits_where_coeff_cancels():
    # one level, two terms of coeff entries near 67 that cancel to a pure
    # state: read as Tr(C G C G), the purity missed 1 by 2.3e-13
    state = _product_state((1,), 2, "superposition", 1908688602)
    assert abs(state.coeff).max() > 60.0
    assert state.purity() == pytest.approx(1.0, rel=0, abs=1e-13)


def test_lowrank_pads_unequal_mode_dimensions():
    rng = np.random.default_rng(7)
    dims, rank = (3, 1, 5, 2), 3
    terms = [[rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
             for _ in range(rank)]
    g = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    state = DensityMatrix.product(terms, g @ g.conj().T)
    assert state.cutoffs.cutoffs == dims and state.kets.shape == (4, rank, 5)
    low = measure_lowrank(state)
    dense = measure_operator(DensityMatrix(state.cutoffs, state.data))
    assert low.value == pytest.approx(dense.value, abs=1e-12)
    assert low.mean_n == pytest.approx(dense.mean_n, abs=1e-12)
    assert low.purity == pytest.approx(dense.purity, abs=1e-12)


def test_operator_route_past_the_dense_limit():
    # dim 65536: the factored operator route never reads the dense matrix
    assert measure(catalog.make_ghz(16), "operator").value == pytest.approx(8.0, abs=1e-12)
    dense = catalog.make_dur(16, 0.3)
    res = measure_operator(dense)
    assert res.value == pytest.approx(catalog.dur_exact(16, 0.3), abs=1e-10)
    assert dense._data is None


def _product_state(dims, rank, kind, seed):
    """Random complex product kets over ``dims``: a superposition, a mixture, or a general C."""
    rng = np.random.default_rng(seed)
    terms = [[rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
             for _ in range(rank)]
    if kind == "superposition":
        weights = rng.normal(size=rank) + 1j * rng.normal(size=rank)
        return DensityMatrix.superposition(terms, weights)
    if kind == "mixture":
        return DensityMatrix.mixture(terms, rng.uniform(0.05, 1.0, rank))
    g = rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank))
    return DensityMatrix.product(terms, g @ g.conj().T)


def _assert_routes_agree(state):
    low = measure_lowrank(state)
    dense = measure_operator(DensityMatrix(state.cutoffs, state.data))
    tol = 1e-12 * max(1.0, abs(dense.value))
    assert low.value == pytest.approx(dense.value, rel=0, abs=tol)
    assert low.mean_n == pytest.approx(dense.mean_n, rel=0, abs=tol)
    assert low.purity == pytest.approx(dense.purity, rel=0, abs=tol)
    assert low.value <= low.mean_n + 1e-12


# up to six modes of one to four levels; states past 1024 dimensions are
# left out, since the dense route they are checked against builds dim^2 entries
@settings(max_examples=120, deadline=None, database=None)
@given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=6), rank=st.integers(1, 4),
       kind=st.sampled_from(["superposition", "mixture", "general"]),
       seed=st.integers(0, 2 ** 32 - 1))
# one level, two terms of coeff entries near 67 that cancel to a purity of 1:
# read as Tr(c G c G), the purity lost 2.3e-12 to the cancellation
@example(dims=[1], rank=2, kind="superposition", seed=1908688602)
def test_lowrank_matches_the_dense_operator_route_on_random_product_states(dims, rank, kind,
                                                                          seed):
    assume(math.prod(dims) <= 1024)
    _assert_routes_agree(_product_state(tuple(dims), rank, kind, seed))


@pytest.mark.parametrize("dims, rank", [
    pytest.param((5,), 3, id="one-mode"),         # empty prefix and suffix products
    pytest.param((1,), 2, id="one-level"),        # empty ladder slice
    pytest.param((3, 1, 2), 2, id="one-level-among-others"),
    pytest.param((2, 3, 4), 1, id="rank-one"),
])
def test_lowrank_kernel_edges_match_the_operator_route(dims, rank):
    _assert_routes_agree(_product_state(dims, rank, "general", seed=len(dims) + rank))


@pytest.mark.parametrize("n_modes, epsilon", [(2000, 1.5), (5000, 0.05)])
def test_lowrank_dur_at_thousands_of_modes(n_modes, epsilon):
    res = measure_lowrank(catalog.make_dur(n_modes, epsilon))
    exact = catalog.dur_exact(n_modes, epsilon)
    assert res.value == pytest.approx(exact, rel=1e-13)
    assert res.mean_n == pytest.approx(exact, rel=1e-13)
    assert res.purity == pytest.approx(1.0, abs=1e-13)


def test_array_terms_are_the_list_terms():
    rng = np.random.default_rng(3)
    rows = [rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)) for _ in range(2)]
    coeff = np.array([[1.0, 0.3j], [-0.3j, 0.5]])
    stacked = DensityMatrix.product(rows, coeff)
    listed = DensityMatrix.product([list(r) for r in rows], coeff)
    assert stacked.cutoffs == listed.cutoffs
    assert np.array_equal(stacked.kets, listed.kets)
    assert np.array_equal(stacked.coeff, listed.coeff)


def _list_and_array_faults():
    """Pairs of term lists, the same terms as lists of rows and as (M, d) arrays."""
    one, two = np.eye(2), np.eye(3)[:, :2]
    cases = {
        "different numbers of modes": ([one, two], "different numbers of modes"),
        "inconsistent dims": ([one, np.eye(2, 3)],
                              r"mode 0 has inconsistent factor dimensions \[2, 3\]"),
        "not finite": ([one, np.array([[1.0, np.nan], [0.0, 1.0]])], "not finite"),
        "zero factor": ([one, np.array([[1.0, 0.0], [0.0, 0.0]])], "zero factor"),
    }
    for name, (terms, message) in cases.items():
        yield pytest.param(terms, message, id=f"array-{name}")
        yield pytest.param([[np.asarray(u) for u in term] for term in terms], message,
                           id=f"list-{name}")


@pytest.mark.parametrize("terms, message", list(_list_and_array_faults()))
def test_array_terms_get_the_checks_of_list_terms(terms, message):
    with pytest.raises(ValueError, match=message):
        DensityMatrix.superposition(terms)


def _calls_to_build_and_measure(n_modes):
    """Python and C calls made while building DUR over n_modes and measuring it.

    The garbage collector is off meanwhile: a collection runs the Python
    callbacks in ``gc.callbacks`` (hypothesis installs one), which would
    count as calls whenever an allocation happens to trigger it.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        measure_lowrank(catalog.make_dur(n_modes, 0.3))
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def test_thousand_mode_build_and_measure_take_no_step_per_mode():
    # a loop or a generator over the modes in Python shows as calls that
    # grow with the mode count; a timing test could not tell this reliably
    _calls_to_build_and_measure(3)  # first calls may import or cache
    assert _calls_to_build_and_measure(200) == _calls_to_build_and_measure(2000)
