"""Vacuum amplitude-damping evolution in the truncated Fock space.

Time is dimensionless (one unit is one damping time), the rate is one per
mode.  Loss only lowers occupations, so the semigroup has the closed form

    rho(tau) = eta^(N/2) exp[(1 - eta) sum_m A_m](rho) eta^(N/2)

with eta = e^-tau, A_m(rho) = a_m rho a_m^dag and N the total number
operator (Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)).  It holds exactly
on the truncated space, for any real tau.  The terms A^k rho / k! of the
series do not depend on tau, so one series serves every time of a request.
A^k rho vanishes in every row and column of total occupation above K - k,
so each power is computed, and summed, over its leading block only.  An
input state is checked for positivity by one Cholesky factorization, kept
on the state, and the recorded states, Hermitian by construction, skip the
Hermiticity test of the public constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (DensityMatrix, ModeCutoffs, a_rho_adag, as_cutoffs, number_diagonal,
                   shift_weights)
from .measure import measure_operator

# smallest eigenvalue an input state to evolve may have
POSITIVITY_FLOOR = -1e-9
# bytes of the damped states evolve and purity_rate_residuals read off one
# series: 16 MiB holds all 15 stencil legs of a request up to dim 373
_STACK_BYTES = 2 ** 24
# bytes of the block of powers of A that _series_sum sums at once
_BLOCK_BYTES = 2 ** 22
# floats per column strip of the block products in _series_sum
_STRIP = 2 ** 14
# spacing h of the five-point stencil in purity_rate_residuals
STENCIL_STEP = 0.002


def lindblad_rhs(rho: np.ndarray, cutoffs: ModeCutoffs) -> np.ndarray:
    """d rho / d tau = sum_m [a_m rho a_m^dag - (n_m rho + rho n_m) / 2]."""
    nd = number_diagonal(cutoffs)
    out = -0.5 * (nd[:, None] + nd[None, :]) * rho
    for m in range(cutoffs.modes):
        out += a_rho_adag(rho, cutoffs, m)
    return out


def _next_power(term: np.ndarray, k: int, shifts, out: np.ndarray,
                scratch: np.ndarray, rows: int) -> None:
    """Write A term / k into out[:rows, :rows], one 2-D shift per mode.

    ``rows`` is at most n - R, R the stride of ``shifts[0]``, and bounds the
    support of A term; out must be zero outside out[:rows, :rows].  Each
    shift of stride R' writes its block out[:c, :c], c = min(rows, n - R').
    ``scratch`` holds the weighted shift of every mode but the first before
    it is added.
    """
    stride, weights = shifts[0]
    head = out[:rows, :rows]
    np.multiply(weights[:rows, :rows], term[stride:stride + rows, stride:stride + rows],
                out=head)
    n = term.shape[0]
    for stride, weights in shifts[1:]:
        c = min(rows, n - stride)
        part = scratch[:c * c].reshape(c, c)
        np.multiply(weights[:c, :c], term[stride:stride + c, stride:stride + c], out=part)
        out[:c, :c] += part
    head *= 1.0 / k


def _support_rows(cutoffs: ModeCutoffs) -> np.ndarray:
    """rows[t] = 1 + the largest flat index whose total occupation is at most t.

    One pass over the basis: the last index of each occupation, then their
    running maximum.  A^k x vanishes outside its leading rows[K - k] rows and
    columns, since A lowers the total occupation by one.
    """
    occ = number_diagonal(cutoffs).astype(np.intp)
    last = np.zeros(int(occ[-1]) + 1, dtype=np.intp)
    np.maximum.at(last, occ, np.arange(1, occ.size + 1))
    return np.maximum.accumulate(last)


def _powers(x: np.ndarray, cutoffs: ModeCutoffs, ring: np.ndarray):
    """Write A^k x / k! into ring[k % len(ring)] for k = 0, ..., K, yielding (k, rows).

    A = sum_m A_m lowers the total occupation by one, so A^k vanishes past
    K = sum_m (d_m - 1), and A^k x outside its leading ``rows`` rows and
    columns (``_support_rows``).  ``ring`` is a zeroed stack of at least two
    matrices of the shape and dtype of x.  Each power is one ``_next_power``
    of the one before, over that leading block only: the weights of the
    shifts are built once for the series, and nothing is allocated per
    power.  A slot is kept zero outside the block of the power it holds, so
    a reused slot is cleared only between its old and its new block.
    """
    ring[0] = x
    n = x.shape[0]
    yield 0, n
    # smallest stride first: its block [:n-R, :n-R] holds those of the others
    shifts = [shift_weights(cutoffs, m) for m in reversed(range(cutoffs.modes))
              if cutoffs.cutoffs[m] > 1]
    if not shifts:
        return
    support = _support_rows(cutoffs)
    top = len(support) - 1
    edge = n - shifts[0][0]
    held = [n] + [0] * (len(ring) - 1)
    scratch = np.empty((n - shifts[1][0]) ** 2 if len(shifts) > 1 else 0, dtype=x.dtype)
    for k in range(1, top + 1):
        slot = k % len(ring)
        out, old = ring[slot], held[slot]
        rows = min(int(support[top - k]), edge)
        if old > rows:
            out[rows:old, :old] = 0.0
            out[:rows, rows:old] = 0.0
        held[slot] = rows
        _next_power(ring[(k - 1) % len(ring)], k, shifts, out, scratch, rows)
        yield k, rows


def _series_sum(x: np.ndarray, cutoffs: ModeCutoffs, taus: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Write the channel applied to x for each tau of the 1-D ``taus`` into out.

    x is a C-contiguous real or complex matrix and out a C-contiguous stack
    of len(taus) matrices of its dtype.  ``_powers`` writes the powers of A
    straight into a block of at most ``_BLOCK_BYTES``, and each full block is
    summed into out as real matrix products over column strips, so no
    temporary outgrows a strip.  The powers of a block vanish past the
    leading rows of its first power, so a product reads only those.
    """
    size = sum(cutoffs.cutoffs) - cutoffs.modes + 1
    coef = (-np.expm1(-taus))[:, None] ** np.arange(size)  # (1 - eta)^k
    per = max(1, min(size, _BLOCK_BYTES // x.nbytes))
    # one more slot when a block holds a single power, since each power is
    # computed from the one before
    ring = np.zeros((max(per, 2),) + x.shape, dtype=x.dtype)
    flat_ring = ring.reshape(len(ring), -1).view(np.float64)
    flat_out = out.reshape(taus.size, -1).view(np.float64)
    flat_out[:] = 0.0
    row = flat_out.shape[1] // x.shape[0]  # floats per matrix row
    for k, rows in _powers(x, cutoffs, ring):
        j = k % per
        if j == 0:
            width = rows * row
        if j == per - 1 or k == size - 1:
            w = coef[:, k - j:k + 1]
            slot = k % len(ring)
            for c0 in range(0, width, _STRIP):
                cols = slice(c0, min(c0 + _STRIP, width))
                flat_out[:, cols] += w @ flat_ring[slot - j:slot + 1, cols]
    s = np.exp(-0.5 * taus[:, None] * number_diagonal(cutoffs))
    out *= s[:, :, None]
    out *= s[:, None, :]
    return out


def damp(rho: np.ndarray, cutoffs: ModeCutoffs, tau) -> np.ndarray:
    """Apply the loss channel of duration tau to rho, for one tau or an array of them.

    A = sum_m A_m is nilpotent on the truncated space, so exp[(1 - eta) A] is
    the finite sum over k <= K = sum_m (d_m - 1) of (1 - eta)^k A^k / k!.  The
    terms A^k rho / k! do not depend on tau: one series of K powers, each a
    2-D shift of the one before per mode, serves every tau, and each tau
    only weighs and adds them.  Any real tau is allowed; a negative one
    gives the exact inverse map.  A scalar tau returns the dim x dim matrix,
    an array of taus the stack of shape ``tau.shape + (dim, dim)``.
    """
    cut = as_cutoffs(cutoffs)
    taus = np.asarray(tau, dtype=float)
    x = np.array(rho, dtype=complex)
    out = np.empty((taus.size,) + x.shape, dtype=complex)
    _series_sum(x, cut, taus.ravel(), out)
    return out.reshape(taus.shape + x.shape)


def _packed_batches(state: DensityMatrix, times: np.ndarray):
    """Yield (start, stack), where stack[i] is the state damped for times[start + i], packed.

    A Hermitian rho packs into the real matrix Re rho + Im rho, whose
    symmetric part is Re rho and antisymmetric part Im rho.  The channel is
    real-linear and commutes with the transpose, so it maps each part onto
    the same part of the image: one real series does the work of the complex
    one, at half the memory and arithmetic.  The sum of squares of a packed
    state is its purity.  The times go in even batches whose stack stays
    within ``_STACK_BYTES``, each read off one series into the same buffer:
    a stack is only good until the next one is asked for.  The stack has its
    own budget, apart from the block of powers, so that one series serves
    every time of a request up to the dimension that budget names.
    """
    data = state.data
    x = data.real + data.imag
    per = max(1, _STACK_BYTES // x.nbytes)
    chunks = np.array_split(times, -(-times.size // per))
    buffer = np.empty((len(chunks[0]),) + x.shape)
    start = 0
    for chunk in chunks:
        yield start, _series_sum(x, state.cutoffs, chunk, buffer[:chunk.size])
        start += chunk.size


def _unpacked(y: np.ndarray) -> np.ndarray:
    """The Hermitian matrix whose packed form is y."""
    out = np.empty(y.shape, dtype=complex)
    np.add(y, y.T, out=out.real)
    np.subtract(y, y.T, out=out.imag)
    out *= 0.5
    return out


@dataclass(frozen=True)
class TrajectoryPoint:
    tau: float
    state: DensityMatrix
    value: float
    purity: float
    mean_n: float


def _checked_times(state: DensityMatrix, record_times) -> np.ndarray:
    """The record times as an array, once they and the input state pass the checks."""
    times = np.array([float(t) for t in record_times])
    if not times.size:
        raise ValueError("need at least one record time")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("record times must be nonnegative and ascending")
    if not state.clears_floor(POSITIVITY_FLOOR):
        raise RuntimeError("input state is not positive "
                           f"(smallest eigenvalue {state.min_eigenvalue():.3e})")
    return times


def evolve(state: DensityMatrix, record_times, step=None) -> list[TrajectoryPoint]:
    """Apply the loss channel to the input, recording I, purity and occupation.

    Every record point is the channel applied to the input state itself, all
    of them read off one series.  The channel is completely positive and
    trace preserving for tau >= 0, so the input is checked for positivity
    once, against ``POSITIVITY_FLOOR``.  ``step`` is accepted and ignored,
    for callers of the former integrator.
    """
    times = _checked_times(state, record_times)
    cut = state.cutoffs
    out = []
    for start, stack in _packed_batches(state, times):
        for tau, packed in zip(times[start:], stack):
            point = DensityMatrix._from_hermitian(cut, _unpacked(packed))
            res = measure_operator(point)
            out.append(TrajectoryPoint(tau=float(tau), state=point, value=res.value,
                                       purity=res.purity, mean_n=res.mean_n))
    return out


def purity_rate_residuals(state: DensityMatrix, taus, step=None) -> np.ndarray:
    """|dP/dtau + 2 I| at the requested times.

    The derivative uses a fourth-order centered stencil over tau + k h,
    k = -2, ..., 2, with h = ``STENCIL_STEP``.  Each record state and its
    four legs are the channel applied to the input state, all read off one
    series (the semigroup makes this exact, also for the inverse map a leg
    takes when tau < 2h), so the residual measures the identity itself and
    the stencil's O(h^4) error.
    The input and the times are checked as ``evolve`` checks them.  ``step``
    is accepted and ignored, for callers of the former integrator.
    """
    times = _checked_times(state, taus)
    cut = state.cutoffs
    h = STENCIL_STEP
    legs = (times[:, None] + h * np.arange(-2, 3)).ravel()
    ps = np.empty(legs.size)
    values = np.empty(times.size)
    for start, stack in _packed_batches(state, legs):
        ps[start:start + len(stack)] = np.einsum("tij,tij->t", stack, stack)
        for i in range(start, start + len(stack)):
            if i % 5 == 2:
                point = DensityMatrix._from_hermitian(cut, _unpacked(stack[i - start]))
                values[i // 5] = measure_operator(point).value
    ps = ps.reshape(-1, 5)
    dp = (-ps[:, 4] + 8.0 * ps[:, 3] - 8.0 * ps[:, 1] + ps[:, 0]) / (12.0 * h)
    return np.abs(dp + 2.0 * values)
