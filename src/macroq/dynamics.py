"""Vacuum amplitude-damping evolution in the truncated Fock space.

Time is dimensionless (one unit is one damping time), the rate is one per
mode.  Loss only lowers occupations, so the semigroup has the closed form

    rho(tau) = eta^(N/2) exp[(1 - eta) sum_m A_m](rho) eta^(N/2)

with eta = e^-tau, A_m(rho) = a_m rho a_m^dag and N the total number
operator (Chuang, Leung & Yamamoto, PRA 56, 1114 (1997)).  It holds exactly
on the truncated space, for any finite real tau.  The terms A^k rho / k! of
the series do not depend on tau, so one series serves every time of a
request.  On the row-major flat matrix each A_m is one contiguous 1-D shift
by R_m (n + 1), R_m the stride of mode m, with weights that vanish where the
read wraps into the next row.  The powers are swept in row strips from the
bottom up: a strip holds all its powers, and below them a halo of the
R_0 + 1 rows the next power reads, within one budget of bytes
(``_BLOCK_BYTES``), and one matrix product per strip sums them into every
time.  Where the halo leaves no room, one strip spans the matrix and the
powers go in blocks of whole matrices.  A^k rho vanishes in
every row of total occupation above K - k, so each power is made, and
summed, over its leading rows only.  An input state is checked for
positivity by one Cholesky factorization, kept on the state, and the
recorded states, Hermitian by construction, skip the Hermiticity test of
the public constructor.  The purity-rate residuals build no state at all:
the purity of each stencil leg and I of each record time are read off the
packed real matrix Re rho + Im rho the series yields (``_packed_value``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (DensityMatrix, ModeCutoffs, _exchange_trace, _ladder, a_rho_adag, as_cutoffs,
                   flat_shift_weights, number_diagonal)
from .measure import measure_operator

# smallest eigenvalue an input state to evolve may have
POSITIVITY_FLOOR = -1e-9
# bytes of the damped states evolve and purity_rate_residuals read off one
# series: 16 MiB holds all 15 stencil legs of a request up to dim 373
_STACK_BYTES = 2 ** 24
# bytes of the strips of the powers of A that _series_sum holds at once
_BLOCK_BYTES = 2 ** 22
# spacing h of the five-point stencil in purity_rate_residuals
STENCIL_STEP = 0.002


def lindblad_rhs(rho: np.ndarray, cutoffs: ModeCutoffs) -> np.ndarray:
    """d rho / d tau = sum_m [a_m rho a_m^dag - (n_m rho + rho n_m) / 2]."""
    nd = number_diagonal(cutoffs)
    out = -0.5 * (nd[:, None] + nd[None, :]) * rho
    for m in range(cutoffs.modes):
        out += a_rho_adag(rho, cutoffs, m)
    return out


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


def _plan(n: int, halo: int, size: int, row_bytes: int, times: int) -> tuple[int, int, int]:
    """(powers per block, rows per strip, rows per product) of ``_series_sum``.

    A strip holds its rows and a halo of ``halo`` rows below them for all
    ``size`` powers, within ``_BLOCK_BYTES``.  Where that strip is shorter
    than its halo, or it and its halo span the matrix, the strip is the
    whole matrix, and a block holds as many whole powers as the budget
    does, two at least, so that the last power of a block is kept until the
    next block has read it.  A block after the first is added into out a
    group of rows at a time, through a slot's share of the budget for all
    ``times``.
    """
    rows = max(1, _BLOCK_BYTES // row_bytes)
    per, strip = size, rows // size - halo
    if strip < max(1, halo) or strip + halo >= n:
        per, strip = min(size, max(2, rows // n)), n
    return per, strip, max(1, min(strip, rows // per) // times)


def _shift_sum(prev: np.ndarray, shifts, start: int, k: int, dst: np.ndarray,
               scratch: np.ndarray) -> None:
    """Write A prev / k into dst, the flat entries start, start + 1, ... of the power.

    ``prev`` holds the power before from flat entry start on, and each mode
    is one contiguous 1-D shift of it (``fock.flat_shift_weights``), cut
    where the shift would read past the matrix; dst is zero past the
    longest cut.  The shifts of the modes after the first go through
    ``scratch`` a piece at a time before they are added.
    """
    for i, (offset, weights) in enumerate(shifts):
        e = min(dst.size, weights.size - start)
        src = prev[offset:]
        if not i:
            np.multiply(weights[start:start + e], src[:e], out=dst[:e])
            dst[e:] = 0.0
            continue
        for c0 in range(0, e, scratch.size):
            c1 = min(e, c0 + scratch.size)
            part = scratch[:c1 - c0]
            np.multiply(weights[start + c0:start + c1], src[c0:c1], out=part)
            dst[c0:c1] += part
    dst *= 1.0 / k


def _series_sum(x: np.ndarray, cutoffs: ModeCutoffs, taus: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Write the channel applied to x for each tau of the 1-D ``taus`` into out.

    x is a C-contiguous real or complex matrix and out a C-contiguous stack
    of len(taus) matrices of its dtype.  The powers A^k x / k! are made in
    row strips from the bottom up, each power of a strip one 1-D shift per
    mode of the strip's power before.  Row i of a power reads rows up to
    i + R_0 + 1 of the one before, R_0 the largest stride, so a strip keeps
    that halo of rows below it for every power; on to the next strip up,
    the top of a strip becomes the halo.  All the powers of a strip are
    then summed into out by one matrix product, and scaled by eta^(N/2) on
    both sides while the strip of out is still in cache.

    When the strips and halos of all the powers do not fit ``_BLOCK_BYTES``
    (``_plan``), the strip is the whole matrix and the powers go in blocks,
    each added into out; the last slot carries a block's last power to the
    first of the next.  A power vanishes past its leading ``_support_rows``
    rows, so it is made and summed over those only, and a strip of a power
    beyond them stays zero.
    """
    n = x.shape[0]
    size = sum(cutoffs.cutoffs) - cutoffs.modes + 1
    coef = (-np.expm1(-taus))[:, None] ** np.arange(size)  # (1 - eta)^k
    # smallest stride first: its cut is the longest
    shifts = [flat_shift_weights(cutoffs, m) for m in reversed(range(cutoffs.modes))
              if cutoffs.cutoffs[m] > 1]
    halo = shifts[-1][0] // n + 1 if shifts else 0
    support = _support_rows(cutoffs)[::-1]  # rows of power k
    per, strip, group = _plan(n, halo, size, x.strides[0], taus.size)
    height = min(n, strip + halo)
    buf = np.zeros((per, height * n), dtype=x.dtype)
    flat_buf = buf.view(np.float64)
    flat_out = out.reshape(taus.size, -1).view(np.float64)
    row = flat_out.shape[1] // n  # floats per matrix row
    flat_x = x.reshape(-1)
    # a slot's share of the budget, or one group of rows for every time
    share = max(1, _BLOCK_BYTES // (per * x.strides[0]))
    scratch = np.empty(n * max(min(strip, share), taus.size * group), dtype=x.dtype)
    part = scratch.view(np.float64)[:taus.size * group * row].reshape(taus.size, -1)
    s = np.exp(-0.5 * taus[:, None] * number_diagonal(cutoffs))
    for k0 in range(0, size, per):
        k1 = min(size, k0 + per)
        for r1 in range(n, 0, -strip):
            r0 = max(0, r1 - strip)
            h = r1 - r0
            # the powers the strip below reached hand their top rows on as the halo
            held = int(np.count_nonzero(support[k0:k1] > r1))
            # one 1-D copy per slot: the 2-D copy's bounds overlap across
            # slots, so numpy would stage it through a temporary
            for slot in buf[:held]:
                slot[h * n:(h + halo) * n] = slot[:halo * n]
            made = 0
            for k in range(k0, k1):
                top = min(r1, int(support[k]))
                if top <= r0:
                    break
                dst = buf[made, :(top - r0) * n]
                if k == 0:
                    dst[:] = flat_x[r0 * n:top * n]
                else:
                    # a block's first power reads the last slot, which holds
                    # the last power of the block before
                    _shift_sum(buf[made - 1], shifts, r0 * n, k, dst, scratch)
                if k >= per:
                    # the slot held a whole power of the block before, of more rows
                    buf[made, top * n:int(support[k - per]) * n] = 0.0
                made += 1
            w = coef[:, k0:k0 + made]
            if k0 == 0:
                np.matmul(w, flat_buf[:made, :h * row], out=flat_out[:, r0 * row:r1 * row])
            else:
                # a group of rows at a time through scratch; the powers of a
                # block vanish past the rows of its first one
                for g0 in range(r0, min(r1, int(support[k0])), group):
                    g1 = min(r1, g0 + group)
                    term = part[:, :(g1 - g0) * row]
                    np.matmul(w, flat_buf[:made, (g0 - r0) * row:(g1 - r0) * row], out=term)
                    flat_out[:, g0 * row:g1 * row] += term
            if k1 == size:
                band = out[:, r0:r1]
                band *= s[:, r0:r1, None]
                band *= s[:, None, :]
    return out


def _finite(taus: np.ndarray) -> np.ndarray:
    """The times, once every one is finite; the series of an infinite or NaN
    time is NaN throughout."""
    bad = taus[~np.isfinite(taus)]
    if bad.size:
        raise ValueError(f"time {float(bad[0])!r} is not finite")
    return taus


def damp(rho: np.ndarray, cutoffs: ModeCutoffs, tau) -> np.ndarray:
    """Apply the loss channel of duration tau to rho, for one tau or an array of them.

    A = sum_m A_m is nilpotent on the truncated space, so exp[(1 - eta) A] is
    the finite sum over k <= K = sum_m (d_m - 1) of (1 - eta)^k A^k / k!.  The
    terms A^k rho / k! do not depend on tau: one series of K powers, each a
    1-D shift of the flat matrix before it per mode, serves every tau, and
    each tau only weighs and adds them.  Any finite real tau is allowed; a
    negative one gives the exact inverse map; an infinite or NaN one raises
    ValueError.  A scalar tau returns the dim x dim matrix, an array of taus
    the stack of shape ``tau.shape + (dim, dim)``.
    """
    cut = as_cutoffs(cutoffs)
    taus = _finite(np.asarray(tau, dtype=float))
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
    # a real matrix is its own packed form.  Adding 0.0 copies it and turns
    # -0.0 into 0.0, as adding a zero imaginary part does, so the series is
    # that of the complex matrix with the same real part, bit for bit
    x = data + 0.0 if np.isrealobj(data) else data.real + data.imag
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


def _packed_value(y: np.ndarray, ladders) -> float:
    """I of the state whose packed form is y, read off y itself.

    ``ladders`` holds the ``fock._ladder`` of each mode, whose levels sum to
    the total number n.  Under weights symmetric in (i, j) the symmetric
    part Re rho and the antisymmetric part Im rho of y do not mix, so
    sum_m Tr(rho^2 n_m) is sum_ij (n_i + n_j) y_ij^2 / 2, and each exchange
    term is ``fock._exchange_trace`` of y as a real matrix.  Both are
    divided by tr(y)^2, the squared trace of rho.
    """
    number = sum(level for _, level, _ in ladders)
    second = 0.5 * (np.einsum("ij,ij->i", y, y) + np.einsum("ij,ij->j", y, y)) @ number
    exchange = sum(_exchange_trace(y, stride, w) for stride, _, w in ladders)
    return float(second - exchange) / float(y.trace()) ** 2


@dataclass(frozen=True)
class TrajectoryPoint:
    tau: float
    state: DensityMatrix
    value: float
    purity: float
    mean_n: float


def _checked_times(state: DensityMatrix, record_times) -> np.ndarray:
    """The record times as an array, once they and the input state pass the checks."""
    times = _finite(np.array([float(t) for t in record_times]))
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
    the stencil's O(h^4) error.  Both numbers are read off the packed
    states of ``_packed_batches``: the purity of each leg is the sum of
    squares of its packed matrix, and I of each record state is
    ``_packed_value``, so no leg is unpacked into a complex matrix or a
    ``DensityMatrix``.  I takes the operator route's 2-D shift kernel
    (``fock._exchange_trace``), apart from the series' flat 1-D shifts.
    The input and the times are checked as ``evolve`` checks them.  ``step``
    is accepted and ignored, for callers of the former integrator.
    """
    times = _checked_times(state, taus)
    cut = state.cutoffs
    ladders = [_ladder(cut, m) for m in range(cut.modes)]
    h = STENCIL_STEP
    legs = (times[:, None] + h * np.arange(-2, 3)).ravel()
    ps = np.empty(legs.size)
    values = np.empty(times.size)
    for start, stack in _packed_batches(state, legs):
        ps[start:start + len(stack)] = np.einsum("tij,tij->t", stack, stack)
        for i in range(start, start + len(stack)):
            if i % 5 == 2:
                values[i // 5] = _packed_value(stack[i - start], ladders)
    ps = ps.reshape(-1, 5)
    dp = (-ps[:, 4] + 8.0 * ps[:, 3] - 8.0 * ps[:, 1] + ps[:, 0]) / (12.0 * h)
    return np.abs(dp + 2.0 * values)
