"""Dense Fock-space representation of bosonic states and operators.

Everything here works on explicit numpy arrays over a truncated number basis.
Multi-mode objects use the C-order (row-major) tensor convention, so the kron
of per-mode operators acts on the flat index returned by ``ModeCutoffs.index_of``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .config import DEFAULT, Tolerances


class TruncationLeakError(RuntimeError):
    """Raised when an operation pushes weight past the Fock cutoff."""


@dataclass(frozen=True)
class ModeCutoffs:
    """Per-mode Fock dimensions.  ``cutoffs[m]`` counts levels 0..cutoffs[m]-1."""

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        if not self.cutoffs or any(int(d) < 1 for d in self.cutoffs):
            raise ValueError(f"cutoffs must be positive, got {self.cutoffs}")
        object.__setattr__(self, "cutoffs", tuple(int(d) for d in self.cutoffs))

    @property
    def modes(self) -> int:
        return len(self.cutoffs)

    @property
    def dim(self) -> int:
        return int(np.prod(self.cutoffs))

    def index_of(self, occupations) -> int:
        """Flat index of the basis state |n_1, ..., n_M>."""
        return int(np.ravel_multi_index(tuple(occupations), self.cutoffs))

    def occupations_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(n) for n in np.unravel_index(index, self.cutoffs))


def as_cutoffs(spec) -> ModeCutoffs:
    """Coerce an int, a sequence of ints, or a ModeCutoffs."""
    if isinstance(spec, ModeCutoffs):
        return spec
    if np.isscalar(spec):
        return ModeCutoffs((int(spec),))
    return ModeCutoffs(tuple(int(d) for d in spec))


def suggest_cutoff(mean_n: float) -> int:
    """Fock dimension heuristic: mean occupation plus a six-sigma safety band."""
    mean_n = max(float(mean_n), 0.0)
    return int(np.ceil(mean_n + 6.0 * np.sqrt(mean_n) + 10.0))


_TILE = 256


def _hermitian_part(rho: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Return max|rho_ij|, max|rho - rho^H| and a new array (rho + rho^H) / 2.

    Above 2 * _TILE rows it works over square tiles, each against its
    transposed partner, so no dim x dim transpose or difference is ever
    materialized.  Elementwise the arithmetic is that of the whole-array
    expressions, so all three results are identical to them bit for bit.
    ``rho`` itself is only read.
    """
    n = rho.shape[0]
    step = n if n <= 2 * _TILE else _TILE
    out = np.empty((n, n), dtype=complex)
    scale = dev = 0.0
    for i0 in range(0, n, step):
        rows = slice(i0, i0 + step)
        for j0 in range(i0, n, step):
            cols = slice(j0, j0 + step)
            upper, lower = rho[rows, cols], rho[cols, rows]
            partner = lower.conj().T
            # |rho_ij - conj(rho_ji)| is symmetric in (i, j): one triangle suffices;
            # np.maximum, unlike the builtin max, carries a NaN through
            dev = np.maximum(dev, np.abs(upper - partner).max())
            scale = np.maximum(scale, np.abs(upper).max())
            out[rows, cols] = 0.5 * (upper + partner)
            if j0 != i0:
                scale = np.maximum(scale, np.abs(lower).max())
                out[cols, rows] = 0.5 * (lower + upper.conj().T)
    return float(scale), float(dev), out


@dataclass
class DensityMatrix:
    """Mixed state as a dense Hermitian matrix, trace-normalized on construction."""

    cutoffs: ModeCutoffs
    data: np.ndarray
    tol: Tolerances = field(default=DEFAULT, repr=False, compare=False)

    def __post_init__(self):
        self.cutoffs = as_cutoffs(self.cutoffs)
        rho = np.asarray(self.data, dtype=complex)
        d = self.cutoffs.dim
        if rho.shape != (d, d):
            raise ValueError(f"density matrix has shape {rho.shape}, expected {(d, d)}")
        scale, dev, rho = _hermitian_part(rho)
        if scale == 0.0:
            raise ValueError("density matrix is zero")
        if dev > self.tol.hermiticity * scale:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        tr = float(rho.trace().real)
        if tr <= 0.0:
            raise ValueError(f"trace {tr!r} is not positive")
        rho /= tr
        self.data = rho

    @property
    def dim(self) -> int:
        return self.cutoffs.dim

    def mean_number(self) -> float:
        return float(np.real(self.data.diagonal() @ number_diagonal(self.cutoffs)))

    def purity(self) -> float:
        # Tr(rho^2) = sum_ij |rho_ij|^2 because data is Hermitian; the float
        # view gives that sum without a transpose or a temporary
        flat = np.ascontiguousarray(self.data).view(np.float64)
        return float(np.einsum("ij,ij->", flat, flat))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.data)[0])


def annihilation_op(cutoffs, mode: int = 0) -> np.ndarray:
    """Dense annihilation operator for one mode of a multi-mode register."""
    cutoffs = as_cutoffs(cutoffs)
    mats = []
    for m, d in enumerate(cutoffs.cutoffs):
        if m == mode:
            mats.append(np.diag(np.sqrt(np.arange(1.0, d)), k=1))
        else:
            mats.append(np.eye(d))
    out = mats[0]
    for mat in mats[1:]:
        out = np.kron(out, mat)
    return out.astype(complex)


def number_diagonal(cutoffs, mode: int | None = None) -> np.ndarray:
    """Diagonal of the number operator (one mode, or the total when mode is None)."""
    cutoffs = as_cutoffs(cutoffs)
    modes = range(cutoffs.modes) if mode is None else [mode]
    total = np.zeros(cutoffs.dim)
    for m in modes:
        per = np.arange(cutoffs.cutoffs[m], dtype=float)
        shape = [1] * cutoffs.modes
        shape[m] = cutoffs.cutoffs[m]
        total += np.broadcast_to(per.reshape(shape), cutoffs.cutoffs).ravel()
    return total


def number_op(cutoffs) -> np.ndarray:
    return np.diag(number_diagonal(cutoffs)).astype(complex)


def mode_view(rho: np.ndarray, cutoffs, mode: int) -> np.ndarray:
    """View a C-contiguous dim x dim array as (L, d, R, L, d, R), without a copy.

    Axes 1 and 4 carry the occupation of ``mode`` in the row and the column
    index; L and R are the dimensions of the modes before and after it.
    """
    if not rho.flags.c_contiguous:
        raise ValueError("mode_view needs a C-contiguous array")
    dims = as_cutoffs(cutoffs).cutoffs
    d = dims[mode]
    left, right = int(np.prod(dims[:mode])), int(np.prod(dims[mode + 1:]))
    return rho.reshape(left, d, right, left, d, right)


def a_rho_adag(rho: np.ndarray, cutoffs, mode: int) -> np.ndarray:
    """Compute a_m rho a_m^dag by index shifts, without building the operator.

    Entry (i, j) of mode m takes sqrt((i+1)(j+1)) rho[.., i+1, ..; .., j+1, ..]
    and the top level is left empty.  Cost is O(dim^2) per call with no
    intermediate copies, which keeps Lindblad evolution and the operator
    route usable at four-digit dimensions.
    """
    rho = np.ascontiguousarray(rho)
    out = np.zeros(rho.shape, dtype=rho.dtype)
    d = as_cutoffs(cutoffs).cutoffs[mode]
    if d > 1:
        w = np.sqrt(np.arange(1.0, d))
        weight = (w[:, None] * w[None, :]).reshape(1, d - 1, 1, 1, d - 1, 1)
        src = mode_view(rho, cutoffs, mode)[:, 1:, :, :, 1:, :]
        np.multiply(src, weight, out=mode_view(out, cutoffs, mode)[:, :-1, :, :, :-1, :])
    return out


def exchange_trace(rho: np.ndarray, cutoffs, mode: int) -> float:
    """Tr(a_m rho a_m^dag rho) for a Hermitian rho, read from shifted views of rho.

    With rho_ji = conj(rho_ij) the trace is
    sum_ij w_i w_j Re(rho[.., i+1, ..; .., j+1, ..] conj(rho[.., i, ..; .., j, ..]))
    with w_i = sqrt(i+1), taken over the (L, d, R, L, d, R) view of
    ``mode_view``.  Rows are shifted by one level inside each of the L
    blocks.  Columns are shifted by R in the flat index, which keeps the
    contiguous runs long; the weight vanishes on the top level j = d-1, which
    removes the terms that this shift wraps into the next block.  The real
    part comes from the float view of rho, so nothing is conjugated or copied.
    """
    cut = as_cutoffs(cutoffs)
    view = mode_view(np.ascontiguousarray(rho, dtype=complex), cut, mode)
    left, d, right = view.shape[:3]
    if d == 1:
        return 0.0
    dim = cut.dim
    level = (np.arange(dim - right) // right) % d
    col_w = np.repeat(np.where(level < d - 1, np.sqrt(level + 1.0), 0.0), 2)
    row_w = np.repeat(np.sqrt(np.arange(1.0, d)), right)
    flat = view.reshape(left, d * right, dim).view(np.float64)
    upper = flat[:, right:, 2 * right:]
    lower = flat[:, :-right, :-2 * right]
    return float(np.einsum("lry,lry,y->r", upper, lower, col_w) @ row_w)


def _displaced_columns(r: np.ndarray, k: np.ndarray, nmax: np.ndarray):
    """Yield (n, f) with f[i, j] = <n+k_i| D(r_j) |n> for real r_j > 0.

    ``k`` lists the diagonals, ascending, and ``nmax[i]`` is how many levels n
    diagonal k_i needs.  At level n, f covers the diagonals up to the last one
    that still needs level n, so its row count never grows, and the generator
    stops after the last level any diagonal needs.  The normalized three-term
    recurrence in n runs for all the diagonals at once and stays bounded by 1
    in magnitude (the elements belong to a unitary), so there is no overflow
    for any cutoff or radius of practical interest.  Three buffers rotate, so
    a yielded f is only safe to read until the generator advances.
    """
    r = np.asarray(r, dtype=float)
    nmax = np.asarray(nmax)
    x = r * r
    kk = np.asarray(k, dtype=float)[:, None]
    f = np.exp(-0.5 * x + kk * np.log(r) - 0.5 * gammaln(kk + 1.0))
    fm1 = np.zeros_like(f)
    spare = np.empty_like(f)
    for n in range(int(nmax.max(initial=0))):
        rows = int(np.nonzero(nmax > n)[0][-1]) + 1
        f, fm1, spare, kk = f[:rows], fm1[:rows], spare[:rows], kk[:rows]
        yield n, f
        # f_{n+1} = a f_n + b f_{n-1}, written into the spare buffer
        np.subtract(2.0 * n + kk + 1.0, x, out=spare)
        spare /= np.sqrt((n + 1.0) * (n + kk + 1.0))
        spare *= f
        fm1 *= -np.sqrt(n * (n + kk) / ((n + 1.0) * (n + kk + 1.0)))
        spare += fm1
        f, fm1, spare = spare, f, fm1


def displacement_matrix(cutoff: int, beta: complex) -> np.ndarray:
    """Truncated single-mode displacement operator D(beta).

    Rows and columns are cut at ``cutoff``, so the matrix is sub-unitary; the
    shortfall of D rho D^dag from unit trace measures the truncation leak.
    """
    cutoff = int(cutoff)
    beta = complex(beta)
    D = np.zeros((cutoff, cutoff), dtype=complex)
    r = abs(beta)
    if r == 0.0:
        np.fill_diagonal(D, 1.0)
        return D
    k = np.arange(cutoff)
    phase = np.exp(1j * k * np.angle(beta))
    for n, f in _displaced_columns(np.array([r]), k, cutoff - k):
        m = f.shape[0]
        D[n + k[:m], n] = f[:, 0] * phase[:m]
        D[n, n + k[1:m]] = (-1.0) ** k[1:m] * f[1:, 0] * phase[1:m].conj()
    return D


def apply_displacement(state: DensityMatrix, betas) -> DensityMatrix:
    """Displace each mode by betas[m].  Raises if the cutoff truncates the result."""
    if np.isscalar(betas):
        betas = [betas]
    cut = state.cutoffs
    if len(betas) != cut.modes:
        raise ValueError(f"got {len(betas)} displacements for {cut.modes} modes")
    D = displacement_matrix(cut.cutoffs[0], betas[0])
    for m in range(1, cut.modes):
        D = np.kron(D, displacement_matrix(cut.cutoffs[m], betas[m]))
    rho = D @ state.data @ D.conj().T
    leak = 1.0 - float(rho.trace().real)
    if leak > state.tol.displacement_leak:
        raise TruncationLeakError(
            f"displacement leaks {leak:.3e} of the trace past the cutoff; "
            "increase the Fock dimension")
    return DensityMatrix(cut, rho, tol=state.tol)


def apply_rotation(state: DensityMatrix, thetas) -> DensityMatrix:
    """Apply exp(i theta_m n_m) per mode.  Exact on the truncated space."""
    if np.isscalar(thetas):
        thetas = [thetas]
    cut = state.cutoffs
    if len(thetas) != cut.modes:
        raise ValueError(f"got {len(thetas)} angles for {cut.modes} modes")
    phase = np.zeros(cut.dim)
    for m, th in enumerate(thetas):
        phase = phase + float(th) * number_diagonal(cut, mode=m)
    u = np.exp(1j * phase)
    return DensityMatrix(cut, u[:, None] * state.data * u.conj()[None, :], tol=state.tol)
