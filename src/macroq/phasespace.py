"""Phase-space representations: characteristic functions, Wigner grids, file I/O.

Conventions for a single mode with alpha = x + i p:

    chi(xi)  = Tr[rho D(xi)]
    W(alpha) = (2/pi) Tr[rho D(2 alpha) Pi]        (Pi is the parity operator)
    chi(xi)  = integral of W(alpha) exp(2i (x xi_i - p xi_r)) over the plane
    integral of W over the plane = 1, purity = pi * integral of W^2

so Wigner data lives on an (x, p) grid and characteristic data on the dual
(xi_r, xi_i) grid whose natural extents are pi / (2 * step).

Two evaluators of W share no code.  ``wigner_points`` sums displaced parities
over the matrix diagonals at any points, O(D^2) per point, and is the
reference.  ``wigner_of`` fills a whole grid from the position
representation, W(q, p) = (1/pi) int <q+y| rho |q-y> e^{-2ipy} dy in
quadrature units q = sqrt2 x, and sizes its default grid from the state's
extent and Fock bandwidth.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import DensityMatrix, _displaced_columns

_TRIM = 1e-16
_CHUNK = 1 << 18  # diagonals x radii per pass of the recurrence

# a grid holds the whole state when its integral is within GRID_NORM_TOL of 1
# and |W| on its edge stays within GRID_EDGE_TOL of the peak |W|
GRID_NORM_TOL = 0.02
GRID_EDGE_TOL = 1e-8


# ---------------------------------------------------------------------------
# pointwise evaluation of chi and W from a dense matrix

def _diagonal_sums(w: np.ndarray, r: np.ndarray):
    """Yield (chunk, k, c) with c[..., i, j] = sum_n <n+k_i| D(r_j) |n> w[..., k_i, n].

    ``w`` holds weights along the Fock-matrix diagonals, w[..., k, n] for the
    element (n, n+k) or (n+k, n), and r > 0.  Diagonal k stops at its last
    level whose summed |w| exceeds _TRIM * max|w|; ``k`` lists the diagonals
    that have such a level, and the others are skipped.  The radii go through
    the recurrence in chunks of about _CHUNK // D, so memory stays O(D * chunk)
    for any number of radii.
    """
    D, N = w.shape[-2:]
    mass = np.abs(w).reshape(-1, D, N).sum(axis=0)
    sig = mass > _TRIM * float(np.abs(w).max())
    k = np.nonzero(sig.any(axis=1))[0]
    nmax = N - np.argmax(sig[k, ::-1], axis=1)
    # real and imaginary parts apart, so the radial factors multiply reals
    parts = np.stack([w.real[..., k, :], w.imag[..., k, :]])
    step = max(1, _CHUNK // D)
    for lo in range(0, r.size, step):
        chunk = slice(lo, lo + step)
        acc = np.zeros(parts.shape[:-1] + (r[chunk].size,))
        for n, f in _displaced_columns(r[chunk], k, nmax):
            rows = f.shape[0]
            acc[..., :rows, :] += f * parts[..., :rows, n, None]
        yield chunk, k[:, None], acc[0] + 1j * acc[1]


def _diagonals(mat: np.ndarray) -> np.ndarray:
    """The diagonals of ``mat`` as rows: out[d, n] = mat[n, n + d], zero past the end."""
    D = mat.shape[0]
    n = np.arange(D)
    col = n[None, :] + n[:, None]
    inside = col < D
    return np.where(inside, mat[n[None, :], np.where(inside, col, 0)], 0.0)


def char_points(mat: np.ndarray, pts) -> np.ndarray:
    """Evaluate Tr[mat D(xi)] at arbitrary complex points.

    ``mat`` is any square matrix in the Fock basis (not necessarily Hermitian;
    the Wigner evaluator feeds a parity-weighted one).  The sum runs over the
    matrix diagonals, so the angular dependence is exact and the radial factors
    come from the bounded recurrence in :func:`fock._displaced_columns`.
    """
    pts = np.asarray(pts, dtype=complex)
    flat = pts.ravel()
    out = np.zeros(flat.size, dtype=complex)
    zero = flat == 0.0
    if zero.any():
        out[zero] = mat.trace()
    nz = ~zero
    if nz.any():
        r = np.abs(flat[nz])
        th = np.angle(flat[nz])
        # Tr[mat D] pairs mat[n, n+k] with <n+k|D|n> = f e^{ik th}, and
        # mat[n+k, n] with <n|D|n+k> = (-1)^k f e^{-ik th}; the main diagonal
        # counts once
        w = np.stack([_diagonals(mat), _diagonals(mat.T)])
        w[1, 0] = 0.0
        vals = np.empty(r.size, dtype=complex)
        for chunk, k, (up, down) in _diagonal_sums(w, r):
            turn = np.exp(1j * k * th[chunk])
            vals[chunk] = (up * turn + (-1.0) ** k * down * turn.conj()).sum(axis=0)
        out[nz] = vals
    return out.reshape(pts.shape)


def _angular_mean_sq(rho: np.ndarray, r) -> np.ndarray:
    """Exact angular average of |chi|^2 at radius r, for Hermitian rho.

    Writing chi(r e^{i theta}) = sum_k c_k(r) e^{i k theta}, the average is
    sum_k |c_k|^2, and Hermiticity ties c_{-k} to c_k.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    acc = np.zeros(r.size)
    zero = r == 0.0
    nz = ~zero
    if nz.any():
        vals = np.empty(int(nz.sum()))
        for chunk, k, c in _diagonal_sums(_diagonals(rho), r[nz]):
            vals[chunk] = (np.where(k == 0, 1.0, 2.0) * np.abs(c) ** 2).sum(axis=0)
        acc[nz] = vals
    if zero.any():
        acc[zero] = float(np.abs(rho.trace()) ** 2)
    return acc


def _angular_mean_sq_at_nodes(rho: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """:func:`_angular_mean_sq` at the radii r_j of a node tensor.

    ``tensor[k, n, j]`` = <n+k| D(r_j) |n> on D levels, zero where n + k >= D,
    as the exact radial rule caches it.  With the diagonals rho[n, n+k] of
    the leading D x D block, c_kj = sum_n rho[n, n+k] tensor[k, n, j] is one
    batched product of their real and imaginary parts with the tensor, and
    the mean is sum_k m_k |c_kj|^2, m_0 = 1 and m_k = 2 otherwise.
    """
    D = tensor.shape[0]
    diag = _diagonals(rho[:D, :D])
    c = np.matmul(np.stack([diag.real, diag.imag], axis=1), tensor)
    weight = np.full(D, 2.0)
    weight[0] = 1.0
    return weight @ (c * c).sum(axis=1)


class DenseChar:
    """Characteristic function of a dense single-mode state, callable on arrays.

    Exposes :meth:`angular_mean_sq` so the quadrature route can integrate the
    angle exactly instead of sampling it, and ``levels``, the count of Fock
    levels up to the highest significant one (the trim ``_diagonal_sums``
    applies), so that without a ``radial_cut`` the route integrates the
    radius by the exact Gauss-Laguerre rule on that many nodes instead of
    probing for a cut and running panels.
    """

    def __init__(self, state: DensityMatrix):
        if state.cutoffs.modes != 1:
            raise ValueError("DenseChar handles single-mode states")
        self.state = state

    def __call__(self, xi):
        return char_points(self.state.data, xi)

    def angular_mean_sq(self, r):
        return _angular_mean_sq(self.state.data, r)

    @cached_property
    def levels(self) -> int:
        return _significant_level(self.state.data) + 1

    @property
    def mean_n(self) -> float:
        return self.state.mean_number()

    @property
    def purity(self) -> float:
        return self.state.purity()


def char_of(state: DensityMatrix) -> DenseChar:
    return DenseChar(state)


def wigner_points(state: DensityMatrix, alphas) -> np.ndarray:
    """Evaluate W at arbitrary complex alpha via the displaced-parity form."""
    if state.cutoffs.modes != 1:
        raise ValueError("wigner_points handles single-mode states")
    parity = (-1.0) ** np.arange(state.dim)
    weighted = parity[:, None] * state.data
    vals = char_points(weighted, 2.0 * np.asarray(alphas, dtype=complex))
    return (2.0 / np.pi) * vals.real


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class Axis:
    """Uniform closed interval [start, stop] sampled at n points."""

    start: float
    stop: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.n}")
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise ValueError(f"axis bounds not finite: {self.start} .. {self.stop}")
        if not self.stop > self.start:
            raise ValueError(f"axis bounds not increasing: {self.start} .. {self.stop}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n)

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.n - 1)


@dataclass
class WignerGrid:
    """Real Wigner samples on an (x, p) rectangle; values[i, j] = W(x_i + i p_j)."""

    x: Axis
    p: Axis
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.x.n, self.p.n):
            raise ValueError(f"values shape {vals.shape} does not match axes "
                             f"({self.x.n}, {self.p.n})")
        if not np.isfinite(vals).all():
            raise ValueError("grid contains non-finite values")
        if self.x.n < 16 or self.p.n < 16:
            raise ValueError("Wigner grids need at least 16 points per axis")
        self.values = vals

    @property
    def cell(self) -> float:
        return self.x.step * self.p.step

    def norm(self) -> float:
        return float(self.values.sum() * self.cell)

    def mean_number(self) -> float:
        """sum W (x^2 + p^2) cell - 1/2, as x^2 against the row sums of W and
        p^2 against its column sums, so no grid-sized temporary is formed."""
        xs, ps = self.x.points, self.p.points
        W = self.values
        return float(((xs * xs) @ W.sum(axis=1) + W.sum(axis=0) @ (ps * ps)) * self.cell - 0.5)

    def purity(self) -> float:
        return float(np.pi * (self.values ** 2).sum() * self.cell)

    def faults(self) -> tuple[float | None, float | None]:
        """|integral - 1| unless it is within GRID_NORM_TOL (so a NaN integral
        is reported), and the edge/peak ratio of |W| if it exceeds
        GRID_EDGE_TOL; None for a check that passes.  The peak and the four
        edges are read from W itself, without a copy of |W|."""
        W = self.values
        dev = abs(self.norm() - 1.0)
        peak = max(float(W.max()), -float(W.min()))
        edge = max(float(np.abs(side).max()) for side in (W[0], W[-1], W[:, 0], W[:, -1]))
        return (None if dev <= GRID_NORM_TOL else dev,
                edge / peak if edge > GRID_EDGE_TOL * peak else None)


# ---------------------------------------------------------------------------
# sampling W in the position representation

_SUPPORT_MARGIN = 8.0  # quadrature units past the outermost turning point
_CHI_DECAY = 5.0       # |xi| past sqrt(4 n + 2) at which chi has decayed
_W_DECAY = 3.0         # |alpha| past sqrt(n + 1/2) at which W has decayed


def _significant_level(rho: np.ndarray) -> int:
    """Highest Fock level whose row of rho holds an entry above _TRIM * max|rho|."""
    row = np.abs(rho).max(axis=1)
    return int(np.nonzero(row > _TRIM * row.max())[0][-1])


def _smooth_at_least(n: int) -> int:
    """The least integer >= n with no prime factor above 7."""
    while True:
        rest = n
        for f in (2, 3, 5, 7):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return n
        n += 1


def default_points(state: DensityMatrix, half_width: float) -> int:
    """Points per axis of the default grid on [-half_width, half_width].

    The grid route transforms the samples onto the dual chi grid, whose edge
    lies at pi / (2 * step).  Up to Fock level n, chi oscillates out to
    |xi| = sqrt(4 n + 2), the turning point of its Laguerre factor, and decays
    past it; the step puts the edge _CHI_DECAY beyond that for the state's
    highest significant level.  The count is odd, so the origin is a sample,
    and at least 17, since a ``WignerGrid`` needs 16.  It is then raised to
    the least odd count N whose period N - 1, the period of the grid route's
    FFT, has no prime factor above 7: a large prime factor slows the FFT two-
    to three-fold.
    """
    edge = np.sqrt(4.0 * _significant_level(state.data) + 2.0) + _CHI_DECAY
    n = max(17, int(np.ceil(4.0 * half_width * edge / np.pi)) + 1)
    return 2 * _smooth_at_least(n // 2) + 1


def default_half_width(state: DensityMatrix) -> float:
    """Half width of the default axes: the nearer of two places W has ended.

    W of a state on Fock levels up to n lies inside the outermost turning
    point of the Hermite functions, |alpha| = sqrt(n + 1/2); _W_DECAY units
    past it the vacuum's W is 1.2e-12 of its peak, and higher levels fall off
    faster.  So the axes end there for the highest significant level, or at
    +-4.3 sqrt(2 nbar + 1), where the tails of ordinary states (strongly
    squeezed and thermal ones included) fall below ``GRID_EDGE_TOL``,
    whichever is nearer.  The second bound counts displacement as spread
    (+-18.4 on a cat at alpha = 2.95, whose W has ended by +-9), so the
    turning point sets the width of displaced states; squeezed and thermal
    states, whose significant levels run far past their spread, keep the
    second.
    """
    return min(4.3 * np.sqrt(2.0 * state.mean_number() + 1.0),
               np.sqrt(_significant_level(state.data) + 0.5) + _W_DECAY)


def _hermite_functions(n: int, u: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions psi_0 .. psi_{n-1} at the points u, shape (n, u.size).

    The three-term recurrence runs on psi / g with g = pi^{-1/4} exp(-u^2 / 2)
    kept as a logarithm, and a column that grows past 1e100 is scaled back
    into g, so neither factor leaves the float range at large |u| or n.
    """
    out = np.empty((n, u.size))
    log_g = -0.5 * u * u - 0.25 * np.log(np.pi)
    g = np.exp(log_g)
    prev, cur = np.zeros(u.size), np.ones(u.size)
    for k in range(n):
        out[k] = cur * g
        prev, cur = cur, np.sqrt(2.0 / (k + 1.0)) * u * cur - np.sqrt(k / (k + 1.0)) * prev
        big = np.abs(cur) > 1e100
        if big.any():
            cur[big] *= 1e-100
            prev[big] *= 1e-100
            log_g[big] += 100.0 * np.log(10.0)
            g = np.exp(log_g)
    return out


def _sample_wigner(rho: np.ndarray, x_axis: Axis, p_axis: Axis) -> np.ndarray:
    """W on the (x, p) grid from the position representation of rho.

    In quadrature units q = sqrt2 x, W(q, p) = (1/pi) int <q+y| rho |q-y>
    e^{-2ipy} dy, and W_alpha(x, p) = 2 W(sqrt2 x, sqrt2 p).  The q-lattice
    has m points per x step and spans the state's support |q| <= S in N_u
    points; the y-sum repeats W in p with period pi m / (2 dx), so m is the
    least that keeps every copy of the support off the p axis.

    The bracket sum_k lam_k v_k(q+y) conj v_k(q-y) comes from the
    eigenpairs of the n x n block of rho that holds the state.  ``eigh`` is
    backward stable, so each eigenvalue it returns is off by up to about
    n eps max|lam|; a pair at or below that is round-off, not part of the
    state, and is dropped (``numpy.linalg.matrix_rank``'s rule).  By the same
    rule an imaginary part of the block within n eps max|rho| is round-off:
    such a block is taken as real symmetric, its eigenvectors and the
    bracket are real, and half of the work below drops out.  Each kept pair
    costs a pass over the N_x x N_y bracket, N_y = ceil(N_u / 2) offsets.
    For x step i the offsets y = j h read the lattice at m i + j and m i - j,
    a contiguous run each way, so every eigenvector is one zero-padded
    column read through sliding windows: every m-th window for q + y, the
    same windows reversed for q - y.  The padding stands for the
    lattice past the support, and the Hermite functions are evaluated only
    where some window reads.  An x step centred off the lattice reads only
    padding, so its row of W is zero and is not computed.

    A real sum over j >= 0 of Re(bracket) cos(c j p) + Im(bracket)
    sin(c j p), c = 2 sqrt2 h, maps the bracket onto the p axis as one GEMM.
    Its table e^{i c j p} is the product of two short tables, j = a J + b
    with J = ceil(sqrt N_y): N_p (N_y / J + J) complex exponentials and one
    complex multiply per entry.  The table is written in place as the
    interleaved (cos, sin) pairs that face the bracket's (re, im) pairs, so
    neither GEMM operand is copied; a real bracket meets a copy of the cos
    half alone, in a GEMM of half the size.  A real block also makes W even
    in p, so when the p axis is symmetric about 0 (start == -stop, as every
    default axis is) the table and the GEMM cover only the first
    ceil(N_p / 2) columns, and the rest are their mirror image; a complex
    block or an asymmetric axis computes every column.  Memory is
    O(N_x N_y + N_y N_p).
    """
    n = _significant_level(rho) + 1
    block = rho[:n, :n]
    resolution = n * np.finfo(float).eps
    real = np.abs(block.imag).max() <= resolution * np.abs(block).max()
    lam, vecs = np.linalg.eigh(block.real if real else block)
    keep = np.abs(lam) > resolution * np.abs(lam).max()
    lam, vecs = lam[keep], vecs[:, keep]
    support = np.sqrt(2.0 * n + 1.0) + _SUPPORT_MARGIN
    dx, ps = x_axis.step, p_axis.points
    m = max(1, int(np.ceil((np.abs(ps).max() + support / np.sqrt(2.0)) * 2.0 * dx / np.pi)))
    h = np.sqrt(2.0) * dx / m
    q0 = np.sqrt(2.0) * x_axis.start
    lo = int(np.floor((-support - q0) / h))
    nu = int(np.ceil((support - q0) / h)) - lo + 1
    ny = (nu + 1) // 2
    # x step i is centred on lattice point m i - lo; a step centred off the
    # lattice reads only zeros, so only rows i0 .. i1 - 1 of W are computed
    i0 = min(x_axis.n, max(0, -(-lo // m)))
    i1 = max(i0, min(x_axis.n, (nu - 1 + lo) // m + 1))
    if i0 == i1:
        return np.zeros((x_axis.n, ps.size))
    rows = i1 - i0
    # column t of psi is lattice point first + t (0 .. nu - 1 hold the
    # support): every offset those rows read, with zeros past the support
    first = m * i0 - lo + 1 - ny
    size = m * (rows - 1) + 2 * ny - 1
    a, b = max(0, first), min(nu, first + size)
    psi = np.zeros((lam.size, size), dtype=vecs.dtype)
    psi[:, a - first:b - first] = vecs.T @ _hermite_functions(
        n, q0 + h * np.arange(lo + a, lo + b))
    windows = np.lib.stride_tricks.sliding_window_view
    bracket = np.zeros((rows, ny), dtype=psi.dtype)
    term = np.empty_like(bracket)
    for up, down in zip(lam[:, None] * psi, psi.conj()):
        np.multiply(windows(up, ny)[ny - 1::m], windows(down, ny)[:m * rows:m, ::-1], out=term)
        bracket += term
    # <q-y|rho|q+y> is the conjugate of <q+y|rho|q-y>, so the y-sum folds
    # onto y >= 0 as twice the real part, with y = 0 counted once.  A real
    # bracket gives W(x, -p) = W(x, p), so on a p axis symmetric about 0 only
    # the first ceil(N_p / 2) columns are computed and mirrored into the rest
    mirror = real and p_axis.start == -p_axis.stop
    cols = (ps.size + 1) // 2 if mirror else ps.size
    c = 2.0 * np.sqrt(2.0) * h
    J = int(np.ceil(np.sqrt(ny)))
    coarse = np.exp(1j * c * J * np.outer(ps[:cols], np.arange(-(-ny // J))))
    fine = np.exp(1j * c * np.outer(ps[:cols], np.arange(J)))
    phase = (coarse[:, :, None] * fine[:, None, :]).reshape(cols, -1)[:, :ny]
    phase[:, 0] = 0.5
    # the GEMM writes its rows of W in place, with no copy of the result
    W = np.zeros((x_axis.n, ps.size))
    table = np.ascontiguousarray(phase.real) if real else phase.view(float)
    np.matmul(bracket.view(float), table.T, out=W[i0:i1, :cols])
    W[i0:i1, cols:] = W[i0:i1, :ps.size - cols][:, ::-1]
    W *= 4.0 * h / np.pi
    return W


def wigner_of(state: DensityMatrix, x_axis: Axis | None = None,
              p_axis: Axis | None = None, points: int | None = None) -> WignerGrid:
    """Sample the Wigner function of a dense single-mode state.

    The samples come from the position representation of the state
    (:func:`_sample_wigner`), not from :func:`wigner_points`, which stays
    the pointwise reference.  Default axes span the state's own extent
    (:func:`default_half_width`), past which its W has fallen below
    ``GRID_EDGE_TOL``, at ``points`` points per axis or, by default, at
    :func:`default_points`, which sizes the step from the state's Fock
    bandwidth.  Explicit axes override the defaults.  Emits
    warnings rather than failing, since a clipped grid is still useful to
    look at; the scoring routine re-checks the same conditions and treats
    them as errors.
    """
    if state.cutoffs.modes != 1:
        raise ValueError("wigner_of handles single-mode states")
    if x_axis is None or p_axis is None:
        hw = default_half_width(state)
        auto = Axis(-hw, hw, default_points(state, hw) if points is None else points)
        x_axis = x_axis or auto
        p_axis = p_axis or auto
    grid = WignerGrid(x_axis, p_axis, _sample_wigner(state.data, x_axis, p_axis),
                      meta={"convention": "alpha-plane"})
    dev, clip = grid.faults()
    if clip is not None:
        warnings.warn(f"Wigner grid clips the state: edge/peak = {clip:.2e}",
                      RuntimeWarning, stacklevel=2)
    if dev is not None:
        warnings.warn(f"Wigner grid norm {grid.norm():.6f} deviates from 1",
                      RuntimeWarning, stacklevel=2)
    return grid


def fringe_frequency(grid: WignerGrid) -> float:
    """Dominant oscillation frequency of W along p at the x closest to 0.

    Returned in cycles per unit p, read off a zero-padded FFT of the central
    column.  Meant for interference-fringe diagnostics, so states without an
    oscillatory cross term just report the bin of their envelope.
    """
    ix = int(np.argmin(np.abs(grid.x.points)))
    sig = grid.values[ix, :] - grid.values[ix, :].mean()
    npad = 2 * sig.size
    spectrum = np.abs(np.fft.rfft(sig, n=npad))
    k = int(np.argmax(spectrum))
    return k / (npad * grid.p.step)


# ---------------------------------------------------------------------------
# the WIGNER-GRID v1 text format

_MAGIC = "WIGNER-GRID v1"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def save_wigner(grid: WignerGrid, path) -> None:
    meta = dict(grid.meta)
    meta.setdefault("convention", "alpha-plane")
    lines = [_MAGIC,
             f"x {_fmt(grid.x.start)} {_fmt(grid.x.stop)} {grid.x.n}",
             f"p {_fmt(grid.p.start)} {_fmt(grid.p.stop)} {grid.p.n}"]
    for key, val in meta.items():
        lines.append(f"# {key}={val}")
    for row in grid.values:
        lines.append(" ".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_wigner(path, strict_normalization: bool = False) -> WignerGrid:
    """Read a WIGNER-GRID v1 file.

    An off-unit integral beyond ``GRID_NORM_TOL`` is a warning by
    default (scoring passes it along) and an error with strict_normalization.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0].strip() != _MAGIC:
        raise ValueError(f"{path}: missing '{_MAGIC}' header")

    def parse_axis(line, name):
        parts = line.split()
        if len(parts) != 4 or parts[0] != name:
            raise ValueError(f"{path}: bad axis line {line!r}")
        return Axis(float(parts[1]), float(parts[2]), int(parts[3]))

    if len(lines) < 3:
        raise ValueError(f"{path}: truncated header")
    x_axis = parse_axis(lines[1], "x")
    p_axis = parse_axis(lines[2], "p")
    meta = {}
    row_at = 3
    while row_at < len(lines) and lines[row_at].lstrip().startswith("#"):
        body = lines[row_at].lstrip()[1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
        row_at += 1
    conv = meta.get("convention")
    if conv is not None and conv != "alpha-plane":
        raise ValueError(f"{path}: unsupported convention {conv!r}")
    rows = [ln for ln in lines[row_at:] if ln.strip()]
    if len(rows) != x_axis.n:
        raise ValueError(f"{path}: expected {x_axis.n} data rows, found {len(rows)}")
    values = []
    for ln in rows:
        toks = ln.split()
        if len(toks) != p_axis.n:
            raise ValueError(f"{path}: row has {len(toks)} values, expected {p_axis.n}")
        values.append([float(t) for t in toks])
    grid = WignerGrid(x_axis, p_axis, np.array(values), meta=meta)
    dev, _ = grid.faults()
    if dev is not None:
        msg = f"{path}: Wigner integral deviates from 1 by {dev:.4f}"
        if strict_normalization:
            raise ValueError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return grid
