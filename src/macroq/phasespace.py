"""Phase-space representations: characteristic functions, Wigner grids, file I/O.

Conventions for a single mode with alpha = x + i p:

    chi(xi)  = Tr[rho D(xi)]
    W(alpha) = (2/pi) Tr[rho D(2 alpha) Pi]        (Pi is the parity operator)
    chi(xi)  = integral of W(alpha) exp(2i (x xi_i - p xi_r)) over the plane
    integral of W over the plane = 1, purity = pi * integral of W^2

so Wigner data lives on an (x, p) grid and characteristic data on the dual
(xi_r, xi_i) grid whose natural extents are pi / (2 * step).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .fock import DensityMatrix, _displaced_diagonals

_TRIM = 1e-16


# ---------------------------------------------------------------------------
# pointwise evaluation of chi and W from a dense matrix

def char_points(mat: np.ndarray, pts) -> np.ndarray:
    """Evaluate Tr[mat D(xi)] at arbitrary complex points.

    ``mat`` is any square matrix in the Fock basis (not necessarily Hermitian;
    the Wigner evaluator feeds a parity-weighted one).  The sum runs over the
    matrix diagonals, so the angular dependence is exact and the radial factors
    come from the bounded recurrence in :func:`fock._displaced_diagonals`.
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
        acc = np.zeros(r.size, dtype=complex)
        scale = float(np.abs(mat).max())
        D = mat.shape[0]
        for k in range(D):
            upper = mat.diagonal(k)
            mass = np.abs(upper) if k == 0 else np.abs(upper) + np.abs(mat.diagonal(-k))
            sig = np.nonzero(mass > _TRIM * scale)[0]
            if sig.size == 0:
                continue
            nmax = int(sig[-1]) + 1
            f = _displaced_diagonals(k, r, nmax)
            gk = f.T @ upper[:nmax]
            if k == 0:
                acc += gk
            else:
                gmk = f.T @ mat.diagonal(-k)[:nmax]
                acc += gk * np.exp(1j * k * th) + (-1.0) ** k * gmk * np.exp(-1j * k * th)
        out[nz] = acc
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
    scale = float(np.abs(rho).max())
    D = rho.shape[0]
    if nz.any():
        rs = r[nz]
        for k in range(D):
            dk = rho.diagonal(k)
            sig = np.nonzero(np.abs(dk) > _TRIM * scale)[0]
            if sig.size == 0:
                continue
            nmax = int(sig[-1]) + 1
            ck = _displaced_diagonals(k, rs, nmax).T @ dk[:nmax]
            term = np.abs(ck) ** 2
            acc[nz] += term if k == 0 else 2.0 * term
    if zero.any():
        acc[zero] = float(np.abs(rho.trace()) ** 2)
    return acc


class DenseChar:
    """Characteristic function of a dense single-mode state, callable on arrays.

    Exposes :meth:`angular_mean_sq` so the quadrature route can integrate the
    angle exactly instead of sampling it.
    """

    def __init__(self, state: DensityMatrix):
        if state.cutoffs.modes != 1:
            raise ValueError("DenseChar handles single-mode states")
        self.state = state

    def __call__(self, xi):
        return char_points(self.state.data, xi)

    def angular_mean_sq(self, r):
        return _angular_mean_sq(self.state.data, r)

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
        xs, ps = self.x.points, self.p.points
        r2 = xs[:, None] ** 2 + ps[None, :] ** 2
        return float((self.values * r2).sum() * self.cell - 0.5)

    def purity(self) -> float:
        return float(np.pi * (self.values ** 2).sum() * self.cell)


def wigner_of(state: DensityMatrix, x_axis: Axis | None = None,
              p_axis: Axis | None = None, points: int = 201,
              tol: Tolerances = DEFAULT) -> WignerGrid:
    """Sample the Wigner function of a dense single-mode state.

    Default extents scale with the occupation so that the tails of ordinary
    states (including strongly squeezed ones) fall below the boundary-leak
    tolerance; pass explicit axes to override.  Emits warnings rather than
    failing, since a clipped grid is still useful to look at; the scoring
    routine re-checks the same conditions and treats them as errors.
    """
    if x_axis is None or p_axis is None:
        hw = 4.3 * np.sqrt(2.0 * state.mean_number() + 1.0)
        auto = Axis(-hw, hw, points)
        x_axis = x_axis or auto
        p_axis = p_axis or auto
    xs, ps = x_axis.points, p_axis.points
    alphas = xs[:, None] + 1j * ps[None, :]
    vals = wigner_points(state, alphas)
    grid = WignerGrid(x_axis, p_axis, vals, meta={"convention": "alpha-plane"})
    peak = float(np.abs(vals).max())
    edge = max(np.abs(vals[0, :]).max(), np.abs(vals[-1, :]).max(),
               np.abs(vals[:, 0]).max(), np.abs(vals[:, -1]).max())
    if edge > tol.boundary_leak * peak:
        warnings.warn(f"Wigner grid clips the state: edge/peak = {edge / peak:.2e}",
                      RuntimeWarning, stacklevel=2)
    if abs(grid.norm() - 1.0) > tol.grid_normalization:
        warnings.warn(f"Wigner grid norm {grid.norm():.6f} deviates from 1",
                      RuntimeWarning, stacklevel=2)
    return grid


# ---------------------------------------------------------------------------
# transform of Wigner samples to the dual chi grid

def _char_from_arrays(xs, ps, W):
    """Dense transform of Wigner samples to the dual chi grid.

    Returns (xi_r, xi_i, chi) with chi indexed [xi_r, xi_i].
    """
    dx = xs[1] - xs[0]
    dp = ps[1] - ps[0]
    xi_r = np.linspace(-np.pi / (2 * dp), np.pi / (2 * dp), ps.size)
    xi_i = np.linspace(-np.pi / (2 * dx), np.pi / (2 * dx), xs.size)
    Ex = np.exp(2j * np.outer(xs, xi_i))
    Ep = np.exp(-2j * np.outer(ps, xi_r))
    chi = (Ex.T @ W @ Ep).T * (dx * dp)
    return xi_r, xi_i, chi


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


def load_wigner(path, strict_normalization: bool = False,
                tol: Tolerances = DEFAULT) -> WignerGrid:
    """Read a WIGNER-GRID v1 file.

    An off-unit integral beyond ``tol.grid_normalization`` is a warning by
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
    dev = abs(grid.norm() - 1.0)
    if dev > tol.grid_normalization:
        msg = f"{path}: Wigner integral deviates from 1 by {dev:.4f}"
        if strict_normalization:
            raise ValueError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=2)
    return grid
