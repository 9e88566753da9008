"""The interference measure I(rho) and its three mutually checking routes.

For a state of M modes,

    I(rho) = sum_m [ Tr(rho^2 n_m) - Tr(rho a_m rho a_m^dag) ]

which equals the phase-space form (1/2 pi^M) integral (sum_m |xi_m|^2 - M)
|chi(xi)|^2 d^2M xi and also -Tr[rho L(rho)] for the vacuum amplitude-damping
Lindbladian L.  The operator route evaluates the trace form directly; the
quadrature route integrates the characteristic function; the grid route works
from sampled Wigner data.  They share no code paths beyond the state itself,
which is what makes cross-checks between them meaningful.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np
# Nothing in macroq calls scipy.integrate.  The import stays only because the
# benchmark's import-time probe (perfbench/run.py, Runner.importtime) fails
# when `import macroq` no longer loads it; dropping both saves about 0.34 s
# of import (ROADMAP items 1 and 2).
import scipy.integrate  # noqa: F401

from . import phasespace
from .fock import (DensityMatrix, _displaced_columns, _exchange_trace,
                   _factored_exchange_trace, _ladder)

class ConvergenceError(RuntimeError):
    """Quadrature failed to meet tolerance; .partial holds the best estimate."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class MeasureResult:
    """Value of I plus the bookkeeping every route must report."""

    value: float
    route: str
    mean_n: float
    purity: float
    err_estimate: float
    warnings: tuple = field(default=())

    def as_dict(self) -> dict:
        out = {"value": self.value, "route": self.route, "mean_n": self.mean_n,
               "purity": self.purity, "err_estimate": self.err_estimate}
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


# ---------------------------------------------------------------------------
# operator route

def measure_operator(state: DensityMatrix) -> MeasureResult:
    """Evaluate I from the state's Fock-space form, by the route its form selects.

    A product state, through its factors rho = V C V^H, takes the Gram
    identities, O(modes dim r^2): with G = V^H V, sum_m Tr(rho^2 n_m) =
    Tr(C G C V^H n V) for the total number operator n, and
    Tr(a_m rho a_m^dag rho) = Tr(A C A^H C) with A = V^H a_m V
    (``factored_exchange_trace``).  Its err_estimate is zero and
    it carries no truncation warning, since a and n map the declared space
    into itself and the product form spans exactly that space.

    A dense state takes index shifts, O(modes dim^2), relying on the exactly
    Hermitian ``data`` that ``DensityMatrix`` guarantees: sum_m Tr(rho^2 n_m)
    is read as sum_j n(j) sum_i |rho_ij|^2 for the total number n, and each
    exchange term as one 2-D shift of rho by the mode's stride
    (``exchange_trace``), so rho is never transposed or copied.  Its
    err_estimate is a truncation heuristic driven by the population on the
    top level of any mode with more than one level; it is zero for states
    that genuinely fit the cutoff.
    """
    cut = state.cutoffs
    # read first: an oversized factor is refused before any dim-sized array
    factors = state.factors
    # each mode's stride, levels and weights, built once for every term below
    ladders = [_ladder(cut, m) for m in range(cut.modes)]
    number = sum(level for _, level, _ in ladders).astype(float)
    if factors is not None:
        V, C = factors
        gram = V.conj().T @ V
        value = float(np.real(np.einsum("ij,jk,kl,li->", C, gram, C,
                                        V.conj().T @ (number[:, None] * V))))
        value -= sum(_factored_exchange_trace(V, C, stride, w) for stride, _, w in ladders)
        return MeasureResult(value=value, route="operator", mean_n=state.mean_number(),
                             purity=state.purity(), err_estimate=0.0)

    rho = np.ascontiguousarray(state.data)
    flat = rho.view(np.float64)
    # (rho^2)_jj = sum_i |rho_ij|^2, the squared norm of row j for Hermitian rho
    second = np.einsum("ij,ij->i", flat, flat)
    value = float(second @ number) - sum(_exchange_trace(rho, stride, w)
                                         for stride, _, w in ladders)

    # a one-level mode is never truncated, so its only level is not a top one
    top = np.zeros(cut.dim, dtype=bool)
    for d, (_, level, _) in zip(cut.cutoffs, ladders):
        if d > 1:
            top |= level == d - 1
    p_top = float(rho.diagonal().real[top].sum())
    err = 2.0 * p_top * (number.max() + 1.0)
    warns = ()
    if p_top > 1e-8:
        warns = (f"top Fock level holds population {p_top:.3e}; "
                 "the cutoff may be truncating the state",)
    # Tr(rho N) as DensityMatrix.mean_number forms it, from the number built above
    mean = float(np.real(rho.diagonal() @ number))
    return MeasureResult(value=value, route="operator", mean_n=mean,
                         purity=state.purity(), err_estimate=err, warnings=warns)


# ---------------------------------------------------------------------------
# characteristic-function quadrature route

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_MAX_HALVINGS = 12


def _char_moments(chi) -> tuple[float, float]:
    """The (<n>, P) of a chi that meets the quadrature route's contract.

    The route reads a chi only through ``angular_mean_sq(r)``, the angular
    mean of |chi|^2 as an array of r's shape, its mean occupation
    ``mean_n``, which must be finite, and its ``purity``, which must be
    finite and positive.  Raises ValueError naming the first of these that
    is missing or bad.
    """
    kind = type(chi).__name__
    if not callable(getattr(chi, "angular_mean_sq", None)):
        raise ValueError(f"the char-quadrature route needs a chi with an angular_mean_sq(r) "
                         f"method, which a {kind} lacks")
    moments = []
    for name in ("mean_n", "purity"):
        try:
            value = float(getattr(chi, name))
        except (AttributeError, TypeError, ValueError):
            raise ValueError(f"the char-quadrature route needs a chi with a real {name}, "
                             f"which a {kind} lacks") from None
        if not np.isfinite(value) or (name == "purity" and value <= 0.0):
            need = "finite and positive" if name == "purity" else "finite"
            raise ValueError(f"the {name} of a chi must be {need}, not {value!r}")
        moments.append(value)
    return moments[0], moments[1]


def _probe_radial_cut(s, mean_n: float, purity: float) -> tuple[float, tuple]:
    """Walk outward in unit steps until the integrand weight is negligible.

    The walk stops at the first radius where r^3 s(r) < 1e-15 and s is not
    rising, and returns two units past it.  It starts at max(2, 2 sqrt(<n>))
    for the state's mean occupation <n>: a superposition of branches at
    +-beta has interference wings at |xi| = 2 |beta| and <n> >= |beta|^2
    tanh |beta|^2, so once the branches are split far enough to leave a gap
    between the centre and the wings, the walk starts within a few per cent
    of the wings or past them, and never stops in that gap.  It is capped
    30 / sqrt(P) past its start, for the state's purity P: a chi broadened
    V-fold, as the thermal superposition is, has wings about sqrt(V) wide
    and a purity of about 1 / V.  The steps widen past unit length where
    needed to keep the walk to 3000 radii, so its arrays stay at tens of
    kilobytes; up to a purity of 1e-4 they are unit steps.
    """
    start = max(2.0, 2.0 * np.sqrt(max(mean_n, 0.0)))
    cap = start + 30.0 / np.sqrt(min(purity, 1.0))
    radii = np.arange(start, cap, max(1.0, (cap - start) / 3000.0))
    prev = np.inf
    for r, cur in zip(radii, s(radii)):
        if cur * r ** 3 < 1e-15 and cur <= prev:
            return float(min(r + 2.0, cap)), ()
        prev = cur
    return float(cap), (f"radial cut capped at {cap:g} with the integrand still significant",)


def _tail_estimates(s, R: float) -> tuple[float, float]:
    """Gaussian-decay extrapolation of the neglected r > R contribution.

    Returns (tail of the I integrand, tail of the purity integrand); infinite
    when s(r) is not decaying at R, which callers turn into a convergence
    failure rather than a silent truncation.
    """
    r1 = R - min(0.5, 0.05 * R)
    s1, sR = s(np.array([r1, R]))
    if sR < 1e-300:
        return 0.0, 0.0
    if not s1 > sR:
        return np.inf, np.inf
    kappa = np.log(s1 / sR) / (R * R - r1 * r1)
    tail_i = 0.5 * sR * (1.0 / kappa ** 2 + (R * R - 1.0) / kappa)
    tail_p = 0.5 * sR / kappa
    # the I-integrand is signed below r = 1, so only the magnitude is a bound
    return abs(float(tail_i)), float(tail_p)


def _default_breakpoints(R: float) -> list[float]:
    pts = {0.05, 0.2, 1.0, 3.0, 0.1 * R, 0.3 * R}
    return sorted(p for p in pts if 0.0 < p < R)


def _panel_quadrature(s, edges) -> tuple[np.ndarray, float, int]:
    """Integrate (r^2 - 1) s(r) r and s(r) r over the panels between ``edges``.

    Each panel's 20-point Gauss-Legendre sum is compared with the sum over its
    two halves; a panel whose two sums differ, for either integrand, by more
    than its width's share of max(1e-13, 1e-10 |total|) is halved, at most
    _MAX_HALVINGS times.  Each level evaluates s once, at the nodes of all
    its open panels.  Returns the (I, P) integrals, the error estimate of the
    I integral and how many panels were still open when the budget ran out.
    A panel's error is its |coarse - fine| difference, floored as in QUADPACK
    at 50 eps times the integral of the integrand's magnitude, which bounds
    the rounding.  A level whose integrand is not finite at some radius
    ends the integration, since halving would only multiply such radii: it
    returns NaN integrals with an infinite error and no open panels.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    width = b[-1] - a[0]
    value = np.zeros(2)
    err = 0.0
    for level in range(_MAX_HALVINGS + 1):
        mid = 0.5 * (a + b)
        lo, hi = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
        half = 0.5 * (hi - lo)
        r = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
        f = s(r) * r
        g = (r * r - 1.0) * f
        if not np.isfinite(g).all():
            return np.full(2, np.nan), np.inf, 0
        # rows I, P, integral of |I integrand|; columns: each panel, then its
        # left and right halves
        coarse, left, right = np.split(
            np.stack([g @ _GL_WEIGHTS, f @ _GL_WEIGHTS, np.abs(g) @ _GL_WEIGHTS]) * half,
            3, axis=1)
        fine = left[:2] + right[:2]
        diff = np.abs(fine - coarse[:2])
        total = value + fine.sum(axis=1)
        tol = np.maximum(1e-13, 1e-10 * np.abs(total))[:, None] * (b - a) / width
        ok = (diff <= tol).all(axis=0)
        done = ok | (level == _MAX_HALVINGS)
        rounding = 50.0 * np.finfo(float).eps * (left[2] + right[2])
        value += fine[:, done].sum(axis=1)
        err += np.maximum(diff[0], rounding)[done].sum()
        if done.all():
            return value, err, int((~ok).sum())
        a, mid, b = a[~done], mid[~done], b[~done]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])


def _gauss_laguerre(n: int, with_tensor: bool):
    """Nodes, scaled weights and node tensor of the n-point Gauss-Laguerre rule.

    sum_i w_i e^{u_i} f(u_i) e^{-u_i} equals the integral of f(u) e^{-u} over
    u >= 0 for every polynomial f of degree below 2n.  The nodes are the
    eigenvalues of the Jacobi matrix of the Laguerre recurrence (diagonal
    2k + 1, off-diagonal k), polished by one Newton step on L_n, and the
    weights are Christoffel numbers (Golub and Welsch, Math. Comp. 23, 221
    (1969)), w_i e^{u_i} = 1 / sum_{k<n} l_k(u_i)^2.  The Laguerre functions
    l_k = L_k e^{-u/2} = <k|D(sqrt u)|k> come from the bounded recurrence of
    ``fock._displaced_columns`` on its main diagonal, and L_n' = n (L_n -
    L_{n-1}) / u makes the step a ratio of them.  Unlike
    ``numpy.polynomial.laguerre.laggauss``, whose unscaled weights underflow
    to NaN from about n = 200 on, nothing here leaves the float range.

    With ``with_tensor`` the recurrence at the polished nodes runs over all
    n diagonals at once, and its result is kept as the node tensor
    T[k, m, i] = <m+k|D(sqrt u_i)|m>, zero where m + k >= n (None without);
    the weights come from its row k = 0.  Rows are independent in the
    recurrence, so the nodes and weights are the same either way.
    """
    def newton_step(u):
        # L_n / L_n' from the main diagonal up to level n
        for k, f in _displaced_columns(np.sqrt(u), [0], [n + 1]):
            if k == n:
                return u * f[0] / (n * (f[0] - prev))
            prev = f[0].copy()

    off = np.arange(1.0, n)
    jacobi = np.diag(2.0 * np.arange(n) + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    u = np.linalg.eigvalsh(jacobi)
    u -= newton_step(u)
    k = np.arange(n if with_tensor else 1)
    tensor = np.zeros((n, n, n)) if with_tensor else None
    total = np.zeros(n)
    for m, f in _displaced_columns(np.sqrt(u), k, n - k):
        total += f[0] ** 2
        if with_tensor:
            tensor[:f.shape[0], m] = f
    scaled = 1.0 / total
    u.flags.writeable = scaled.flags.writeable = False
    return u, scaled, tensor


@functools.lru_cache(maxsize=None)
def _laguerre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u_i and scaled weights w_i e^{u_i} of the n-point rule (:func:`_gauss_laguerre`).

    Cached for every n, since it holds only 2n floats; the rule with its
    node tensor is :func:`_node_rule`.
    """
    return _gauss_laguerre(n, False)[:2]


# most bytes one entry of the node-rule cache may hold; with its 8 slots the
# cache holds at most 8 MiB, which fits every rule up to n = 50
_NODE_RULE_BYTES = 1 << 20


def _node_rule_fits(n: int) -> bool:
    """Whether the n-point rule with its n x n x n node tensor fits one cache slot."""
    return 8 * n * (n * n + 2) <= _NODE_RULE_BYTES


@functools.lru_cache(maxsize=8)
def _node_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point rule and its node tensor over all n diagonals, from one run.

    The tensor depends only on n, so the exact radial rule builds it once
    per n and then spends one contraction per call.  Only rules that
    :func:`_node_rule_fits` enter the cache; larger n raise ValueError.
    """
    if not _node_rule_fits(n):
        raise ValueError(f"the {n}-node tensor exceeds {_NODE_RULE_BYTES} bytes")
    u, scaled, tensor = _gauss_laguerre(n, True)
    tensor.flags.writeable = False
    return u, scaled, tensor


def measure_char_quadrature(chi, radial_cut: float | None = None,
                            tol: float = 1e-8) -> MeasureResult:
    """Integrate (|xi|^2 - 1)|chi|^2 / (2 pi) over the plane of one mode.

    ``chi`` is a single-mode characteristic function, read only through
    |chi|^2.  It must have ``angular_mean_sq(r)``, the mean of |chi|^2 over
    the circle of each radius r as an array of r's shape, a finite
    ``mean_n`` and a finite, positive ``purity``, as every chi the package
    builds does (``DenseChar``, ``GaussianChar``, ``ThermalSCSChar``).  The
    route checks this at entry and raises ValueError naming what is missing
    or bad; a bare callable is wrapped in a class with the three
    attributes.  The radius takes one of two paths.

    A ``chi`` that also exposes ``levels``, the Fock levels its state
    occupies (``DenseChar``), takes the exact rule when no ``radial_cut`` is
    given: on D levels the angular mean of |chi|^2 is e^{-u} times a
    polynomial of degree at most 2(D - 1) in u = r^2, so the D-node
    Gauss-Laguerre rule (:func:`_laguerre_rule`) gives both the I and the
    purity integral exactly, from one evaluation of the integrand at D
    radii, with no cut, panels or tail.  Its err_estimate is the purity
    closure |P_quad - P| plus the rounding bound 50 eps times the sum of
    the |terms| of I.  A ``DenseChar`` whose rule fits the node-rule cache
    (D <= 50, :func:`_node_rule_fits`) reads those D values off the cached
    node tensor T[k, n, j] = <n+k|D(sqrt u_j)|n> as one contraction with
    the diagonals of its matrix (``phasespace._angular_mean_sq_at_nodes``);
    any other such ``chi``, and a larger D, calls ``angular_mean_sq`` at
    the nodes, which reruns the displacement recurrence.

    Any other ``chi`` (``GaussianChar``, ``ThermalSCSChar``), and any call
    with ``radial_cut``, runs on adaptive panels (:func:`_panel_quadrature`)
    up to the cut; without one the integrand is probed for it
    (:func:`_probe_radial_cut`, from r = 2 sqrt(<n>)), and a Gaussian tail
    estimate joins the error.  The panels' purity integral closes against
    ``purity`` too, so weight the cut misses shows in err_estimate.

    Purity and occupation are those ``chi`` carries.  Raises
    ConvergenceError, with the partial result attached, when the error
    budget lands above 50 * tol or the integrand is not finite.
    """
    mean, purity = _char_moments(chi)
    s = chi.angular_mean_sq
    levels = getattr(chi, "levels", None)
    warns = []
    if levels is not None and radial_cut is None:
        D = int(levels)
        if isinstance(chi, phasespace.DenseChar) and _node_rule_fits(D):
            u, scaled, tensor = _node_rule(D)
            vals = scaled * phasespace._angular_mean_sq_at_nodes(chi.state.data, tensor)
        else:
            u, scaled = _laguerre_rule(D)
            vals = scaled * s(np.sqrt(u))
        terms = 0.5 * (u - 1.0) * vals
        value, quad_p = float(terms.sum()), float(vals.sum())
        err = 50.0 * np.finfo(float).eps * float(np.abs(terms).sum())
        hint = f"the {D}-node rule does not close the state's purity"
    else:
        if radial_cut is None:
            R, capped = _probe_radial_cut(s, mean, purity)
            warns.extend(capped)
        else:
            R = float(radial_cut)
        (value, val_p), err, open_panels = _panel_quadrature(
            s, [0.0, *_default_breakpoints(R), R])
        if open_panels:
            warns.append(f"radial quadrature left {open_panels} panel(s) unconverged "
                         f"after {_MAX_HALVINGS} halvings")
        tail_i, tail_p = _tail_estimates(s, R)
        err += tail_i
        quad_p = 2.0 * (val_p + tail_p if np.isfinite(tail_p) else val_p)
        hint = ("the radial integrand is not finite" if not np.isfinite(value)
                else "the radial cut is likely too small for this state")
    err += abs(quad_p - purity)  # the purity closure

    result = MeasureResult(value=float(value), route="char-quadrature", mean_n=mean,
                           purity=purity, err_estimate=float(err), warnings=tuple(warns))
    if not np.isfinite(err) or err > 50.0 * tol:
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds 50 * tol = {50 * tol:.1e}; {hint}",
            partial=result)
    return result


# ---------------------------------------------------------------------------
# Wigner-grid route

# the outer fraction of the dual grid's half width whose |chi|^2 mass, taken
# twice, is the grid route's error bar
_BAND = 0.1
# pointwise error of the sampled W relative to its peak, the bound the
# sampler is tested to against the gather reference and the pointwise oracle
_SAMPLE_ERR = 1e-13


def _power_score(xs, ps, W) -> tuple[float, float, float]:
    """Sum (|xi|^2 - 1) |chi|^2 cell / (2 pi) over the dual chi grid of W,
    with the same sum of (|xi|^2 + 1) |chi|^2 over the grid's outer band and
    over the whole grid.

    chi(xi) = dx dp sum_jk W(x_j, p_k) e^{2i (x_j xi_i - p_k xi_r)} on the
    grid whose axes span +-pi / (2 step) in as many points as the sample
    axes.  Its spacing pi / ((N - 1) step) turns the kernel into
    (-1)^j e^{+-2 pi i j a / (N - 1)} times a phase of unit modulus: a DFT of
    period N - 1, in which sample N - 1 is sample 0 again.  So |chi|^2 is
    (dx dp)^2 G, G the power spectrum of one real 2-D FFT of the sign-
    alternated, folded samples, and no phase or complex chi is formed.

    ``rfft2`` gives the half = (N_p - 1) // 2 + 1 p frequencies r, the rows
    up to xi_r = 0; the rows past it mirror rows r <= N_p - 1 - half, since
    |chi(-xi)| = |chi(xi)|, so those count twice (m_r = 2).  Along x the dual
    column a reads frequency -a mod (N_x - 1), so both edge columns read
    frequency 0: it counts twice (c_0 = 2) with weight
    w_0 = xi_i[0]^2 + xi_i[-1]^2, and frequency k > 0 once (c_k = 1) with
    weight w_k = xi_i[-k]^2.  The score is then two vector-matrix products
    over G, sum_r m_r [(xi_r^2 - 1) sum_k c_k G[k, r] + sum_k w_k G[k, r]].

    The band is every dual point whose row or column lies more than
    1 - _BAND of its axis' half width from the centre, counted in steps, so
    that mirror images fall on the same side of it.  A row in it counts
    whole; any other row counts its band columns only, through c_k and w_k
    zeroed on the inner columns: two more rows of the same vector-matrix
    product.  Both extra sums weigh |chi|^2 by |xi|^2 + 1, which bounds
    |(|xi|^2 - 1)| |chi|^2.

    Each step is the axis span over N - 1, not x[1] - x[0]: the FFT puts the
    samples on the exact lattice, and the rounding of a single difference
    would skew the dual grid against it.  Cost O(N^2 log N); the only N x N
    arrays are the folded period and the spectrum, squared in place.
    """
    nx, n_p = xs.size, ps.size
    lx, lp = nx - 1, n_p - 1
    dx = (xs[-1] - xs[0]) / lx
    dp = (ps[-1] - ps[0]) / lp
    xi_r = np.linspace(-np.pi / (2 * dp), np.pi / (2 * dp), n_p)
    xi_i = np.linspace(-np.pi / (2 * dx), np.pi / (2 * dx), nx)
    # the dual edge at -pi / (2 step) alternates the sign of the samples:
    # fold row and column N - 1 onto 0 with their parity, then negate the
    # odd rows and columns
    sx, sp = (-1.0) ** lx, (-1.0) ** lp
    period = W[:lx, :lp].copy()
    period[0] += sx * W[lx, :lp]
    period[:, 0] += sp * W[:lx, lp]
    period[0, 0] += sx * sp * W[lx, lp]
    period[1::2] *= -1.0
    period[:, 1::2] *= -1.0
    power = np.fft.rfft2(period).view(float)
    power *= power
    # rows: c_k and w_k over all columns, then over the band's columns only;
    # frequency k > 0 is column lx - k, lx - 2k steps from the centre
    k = np.arange(lx)
    weights = np.empty((4, lx))
    weights[0] = 1.0
    weights[0, 0] = 2.0
    weights[1] = xi_i[-k % lx] ** 2
    weights[1, 0] += xi_i[lx] ** 2
    weights[2:] = weights[:2] * (np.abs(lx - 2 * k) > (1.0 - _BAND) * lx)
    # each row of sums holds (re^2, im^2) pairs, one per p frequency
    sums = weights @ power
    const, quad, band_const, band_quad = sums[:, 0::2] + sums[:, 1::2]
    half = lp // 2 + 1
    mult = np.full(half, 2.0)
    mult[n_p - half:] = 1.0
    r2 = xi_r[:half] ** 2
    outer = np.abs(lp - 2 * np.arange(half)) > (1.0 - _BAND) * lp
    whole = (r2 + 1.0) * const + quad
    band = np.where(outer, whole, (r2 + 1.0) * band_const + band_quad)
    scale = (dx * dp) ** 2 * (xi_r[1] - xi_r[0]) * (xi_i[1] - xi_i[0]) / (2.0 * np.pi)
    return (float(mult @ ((r2 - 1.0) * const + quad) * scale),
            float(mult @ band * scale), float(mult @ whole * scale))


def measure_wigner_grid(grid: phasespace.WignerGrid) -> MeasureResult:
    """Evaluate I from Wigner samples through the power spectrum of their chi.

    The paper's form reads only |chi|^2, so the score (:func:`_power_score`)
    is two vector-matrix products over the power spectrum of one real 2-D
    FFT of period N - 1 along each axis, with the step taken from the axis
    span so the dual grid sits on the FFT's exact lattice; chi itself is
    never formed.  It is spectrally accurate for states the grid actually
    contains, hence the hard checks on normalization and boundary leak
    (``WignerGrid.faults``).

    err_estimate answers for the grid, not for a truncation of the state
    behind it.  The samples resolve chi only inside the dual grid's edge;
    chi past it is missing from the sum and also folded back into it, at
    the opposite edge.  The mass sum (|xi|^2 + 1) |chi|^2 cell / (2 pi) over
    the outer _BAND of the dual grid stands for the mass past the edge, so
    err_estimate is twice that band mass, plus a rounding floor: each term
    of the score is a square of chi, which carries the samples' error of
    _SAMPLE_ERR of the peak, so the floor is 2 _SAMPLE_ERR times the same
    mass over the whole grid.  A wider band reaches back into chi's bulk on
    states with many levels and reads orders of magnitude above the error
    of a converged grid; a narrower one reads below the error of grids too
    coarse to resolve chi.
    """
    dev, clip = grid.faults()
    if dev is not None:
        raise ValueError(f"Wigner grid integral deviates from 1 by {dev:.4f}")
    if clip is not None:
        raise ValueError(f"state is not contained in the grid: edge/peak = {clip:.2e}")
    value, band, whole = _power_score(grid.x.points, grid.p.points, grid.values)
    return MeasureResult(value=value, route="wigner-grid", mean_n=grid.mean_number(),
                         purity=grid.purity(), err_estimate=2.0 * (band + _SAMPLE_ERR * whole))


# ---------------------------------------------------------------------------
# dispatcher

def measure(state, route: str | None = None) -> MeasureResult:
    """Evaluate I by the named route, or by the one the state's form implies.

    ``measure()`` answers for the untruncated state: a ``DensityMatrix``
    whose ``tail`` is set (the catalog's Fock, coherent, even-cat and
    squeezed states) has that bound on its truncation added to the
    err_estimate of the operator, char-quadrature and wigner-grid routes.
    The route functions answer for the matrix they are given and add none.

    A ``catalog.Named`` state takes its entry's route by default.  Its
    ``closed-form`` and analytic-chi ``char-quadrature`` ignore the cutoff
    and build no Fock state; any other route measures the built state.

    Without a route, a ``DensityMatrix`` in product form (one with ``kets``)
    takes ``low-rank``, any other ``DensityMatrix`` takes ``operator`` and
    any other object, taken to be a characteristic function
    (``GaussianChar``, ``ThermalSCSChar``, ``DenseChar``), takes
    ``char-quadrature``, which raises ValueError for one that does not meet
    its contract (:func:`measure_char_quadrature`).  ``char-quadrature``
    wraps a ``DensityMatrix`` with ``char_of``, so the route takes its exact
    radial rule; callers that need their own cut or grid call the route
    functions directly.  A state that lacks the form a route needs, and an
    unknown route, raise ValueError.
    """
    from .catalog import STATES, Named  # catalog and lowrank import this module
    from .lowrank import measure_lowrank

    routes = ("operator", "char-quadrature", "wigner-grid", "low-rank", "closed-form")
    if route is not None and route not in routes:
        raise ValueError(f"unknown route {route!r}; routes are {', '.join(routes)}")
    if isinstance(state, Named):
        entry = STATES[state.name]
        route = route or entry.route
        if route == "closed-form":
            if entry.closed is None:
                raise ValueError(f"the closed-form route needs a closed form, "
                                 f"which state {state.name} lacks")
            return entry.closed(*state.params)
        use_char = route == "char-quadrature" and entry.char is not None
        state = entry.char(*state.params) if use_char else state.build()
    dense = isinstance(state, DensityMatrix)
    product = dense and state.kets is not None
    modes = getattr(state, "modes", 1)  # a characteristic function has one
    if route is None:
        route = "low-rank" if product else "operator" if dense else "char-quadrature"
    # whether the state has the form each route needs, and that form's name
    needs = {"operator": (dense, "a Fock-space form"),
             "char-quadrature": (modes == 1, "a single-mode form"),
             "wigner-grid": (dense and modes == 1, "a single-mode Fock-space form"),
             "low-rank": (product, "a product form"),
             "closed-form": (False, "a named catalog state")}
    fits, form = needs[route]
    if not fits:
        shape = f" of {modes} modes" if modes > 1 else ""
        raise ValueError(f"the {route} route needs {form}, "
                         f"not a {type(state).__name__}{shape}")
    if route == "low-rank":
        return measure_lowrank(state)
    if route == "operator":
        result = measure_operator(state)
    elif route == "wigner-grid":
        result = measure_wigner_grid(phasespace.wigner_of(state))
    else:
        result = measure_char_quadrature(phasespace.char_of(state) if dense else state)
    if dense and state.tail:
        result = dataclasses.replace(result, err_estimate=result.err_estimate + state.tail)
    return result
