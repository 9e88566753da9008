"""Reference states and the closed-form values of I they admit.

Dense constructors return :class:`fock.DensityMatrix`; many-mode entangled
families return :class:`lowrank.ProductRankState`.  The closed-form helpers
return full :class:`measure.MeasureResult` records so they slot into the same
comparisons as the numeric routes.

Constructors check the requested cutoff against the analytic norm of the
state: a tail above ``Tolerances.displacement_leak`` draws a warning, and a
tail above 1e-2 (a state that plainly does not fit) raises.  The warning
rather than an error matters: deliberately truncated states are legitimate
objects of study here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, i0e

from .config import DEFAULT
from .fock import DensityMatrix, ModeCutoffs, TruncationLeakError, suggest_cutoff
from .lowrank import ProductRankState
from .measure import MeasureResult

_HARD_LEAK = 1e-2


def _leak_gate(leak: float, context: str) -> None:
    if leak > _HARD_LEAK:
        raise TruncationLeakError(
            f"{context}: cutoff misses {leak:.3e} of the norm; increase it")
    if leak > DEFAULT.displacement_leak:
        warnings.warn(f"{context}: cutoff misses {leak:.3e} of the norm",
                      RuntimeWarning, stacklevel=3)


def _pure(amp: np.ndarray) -> DensityMatrix:
    """Single-mode projector |amp><amp| of a normalized amplitude vector."""
    return DensityMatrix(ModeCutoffs((amp.size,)), np.outer(amp, amp.conj()))


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent-state vector, evaluated in the log domain."""
    alpha = complex(alpha)
    n = np.arange(cutoff)
    if alpha == 0:
        out = np.zeros(cutoff, dtype=complex)
        out[0] = 1.0
        return out
    logmag = -0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
    return np.exp(logmag) * np.exp(1j * np.angle(alpha) * n)


# ---------------------------------------------------------------------------
# dense single-mode states

def make_fock(n: int, cutoff: int | None = None) -> DensityMatrix:
    n = int(n)
    if n < 0:
        raise ValueError("Fock index must be nonnegative")
    cutoff = int(cutoff) if cutoff is not None else n + 2
    if cutoff <= n:
        raise TruncationLeakError(f"Fock state |{n}> needs a cutoff above {n}")
    amp = np.zeros(cutoff, dtype=complex)
    amp[n] = 1.0
    return _pure(amp)


def make_coherent(alpha: complex, cutoff: int | None = None) -> DensityMatrix:
    cutoff = int(cutoff) if cutoff is not None else suggest_cutoff(abs(alpha) ** 2)
    amp = _coherent_amplitudes(alpha, cutoff)
    norm2 = float(np.sum(np.abs(amp) ** 2))
    _leak_gate(1.0 - norm2, f"coherent alpha={alpha}")
    return _pure(amp / np.sqrt(norm2))


def make_scs(alpha: complex, cutoff: int | None = None) -> DensityMatrix:
    """Even superposition of |alpha> and |-alpha>."""
    cutoff = int(cutoff) if cutoff is not None else suggest_cutoff(abs(alpha) ** 2)
    amp = _coherent_amplitudes(alpha, cutoff) + _coherent_amplitudes(-alpha, cutoff)
    norm2 = float(np.sum(np.abs(amp) ** 2))
    full = 2.0 * (1.0 + np.exp(-2.0 * abs(alpha) ** 2))
    _leak_gate(1.0 - norm2 / full, f"superposition alpha={alpha}")
    return _pure(amp / np.sqrt(norm2))


def make_mixture_scs(alpha: complex, cutoff: int | None = None) -> DensityMatrix:
    """Classical fifty-fifty mixture of |alpha> and |-alpha>."""
    cutoff = int(cutoff) if cutoff is not None else suggest_cutoff(abs(alpha) ** 2)
    vp = _coherent_amplitudes(alpha, cutoff)
    vm = _coherent_amplitudes(-alpha, cutoff)
    _leak_gate(1.0 - float(np.sum(np.abs(vp) ** 2)), f"mixture alpha={alpha}")
    rho = 0.5 * (np.outer(vp, vp.conj()) + np.outer(vm, vm.conj()))
    return DensityMatrix(ModeCutoffs((cutoff,)), rho)


def make_decohered_scs(alpha: float, tau: float, cutoff: int | None = None) -> DensityMatrix:
    """Superposition state after amplitude damping for a dimensionless time tau.

    The branch amplitudes shrink to e^{-tau/2} alpha while the off-diagonal
    blocks pick up the coherence factor Gamma = exp(-2 (1 - e^{-tau}) alpha^2).
    """
    alpha, tau = float(alpha), float(tau)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    cutoff = int(cutoff) if cutoff is not None else suggest_cutoff(alpha ** 2)
    t = np.exp(-0.5 * tau)
    gamma = np.exp(-2.0 * (1.0 - np.exp(-tau)) * alpha ** 2)
    vp = _coherent_amplitudes(t * alpha, cutoff)
    vm = _coherent_amplitudes(-t * alpha, cutoff)
    _leak_gate(1.0 - float(np.sum(np.abs(vp) ** 2)), f"damped superposition alpha={alpha}")
    rho = (np.outer(vp, vp.conj()) + np.outer(vm, vm.conj())
           + gamma * (np.outer(vp, vm.conj()) + np.outer(vm, vp.conj())))
    return DensityMatrix(ModeCutoffs((cutoff,)), rho)


def make_thermal(nbar: float, cutoff: int | None = None) -> DensityMatrix:
    nbar = float(nbar)
    if nbar < 0:
        raise ValueError("mean occupation must be nonnegative")
    cutoff = int(cutoff) if cutoff is not None else suggest_cutoff(nbar)
    if nbar == 0.0:
        return make_fock(0, cutoff)
    q = nbar / (1.0 + nbar)
    _leak_gate(q ** cutoff, f"thermal nbar={nbar}")
    p = (1.0 - q) * q ** np.arange(cutoff)
    return DensityMatrix(ModeCutoffs((cutoff,)), np.diag(p).astype(complex))


def _squeezed_amplitudes(s: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Even-number amplitudes of the squeezed vacuum and their truncated norm."""
    m = np.arange((cutoff + 1) // 2)
    logmag = (0.5 * gammaln(2 * m + 1.0) - m * np.log(2.0) - gammaln(m + 1.0)
              + m * np.log(np.tanh(abs(s))) - 0.5 * np.log(np.cosh(s)))
    vals = np.exp(logmag) * (-np.sign(s)) ** m
    amp = np.zeros(cutoff, dtype=complex)
    amp[2 * m] = vals
    return amp, float(np.sum(vals ** 2))


def make_squeezed(s: float, cutoff: int | None = None) -> DensityMatrix:
    """Squeezed vacuum with quadrature variances e^{-2s}/4 and e^{2s}/4.

    With no explicit cutoff the dimension grows until the analytic tail drops
    below 1e-8; the number distribution decays only geometrically, so the
    generic occupation heuristic underestimates badly here.
    """
    s = float(s)
    if s == 0.0:
        return make_fock(0, cutoff if cutoff is not None else 4)
    if cutoff is None:
        cutoff = max(suggest_cutoff(np.sinh(s) ** 2), 16)
        while cutoff < 4096:
            _, norm2 = _squeezed_amplitudes(s, cutoff)
            if 1.0 - norm2 < 1e-8:
                break
            cutoff *= 2
    amp, norm2 = _squeezed_amplitudes(s, int(cutoff))
    _leak_gate(1.0 - norm2, f"squeezed s={s}")
    return _pure(amp / np.sqrt(norm2))


def make_maximally_mixed(dim: int) -> DensityMatrix:
    dim = int(dim)
    return DensityMatrix(ModeCutoffs((dim,)), np.eye(dim, dtype=complex) / dim)


def make_thermal_scs(V: float, d: float, cutoff: int | None = None,
                     grid_points: int = 81, span: float = 5.0) -> DensityMatrix:
    """Gaussian ensemble of superposition states: dense reference construction.

    Branch centers beta are drawn from a width-(V-1) Gaussian around d, each
    contributing the even superposition of |beta> and |-beta>.  V = 1 recovers
    the pure state.  This is a brute-force integration meant for
    cross-validation at moderate V and d, not production use; the analytic
    characteristic function in :class:`ThermalSCSChar` is the fast path.
    """
    V, d = float(V), float(d)
    if V < 1.0:
        raise ValueError("V must be at least 1")
    lam = V - 1.0
    half = span * np.sqrt(lam / 2.0)
    if cutoff is None:
        # cover the farthest ensemble member, not just the mean occupation
        cutoff = suggest_cutoff((abs(d) + half) ** 2 + half ** 2)
    if V == 1.0:
        return make_scs(d, cutoff)
    xs = np.linspace(d - half, d + half, grid_points)
    ys = np.linspace(-half, half, grid_points)
    betas = (xs[:, None] + 1j * ys[None, :]).ravel()
    w = np.exp(-2.0 * np.abs(betas - d) ** 2 / lam)
    n = np.arange(cutoff)
    logc = (-0.5 * np.abs(betas)[:, None] ** 2
            + n[None, :] * np.log(np.abs(betas))[:, None]
            - 0.5 * gammaln(n + 1.0)[None, :])
    phases = np.exp(1j * np.angle(betas)[:, None] * n[None, :])
    cp = np.exp(logc) * phases
    cm = cp * (-1.0) ** n[None, :]
    vecs = cp + cm
    rho = (vecs * w[:, None]).T @ vecs.conj()
    state = DensityMatrix(ModeCutoffs((int(cutoff),)), rho)
    top = float(state.data[-1, -1].real)
    if top > 1e-8:
        warnings.warn(f"thermal superposition V={V} d={d}: top-level population "
                      f"{top:.3e}, cutoff may be low", RuntimeWarning, stacklevel=2)
    return state


# ---------------------------------------------------------------------------
# many-mode low-rank states

def make_ghz(n_modes: int) -> ProductRankState:
    """(|0...0> + |1...1>) / sqrt(2) over n_modes two-level modes."""
    n_modes = int(n_modes)
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    return ProductRankState.superposition([[e0] * n_modes, [e1] * n_modes])


def make_noon(n: int) -> ProductRankState:
    """(|n, 0> + |0, n>) / sqrt(2) on two modes."""
    n = int(n)
    if n < 1:
        raise ValueError("photon number must be positive")
    top = np.zeros(n + 1)
    top[n] = 1.0
    bottom = np.zeros(n + 1)
    bottom[0] = 1.0
    return ProductRankState.superposition([[top, bottom], [bottom, top]])


def make_dur(n_modes: int, epsilon: float) -> ProductRankState:
    """Superposition of two nearly parallel product branches.

    Each branch is a product of qubit kets cos(eps/2)|0> +- sin(eps/2)|1>, so
    the single-mode branch overlap is cos(eps).
    """
    n_modes = int(n_modes)
    th = 0.5 * float(epsilon)
    u = np.array([np.cos(th), np.sin(th)])
    v = np.array([np.cos(th), -np.sin(th)])
    return ProductRankState.superposition([[u] * n_modes, [v] * n_modes])


def dur_exact(n_modes: int, epsilon: float) -> float:
    """I of the branch-superposition state, from the 2 x 2 Gram algebra.

    The mode averages of a vanish by symmetry, so I equals the total
    occupation of the normalized superposition.
    """
    N = int(n_modes)
    th = 0.5 * float(epsilon)
    c = np.cos(float(epsilon))
    return N * np.sin(th) ** 2 * (1.0 - c ** (N - 1)) / (1.0 + c ** N)


def dur_asymptotic(n_modes: int, epsilon: float) -> float:
    """Large-N, small-epsilon limit of :func:`dur_exact`."""
    return int(n_modes) * float(epsilon) ** 2 / 4.0


def dur_measure(n_modes: int, epsilon: float) -> MeasureResult:
    value = dur_exact(n_modes, epsilon)
    return MeasureResult(value=value, route="closed-form", mean_n=value,
                         purity=1.0, err_estimate=0.0)


# ---------------------------------------------------------------------------
# Gaussian states in closed form

@dataclass(frozen=True)
class GaussianChar:
    """chi(xi) = exp(-(A xi_r^2 + B xi_i^2) / 2); A = B = 1 is the vacuum."""

    A: float
    B: float

    def __post_init__(self):
        if self.A <= 0 or self.B <= 0:
            raise ValueError("Gaussian parameters must be positive")
        if self.A * self.B < 1.0 - 1e-12:
            raise ValueError(f"A*B = {self.A * self.B!r} violates the uncertainty bound")

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=complex)
        return np.exp(-0.5 * (self.A * xi.real ** 2 + self.B * xi.imag ** 2))

    def angular_mean_sq(self, r):
        r = np.asarray(r, dtype=float)
        z = 0.5 * abs(self.A - self.B) * r ** 2
        return i0e(z) * np.exp(-min(self.A, self.B) * r ** 2)

    @property
    def mean_n(self) -> float:
        return (self.A + self.B - 2.0) / 4.0

    @property
    def purity(self) -> float:
        return 1.0 / np.sqrt(self.A * self.B)


def gaussian_measure(A: float, B: float) -> MeasureResult:
    """Closed form for centered Gaussian states."""
    g = GaussianChar(A, B)
    value = (A + B - 2.0 * A * B) / (4.0 * (A * B) ** 1.5)
    return MeasureResult(value=float(value), route="closed-form", mean_n=g.mean_n,
                         purity=g.purity, err_estimate=0.0)


def gaussian_decohere(A: float, B: float, tau: float) -> tuple[float, float]:
    """Amplitude damping pulls both widths toward the vacuum value 1."""
    t2 = np.exp(-float(tau))
    return 1.0 + (A - 1.0) * t2, 1.0 + (B - 1.0) * t2


def squeezed_char_params(s: float) -> tuple[float, float]:
    """(A, B) of the squeezed vacuum produced by :func:`make_squeezed`."""
    return float(np.exp(2.0 * s)), float(np.exp(-2.0 * s))


def thermal_measure(nbar: float) -> MeasureResult:
    w = 2.0 * float(nbar) + 1.0
    return gaussian_measure(w, w)


# ---------------------------------------------------------------------------
# superposition states in closed form

def scs_mean_n(alpha: float) -> float:
    a2 = abs(alpha) ** 2
    return a2 * np.tanh(a2)


def _sinh_ratio(c: float, y: float) -> float:
    """sinh(c y) / sinh(c) for c > 0 and |y| <= 1, safe against overflow."""
    if c < 300.0:
        return float(np.sinh(c * y) / np.sinh(c))
    if y == 0.0:
        return 0.0
    mag = np.exp(c * (abs(y) - 1.0)) * (-np.expm1(-2.0 * c * abs(y))) / (-np.expm1(-2.0 * c))
    return float(np.sign(y) * mag)


def closed_form_scs(alpha: float) -> MeasureResult:
    value = scs_mean_n(alpha)
    return MeasureResult(value=value, route="closed-form", mean_n=value,
                         purity=1.0, err_estimate=0.0)


def closed_form_decohered_scs(alpha: float, tau: float) -> MeasureResult:
    """I, occupation and purity of the damped superposition state."""
    alpha, tau = float(alpha), float(tau)
    a2 = alpha ** 2
    x = np.exp(-tau)
    value = scs_mean_n(alpha) * x * _sinh_ratio(2.0 * a2, 2.0 * x - 1.0)
    t2 = x
    g = np.exp(-2.0 * t2 * a2)
    gamma = np.exp(-2.0 * (1.0 - x) * a2)
    norm = 1.0 / (2.0 + 2.0 * gamma * g)
    purity = 2.0 * norm ** 2 * ((1.0 + gamma * g) ** 2 + (g + gamma) ** 2)
    return MeasureResult(value=float(value), route="closed-form",
                         mean_n=float(scs_mean_n(alpha) * x),
                         purity=float(purity), err_estimate=0.0)


def mixture_scs_measure(alpha: float) -> MeasureResult:
    a2 = abs(alpha) ** 2
    g2 = np.exp(-4.0 * a2)
    return MeasureResult(value=float(-a2 * g2), route="closed-form", mean_n=a2,
                         purity=float(0.5 * (1.0 + g2)), err_estimate=0.0)


# ---------------------------------------------------------------------------
# thermal superposition family

class ThermalSCSChar:
    """Analytic characteristic function of the thermal superposition state.

    The first piece is the V-broadened interference term, the second the pair
    of displaced Gaussians written in centered form so no cosh ever overflows.
    Callable on complex arrays; exposes exact mean_n and purity.
    """

    def __init__(self, V: float, d: float):
        if V < 1.0:
            raise ValueError("V must be at least 1")
        self.V = float(V)
        self.d = float(d)
        self.S = 4.0 * self.d ** 2 / self.V
        self._norm = 1.0 + np.exp(-0.5 * self.S) / self.V

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=complex)
        V, d = self.V, self.d
        r2 = np.abs(xi) ** 2
        main = np.exp(-0.5 * V * r2) * np.cos(2.0 * d * xi.imag)
        wings = (np.exp(-np.abs(xi - 2.0 * d) ** 2 / (2.0 * V))
                 + np.exp(-np.abs(xi + 2.0 * d) ** 2 / (2.0 * V))) / (2.0 * V)
        return (main + wings) / self._norm

    @property
    def mean_n(self) -> float:
        V, d = self.V, self.d
        vv = np.exp(-0.5 * self.S) / V
        return float((2.0 * V + 4.0 * d ** 2 + vv * (2.0 / V - 4.0 * d ** 2 / V ** 2))
                     / (4.0 * (1.0 + vv)) - 0.5)

    @property
    def purity(self) -> float:
        V = self.V
        S = self.S
        U = V * V + 1.0
        vv = np.exp(-0.5 * S) / V
        val = ((1.0 + np.exp(-S)) / V
               + 4.0 * vv * V * np.exp(-S * (V * V - 1.0) / (2.0 * U)) / U)
        return float(val / (1.0 + vv) ** 2)


def thermal_scs_measure(V: float, d: float) -> MeasureResult:
    """Closed form for the thermal superposition family.

    The last term's exponent and the relative sign inside its bracket were
    validated against the quadrature oracle over a (V, d) grid and against a
    dense Fock construction before being frozen here; see the acceptance
    tests, which re-run that comparison.
    """
    chi = ThermalSCSChar(V, d)
    V, d = chi.V, chi.d
    R = V - 1.0
    S = chi.S
    Q = (R / V) ** 2
    U = V * V + 1.0
    M = 1.0 / (2.0 + 2.0 * np.exp(-0.5 * S) / V)
    value = M * M * (np.exp(-S) * (Q - S / V ** 2) + Q + S
                     - 8.0 * np.exp(-S * V * V / U) * R * (R * U + 4.0 * d ** 2 * (V + 1.0)) / U ** 3)
    return MeasureResult(value=float(value), route="closed-form", mean_n=chi.mean_n,
                         purity=chi.purity, err_estimate=0.0)
