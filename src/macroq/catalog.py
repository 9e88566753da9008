"""Reference states and the closed-form values of I they admit.

Every constructor returns a :class:`fock.DensityMatrix`: single-mode states
in dense form, many-mode entangled families in product form, which the
low-rank route measures at any mode count.  The closed-form helpers
return full :class:`measure.MeasureResult` records so they slot into the same
comparisons as the numeric routes.

Constructors check the requested cutoff against the analytic norm of the
state: a tail above ``fock.LEAK_TOL`` (1e-6) draws a warning, and a
tail above 1e-2 (a state that plainly does not fit) raises.  The warning
rather than an error matters: deliberately truncated states are legitimate
objects of study here.  The pure states cut from a known untruncated one
(Fock, coherent, even-cat and squeezed) carry in ``tail`` a bound on how far
the cut moves I, which ``measure()`` adds to its error bar.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln, i0e, j0

from .fock import (LEAK_TOL, DensityMatrix, ModeCutoffs, TruncationLeakError,
                   displacement_matrix, suggest_cutoff)
from .measure import MeasureResult

_HARD_LEAK = 1e-2
# where the default cutoffs of the geometric-tailed states stop growing: past
# it make_thermal refuses through the leak gate, and make_squeezed stops
# doubling once it reaches it
_MAX_AUTO_CUTOFF = 4096
# ln 2 as the sum of two doubles
_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17


def _leak_gate(leak: float, context: str, stacklevel: int = 3) -> None:
    """Refuse or warn about a cutoff; the warning points ``stacklevel`` frames up."""
    if leak > _HARD_LEAK:
        raise TruncationLeakError(
            f"{context}: cutoff misses {leak:.3e} of the norm; increase it")
    if leak > LEAK_TOL:
        warnings.warn(f"{context}: cutoff misses {leak:.3e} of the norm",
                      RuntimeWarning, stacklevel=stacklevel)


def _require_finite(**params) -> None:
    """Refuse, by name, a parameter that is NaN or infinite, before a cutoff is sized from it."""
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")


def _whole(name: str, value) -> int:
    """``value`` as an int, refusing by name a count that is not a whole number."""
    if not float(value).is_integer():
        raise ValueError(f"{name} is not an integer: {value!r}")
    return int(value)


def _two_branch(branch: np.ndarray, gamma: float, full: float, context: str) -> DensityMatrix:
    """The state B o W / tr of a branch B around +beta and its mirror image around -beta.

    W[m, n] = 1 + s_m s_n + gamma (s_m + s_n) with s_n = (-1)^n: the parity
    P = diag(s) maps B to its mirror P B P, and B o W = B + P B P + gamma
    (B P + P B), so gamma = 1 gives the even superposition, 0 the mixture.
    ``full`` is the trace of B o W on the untruncated space; the cutoff
    misses 1 - tr(B o W) / full of it.
    """
    s = 1.0 - 2.0 * (np.arange(branch.shape[0]) % 2)
    rho = branch * (1.0 + np.multiply.outer(s, s) + gamma * np.add.outer(s, s))
    _leak_gate(1.0 - float(rho.trace().real) / full, context, stacklevel=4)
    return DensityMatrix(ModeCutoffs((branch.shape[0],)), rho)


def _pure(amp: np.ndarray) -> DensityMatrix:
    """Single-mode projector |amp><amp| of a normalized amplitude vector.

    A real vector's outer product is symmetric bit for bit, one float product
    per entry, so it is written into the real half of a complex matrix and
    taken over as it is, with no scan and no second copy; the public
    constructor would return the same matrix.  A complex vector goes through
    that constructor: numpy's complex multiply may fuse a multiply with the
    subtraction, and then outer(amp, conj amp) is not Hermitian bit for bit.
    """
    cutoffs = ModeCutoffs((amp.size,))
    if amp.imag.any():
        return DensityMatrix(cutoffs, np.outer(amp, amp.conj()))
    rho = np.zeros((amp.size, amp.size), dtype=complex)
    np.multiply.outer(amp.real, amp.real, out=rho.real)
    return DensityMatrix._from_hermitian(cutoffs, rho)


_TAIL_BLOCK = 1024  # levels per pass of the sums past a cutoff


def _tail_moments(log_p: Callable, cutoff: int) -> tuple[float, float]:
    """eps = sum p_n and T = sum n p_n over the levels n >= cutoff.

    ``log_p(n)`` gives log p_n of the untruncated state on an integer array,
    -inf where p_n = 0.  The sums run over the levels past the cutoff
    themselves, a block at a time, until a block adds nothing to T: formed
    as <n> minus the sum of the kept levels, T would lose every digit once
    it fell below about 1e-13 <n>.  Every distribution summed here falls off
    monotonically past a cutoff the leak gate accepts, so once a block adds
    nothing no later one does.
    """
    eps = T = 0.0
    lo = cutoff
    while True:
        n = np.arange(lo, lo + _TAIL_BLOCK)
        p = np.exp(log_p(n))
        eps += float(p.sum())
        added = float(n @ p)
        T += added
        if not added > 1e-17 * T:  # a NaN stops the sums too
            return eps, T
        lo += _TAIL_BLOCK


def _with_tail(state: DensityMatrix, log_p: Callable | None) -> DensityMatrix:
    """``state`` with ``tail`` set to a bound B on |I(state) - I(psi)|, 0 when
    ``log_p`` is None: the state is psi itself.

    psi is the pure untruncated state whose populations p_n are exp(log_p(n))
    and ``state`` its first d levels, renormalized.  With eps and T the norm
    and the occupation sum n p_n that the cutoff drops (:func:`_tail_moments`),
    and <n>, p_top = rho[d-1, d-1] and <a> those of ``state``, I = <n> -
    |<a>|^2 of a pure state moves as follows:

    - <n> by T - eps <n>;
    - <a> by -eps <a> + c, where c = sqrt(d) psi_{d-1} psi_d + sum_{n>=d}
      sqrt(n+1) psi_n psi_{n+1}: Cauchy-Schwarz bounds the second part by
      sqrt(eps T) and the first by sqrt(p_top T), so |c| <= C, the sum of
      the two;
    - |<a>|^2 then by at most (2 eps + eps^2) <n> + 2 (1 + eps) sqrt(<n>) C +
      C^2, since |<a>|^2 <= <n>.

    So B = T + eps (3 + eps) <n> + 2 (1 + eps) sqrt(<n>) C + C^2.
    """
    if log_p is None:
        state.tail = 0.0
        return state
    d = state.dim
    eps, T = _tail_moments(log_p, d)
    mean = state.mean_number()
    c = np.sqrt(eps * T) + np.sqrt(float(state.data[d - 1, d - 1].real) * T)
    state.tail = float(T + eps * (3.0 + eps) * mean + 2.0 * (1.0 + eps) * np.sqrt(mean) * c
                       + c * c)
    return state


def _coherent_log_weights(r: float, n: np.ndarray) -> np.ndarray:
    """log |<n|alpha>| at |alpha| = r > 0."""
    return -0.5 * r ** 2 + n * np.log(r) - 0.5 * gammaln(n + 1.0)


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """Truncated coherent-state vector, evaluated in the log domain."""
    alpha = complex(alpha)
    n = np.arange(cutoff)
    if alpha == 0:
        out = np.zeros(cutoff, dtype=complex)
        out[0] = 1.0
        return out
    return np.exp(_coherent_log_weights(abs(alpha), n)) * np.exp(1j * np.angle(alpha) * n)


# ---------------------------------------------------------------------------
# dense single-mode states

def make_fock(n: int, cutoff: int | None = None) -> DensityMatrix:
    n = _whole("n", n)
    if n < 0:
        raise ValueError("Fock index must be nonnegative")
    cutoff = _whole("cutoff", cutoff) if cutoff is not None else n + 2
    if cutoff <= n:
        raise TruncationLeakError(f"Fock state |{n}> needs a cutoff above {n}")
    amp = np.zeros(cutoff, dtype=complex)
    amp[n] = 1.0
    return _with_tail(_pure(amp), None)


def make_coherent(alpha: complex, cutoff: int | None = None) -> DensityMatrix:
    _require_finite(alpha=alpha)
    cutoff = _whole("cutoff", cutoff) if cutoff is not None else suggest_cutoff(abs(alpha) ** 2)
    amp = _coherent_amplitudes(alpha, cutoff)
    norm2 = float(np.sum(np.abs(amp) ** 2))
    _leak_gate(1.0 - norm2, f"coherent alpha={alpha}")
    return _with_tail(_pure(amp / np.sqrt(norm2)), None if alpha == 0 else
                      lambda n: 2.0 * _coherent_log_weights(abs(alpha), n))


def make_scs(alpha: complex, cutoff: int | None = None) -> DensityMatrix:
    """Even superposition of |alpha> and |-alpha>."""
    _require_finite(alpha=alpha)
    cutoff = _whole("cutoff", cutoff) if cutoff is not None else suggest_cutoff(abs(alpha) ** 2)
    amp = _coherent_amplitudes(alpha, cutoff)
    state = _two_branch(np.outer(amp, amp.conj()), 1.0,
                        2.0 * (1.0 + np.exp(-2.0 * abs(alpha) ** 2)),
                        f"superposition alpha={alpha}")
    # the even levels carry the coherent weights times 2 / (1 + e^{-2 |alpha|^2})
    shift = np.log(2.0) - np.log1p(np.exp(-2.0 * abs(alpha) ** 2))
    return _with_tail(state, None if alpha == 0 else lambda n: np.where(
        n % 2 == 0, 2.0 * _coherent_log_weights(abs(alpha), n) + shift, -np.inf))


def make_mixture_scs(alpha: complex, cutoff: int | None = None) -> DensityMatrix:
    """Classical fifty-fifty mixture of |alpha> and |-alpha>."""
    _require_finite(alpha=alpha)
    cutoff = _whole("cutoff", cutoff) if cutoff is not None else suggest_cutoff(abs(alpha) ** 2)
    amp = _coherent_amplitudes(alpha, cutoff)
    return _two_branch(np.outer(amp, amp.conj()), 0.0, 2.0, f"mixture alpha={alpha}")


def make_decohered_scs(alpha: float, tau: float, cutoff: int | None = None) -> DensityMatrix:
    """Superposition state after amplitude damping for a dimensionless time tau.

    The branch amplitudes shrink to e^{-tau/2} alpha while the off-diagonal
    blocks pick up the coherence factor Gamma = exp(-2 (1 - e^{-tau}) alpha^2).
    """
    alpha, tau = float(alpha), float(tau)
    _require_finite(alpha=alpha, tau=tau)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    cutoff = _whole("cutoff", cutoff) if cutoff is not None else suggest_cutoff(alpha ** 2)
    beta = np.exp(-0.5 * tau) * abs(alpha)
    gamma = np.exp(-2.0 * (1.0 - np.exp(-tau)) * alpha ** 2)
    amp = _coherent_amplitudes(beta, cutoff)
    return _two_branch(np.outer(amp, amp.conj()), gamma,
                       2.0 * (1.0 + gamma * np.exp(-2.0 * beta ** 2)),
                       f"damped superposition alpha={alpha}")


def make_thermal(nbar: float, cutoff: int | None = None) -> DensityMatrix:
    """Thermal state with mean occupation nbar, p_n = (1 - q) q^n, q = nbar / (1 + nbar).

    A cutoff c drops q^c of the norm.  With no explicit cutoff, c is the
    least that drops below 1e-8, the target of :func:`make_squeezed`, at
    most _MAX_AUTO_CUTOFF: a state that needs more is refused before any
    matrix is built.
    """
    nbar = float(nbar)
    _require_finite(nbar=nbar)
    if nbar < 0:
        raise ValueError("mean occupation must be nonnegative")
    if nbar == 0.0:
        return make_fock(0, suggest_cutoff(0.0) if cutoff is None else cutoff)
    q = nbar / (1.0 + nbar)
    if cutoff is None:
        # q^c < 1e-8 for c > ln(1e8) / r, with r = -ln q = log1p(1 / nbar),
        # which stays positive where q rounds to 1
        r = np.log1p(1.0 / nbar)
        cutoff = (int(np.floor(np.log(1e8) / r)) + 1 if r * _MAX_AUTO_CUTOFF > np.log(1e8)
                  else _MAX_AUTO_CUTOFF)
    cutoff = _whole("cutoff", cutoff)
    _leak_gate(q ** cutoff, f"thermal nbar={nbar}")
    p = (1.0 - q) * q ** np.arange(cutoff)
    return DensityMatrix(ModeCutoffs((cutoff,)), np.diag(p).astype(complex))


def _squeezed_log_weights(s: float, m: np.ndarray) -> np.ndarray:
    """log |<2m|S(s)|0>| of the squeezed vacuum, s != 0."""
    return (0.5 * gammaln(2 * m + 1.0) - m * np.log(2.0) - gammaln(m + 1.0)
            + m * np.log(np.tanh(abs(s))) - 0.5 * np.log(np.cosh(s)))


def _squeezed_amplitudes(s: float, cutoff: int) -> tuple[np.ndarray, float]:
    """Even-number amplitudes of the squeezed vacuum and their truncated norm."""
    m = np.arange((cutoff + 1) // 2)
    vals = np.exp(_squeezed_log_weights(s, m)) * (-np.sign(s)) ** m
    amp = np.zeros(cutoff, dtype=complex)
    amp[2 * m] = vals
    return amp, float(np.sum(vals ** 2))


def make_squeezed(s: float, cutoff: int | None = None) -> DensityMatrix:
    """Squeezed vacuum with quadrature variances e^{-2s}/4 and e^{2s}/4.

    With no explicit cutoff the dimension doubles until the analytic tail
    drops below 1e-8, or until it reaches _MAX_AUTO_CUTOFF, where a state
    that still drops more goes through the leak gate; the number
    distribution decays only geometrically, so the generic occupation
    heuristic underestimates badly here.
    """
    s = float(s)
    _require_finite(s=s)
    if s == 0.0:
        return make_fock(0, cutoff if cutoff is not None else 4)
    if cutoff is None:
        cutoff = max(suggest_cutoff(np.sinh(s) ** 2), 16)
        while cutoff < _MAX_AUTO_CUTOFF:
            _, norm2 = _squeezed_amplitudes(s, cutoff)
            if 1.0 - norm2 < 1e-8:
                break
            cutoff = min(2 * cutoff, _MAX_AUTO_CUTOFF)
    amp, norm2 = _squeezed_amplitudes(s, _whole("cutoff", cutoff))
    _leak_gate(1.0 - norm2, f"squeezed s={s}")
    return _with_tail(_pure(amp / np.sqrt(norm2)), lambda n: np.where(
        n % 2 == 0, 2.0 * _squeezed_log_weights(s, n // 2), -np.inf))


def make_maximally_mixed(dim: int) -> DensityMatrix:
    dim = _whole("dim", dim)
    return DensityMatrix(ModeCutoffs((dim,)), np.eye(dim, dtype=complex) / dim)


def make_thermal_scs(V: float, d: float, cutoff: int | None = None) -> DensityMatrix:
    """Gaussian ensemble of superposition states, built exactly.

    Branch centers beta are drawn from a width-(V-1) Gaussian around d, each
    contributing the even superposition of |beta> and |-beta>.  The Gaussian
    mixture of |beta> is the displaced thermal state D(d) rho_th D(d)^dag
    with nbar = (V - 1) / 2 (Glauber, Phys. Rev. 131, 2766 (1963)), so the
    ensemble is that branch under the parity weights of the even
    superposition.  V = 1 (nbar = 0) is the pure state; the state is even in d.
    """
    V, d = float(V), abs(float(d))
    _require_finite(V=V, d=d)
    if V < 1.0:
        raise ValueError("V must be at least 1")
    nbar = 0.5 * (V - 1.0)
    # default: cover the ensemble five widths out, not just the mean occupation
    cutoff = (_whole("cutoff", cutoff) if cutoff is not None
              else suggest_cutoff((d + 5.0 * np.sqrt(nbar)) ** 2 + 25.0 * nbar))
    # thermal levels up to where q^k falls below 1e-18, at least the cutoff and
    # at most twice it.  Dropped levels only lower the truncated trace, so the
    # leak gate counts them.  Displacing the thermal state only moves weight
    # out (Anderson's inequality), so the branch puts at least q^cutoff past
    # the cutoff, and the dropped q^(2 cutoff) is below the square of that
    q = nbar / (1.0 + nbar)
    levels = cutoff if q == 0.0 else int(np.clip(np.ceil(np.log(1e-18) / np.log(q)),
                                                 cutoff, 2 * cutoff))
    p = (1.0 - q) * q ** np.arange(levels)
    D = displacement_matrix(levels, d)[:cutoff]
    return _two_branch((D * p) @ D.conj().T, 1.0, 2.0 * ThermalSCSChar(V, d)._norm,
                       f"thermal superposition V={V} d={d}")


# ---------------------------------------------------------------------------
# many-mode product states

def make_ghz(n_modes: int) -> DensityMatrix:
    """(|0...0> + |1...1>) / sqrt(2) over n_modes two-level modes."""
    n_modes = _whole("n_modes", n_modes)
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    return DensityMatrix.superposition([np.tile(e0, (n_modes, 1)), np.tile(e1, (n_modes, 1))])


def make_noon(n: int) -> DensityMatrix:
    """(|n, 0> + |0, n>) / sqrt(2) on two modes."""
    n = _whole("n", n)
    if n < 1:
        raise ValueError("photon number must be positive")
    top = np.zeros(n + 1)
    top[n] = 1.0
    bottom = np.zeros(n + 1)
    bottom[0] = 1.0
    return DensityMatrix.superposition([[top, bottom], [bottom, top]])


def make_dur(n_modes: int, epsilon: float) -> DensityMatrix:
    """Superposition of two nearly parallel product branches.

    Each branch is a product of qubit kets cos(eps/2)|0> +- sin(eps/2)|1>, so
    the single-mode branch overlap is cos(eps).
    """
    n_modes = _whole("n_modes", n_modes)
    _require_finite(epsilon=epsilon)
    th = 0.5 * float(epsilon)
    u = np.array([np.cos(th), np.sin(th)])
    v = np.array([np.cos(th), -np.sin(th)])
    return DensityMatrix.superposition([np.tile(u, (n_modes, 1)), np.tile(v, (n_modes, 1))])


def dur_exact(n_modes: int, epsilon: float) -> float:
    """I of the branch-superposition state, from the 2 x 2 Gram algebra.

    The mode averages of a vanish by symmetry, so I equals the total
    occupation of the normalized superposition.
    """
    N = _whole("n_modes", n_modes)
    th = 0.5 * float(epsilon)
    c = np.cos(float(epsilon))
    return N * np.sin(th) ** 2 * (1.0 - c ** (N - 1)) / (1.0 + c ** N)


def dur_asymptotic(n_modes: int, epsilon: float) -> float:
    """Large-N, small-epsilon limit of :func:`dur_exact`."""
    return _whole("n_modes", n_modes) * float(epsilon) ** 2 / 4.0


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
        if not (np.isfinite(self.A) and np.isfinite(self.B)):
            raise ValueError(f"Gaussian parameters must be finite, "
                             f"not {self.A!r} and {self.B!r}")
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


def _sinh_ratio(c: float, y: float, gap: float) -> float:
    """sinh(c y) / sinh(c) for c > 0 and |y| <= 1, safe against overflow.

    gap is 1 - |y|.  From c = 300 on the ratio is exp(-c gap) times a factor
    near one, so an error e in gap costs c e of relative precision: a caller
    computes gap in a form more precise than 1 - |y| where it can.
    """
    if c < 300.0:
        return float(np.sinh(c * y) / np.sinh(c))
    if y == 0.0:
        return 0.0
    mag = np.exp(-c * gap) * (-np.expm1(-2.0 * c * abs(y))) / (-np.expm1(-2.0 * c))
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
    # 2 x - 1 as expm1(ln 2 - tau), so it keeps its relative precision where
    # it, and I with it, crosses zero at tau = ln 2
    y = np.expm1((_LN2_HI - tau) + _LN2_LO)
    gap = -2.0 * np.expm1(-tau) if y >= 0.0 else 2.0 * x  # 1 - |y|
    value = scs_mean_n(alpha) * x * _sinh_ratio(2.0 * a2, y, gap)
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
    Callable on complex arrays; exposes exact mean_n and purity, and the
    angular mean of |chi|^2 in closed form (:meth:`angular_mean_sq`).
    """

    def __init__(self, V: float, d: float):
        if not (np.isfinite(V) and np.isfinite(d)):
            raise ValueError(f"V and d must be finite, not {V!r} and {d!r}")
        if V < 1.0:
            raise ValueError("V must be at least 1")
        self.V = float(V)
        self.d = float(d)
        self.S = 4.0 * self.d ** 2 / self.V
        self._norm = 1.0 + np.exp(-0.5 * self.S) / self.V

    def angular_mean_sq(self, r):
        """Mean of |chi(r e^{i phi})|^2 over phi, in closed form.

        With xi = r e^{i phi} and d -> |d| (chi is even in d), N chi is a
        sum of three real pieces: the interference term
        e^{-V r^2 / 2} cos(2 d r sin phi) and the two wings
        e^{-(r^2 + 4 d^2) / 2V} e^{+-2 d r cos phi / V} / 2V.  Each product
        in |N chi|^2 averages by <e^{b cos phi + i a sin phi}>_phi =
        I0(sqrt(b^2 - a^2)) = J0(sqrt(a^2 - b^2)):

        - the interference term squared, (1 + cos(4 d r sin phi)) / 2 times
          e^{-V r^2}, to e^{-V r^2} (1 + J0(4 d r)) / 2;
        - the wings squared, e^{-(r^2 + 4 d^2) / V} (2 + 2 cosh(4 d r
          cos phi / V)) / 4V^2, to (e^{-(r^2 + 4 d^2) / V} + e^{-(r - 2d)^2
          / V} i0e(4 d r / V)) / 2V^2, the exponential factor of I0 moved
          into the Gaussian so it cannot overflow;
        - twice their cross term, (2 / V) e^{-V r^2 / 2 - (r^2 + 4 d^2) / 2V}
          cos(2 d r sin phi) cosh(2 d r cos phi / V), with a = 2 d r and
          b = 2 d r / V <= a, to the same factor times
          J0(2 d r sqrt(1 - 1 / V^2)).

        Dividing by N^2 gives s(r), which is even in r.
        """
        r = np.abs(np.asarray(r, dtype=float))
        V, d = self.V, abs(self.d)
        r2, d2 = r * r, d * d
        main = 0.5 * np.exp(-V * r2) * (1.0 + j0(4.0 * d * r))
        wings = (np.exp(-(r2 + 4.0 * d2) / V)
                 + np.exp(-(r - 2.0 * d) ** 2 / V) * i0e(4.0 * d * r / V)) / (2.0 * V * V)
        cross = (2.0 / V) * np.exp(-0.5 * V * r2 - 0.5 * (r2 + 4.0 * d2) / V) * j0(
            2.0 * d * r * np.sqrt(1.0 - 1.0 / (V * V)))
        return (main + wings + cross) / self._norm ** 2

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


# ---------------------------------------------------------------------------
# states by name

@dataclass(frozen=True)
class StateEntry:
    """How one named state is built and measured, and the route it takes by default.

    ``build(*params, cutoff)`` returns the object ``measure()`` takes, with
    ``params`` the values of ``names`` in order; ``closed(*params)`` is the
    closed form of the untruncated state and ``char(*params)`` its analytic
    characteristic function, which the char-quadrature route integrates.
    """

    names: tuple[str, ...]
    route: str
    build: Callable
    closed: Callable | None = None
    char: Callable | None = None


STATES = {
    "fock": StateEntry(("n",), "operator", make_fock),
    "coherent": StateEntry(("alpha",), "operator", make_coherent),
    "scs": StateEntry(("alpha",), "operator", make_scs, closed=closed_form_scs),
    "mixture-scs": StateEntry(("alpha",), "closed-form", make_mixture_scs,
                              closed=mixture_scs_measure),
    "decohered-scs": StateEntry(("alpha", "tau"), "closed-form", make_decohered_scs,
                                closed=closed_form_decohered_scs),
    "squeezed": StateEntry(("s",), "operator", make_squeezed,
                           closed=lambda s: gaussian_measure(*squeezed_char_params(s))),
    "gaussian": StateEntry(("A", "B"), "closed-form", lambda A, B, cut: GaussianChar(A, B),
                           closed=gaussian_measure),
    "thermal": StateEntry(("nbar",), "closed-form", make_thermal, closed=thermal_measure,
                          char=lambda nbar: GaussianChar(2 * nbar + 1, 2 * nbar + 1)),
    "thermal-scs": StateEntry(("V", "d"), "closed-form", make_thermal_scs,
                              closed=thermal_scs_measure, char=ThermalSCSChar),
    "ghz": StateEntry(("n-modes",), "low-rank", lambda n, cut: make_ghz(n)),
    "noon": StateEntry(("n",), "low-rank", lambda n, cut: make_noon(n)),
    "dur": StateEntry(("n-modes", "epsilon"), "low-rank",
                      lambda n, eps, cut: make_dur(n, eps), closed=dur_measure),
    "maximally-mixed": StateEntry(("dim",), "operator",
                                  lambda dim, cut: make_maximally_mixed(dim)),
}


@dataclass(frozen=True)
class Named:
    """A state of :data:`STATES` by name and parameters, built only when a route needs it."""

    name: str
    params: tuple
    cutoff: int | None = None

    def __post_init__(self):
        if self.name not in STATES:
            raise ValueError(f"unknown state {self.name!r}; states are {', '.join(STATES)}")

    def build(self):
        return STATES[self.name].build(*self.params, self.cutoff)
