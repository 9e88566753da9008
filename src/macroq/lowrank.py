"""Low-rank engine for many-mode states built from a few product terms.

A state rho = sum_ij c_ij |Psi_i><Psi_j| with product terms
|Psi_i> = tensor_m |u_i^m> never needs the tensor-product space: every trace
entering I reduces to r x r Gram algebra, so the cost is O(r^2 M) regardless
of mode count.  This is what makes thousand-mode entangled superpositions
tractable.  The kets of all modes sit in one zero-padded (M, r, d_max)
array, so the per-mode Gram matrices and traces are computed batched over the
modes; the padding adds nothing to any overlap, occupation or shift.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import HERMITICITY_TOL, MAX_FACTOR_ENTRIES, DensityMatrix, ModeCutoffs
from .measure import MeasureResult

# smallest eigenvalue of a coefficient matrix, relative to its largest
# entry, that ProductRankState accepts
WEIGHT_FLOOR = -1e-9


def _stack_factors(factors) -> tuple[np.ndarray, tuple[int, ...]]:
    """The kets ``factors[i][m]`` as an (M, r, d_max) array, zero padded past
    each mode's dimension, and those dimensions."""
    modes = len(factors[0])
    if modes == 0:
        raise ValueError("terms must have at least one mode")
    if any(len(term) != modes for term in factors):
        raise ValueError("terms have different numbers of modes")
    sizes = np.array([[len(u) for u in term] for term in factors])
    clash = np.nonzero((sizes != sizes[0]).any(axis=0))[0]
    if clash.size:
        m = int(clash[0])
        raise ValueError(f"mode {m} has inconsistent factor dimensions "
                         f"{sorted(set(sizes[:, m].tolist()))}")
    dims = sizes[0]
    stacked = np.zeros((modes, len(factors), int(dims.max())), dtype=complex)
    # C order of the masked entries is (mode, term, level): one scatter fills all
    held = np.arange(stacked.shape[2]) < dims[:, None, None]
    stacked[np.broadcast_to(held, stacked.shape)] = np.concatenate(
        [term[m] for m in range(modes) for term in factors])
    return stacked, tuple(int(d) for d in dims)


class ProductRankState:
    """Rank-r mixture/superposition of M-mode product vectors.

    ``factors[i][m]`` is the (unnormalized) single-mode ket of term i in mode m;
    ``coeff`` is the r x r Hermitian positive matrix of term weights.  Factor
    norms are folded into ``coeff`` and the whole object is scaled to unit trace
    on construction.  The normalized kets are kept as ``kets[m, i]``, an
    (M, r, d_max) array zero padded past each mode's dimension ``dims[m]``.
    """

    def __init__(self, factors, coeff):
        if not factors:
            raise ValueError("need at least one product term")
        self.rank = len(factors)
        coeff = np.asarray(coeff, dtype=complex)
        if coeff.shape != (self.rank, self.rank):
            raise ValueError(f"coeff shape {coeff.shape} does not match rank {self.rank}")
        scale = max(float(np.abs(coeff).max()), 1e-300)
        dev = float(np.abs(coeff - coeff.conj().T).max())
        if dev > HERMITICITY_TOL * scale:
            raise ValueError("coefficient matrix is not Hermitian")
        coeff = 0.5 * (coeff + coeff.conj().T)
        low = float(np.linalg.eigvalsh(coeff)[0])
        if low < WEIGHT_FLOOR * scale:
            raise ValueError(f"coefficient matrix has negative weight {low:.3e}")

        stacked, self.dims = _stack_factors(factors)
        self.modes = len(self.dims)
        # rows normalized, with the norms pushed into the coefficient matrix
        norms = np.linalg.norm(stacked, axis=2)
        if np.any(norms == 0.0):
            raise ValueError("zero factor vector")
        self.kets = stacked / norms[:, :, None]
        # each term's norm product, as a log sum shifted so the largest is 1:
        # over thousands of modes the product itself leaves the float range
        logs = np.log(norms).sum(axis=0)
        scales = np.exp(logs - logs.max())
        coeff = coeff * np.outer(scales, scales)

        tr = float(np.real(np.einsum("ij,ji->", coeff, self.gram())))
        if tr <= 0.0:
            raise ValueError(f"state trace {tr!r} is not positive")
        self.coeff = coeff / tr

    @classmethod
    def superposition(cls, terms, weights=None):
        """Pure state sum_i w_i |Psi_i>."""
        r = len(terms)
        w = np.ones(r, dtype=complex) if weights is None else np.asarray(weights, dtype=complex)
        return cls(terms, np.outer(w, w.conj()))

    @classmethod
    def mixture(cls, terms, probs):
        return cls(terms, np.diag(np.asarray(probs, dtype=float)))

    # -- Gram machinery -----------------------------------------------------

    def _factor_grams(self) -> np.ndarray:
        """Per-mode overlaps, F[m, i, j] = <u_i^m | u_j^m>, shape (M, r, r)."""
        return self.kets.conj() @ self.kets.transpose(0, 2, 1)

    def gram(self) -> np.ndarray:
        """Overlap matrix G[i, j] = <Psi_i | Psi_j>."""
        return np.prod(self._factor_grams(), axis=0)

    def to_dense(self) -> DensityMatrix:
        """The Fock-space state in factored form, V coeff V^H.

        Column i of V is the kron of term i's kets, so building it costs
        O(dim r); the dim x dim matrix is only made when its ``data`` is read,
        which refuses above ``fock.MAX_DENSE_DIM``.  V itself is refused above
        ``fock.MAX_FACTOR_ENTRIES`` entries, before any of it is built.
        """
        entries = math.prod(self.dims) * self.rank
        if entries > MAX_FACTOR_ENTRIES:
            raise ValueError(f"factor of {entries} entries exceeds the "
                             f"{MAX_FACTOR_ENTRIES} limit")
        V = np.ones((1, self.rank), dtype=complex)
        for u, d in zip(self.kets, self.dims):
            V = (V[:, None, :] * u[:, :d].T).reshape(-1, self.rank)
        return DensityMatrix.factored(ModeCutoffs(self.dims), V, self.coeff)


def measure_lowrank(state: ProductRankState) -> MeasureResult:
    """Evaluate I, the occupation and the purity entirely in Gram space.

    With F_m the per-mode overlaps and E_m the elementwise product of all the
    other modes' overlaps (from prefix and suffix products), the mode-m terms
    are Tr(rho^2 n_m) = Tr(c G c (E_m * N_m)) and Tr(a_m rho a_m^dag rho) =
    Tr(c (E_m * A_m) c (E_m * A_m)^H), where N_m and A_m are the r x r matrix
    elements of n and a between the mode-m kets.  Every step runs batched
    over the modes, O(M r^2 d_max) in all.  The result is exact on the
    state's declared space, so err_estimate is zero.
    """
    c = state.coeff
    u = state.kets
    grams = state._factor_grams()
    ones = np.ones((1, state.rank, state.rank), dtype=complex)
    pre = np.concatenate([ones, np.cumprod(grams[:-1], axis=0)])
    suf = np.concatenate([np.cumprod(grams[:0:-1], axis=0)[::-1], ones])
    gram = pre[-1] * grams[-1]
    excl = pre * suf

    levels = np.arange(u.shape[2], dtype=float)
    n_m = u.conj() @ (u * levels).transpose(0, 2, 1)
    a_m = u[:, :, :-1].conj() @ (u[:, :, 1:] * np.sqrt(levels[1:])).transpose(0, 2, 1)
    gn = (excl * n_m).sum(axis=0)
    ga = excl * a_m
    exchange = np.einsum("mik,mki->", c @ ga, c @ ga.conj().transpose(0, 2, 1))
    value = float(np.real(np.einsum("ij,jk,kl,li->", c, gram, c, gn) - exchange))
    mean = float(np.real(np.einsum("ij,ji->", c, gn)))
    purity = float(np.real(np.einsum("ij,jk,kl,li->", c, gram, c, gram)))
    return MeasureResult(value=value, route="low-rank", mean_n=mean,
                         purity=purity, err_estimate=0.0)
