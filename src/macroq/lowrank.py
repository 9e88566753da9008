"""Low-rank route: I of a product-form state, entirely in Gram space.

A state rho = sum_ij c_ij |Psi_i><Psi_j| with product terms
|Psi_i> = tensor_m |u_i^m>, built by ``DensityMatrix.product``, never needs
the tensor-product space: every trace entering I reduces to r x r Gram
algebra, so the cost is O(r^2 M) regardless of mode count.  This is what
makes thousand-mode entangled superpositions tractable.  The kets of all
modes sit in one zero-padded (M, r, d_max) array, so the per-mode Gram
matrices and traces are computed batched over the modes; the padding adds
nothing to any overlap, occupation or shift.  The route reads only ``kets``
and ``coeff`` and shares no code with the operator route, so the two check
each other.
"""

from __future__ import annotations

import numpy as np

from .fock import DensityMatrix
from .measure import MeasureResult


def measure_lowrank(state: DensityMatrix) -> MeasureResult:
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
    # per-mode overlaps F[m, i, j] = <u_i^m | u_j^m>
    grams = u.conj() @ u.transpose(0, 2, 1)
    ones = np.ones((1,) + c.shape, dtype=complex)
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
