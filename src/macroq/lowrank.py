"""Low-rank route: I of a product-form state, entirely in Gram space.

A state rho = sum_ij c_ij |Psi_i><Psi_j| with product terms
|Psi_i> = tensor_m |u_i^m>, built by ``DensityMatrix.product``, never needs
the tensor-product space: every trace entering I reduces to r x r Gram
algebra, so the cost is O(r^2 M) regardless of mode count.  This is what
makes thousand-mode entangled superpositions tractable.  The kets are read
with the mode axis last, as one (d_max, r, M) array, so each per-mode r x r
quantity is one elementwise pass over all the modes rather than M tiny
matrix products; the zero padding past a mode's dimension adds nothing to
any overlap, occupation or shift.  The route reads only ``kets`` and
``coeff`` and shares no code with the operator route, so the two check
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
    Tr(c X_m c X_m^H) with X_m = E_m * A_m, where N_m and A_m are the r x r
    matrix elements of n and a between the mode-m kets.  F, N, A and E are
    (r, r, M) arrays, each one elementwise pass with the mode axis last; the
    sum over m of the exchange traces contracts m first, as one
    (r^2, M) @ (M, r^2) product, and then the r^4 sum with c.  O(M r^2 d_max)
    in all.  The result is exact on the state's declared space, so
    err_estimate is zero.
    """
    c = state.coeff
    r = c.shape[0]
    kets = state.kets
    # u[k, i, m]: level k of term i's ket in mode m; real kets in float arithmetic
    u = np.ascontiguousarray((kets if kets.imag.any() else kets.real).transpose(2, 1, 0))
    bra = u.conj()[:, :, None]
    levels = np.arange(u.shape[0], dtype=float)[:, None, None]
    # overlaps F[i, j, m] = <u_i^m | u_j^m>, and the matrix elements of n and a
    grams = (bra * u[:, None]).sum(axis=0)
    n_m = (bra * (levels * u)[:, None]).sum(axis=0)
    a_m = (bra[:-1] * (np.sqrt(levels[1:]) * u[1:])[:, None]).sum(axis=0)
    excl = np.ones_like(grams)
    np.cumprod(grams[..., :-1], axis=-1, out=excl[..., 1:])
    gram = excl[..., -1] * grams[..., -1]
    excl[..., :-1] *= np.cumprod(grams[..., :0:-1], axis=-1)[..., ::-1]

    gn = (excl * n_m).sum(axis=-1)
    ga = (excl * a_m).reshape(r * r, -1)
    # W[(j, k), (i, l)] = sum_m X_m[j, k] conj(X_m[i, l])
    w = (ga @ ga.conj().T).reshape(r, r, r, r)
    exchange = np.einsum("ij,kl,jkil->", c, c, w)
    value = float(np.real(np.einsum("ij,jk,kl,li->", c, gram, c, gn) - exchange))
    mean = float(np.real(np.einsum("ij,ji->", c, gn)))
    purity = float(np.real(np.einsum("ij,jk,kl,li->", c, gram, c, gram)))
    return MeasureResult(value=value, route="low-rank", mean_n=mean,
                         purity=purity, err_estimate=0.0)
