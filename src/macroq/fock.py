"""Fock-space representation of bosonic states and operators.

Everything here works on explicit numpy arrays over a truncated number basis.
One class, :class:`DensityMatrix`, holds every state: as a dense dim x dim
matrix, or in product form as a few product kets per mode and their r x r
coefficients, from which the dim x r factor and the matrix are built on demand.
Multi-mode objects use the C-order (row-major) tensor convention, so the kron
of per-mode operators acts on the flat index returned by ``ModeCutoffs.index_of``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln


class TruncationLeakError(RuntimeError):
    """Raised when an operation pushes weight past the Fock cutoff."""


@dataclass(frozen=True)
class ModeCutoffs:
    """Per-mode Fock dimensions.  ``cutoffs[m]`` counts levels 0..cutoffs[m]-1."""

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        # one pass in C over thousands of modes: the ints equal the given
        # values exactly when every value is whole, so 3.0 passes and 2.5 fails
        given = tuple(self.cutoffs)
        try:
            dims = tuple(map(int, given))
        except (TypeError, ValueError, OverflowError):
            dims = None
        if dims != given or not dims or min(dims) < 1:
            raise ValueError(_cutoff_fault(given))
        object.__setattr__(self, "cutoffs", dims)

    @property
    def modes(self) -> int:
        return len(self.cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(self.cutoffs)

    def index_of(self, occupations) -> int:
        """Flat index of the basis state |n_1, ..., n_M>."""
        return int(np.ravel_multi_index(tuple(occupations), self.cutoffs))

    def occupations_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(n) for n in np.unravel_index(index, self.cutoffs))


def _cutoff_fault(given: tuple) -> str:
    """Why ``given`` is not a tuple of positive whole cutoffs, naming the first bad mode."""
    if not given:
        return "cutoffs must name at least one mode"
    for m, d in enumerate(given):
        try:
            whole = float(d).is_integer() and int(d) == d
        except (TypeError, ValueError):
            whole = False
        if not whole:
            return f"cutoff of mode {m} is not an integer: {d!r}"
        if d < 1:
            return f"cutoffs must be positive, got {d!r} for mode {m}"
    return f"cutoffs must be positive whole numbers, got {given!r}"


def as_cutoffs(spec) -> ModeCutoffs:
    """Coerce an int, a sequence of ints, or a ModeCutoffs."""
    if isinstance(spec, ModeCutoffs):
        return spec
    return ModeCutoffs((spec,) if np.isscalar(spec) else tuple(spec))


def suggest_cutoff(mean_n: float) -> int:
    """Fock dimension heuristic: mean occupation plus a six-sigma safety band."""
    mean_n = max(float(mean_n), 0.0)
    return int(np.ceil(mean_n + 6.0 * np.sqrt(mean_n) + 10.0))


_TILE = 256
# entries of a product state's dense matrix that _outer_product_sum fills at a
# time: a strip of rows, and each of its three scratch strips, stays in cache
_STRIP_ENTRIES = 2 ** 15

# largest dimension whose dense matrix a product state builds on request
MAX_DENSE_DIM = 4096
# most entries (dim x rank) a product state's factor V may hold
MAX_FACTOR_ENTRIES = 2 ** 22
# smallest eigenvalue of a product state's coefficient matrix, relative to
# its largest entry, that DensityMatrix.product accepts
WEIGHT_FLOOR = -1e-9
# max|rho - rho^H| relative to max|rho| that DensityMatrix accepts
HERMITICITY_TOL = 1e-12
# trace lost past the cutoff that apply_displacement refuses and the catalog
# constructors warn about
LEAK_TOL = 1e-6
# log of the smallest seed _displaced_columns carries as it is; e^-708 is the
# bottom of the normal float range
_SEED_FLOOR = -700.0
# ln 2 = _LN2_HI + _LN2_LO, the first with 32 significant bits, so that
# e * _LN2_HI is exact for every integer |e| < 2^21
_LN2_HI = 0.6931471803691238
_LN2_LO = 1.9082149292705877e-10


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


class DensityMatrix:
    """Mixed state over a truncated Fock basis, trace-normalized on construction.

    A state has one of two forms.  ``DensityMatrix(cutoffs, data)`` takes a
    dense dim x dim matrix, checks that it is Hermitian and keeps its exactly
    Hermitian part.  ``DensityMatrix.product(terms, coeff)`` keeps a rank-r
    superposition or mixture of M-mode product kets as ``kets`` and
    ``coeff``, which are None on a dense state.  A product state's
    ``factors``, rho = V C V^H, are built from its kets on first read, and
    the operator route works on them in O(dim r^2); ``mean_number``,
    ``purity`` and ``min_eigenvalue`` need only the kets' r x r overlaps.
    Its dense ``data`` is built from the factors on first read, as an
    exactly Hermitian sum of real outer products, cached, and refused with
    ValueError above ``MAX_DENSE_DIM``.

    ``tail`` bounds how far I of the state lies from I of the untruncated
    state it was cut from: 0.0 on a product state, which spans exactly its
    declared space, None (unknown) on a dense one unless its constructor sets
    it, as the catalog's Fock, coherent, even-cat and squeezed states do.
    """

    def __init__(self, cutoffs, data):
        self.cutoffs = as_cutoffs(cutoffs)
        self.kets = self.coeff = None
        rho = np.asarray(data, dtype=complex)
        d = self.cutoffs.dim
        if rho.shape != (d, d):
            raise ValueError(f"density matrix has shape {rho.shape}, expected {(d, d)}")
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has entries that are not finite")
        with np.errstate(over="ignore", invalid="ignore"):
            scale, dev, herm = _hermitian_part(rho)
            if scale > np.finfo(float).max / 2:
                # rho + rho^H may have overflowed: the state is that of rho / scale
                _, dev, herm = _hermitian_part(rho / scale)
                dev *= scale
            tr = float(herm.trace().real)
        rho = herm
        if scale == 0.0:
            raise ValueError("density matrix is zero")
        if dev > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        if not np.isfinite(tr):
            raise ValueError(f"trace {tr!r} is not finite")
        if not tr > 0.0:
            raise ValueError(f"trace {tr!r} is not positive")
        rho /= tr
        self._data = rho
        self.tail = None
        self._min_eigenvalue = None
        self._floor_checks = {}

    @classmethod
    def _from_hermitian(cls, cutoffs: ModeCutoffs, rho: np.ndarray) -> DensityMatrix:
        """The state of a new, exactly Hermitian dim x dim complex matrix, taken over.

        For matrices Hermitian by construction: the Hermiticity test and the
        Hermitian part of the public constructor are skipped, which on such a
        matrix would return it bit for bit.  The trace must be finite and
        positive; rho is divided by it in place.
        """
        tr = float(rho.trace().real)
        if not np.isfinite(tr):
            raise ValueError(f"trace {tr!r} is not finite")
        if not tr > 0.0:
            raise ValueError(f"trace {tr!r} is not positive")
        rho /= tr
        self = cls.__new__(cls)
        self.cutoffs = cutoffs
        self.kets = self.coeff = None
        self._data = rho
        self.tail = None
        self._min_eigenvalue = None
        self._floor_checks = {}
        return self

    @classmethod
    def product(cls, terms, coeff) -> DensityMatrix:
        """The state sum_ij coeff_ij |Psi_i><Psi_j| with |Psi_i> = tensor_m terms[i][m].

        ``terms[i][m]`` is the (unnormalized) single-mode ket of term i in
        mode m and ``coeff`` the r x r Hermitian positive matrix of term
        weights.  A term may also be an (M, d) array, one row per mode:
        terms that are all arrays of one shape are stacked in one call,
        with no step per mode, which is how the catalog builds its
        thousand-mode states.  Ket norms are folded into ``coeff`` and the
        whole scaled to unit trace.  The normalized kets are kept as
        ``kets[m, i]``, an (M, r, d_max) array zero padded past each mode's
        dimension, and the cutoffs are those dimensions: the form spans
        exactly its declared space, so the operator route reports it exact
        (err_estimate 0).  The trace, like ``purity``, ``mean_number`` and
        ``min_eigenvalue``, reads the kets' overlaps with the mode axis last.
        """
        if not terms:
            raise ValueError("need at least one product term")
        r = len(terms)
        coeff = np.asarray(coeff, dtype=complex)
        if coeff.shape != (r, r):
            raise ValueError(f"coeff shape {coeff.shape} does not match rank {r}")
        if not np.isfinite(coeff).all():
            raise ValueError("coefficient matrix has entries that are not finite")
        scale, dev, coeff = _hermitian_part(coeff)
        if dev > HERMITICITY_TOL * scale:
            raise ValueError("coefficient matrix is not Hermitian")
        low = float(np.linalg.eigvalsh(coeff)[0])
        if low < WEIGHT_FLOOR * scale:
            raise ValueError(f"coefficient matrix has negative weight {low:.3e}")

        kets, dims = _stack_kets(terms)
        if not np.isfinite(kets).all():
            raise ValueError("product kets have entries that are not finite")
        norms = np.linalg.norm(kets, axis=2)
        if np.any(norms == 0.0):
            raise ValueError("zero factor vector")
        kets /= norms[:, :, None]
        # each term's norm product, as a log sum shifted so the largest is 1:
        # over thousands of modes the product itself leaves the float range
        logs = np.log(norms).sum(axis=0)
        scales = np.exp(logs - logs.max())
        coeff = coeff * np.outer(scales, scales)
        tr = _trace_product(coeff, _ket_gram(kets))
        if not tr > 0.0:
            raise ValueError(f"state trace {tr!r} is not positive")

        self = cls.__new__(cls)
        self.cutoffs = ModeCutoffs(dims)
        self.kets, self.coeff = kets, coeff / tr
        self._data = None
        self.tail = 0.0
        self._min_eigenvalue = None
        self._floor_checks = {}
        return self

    @classmethod
    def superposition(cls, terms, weights=None) -> DensityMatrix:
        """Pure product-form state sum_i w_i |Psi_i>."""
        r = len(terms)
        w = np.ones(r, dtype=complex) if weights is None else np.asarray(weights, dtype=complex)
        return cls.product(terms, np.outer(w, w.conj()))

    @classmethod
    def mixture(cls, terms, probs) -> DensityMatrix:
        return cls.product(terms, np.diag(np.asarray(probs, dtype=float)))

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(V, C) with rho = V C V^H for a product state, None for a dense one.

        Column i of V is the kron of term i's kets, so building it costs
        O(dim r); V is refused above ``MAX_FACTOR_ENTRIES`` entries, before
        any of it is built.
        """
        if self.kets is None:
            return None
        rank = self.coeff.shape[0]
        entries = self.dim * rank
        if entries > MAX_FACTOR_ENTRIES:
            raise ValueError(f"factor of {entries} entries exceeds the "
                             f"{MAX_FACTOR_ENTRIES} limit")
        V = np.ones((1, rank), dtype=complex)
        for u, d in zip(self.kets, self.cutoffs.cutoffs):
            V = (V[:, None, :] * u[:, :d].T).reshape(-1, rank)
        return V, self.coeff

    def to_dense(self) -> DensityMatrix:
        """The state itself: both forms are Fock-space states, and reading
        ``data`` builds a product state's dense matrix.  The benchmark's
        ``manymode`` workload (``perfbench/workloads.py``) still calls this."""
        return self

    @property
    def data(self) -> np.ndarray:
        """The dense matrix.  A product state's is built on first read by
        :func:`_outer_product_sum`: exactly Hermitian and within a few ulp of
        V C V^H."""
        if self._data is None:
            if self.dim > MAX_DENSE_DIM:
                raise ValueError(f"dense dimension {self.dim} exceeds the "
                                 f"{MAX_DENSE_DIM} limit")
            V, C = self.factors
            self._data = _outer_product_sum(V, C)
        return self._data

    @property
    def dim(self) -> int:
        return self.cutoffs.dim

    @property
    def modes(self) -> int:
        return self.cutoffs.modes

    def mean_number(self) -> float:
        """Tr(rho N); for a product state Tr(C X), X of ``_ket_number``."""
        if self.kets is not None:
            return _trace_product(self.coeff, _ket_number(self.kets))
        return float(np.real(self.data.diagonal() @ number_diagonal(self.cutoffs)))

    def purity(self) -> float:
        """Tr(rho^2); for a product state Tr(C G C G), G the Gram matrix of its terms."""
        if self.kets is not None:
            cg = self.coeff @ _ket_gram(self.kets)
            return _trace_product(cg, cg)
        # Tr(rho^2) = sum_ij |rho_ij|^2 because data is Hermitian; the float
        # view gives that sum without a transpose or a temporary
        flat = np.ascontiguousarray(self.data).view(np.float64)
        return float(np.einsum("ij,ij->", flat, flat))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the state, computed on first call and kept.

        A product state rho = V C V^H shares its nonzero eigenvalues with the
        r x r product C G, G = V^H V the Gram matrix of its terms, and has
        the eigenvalue 0 besides when dim > r; its dense matrix is not built.
        """
        if self._min_eigenvalue is None:
            if self.kets is None:
                low = float(np.linalg.eigvalsh(self.data)[0])
            else:
                low = float(np.linalg.eigvals(self.coeff @ _ket_gram(self.kets)).real.min())
                if self.dim > self.coeff.shape[0]:
                    low = min(low, 0.0)
            self._min_eigenvalue = low
        return self._min_eigenvalue

    def clears_floor(self, floor: float) -> bool:
        """Whether the smallest eigenvalue is at least ``floor``, decided once per floor.

        A dense state asks for one Cholesky factorization of rho - floor I,
        real when rho has no imaginary part, which succeeds when
        rho - floor I is positive definite; only when it
        fails is the smallest eigenvalue computed, which then decides.  A
        product state, or one whose smallest eigenvalue is known, compares
        that eigenvalue.
        """
        if floor not in self._floor_checks:
            clear = False
            if self.kets is None and self._min_eigenvalue is None:
                # a real matrix takes the real factorization, about 3x faster
                data = self.data
                shifted = data.copy() if data.imag.any() else data.real.copy()
                shifted.flat[::self.dim + 1] -= floor
                try:
                    np.linalg.cholesky(shifted)
                    clear = True
                except np.linalg.LinAlgError:
                    pass
            self._floor_checks[floor] = clear or self.min_eigenvalue() >= floor
        return self._floor_checks[floor]


def _stack_kets(terms) -> tuple[np.ndarray, tuple[int, ...]]:
    """The kets ``terms[i][m]`` as an (M, r, d_max) array, zero padded past
    each mode's dimension, and those dimensions.

    Terms that are all (M, d) arrays of one shape are stacked with one call,
    so no step walks the modes in Python; other terms, such as lists whose
    modes differ in size, are scattered into the padded array.
    """
    modes = len(terms[0])
    if modes == 0:
        raise ValueError("terms must have at least one mode")
    first = terms[0]
    if isinstance(first, np.ndarray) and first.ndim == 2 and all(
            isinstance(term, np.ndarray) and term.shape == first.shape for term in terms):
        return np.stack(terms, axis=1, dtype=complex), (first.shape[1],) * modes
    if any(len(term) != modes for term in terms):
        raise ValueError("terms have different numbers of modes")
    sizes = np.array([[len(u) for u in term] for term in terms])
    clash = np.nonzero((sizes != sizes[0]).any(axis=0))[0]
    if clash.size:
        m = int(clash[0])
        raise ValueError(f"mode {m} has inconsistent factor dimensions "
                         f"{sorted(set(sizes[:, m].tolist()))}")
    dims = sizes[0]
    stacked = np.zeros((modes, len(terms), int(dims.max())), dtype=complex)
    # C order of the masked entries is (mode, term, level): one scatter fills all
    held = np.arange(stacked.shape[2]) < dims[:, None, None]
    stacked[np.broadcast_to(held, stacked.shape)] = np.concatenate(
        [term[m] for m in range(modes) for term in terms])
    return stacked, tuple(int(d) for d in dims)


def _mode_last(kets: np.ndarray) -> np.ndarray:
    """The (M, r, d_max) kets as a contiguous (d_max, r, M) array u[k, i, m].

    With the mode axis last, a per-mode r x r quantity is one elementwise
    pass over all the modes; numpy runs a batched (M, r, d) @ (M, d, r)
    matmul as M separate tiny products.  Real kets, which every catalog
    product state has, come back as a float array: the same sums at a
    third of the cost.
    """
    return np.ascontiguousarray((kets if kets.imag.any() else kets.real).transpose(2, 1, 0))


def _mode_overlaps(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """sum_k conj(bra[k, i, m]) ket[k, j, m] of mode-last kets, as an (r, r, M) array."""
    return (bra.conj()[:, :, None] * ket[:, None]).sum(axis=0)


def _ket_gram(kets: np.ndarray) -> np.ndarray:
    """G_ij = <Psi_i|Psi_j> of the product kets ``kets[m, i]``: the product over
    the modes of the per-mode overlaps, formed with the mode axis last."""
    u = _mode_last(kets)
    return np.prod(_mode_overlaps(u, u), axis=-1)


def _ket_number(kets: np.ndarray) -> np.ndarray:
    """X_ij = <Psi_i| N |Psi_j> of the product kets ``kets[m, i]``, N the total number.

    Mode m contributes its matrix elements of n times the overlaps of all
    the other modes, the product of a prefix and a suffix of the per-mode
    overlaps, so no overlap is divided by and nothing dim-sized is built.
    Every step runs on (r, r, M) arrays with the mode axis last, one
    elementwise pass over the modes each: O(M r^2 d_max) in all.
    """
    u = _mode_last(kets)
    grams = _mode_overlaps(u, u)
    numbers = _mode_overlaps(u, u * np.arange(u.shape[0])[:, None, None])
    others = np.ones_like(grams)
    np.cumprod(grams[..., :-1], axis=-1, out=others[..., 1:])
    others[..., :-1] *= np.cumprod(grams[..., :0:-1], axis=-1)[..., ::-1]
    return (others * numbers).sum(axis=-1)


def _trace_product(x: np.ndarray, y: np.ndarray) -> float:
    """Re Tr(x y), without forming the product."""
    return float(np.real(np.einsum("ij,ji->", x, y)))


def _outer_product_sum(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """V C V^H for an exactly Hermitian r x r C, exactly Hermitian itself.

    With C = U diag(lam) U^H from ``eigh`` and b = V U diag(sqrt|lam|), the
    product is sum_k s_k b_k b_k^H, s_k the sign of lam_k.  ``eigh`` is
    backward stable, so a pair with |lam| at or below r eps max|lam| is
    round-off and is dropped (``numpy.linalg.matrix_rank``'s rule); the small
    negative weights that WEIGHT_FLOOR admits above it keep their sign.  With
    a = Re b and c = Im b, entry (i, j) has the real part
    sum_k s_k (a_i a_j + c_i c_j) and the imaginary part P_ij - P_ji with
    P_ij = sum_k s_k c_i a_j.  Each sum runs elementwise over k in the same
    order at (i, j) as at (j, i); a float product does not depend on the
    order of its factors, and swapping the operands of a difference only
    flips its sign, so rho_ji = conj(rho_ij) bit for bit with no transposed
    pass.  Real factors, which every catalog product
    state has, skip the imaginary half.

    The output starts as zeros and every strip of _STRIP_ENTRIES entries is
    written, also where b is zero, so the time and the resident memory of the
    build depend on dim and r alone, not on which rows the kets reach.  Sums
    of several terms are formed in three strips of scratch.
    """
    n, r = V.shape
    lam, U = np.linalg.eigh(C if C.imag.any() else C.real)
    keep = np.abs(lam) > r * np.finfo(float).eps * np.abs(lam).max()
    lam, U = lam[keep], U[:, keep]
    b = (V @ U) * np.sqrt(np.abs(lam))
    sign = np.sign(lam)[:, None]
    a, c = np.ascontiguousarray(b.real.T), np.ascontiguousarray(b.imag.T)
    sa, sc = sign * a, sign * c
    mixed = c.any()
    # the real part is the sum of the outer products of the rows of x and y
    x, y = (np.vstack([sa, sc]), np.vstack([a, c])) if mixed else (sa, a)
    out = np.zeros((n, n), dtype=complex)
    step = max(1, _STRIP_ENTRIES // n)
    scratch = np.empty((3, min(step, n), n))
    for i0 in range(0, n, step):
        rows = slice(i0, i0 + step)
        re, im = out.real[rows], out.imag[rows]
        plus, minus, spare = scratch[:, :re.shape[0]]
        if len(x) == 1:  # a single term goes straight into place
            np.multiply.outer(x[0, rows], y[0], out=re)
        else:
            re[...] = _sum_of_outers(x[:, rows], y, plus, spare)
        if mixed:
            np.subtract(_sum_of_outers(sc[:, rows], a, plus, spare),
                        _sum_of_outers(sa[:, rows], c, minus, spare), out=im)
    return out


def _sum_of_outers(x: np.ndarray, y: np.ndarray, acc: np.ndarray,
                   spare: np.ndarray) -> np.ndarray:
    """sum_k outer(x[k], y[k]), added in order of k, written into and returned as ``acc``."""
    np.multiply.outer(x[0], y[0], out=acc)
    for xk, yk in zip(x[1:], y[1:]):
        np.multiply.outer(xk, yk, out=spare)
        acc += spare
    return acc


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


def _ladder(cutoffs: ModeCutoffs, mode: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Where mode m sits in the flat index i, and how a_m moves it.

    Mode m has stride R = d_{m+1} ... d_{M-1} and level i // R % d_m at
    index i.  a_m takes index i + R to i with weight w_i = sqrt(level + 1),
    which is zero on the top level, where the shift would wrap into the next
    block of the modes before m; so w vanishes on the last R indices.
    Returns R and the levels and weights of all dim indices.
    """
    dims = cutoffs.cutoffs
    d = dims[mode]
    stride = math.prod(dims[mode + 1:])
    weight = np.sqrt(np.arange(1.0, d + 1.0))
    weight[-1] = 0.0
    # i // R % d without integer division: each level R times, d levels a block
    level = np.tile(np.repeat(np.arange(d), stride), cutoffs.dim // (d * stride))
    return stride, level, weight[level]


def number_diagonal(cutoffs, mode: int | None = None) -> np.ndarray:
    """Diagonal of the number operator (one mode, or the total when mode is None)."""
    cutoffs = as_cutoffs(cutoffs)
    modes = range(cutoffs.modes) if mode is None else [mode]
    return sum(_ladder(cutoffs, m)[1] for m in modes).astype(float)


def number_op(cutoffs) -> np.ndarray:
    return np.diag(number_diagonal(cutoffs)).astype(complex)


def shift_weights(cutoffs, mode: int) -> tuple[int, np.ndarray]:
    """The stride R and the weights W that write a_m rho a_m^dag as one 2-D shift.

    With R and w of ``_ladder``, (a_m rho a_m^dag)[:n-R, :n-R] = W * rho[R:, R:]
    and the rest is zero; W is the outer product of w[:n-R] with itself and
    holds (n - R)^2 floats.
    """
    cutoffs = as_cutoffs(cutoffs)
    stride, _, w = _ladder(cutoffs, mode)
    w = w[:cutoffs.dim - stride]
    return stride, np.multiply.outer(w, w)


def a_rho_adag(rho: np.ndarray, cutoffs, mode: int) -> np.ndarray:
    """Compute a_m rho a_m^dag by the 2-D shift of ``shift_weights``.

    Entry (i, j) of mode m takes sqrt((i+1)(j+1)) rho[.., i+1, ..; .., j+1, ..]
    and the top level is left empty.  The weights are built for each call;
    a caller that applies the same shift many times builds them once.
    """
    rho = np.asarray(rho)
    stride, weights = shift_weights(cutoffs, mode)
    out = np.zeros(rho.shape, dtype=rho.dtype)
    n = rho.shape[0] - stride
    np.multiply(weights, rho[stride:, stride:], out=out[:n, :n])
    return out


def exchange_trace(rho: np.ndarray, cutoffs, mode: int) -> float:
    """Tr(a_m rho a_m^dag rho) for a Hermitian rho, as one 2-D shift of rho.

    With the stride R and the weights w of ``_ladder`` and rho_ji =
    conj(rho_ij), the trace is sum_i w_i sum_y w_y Re(rho[i+R, y+R]
    conj(rho[i, y])) over i, y < dim - R.  The real part is read from the
    float view of rho, where it is the sum of the products of the real and
    of the imaginary parts, so nothing is conjugated, and a C-contiguous
    complex rho is not copied.
    """
    stride, _, w = _ladder(as_cutoffs(cutoffs), mode)
    return _exchange_trace(rho, stride, w)


def _exchange_trace(rho: np.ndarray, stride: int, w: np.ndarray) -> float:
    """``exchange_trace`` from the stride and weights of the mode's ``_ladder``."""
    n = rho.shape[0] - stride
    w = w[:n]
    flat = np.ascontiguousarray(rho, dtype=complex).view(np.float64)
    upper, lower = flat[stride:, 2 * stride:], flat[:n, :2 * n]
    return float(np.einsum("iy,iy,y->i", upper, lower, np.repeat(w, 2)) @ w)


def factored_exchange_trace(V: np.ndarray, C: np.ndarray, cutoffs, mode: int) -> float:
    """Tr(a_m rho a_m^dag rho) for rho = V C V^H, as Tr(A C A^H C) with A = V^H a_m V.

    a_m V is the shift of ``_ladder`` on the rows of V, so
    A = V[:n-R]^H (w * V[R:]) costs O(dim r^2) and the trace is r x r algebra.
    """
    stride, _, w = _ladder(as_cutoffs(cutoffs), mode)
    return _factored_exchange_trace(V, C, stride, w)


def _factored_exchange_trace(V: np.ndarray, C: np.ndarray, stride: int,
                             w: np.ndarray) -> float:
    """``factored_exchange_trace`` from the stride and weights of the mode's ``_ladder``."""
    n = V.shape[0] - stride
    A = V[:n].conj().T @ (w[:n, None] * V[stride:])
    return _trace_product(A @ C, A.conj().T @ C)


def _displaced_columns(r: np.ndarray, k: np.ndarray, nmax: np.ndarray):
    """Yield (n, f) with f[i, j] = <n+k_i| D(r_j) |n> for real r_j > 0.

    ``k`` lists the diagonals, ascending, and ``nmax[i]`` is how many levels n
    diagonal k_i needs.  At level n, f covers the diagonals up to the last one
    that still needs level n, so its row count never grows, and the generator
    stops after the last level any diagonal needs.  The normalized three-term
    recurrence in n runs for all the diagonals at once and stays bounded by 1
    in magnitude (the elements belong to a unitary), so there is no overflow
    for any cutoff or radius of practical interest.  A seed <k|D(r)|0> below
    e^_SEED_FLOOR (r^2 past about 1400 at small k) is carried as m 2^-e with
    m near 1 and an integer lift e, which is folded back by exact powers of
    two as the recurrence grows the entry, so such a diagonal still reads its
    true values further out.  Three buffers rotate, so a yielded f is only
    safe to read until the generator advances.
    """
    r = np.asarray(r, dtype=float)
    nmax = np.asarray(nmax)
    x = r * r
    kk = np.asarray(k, dtype=float)[:, None]
    logf = -0.5 * x + kk * np.log(r) - 0.5 * gammaln(kk + 1.0)
    lift = None
    if logf.min(initial=0.0) < _SEED_FLOOR:
        lift = np.where(logf < _SEED_FLOOR, np.floor(-logf / _LN2_HI), 0.0)
        # e ln 2 = e (hi + lo) exactly enough that the seed keeps full precision
        logf = (logf + lift * _LN2_HI) + lift * _LN2_LO
        lift = lift.astype(np.int64)
        true = np.empty_like(logf)
    f = np.exp(logf)
    fm1 = np.zeros_like(f)
    spare = np.empty_like(f)
    for n in range(int(nmax.max(initial=0))):
        rows = int(np.nonzero(nmax > n)[0][-1]) + 1
        f, fm1, spare, kk = f[:rows], fm1[:rows], spare[:rows], kk[:rows]
        if lift is None:
            yield n, f
        else:
            # fold back as much of the lift as keeps the entry below 1
            lift = lift[:rows]
            drop = np.minimum(lift, np.maximum(np.frexp(f)[1], 0))
            np.ldexp(f, -drop, out=f)
            np.ldexp(fm1, -drop, out=fm1)
            lift -= drop
            yield n, np.ldexp(f, -lift, out=true[:rows])
            if not lift.any():
                lift = None
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
    if leak > LEAK_TOL:
        raise TruncationLeakError(
            f"displacement leaks {leak:.3e} of the trace past the cutoff; "
            "increase the Fock dimension")
    return DensityMatrix(cut, rho)


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
    return DensityMatrix(cut, u[:, None] * state.data * u.conj()[None, :])
