"""Complex elementary unitary matrices as rank-one updates of the identity,
one cell or many.

An elementary unitary H maps the first standard basis vector f into the
direction of a prescribed vector x:

    H f = (beta / ||x||) x        H' x = (||x|| / beta) f

where beta is a free unit-modulus phase. For real x and beta = -sign(x[0])
this reduces to the classic Householder reflector. H is stored as
H = I + coeff * y y' with a unit vector y, so storage is O(n) and
application to an n-by-m matrix costs O(n m).

The block transform has one such unitary per cell of a partition. Stacked,
they form H = I + Y diag(c) Y' with Y the N-by-k block diagonal of the
cells' unit vectors: the storage-efficient form of Schreiber & Van Loan
(SIAM J. Sci. Stat. Comput. 10, 1989). _build makes every cell's y and c
at once from the cells' vectors laid end to end, in a fixed number of numpy
calls whatever the number of cells, and BlockReflector applies them.
build_reflector returns the one-cell BlockReflector; coeffs[0] == 0 marks
its identity branch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcount
from .errors import InputError
from .partition import (_BLOCK_ENTRIES, Partition, _abs2, _cell_sums, _layout, _matrix,
                        _pow2_scale, _square, _vector)

#: elementwise tolerance (relative to ||x||) for the identity branch,
#: where the rank-one denominator vanishes exactly
BRANCH_TOL = 1e-14

PHASE_TOL = 1e-12

#: the segment starts of one cell
_ONE_CELL = np.zeros(1, dtype=np.intp)


def _check_phases(phases, k: int) -> np.ndarray:
    """The k given phases as a complex array, each finite and of unit modulus."""
    beta = _vector(phases, k, "phases").astype(complex)
    modulus = np.abs(beta)
    bad = np.abs(modulus - 1.0) > PHASE_TOL
    if bad.any():
        raise InputError(f"phase must have unit modulus, got |beta| = {float(modulus[bad][0])!r}")
    return beta


def _default_phases(x0: np.ndarray) -> np.ndarray:
    """-conj(x0)/|x0| for each cell's first entry x0, or 1 where x0 = 0.

    Avoids cancellation in the rank-one denominator and coincides with the
    standard sign convention for real Householder vectors. The phase is
    taken from x0/max(|Re x0|, |Im x0|), so subnormal and huge entries do
    not overflow.
    """
    s = np.maximum(np.abs(x0.real), np.abs(x0.imag))
    nz = s > 0
    beta = np.ones(x0.size, dtype=complex)
    ur, ui = x0.real[nz] / s[nz], x0.imag[nz] / s[nz]
    u = np.hypot(ur, ui)
    beta.real[nz], beta.imag[nz] = -ur / u, ui / u
    return beta


def _build(x: np.ndarray, starts: np.ndarray, phases=None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The elementary unitary of every cell at once, as read-only arrays (y, c, beta).

    x holds the cells' finite vectors one after another, cell i from
    starts[i]; phases gives one unit-modulus phase per cell, or None for the
    default. y stacks the cells' unit vectors and c holds their
    coefficients; both are zero on a cell that takes the identity branch,
    which it does when x/||x|| equals conj(beta) f elementwise within
    BRANCH_TOL * ||x||, where the rank-one denominator vanishes exactly.
    y and c are real when x and every phase are.

    H depends on the direction of x only, so each cell is first scaled by
    the power of two that brings its largest component into [0.5, 1)
    (_pow2_scale): any finite nonzero cell works.
    """
    sizes = np.diff(starts, append=x.size)
    beta = _default_phases(x[starts]) if phases is None else _check_phases(phases, sizes.size)
    real = x.dtype.kind == "f" and not beta.imag.any()
    b = beta.real if real else beta
    y = x.astype(b.dtype)
    _pow2_scale(y, starts)
    x0 = y[starts]
    energy = _abs2(y)
    energy[starts] = 0.0
    tail = np.add.reduceat(energy, starts)
    nrm = np.sqrt(np.abs(x0) ** 2 + tail)
    if not nrm.all():
        raise InputError("cannot build a reflector from the zero vector")

    # pivot w = beta*x[0] - ||x||, computed without cancellation where the
    # two terms nearly agree: the difference then carries only the tail
    # energy and the imaginary part of beta*x[0]
    z = b * x0
    w = z - nrm
    near = z.real > 0
    zn, tn = z[near], tail[near]
    w[near] = (-tn if real else 2j * zn * zn.imag - tn) / (zn + nrm[near])
    y[starts] = np.conj(b) * w

    ident = np.maximum.reduceat(np.abs(y), starts) <= BRANCH_TOL * nrm
    ynrm = np.sqrt(np.add.reduceat(_abs2(y), starts))
    c = np.zeros_like(b)
    c[~ident] = ynrm[~ident] ** 2 / (nrm * np.conj(w))[~ident]
    ynrm[ident] = np.inf  # zeroes the identity cells' vectors
    y /= np.repeat(ynrm, sizes)
    for arr in (y, c, beta):
        arr.setflags(write=False)
    return y, c, beta


def beta0(x) -> complex:
    """Default phase choice: -conj(x[0])/|x[0]|, or 1 when x[0] = 0."""
    return complex(_default_phases(_vector(x)[:1])[0])


def gamma(x, beta) -> float:
    """Skew parameter of the elementary unitary sending f towards x.

    gamma(x, beta) = pinv(||x|| - Re(beta*x[0])) * Im(beta*x[0]), where the
    scalar pseudo-inverse maps 0 to 0.
    """
    x = _vector(x).copy()
    _pow2_scale(x)
    nrm = np.linalg.norm(x)
    if nrm == 0:
        raise InputError("gamma is undefined for the zero vector")
    z = complex(_check_phases([beta], 1)[0] * x[0])
    a = nrm - z.real
    return 0.0 if a == 0 else z.imag / a


@dataclass(frozen=True, eq=False)
class BlockReflector:
    """Block diagonal unitary: one elementary unitary per cell.

    Acts in the block-contiguous layout of the partition as
    H = I + Y diag(c) Y', with Y the N-by-k block diagonal of the cells'
    unit vectors stacked in vectors (zero on identity cells), c in coeffs
    and each cell's phase in phases. Every application is one rank-one
    kernel whose Y'X is a weighted segment sum over the layout: storage is
    O(N), and applying it to an N-by-m matrix costs O(N m) whatever k.
    """

    vectors: np.ndarray
    coeffs: np.ndarray
    phases: np.ndarray
    partition: Partition

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.partition.sizes

    @property
    def n(self) -> int:
        return self.partition.n

    def _rank_one(self, X: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
        """X += Y diag(c) Y' X in place for an N-vector or N-by-m X, in column
        blocks of _BLOCK_ENTRIES entries so the temporaries are of the block size."""
        lay = _layout(self.partition)
        yc = (c[lay.labels] * y)[:, None]
        M = X if X.ndim == 2 else X[:, None]
        step = max(1, _BLOCK_ENTRIES // self.n)
        for a in range(0, M.shape[1], step):
            blk = M[:, a:a + step]
            blk += yc * _cell_sums(blk, lay.starts, y)[lay.labels]
        opcount.add(2 * X.size + self.n)
        return X

    def _dtype(self, M: np.ndarray) -> np.dtype:  # of H M
        return np.result_type(M.dtype, self.vectors.dtype, self.coeffs.dtype)

    def _cast(self, M, axis: int = 0, vector: bool = False) -> np.ndarray:
        """A copy of M in the dtype of H M, checked by _matrix to have N entries
        along axis, or by _vector to be an N-vector when vector allows a 1-d M."""
        M = np.asarray(M)
        if vector and M.ndim == 1:
            M = _vector(M, self.n)
        elif (M := _matrix(M)).shape[axis] != self.n:
            what = "rows" if axis == 0 else "columns"
            raise InputError(f"array with {self.n} {what} required, got {M.shape}")
        return M.astype(self._dtype(M))

    def _conjugate_in_place(self, X: np.ndarray) -> np.ndarray:
        """X <- H' X H: H' = I + Y diag(conj c) Y' on the rows of X, then
        H^T = I + conj(Y) diag(c) Y^T on the rows of X^T."""
        self._rank_one(X, self.vectors, self.coeffs.conj())
        self._rank_one(X.T, self.vectors.conj(), self.coeffs)
        return X

    def apply_left(self, M) -> np.ndarray:
        """H' M, for M with N rows."""
        return self._rank_one(self._cast(M), self.vectors, self.coeffs.conj())

    def apply_right(self, M) -> np.ndarray:
        """M H, for M with N columns."""
        out = self._cast(M, 1)
        self._rank_one(out.T, self.vectors.conj(), self.coeffs)
        return out

    def conjugate(self, A) -> np.ndarray:
        """H' A H, for an N-by-N A."""
        A = _square(A, self.n)
        return self._conjugate_in_place(A.astype(self._dtype(A)))

    def matvec(self, v) -> np.ndarray:
        """H v for a vector of length N, or H V for a matrix V with N rows."""
        return self._rank_one(self._cast(v, vector=True), self.vectors, self.coeffs)

    def dense(self) -> np.ndarray:
        return self.matvec(np.eye(self.n))


def build_reflector(x, beta=None) -> BlockReflector:
    """Construct the elementary unitary H with H f = (beta/||x||) x.

    Parameters
    ----------
    x : complex vector, ||x|| > 0
    beta : unit-modulus scalar, or None for the default beta0(x)

    The identity branch (coeffs[0] == 0) is taken when x/||x|| equals
    conj(beta) f elementwise within BRANCH_TOL * ||x||; there the rank-one
    denominator vanishes exactly. H depends on the direction of x only, so
    x is first scaled by a power of two: any finite nonzero x works. This
    is the one-cell BlockReflector.
    """
    x = _vector(x)
    y, c, phases = _build(x, _ONE_CELL, None if beta is None else [beta])
    return BlockReflector(y, c, phases, Partition.single_cell(x.size))
