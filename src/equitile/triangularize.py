"""Block-diagonal unitary transforms that (approximately) block triangularize.

Given a square matrix A and an admissible weighted indicator W, a block
diagonal unitary H (one elementary unitary per cell) plus a gathering
permutation turn A into

    A_hat = Omega' H' A H Omega = [[E, Dp'], [Dm, F]]

where E is k-by-k and unitarily similar to the Rayleigh quotient, and the
off-diagonal blocks carry exactly the singular values of the front/rear
deviation matrices. Everything is exact: assembling the four blocks
reproduces the transformed matrix, which is unitarily similar to A.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import opcount
from .errors import InputError, NumericalError
from .partition import (
    _BLOCK_ENTRIES,
    Partition,
    WeightedIndicator,
    _Layout,
    _Sums,
    _cell_sums,
    _layout,
    _square,
    require_admissible,
    suitable_indexing_permutation,
)
from .rectangular import _BlockForm, _gather_blocks, omega_nr_permutation
from .reflector import ElementaryUnitary, beta0, build_reflector, _check_phase

#: E or F counts as Hermitian, and is solved by eigvalsh, when
#: max|M - M'| <= EIG_HERMITIAN_RTOL * max(1, max|M|)
EIG_HERMITIAN_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class QuotientMatrix:
    """k-by-k quotient E^alpha; all alphas are similar to each other."""

    alpha: float
    entries: np.ndarray


def generalized_quotient(A, wi: WeightedIndicator, alpha: float) -> QuotientMatrix:
    """E^alpha = (W'W)^{-(1-alpha)/2} W'AW (W'W)^{-(1+alpha)/2}.

    alpha = -1 gives the front quotient (weighted row aggregates), +1 the
    rear quotient, 0 the Rayleigh quotient. The Gram matrix W'W is diagonal
    with the squared cell weight norms, so only scalar powers are taken.
    W'AW is the cell sums of one front aggregate pass, O(N^2) whatever k.
    """
    alpha = float(alpha)
    return QuotientMatrix(alpha=alpha, entries=_Sums(A, wi).quotient(alpha))


@dataclass(frozen=True, eq=False)
class DeviationMatrix:
    """Blockwise equitability residuals, assembled as an N-by-k matrix.

    Front block (i, j) has length n_i and lives in rows of cell i, column j;
    rear block (i, j) has length n_j and lives in rows of cell j, column i.
    The matrix is zero exactly when the respective equitability holds, and
    every block norm is invariant under rescaling weight blocks.
    """

    side: str
    assembled: np.ndarray
    partition: Partition

    @cached_property
    def blocks(self) -> tuple[Sequence[np.ndarray], ...]:
        """blocks[i][j] is the deviation vector of block (i, j), built on demand."""
        T = self.assembled
        if self.side == "front":
            return tuple(T[list(c)].T for c in self.partition.cells)
        lay = _layout(self.partition)
        return tuple(np.split(T[lay.order, i], lay.starts[1:]) for i in range(T.shape[1]))


def deviation_matrices(A, wi: WeightedIndicator) -> tuple[DeviationMatrix, DeviationMatrix]:
    """Front and rear deviation matrices of A with respect to wi.

    T_front = (A W - W E_front) (W'W)^{-1/2}
    T_rear  = (A' W - W E_rear') (W'W)^{-1/2}

    Each side is one aggregate pass (A W, resp. A' W, in layout rows) whose
    residual is scattered back to the original row order.
    """
    return tuple(DeviationMatrix(side, T, wi.partition) for side, T in _Sums(A, wi).deviations())


@dataclass(frozen=True, eq=False)
class BlockReflector:
    """Block diagonal unitary: one elementary unitary per cell.

    Acts in the block-contiguous layout of the partition. Stacked, H is
    I + Y diag(c) Y' with Y the N-by-k block diagonal of the cells' unit
    vectors, and every application is one rank-one kernel whose Y'X is a
    weighted segment sum over the layout: storage is O(N), and applying it
    to an N-by-m matrix costs O(N m) whatever k.
    """

    reflectors: tuple[ElementaryUnitary, ...]
    phases: tuple[complex, ...]
    partition: Partition

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.partition.sizes

    @property
    def n(self) -> int:
        return self.partition.n

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, _Layout]:
        """Stacked unit vectors y (zero on identity cells), coefficients c, layout."""
        y = np.concatenate([np.zeros(h.dim) if h.y is None else h.y for h in self.reflectors])
        return y, np.array([h.coeff for h in self.reflectors]), _layout(self.partition)

    def _rank_one(self, X: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
        """X += Y diag(c) Y' X in place for an N-by-m X, in column blocks of
        _BLOCK_ENTRIES entries so the temporaries are of the block size."""
        lay = self._stacked[2]
        yc = (c[lay.labels] * y)[:, None]
        step = max(1, _BLOCK_ENTRIES // self.n)
        for a in range(0, X.shape[1], step):
            blk = X[:, a:a + step]
            blk += yc * _cell_sums(blk, lay, y)[lay.labels]
        opcount.add(2 * X.size + self.n)
        return X

    def _cast(self, M, axis: int, ndims=(2,), copy: bool = True) -> np.ndarray:
        """M checked to have N entries along axis, in the dtype of H M."""
        M = np.asarray(M)
        if M.ndim not in ndims or M.shape[axis] != self.n:
            what = "rows" if axis == 0 else "columns"
            raise InputError(f"array with {self.n} {what} required, got {M.shape}")
        y, c, _ = self._stacked
        return M.astype(np.result_type(M.dtype, y.dtype, c.dtype), copy=copy)

    def _conjugate_in_place(self, X: np.ndarray) -> np.ndarray:
        """X <- H' X H: H' = I + Y diag(conj c) Y' on the rows of X, then
        H^T = I + conj(Y) diag(c) Y^T on the rows of X^T."""
        y, c, _ = self._stacked
        self._rank_one(X, y, c.conj())
        self._rank_one(X.T, y.conj(), c)
        return X

    def apply_left(self, M) -> np.ndarray:
        """H' M, for M with N rows."""
        y, c, _ = self._stacked
        return self._rank_one(self._cast(M, 0), y, c.conj())

    def apply_right(self, M) -> np.ndarray:
        """M H, for M with N columns."""
        y, c, _ = self._stacked
        out = self._cast(M, 1)
        self._rank_one(out.T, y.conj(), c)
        return out

    def conjugate(self, A) -> np.ndarray:
        """H' A H, for an N-by-N A."""
        return self._conjugate_in_place(self._cast(_square(A, self.n), 0))

    def matvec(self, v) -> np.ndarray:
        """H v for a vector of length N, or H V for a matrix V with N rows."""
        y, c, _ = self._stacked
        out = self._cast(v, 0, (1, 2))
        self._rank_one(out if out.ndim == 2 else out[:, None], y, c)
        return out

    def dense(self) -> np.ndarray:
        return self.matvec(np.eye(self.n))


def build_block_reflector(wi: WeightedIndicator, phases="auto") -> BlockReflector:
    """One elementary unitary per cell, built from the cell weight blocks.

    "auto" picks the default phase of each weight block. The result acts on
    suitably indexed (block-contiguous) matrices.
    """
    require_admissible(wi)
    k = wi.partition.k
    blocks = [wi.cell_weights(i) for i in range(k)]
    if phases is None or isinstance(phases, str):
        if phases not in (None, "auto"):
            raise InputError(f"phases must be 'auto' or a sequence, got {phases!r}")
        betas = tuple(beta0(b) for b in blocks)
    else:
        betas = tuple(_check_phase(b) for b in phases)
        if len(betas) != k:
            raise InputError(f"expected {k} phases, got {len(betas)}")
    refl = tuple(build_reflector(b, beta) for b, beta in zip(blocks, betas))
    return BlockReflector(reflectors=refl, phases=betas, partition=wi.partition)


def omega_permutation(n_sizes: Sequence[int]) -> np.ndarray:
    """Forward map gathering the first index of each block into the front.

    For block sizes (n_1, .., n_k), position offset_i maps to i, and the
    remaining indices keep their relative order in the trailing positions.
    """
    sizes = [int(s) for s in n_sizes]
    if len(sizes) == 0:
        raise InputError("at least one block size required")
    if any(s < 1 for s in sizes):
        raise InputError(f"block sizes must be positive, got {sizes}")
    return omega_nr_permutation([1] * len(sizes), sizes)


@dataclass(frozen=True, eq=False)
class TriangularizationResult(_BlockForm):
    """The four blocks of Omega' H' P' A P H Omega plus all transforms.

    pre_permutation is the suitable-indexing relabeling applied first,
    omega the block-gathering map; both are forward maps. The reflector
    lives in the suitably indexed frame.
    """

    reflector: BlockReflector
    omega: np.ndarray
    pre_permutation: np.ndarray
    indicator: WeightedIndicator

    @property
    def n(self) -> int:
        return self.E.shape[0] + self.F.shape[0]

    @property
    def k(self) -> int:
        return self.E.shape[0]

    @cached_property
    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted eigenvalues of E and of F, read-only, solved on first use.

        A block that is not Hermitian takes its values from eigenpairs when
        that was solved first.
        """
        solved = self.__dict__.get("eigenpairs", (None, None))
        out = tuple(np.sort_complex(_eigvals(M, pair))
                    for M, pair in zip((self.E, self.F), solved))
        for s in out:
            s.setflags(write=False)
        return out

    @cached_property
    def eigenpairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(values, vectors) of np.linalg.eig for E and for F, read-only, solved on first use."""
        empty = np.zeros(0, complex), np.zeros((0, 0))
        try:
            out = tuple(tuple(np.linalg.eig(M)) if M.size else empty for M in (self.E, self.F))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
        for arr in (arr for pair in out for arr in pair):
            arr.setflags(write=False)
        return out

    @cached_property
    def tau_spec(self) -> float:
        """||A_hat - blkdiag(E, F)||_2: the largest singular value over D_minus
        and D_plus_conj, taken on first use."""
        blocks = (self.D_minus, self.D_plus_conj)
        return max(float(_singular_values(D).max(initial=0.0)) for D in blocks)


def block_triangularize(A, wi: WeightedIndicator, phases="auto") -> TriangularizationResult:
    """Run the full pipeline: relabel, conjugate by H, gather with Omega.

    The suitable-indexing permutation is applied first so non-contiguous
    partitions are accepted; the reflector is then built from the permuted
    weight blocks and applied in O(N^2) whatever k.
    """
    p = wi.partition
    A = _square(A, p.n)
    k = p.k
    sizes = p.sizes

    perm = suitable_indexing_permutation(p)
    inv = np.argsort(perm)
    contiguous = Partition(tuple(np.split(np.arange(p.n), np.cumsum(sizes)[:-1])))
    refl = build_block_reflector(WeightedIndicator(contiguous, wi.weights[inv]), phases)

    # the one N-by-N working array: the relabelled copy, conjugated in place
    At = refl._conjugate_in_place(refl._cast(A[np.ix_(inv, inv)], 0, copy=False))
    om = omega_permutation(sizes)
    return TriangularizationResult(
        *_gather_blocks(At, om, om, k, k),
        reflector=refl,
        omega=om,
        pre_permutation=perm,
        indicator=wi,
    )


def recover_eigenvector(r: TriangularizationResult, z_hat) -> np.ndarray:
    """Map eigenvectors of the transformed matrix back to eigenvectors of A.

    Takes one vector of length N or an N-by-m matrix of column vectors and
    applies Omega, then H, then undoes the suitable-indexing relabeling.
    """
    z = np.asarray(z_hat)
    if z.ndim not in (1, 2) or z.shape[0] != r.n:
        raise InputError(f"array of 1 or 2 dimensions with {r.n} rows required, got {z.shape}")
    return r.reflector.matvec(z[r.omega])[r.pre_permutation]


def _is_hermitian(M: np.ndarray, rtol: float) -> bool:
    """max|M - M'| <= rtol * max(1, max|M|); a NaN entry makes it False."""
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    return bool(np.abs(M - M.conj().T).max(initial=0.0) <= rtol * scale)


def _singular_values(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc


def _eigvals(M: np.ndarray, pair=None) -> np.ndarray:
    """eigvalsh if M is Hermitian, else the values of its eig pair if given, else eigvals."""
    if M.size == 0:
        return np.zeros(0, dtype=complex)
    try:
        if _is_hermitian(M, EIG_HERMITIAN_RTOL):
            return np.linalg.eigvalsh((M + M.conj().T) / 2.0).astype(complex)
        return np.linalg.eigvals(M) if pair is None else pair[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SpectrumSplit:
    eigs_E: np.ndarray
    eigs_F: np.ndarray
    exact: bool


def spectrum_split(r: TriangularizationResult, tol: float = 1e-10) -> SpectrumSplit:
    """Eigenvalues of E and F; exact when both off-diagonal blocks vanish.

    When exact, the multiset union of the two spectra is the spectrum of A.
    """
    eigs_E, eigs_F = r.spectra
    off = max(np.linalg.norm(r.D_minus), np.linalg.norm(r.D_plus_conj))
    return SpectrumSplit(eigs_E=eigs_E, eigs_F=eigs_F, exact=bool(off <= tol))


def spectrum_gap(a, b) -> float:
    """Largest gap of a greedy nearest-neighbor matching of two multisets.

    Both multisets must have equal cardinality. This is the comparison
    semantics used for duplicate-eigenvalue multiset equality up to a
    tolerance.
    """
    a = np.sort_complex(np.asarray(a, dtype=complex).ravel())
    b = np.asarray(b, dtype=complex).ravel()
    if len(a) != len(b):
        raise InputError(f"multisets differ in size: {len(a)} vs {len(b)}")
    worst, taken = 0.0, np.zeros(len(b), dtype=bool)
    for z in a:
        diffs = np.abs(b - z)
        diffs[taken] = np.inf  # the first nearest entry of b not yet matched
        i = int(np.argmin(diffs))
        worst = max(worst, float(diffs[i]))
        taken[i] = True
    return worst
