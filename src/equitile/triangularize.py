"""Block-diagonal unitary transforms that (approximately) block triangularize.

Given a square matrix A and an admissible weighted indicator W, a block
diagonal unitary H (one elementary unitary per cell) plus a gathering
permutation turn A into

    A_hat = Omega' H' A H Omega = [[E, Dp'], [Dm, F]]

where E is k-by-k and unitarily similar to the Rayleigh quotient, and the
off-diagonal blocks carry exactly the singular values of the front/rear
deviation matrices. Everything is exact: A_hat is stored once, unitarily
similar to A, and its four blocks are read-only views of it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError
from .partition import (
    Partition,
    WeightedIndicator,
    _Sums,
    _finite,
    _frobenius,
    _layout,
    _square,
    _tolerance,
    require_admissible,
    suitable_indexing_permutation,
)
from .rectangular import _BlockForm, omega_nr_permutation
from .reflector import BlockReflector, _build

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
    alpha = _finite(alpha, "alpha")
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
        lay = _layout(self.partition)
        T = self.assembled[lay.order]
        if self.side == "front":
            return tuple(X.T for X in np.split(T, lay.starts[1:]))
        return tuple(np.split(col, lay.starts[1:]) for col in T.T)


def deviation_matrices(A, wi: WeightedIndicator) -> tuple[DeviationMatrix, DeviationMatrix]:
    """Front and rear deviation matrices of A with respect to wi.

    T_front = (A W - W E_front) (W'W)^{-1/2}
    T_rear  = (A' W - W E_rear') (W'W)^{-1/2}

    Each side is one aggregate pass (A W, resp. A' W, in layout rows) whose
    residual is scattered back to the original row order.
    """
    return tuple(DeviationMatrix(side, T, wi.partition) for side, T in _Sums(A, wi).deviations())


def build_block_reflector(wi: WeightedIndicator, phases=None) -> BlockReflector:
    """One elementary unitary per cell, all built at once from the cell weight blocks.

    phases gives one unit-modulus phase per cell, or None for the default
    phase of each weight block. It acts in the suitably indexed frame, on
    A[inv, inv] for inv = argsort(suitable_indexing_permutation(wi.partition)):
    its partition is the contiguous one of wi's cell sizes. block_triangularize uses it.
    """
    require_admissible(wi)
    p = wi.partition
    inv = np.argsort(suitable_indexing_permutation(p))
    y, c, betas = _build(wi.weights[inv], p.starts, phases)
    return BlockReflector(y, c, betas, Partition._of(np.arange(p.n), p.starts))


def omega_permutation(n_sizes: Sequence[int]) -> np.ndarray:
    """Forward map gathering the first index of each block into the front.

    For block sizes (n_1, .., n_k), position offset_i maps to i, and the
    remaining indices keep their relative order in the trailing positions.
    """
    n_sizes = list(n_sizes)
    return omega_nr_permutation([1] * len(n_sizes), n_sizes)


@dataclass(frozen=True, eq=False)
class TriangularizationResult(_BlockForm):
    """A_hat = Omega' H' P' A P H Omega, cut after q = r = k, plus all transforms.

    pre_permutation is the suitable-indexing relabeling applied first,
    omega the block-gathering map; both are forward maps. The reflector
    lives in the suitably indexed frame.
    """

    reflector: BlockReflector
    omega: np.ndarray
    pre_permutation: np.ndarray

    @property
    def n(self) -> int:
        return self.A_hat.shape[0]

    @property
    def k(self) -> int:
        return self.q

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


def block_triangularize(A, wi: WeightedIndicator, phases=None) -> TriangularizationResult:
    """Run the full pipeline: relabel, conjugate by H, gather with Omega.

    The suitable-indexing permutation is applied first so non-contiguous
    partitions are accepted; the reflector is build_block_reflector(wi,
    phases), which acts in that frame, applied in O(N^2) whatever k.
    """
    p = wi.partition
    A = _square(A, p.n)
    refl = build_block_reflector(wi, phases)
    perm = suitable_indexing_permutation(p)
    inv = np.argsort(perm)

    # the N-by-N working array: the relabelled copy, conjugated in place and
    # gathered once into A_hat
    At = A[np.ix_(inv, inv)]
    At = refl._conjugate_in_place(At.astype(refl._dtype(At), copy=False))
    om = omega_permutation(p.sizes)
    gather = np.argsort(om)
    return TriangularizationResult(
        At[np.ix_(gather, gather)], p.k, p.k,
        reflector=refl,
        omega=om,
        pre_permutation=perm,
    )


def recover_eigenvector(r: TriangularizationResult, z_hat) -> np.ndarray:
    """Map eigenvectors of the transformed matrix back to eigenvectors of A.

    Takes one vector of length N or an N-by-m matrix of column vectors and
    applies Omega, then H, then undoes the suitable-indexing relabeling.
    """
    refl = r.reflector
    z = refl._cast(z_hat, vector=True)[r.omega]
    return refl._rank_one(z, refl.vectors, refl.coeffs)[r.pre_permutation]


def _is_hermitian(M: np.ndarray, rtol: float) -> bool:
    """max|M - M'| <= rtol * max(1, max|M|); a NaN entry makes it False."""
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    # M - M' here and (M + M')/2 in _hermitian_part are each formed in one
    # array of the size of M: these temporaries set the peak memory of
    # spectrum_split
    D = np.conj(M.T)
    np.subtract(M, D, out=D)
    return bool(np.abs(D).max(initial=0.0) <= rtol * scale)


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M')/2 as a new floating array, formed in place of M'."""
    H = np.conj(M.T, dtype=np.result_type(M.dtype, 2.0))
    H += M
    H /= 2.0
    return H


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
            return np.linalg.eigvalsh(_hermitian_part(M)).astype(complex)
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
    tol must be a finite number >= 0.
    """
    tol = _tolerance(tol)
    eigs_E, eigs_F = r.spectra
    off = max(_frobenius(r.D_minus), _frobenius(r.D_plus_conj))
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
