"""Two-sided block transforms of rectangular matrices via per-block SVDs.

Square-case reflectors arise from the one-step SVD of a weighted indicator
column; replacing weight columns by full-column-rank blocks W_i generalizes
the construction. Given block diagonal side matrices Wm (m-by-q, left) and
Wp (n-by-r, right), the transform

    A_hat = Om' Um' A Up Op = [[E, Dp'], [Dm, F]]

uses only the unitary SVD factors U and gathering permutations, so it
preserves singular values (it is not a similarity). E is unitarily
equivalent to the two-sided Rayleigh quotient, and the off-diagonal blocks
have the singular values of the rectangular deviation matrices.

A and every side block are checked by partition._matrix, which also sets
their working precision; a side block must in addition be non-empty and
not wide.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError, RankDeficiencyError
from .partition import _index, _matrix

#: per-block rank test: smallest singular value must exceed this times the largest
RANK_RTOL = 1e-10


def _counts(sizes) -> list[int]:
    """sizes as ints, each an integer by the rule of partition._index, else InputError."""
    try:
        return [_index(s) for s in sizes]
    except TypeError as exc:
        raise InputError(f"block sizes must be integers: {exc}") from None


def padded_identity(n: int, r: int) -> np.ndarray:
    """The n-by-r matrix (I_r; 0): columns are the first r basis vectors."""
    n, r = _counts((n, r))
    if not 0 < r <= n:
        raise InputError(f"need 0 < r <= n, got r={r}, n={n}")
    return np.eye(n, r)


def block_padded_identity(n_sizes: Sequence[int], r_sizes: Sequence[int]) -> np.ndarray:
    """Block diagonal of padded identities, one per (n_i, r_i) pair."""
    if len(n_sizes) != len(r_sizes):
        raise InputError("size lists must have equal length")
    if not n_sizes:
        return np.zeros((0, 0))
    return assemble_block_diagonal([padded_identity(n, r) for n, r in zip(n_sizes, r_sizes)])


def omega_nr_permutation(r_sizes: Sequence[int], n_sizes: Sequence[int]) -> np.ndarray:
    """Forward map gathering the first r_i indices of each block to the front.

    The leading positions of block i land in the leading r positions (in
    block order); the tails keep their relative order behind them. Applied
    as a row permutation it turns the block diagonal padded identity into
    the plain padded identity.
    """
    r_sizes, n_sizes = _counts(r_sizes), _counts(n_sizes)
    if len(r_sizes) != len(n_sizes) or not n_sizes:
        raise InputError("size lists must be non-empty and of equal length")
    for ri, ni in zip(r_sizes, n_sizes):
        if not 0 < ri <= ni:
            raise InputError(f"need 0 < r_i <= n_i, got r_i={ri}, n_i={ni}")
    r, n = sum(r_sizes), sum(n_sizes)
    starts = np.cumsum(n_sizes) - n_sizes
    offset = np.arange(n) - np.repeat(starts, n_sizes)
    lead = offset < np.repeat(r_sizes, n_sizes)
    out = np.empty(n, dtype=int)
    out[lead] = np.arange(r)
    out[~lead] = np.arange(r, n)
    out.setflags(write=False)
    return out


def _coerce_block(W) -> np.ndarray:
    W = _matrix(W)
    if 0 in W.shape or W.shape[1] > W.shape[0]:
        raise InputError(f"blocks must be non-empty and not wide, got shape {W.shape}")
    return W


def _blockwise(blocks: Sequence[np.ndarray], X: np.ndarray, out: np.ndarray | None = None,
               *, right: bool = False, adjoint: bool = False) -> np.ndarray:
    """blockdiag(B) X, or X blockdiag(B) with right=True, with B_i' for B_i if adjoint.

    One product per block, written to its own slice of out (a new array by
    default); out may be X when every block is square.
    """
    if adjoint:
        blocks = [b.conj().T for b in blocks]
    if out is None:
        inner = sum(b.shape[right] for b in blocks)
        shape = (X.shape[0], inner) if right else (inner, X.shape[1])
        out = np.empty(shape, dtype=np.result_type(X.dtype, *{b.dtype for b in blocks}))
    i = o = 0
    for b in blocks:
        read, write = b.shape if right else b.shape[::-1]  # extents in X and in out
        if right:
            out[:, o : o + write] = X[:, i : i + read] @ b
        else:
            out[o : o + write, :] = b @ X[i : i + read, :]
        i, o = i + read, o + write
    return out


def assemble_block_diagonal(blocks: Sequence[np.ndarray]) -> np.ndarray:
    blocks = [np.asarray(b) for b in blocks]
    m = sum(b.shape[0] for b in blocks)
    n = sum(b.shape[1] for b in blocks)
    out = np.zeros((m, n), dtype=np.result_type(*(b.dtype for b in blocks)))
    ro = co = 0
    for b in blocks:
        out[ro : ro + b.shape[0], co : co + b.shape[1]] = b
        ro += b.shape[0]
        co += b.shape[1]
    return out


def split_block_diagonal(M, row_sizes: Sequence[int], col_sizes: Sequence[int]
                         ) -> list[np.ndarray]:
    """Cut a dense block diagonal matrix into its blocks.

    Entries outside the block grid must be exactly zero.
    """
    M = np.asarray(M)
    if len(row_sizes) != len(col_sizes):
        raise InputError("row and column size lists must have equal length")
    if M.shape != (sum(row_sizes), sum(col_sizes)):
        raise InputError(
            f"matrix shape {M.shape} does not match sizes "
            f"({sum(row_sizes)}, {sum(col_sizes)})"
        )
    blocks = []
    mask = np.ones(M.shape, dtype=bool)
    ro = co = 0
    for rs, cs in zip(row_sizes, col_sizes):
        blocks.append(M[ro : ro + rs, co : co + cs])
        mask[ro : ro + rs, co : co + cs] = False
        ro += rs
        co += cs
    if M.size and np.any(M[mask] != 0):
        raise InputError("matrix has nonzero entries outside the block diagonal")
    return blocks


@dataclass(frozen=True, eq=False)
class BlockSVD:
    """Per-block full SVDs of a block diagonal full-column-rank matrix.

    Block i factors as U_i (pad(m_i, q_i) @ diag(sigma_i)) V_i' with square
    unitary U_i, V_i and strictly positive sigma_i in descending order.
    omega is the gathering map for the assembled padded form.
    """

    u_blocks: tuple[np.ndarray, ...]
    sigma_blocks: tuple[np.ndarray, ...]
    v_blocks: tuple[np.ndarray, ...]
    omega: np.ndarray

    @property
    def m_sizes(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.u_blocks)

    @property
    def q_sizes(self) -> tuple[int, ...]:
        return tuple(v.shape[0] for v in self.v_blocks)

    @property
    def m(self) -> int:
        return sum(self.m_sizes)

    @property
    def q(self) -> int:
        return sum(self.q_sizes)

    def u_dense(self) -> np.ndarray:
        return assemble_block_diagonal(self.u_blocks)

    def v_dense(self) -> np.ndarray:
        return assemble_block_diagonal(self.v_blocks)

    def column_basis(self) -> np.ndarray:
        """The m-by-q isometry W (W'W)^{-1/2} assembled from the factors."""
        return assemble_block_diagonal(self._basis_blocks())

    def _basis_blocks(self) -> list[np.ndarray]:
        """The blocks U_i[:, :q_i] V_i' of column_basis, one per side block."""
        return [u[:, : v.shape[0]] @ v.conj().T for u, v in zip(self.u_blocks, self.v_blocks)]


def block_svd(blocks: Sequence[np.ndarray]) -> BlockSVD:
    """Full SVD of every block; rejects blocks without full column rank (RANK_RTOL)."""
    us, sigmas, vs = [], [], []
    for idx, W in enumerate(blocks):
        W = _coerce_block(W)
        try:
            u, s, vh = np.linalg.svd(W, full_matrices=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD of block {idx} failed: {exc}") from exc
        if s.size == 0 or s[-1] <= RANK_RTOL * s[0]:
            raise RankDeficiencyError(
                f"block {idx} with shape {W.shape} is rank deficient "
                f"(singular values {s})"
            )
        v = vh.conj().T
        for arr in (u, s, v):
            arr.setflags(write=False)
        us.append(u)
        sigmas.append(s)
        vs.append(v)
    return BlockSVD(
        u_blocks=tuple(us),
        sigma_blocks=tuple(sigmas),
        v_blocks=tuple(vs),
        omega=omega_nr_permutation([v.shape[0] for v in vs], [u.shape[0] for u in us]),
    )


def _factored(A, wm_blocks, wp_blocks) -> tuple[np.ndarray, BlockSVD, BlockSVD]:
    """A, checked against the side block rows before any block is factored, and both factors."""
    m, n = (sum(np.asarray(W).shape[0] for W in side) for side in (wm_blocks, wp_blocks))
    return _matrix(A, (m, n)), block_svd(wm_blocks), block_svd(wp_blocks)


def _deviations(A: np.ndarray, left: BlockSVD, right: BlockSVD) -> tuple[np.ndarray, np.ndarray]:
    """T_minus and T_plus of a checked A, from the per-block bases of the sides' factors."""
    Km, Kp = left._basis_blocks(), right._basis_blocks()
    AKp = _blockwise(Kp, A, right=True)
    E0 = _blockwise(Km, AKp, adjoint=True)
    return (AKp - _blockwise(Km, E0),
            _blockwise(Km, A.conj().T, right=True) - _blockwise(Kp, E0.conj().T))


def rayleigh_quotient_rect(A, wm_blocks: Sequence[np.ndarray],
                           wp_blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Two-sided Rayleigh quotient (Wm'Wm)^{-1/2} Wm' A Wp (Wp'Wp)^{-1/2}.

    The side bases come from per-block SVDs, so they stay small problems.
    The result does not depend on which per-block SVDs one would pick.
    """
    A, left, right = _factored(A, wm_blocks, wp_blocks)
    AKp = _blockwise(right._basis_blocks(), A, right=True)
    return _blockwise(left._basis_blocks(), AKp, adjoint=True)


def deviation_rect(A, wm_blocks: Sequence[np.ndarray],
                   wp_blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Front (m-by-r) and rear (n-by-q) deviation matrices.

    T_front = A Kp - Km E0 and T_rear = A' Km - Kp E0', where K denotes the
    per-side column-basis isometry W (W'W)^{-1/2}. Both are invariant under
    the choice of block SVD factors.
    """
    return _deviations(*_factored(A, wm_blocks, wp_blocks))


@dataclass(frozen=True, eq=False)
class _BlockForm:
    """A gathered transform A_hat = [[E, D_plus_conj], [D_minus, F]], stored once.

    A_hat is made read-only; its blocks are read-only views of it, cut after
    the q lead rows and r lead columns. windows is the one map of where they lie.
    """

    A_hat: np.ndarray
    q: int
    r: int

    def __post_init__(self):
        self.A_hat.setflags(write=False)

    @property
    def windows(self) -> dict[str, tuple[range, range]]:
        """(rows, cols) of A_hat and of each block, by name."""
        (m, n), q, r = self.A_hat.shape, self.q, self.r
        return {"A_hat": (range(m), range(n)), "E": (range(q), range(r)),
                "D_minus": (range(q, m), range(r)), "D_plus_conj": (range(q), range(r, n)),
                "F": (range(q, m), range(r, n))}

    def _block(self, name: str) -> np.ndarray:
        rows, cols = self.windows[name]
        return self.A_hat[rows.start:rows.stop, cols.start:cols.stop]

    E = property(lambda self: self._block("E"))
    D_minus = property(lambda self: self._block("D_minus"))
    D_plus_conj = property(lambda self: self._block("D_plus_conj"))
    F = property(lambda self: self._block("F"))

    def assembled(self) -> np.ndarray:
        """A_hat itself, not a copy."""
        return self.A_hat


@dataclass(frozen=True, eq=False)
class RectResult(_BlockForm):
    """Blocks of Om' Um' A Up Op plus the side factorizations."""

    left: BlockSVD
    right: BlockSVD

    @property
    def shape(self) -> tuple[int, int]:
        return self.A_hat.shape

    def rayleigh_quotient(self) -> np.ndarray:
        """E0 = V_left E V_right', recovered from the stored factors."""
        VE = _blockwise(self.left.v_blocks, self.E)
        return _blockwise(self.right.v_blocks, VE, right=True, adjoint=True)


def rect_transform(A, left: BlockSVD, right: BlockSVD) -> RectResult:
    """Conjugate A by the two unitary SVD factors and gather the lead block.

    Preserves the singular values of A; the spectrum is generally not
    preserved since the two sides are independent.
    """
    A = _matrix(A, (left.m, right.m))
    M = A.astype(np.result_type(A.dtype, *(u.dtype for u in left.u_blocks + right.u_blocks)))
    _blockwise(left.u_blocks, M, M, adjoint=True)
    _blockwise(right.u_blocks, M, M, right=True)
    return RectResult(M[np.ix_(np.argsort(left.omega), np.argsort(right.omega))],
                      left.q, right.q, left=left, right=right)
