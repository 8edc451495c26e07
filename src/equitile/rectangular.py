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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericalError, RankDeficiencyError

#: per-block rank test: smallest singular value must exceed this times the largest
RANK_RTOL = 1e-10


def padded_identity(n: int, r: int) -> np.ndarray:
    """The n-by-r matrix (I_r; 0): columns are the first r basis vectors."""
    if not 0 < r <= n:
        raise InputError(f"need 0 < r <= n, got r={r}, n={n}")
    M = np.zeros((n, r))
    M[:r, :r] = np.eye(r)
    return M


def block_padded_identity(n_sizes: Sequence[int], r_sizes: Sequence[int]) -> np.ndarray:
    """Block diagonal of padded identities, one per (n_i, r_i) pair."""
    if len(n_sizes) != len(r_sizes):
        raise InputError("size lists must have equal length")
    n, r = sum(n_sizes), sum(r_sizes)
    M = np.zeros((n, r))
    ro = co = 0
    for ni, ri in zip(n_sizes, r_sizes):
        M[ro : ro + ni, co : co + ri] = padded_identity(ni, ri)
        ro += ni
        co += ri
    return M


def omega_nr_permutation(r_sizes: Sequence[int], n_sizes: Sequence[int]) -> np.ndarray:
    """Forward map gathering the first r_i indices of each block to the front.

    The leading positions of block i land in the leading r positions (in
    block order); the tails keep their relative order behind them. Applied
    as a row permutation it turns the block diagonal padded identity into
    the plain padded identity.
    """
    r_sizes = [int(s) for s in r_sizes]
    n_sizes = [int(s) for s in n_sizes]
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
    W = np.asarray(W)
    if W.ndim != 2 or 0 in W.shape:
        raise InputError(f"blocks must be non-empty 2-d arrays, got shape {W.shape}")
    if W.shape[1] > W.shape[0]:
        raise InputError(f"blocks must not be wide: got shape {W.shape}")
    if W.dtype.kind in "iub":
        W = W.astype(np.float64)
    return W


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


def split_block_diagonal(M, row_sizes: Sequence[int], col_sizes: Sequence[int],
                         check: bool = True) -> list[np.ndarray]:
    """Cut a dense block diagonal matrix into its blocks.

    With check=True, entries outside the block grid must be exactly zero.
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
    if check and M.size and np.any(M[mask] != 0):
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
        parts = []
        for u, v, qi in zip(self.u_blocks, self.v_blocks, self.q_sizes):
            parts.append(u[:, :qi] @ v.conj().T)
        return assemble_block_diagonal(parts)


def block_svd(blocks: Sequence[np.ndarray], rank_rtol: float = RANK_RTOL) -> BlockSVD:
    """Full SVD of every block; rejects blocks without full column rank."""
    us, sigmas, vs = [], [], []
    for idx, W in enumerate(blocks):
        W = _coerce_block(W)
        try:
            u, s, vh = np.linalg.svd(W, full_matrices=True)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD of block {idx} failed: {exc}") from exc
        if s.size == 0 or s[-1] <= rank_rtol * s[0]:
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
    q_sizes = [v.shape[0] for v in vs]
    m_sizes = [u.shape[0] for u in us]
    return BlockSVD(
        u_blocks=tuple(us),
        sigma_blocks=tuple(sigmas),
        v_blocks=tuple(vs),
        omega=omega_nr_permutation(q_sizes, m_sizes),
    )


def _column_bases(A, wm_blocks, wp_blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A checked against the side block grids, and both sides' column bases.

    The column basis of a side is the isometry W (W'W)^{-1/2} of
    BlockSVD.column_basis, so blocks without full column rank are rejected
    at RANK_RTOL, as block_svd rejects them.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise InputError(f"2-d matrix required, got shape {A.shape}")
    m = sum(np.asarray(W).shape[0] for W in wm_blocks)
    n = sum(np.asarray(W).shape[0] for W in wp_blocks)
    if A.shape != (m, n):
        raise InputError(
            f"matrix shape {A.shape} does not match side block rows ({m}, {n})"
        )
    return A, block_svd(wm_blocks).column_basis(), block_svd(wp_blocks).column_basis()


def rayleigh_quotient_rect(A, wm_blocks: Sequence[np.ndarray],
                           wp_blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Two-sided Rayleigh quotient (Wm'Wm)^{-1/2} Wm' A Wp (Wp'Wp)^{-1/2}.

    The side bases come from per-block SVDs, so they stay small problems.
    The result does not depend on which per-block SVDs one would pick.
    """
    A, Km, Kp = _column_bases(A, wm_blocks, wp_blocks)
    return Km.conj().T @ A @ Kp


def deviation_rect(A, wm_blocks: Sequence[np.ndarray],
                   wp_blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Front (m-by-r) and rear (n-by-q) deviation matrices.

    T_front = A Kp - Km E0 and T_rear = A' Km - Kp E0', where K denotes the
    per-side column-basis isometry W (W'W)^{-1/2}. Both are invariant under
    the choice of block SVD factors.
    """
    A, Km, Kp = _column_bases(A, wm_blocks, wp_blocks)
    E0 = Km.conj().T @ A @ Kp
    T_minus = A @ Kp - Km @ E0
    T_plus = A.conj().T @ Km - Kp @ E0.conj().T
    return T_minus, T_plus


@dataclass(frozen=True, eq=False)
class _BlockForm:
    """The four blocks of a gathered transform [[E, D_plus_conj], [D_minus, F]]."""

    E: np.ndarray
    D_minus: np.ndarray
    D_plus_conj: np.ndarray
    F: np.ndarray

    def assembled(self) -> np.ndarray:
        return np.block([[self.E, self.D_plus_conj], [self.D_minus, self.F]])


def _gather_blocks(M: np.ndarray, row_omega: np.ndarray, col_omega: np.ndarray,
                   q: int, r: int) -> tuple[np.ndarray, ...]:
    """E, D_minus, D_plus_conj and F of M, as read-only copies.

    Rows and columns are gathered by the forward maps row_omega and
    col_omega, then cut after q rows and r columns.
    """
    rows, cols = np.argsort(row_omega), np.argsort(col_omega)
    blocks = tuple(M[np.ix_(a, b)] for a, b in ((rows[:q], cols[:r]), (rows[q:], cols[:r]),
                                                 (rows[:q], cols[r:]), (rows[q:], cols[r:])))
    for B in blocks:
        B.setflags(write=False)
    return blocks


@dataclass(frozen=True, eq=False)
class RectResult(_BlockForm):
    """Blocks of Om' Um' A Up Op plus the side factorizations."""

    left: BlockSVD
    right: BlockSVD

    @property
    def shape(self) -> tuple[int, int]:
        return (
            self.E.shape[0] + self.F.shape[0],
            self.E.shape[1] + self.F.shape[1],
        )

    def rayleigh_quotient(self) -> np.ndarray:
        """E0 = V_left E V_right', recovered from the stored factors."""
        return self.left.v_dense() @ self.E @ self.right.v_dense().conj().T


def rect_transform(A, left: BlockSVD, right: BlockSVD) -> RectResult:
    """Conjugate A by the two unitary SVD factors and gather the lead block.

    Preserves the singular values of A; the spectrum is generally not
    preserved since the two sides are independent.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise InputError(f"2-d matrix required, got shape {A.shape}")
    if A.dtype.kind in "iub":
        A = A.astype(np.float64)
    if A.shape != (left.m, right.m):
        raise InputError(
            f"matrix shape {A.shape} does not match factors ({left.m}, {right.m})"
        )
    out_dtype = np.result_type(
        A.dtype,
        *(u.dtype for u in left.u_blocks),
        *(u.dtype for u in right.u_blocks),
    )
    M = A.astype(out_dtype)
    ro = 0
    for u in left.u_blocks:
        M[ro : ro + u.shape[0], :] = u.conj().T @ M[ro : ro + u.shape[0], :]
        ro += u.shape[0]
    co = 0
    for u in right.u_blocks:
        M[:, co : co + u.shape[0]] = M[:, co : co + u.shape[0]] @ u
        co += u.shape[0]
    return RectResult(*_gather_blocks(M, left.omega, right.omega, left.q, right.q),
                      left=left, right=right)
