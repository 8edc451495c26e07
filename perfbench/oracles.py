"""Reference results computed with numpy and scipy only, never the package.

The benchmark compares each program output against these. Block quantities
assume what the generators produce: cells of one common size, given as a
(k, size) array of member indices.
"""
from __future__ import annotations

import numpy as np


def _blocks(A: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """A in the block-contiguous frame, shaped (k, size, k, size)."""
    k, size = cells.shape
    order = cells.ravel()
    return A[np.ix_(order, order)].reshape(k, size, k, size)


def max_front_residual(A, cells, w) -> float:
    """Largest normalized front deviation ||A_ij w_j - e_ij w_i|| / ||w_j||."""
    A4 = _blocks(A, cells)
    wc = w[cells]
    norms2 = (np.abs(wc) ** 2).sum(axis=1)
    r = np.einsum("iajb,jb->iaj", A4, wc)
    e = np.einsum("ia,iaj->ij", wc.conj(), r) / norms2[:, None]
    res = np.linalg.norm(r - e[:, None, :] * wc[:, :, None], axis=1) / np.sqrt(norms2)[None, :]
    return float(res.max())


def max_rear_residual(A, cells, w) -> float:
    """Rear block (i, j) of A is front block (j, i) of A', with the same norms."""
    return max_front_residual(A.conj().T, cells, w)


def block_row_sums(A, cells) -> np.ndarray:
    """(k, size, k) array: row sums of every block."""
    return _blocks(A, cells).sum(axis=3)


def epsilon(A, cells) -> float:
    """Largest modulus of a difference of two row sums of one block."""
    R = block_row_sums(A, cells)
    return float(np.abs(R[:, :, None, :] - R[:, None, :, :]).max())


def regular(A, cells) -> bool:
    """No block has both zero and nonzero row sums."""
    zero = np.abs(block_row_sums(A, cells)) <= 0.0
    return not bool(np.any(zero.any(axis=1) & ~zero.all(axis=1)))


def exactly_front_equitable(M, labels) -> bool:
    """Exact test: rows of one cell have equal sums into every cell.

    Exact for small-integer matrices and for the dyadic weighted matrices
    the generators produce, whose float64 sums carry no rounding.
    """
    k = labels.max() + 1
    S = M @ np.eye(k)[labels]
    member = np.zeros(k, dtype=int)
    member[labels] = np.arange(len(labels))
    return bool(np.array_equal(S, S[member[labels]]))


def coarsest_cell_count(M) -> int:
    """Number of cells of the coarsest front equitable partition of M.

    Colour refinement by unique rows: a vertex's new colour is its old colour
    together with its sums into every current colour. Needs exact sums.
    """
    labels = np.zeros(M.shape[0], dtype=int)
    while True:
        k = labels.max() + 1
        sig = np.column_stack([labels, M @ np.eye(k)[labels]])
        new = np.unique(sig, axis=0, return_inverse=True)[1].ravel()
        if new.max() + 1 == k:
            return int(k)
        labels = new


def sorted_gap(mu, lam) -> float:
    """Largest difference of two real spectra paired in sorted order."""
    return float(np.abs(np.sort(np.real(mu)) - np.sort(np.real(lam))).max())


def eig_condition(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues of A = V diag(lambda) V^-1 and kappa(V).

    Bauer-Fike: every eigenvalue of A + Delta lies within kappa(V) ||Delta||_2
    of an eigenvalue of A.
    """
    lam, V = np.linalg.eig(A)
    return lam, float(np.linalg.cond(V))


def nearest_gap(lam, mu) -> float:
    """Largest distance from a point of lam to its nearest point of mu."""
    return float(np.abs(np.asarray(lam)[:, None] - np.asarray(mu)[None, :]).min(axis=1).max())


def singular_values(M) -> np.ndarray:
    M = np.asarray(M)
    return np.linalg.svd(M, compute_uv=False) if M.size else np.zeros(0)
