"""Seeded, vectorized input generators for the benchmark workloads.

Every generator takes a numpy Generator built from the run's seed, so the
same seed gives the same inputs. Planted structure is built in the
block-contiguous frame (cells of equal size side by side) with reshapes, then
scattered to the original labels by a random relabeling, so the program sees
non-contiguous cells. Generators use numpy only, never the package under test.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Planted:
    """A near-equitable matrix and what the generator planted in it.

    cells[i] lists the (sorted) members of cell i; quotient is the front
    quotient the planted matrix has before noise; weights are the indicator
    weights (all ones for unit weights).
    """

    A: np.ndarray
    cells: np.ndarray
    weights: np.ndarray
    quotient: np.ndarray
    hermitian: bool
    rear_equitable: bool
    delta: float


def _cplx(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _cells(rng, n: int, size: int) -> np.ndarray:
    """A random partition of range(n) into n // size sorted cells of `size`."""
    cells = np.sort(rng.permutation(n).reshape(-1, size), axis=1)
    return cells[np.argsort(cells[:, 0])]


def _scatter(cells: np.ndarray, Ac: np.ndarray) -> np.ndarray:
    """Move a matrix from the block-contiguous frame to the original labels."""
    order = cells.ravel()
    A = np.empty_like(Ac)
    A[np.ix_(order, order)] = Ac
    return A


def planted_symmetric(rng, n: int, size: int, delta: float, complex_: bool = False
                      ) -> Planted:
    """Hermitian (real symmetric unless complex_) matrix, front and rear equitable
    with unit weights up to Hermitian noise of size delta."""
    k = n // size
    cells = _cells(rng, n, size)
    G = _cplx(rng, (n, n)) if complex_ else rng.standard_normal((n, n))
    G = (G + G.conj().T) / 2
    G4 = G.reshape(k, size, k, size)
    # double centering gives every block zero row and column sums and keeps
    # the matrix Hermitian
    G4 = (G4 - G4.mean(axis=3, keepdims=True) - G4.mean(axis=1, keepdims=True)
          + G4.mean(axis=(1, 3), keepdims=True))
    C = _cplx(rng, (k, k)) if complex_ else rng.standard_normal((k, k))
    C = (C + C.conj().T) / 2
    Ac = (G4 + C[:, None, :, None] / size).reshape(n, n)
    noise = _cplx(rng, (n, n)) if complex_ else rng.standard_normal((n, n))
    Ac = Ac + delta * (noise + noise.conj().T) / 2
    return Planted(_scatter(cells, Ac), cells, np.ones(n), C, True, True, delta)


def planted_weighted(rng, n: int, size: int, delta: float) -> Planted:
    """Complex non-Hermitian A = diag(w) M diag(w)^-1 with M front equitable
    (constant block row sums) up to noise of size delta; w is complex."""
    k = n // size
    cells = _cells(rng, n, size)
    G4 = _cplx(rng, (n, n)).reshape(k, size, k, size)
    G4 = G4 - G4.mean(axis=3, keepdims=True)
    C = _cplx(rng, (k, k))
    M = (G4 + C[:, None, :, None] / size).reshape(n, n) + delta * _cplx(rng, (n, n))
    w = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    Ac = w[:, None] * M / w[None, :]
    weights = np.empty(n, dtype=complex)
    weights[cells.ravel()] = w
    return Planted(_scatter(cells, Ac), cells, weights, C, False, False, delta)


def _permuted(rng, A: np.ndarray) -> np.ndarray:
    p = rng.permutation(A.shape[0])
    return A[np.ix_(p, p)]


def path_graph(n: int) -> np.ndarray:
    A = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = 1
    return A


def grid_graph(r: int, c: int) -> np.ndarray:
    return (np.kron(path_graph(r), np.eye(c, dtype=np.int64))
            + np.kron(np.eye(r, dtype=np.int64), path_graph(c)))


def regular_graph(rng, n: int, degree: int) -> np.ndarray:
    """Union of `degree` random perfect matchings: every row sums to degree.

    Two matchings may share an edge, which gives an entry of 2; there are no
    self-loops.
    """
    A = np.zeros((n, n), dtype=np.int64)
    for _ in range(degree):
        p = rng.permutation(n).reshape(-1, 2)
        np.add.at(A, (p[:, 0], p[:, 1]), 1)
        np.add.at(A, (p[:, 1], p[:, 0]), 1)
    return A


def permuted_path(rng, n: int) -> np.ndarray:
    return _permuted(rng, path_graph(n))


def permuted_grid(rng, r: int, c: int) -> np.ndarray:
    return _permuted(rng, grid_graph(r, c))


def dyadic_weights(rng, n: int) -> np.ndarray:
    """Weights 2^s with s in {-1, 0, 1}: every weighted row sum of a 0/1
    matrix is exact in floating point, so tolerance 0 is meaningful."""
    return np.exp2(rng.integers(-1, 2, n)).astype(np.float64)


def rect_inputs(rng, left, right, blocks: int):
    """A real matrix and block diagonal side matrices of `blocks` Gaussian
    blocks of shape left = (m, q) and right = (n, r), full column rank."""
    (m, q), (n, r) = left, right
    A = rng.standard_normal((m * blocks, n * blocks))
    Wm = _block_diag(rng.standard_normal((blocks, m, q)))
    Wp = _block_diag(rng.standard_normal((blocks, n, r)))
    return A, Wm, Wp


def _block_diag(B: np.ndarray) -> np.ndarray:
    """Block diagonal matrix from a (count, rows, cols) stack of blocks."""
    count, rows, cols = B.shape
    out = np.zeros((count * rows, count * cols))
    i = np.arange(count)
    out.reshape(count, rows, count, cols)[i, :, i, :] = B
    return out
