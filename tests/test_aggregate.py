"""Every aggregate path against the dense-W oracle, and its memory bound."""
import tracemalloc

import numpy as np
import pytest

import equitile as eq
from equitile import partition

from helpers import dense_aggregates, random_partition, random_weights

DTYPES = ("int", "bool", "real", "complex")
PARTITIONS = ("random", "singletons", "one-cell")
WEIGHTS = ("unit", "complex")


def _case(rng, dtype, partition, weights):
    n = int(rng.integers(2, 11))
    if dtype == "int":
        A = rng.integers(-4, 5, size=(n, n))
    elif dtype == "bool":
        A = rng.integers(0, 2, size=(n, n)).astype(bool)
    elif dtype == "real":
        A = rng.normal(size=(n, n))
    else:
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if partition == "singletons":
        p = eq.Partition.from_cells([[v] for v in rng.permutation(n)])
    elif partition == "one-cell":
        p = eq.Partition.single_cell(n)
    else:
        # cells in random order: neither contiguous nor canonical
        p = random_partition(rng, n, int(rng.integers(2, n + 1)))
        p = eq.Partition.from_cells([p.cells[i] for i in rng.permutation(p.k)])
    w = np.ones(n) if weights == "unit" else random_weights(rng, p)
    return A, eq.WeightedIndicator(p, w)


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("partition", PARTITIONS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_kernel_paths_match_dense_oracle(rng, dtype, partition, weights):
    for _ in range(5):
        A, wi = _case(rng, dtype, partition, weights)
        p = wi.partition
        Theta = rng.normal(size=(p.k, p.k)) + 1j * rng.normal(size=(p.k, p.k))
        ref = dense_aggregates(A, wi, Theta)
        atol = 1e-12 * max(1.0, float(np.abs(A).max())) * p.n

        front = eq.check_equitable(A, wi, "front")
        rear = eq.check_equitable(A, wi, "rear")
        assert np.allclose(front.per_block_residuals, ref["front_residuals"], atol=atol)
        assert np.allclose(rear.per_block_residuals, ref["rear_residuals"], atol=atol)
        assert eq.epsilon_equitability(A, p) == pytest.approx(ref["epsilon"], abs=atol)
        assert eq.check_regular_equivalence(A, p) == ref["regular"]
        for alpha, E in ref["quotients"].items():
            got = eq.generalized_quotient(A, wi, alpha).entries
            assert np.allclose(got, E, atol=atol)

        T_front, T_rear = eq.deviation_matrices(A, wi)
        assert np.allclose(T_front.assembled, ref["T_front"], atol=atol)
        assert np.allclose(T_rear.assembled, ref["T_rear"], atol=atol)
        for i, ci in enumerate(p.cells):
            for j, cj in enumerate(p.cells):
                assert np.allclose(T_front.blocks[i][j], ref["T_front"][list(ci), j], atol=atol)
                assert np.allclose(T_rear.blocks[i][j], ref["T_rear"][list(cj), i], atol=atol)
        assert np.allclose(eq.deviation_report(T_front).per_block_norms,
                           ref["front_residuals"], atol=atol)
        assert np.allclose(eq.deviation_report(T_rear).per_block_norms,
                           ref["rear_residuals"], atol=atol)

        assert eq.theta_residual(A, wi, Theta, "front") == \
            pytest.approx(ref["theta_front"], abs=atol)
        assert eq.theta_residual(A, wi, Theta, "rear") == \
            pytest.approx(ref["theta_rear"], abs=atol)


@pytest.mark.parametrize("block_entries", [None, 5])
@pytest.mark.parametrize("dtype", DTYPES)
def test_column_sets_sum_bit_for_bit(rng, monkeypatch, dtype, block_entries):
    # a column set sums exactly what the all-cells pass sums into the same
    # cells, and similar forms (A_uv w_v) / w_u entrywise as a scaled copy would
    if block_entries:
        monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block_entries)
    for _ in range(10):
        A, wi = _case(rng, dtype, "random", "complex")
        w = wi.weights
        lay = partition._layout(wi.partition)
        pick = rng.permutation(wi.partition.k)[:int(rng.integers(1, wi.partition.k + 1))]
        cells = [wi.partition.cells[i] for i in pick]
        sizes = np.array([len(c) for c in cells])
        cols = np.concatenate(cells), np.cumsum(sizes) - sizes
        got = partition._aggregate(A, lay, cols=cols)
        assert _same_bits(got, partition._aggregate(A, lay)[:, pick])
        similar = partition._aggregate(A, lay, w, cols=cols, similar=True)
        assert _same_bits(similar, partition._aggregate((A * w) / w[:, None], lay, cols=cols))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_check_equitable_makes_no_dense_copy(rng):
    # an N-by-N float64 cast of the integer matrix alone would reach N^2 * 8
    n, k = 600, 300
    A = rng.integers(0, 5, size=(n, n))
    p = random_partition(rng, n, k)
    wi = eq.WeightedIndicator.unit(p)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eq.check_equitable(A, wi, "front")
        eq.check_equitable(A, wi, "rear")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
