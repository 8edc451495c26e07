"""BlockReflector's rank-one kernel against the per-cell loops, its cost and memory."""
import tracemalloc

import numpy as np
import pytest

import equitile as eq
from equitile import opcount, partition, reflector
from equitile.errors import InputError

from helpers import BlockwiseReflector, random_partition, random_weights

PARTITIONS = ("random", "identity-cells", "singletons", "one-cell")
DTYPES = ("int", "real", "complex")


def _contiguous(sizes):
    return eq.Partition(tuple(np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])))


def _reflector(rng, partition, weights):
    n = int(rng.integers(1, 13))
    if partition == "singletons":
        sizes = [1] * n
    elif partition == "one-cell":
        sizes = [n]
    else:
        sizes = list(random_partition(rng, n).sizes)
    p = _contiguous(sizes)
    w = random_weights(rng, p, complex_weights=weights == "complex")
    if partition != "identity-cells":
        return eq.build_block_reflector(eq.WeightedIndicator(p, w))
    # cells whose weights are the first basis vector, with phase 1, give
    # identity reflectors; the others keep random weights and phases
    ident = rng.random(p.k) < 0.5
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, p.k))
    phases[ident] = 1.0
    for i in np.flatnonzero(ident):
        a = p.cells[i][0]
        w[a:a + p.sizes[i]] = 0.0
        w[a] = 1.0
    refl = eq.build_block_reflector(eq.WeightedIndicator(p, w), phases)
    assert list(refl.coeffs == 0) == list(ident)
    assert not np.any(refl.vectors[np.repeat(ident, p.sizes)])
    return refl


def _matrix(rng, dtype, m, n):
    if dtype == "int":
        return rng.integers(-4, 5, size=(m, n))
    if dtype == "real":
        return rng.normal(size=(m, n))
    return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))


def _close(got, want, scale):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * max(1.0, scale)


@pytest.mark.parametrize("block_entries", [None, 5])
@pytest.mark.parametrize("weights", ["real", "complex"])
@pytest.mark.parametrize("partition", PARTITIONS)
def test_matches_per_cell_loops(rng, monkeypatch, partition, weights, block_entries):
    if block_entries:
        # column blocks of a single column, or five, cut through cells
        monkeypatch.setattr(reflector, "_BLOCK_ENTRIES", block_entries)
    for _ in range(12):
        refl = _reflector(rng, partition, weights)
        oracle = BlockwiseReflector(refl)
        n = refl.n
        _close(refl.dense(), oracle.dense(), 1.0)
        for dtype in DTYPES:
            m = int(rng.integers(0, 9))  # rectangular, m != n mostly
            pairs = [
                (refl.apply_left, oracle.apply_left, _matrix(rng, dtype, n, m)),
                (refl.apply_right, oracle.apply_right, _matrix(rng, dtype, m, n)),
                (refl.conjugate, oracle.conjugate, _matrix(rng, dtype, n, n)),
                (refl.matvec, oracle.matvec, _matrix(rng, dtype, n, 1)[:, 0]),
                (refl.matvec, oracle.matvec, _matrix(rng, dtype, n, m)),
            ]
            for got, want, M in pairs:
                before = M.copy()
                out, ref = got(M), want(M)
                assert out.dtype == ref.dtype
                _close(out, ref, np.abs(M).max(initial=0.0))
                assert np.array_equal(M, before)  # the input is not touched
        # a column of the matrix matvec is the vector matvec
        V = _matrix(rng, "complex", n, 3)
        _close(refl.matvec(V)[:, 1], refl.matvec(V[:, 1]), np.abs(V).max())


def test_shapes_checked(rng):
    refl = _reflector(rng, "random", "complex")
    n = refl.n
    for call, M in [
        (refl.apply_left, np.ones((n + 1, n))),
        (refl.apply_left, np.ones(n)),
        (refl.apply_right, np.ones((n, n + 1))),
        (refl.conjugate, np.ones((n, n + 1))),
        (refl.matvec, np.ones(n + 1)),
        (refl.matvec, np.ones((n, 2, 2))),
    ]:
        with pytest.raises(InputError):
            call(M)


def test_conjugation_count_is_exact(rng):
    # H'A H: one kernel pass per side, 2 N^2 + N multiplies each
    for n in (7, 32, 100):
        p = _contiguous(list(random_partition(rng, n).sizes))
        refl = eq.build_block_reflector(eq.WeightedIndicator(p, random_weights(rng, p)))
        assert np.all(refl.coeffs != 0)  # every cell rank-one
        with opcount.counting() as c:
            refl.conjugate(rng.normal(size=(n, n)))
        assert c.multiplies == 4 * n * n + 2 * n


def test_block_triangularize_matches_blockwise_pipeline():
    # relabel, conjugate cell by cell, gather by Omega: the loop pipeline
    rng = np.random.default_rng(4)
    for trial in range(150):
        n = int(rng.integers(1, 25))
        p = random_partition(rng, n)
        p = eq.Partition.from_cells([p.cells[i] for i in rng.permutation(p.k)])
        A = _matrix(rng, DTYPES[trial % 3], n, n)
        wi = eq.WeightedIndicator(p, random_weights(rng, p, complex_weights=trial % 2 == 0))
        r = eq.block_triangularize(A, wi)
        inv = np.argsort(r.pre_permutation)
        At = BlockwiseReflector(r.reflector).conjugate(A[np.ix_(inv, inv)])
        back = np.argsort(r.omega)
        _close(r.assembled(), At[np.ix_(back, back)], np.abs(A).max())


def test_block_triangularize_holds_one_working_array():
    # the relabelled copy is conjugated in place: the peak is that copy
    # plus the four gathered blocks, about 2 N^2 entries (3.1 N^2 when
    # H'A and H'A H were separate copies)
    rng = np.random.default_rng(5)
    n = 400
    p = random_partition(rng, n, 40)
    wi = eq.WeightedIndicator(p, random_weights(rng, p))
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        r = eq.block_triangularize(A, wi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert r.E.dtype == np.complex128
    assert peak < 2.5 * n * n * 16


def test_recover_eigenvector_lifts_all_columns_at_once(rng):
    n = 11
    p = random_partition(rng, n, 4)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r = eq.block_triangularize(A, eq.WeightedIndicator(p, random_weights(rng, p)))
    Z = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
    cols = np.stack([eq.recover_eigenvector(r, Z[:, j]) for j in range(5)], axis=1)
    _close(eq.recover_eigenvector(r, Z), cols, np.abs(Z).max())
    for bad in (np.ones((n, 2, 2)), np.ones((n + 1, 3)), np.ones(n - 1)):
        with pytest.raises(InputError):
            eq.recover_eigenvector(r, bad)


def test_operator_inputs_must_be_finite(rng):
    refl = _reflector(rng, "random", "complex")
    n = refl.n
    r = eq.block_triangularize(rng.normal(size=(n, n)), eq.WeightedIndicator.unit(refl.partition))
    for bad in (np.nan, np.inf, -np.inf):
        M = np.ones((n, n))
        M[-1, 0] = bad
        for call, arg in [(refl.apply_left, M), (refl.apply_right, M), (refl.conjugate, M),
                          (refl.matvec, M), (refl.matvec, M[:, 0]),
                          (lambda z: eq.recover_eigenvector(r, z), M),
                          (lambda z: eq.recover_eigenvector(r, z), M[:, 0])]:
            with pytest.raises(InputError, match="finite"):
                call(arg)
    with pytest.raises(InputError, match="finite"):
        eq.build_reflector(np.ones(2)).apply_left([[np.nan], [1.0]])


@pytest.mark.parametrize("call", ["conjugate", "block_triangularize"])
def test_each_matrix_is_checked_once(rng, monkeypatch, call):
    # block_triangularize casts its checked working copy directly: no second
    # finiteness pass over an N-by-N array
    n = 12
    p = random_partition(rng, n, 4)
    wi = eq.WeightedIndicator(p, random_weights(rng, p))
    A = rng.normal(size=(n, n))
    refl = eq.build_block_reflector(wi)
    shapes = []

    def counted(M, shape=None):
        shapes.append(np.shape(M))
        return check(M, shape)

    check = partition._matrix
    monkeypatch.setattr(partition, "_matrix", counted)
    monkeypatch.setattr(reflector, "_matrix", counted)
    if call == "conjugate":
        refl.conjugate(A)
    else:
        eq.block_triangularize(A, wi)
    assert shapes == [(n, n)]
