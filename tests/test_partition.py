import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import equitile as eq
from equitile import partition
from equitile.errors import AdmissibilityError, InputError

from helpers import (
    A0,
    P0_FORWARD,
    PI0_CELLS,
    EMINUS,
    TuplePartition,
    all_partitions,
    full_signature_refinement,
    random_partition,
    random_weights,
    refine_oracle,
    suitable_indexing_oracle,
)


class TestPartition:
    def test_validation(self):
        with pytest.raises(InputError):
            eq.Partition.from_cells([[0, 1], [1, 2]])  # overlap
        with pytest.raises(InputError):
            eq.Partition.from_cells([[0], [2]])  # gap
        with pytest.raises(InputError):
            eq.Partition.from_cells([[0], []])  # empty cell
        with pytest.raises(InputError):
            eq.Partition.from_cells([])

    @pytest.mark.parametrize("cells", [
        [[0.5, 1.9], [2]],
        [[True, False], [2]],
        [[0, 1.0], [2]],
        [[np.float64(0), 1], [2]],
        [[np.True_, 1], [0]],
        [np.array([0.0, 1.0]), [2]],
        [["0", 1], [2]],
    ])
    def test_non_integer_entries_refused(self, cells):
        with pytest.raises(InputError, match="integers"):
            eq.Partition.from_cells(cells)

    @pytest.mark.parametrize("labels", [
        [0.5, 0.7, 1],
        [True, False, 1],
        [0, 1.0],
        [np.float64(0), 1],
        [np.True_, 1],
        np.array([0.0, 1.0]),
        np.array([True, False]),
        ["0", 1],
    ])
    def test_non_integer_labels_refused(self, labels):
        # int(0.5) == int(0.7) would merge two distinct labels into one cell
        with pytest.raises(InputError, match="integers"):
            eq.Partition.from_labels(labels)

    def test_entries_beyond_int64_refused(self):
        with pytest.raises(InputError, match="cover"):
            eq.Partition.from_cells([[0], [2 ** 70]])

    def test_numpy_integer_entries_load_as_python_ints(self):
        p = eq.Partition((np.array([3, 1]), (np.int32(2), np.uint8(0))))
        assert p.cells == ((1, 3), (0, 2))
        assert {type(v) for c in p.cells for v in c} == {int}
        assert p == eq.Partition.from_cells([[1, 3], [0, 2]])

    def test_entries_follow_the_index_rule(self):
        # an entry is an integer by the rule of partition files: __index__
        class Index:
            def __init__(self, v):
                self.v = v

            def __index__(self):
                return self.v

        assert eq.Partition.from_cells([[Index(1), 0], [Index(2)]]).cells == ((0, 1), (2,))
        with pytest.raises(InputError, match="integers"):
            eq.Partition.from_cells([[Index(1), 0.0], [2]])

    def test_within_cell_sorting(self):
        p = eq.Partition.from_cells([[5, 1], [0, 3], [2, 4]])
        assert p.cells == ((1, 5), (0, 3), (2, 4))

    def test_canonical_orders_cells_by_min(self):
        p = eq.Partition.from_cells([[2], [1], [0]])
        assert p.canonical().cells == ((0,), (1,), (2,))

    def test_refines(self):
        fine = eq.Partition.from_cells([[0], [1], [2, 3]])
        coarse = eq.Partition.from_cells([[0, 1], [2, 3]])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert fine.refines(fine)

    def test_json_round_trip(self):
        p = eq.Partition.from_cells(PI0_CELLS)
        d = p.to_dict()
        assert d == {"n": 6, "cells": [[1], [2, 6], [3, 4, 5]]}
        assert eq.Partition.from_dict(d) == p

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_from_labels_covers(self, labels):
        p = eq.Partition.from_labels(labels)
        assert p.n == len(labels)
        assert sorted(v for c in p.cells for v in c) == list(range(len(labels)))
        # canonical by construction: cells ordered by smallest element
        assert p == p.canonical()


_labels = st.lists(st.integers(-3, 6) | st.integers(-2 ** 63, 2 ** 63 - 1),
                   min_size=1, max_size=16)


class TestArrayBacked:
    """The array-backed Partition against the tuple-backed oracle."""

    @given(_labels, st.data())
    def test_matches_tuple_partition(self, labels, data):
        p, o = eq.Partition.from_labels(labels), TuplePartition.from_labels(labels)
        assert p.cells == o.cells
        # the same cells in a random order: neither canonical nor contiguous
        perm = data.draw(st.permutations(range(p.k)))
        q = eq.Partition.from_cells([p.cells[i] for i in perm])
        oq = TuplePartition(tuple(o.cells[i] for i in perm))
        assert q.cells == oq.cells
        assert {type(v) for c in q.cells for v in c} == {int}
        assert (q.n, q.k, q.sizes) == (oq.n, len(oq.cells), oq.sizes)
        assert q.canonical().cells == oq.canonical().cells
        assert np.array_equal(q.labels(), oq.labels())
        assert q.to_dict() == oq.to_dict()
        assert eq.Partition.from_dict(q.to_dict()) == q
        assert (q == p) == (oq == o)
        assert q.canonical() == p and hash(q.canonical()) == hash(p)
        back = pickle.loads(pickle.dumps(q))
        assert back == q and hash(back) == hash(q) and back.cells == q.cells
        assert not back.order.flags.writeable and not back.starts.flags.writeable
        # a coarsening, which q refines, and an unrelated partition
        for other in ([v // 2 for v in labels], data.draw(st.lists(
                st.integers(0, 3), min_size=len(labels), max_size=len(labels)))):
            r, oR = eq.Partition.from_labels(other), TuplePartition.from_labels(other)
            assert q.refines(r) == oq.refines(oR)
            assert r.refines(q) == oR.refines(oq)

    def test_storage_is_read_only(self):
        p = eq.Partition.from_cells([[2, 0], [1]])
        assert p.order.tolist() == [0, 2, 1] and p.starts.tolist() == [0, 2]
        assert partition._layout(p).labels.tolist() == [0, 0, 1]
        with pytest.raises(ValueError):
            p.order[0] = 1
        with pytest.raises(AttributeError):
            p.order = np.arange(3)

    def test_from_labels_memory_is_a_few_int64s_per_index(self):
        # O(N) int64 arrays; a Python int and list slot per index would add
        # about 4.5 int64s, and the dict of lists per label much more
        n = 10 ** 5
        labels = np.random.default_rng(0).permutation(n) // 2
        tracemalloc.start()
        try:
            p = eq.Partition.from_labels(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.k == n // 2
        assert peak < 16 * 8 * n


class TestIndicatorMatrix:
    def test_singletons_identity(self):
        B = eq.indicator_matrix(eq.Partition.singletons(3))
        assert np.array_equal(B, np.eye(3))

    def test_single_cell_ones(self):
        B = eq.indicator_matrix(eq.Partition.single_cell(3))
        assert np.array_equal(B, np.ones((3, 1)))

    def test_example_pattern(self):
        B = eq.indicator_matrix(eq.Partition.from_cells(PI0_CELLS))
        expected = np.zeros((6, 3))
        expected[0, 0] = 1
        expected[[1, 5], 1] = 1
        expected[[2, 3, 4], 2] = 1
        assert np.array_equal(B, expected)

    def test_columns_orthogonal_with_cell_size_norms(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 15))
            p = random_partition(rng, n)
            B = eq.indicator_matrix(p)
            G = B.T @ B
            assert np.array_equal(G, np.diag(p.sizes))


class TestSuitableIndexing:
    def test_contiguous_is_identity(self):
        p = eq.Partition.from_cells([[0], [1, 2]])
        assert np.array_equal(eq.suitable_indexing_permutation(p), [0, 1, 2])

    def test_worked_example_matches(self):
        p = eq.Partition.from_cells(PI0_CELLS)
        assert np.array_equal(eq.suitable_indexing_permutation(p), P0_FORWARD)

    def test_reversed_singletons(self):
        p = eq.Partition.from_cells([[2], [1], [0]])
        assert np.array_equal(eq.suitable_indexing_permutation(p), [2, 1, 0])

    def test_cells_become_contiguous_in_order(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 16))
            p = random_partition(rng, n)
            perm = eq.suitable_indexing_permutation(p)
            assert sorted(perm) == list(range(n))
            off = 0
            for c in p.cells:
                assert sorted(perm[list(c)]) == list(range(off, off + len(c)))
                off += len(c)

    def test_matches_loop_over_cells(self, rng):
        # cells in random order, so members move across most ranges
        for _ in range(300):
            n = int(rng.integers(1, 16))
            p = _shuffled_cells(rng, random_partition(rng, n))
            assert np.array_equal(eq.suitable_indexing_permutation(p),
                                  suitable_indexing_oracle(p))
            lab = p.labels()
            for i, c in enumerate(p.cells):
                assert np.all(lab[list(c)] == i)


class TestAdmissibility:
    def test_unit_weights_admissible(self):
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(4))
        assert eq.is_admissible(wi)

    def test_zero_cell_rejected(self):
        p = eq.Partition.singletons(2)
        wi = eq.WeightedIndicator(p, np.array([1.0, 0.0]))
        assert not eq.is_admissible(wi)

    def test_zero_entry_inside_cell_ok(self):
        p = eq.Partition.single_cell(2)
        wi = eq.WeightedIndicator(p, np.array([1.0, 0.0]))
        assert eq.is_admissible(wi)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
    def test_non_finite_weights_refused(self, bad):
        # refused when the indicator is built, before any verdict or quotient
        p = eq.Partition.from_cells([[0, 1], [2]])
        with pytest.raises(InputError):
            eq.check_equitable(np.ones((3, 3)), eq.WeightedIndicator(p, [1.0, bad, 1.0]))
        with pytest.raises(InputError):
            eq.generalized_quotient(np.ones((3, 3)), eq.WeightedIndicator(p, [1.0, bad, 1.0]))

    def test_indicator_matrix_structure(self, rng):
        p = random_partition(rng, 8)
        w = random_weights(rng, p)
        wi = eq.WeightedIndicator(p, w)
        W = wi.matrix()
        G = W.conj().T @ W
        assert np.allclose(G, np.diag(wi.cell_norms() ** 2))
        for i, c in enumerate(p.cells):
            mask = np.zeros(8, dtype=bool)
            mask[list(c)] = True
            assert np.array_equal(W[mask, i], w[mask])
            assert np.all(W[~mask, i] == 0)


class TestCheckEquitable:
    def test_worked_example_front_equitable(self):
        wi = eq.WeightedIndicator.unit(eq.Partition.from_cells(PI0_CELLS))
        v = eq.check_equitable(A0, wi, side="front", tol=0.0)
        assert v.is_equitable
        assert v.max_residual == 0.0
        assert np.allclose(eq.generalized_quotient(A0, wi, -1.0).entries, EMINUS)

    def test_zero_matrix_equitable_both_sides(self, rng):
        p = random_partition(rng, 6)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        for side in ("front", "rear"):
            v = eq.check_equitable(np.zeros((6, 6)), wi, side=side, tol=0.0)
            assert v.is_equitable and v.max_residual == 0.0

    def test_hand_computed_residual(self):
        # one cell: residual is the norm of (A w - e w)/||w|| with e the mean row sum
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(2))
        v = eq.check_equitable(A, wi, side="front", tol=1e-12)
        w = np.ones(2)
        e = (w @ (A @ w)) / 2.0
        expected = np.linalg.norm(A @ w - e * w) / np.sqrt(2.0)
        assert v.per_block_residuals[0, 0] == pytest.approx(expected, abs=1e-15)
        assert v.per_block_residuals[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert not v.is_equitable

    def test_residuals_match_deviation_blocks(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            front, rear = eq.deviation_matrices(A, wi)
            for side, dev in (("front", front), ("rear", rear)):
                v = eq.check_equitable(A, wi, side=side)
                expected = np.array(
                    [[np.linalg.norm(dev.blocks[i][j]) for j in range(p.k)]
                     for i in range(p.k)]
                )
                assert np.allclose(v.per_block_residuals, expected, atol=1e-12)
                total = np.sqrt((v.per_block_residuals ** 2).sum())
                assert total == pytest.approx(np.linalg.norm(dev.assembled), abs=1e-12)

    def test_hermitian_front_iff_rear(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            A, p, _ = _random_hermitian_equitable(rng, n, k)
            wi = eq.WeightedIndicator.unit(p)
            f = eq.check_equitable(A, wi, side="front", tol=1e-10)
            r = eq.check_equitable(A, wi, side="rear", tol=1e-10)
            assert f.is_equitable == r.is_equitable

    def test_inadmissible_rejected(self):
        p = eq.Partition.singletons(2)
        wi = eq.WeightedIndicator(p, np.array([1.0, 0.0]))
        with pytest.raises(AdmissibilityError):
            eq.check_equitable(np.zeros((2, 2)), wi)

    def test_size_mismatch_rejected(self):
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(3))
        with pytest.raises(InputError):
            eq.check_equitable(np.zeros((2, 2)), wi)


def _random_hermitian_equitable(rng, n, k):
    """Hermitian matrix front equitable w.r.t. a random contiguous partition."""
    sizes = np.ones(k, dtype=int)
    for _ in range(n - k):
        sizes[rng.integers(0, k)] += 1
    Theta = rng.normal(size=(k, k))
    Theta = Theta + Theta.T
    offs = np.concatenate([[0], np.cumsum(sizes)])
    A = np.zeros((n, n))
    for i in range(k):
        for j in range(k):
            A[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = Theta[i, j] / sizes[j]
    A = (A + A.T) / 2
    cells = [tuple(range(offs[i], offs[i + 1])) for i in range(k)]
    return A, eq.Partition.from_cells(cells), Theta


class TestEpsilonEquitability:
    def test_worked_example_zero(self):
        assert eq.epsilon_equitability(A0, eq.Partition.from_cells(PI0_CELLS)) == 0.0

    def test_row_sum_spread(self):
        A = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert eq.epsilon_equitability(A, eq.Partition.single_cell(2)) == 3.0

    def test_singletons_always_zero(self, rng):
        A = rng.normal(size=(5, 5))
        assert eq.epsilon_equitability(A, eq.Partition.singletons(5)) == 0.0

    def test_zero_iff_front_equitable(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = random_partition(rng, n)
            A = rng.integers(0, 3, size=(n, n)).astype(float)
            eps = eq.epsilon_equitability(A, p)
            v = eq.check_equitable(A, eq.WeightedIndicator.unit(p), "front", 0.0)
            assert (eps == 0.0) == v.is_equitable


class TestRegularEquivalence:
    def test_worked_example(self):
        assert eq.check_regular_equivalence(A0, eq.Partition.from_cells(PI0_CELLS))

    def test_mixed_zero_pattern_fails(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert not eq.check_regular_equivalence(A, eq.Partition.single_cell(2))

    def test_zero_matrix_passes(self, rng):
        p = random_partition(rng, 5)
        assert eq.check_regular_equivalence(np.zeros((5, 5)), p)


class TestRefinement:
    def test_equitable_initial_unchanged(self):
        p = eq.Partition.from_cells(PI0_CELLS)
        assert eq.coarsest_front_equitable_refinement(A0, p) == p

    def test_a0_from_single_cell(self):
        out = eq.coarsest_front_equitable_refinement(A0)
        assert out == eq.Partition.from_cells(PI0_CELLS)

    def test_path_graph_degree_split(self):
        P3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        out = eq.coarsest_front_equitable_refinement(P3)
        assert out == eq.Partition.from_cells([[0, 2], [1]])

    def test_idempotent_and_refining(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 10))
            A = rng.integers(-2, 3, size=(n, n)).astype(float)
            initial = random_partition(rng, n)
            out = eq.coarsest_front_equitable_refinement(A, initial)
            assert out.refines(initial)
            assert eq.coarsest_front_equitable_refinement(A, out) == out
            v = eq.check_equitable(A, eq.WeightedIndicator.unit(out), "front", 0.0)
            assert v.is_equitable

    def test_coarsest_by_enumeration(self, rng):
        # exhaustive check over the whole partition lattice at small n
        for _ in range(6):
            n = int(rng.integers(2, 6))
            A = rng.integers(0, 3, size=(n, n)).astype(float)
            initial = random_partition(rng, n)
            out = eq.coarsest_front_equitable_refinement(A, initial)
            for q in all_partitions(n):
                if not q.refines(initial) or q == out:
                    continue
                if out.refines(q):
                    wi = eq.WeightedIndicator.unit(q)
                    assert not eq.check_equitable(A, wi, "front", 0.0).is_equitable

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            eq.coarsest_front_equitable_refinement(
                np.zeros((3, 3)), eq.Partition.single_cell(4)
            )

    @pytest.mark.parametrize("block_entries", [None, 5])
    @pytest.mark.parametrize("dtype", ["real", "complex", "bool"])
    def test_matches_naive_fixpoint(self, rng, monkeypatch, dtype, block_entries):
        if block_entries:
            # tiny row blocks put block boundaries between most sorted rows
            monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block_entries)
        for _ in range(70):
            n = int(rng.integers(1, 13))
            if dtype == "real":
                A = rng.integers(-2, 3, size=(n, n)).astype(float)
            elif dtype == "complex":
                A = rng.integers(-2, 3, size=(n, n)) + 1j * rng.integers(-2, 3, size=(n, n))
            else:
                A = rng.integers(0, 2, size=(n, n)).astype(bool)
            initial = _shuffled_cells(rng, random_partition(rng, n))
            assert eq.coarsest_front_equitable_refinement(A, initial) == \
                refine_oracle(A, initial)

    @pytest.mark.parametrize("color_tol", [0.0, 0.3])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_permutation_equivariant(self, rng, color_tol, complex_entries):
        # entries 0 or 1/4 keep every sum exact and put many signatures
        # within 0.3 of each other, so at 0.3 groups chain across members
        def relabel(p, perm):
            return eq.Partition.from_cells([[perm[v] for v in c] for c in p.cells])

        for _ in range(40):
            n = int(rng.integers(2, 13))
            A = rng.integers(0, 2, size=(n, n)) / 4
            if complex_entries:
                A = A + 1j * rng.integers(0, 2, size=(n, n)) / 4
            initial = _shuffled_cells(rng, random_partition(rng, n, min(n, 3)))
            perm = rng.permutation(n)  # index v becomes perm[v]
            inv = np.argsort(perm)
            out = eq.coarsest_front_equitable_refinement(A, initial, color_tol)
            moved = eq.coarsest_front_equitable_refinement(
                A[np.ix_(inv, inv)], relabel(initial, perm), color_tol
            )
            assert moved == relabel(out, perm).canonical()

    def test_color_tol_is_single_linkage(self):
        # consecutive signatures 0, 0.6, 1.2 differ by 0.6: linked at 0.7
        # although the ends differ by 1.2, all apart at 0.5
        A = np.diag([0.0, 0.6, 1.2])
        assert eq.coarsest_front_equitable_refinement(A, color_tol=0.7) == \
            eq.Partition.single_cell(3)
        assert eq.coarsest_front_equitable_refinement(A, color_tol=0.5) == \
            eq.Partition.singletons(3)
        for bad in (-0.1, float("nan")):
            with pytest.raises(InputError):
                eq.coarsest_front_equitable_refinement(A, color_tol=bad)

    def test_grid_peak_memory_below_dense_copy(self):
        # a 30x40 grid refines in 30 rounds into 300 cells; no round may
        # hold a float64 copy of A
        r, c = 30, 40
        n = r * c
        idx = np.arange(n).reshape(r, c)
        A = np.zeros((n, n), dtype=np.int64)
        for a, b in ((idx[:, :-1], idx[:, 1:]), (idx[:-1], idx[1:])):
            A[a.ravel(), b.ravel()] = A[b.ravel(), a.ravel()] = 1
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = eq.coarsest_front_equitable_refinement(A)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.k == 300
        assert peak < n * n * 8


class TestWeightedRefinement:
    def test_unit_weights_match_unweighted(self, rng):
        A = rng.integers(0, 3, size=(6, 6)).astype(float)
        assert eq.weighted_refinement(A, np.ones(6)) == \
            eq.coarsest_front_equitable_refinement(A)

    def test_diagonal_groups_by_value(self, rng):
        A = np.diag([2.0, 3.0, 2.0, 3.0])
        w = rng.uniform(0.5, 2.0, size=4)
        out = eq.weighted_refinement(A, w)
        assert out == eq.Partition.from_cells([[0, 2], [1, 3]])

    def test_planted_similarity_recovered(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            A_star, p_star, _ = _random_front_equitable(rng, n, k)
            w = random_weights(rng, p_star)
            A = (A_star * w[:, None]) / w[None, :]
            # the similarity round trip leaves 1e-16 noise on the colors,
            # so exact color comparison would over-split
            out = eq.weighted_refinement(A, w, p_star, color_tol=1e-9)
            assert out == p_star.canonical()
            wi = eq.WeightedIndicator(out, w)
            assert eq.check_equitable(A, wi, "front", 1e-9).is_equitable

    def test_zero_weight_rejected(self):
        with pytest.raises(InputError):
            eq.weighted_refinement(np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_weighted_path_peak_memory_below_dense_copy(self, rng):
        # diag(w)^-1 A diag(w) is formed block by block, never as an N-by-N array
        n = 600
        A = _relabelled(rng, _path(n))
        w = np.exp2(rng.integers(-1, 2, n)).astype(float)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = eq.weighted_refinement(A, w)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out == full_signature_refinement(A, w=w)
        assert peak < n * n * 8


class TestIncrementalRefinement:
    """Refinement at color_tol 0 sums only into split-off cells; the
    full-signature loop of tests/helpers.py is its oracle, and both count
    their rounds through the wrapped aggregate kernel."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Number of indices summed into by each aggregate pass, in call order."""
        calls = []
        kernel = partition._aggregate

        def counted(A, lay, *args, cols=None, **kwargs):
            calls.append(lay.order.size if cols is None else cols[0].size)
            return kernel(A, lay, *args, cols=cols, **kwargs)

        monkeypatch.setattr(partition, "_aggregate", counted)
        return calls

    @staticmethod
    def _both(calls, A, initial=None, color_tol=0.0, w=None):
        """(result, rounds) of the library and of the oracle."""
        calls.clear()
        if w is None:
            out = eq.coarsest_front_equitable_refinement(A, initial, color_tol)
        else:
            out = eq.weighted_refinement(A, w, initial, color_tol)
        rounds = len(calls)
        calls.clear()
        want = full_signature_refinement(A, initial, color_tol, w)
        return (out, rounds), (want, len(calls))

    @pytest.mark.parametrize("block_entries", [None, 5])
    @pytest.mark.parametrize("kind", ["integer", "complex", "bool", "dyadic-weighted"])
    def test_matches_full_signature(self, rng, monkeypatch, kernel_calls, kind,
                                    block_entries):
        if block_entries:
            monkeypatch.setattr(partition, "_BLOCK_ENTRIES", block_entries)
        for _ in range(60):
            n = int(rng.integers(1, 16))
            # sparse draws give long chains of rounds, dense ones wide rounds
            mask = rng.random((n, n)) < rng.uniform(0.1, 1.0)
            A = rng.integers(-2, 3, size=(n, n)) * mask
            w = None
            if kind == "complex":
                A = A + 1j * rng.integers(-2, 3, size=(n, n)) * mask
            elif kind == "bool":
                A = A != 0
            elif kind == "dyadic-weighted":
                w = np.exp2(rng.integers(-2, 3, n)) * rng.choice([-1.0, 1.0], n)
            initial = _shuffled_cells(rng, random_partition(rng, n))
            got, want = self._both(kernel_calls, A, initial, w=w)
            assert got == want

    @pytest.mark.parametrize("kind", ["real", "complex", "weighted"])
    def test_positive_tolerance_unchanged(self, rng, kernel_calls, kind):
        # entries 0 or 1/4 chain many signatures within 0.3; above 0 every
        # round sums into every cell, so even float weights give the oracle's
        # signatures bit for bit
        for _ in range(40):
            n = int(rng.integers(2, 14))
            A = rng.integers(0, 2, size=(n, n)) / 4
            w = None
            if kind == "complex":
                A = A + 1j * rng.integers(0, 2, size=(n, n)) / 4
            elif kind == "weighted":
                w = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            initial = _shuffled_cells(rng, random_partition(rng, n, min(n, 3)))
            got, want = self._both(kernel_calls, A, initial, 0.3, w)
            assert got == want
            assert kernel_calls == [n] * len(kernel_calls)

    def test_graph_families_match_full_signature(self, rng, kernel_calls):
        grid = np.kron(_path(9), np.eye(13, dtype=np.int64)) + \
            np.kron(np.eye(9, dtype=np.int64), _path(13))
        regular = np.zeros((200, 200), dtype=np.int64)
        for _ in range(6):  # union of perfect matchings: 6-regular, one cell
            p = rng.permutation(200).reshape(-1, 2)
            np.add.at(regular, (p[:, 0], p[:, 1]), 1)
            np.add.at(regular, (p[:, 1], p[:, 0]), 1)
        for A, w in ((_path(150), None), (grid, None), (regular, None),
                     (_path(120), np.exp2(rng.integers(-1, 2, 120)).astype(float))):
            A = _relabelled(rng, A)
            if w is not None:
                w = w[rng.permutation(w.size)]
            got, want = self._both(kernel_calls, A, w=w)
            assert got == want

    @pytest.mark.parametrize("shape", [(1000,), (30, 40)])
    def test_summed_indices_within_n_log_n(self, rng, kernel_calls, shape):
        # each index is summed into only while its cell is at most half of
        # its parent, so after the first round at most log2(N) times
        A = _path(shape[0])
        if len(shape) == 2:
            A = np.kron(A, np.eye(shape[1], dtype=np.int64)) + \
                np.kron(np.eye(shape[0], dtype=np.int64), _path(shape[1]))
        n = A.shape[0]
        out = eq.coarsest_front_equitable_refinement(_relabelled(rng, A))
        assert out.k == np.prod([-(-m // 2) for m in shape])
        assert kernel_calls[0] == n
        assert sum(kernel_calls[1:]) <= n * np.log2(n)

    def test_split_off_leaves_out_first_largest_piece(self):
        # cells 0-2 come from parent 0 (sizes 2, 3, 3), cell 3 from parent 1
        lay = partition._layout(eq.Partition.from_cells([[4, 0], [1, 2, 3], [5, 6, 7], [8]]))
        corder, cstarts = partition._split_off(lay, np.array([0, 0, 0, 1]))
        assert corder.tolist() == [0, 4, 5, 6, 7]
        assert cstarts.tolist() == [0, 2]


def _path(n):
    A = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = 1
    return A


def _relabelled(rng, A):
    p = rng.permutation(A.shape[0])
    return A[np.ix_(p, p)]


def _random_front_equitable(rng, n, k):
    sizes = np.ones(k, dtype=int)
    for _ in range(n - k):
        sizes[rng.integers(0, k)] += 1
    Theta = rng.integers(1, 4, size=(k, k)).astype(float)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    A = np.zeros((n, n))
    for i in range(k):
        for j in range(k):
            A[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = Theta[i, j] / sizes[j]
    cells = [tuple(range(offs[i], offs[i + 1])) for i in range(k)]
    return A, eq.Partition.from_cells(cells), Theta


def _shuffled_cells(rng, p):
    """p with its cells in random order: neither contiguous nor canonical."""
    return eq.Partition.from_cells([p.cells[i] for i in rng.permutation(p.k)])


class TestFromDict:
    def test_refusals_name_the_first_bad_value(self):
        cases = {
            "bad partition object: True is not an index": {"n": 2, "cells": [[1, True], [False]]},
            "bad partition object: 'float' object cannot be interpreted as an integer":
                {"n": 2, "cells": [[1], [2.0]]},
            "bad partition object: 'str' object cannot be interpreted as an integer":
                {"n": 2, "cells": [["1"], [2]]},
            "bad partition object: 'int' object is not iterable": {"n": 2, "cells": [1, [2]]},
            "bad partition object: 'cells'": {"n": 2},
            "bad partition object: False is not an index": {"n": False, "cells": [[1], [2]]},
            "partition covers 2 indices but n = 3": {"n": 3, "cells": [[1], [2]]},
            "cells must be non-empty": {"n": 1, "cells": [[1], []]},
            "cells must disjointly cover 0..N-1": {"n": 2, "cells": [[1], [2 ** 70]]},
        }
        for message, d in cases.items():
            with pytest.raises(InputError) as exc:
                eq.Partition.from_dict(d)
            assert str(exc.value) == message

    def test_entries_are_checked_once(self, monkeypatch):
        # one _index call per entry type, however many entries
        n = 1000
        d = {"n": n, "cells": [[2 * i + 1, 2 * i + 2] for i in range(n // 2)]}
        want = eq.Partition.from_cells([[2 * i, 2 * i + 1] for i in range(n // 2)])
        calls = []
        monkeypatch.setattr(partition, "_index", lambda v: calls.append(v) or int(v))
        assert eq.Partition.from_dict(d) == want
        assert len(calls) == 2  # one entry and n


class TestScaledCellNorms:
    """Cells of weights far from 1 are scaled by a power of two (2^e, e the
    cell's) before their norms are squared; quotients, residuals and
    deviations are those of the plain weights, exactly."""

    @pytest.fixture
    def setup(self, rng):
        p = eq.Partition.from_labels(rng.integers(0, 3, 12))
        w = rng.uniform(0.5, 1.0, 12) * rng.choice([-1.0, 1.0], 12)
        w[p.order[p.starts]] = 0.75  # each cell's largest |w| in [0.5, 1): scaled back exactly
        A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        return A, p, w

    @pytest.mark.parametrize("k", [[-700, -690, -680], [600, 610, 620], [0, 450, -450]])
    def test_far_weights_match_plain_ones(self, setup, k):
        A, p, w = setup
        k = np.array(k)
        lab = p.labels()
        plain = eq.WeightedIndicator(p, w)
        far = eq.WeightedIndicator(p, np.ldexp(w, k[lab]))
        assert eq.is_admissible(far)
        for alpha in (-1.0, 0.0, 1.0):
            got = eq.generalized_quotient(A, far, alpha).entries
            want = eq.generalized_quotient(A, plain, alpha).entries
            # E^alpha of W S is S^alpha E^alpha S^-alpha for S = diag(2^k)
            d = k[:, None] - k[None, :]
            assert np.array_equal(got, want * np.exp2(alpha * d))
        for side in ("front", "rear"):
            v = eq.check_equitable(A, far, side)
            assert np.array_equal(v.per_block_residuals, eq.check_equitable(A, plain, side)
                                  .per_block_residuals)
        for t_far, t_plain in zip(eq.deviation_matrices(A, far), eq.deviation_matrices(A, plain)):
            assert np.array_equal(t_far.assembled, t_plain.assembled)
        Theta, d = A[:3, :3], k[None, :] - k[:, None]
        for side, sign in (("front", 1), ("rear", -1)):
            assert eq.theta_residual(A, far, Theta * np.exp2(sign * d), side) == \
                eq.theta_residual(A, plain, Theta, side)

    def test_tiny_and_huge_uniform_weights(self):
        A = np.array([[1.0, 2.0], [3.0, 5.0]])
        p = eq.Partition.single_cell(2)
        unit = eq.generalized_quotient(A, eq.WeightedIndicator.unit(p), -1.0).entries
        for c in (1e-200, 1e160, 2.0 ** -1070):
            wi = eq.WeightedIndicator(p, [c, c])
            assert eq.is_admissible(wi)
            assert np.allclose(eq.generalized_quotient(A, wi, -1.0).entries, unit, rtol=1e-15)
            assert eq.check_equitable(A, wi).max_residual == pytest.approx(
                eq.check_equitable(A, eq.WeightedIndicator.unit(p)).max_residual, rel=1e-15)
        # the squared norm itself is outside float64 and reads 0 or inf
        assert eq.WeightedIndicator(p, [1e-200, 1e-200]).cell_norms2().tolist() == [0.0]
        assert eq.WeightedIndicator(p, [1e160, 1e160]).cell_norms2().tolist() == [np.inf]

    def test_plain_weights_keep_their_norms(self, rng):
        p = eq.Partition.from_labels(rng.integers(0, 4, 30))
        w = rng.normal(size=30) * 2.0 ** rng.integers(-390, 390, 30)
        wi = eq.WeightedIndicator(p, w)
        wl, e, norms2 = partition._cell_weights(wi)
        assert not e.any() and np.array_equal(wl, w[p.order])
        assert np.array_equal(wi.cell_norms2(), np.add.reduceat(w[p.order] ** 2, p.starts))


def _square_entry_points():
    """Every public entry point that takes a square A, as f(A) on a 4x4 A."""
    p = eq.Partition.from_cells([[0, 1], [2, 3]])
    wi = eq.WeightedIndicator(p, [1.0, 2.0, 1.0, -1.0])
    finite = eq.block_triangularize(np.eye(4), wi)
    return {
        "check_equitable": lambda A: eq.check_equitable(A, wi),
        "check_equitable rear": lambda A: eq.check_equitable(A, wi, side="rear"),
        "epsilon_equitability": lambda A: eq.epsilon_equitability(A, p),
        "check_regular_equivalence": lambda A: eq.check_regular_equivalence(A, p),
        "coarsest_front_equitable_refinement":
            lambda A: eq.coarsest_front_equitable_refinement(A),
        "weighted_refinement": lambda A: eq.weighted_refinement(A, [1.0, 2.0, 1.0, -1.0]),
        "block_triangularize": lambda A: eq.block_triangularize(A, wi),
        "generalized_quotient": lambda A: eq.generalized_quotient(A, wi, 0.0),
        "deviation_matrices": lambda A: eq.deviation_matrices(A, wi),
        "theta_residual": lambda A: eq.theta_residual(A, wi, np.zeros((2, 2))),
        "weyl_check": lambda A: eq.weyl_check(A, finite),
        "BlockReflector.conjugate": lambda A: eq.build_block_reflector(wi).conjugate(A),
    }


class TestNonFiniteMatrix:
    """A NaN or an infinity in A is an input error, never a NaN verdict."""

    ENTRY_POINTS = _square_entry_points()

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)],
                             ids=["nan", "inf", "-inf", "nan-imag"])
    def test_refused(self, name, bad):
        A = np.eye(4, dtype=type(bad))
        A[1, 2] = A[2, 1] = bad
        with pytest.raises(InputError, match="finite"):
            self.ENTRY_POINTS[name](A)

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32])
    def test_finite_accepted(self, name, dtype):
        self.ENTRY_POINTS[name](np.eye(4, dtype=dtype))
