import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equitile as eq
from equitile.errors import AdmissibilityError, InputError, NumericalError
from equitile import opcount

from helpers import (
    A0,
    A_SUIT,
    EMINUS,
    E_HAT,
    F_HAT,
    H2_DENSE,
    H3_DENSE,
    PI0_CELLS,
    charpoly_eigenvalues,
    planted_equitable,
    random_complex_matrix,
    random_hermitian,
    random_partition,
    random_weights,
    sorted_complex,
)

PI0 = eq.Partition.from_cells(PI0_CELLS)
WI0 = eq.WeightedIndicator.unit(PI0)
PI_SUIT = eq.Partition.from_cells([[0], [1, 2], [3, 4, 5]])
WI_SUIT = eq.WeightedIndicator.unit(PI_SUIT)


class TestGeneralizedQuotient:
    def test_front_quotient_worked_example(self):
        q = eq.generalized_quotient(A_SUIT, WI_SUIT, -1.0)
        assert np.array_equal(q.entries, EMINUS)

    def test_rayleigh_from_front_by_diagonal_similarity(self):
        q0 = eq.generalized_quotient(A_SUIT, WI_SUIT, 0.0)
        N = np.diag(np.sqrt([1.0, 2.0, 3.0]))
        expected = N @ EMINUS @ np.linalg.inv(N)
        assert np.allclose(q0.entries, expected, atol=1e-12)
        assert np.allclose(q0.entries, E_HAT, atol=1e-12)

    def test_zero_matrix(self, rng):
        p = random_partition(rng, 7)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        for alpha in (-1.0, 0.0, 1.0, 0.37):
            assert np.all(eq.generalized_quotient(np.zeros((7, 7)), wi, alpha).entries == 0)

    def test_all_alphas_similar(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            e0 = eq.generalized_quotient(A, wi, 0.0).entries
            norms = wi.cell_norms()
            for alpha in (-1.0, 1.0, 0.6):
                ea = eq.generalized_quotient(A, wi, alpha).entries
                S = np.diag(norms**alpha)
                assert np.allclose(ea, S @ e0 @ np.linalg.inv(S), atol=1e-10)

    def test_inadmissible_rejected(self):
        wi = eq.WeightedIndicator(eq.Partition.singletons(2), np.array([1.0, 0.0]))
        with pytest.raises(AdmissibilityError):
            eq.generalized_quotient(np.zeros((2, 2)), wi, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, "x", None])
    def test_bad_alpha_refused(self, alpha):
        with pytest.raises(InputError, match="alpha must be a finite number"):
            eq.generalized_quotient(A_SUIT, WI_SUIT, alpha)


class TestDeviationMatrices:
    def test_worked_example_front_zero(self):
        front, rear = eq.deviation_matrices(A0, WI0)
        assert np.all(front.assembled == 0)
        # the matrix is symmetric, so rear equitability comes for free
        assert np.all(rear.assembled == 0)

    def test_hand_computed_single_cell(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(2))
        front, _ = eq.deviation_matrices(A, wi)
        e = eq.generalized_quotient(A, wi, -1.0).entries[0, 0]
        assert e == pytest.approx(0.5)
        expected = (np.array([1.0, 0.0]) - 0.5 * np.ones(2)) / np.sqrt(2.0)
        assert np.allclose(front.blocks[0][0], expected, atol=1e-15)
        assert np.linalg.norm(front.assembled) == pytest.approx(0.5, abs=1e-15)

    def test_zero_iff_equitable(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, min(n, 4) + 1))
            sizes = _random_sizes(rng, n, k)
            A, p, _ = planted_equitable(rng, k, sizes)
            wi = eq.WeightedIndicator.unit(p)
            front, _ = eq.deviation_matrices(A, wi)
            assert np.abs(front.assembled).max() <= 1e-13 * max(1, np.abs(A).max())
            B = np.array(A)
            B[0, -1] += 1.0
            frontB, _ = eq.deviation_matrices(B, wi)
            # the bump breaks row-sum constancy only if row 0 has cellmates
            if p.sizes[0] > 1:
                assert np.abs(frontB.assembled).max() > 1e-6

    def test_block_layout(self, rng):
        n = 8
        p = random_partition(rng, n)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        A = random_complex_matrix(rng, n)
        front, rear = eq.deviation_matrices(A, wi)
        for i, ci in enumerate(p.cells):
            for j in range(p.k):
                assert np.array_equal(front.blocks[i][j], front.assembled[list(ci), j])
                assert np.array_equal(rear.blocks[j][i], rear.assembled[list(ci), j])

    def test_block_norms_invariant_under_cell_rescaling(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 10))
            p = random_partition(rng, n)
            w = random_weights(rng, p)
            A = random_complex_matrix(rng, n)
            front, rear = eq.deviation_matrices(A, eq.WeightedIndicator(p, w))
            mus = rng.normal(size=p.k) + 1j * rng.normal(size=p.k)
            mus[np.abs(mus) < 0.3] = 1.0
            w2 = np.array(w)
            for i, c in enumerate(p.cells):
                w2[list(c)] *= mus[i]
            front2, rear2 = eq.deviation_matrices(A, eq.WeightedIndicator(p, w2))
            for dev, dev2 in ((front, front2), (rear, rear2)):
                a = np.array([[np.linalg.norm(dev.blocks[i][j]) for j in range(p.k)]
                              for i in range(p.k)])
                b = np.array([[np.linalg.norm(dev2.blocks[i][j]) for j in range(p.k)]
                              for i in range(p.k)])
                assert np.abs(a - b).max() <= 1e-12 * max(1.0, a.max())


def _random_sizes(rng, n, k):
    sizes = np.ones(k, dtype=int)
    for _ in range(n - k):
        sizes[rng.integers(0, k)] += 1
    return sizes


class TestBlockReflector:
    def test_worked_example_blocks(self):
        refl = eq.build_block_reflector(WI_SUIT)
        # one block per cell, and nothing outside the blocks
        expected = np.zeros((6, 6))
        expected[:1, :1] = -1.0
        expected[1:3, 1:3] = H2_DENSE
        expected[3:, 3:] = H3_DENSE
        assert np.allclose(refl.dense(), expected, atol=1e-15)

    def test_singletons_give_negative_identity(self):
        refl = eq.build_block_reflector(
            eq.WeightedIndicator.unit(eq.Partition.singletons(4))
        )
        assert np.allclose(refl.dense(), -np.eye(4))

    def test_first_basis_vector_identity(self):
        p = eq.Partition.single_cell(3)
        w = np.array([1.0, 0.0, 0.0])
        refl = eq.build_block_reflector(eq.WeightedIndicator(p, w), phases=[1.0])
        assert refl.coeffs[0] == 0
        assert not refl.vectors.any()
        assert np.array_equal(refl.dense(), np.eye(3))

    def test_phase_count_checked(self):
        with pytest.raises(InputError):
            eq.build_block_reflector(WI_SUIT, phases=[1.0])

    def test_matches_rank_one_closed_form(self, rng):
        # block diagonal form equals I - Y pinv(W'Y) Y' for contiguous cells
        for _ in range(10):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            sizes = _random_sizes(rng, n, k)
            offs = np.concatenate([[0], np.cumsum(sizes)])
            p = eq.Partition.from_cells(
                [tuple(range(a, b)) for a, b in zip(offs, offs[1:])]
            )
            w = random_weights(rng, p)
            wi = eq.WeightedIndicator(p, w)
            refl = eq.build_block_reflector(wi)
            W = wi.matrix()
            first = np.zeros(n)
            first[offs[:-1]] = 1.0
            B = eq.indicator_matrix(p)
            N = np.diag(wi.cell_norms())
            V = np.diag(refl.phases)
            Y = W - (first[:, None] * B) @ N @ V.conj().T
            WY = W.conj().T @ Y
            pinv = np.diag([0 if d == 0 else 1 / d for d in np.diag(WY)])
            H_closed = np.eye(n) - Y @ pinv @ Y.conj().T
            assert np.allclose(refl.dense(), H_closed, atol=1e-12)

    def test_apply_matches_dense(self, rng):
        n = 9
        p = eq.Partition.from_cells([[0, 1, 2], [3, 4], [5, 6, 7, 8]])
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        refl = eq.build_block_reflector(wi)
        H = refl.dense()
        M = random_complex_matrix(rng, n)
        assert np.allclose(refl.apply_left(M), H.conj().T @ M, atol=1e-13)
        assert np.allclose(refl.apply_right(M), M @ H, atol=1e-13)
        assert np.allclose(refl.conjugate(M), H.conj().T @ M @ H, atol=1e-13)
        v = random_complex_matrix(rng, n)[:, 0]
        assert np.allclose(refl.matvec(v), H @ v, atol=1e-13)


def _reflector_case(rng, n, complex_weights, random_phases, complex_matrix):
    """(A, wi, phases): cells in shuffled order, so mostly not contiguous."""
    cells = list(random_partition(rng, n).cells)
    rng.shuffle(cells)
    p = eq.Partition.from_cells(cells)
    wi = eq.WeightedIndicator(p, random_weights(rng, p, complex_weights))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, p.k)) if random_phases else None
    A = random_complex_matrix(rng, n) if complex_matrix else rng.normal(size=(n, n))
    return A, wi, phases


def _documented_route(A, wi, phases=None):
    """Relabel by the suitable indexing, conjugate by build_block_reflector, gather by Omega."""
    p = wi.partition
    inv = np.argsort(eq.suitable_indexing_permutation(p))
    gather = np.argsort(eq.omega_permutation(p.sizes))
    At = eq.build_block_reflector(wi, phases).conjugate(A[np.ix_(inv, inv)])
    return At[np.ix_(gather, gather)]


class TestOneReflectorBuilder:
    """build_block_reflector is the H of block_triangularize, for any cell order."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans(), st.booleans(),
           st.booleans())
    def test_block_triangularize_uses_it_bit_for_bit(self, seed, n, complex_weights,
                                                     random_phases, complex_matrix):
        rng = np.random.default_rng(seed)
        A, wi, phases = _reflector_case(rng, n, complex_weights, random_phases,
                                        complex_matrix)
        r = eq.block_triangularize(A, wi, phases)
        refl = eq.build_block_reflector(wi, phases)
        for name in ("vectors", "coeffs", "phases"):
            got, want = getattr(refl, name), getattr(r.reflector, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        contiguous = eq.Partition.from_cells(_contiguous_cells(wi.partition.sizes))
        assert refl.partition == r.reflector.partition == contiguous
        A_hat = _documented_route(A, wi, phases)
        assert A_hat.dtype == r.A_hat.dtype and np.array_equal(A_hat, r.A_hat)

    def test_non_contiguous_weighted_equitable(self, rng):
        # A W = W Theta, so the documented route leaves D_minus at rounding level
        p = eq.Partition.from_cells([[0, 3], [1, 2, 4]])
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        W, Theta = wi.matrix(), random_complex_matrix(rng, 2)
        A = W @ Theta @ np.linalg.pinv(W)
        assert np.allclose(A @ W, W @ Theta, atol=1e-12)
        A_hat = _documented_route(A, wi)
        assert np.abs(A_hat[p.k:, :p.k]).max() <= 1e-13 * np.abs(A).max()


class TestOmegaPermutation:
    def test_worked_example_sizes(self):
        assert np.array_equal(eq.omega_permutation([1, 2, 3]), [0, 1, 3, 2, 4, 5])

    def test_all_singleton_sizes(self):
        assert np.array_equal(eq.omega_permutation([1, 1, 1]), [0, 1, 2])

    def test_two_by_two(self):
        assert np.array_equal(eq.omega_permutation([2, 2]), [0, 2, 1, 3])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            eq.omega_permutation([])

    def test_gathers_block_leads(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            sizes = [int(s) for s in rng.integers(1, 5, size=k)]
            om = eq.omega_permutation(sizes)
            offs = np.concatenate([[0], np.cumsum(sizes)])
            assert sorted(om) == list(range(sum(sizes)))
            assert np.array_equal(om[offs[:-1]], np.arange(k))
            tails = np.delete(np.arange(sum(sizes)), offs[:-1])
            assert np.array_equal(np.sort(om[tails]), np.arange(k, sum(sizes)))
            assert np.all(np.diff(om[tails]) > 0)  # relative order kept


class TestBlockTriangularize:
    def test_worked_example_full(self):
        r = eq.block_triangularize(A0, WI0)
        assert np.array_equal(A0[np.ix_(np.argsort(r.pre_permutation),
                                        np.argsort(r.pre_permutation))], A_SUIT)
        assert np.abs(r.E - E_HAT).max() <= 1e-12
        assert np.abs(r.F - F_HAT).max() <= 1e-12
        assert np.abs(r.D_minus).max() <= 1e-12
        assert np.abs(r.D_plus_conj).max() <= 1e-12
        # unitary similarity forces norm preservation, pinning the F values
        assert np.linalg.norm(r.assembled()) == pytest.approx(np.linalg.norm(A0))

    def test_assembled_reproduces_transform_exactly(self, rng):
        n = 8
        p = random_partition(rng, n)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        A = random_complex_matrix(rng, n)
        r = eq.block_triangularize(A, wi)
        inv = np.argsort(r.pre_permutation)
        At = r.reflector.conjugate(A[np.ix_(inv, inv)])
        oinv = np.argsort(r.omega)
        assert np.array_equal(r.assembled(), At[np.ix_(oinv, oinv)])

    def test_singleton_partition_negates_nothing(self, rng):
        A = random_complex_matrix(rng, 5)
        wi = eq.WeightedIndicator.unit(eq.Partition.singletons(5))
        r = eq.block_triangularize(A, wi)
        # every reflector is the 1x1 value -1, so conjugation restores A
        assert np.allclose(r.E, A, atol=1e-14)
        assert r.F.shape == (0, 0)
        assert r.D_minus.shape == (0, 5)

    def test_zero_matrix(self, rng):
        p = random_partition(rng, 6)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        r = eq.block_triangularize(np.zeros((6, 6)), wi)
        assert np.all(r.assembled() == 0)

    def test_unitary_similarity_random(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 64))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            r = eq.block_triangularize(A, wi)
            sv_a = np.linalg.svd(A, compute_uv=False)
            sv_b = np.linalg.svd(r.assembled(), compute_uv=False)
            assert np.abs(sv_a - sv_b).max() <= 1e-11 * np.linalg.norm(A)

    def test_hermitian_eigenvalues_and_structure(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 32))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_hermitian(rng, n)
            r = eq.block_triangularize(A, wi)
            Ah = r.assembled()
            assert np.abs(Ah - Ah.conj().T).max() <= 1e-12 * np.linalg.norm(A)
            if r.D_minus.size:
                assert np.abs(r.D_minus - r.D_plus_conj.conj().T).max() \
                    <= 1e-12 * np.linalg.norm(A)
            ea = np.linalg.eigvalsh(A)
            eb = np.linalg.eigvalsh((Ah + Ah.conj().T) / 2)
            assert np.abs(ea - eb).max() <= 1e-11 * np.linalg.norm(A)

    def test_exactness_both_directions(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 20))
            k = int(rng.integers(1, min(n, 5) + 1))
            A, p, _ = planted_equitable(rng, k, _random_sizes(rng, n, k))
            wi = eq.WeightedIndicator.unit(p)
            r = eq.block_triangularize(A, wi)
            assert np.linalg.norm(r.D_minus) <= 1e-12 * np.linalg.norm(A)
            # non-equitable input: lower-left block carries deviation exactly
            B = np.array(A)
            B[:, 0] += rng.normal(size=n)
            rB = eq.block_triangularize(B, wi)
            front, _ = eq.deviation_matrices(B, wi)
            assert np.linalg.norm(rB.D_minus) == pytest.approx(
                np.linalg.norm(front.assembled), rel=1e-10
            )

    def test_phase_choice_only_conjugates_lead_block(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 16))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            r_auto = eq.block_triangularize(A, wi)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=p.k))
            r_ph = eq.block_triangularize(A, wi, phases=list(phases))
            e1 = sorted_complex(np.linalg.eigvals(r_auto.E))
            e2 = sorted_complex(np.linalg.eigvals(r_ph.E))
            assert eq.spectrum_gap(e1, e2) <= 1e-11 * max(1, np.abs(e1).max())
            for attr in ("D_minus", "D_plus_conj"):
                a = getattr(r_auto, attr)
                b = getattr(r_ph, attr)
                if a.size:
                    sa = np.linalg.svd(a, compute_uv=False)
                    sb = np.linalg.svd(b, compute_uv=False)
                    assert np.abs(sa - sb).max() <= 1e-11 * max(1, sa.max())

    def test_lead_block_is_conjugated_rayleigh_quotient(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            r = eq.block_triangularize(A, wi)
            # E = V' E0 V with the stored per-cell phases, where E0 is taken
            # over the relabeled data so cell-internal order matches
            inv = np.argsort(r.pre_permutation)
            As = A[np.ix_(inv, inv)]
            wi_s = eq.WeightedIndicator(r.reflector.partition, wi.weights[inv])
            E0 = eq.generalized_quotient(As, wi_s, 0.0).entries
            V = np.diag(r.reflector.phases)
            assert np.abs(r.E - V.conj().T @ E0 @ V).max() <= 1e-11 * max(
                1, np.abs(E0).max()
            )

    def test_deviation_embedding_identity(self, rng):
        # gathering the transformed deviation matrix exposes the off blocks:
        # Omega' H' T_front V = (0; D_minus), Omega' H' T_rear V = (0; D_plus);
        # column j carries the phase of cell j
        for _ in range(10):
            n = int(rng.integers(2, 12))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            r = eq.block_triangularize(A, wi)
            inv = np.argsort(r.pre_permutation)
            As = A[np.ix_(inv, inv)]
            wi_s = eq.WeightedIndicator(r.reflector.partition, wi.weights[inv])
            front, rear = eq.deviation_matrices(As, wi_s)
            oinv = np.argsort(r.omega)
            V = np.diag(r.reflector.phases)
            scale = max(1, np.abs(A).max())
            lhs = r.reflector.apply_left(front.assembled)[oinv, :] @ V
            expected = np.zeros_like(lhs)
            expected[p.k:, :] = r.D_minus
            assert np.abs(lhs - expected).max() <= 1e-11 * scale
            lhs_r = r.reflector.apply_left(rear.assembled)[oinv, :] @ V
            expected_r = np.zeros_like(lhs_r)
            expected_r[p.k:, :] = r.D_plus_conj.conj().T
            assert np.abs(lhs_r - expected_r).max() <= 1e-11 * scale

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            eq.block_triangularize(np.zeros((3, 3)), WI0)


class TestRecoverEigenvector:
    def test_singleton_partition_negates(self, rng):
        A = random_complex_matrix(rng, 4)
        wi = eq.WeightedIndicator.unit(eq.Partition.singletons(4))
        r = eq.block_triangularize(A, wi)
        z_hat = random_complex_matrix(rng, 4)[:, 0]
        assert np.allclose(eq.recover_eigenvector(r, z_hat), -z_hat, atol=1e-14)

    def test_zero_maps_to_zero(self):
        r = eq.block_triangularize(A0, WI0)
        assert np.all(eq.recover_eigenvector(r, np.zeros(6)) == 0)

    def test_lead_block_eigenvector_lifts(self):
        r = eq.block_triangularize(A0, WI0)
        lam, V = np.linalg.eigh(r.E)
        for idx in range(3):
            z_hat = np.zeros(6, dtype=complex)
            z_hat[:3] = V[:, idx]
            z = eq.recover_eigenvector(r, z_hat)
            assert np.linalg.norm(A0 @ z - lam[idx] * z) <= 1e-10 * np.linalg.norm(A0)

    def test_random_eigenpairs_lift(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 16))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            r = eq.block_triangularize(A, wi)
            lam, V = np.linalg.eig(r.assembled())
            idx = int(rng.integers(0, n))
            z = eq.recover_eigenvector(r, V[:, idx])
            assert np.linalg.norm(A @ z - lam[idx] * z) <= 1e-9 * np.linalg.norm(A)

    def test_length_mismatch(self):
        r = eq.block_triangularize(A0, WI0)
        with pytest.raises(InputError):
            eq.recover_eigenvector(r, np.zeros(5))


class TestSpectrumSplit:
    def test_worked_example_exact(self):
        r = eq.block_triangularize(A0, WI0)
        s = eq.spectrum_split(r)
        assert s.exact
        joint = np.concatenate([s.eigs_E, s.eigs_F])
        assert eq.spectrum_gap(np.linalg.eigvalsh(A0), joint) <= 1e-9

    def test_diagonal_with_singletons(self):
        A = np.diag([1.0, 2.0, 3.0])
        wi = eq.WeightedIndicator.unit(eq.Partition.singletons(3))
        s = eq.spectrum_split(eq.block_triangularize(A, wi))
        assert s.eigs_F.size == 0
        assert np.allclose(np.sort(s.eigs_E.real), [1, 2, 3], atol=1e-12)

    def test_planted_quotient_spectrum_contained(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 5))
            sizes = rng.integers(1, 5, size=k)
            A, p, Theta = planted_equitable(rng, k, sizes, noise=0.0)
            r = eq.block_triangularize(A, eq.WeightedIndicator.unit(p))
            s = eq.spectrum_split(r)
            eigs_a = np.linalg.eigvals(A)
            for t in np.linalg.eigvals(Theta):
                assert np.abs(eigs_a - t).min() <= 1e-9 * max(1, np.abs(Theta).max())
            joint = np.concatenate([s.eigs_E, s.eigs_F])
            assert eq.spectrum_gap(eigs_a, joint) <= 1e-9 * max(1, np.abs(A).max())

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-10, "x"])
    def test_bad_tolerance_refused(self, tol):
        r = eq.block_triangularize(A0, WI0)
        with pytest.raises(InputError, match="tolerance must be a finite number >= 0"):
            eq.spectrum_split(r, tol=tol)

    def test_exact_flag_off_for_generic_input(self, rng):
        A = random_complex_matrix(rng, 6)
        r = eq.block_triangularize(A, eq.WeightedIndicator.unit(PI0))
        assert not eq.spectrum_split(r, tol=1e-10).exact

    def test_eigensolver_against_charpoly_roots(self, rng):
        # with singleton cells the lead block is the whole transformed matrix,
        # so its spectrum must be the spectrum of A
        for _ in range(10):
            n = int(rng.integers(1, 6))
            A = random_complex_matrix(rng, n)
            wi = eq.WeightedIndicator.unit(eq.Partition.singletons(n))
            s = eq.spectrum_split(eq.block_triangularize(A, wi))
            joint = np.concatenate([s.eigs_E, s.eigs_F])
            ref = charpoly_eigenvalues(A)
            assert eq.spectrum_gap(ref, joint) <= 1e-7 * max(1, np.abs(A).max())


class TestSpectrumGap:
    def test_equal_multisets(self):
        a = np.array([1 + 1j, 1 + 1j, 2.0])
        assert eq.spectrum_gap(a, a[::-1]) == 0.0

    def test_crossing_pairs_matched_greedily(self):
        a = np.array([1j, -1j])
        b = np.array([-1j, 1e-13 + 1j])
        assert eq.spectrum_gap(a, b) <= 1e-12

    def test_size_mismatch(self):
        with pytest.raises(InputError):
            eq.spectrum_gap([1.0], [1.0, 2.0])


class TestSolverFailures:
    """A LinAlgError of numpy's solvers is a NumericalError."""

    @staticmethod
    def _fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    def test_eigenpairs(self, monkeypatch):
        r = eq.block_triangularize(A0, WI0)
        monkeypatch.setattr(np.linalg, "eig", self._fail)
        with pytest.raises(NumericalError, match="eigenvalue solver failed: did not converge"):
            r.eigenpairs

    def test_singular_values(self, monkeypatch):
        r = eq.block_triangularize(A0, WI0)
        monkeypatch.setattr(np.linalg, "svd", self._fail)
        with pytest.raises(NumericalError, match="SVD failed: did not converge"):
            r.tau_spec


class TestOperationCount:
    def test_conjugation_is_quadratic(self, rng):
        counts = {}
        for n in (32, 64, 128):
            p = random_partition(rng, n, k=max(2, n // 8))
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            refl = eq.build_block_reflector(
                eq.WeightedIndicator(
                    eq.Partition.from_cells(_contiguous_cells(p.sizes)),
                    wi.weights,
                )
            )
            with opcount.counting() as c:
                refl.conjugate(A)
            counts[n] = c.multiplies
        # quadrupling from doubling n, far from the cubic factor 8
        assert 3.0 <= counts[64] / counts[32] <= 5.0
        assert 3.0 <= counts[128] / counts[64] <= 5.0


def _contiguous_cells(sizes):
    offs = np.concatenate([[0], np.cumsum(sizes)])
    return [tuple(range(a, b)) for a, b in zip(offs, offs[1:])]
