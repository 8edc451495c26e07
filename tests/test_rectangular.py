import numpy as np
import pytest

import equitile as eq
from equitile import rectangular
from equitile.errors import InputError, NumericalError, RankDeficiencyError
from equitile.rectangular import assemble_block_diagonal, split_block_diagonal

from helpers import (
    A_SUIT,
    E_HAT,
    F_HAT,
    gram_column_basis,
    random_blocks,
    random_complex_matrix,
    random_partition,
    random_weights,
    twist_block_svd,
)


class TestPaddedIdentity:
    def test_columns_are_basis_vectors(self):
        M = eq.padded_identity(5, 3)
        assert M.shape == (5, 3)
        for i in range(3):
            expected = np.zeros(5)
            expected[i] = 1.0
            assert np.array_equal(M[:, i], expected)

    def test_isometry(self):
        M = eq.padded_identity(6, 4)
        assert np.array_equal(M.T @ M, np.eye(4))

    def test_block_variant(self):
        M = eq.block_padded_identity([2, 3], [1, 2])
        assert M.shape == (5, 3)
        assert np.array_equal(M.T @ M, np.eye(3))
        assert M[0, 0] == 1 and M[2, 1] == 1 and M[3, 2] == 1

    def test_bad_sizes(self):
        with pytest.raises(InputError):
            eq.padded_identity(2, 3)

    def test_block_variant_needs_equal_length_lists(self):
        with pytest.raises(InputError, match="size lists must have equal length"):
            eq.block_padded_identity([2, 3], [1])

    def test_block_variant_of_no_blocks_is_empty(self):
        M = eq.block_padded_identity([], [])
        assert M.shape == (0, 0)


class TestOmegaNr:
    def test_reduces_to_square_case_for_rank_one(self):
        assert np.array_equal(
            eq.omega_nr_permutation([1, 1, 1], [1, 2, 3]),
            eq.omega_permutation([1, 2, 3]),
        )

    def test_full_rank_is_identity(self):
        assert np.array_equal(eq.omega_nr_permutation([2, 3], [2, 3]), np.arange(5))

    def test_mixed_example(self):
        # leading 1 resp. 2 slots per block gather to the front
        assert np.array_equal(
            eq.omega_nr_permutation([1, 2], [2, 3]), [0, 3, 1, 2, 4]
        )

    def test_gathers_padded_identity(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 5))
            n_sizes = [int(s) for s in rng.integers(1, 5, size=k)]
            r_sizes = [int(rng.integers(1, n + 1)) for n in n_sizes]
            om = eq.omega_nr_permutation(r_sizes, n_sizes)
            Iblk = eq.block_padded_identity(n_sizes, r_sizes)
            gathered = Iblk[np.argsort(om), :]
            assert np.array_equal(gathered, eq.padded_identity(sum(n_sizes), sum(r_sizes)))

    def test_rank_larger_than_block_rejected(self):
        with pytest.raises(InputError):
            eq.omega_nr_permutation([3], [2])

    @pytest.mark.parametrize("r_sizes, n_sizes", [([], []), ([1], [2, 3])])
    def test_lists_non_empty_and_of_equal_length(self, r_sizes, n_sizes):
        with pytest.raises(InputError, match="size lists must be non-empty and of equal length"):
            eq.omega_nr_permutation(r_sizes, n_sizes)


class TestBlockSVD:
    def test_column_vector_matches_reflector_factorization(self, rng):
        # a one-column block factors through the elementary unitary of the
        # vector: w = H(w, beta) (||w||; 0) conj(beta)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            w = random_complex_matrix(rng, m, 1)
            bs = eq.block_svd([w])
            assert bs.sigma_blocks[0][0] == pytest.approx(np.linalg.norm(w), rel=1e-12)
            recon = bs.u_blocks[0] @ (
                eq.padded_identity(m, 1) * bs.sigma_blocks[0]
            ) @ bs.v_blocks[0].conj().T
            assert np.allclose(recon, w, atol=1e-12 * np.linalg.norm(w))
            beta = eq.beta0(w[:, 0])
            h = eq.build_reflector(w[:, 0], beta)
            lead = np.zeros((m, 1), dtype=complex)
            lead[0, 0] = np.linalg.norm(w)
            alt = h.dense() @ lead * np.conj(beta)
            assert np.allclose(alt, w, atol=1e-12 * np.linalg.norm(w))

    def test_identity_block(self):
        bs = eq.block_svd([np.eye(2)])
        recon = bs.u_blocks[0] @ (
            eq.padded_identity(2, 2) @ np.diag(bs.sigma_blocks[0])
        ) @ bs.v_blocks[0].conj().T
        assert np.allclose(recon, np.eye(2), atol=1e-14)
        assert np.allclose(bs.sigma_blocks[0], [1.0, 1.0])

    def test_random_block_reconstruction_and_gram_oracle(self, rng):
        W = random_complex_matrix(rng, 4, 2)
        bs = eq.block_svd([W])
        u, s, v = bs.u_blocks[0], bs.sigma_blocks[0], bs.v_blocks[0]
        assert np.all(np.diff(s) <= 0) and np.all(s > 0)
        recon = u @ (eq.padded_identity(4, 2) @ np.diag(s)) @ v.conj().T
        assert np.allclose(recon, W, atol=1e-12 * np.linalg.norm(W))
        gram_eigs = np.sort(np.linalg.eigvalsh(W.conj().T @ W))[::-1]
        assert np.allclose(s**2, gram_eigs, rtol=1e-10)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_rank_deficient_rejected(self):
        W = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
        with pytest.raises(RankDeficiencyError):
            eq.block_svd([W])

    def test_wide_block_rejected(self):
        with pytest.raises(InputError):
            eq.block_svd([np.ones((1, 2))])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, np.inf)])
    def test_non_finite_block_rejected(self, bad):
        with pytest.raises(InputError):
            eq.block_svd([np.ones((2, 1)), np.array([[1.0], [bad]])])


class TestRayleighQuotientRect:
    def test_square_rank_one_reduction(self, rng):
        # one-column blocks with matched sides reduce to the square quotient
        n = 7
        p = random_partition(rng, n, k=3)
        w = random_weights(rng, p)
        wi = eq.WeightedIndicator(p, w)
        perm = eq.suitable_indexing_permutation(p)
        inv = np.argsort(perm)
        A = random_complex_matrix(rng, n)
        As, ws = A[np.ix_(inv, inv)], w[inv]
        offs = np.concatenate([[0], np.cumsum(p.sizes)])
        blocks = [ws[a:b].reshape(-1, 1) for a, b in zip(offs, offs[1:])]
        E0_rect = eq.rayleigh_quotient_rect(As, blocks, blocks)
        wi_s = eq.WeightedIndicator(
            eq.Partition.from_cells([tuple(range(a, b)) for a, b in zip(offs, offs[1:])]),
            ws,
        )
        E0_square = eq.generalized_quotient(As, wi_s, 0.0).entries
        assert np.allclose(E0_rect, E0_square, atol=1e-11)

    def test_identity_matrix_matched_sides(self, rng):
        blocks = random_blocks(rng, 3)
        m = sum(b.shape[0] for b in blocks)
        E0 = eq.rayleigh_quotient_rect(np.eye(m), blocks, blocks)
        q = sum(b.shape[1] for b in blocks)
        assert np.allclose(E0, np.eye(q), atol=1e-11)

    def test_zero_matrix(self, rng):
        left = random_blocks(rng, 2)
        right = random_blocks(rng, 3)
        m = sum(b.shape[0] for b in left)
        n = sum(b.shape[0] for b in right)
        E0 = eq.rayleigh_quotient_rect(np.zeros((m, n)), left, right)
        assert np.all(E0 == 0)

    def test_dimension_mismatch(self, rng):
        left = random_blocks(rng, 2)
        right = random_blocks(rng, 2)
        with pytest.raises(InputError):
            eq.rayleigh_quotient_rect(np.zeros((1, 1)), left, right)


def _gram_oracle_sides(rng, complex_entries):
    """(left, right) block lists: random ones, then the edge shapes.

    The edges are full blocks (q_i = m_i, so the tail is empty), 1x1
    blocks, and one 200x1 block per side.
    """
    def block(m, q):
        return random_complex_matrix(rng, m, q) if complex_entries else rng.normal(size=(m, q))

    for _ in range(10):
        yield (random_blocks(rng, int(rng.integers(1, 4)), complex_entries=complex_entries),
               random_blocks(rng, int(rng.integers(1, 4)), complex_entries=complex_entries))
    yield [block(m, m) for m in (1, 3, 2)], [block(m, m) for m in (2, 4)]
    yield [block(1, 1) for _ in range(4)], [block(1, 1) for _ in range(3)]
    yield [block(200, 1)], [block(200, 1)]


class TestGramOracle:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_quotient_and_deviations_match_gram_roots(self, rng, complex_entries):
        for left, right in _gram_oracle_sides(rng, complex_entries):
            Km, Kp = gram_column_basis(left), gram_column_basis(right)
            A = random_complex_matrix(rng, Km.shape[0], Kp.shape[0])
            if not complex_entries:
                A = A.real
            E0 = Km.conj().T @ A @ Kp
            Tm, Tp = eq.deviation_rect(A, left, right)
            # the Gram route loses digits as the square of a block's condition
            kappa = max(np.linalg.cond(W) for W in left + right)
            tol = 1e-13 * kappa**2 * max(1, np.abs(A).max())
            assert np.abs(eq.rayleigh_quotient_rect(A, left, right) - E0).max() <= tol
            assert np.abs(Tm - (A @ Kp - Km @ E0)).max() <= tol
            assert np.abs(Tp - (A.conj().T @ Km - Kp @ E0.conj().T)).max() <= tol


class TestDeviationRect:
    def test_square_reduction_matches_deviation_matrices(self, rng):
        n = 6
        offs = [0, 2, 4, 6]
        cells = [tuple(range(a, b)) for a, b in zip(offs, offs[1:])]
        p = eq.Partition.from_cells(cells)
        w = random_weights(rng, p)
        wi = eq.WeightedIndicator(p, w)
        A = random_complex_matrix(rng, n)
        blocks = [w[a:b].reshape(-1, 1) for a, b in zip(offs, offs[1:])]
        Tm, Tp = eq.deviation_rect(A, blocks, blocks)
        front, rear = eq.deviation_matrices(A, wi)
        assert np.allclose(Tm, front.assembled, atol=1e-11)
        assert np.allclose(Tp, rear.assembled, atol=1e-11)

    def test_planted_generalized_equitable(self, rng):
        # A = Wm Theta pinv(Wp) makes the front residual vanish
        left = random_blocks(rng, 2)
        right = random_blocks(rng, 2)
        q = sum(b.shape[1] for b in left)
        r = sum(b.shape[1] for b in right)
        Theta = random_complex_matrix(rng, q, r)
        Wm = assemble_block_diagonal(left)
        Wp = assemble_block_diagonal(right)
        A = Wm @ Theta @ np.linalg.pinv(Wp)
        Tm, _ = eq.deviation_rect(A, left, right)
        assert np.abs(Tm).max() <= 1e-10 * max(1, np.abs(A).max())

    def test_front_norm_matches_transform_block(self, rng):
        for _ in range(10):
            left = random_blocks(rng, int(rng.integers(1, 4)))
            right = random_blocks(rng, int(rng.integers(1, 4)))
            m = sum(b.shape[0] for b in left)
            n = sum(b.shape[0] for b in right)
            A = random_complex_matrix(rng, m, n)
            Tm, _ = eq.deviation_rect(A, left, right)
            res = eq.rect_transform(A, eq.block_svd(left), eq.block_svd(right))
            assert np.linalg.norm(Tm) == pytest.approx(
                np.linalg.norm(res.D_minus), abs=1e-11 * max(1, np.linalg.norm(A))
            )


class TestRectTransform:
    def test_zero_matrix(self, rng):
        left = eq.block_svd(random_blocks(rng, 2))
        right = eq.block_svd(random_blocks(rng, 2))
        res = eq.rect_transform(np.zeros((left.m, right.m)), left, right)
        assert np.all(res.assembled() == 0)

    def test_shape_is_that_of_a(self, rng):
        left = eq.block_svd(random_blocks(rng, 2))
        right = eq.block_svd(random_blocks(rng, 3))
        res = eq.rect_transform(random_complex_matrix(rng, left.m, right.m), left, right)
        assert res.shape == res.A_hat.shape == (left.m, right.m)

    def test_svd_failure_is_numerical_error(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalError, match="SVD of block 0 failed: did not converge"):
            eq.block_svd(random_blocks(rng, 2))

    def test_singular_values_preserved(self, rng):
        for _ in range(20):
            left = eq.block_svd(random_blocks(rng, int(rng.integers(1, 4))))
            right = eq.block_svd(random_blocks(rng, int(rng.integers(1, 4))))
            A = random_complex_matrix(rng, left.m, right.m)
            res = eq.rect_transform(A, left, right)
            sa = np.linalg.svd(A, compute_uv=False)
            sb = np.linalg.svd(res.assembled(), compute_uv=False)
            assert np.abs(sa - sb).max() <= 1e-11 * max(1, sa.max())

    def test_lead_block_unitarily_equivalent_to_rayleigh(self, rng):
        for _ in range(10):
            left_blocks = random_blocks(rng, 2)
            right_blocks = random_blocks(rng, 2)
            left, right = eq.block_svd(left_blocks), eq.block_svd(right_blocks)
            A = random_complex_matrix(rng, left.m, right.m)
            res = eq.rect_transform(A, left, right)
            E0_closed = eq.rayleigh_quotient_rect(A, left_blocks, right_blocks)
            assert np.allclose(res.rayleigh_quotient(), E0_closed, atol=1e-10)
            sE = np.linalg.svd(res.E, compute_uv=False)
            s0 = np.linalg.svd(E0_closed, compute_uv=False)
            assert np.abs(sE - s0).max() <= 1e-11 * max(1, s0.max())

    def test_off_blocks_share_singular_values_with_deviations(self, rng):
        for _ in range(10):
            left_blocks = random_blocks(rng, int(rng.integers(1, 4)))
            right_blocks = random_blocks(rng, int(rng.integers(1, 4)))
            left, right = eq.block_svd(left_blocks), eq.block_svd(right_blocks)
            A = random_complex_matrix(rng, left.m, right.m)
            res = eq.rect_transform(A, left, right)
            Tm, Tp = eq.deviation_rect(A, left_blocks, right_blocks)
            _assert_sv_match(res.D_minus, Tm)
            _assert_sv_match(res.D_plus_conj.conj().T, Tp)

    def test_embedding_identity(self, rng):
        # (0; D_minus) equals the gathered transform of the front deviation
        left_blocks = random_blocks(rng, 2)
        right_blocks = random_blocks(rng, 2)
        left, right = eq.block_svd(left_blocks), eq.block_svd(right_blocks)
        A = random_complex_matrix(rng, left.m, right.m)
        res = eq.rect_transform(A, left, right)
        Tm, _ = eq.deviation_rect(A, left_blocks, right_blocks)
        lhs = (left.u_dense().conj().T @ Tm @ right.v_dense())[np.argsort(left.omega), :]
        expected = np.zeros_like(lhs)
        expected[left.q:, :] = res.D_minus
        assert np.abs(lhs - expected).max() <= 1e-11 * max(1, np.abs(A).max())

    def test_svd_phase_twisting_invariance(self, rng):
        for _ in range(10):
            left_blocks = random_blocks(rng, 2)
            right_blocks = random_blocks(rng, 2)
            left, right = eq.block_svd(left_blocks), eq.block_svd(right_blocks)
            A = random_complex_matrix(rng, left.m, right.m)
            res = eq.rect_transform(A, left, right)
            res_t = eq.rect_transform(
                A, twist_block_svd(rng, left), twist_block_svd(rng, right)
            )
            scale = max(1, np.abs(A).max())
            # E and D change, the Rayleigh quotient does not
            assert np.abs(
                res.rayleigh_quotient() - res_t.rayleigh_quotient()
            ).max() <= 1e-11 * scale

    def test_theta_minimality_sampled(self, rng):
        left_blocks = random_blocks(rng, 2)
        right_blocks = random_blocks(rng, 2)
        left, right = eq.block_svd(left_blocks), eq.block_svd(right_blocks)
        A = random_complex_matrix(rng, left.m, right.m)
        Tm, _ = eq.deviation_rect(A, left_blocks, right_blocks)
        E0 = eq.rayleigh_quotient_rect(A, left_blocks, right_blocks)
        Km = left.column_basis()
        Kp = right.column_basis()

        def residual(theta):
            return np.linalg.norm(A @ Kp - Km @ theta)

        base = residual(E0)
        assert base == pytest.approx(np.linalg.norm(Tm), rel=1e-11, abs=1e-11)
        for _ in range(100):
            delta = random_complex_matrix(rng, left.q, right.q)
            assert residual(E0 + delta) >= base - 1e-12

    def test_square_rank_one_pipeline_reduction(self, rng):
        # the rectangular pipeline on one-column blocks agrees with the
        # square pipeline at the level of block singular values
        n = 6
        offs = [0, 1, 3, 6]
        cells = [tuple(range(a, b)) for a, b in zip(offs, offs[1:])]
        p = eq.Partition.from_cells(cells)
        w = random_weights(rng, p)
        wi = eq.WeightedIndicator(p, w)
        A = random_complex_matrix(rng, n)
        r_sq = eq.block_triangularize(A, wi)
        blocks = [w[a:b].reshape(-1, 1) for a, b in zip(offs, offs[1:])]
        bs = eq.block_svd(blocks)
        r_rc = eq.rect_transform(A, bs, bs)
        for name in ("E", "D_minus", "D_plus_conj", "F"):
            a = getattr(r_sq, name)
            b = getattr(r_rc, name)
            assert a.shape == b.shape
            if a.size:
                sa = np.linalg.svd(a, compute_uv=False)
                sb = np.linalg.svd(b, compute_uv=False)
                assert np.abs(sa - sb).max() <= 1e-11 * max(1, sa.max())

    def test_equitable_square_case_block_diagonalizes(self):
        # rank-one all-ones blocks on the 6x6 front-equitable example: the
        # two-sided pipeline reproduces the similarity pipeline's blocks up
        # to per-block phase conventions, with vanishing off blocks
        blocks = [np.ones((n, 1)) for n in (1, 2, 3)]
        bs = eq.block_svd(blocks)
        res = eq.rect_transform(A_SUIT, bs, bs)
        assert np.abs(res.D_minus).max() <= 1e-12
        assert np.abs(res.D_plus_conj).max() <= 1e-12
        for block, expected in ((res.E, E_HAT), (res.F, F_HAT)):
            sa = np.linalg.svd(block, compute_uv=False)
            sb = np.linalg.svd(expected, compute_uv=False)
            assert np.abs(sa - sb).max() <= 1e-12 * max(1, sb.max())

    def test_dimension_mismatch(self, rng):
        left = eq.block_svd(random_blocks(rng, 2))
        right = eq.block_svd(random_blocks(rng, 2))
        with pytest.raises(InputError):
            eq.rect_transform(np.zeros((left.m + 1, right.m)), left, right)


class TestInputChecks:
    """A malformed A is refused with InputError before any block is factored."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_matrix_refused(self, rng, bad):
        left_blocks, right_blocks = random_blocks(rng, 2), random_blocks(rng, 2)
        left, right = eq.block_svd(left_blocks), eq.block_svd(right_blocks)
        A = random_complex_matrix(rng, left.m, right.m)
        A[0, -1] = bad
        with pytest.raises(InputError):
            eq.rect_transform(A, left, right)
        with pytest.raises(InputError):
            eq.deviation_rect(A, left_blocks, right_blocks)
        with pytest.raises(InputError):
            eq.rayleigh_quotient_rect(A, left_blocks, right_blocks)

    def test_matrix_checked_before_blocks(self, rng):
        rank_deficient = [np.array([[1.0, 2.0], [2.0, 4.0]])]
        for A in (np.zeros((3, 2)), np.full((2, 2), np.nan), np.zeros(4)):
            for f in (eq.deviation_rect, eq.rayleigh_quotient_rect):
                with pytest.raises(InputError):
                    f(A, rank_deficient, rank_deficient)


class TestPerBlockProducts:
    """No library path assembles a block diagonal side matrix."""

    def test_no_dense_side_factor(self, rng, monkeypatch):
        left_blocks, right_blocks = random_blocks(rng, 3), random_blocks(rng, 2)
        left, right = eq.block_svd(left_blocks), eq.block_svd(right_blocks)
        A = random_complex_matrix(rng, left.m, right.m)
        Km, Kp = gram_column_basis(left_blocks), gram_column_basis(right_blocks)
        E0 = Km.conj().T @ A @ Kp

        def refuse(blocks):
            raise AssertionError("assembled a dense block diagonal")

        monkeypatch.setattr(rectangular, "assemble_block_diagonal", refuse)
        res = eq.rect_transform(A, left, right)
        Tm, Tp = eq.deviation_rect(A, left_blocks, right_blocks)
        tol = 1e-11 * max(1, np.abs(A).max())
        assert np.abs(eq.rayleigh_quotient_rect(A, left_blocks, right_blocks) - E0).max() <= tol
        assert np.abs(res.rayleigh_quotient() - E0).max() <= tol
        assert np.abs(Tm - (A @ Kp - Km @ E0)).max() <= tol
        assert np.abs(Tp - (A.conj().T @ Km - Kp @ E0.conj().T)).max() <= tol


class TestSplitBlockDiagonal:
    def test_round_trip(self, rng):
        blocks = random_blocks(rng, 3)
        M = assemble_block_diagonal(blocks)
        out = split_block_diagonal(
            M, [b.shape[0] for b in blocks], [b.shape[1] for b in blocks]
        )
        for a, b in zip(blocks, out):
            assert np.array_equal(a, b)

    def test_off_block_entries_rejected(self):
        M = np.eye(3)
        with pytest.raises(InputError):
            split_block_diagonal(M, [1, 2], [2, 1])

    def test_size_lists_of_equal_length(self):
        with pytest.raises(InputError, match="row and column size lists must have equal length"):
            split_block_diagonal(np.eye(3), [1, 2], [3])

    def test_sizes_must_match_the_shape(self):
        with pytest.raises(InputError) as exc:
            split_block_diagonal(np.eye(3), [1, 1], [1, 1])
        assert str(exc.value) == "matrix shape (3, 3) does not match sizes (2, 2)"


def _assert_sv_match(D, T):
    sT = np.linalg.svd(T, compute_uv=False) if T.size else np.zeros(0)
    scale = max(1.0, sT.max() if sT.size else 0.0)
    if D.size == 0:
        assert np.all(sT <= 1e-11 * scale)
        return
    sD = np.linalg.svd(D, compute_uv=False)
    m = len(sD)
    assert np.abs(sD - sT[:m]).max() <= 1e-11 * scale
    assert np.all(sT[m:] <= 1e-11 * scale)


class TestBlockSizes:
    """Sizes are integers by the package's rule: floats and bools are refused."""

    CALLS = {
        "omega_permutation": lambda s: eq.omega_permutation([s, 1]),
        "omega_nr_permutation r": lambda s: eq.omega_nr_permutation([s], [3]),
        "omega_nr_permutation n": lambda s: eq.omega_nr_permutation([1], [s]),
        "padded_identity n": lambda s: eq.padded_identity(s, 1),
        "padded_identity r": lambda s: eq.padded_identity(3, s),
        "block_padded_identity": lambda s: eq.block_padded_identity([3, s], [1, 1]),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(2.0), True, np.bool_(True)])
    def test_non_integers_refused(self, call, bad):
        with pytest.raises(InputError, match="integers"):
            self.CALLS[call](bad)

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("size", [2, np.int64(2), np.int32(2), np.uint8(2)])
    def test_integers_accepted(self, call, size):
        assert np.array_equal(self.CALLS[call](size), self.CALLS[call](2))

    @pytest.mark.parametrize("sizes", [[2, 0], [-1], np.array([3, 0])])
    def test_omega_permutation_refuses_non_positive_sizes(self, sizes):
        with pytest.raises(InputError):
            eq.omega_permutation(sizes)


def _square_form(rng):
    n = 9
    p = random_partition(rng, n, k=3)
    return eq.block_triangularize(random_complex_matrix(rng, n),
                                  eq.WeightedIndicator(p, random_weights(rng, p)))


def _rect_form(rng):
    left = eq.block_svd([random_complex_matrix(rng, 3, 1), random_complex_matrix(rng, 4, 2)])
    right = eq.block_svd([random_complex_matrix(rng, 2, 1), random_complex_matrix(rng, 3, 2)])
    return eq.rect_transform(random_complex_matrix(rng, left.m, right.m), left, right)


@pytest.mark.parametrize("build", [_square_form, _rect_form])
def test_blocks_are_read_only_views_of_one_stored_array(rng, build):
    res = build(rng)
    A_hat = res.assembled()
    assert A_hat is res.A_hat
    blocks = (res.E, res.D_plus_conj, res.D_minus, res.F)
    assert not A_hat.flags.writeable
    for B in blocks:
        assert not B.flags.writeable
        assert np.shares_memory(B, A_hat)
        with pytest.raises(ValueError):
            B[...] = 0
    assert res.E.shape == (res.q, res.r) and 0 not in res.F.shape
    # the blocks are the four windows of the assembled form, as before
    (E, Dp), (Dm, F) = blocks[:2], blocks[2:]
    assert np.array_equal(np.block([[E, Dp], [Dm, F]]), A_hat)
