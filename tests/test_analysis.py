import numpy as np
import pytest

import equitile as eq
from equitile.errors import InputError

from helpers import (
    A0,
    PI0_CELLS,
    random_complex_matrix,
    random_hermitian,
    random_partition,
    random_weights,
)

PI0 = eq.Partition.from_cells(PI0_CELLS)
WI0 = eq.WeightedIndicator.unit(PI0)


class TestDeviationReport:
    def test_equitable_case_all_zero(self):
        front, _ = eq.deviation_matrices(A0, WI0)
        rep = eq.deviation_report(front)
        assert rep.frobenius == 0.0
        assert rep.spectral == 0.0
        assert rep.nuclear == 0.0
        assert rep.nonzero_columns == 0
        assert np.all(rep.per_block_norms == 0)

    def test_rank_one_hand_case(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(2))
        front, _ = eq.deviation_matrices(A, wi)
        rep = eq.deviation_report(front)
        assert rep.frobenius == pytest.approx(0.5, abs=1e-15)
        assert rep.spectral == pytest.approx(0.5, abs=1e-15)
        assert rep.nuclear == pytest.approx(0.5, abs=1e-15)
        assert rep.nonzero_columns == 1

    def test_frobenius_matches_independent_svd(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 16))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            front, rear = eq.deviation_matrices(A, wi)
            for dev in (front, rear):
                rep = eq.deviation_report(dev)
                s = np.linalg.svd(dev.assembled, compute_uv=False)
                assert rep.frobenius == pytest.approx(np.sqrt((s**2).sum()), rel=1e-12)
                assert rep.spectral == pytest.approx(s.max(), rel=1e-12)
                assert rep.nuclear == pytest.approx(s.sum(), rel=1e-12)

    def test_schatten_ordering(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 16))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            front, _ = eq.deviation_matrices(random_complex_matrix(rng, n), wi)
            rep = eq.deviation_report(front)
            assert rep.spectral <= rep.frobenius + 1e-14
            assert rep.frobenius <= rep.nuclear + 1e-14

    def test_nonzero_columns_bounds_rank(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 16))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            front, _ = eq.deviation_matrices(random_complex_matrix(rng, n), wi)
            rep = eq.deviation_report(front)
            rank = np.linalg.matrix_rank(front.assembled)
            assert rep.nonzero_columns >= rank

    def test_frobenius_is_sum_of_block_norms(self, rng):
        n = 9
        p = random_partition(rng, n)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        front, _ = eq.deviation_matrices(random_complex_matrix(rng, n), wi)
        rep = eq.deviation_report(front)
        assert rep.frobenius**2 == pytest.approx(
            (rep.per_block_norms**2).sum(), rel=1e-12
        )

    @pytest.mark.parametrize("s", [2.0**600, 2.0**-600])
    def test_any_magnitude(self, rng, s):
        # the report of s*T is s times that of T, exactly for the per-block norms
        for side in (0, 1):
            n = 12
            p = random_partition(rng, n, 5)
            T = eq.deviation_matrices(random_complex_matrix(rng, n),
                                      eq.WeightedIndicator(p, random_weights(rng, p)))[side]
            rep = eq.deviation_report(T)
            big = eq.deviation_report(eq.DeviationMatrix(T.side, s * T.assembled, p))
            assert np.array_equal(big.per_block_norms, s * rep.per_block_norms)
            assert big.nonzero_columns == rep.nonzero_columns
            for key in ("frobenius", "spectral", "nuclear"):
                assert getattr(big, key) == pytest.approx(s * getattr(rep, key), rel=1e-12)
            blocks = np.array([[np.linalg.norm(b) for b in row] for row in T.blocks])
            assert np.allclose(rep.per_block_norms, blocks, rtol=1e-13, atol=0)

    def test_json_shape(self):
        front, _ = eq.deviation_matrices(A0, WI0)
        d = eq.deviation_report(front).to_dict()
        assert set(d) == {"frobenius", "spectral", "nuclear", "nonzero_columns", "per_block"}
        assert len(d["per_block"]) == 3 and len(d["per_block"][0]) == 3


class TestThetaResidual:
    def test_front_quotient_attains_deviation_norm(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 14))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            front, rear = eq.deviation_matrices(A, wi)
            Em = eq.generalized_quotient(A, wi, -1.0).entries
            Ep = eq.generalized_quotient(A, wi, +1.0).entries
            for kind in ("frobenius", "spectral", "nuclear"):
                got = eq.theta_residual(A, wi, Em, side="front", norm_kind=kind)
                want = _schatten_of(front.assembled, kind)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
                got_r = eq.theta_residual(A, wi, Ep, side="rear", norm_kind=kind)
                want_r = _schatten_of(rear.assembled, kind)
                assert got_r == pytest.approx(want_r, rel=1e-12, abs=1e-12)

    def test_random_perturbations_never_beat_minimizer(self, rng):
        n = 10
        p = random_partition(rng, n, k=3)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        A = random_complex_matrix(rng, n)
        Em = eq.generalized_quotient(A, wi, -1.0).entries
        for kind in ("frobenius", "spectral", "nuclear"):
            base = eq.theta_residual(A, wi, Em, "front", kind)
            for _ in range(200):
                delta = random_complex_matrix(rng, p.k)
                if np.abs(delta).max() < 1e-8:
                    continue
                other = eq.theta_residual(A, wi, Em + delta, "front", kind)
                assert other >= base - 1e-12
                if kind == "frobenius":
                    assert other > base

    def test_zero_matrix_zero_theta(self):
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(3))
        assert eq.theta_residual(np.zeros((3, 3)), wi, np.zeros((1, 1))) == 0.0

    def test_shape_checks(self):
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(3))
        with pytest.raises(InputError):
            eq.theta_residual(np.zeros((3, 3)), wi, np.zeros((2, 2)))
        with pytest.raises(InputError):
            eq.theta_residual(np.zeros((3, 3)), wi, np.zeros((1, 1)), side="middle")
        with pytest.raises(InputError):
            eq.theta_residual(np.zeros((3, 3)), wi, np.zeros((1, 1)), norm_kind="p3")


def _schatten_of(M, kind):
    s = np.linalg.svd(M, compute_uv=False)
    if kind == "frobenius":
        return float(np.sqrt((s**2).sum()))
    if kind == "spectral":
        return float(s.max()) if s.size else 0.0
    return float(s.sum())


class TestWeylCheck:
    def test_equitable_case_exact(self):
        r = eq.block_triangularize(A0, WI0)
        pc = eq.weyl_check(A0, r)
        assert pc.tau_spec <= 1e-12
        assert pc.max_gap <= 1e-10
        assert pc.holds

    def test_random_hermitian_never_violates(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 24))
            A = random_hermitian(rng, n, complex_entries=bool(rng.integers(0, 2)))
            p = random_partition(rng, n)
            w = random_weights(rng, p, complex_weights=bool(rng.integers(0, 2)))
            r = eq.block_triangularize(A, eq.WeightedIndicator(p, w))
            assert eq.weyl_check(A, r).holds

    def test_two_by_two_bound_tight(self):
        A = np.diag([0.0, 1.0])
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(2))
        r = eq.block_triangularize(A, wi)
        assert np.allclose(r.E, [[0.5]], atol=1e-14)
        assert np.allclose(r.F, [[0.5]], atol=1e-14)
        pc = eq.weyl_check(A, r)
        assert pc.tau_spec == pytest.approx(0.5, abs=1e-12)
        assert pc.max_gap == pytest.approx(0.5, abs=1e-12)
        assert pc.max_gap == pytest.approx(pc.tau_spec, abs=1e-12)
        assert pc.holds

    def test_non_hermitian_rejected(self, rng):
        A = random_complex_matrix(rng, 4)
        A[0, 1] += 1.0
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(4))
        r = eq.block_triangularize(A, wi)
        with pytest.raises(InputError):
            eq.weyl_check(A, r)


class TestOffBlockDeviationEquality:
    def test_off_blocks_share_singular_values_with_deviations(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 32))
            p = random_partition(rng, n)
            wi = eq.WeightedIndicator(p, random_weights(rng, p))
            A = random_complex_matrix(rng, n)
            r = eq.block_triangularize(A, wi)
            front, rear = eq.deviation_matrices(A, wi)
            _assert_sv_match(r.D_minus, front.assembled)
            _assert_sv_match(r.D_plus_conj.conj().T, rear.assembled)


def _assert_sv_match(D, T):
    sT = np.linalg.svd(T, compute_uv=False)
    scale = max(1.0, sT.max() if sT.size else 0.0)
    if D.size == 0:
        assert np.all(sT <= 1e-11 * scale)
        return
    sD = np.linalg.svd(D, compute_uv=False)
    m = len(sD)
    assert np.abs(sD - sT[:m]).max() <= 1e-11 * scale
    assert np.all(sT[m:] <= 1e-11 * scale)
