"""The spectral summary of a transform: spectra and tau_spec solved once.

weyl_check and spectrum_split read E's and F's eigenvalues and the largest
off-diagonal singular value from the result's caches. The oracles are the
uncached routines in helpers: reference_weyl_check solves E and F itself,
reference_spectrum_gap matches by list.pop.
"""
import json
from collections import Counter

import numpy as np
import pytest

import equitile as eq
from equitile.cli import main
from equitile.errors import NumericalError
from equitile.mmio import save_matrix_market
from equitile.triangularize import EIG_HERMITIAN_RTOL, _is_hermitian

from helpers import (
    random_complex_matrix,
    random_hermitian,
    random_partition,
    random_weights,
    reference_spectrum_gap,
    reference_weyl_check,
)


def _scale(A) -> float:
    return max(1.0, float(np.abs(A).max()))


def _random_result(rng, A):
    """The transform of A by a random partition with k < N and random weights."""
    n = A.shape[0]
    p = random_partition(rng, n, int(rng.integers(1, n)))
    wi = eq.WeightedIndicator(p, random_weights(rng, p, bool(rng.integers(0, 2))))
    return eq.block_triangularize(A, wi)


@pytest.fixture
def solver_calls(monkeypatch):
    """Counts of numpy.linalg eigvalsh, eigvals, eig and svd calls."""
    calls = Counter()
    for name in ("eigvalsh", "eigvals", "eig", "svd"):
        def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _write_inputs(tmp_path, A, cells):
    mf, pf = tmp_path / "a.mtx", tmp_path / "p.json"
    save_matrix_market(mf, A)
    pf.write_text(json.dumps({"n": A.shape[0], "cells": cells}))
    return str(mf), str(pf)


class TestSpectrumGap:
    def test_matches_list_pop_reference_with_duplicates_and_ties(self, rng):
        # integer grids give exact duplicates and many equal-distance ties
        for trial in range(400):
            n = int(rng.integers(0, 25))
            a = rng.integers(-3, 4, n) + 1j * rng.integers(-2, 3, n)
            b = rng.integers(-3, 4, n) + 1j * rng.integers(-2, 3, n)
            if trial % 4 == 1:
                a, b = a.real, b.real
            elif trial % 4 == 2:
                b = rng.permutation(a) + rng.choice([0, 0.5, -0.5], size=n)
            elif trial % 4 == 3:
                a, b = rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)
            got, want = eq.spectrum_gap(a, b), reference_spectrum_gap(a, b)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestCachedSpectra:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_weyl_check_bit_identical_to_reference(self, rng, complex_entries):
        for _ in range(60):
            A = random_hermitian(rng, int(rng.integers(2, 24)), complex_entries)
            r = _random_result(rng, A)
            got, want = eq.weyl_check(A, r), reference_weyl_check(A, r)
            for field in ("joint_spectrum", "reference"):
                g, w = getattr(got, field), getattr(want, field)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert got.max_gap == want.max_gap
            assert got.holds == want.holds
            assert abs(got.tau_spec - want.tau_spec) <= 1e-13 * _scale(A)

    @pytest.mark.parametrize("single", [np.float32, np.complex64])
    def test_single_precision_input_keeps_the_verdict(self, rng, single):
        # the result of A + 5e20 I: every eigenvalue moves by 5e20 and tau stays,
        # so the bound fails; A's eigenvalues solved in single precision would
        # overflow the slack to inf and let it pass
        A = (random_hermitian(rng, 8, single == np.complex64) * 1e20).astype(single)
        wi = eq.WeightedIndicator.unit(eq.Partition.from_labels(np.arange(8) % 2))
        r = eq.block_triangularize(A + 5e20 * np.eye(8), wi)
        got = eq.weyl_check(A, r)
        assert not got.holds and got.max_gap > r.tau_spec
        assert got.max_gap == eq.weyl_check(A.astype(np.result_type(single, 1.0)), r).max_gap

    def test_near_hermitian_input_keeps_the_verdict(self, rng):
        general = 0
        for trial in range(108):
            A = random_hermitian(rng, int(rng.integers(2, 24)), bool(trial % 2))
            noise = rng.uniform(-1, 1, size=A.shape)
            if trial % 2:
                noise = noise + 1j * rng.uniform(-1, 1, size=A.shape)
            A = A + 3e-11 * np.abs(A).max() * noise / np.abs(noise).max()
            r = _random_result(rng, A)
            general += not all(_is_hermitian(M, EIG_HERMITIAN_RTOL) for M in (r.E, r.F))
            got, want = eq.weyl_check(A, r), reference_weyl_check(A, r)
            assert got.holds == want.holds
            assert got.holds
            assert abs(got.max_gap - want.max_gap) <= 1e-13 * _scale(A)
        # the family runs the general solver on E or F, so real parts are compared
        assert general >= 54

    def test_tau_spec_is_largest_over_both_blocks(self, rng):
        for _ in range(20):
            A = random_complex_matrix(rng, int(rng.integers(2, 16)))
            r = _random_result(rng, A)
            want = max([0.0] + [np.linalg.svd(D, compute_uv=False)[0]
                                for D in (r.D_minus, r.D_plus_conj) if D.size])
            assert r.tau_spec == want

    def test_cached_arrays_are_read_only(self, rng):
        A = random_hermitian(rng, 10)
        r = _random_result(rng, A)
        split = eq.spectrum_split(r)
        assert split.eigs_E is r.spectra[0] and split.eigs_F is r.spectra[1]
        pc = eq.weyl_check(A, r)
        for arr in (*r.spectra, pc.joint_spectrum, pc.reference):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        assert eq.spectrum_split(r).eigs_E is r.spectra[0]

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_eigenpairs_seed_the_general_blocks_only(self, rng, hermitian):
        for _ in range(30):
            n = int(rng.integers(2, 16))
            A = random_hermitian(rng, n) if hermitian else random_complex_matrix(rng, n)
            r = _random_result(rng, A)
            pairs = r.eigenpairs
            for got, M, (values, vectors) in zip(r.spectra, (r.E, r.F), pairs):
                assert np.allclose(M @ vectors, vectors * values, atol=1e-12 * _scale(A) * n)
                if _is_hermitian(M, EIG_HERMITIAN_RTOL):
                    want = np.sort_complex(np.linalg.eigvalsh((M + M.conj().T) / 2.0))
                else:
                    want = np.sort_complex(values)
                assert got.tobytes() == want.astype(complex).tobytes()
            for arr in (*r.spectra, *r.eigenpairs[0], *r.eigenpairs[1]):
                assert not arr.flags.writeable

    def test_eigenpairs_solver_failure_is_numerical_error(self):
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(2))
        with np.errstate(over="ignore", invalid="ignore"):
            r = eq.block_triangularize(np.full((2, 2), 1e308), wi)
        with pytest.raises(NumericalError):
            r.eigenpairs

    def test_solver_failure_is_numerical_error(self):
        wi = eq.WeightedIndicator.unit(eq.Partition.single_cell(2))
        with np.errstate(over="ignore", invalid="ignore"):
            r = eq.block_triangularize(np.full((2, 2), 1e308), wi)
        for _ in range(2):  # a failed solve is not cached
            with pytest.raises(NumericalError):
                r.spectra


class TestSolverCalls:
    def test_split_and_weyl_check_solve_e_and_f_once(self, rng, solver_calls):
        A = random_hermitian(rng, 12)
        r = _random_result(rng, A)
        eq.spectrum_split(r)
        assert solver_calls == {"eigvalsh": 2}
        eq.weyl_check(A, r)
        assert solver_calls == {"eigvalsh": 3, "svd": 2}
        eq.spectrum_split(r)
        eq.weyl_check(A, r)
        assert solver_calls == {"eigvalsh": 4, "svd": 2}

    def test_cli_split_on_hermitian_input(self, rng, tmp_path, capsys, solver_calls):
        A = random_hermitian(rng, 12)
        cells = [[1, 5, 9], [2, 3], [4, 6, 7, 8], [10, 11, 12]]
        assert main(["split", *_write_inputs(tmp_path, A, cells)]) == 0
        assert json.loads(capsys.readouterr().out)["weyl_holds"] is True
        assert solver_calls == {"eigvalsh": 3, "svd": 2}


    @pytest.mark.parametrize("hermitian, want", [
        (False, {"eig": 2, "svd": 2}),
        (True, {"eig": 2, "eigvalsh": 2, "svd": 2}),
    ])
    def test_cli_transform_with_eigvecs_solves_each_block_once(self, rng, tmp_path, capsys,
                                                               solver_calls, hermitian, want):
        # the two SVDs are the deviation reports'
        A = random_hermitian(rng, 12) if hermitian else random_complex_matrix(rng, 12)
        cells = [[1, 5, 9], [2, 3], [4, 6, 7, 8], [10, 11, 12]]
        argv = ["transform", *_write_inputs(tmp_path, A, cells), "--emit", "eigvecs",
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        capsys.readouterr()
        assert solver_calls == want


class TestHermitianTolerance:
    @pytest.mark.parametrize("factor, holds", [(0.9, True), (1.1, None)])
    def test_split_at_the_edge_of_the_weyl_tolerance(self, rng, tmp_path, capsys,
                                                     factor, holds):
        A = random_hermitian(rng, 8)
        A[0, 1] += factor * 1e-10 * _scale(A)
        cells = [[1, 2, 3], [4, 5], [6, 7, 8]]
        code = main(["split", *_write_inputs(tmp_path, A, cells)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["weyl_holds"] is holds
