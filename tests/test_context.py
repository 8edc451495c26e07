"""One aggregate context per (A, wi): how many kernel passes each reader makes.

partition._aggregate is the only call site of the segment-sum kernel, so
wrapping it counts every pass. A public reader builds its own context and
makes one pass per side it reads; a CLI run builds one context and reads
every verdict, quotient and deviation from it.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equitile as eq
from equitile import partition
from equitile.cli import main
from equitile.errors import InputError
from equitile.mmio import load_dense, save_matrix_market

from helpers import random_hermitian, random_partition, random_weights


@pytest.fixture
def passes(monkeypatch):
    """The sides of every kernel call, in call order."""
    calls = []

    def counted(A, lay, w=None, side="front", **kwargs):
        calls.append(side)
        return kernel(A, lay, w, side, **kwargs)

    kernel = partition._aggregate
    monkeypatch.setattr(partition, "_aggregate", counted)
    return calls


@pytest.fixture
def files(tmp_path, rng):
    """A complex Hermitian N=24 matrix, a partition of 4 cells and random weights."""
    A = random_hermitian(rng, 24)
    p = random_partition(rng, 24, 4)
    paths = {name: tmp_path / name for name in ("a.mtx", "p.json", "w.json")}
    save_matrix_market(paths["a.mtx"], A)
    paths["p.json"].write_text(json.dumps(p.to_dict()))
    w = random_weights(rng, p)
    paths["w.json"].write_text(json.dumps([[z.real, z.imag] for z in w]))
    return A, eq.WeightedIndicator(p, w), {k: str(v) for k, v in paths.items()}


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestCliPasses:
    def test_transform_makes_one_front_and_one_rear_pass(self, capsys, files, passes, tmp_path):
        _, _, f = files
        code, _ = _run(capsys, "transform", f["a.mtx"], f["p.json"], "--emit", "full,D",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert passes == ["front", "rear"]

    def test_check_epsilon_regular_with_unit_weights_is_one_pass(self, capsys, files, passes):
        _, _, f = files
        _run(capsys, "check", f["a.mtx"], f["p.json"], "--epsilon", "--regular")
        assert passes == ["front"]

    def test_weights_add_an_unweighted_pass(self, capsys, files, passes):
        _, _, f = files
        _run(capsys, "check", f["a.mtx"], f["p.json"], "--weights", f["w.json"],
             "--epsilon", "--regular")
        assert passes == ["front", "front"]

    def test_rear_check_with_epsilon_is_two_passes(self, capsys, files, passes):
        _, _, f = files
        _run(capsys, "check", f["a.mtx"], f["p.json"], "--side", "rear", "--epsilon")
        assert passes == ["rear", "front"]

    @pytest.mark.parametrize("command", ["check", "transform"])
    def test_inadmissible_weight_block_exits_three(self, capsys, files, tmp_path, command):
        _, wi, f = files
        w = np.ones(wi.partition.n)
        w[list(wi.partition.cells[1])] = 0.0
        wf = tmp_path / "zero.json"
        wf.write_text(json.dumps(w.tolist()))
        extra = ["--out-dir", str(tmp_path / "out")] if command == "transform" else []
        code, cap = _run(capsys, command, f["a.mtx"], f["p.json"], "--weights", str(wf), *extra)
        assert code == 3
        assert cap.out == ""
        assert "cells [1] have zero-norm weight blocks" in cap.err


class TestLibraryPasses:
    def test_deviation_matrices_makes_two(self, files, passes):
        A, wi, _ = files
        eq.deviation_matrices(A, wi)
        assert passes == ["front", "rear"]

    @pytest.mark.parametrize("side", ["front", "rear"])
    def test_every_other_reader_makes_one(self, files, passes, side):
        A, wi, _ = files
        p = wi.partition
        eq.check_equitable(A, wi, side)
        eq.theta_residual(A, wi, np.eye(p.k), side)
        eq.epsilon_equitability(A, p)
        eq.check_regular_equivalence(A, p)
        eq.generalized_quotient(A, wi, 0.5)
        assert passes == [side, side, "front", "front", "front"]

    @pytest.mark.parametrize("side", ["front", "rear"])
    def test_one_pass_per_side_over_many_column_blocks(self, rng, passes, side):
        # k = 200 columns at N = 400 are 5 column blocks of the verdict's
        # residual: one pass summed once, not once per block
        n, k = 400, 200
        assert k > partition._BLOCK_ENTRIES // n
        A = rng.normal(size=(n, n))
        p = random_partition(rng, n, k)
        wi = eq.WeightedIndicator(p, random_weights(rng, p))
        eq.check_equitable(A, wi, side)
        eq.theta_residual(A, wi, np.eye(k), side)
        assert passes == [side, side]
        eq.deviation_matrices(A, wi)
        assert passes == [side, side, "front", "rear"]

    def test_an_invalid_side_is_refused_before_any_pass(self, files, passes):
        A, wi, _ = files
        for call in (lambda: eq.check_equitable(A, wi, "middle"),
                     lambda: eq.theta_residual(A, wi, np.eye(wi.partition.k), "middle"),
                     lambda: partition._Sums(A, wi).residual("middle")):
            with pytest.raises(InputError, match="side must be"):
                call()
        assert passes == []

    def test_deviation_releases_the_sums_it_reads(self, files, passes):
        # it is their last reader in a run: they are not held past it
        A, wi, _ = files
        sums = partition._Sums(A, wi, keep=True)
        sums.quotient(-1.0)
        sums.deviations()
        assert passes == ["front", "rear"]
        sums.quotient(-1.0)
        assert passes == ["front", "rear", "front"]

    def test_a_single_call_keeps_no_sums(self, files, passes):
        # each is freed once read, so the call's peak memory is the kernel's own
        A, wi, _ = files
        sums = partition._Sums(A, wi)
        sums.sums()
        sums.sums()
        assert passes == ["front", "front"]

    def test_calls_share_nothing(self, files, passes):
        # a context lives for one call: a changed A is summed afresh
        A, wi, _ = files
        before = eq.generalized_quotient(A, wi, -1.0).entries
        A[0, 0] += 1.0
        after = eq.generalized_quotient(A, wi, -1.0).entries
        assert passes == ["front", "front"]
        assert after[0, 0] != before[0, 0]


class TestCliReadsTheLibraryResults:
    def test_transform_report_equals_the_public_readers(self, capsys, files, tmp_path):
        A, wi, f = files
        code, cap = _run(capsys, "transform", f["a.mtx"], f["p.json"], "--weights", f["w.json"],
                         "--emit", "D", "--out-dir", str(tmp_path / "out"))
        assert code == 0
        rep = json.loads(cap.out)
        A = load_dense(f["a.mtx"])
        for name, alpha in (("front", -1.0), ("rayleigh", 0.0), ("rear", 1.0)):
            E = eq.generalized_quotient(A, wi, alpha).entries
            assert rep["quotients"][name] == [[[z.real, z.imag] for z in row] for row in E]
        for T in eq.deviation_matrices(A, wi):
            assert rep["deviation"][T.side] == eq.deviation_report(T).to_dict()

    @pytest.mark.parametrize("side", ["front", "rear"])
    def test_check_report_equals_the_public_readers(self, capsys, files, side):
        A, wi, f = files
        code, cap = _run(capsys, "check", f["a.mtx"], f["p.json"], "--weights", f["w.json"],
                         "--side", side, "--epsilon", "--regular")
        rep = json.loads(cap.out)
        A = load_dense(f["a.mtx"])
        verdict = eq.check_equitable(A, wi, side)
        assert code == (0 if verdict.is_equitable else 3)
        assert rep["max_residual"] == verdict.max_residual
        assert rep["epsilon"] == eq.epsilon_equitability(A, wi.partition)
        assert rep["regular"] == eq.check_regular_equivalence(A, wi.partition)


_FLOATS = st.floats(-1e300, 1e300)  # finite sums of up to 7 entries
_ELEMENTS = {
    "real": _FLOATS,
    "complex": st.builds(complex, _FLOATS, _FLOATS),
    "int64": st.integers(-2**40, 2**40),
    "bool": st.booleans(),
}
_DTYPES = {"real": np.float64, "complex": np.complex128, "int64": np.int64, "bool": bool}


@st.composite
def _matrix_and_layout(draw, kind):
    n = draw(st.integers(1, 7))
    entries = draw(st.lists(_ELEMENTS[kind], min_size=n * n, max_size=n * n))
    A = np.array(entries, dtype=_DTYPES[kind]).reshape(n, n)
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return A, eq.Partition.from_labels(labels)


@pytest.mark.parametrize("kind", sorted(_ELEMENTS))
def test_unit_weights_sum_bit_for_bit_like_no_weights(kind):
    # including -0.0 real parts beside negative imaginary parts, which a
    # product with 1 + 0j would turn into +0.0
    @settings(max_examples=150)
    @given(_matrix_and_layout(kind))
    def check(case):
        A, p = case
        lay = partition._layout(p)
        weighted = partition._aggregate(A, lay, np.ones(p.n))
        plain = partition._aggregate(A, lay)
        assert weighted.dtype == plain.dtype and weighted.shape == plain.shape
        assert weighted.tobytes() == plain.tobytes()
        sums = partition._Sums(A, eq.WeightedIndicator.unit(p), keep=True)
        assert sums.sums(weighted=False) is sums.sums()

    check()
