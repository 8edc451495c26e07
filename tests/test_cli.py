import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import equitile as eq
from equitile import cli
from equitile.cli import main
from equitile.mmio import load_dense, save_matrix_market
from equitile.rectangular import assemble_block_diagonal

from helpers import A0, PI0_CELLS, a_hat_expected, random_complex_matrix, random_partition


@pytest.fixture
def a0_file(tmp_path):
    path = tmp_path / "a0.mtx"
    save_matrix_market(path, A0)
    return str(path)


@pytest.fixture
def pi0_file(tmp_path):
    path = tmp_path / "pi0.json"
    path.write_text(json.dumps(eq.Partition.from_cells(PI0_CELLS).to_dict()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRefine:
    def test_a0_finds_equitable_partition(self, capsys, a0_file):
        code, out = run_cli(capsys, "refine", a0_file)
        assert code == 0
        assert json.loads(out) == {"n": 6, "cells": [[1], [2, 6], [3, 4, 5]]}

    def test_singleton_initial_echoes(self, capsys, a0_file, tmp_path):
        init = tmp_path / "init.json"
        init.write_text(json.dumps(eq.Partition.singletons(6).to_dict()))
        code, out = run_cli(capsys, "refine", a0_file, "--initial", str(init))
        assert code == 0
        assert json.loads(out)["cells"] == [[i] for i in range(1, 7)]

    def test_path_graph(self, capsys, tmp_path):
        p3 = tmp_path / "p3.mtx"
        save_matrix_market(p3, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
        code, out = run_cli(capsys, "refine", str(p3))
        assert code == 0
        assert json.loads(out) == {"n": 3, "cells": [[1, 3], [2]]}

    def test_color_tol_single_linkage(self, capsys, tmp_path):
        mf = tmp_path / "diag.mtx"
        save_matrix_market(mf, np.diag([0.0, 0.6, 1.2]))
        code, out = run_cli(capsys, "refine", str(mf), "--color-tol", "0.7")
        assert code == 0
        assert json.loads(out)["cells"] == [[1, 2, 3]]
        code, out = run_cli(capsys, "refine", str(mf), "--color-tol", "0.5")
        assert code == 0
        assert json.loads(out)["cells"] == [[1], [2], [3]]

    def test_color_tol_must_be_finite(self, capsys, tmp_path):
        # an infinite tolerance would merge every cell; it is refused instead
        mf = tmp_path / "diag.mtx"
        save_matrix_market(mf, np.diag([0.0, 0.6, 1.2]))
        code = main(["refine", str(mf), "--color-tol", "inf"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: color_tol must be a finite number >= 0, got inf\n"

    def test_empty_matrix_refused(self, capsys, tmp_path):
        mf = tmp_path / "empty.mtx"
        mf.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
        code = main(["refine", str(mf)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: square matrix must be non-empty, got shape (0, 0)\n"

    def test_weighted_requires_nonzero(self, capsys, a0_file, tmp_path):
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps([1, 0, 1, 1, 1, 1]))
        code, _ = run_cli(capsys, "refine", a0_file, "--weights", str(wf))
        assert code == 2

    def test_weighted_refinement_runs(self, capsys, tmp_path, rng):
        # conjugating an equitable matrix by diag(w) is detected via --weights
        A_star = np.array([[0.0, 2.0], [2.0, 0.0]])
        w = np.array([2.0, 3.0])
        A = (A_star * w[:, None]) / w[None, :]
        mf = tmp_path / "m.mtx"
        save_matrix_market(mf, A)
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps(list(w)))
        code, out = run_cli(
            capsys, "refine", str(mf), "--weights", str(wf), "--color-tol", "1e-9"
        )
        assert code == 0
        assert json.loads(out)["cells"] == [[1, 2]]
        # without weights the rows have different plain sums, so cells split
        code, out = run_cli(capsys, "refine", str(mf))
        assert code == 0
        assert json.loads(out)["cells"] == [[1], [2]]


class TestCheck:
    def test_equitable_exit_zero(self, capsys, a0_file, pi0_file):
        code, out = run_cli(
            capsys, "check", a0_file, pi0_file, "--epsilon", "--regular"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["is_equitable"] is True
        assert rep["epsilon"] == 0.0
        assert rep["regular"] is True

    def test_singletons_trivially_equitable(self, capsys, a0_file, tmp_path):
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps(eq.Partition.singletons(6).to_dict()))
        code, out = run_cli(capsys, "check", a0_file, str(pf))
        assert code == 0
        assert json.loads(out)["is_equitable"] is True

    def test_single_cell_not_equitable(self, capsys, a0_file, tmp_path):
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps(eq.Partition.single_cell(6).to_dict()))
        code, out = run_cli(capsys, "check", a0_file, str(pf), "--epsilon")
        assert code == 3
        rep = json.loads(out)
        assert rep["is_equitable"] is False
        assert rep["epsilon"] == 1.0  # row sums are 14,13,13,13,13,13

    def test_rear_side_flag(self, capsys, a0_file, pi0_file):
        code, out = run_cli(capsys, "check", a0_file, pi0_file, "--side", "rear")
        assert code == 0
        assert json.loads(out)["side"] == "rear"

    @pytest.mark.parametrize("command", ["check", "transform", "split"])
    def test_negative_tolerance_refused(self, capsys, a0_file, pi0_file, command):
        # under a negative tolerance no residual, not even 0, could pass
        with pytest.raises(SystemExit) as exc:
            main([command, a0_file, pi0_file, "--tol", "-1e-10"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestTransform:
    def test_golden_full_emission(self, capsys, a0_file, pi0_file, tmp_path):
        out_dir = tmp_path / "out"
        code, out = run_cli(
            capsys, "transform", a0_file, pi0_file,
            "--emit", "full,E,F,D", "--out-dir", str(out_dir),
        )
        assert code == 0
        rep = json.loads(out)
        A_hat = load_dense(rep["files"]["A_hat"])
        assert np.abs(A_hat - a_hat_expected()).max() <= 1e-12
        E = load_dense(rep["files"]["E"])
        assert np.abs(E - a_hat_expected()[:3, :3]).max() <= 1e-12
        assert rep["spectrum"]["exact"] is True
        assert rep["quotients"]["front"] == [
            [[1.0, 0.0], [4.0, 0.0], [9.0, 0.0]],
            [[2.0, 0.0], [5.0, 0.0], [6.0, 0.0]],
            [[3.0, 0.0], [4.0, 0.0], [6.0, 0.0]],
        ]
        assert rep["deviation"]["front"]["frobenius"] == 0.0

    def test_zero_matrix(self, capsys, tmp_path):
        zf = tmp_path / "z.mtx"
        save_matrix_market(zf, np.zeros((4, 4)))
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps({"n": 4, "cells": [[1, 2], [3, 4]]}))
        code, out = run_cli(
            capsys, "transform", str(zf), str(pf), "--out-dir", str(tmp_path)
        )
        assert code == 0
        assert np.all(load_dense(json.loads(out)["files"]["A_hat"]) == 0)

    def test_hermitian_output_stays_hermitian(self, capsys, tmp_path, rng):
        A = random_complex_matrix(rng, 6)
        A = (A + A.conj().T) / 2
        mf = tmp_path / "h.mtx"
        save_matrix_market(mf, A)
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps({"n": 6, "cells": [[1, 4], [2, 3], [5, 6]]}))
        code, out = run_cli(
            capsys, "transform", str(mf), str(pf), "--out-dir", str(tmp_path)
        )
        assert code == 0
        A_hat = load_dense(json.loads(out)["files"]["A_hat"])
        assert np.abs(A_hat - A_hat.conj().T).max() <= 1e-12 * np.linalg.norm(A)

    def test_eigvecs_emission(self, capsys, a0_file, pi0_file, tmp_path):
        code, out = run_cli(
            capsys, "transform", a0_file, pi0_file,
            "--emit", "eigvecs", "--out-dir", str(tmp_path),
        )
        assert code == 0
        V = load_dense(json.loads(out)["files"]["eigvecs"])
        # columns are eigenvectors of the original matrix
        for col in range(6):
            v = V[:, col]
            lam = (v.conj() @ A0 @ v) / (v.conj() @ v)
            assert np.linalg.norm(A0 @ v - lam * v) <= 1e-9 * np.linalg.norm(A0)

    def test_deterministic_report(self, capsys, a0_file, pi0_file, tmp_path):
        # byte-identical output modulo the timing field
        outputs = []
        for _ in range(2):
            _, out = run_cli(
                capsys, "transform", a0_file, pi0_file, "--out-dir", str(tmp_path)
            )
            outputs.append("\n".join(
                ln for ln in out.splitlines() if '"timing_s"' not in ln
            ))
        assert outputs[0] == outputs[1]

    def test_emitted_files_reloadable(self, capsys, a0_file, pi0_file, tmp_path):
        _, out = run_cli(
            capsys, "transform", a0_file, pi0_file,
            "--emit", "full,E,F,D", "--out-dir", str(tmp_path),
        )
        for path in json.loads(out)["files"].values():
            load_dense(path)

    def test_phases_file(self, capsys, a0_file, pi0_file, tmp_path):
        ph = tmp_path / "ph.json"
        ph.write_text(json.dumps([[-1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]))
        code, out = run_cli(
            capsys, "transform", a0_file, pi0_file,
            "--phases", str(ph), "--out-dir", str(tmp_path),
        )
        assert code == 0
        A_hat = load_dense(json.loads(out)["files"]["A_hat"])
        assert np.abs(A_hat - a_hat_expected()).max() <= 1e-12

    def test_unknown_emit_rejected(self, capsys, a0_file, pi0_file, tmp_path, monkeypatch):
        # before any input is read: no transform is computed, a missing file is not reached
        def never(*args, **kwargs):
            raise AssertionError("block_triangularize called")

        monkeypatch.setattr(cli, "block_triangularize", never)
        for matrix in (a0_file, str(tmp_path / "missing.mtx")):
            assert main(["transform", matrix, pi0_file, "--emit", "E,Q"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: unknown --emit values: ['Q']\n"


class TestSplit:
    def test_golden_union_is_spectrum(self, capsys, a0_file, pi0_file):
        code, out = run_cli(capsys, "split", a0_file, pi0_file)
        assert code == 0
        rep = json.loads(out)
        assert rep["exact"] is True
        assert rep["weyl_holds"] is True
        assert rep["tau_spec"] <= 1e-12
        joint = [complex(re, im) for re, im in rep["eigs_E"] + rep["eigs_F"]]
        assert eq.spectrum_gap(np.linalg.eigvalsh(A0), joint) <= 1e-9

    def test_singletons_no_factor_block(self, capsys, a0_file, tmp_path):
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps(eq.Partition.singletons(6).to_dict()))
        code, out = run_cli(capsys, "split", a0_file, str(pf))
        assert code == 0
        rep = json.loads(out)
        assert rep["eigs_F"] == []
        assert len(rep["eigs_E"]) == 6

    def test_non_hermitian_skips_weyl(self, capsys, tmp_path, rng):
        A = random_complex_matrix(rng, 4)
        mf = tmp_path / "m.mtx"
        save_matrix_market(mf, A)
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps({"n": 4, "cells": [[1, 2, 3, 4]]}))
        code, out = run_cli(capsys, "split", str(mf), str(pf))
        assert code == 0
        assert json.loads(out)["weyl_holds"] is None


class TestRect:
    def _write_inputs(self, tmp_path, rng, m_sizes, q_sizes, n_sizes, r_sizes):
        left = [random_complex_matrix(rng, m, q) for m, q in zip(m_sizes, q_sizes)]
        right = [random_complex_matrix(rng, n, r) for n, r in zip(n_sizes, r_sizes)]
        A = random_complex_matrix(rng, sum(m_sizes), sum(n_sizes))
        paths = {}
        for name, M in (
            ("A", A),
            ("wm", assemble_block_diagonal(left)),
            ("wp", assemble_block_diagonal(right)),
        ):
            p = tmp_path / f"{name}.mtx"
            save_matrix_market(p, M)
            paths[name] = str(p)
        st = tmp_path / "structure.json"
        st.write_text(json.dumps({
            "left": {"m_sizes": m_sizes, "q_sizes": q_sizes},
            "right": {"n_sizes": n_sizes, "r_sizes": r_sizes},
        }))
        paths["structure"] = str(st)
        return A, left, right, paths

    def test_random_case_preserves_singular_values(self, capsys, tmp_path, rng):
        A, left, right, paths = self._write_inputs(
            tmp_path, rng, [3, 4], [1, 2], [2, 3], [1, 2]
        )
        code, out = run_cli(
            capsys, "rect", paths["A"], paths["structure"], paths["wm"], paths["wp"],
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["singular_values"]["max_gap"] <= 1e-11
        for name in ("E", "D_minus", "D_plus_conj", "F"):
            load_dense(rep["files"][name])

    def test_constructed_exact_case(self, capsys, tmp_path, rng):
        A, left, right, paths = self._write_inputs(
            tmp_path, rng, [3, 3], [2, 1], [4, 2], [2, 1]
        )
        Wm = assemble_block_diagonal(left)
        Wp = assemble_block_diagonal(right)
        Theta = random_complex_matrix(rng, 3, 3)
        A = Wm @ Theta @ np.linalg.pinv(Wp)
        save_matrix_market(paths["A"], A)
        code, out = run_cli(
            capsys, "rect", paths["A"], paths["structure"], paths["wm"], paths["wp"],
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        rep = json.loads(out)
        D = load_dense(rep["files"]["D_minus"])
        assert np.abs(D).max() <= 1e-11 * max(1, np.abs(A).max())

    def test_square_reduction_matches_transform(self, capsys, tmp_path, rng):
        # rank-one blocks with matched sides: same block singular values as
        # the square pipeline
        n = 5
        cells = [[1], [2, 3], [4, 5]]
        w = np.ones(n)
        A = random_complex_matrix(rng, n)
        af = tmp_path / "a.mtx"
        save_matrix_market(af, A)
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps({"n": n, "cells": cells}))
        _, out_sq = run_cli(
            capsys, "transform", str(af), str(pf),
            "--emit", "E,F,D", "--out-dir", str(tmp_path / "sq"),
        )
        W = eq.WeightedIndicator.unit(
            eq.Partition.from_cells([[0], [1, 2], [3, 4]])
        ).matrix()
        wf = tmp_path / "w.mtx"
        save_matrix_market(wf, W)
        st = tmp_path / "st.json"
        st.write_text(json.dumps({
            "left": {"m_sizes": [1, 2, 2], "q_sizes": [1, 1, 1]},
            "right": {"n_sizes": [1, 2, 2], "r_sizes": [1, 1, 1]},
        }))
        _, out_rc = run_cli(
            capsys, "rect", str(af), str(st), str(wf), str(wf),
            "--out-dir", str(tmp_path / "rc"),
        )
        sq = json.loads(out_sq)["files"]
        rc = json.loads(out_rc)["files"]
        for name in ("E", "F", "D_minus", "D_plus_conj"):
            a = load_dense(sq[name])
            b = load_dense(rc[name])
            sa = np.linalg.svd(a, compute_uv=False)
            sb = np.linalg.svd(b, compute_uv=False)
            assert np.abs(sa - sb).max() <= 1e-11 * max(1, sa.max())

    def test_rank_deficient_side_exits_three(self, capsys, tmp_path, rng):
        A, left, right, paths = self._write_inputs(
            tmp_path, rng, [3, 3], [2, 1], [4, 2], [2, 1]
        )
        Wm = assemble_block_diagonal(left)
        Wm[:, 0] = 0.0
        save_matrix_market(paths["wm"], Wm)
        code, _ = run_cli(
            capsys, "rect", paths["A"], paths["structure"], paths["wm"], paths["wp"],
            "--out-dir", str(tmp_path),
        )
        assert code == 3

    def test_each_side_block_factored_once(self, capsys, tmp_path, rng, monkeypatch):
        *_, paths = self._write_inputs(tmp_path, rng, [3, 4, 2], [1, 2, 2], [2, 3], [1, 2])
        svd, factored = np.linalg.svd, []

        def counting_svd(a, full_matrices=True, compute_uv=True, **kwargs):
            if full_matrices and compute_uv:
                factored.append(np.shape(a))
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        code, _ = run_cli(
            capsys, "rect", paths["A"], paths["structure"], paths["wm"], paths["wp"],
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert factored == [(3, 1), (4, 2), (2, 2), (2, 1), (3, 2)]

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_matrix_shape_must_match_structure(self, capsys, tmp_path, rng, rank_deficient):
        # the shape check comes first: exit 2 even when a side would exit 3
        _, left, _, paths = self._write_inputs(
            tmp_path, rng, [3, 3], [2, 1], [4, 2], [2, 1]
        )
        save_matrix_market(paths["A"], random_complex_matrix(rng, 6, 5))
        if rank_deficient:
            Wm = assemble_block_diagonal(left)
            Wm[:, 0] = 0.0
            save_matrix_market(paths["wm"], Wm)
        code = main(["rect", paths["A"], paths["structure"], paths["wm"], paths["wp"],
                     "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "does not match structure" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("side, key, sizes", [
        ("left", "m_sizes", [3.9, 4]),
        ("left", "q_sizes", [True, 2]),
        ("right", "n_sizes", ["2", 3]),
    ])
    def test_block_sizes_must_be_integers(self, capsys, tmp_path, rng, side, key, sizes):
        *_, paths = self._write_inputs(tmp_path, rng, [3, 4], [1, 2], [2, 3], [1, 2])
        structure = json.loads(open(paths["structure"]).read())
        structure[side][key] = sizes
        (tmp_path / "structure.json").write_text(json.dumps(structure))
        code = main(["rect", paths["A"], paths["structure"], paths["wm"], paths["wp"],
                     "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "bad structure object" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("left, message", [
        ({"m_sizes": [3, 4], "q_sizes": [1]},
         "row and column size lists must have equal length"),
        ({"m_sizes": [3, 3], "q_sizes": [1, 2]},
         "matrix shape (7, 3) does not match sizes (6, 3)"),
    ])
    def test_side_sizes_must_fit_the_side_matrix(self, capsys, tmp_path, rng, left, message):
        *_, paths = self._write_inputs(tmp_path, rng, [3, 4], [1, 2], [2, 3], [1, 2])
        structure = json.loads(open(paths["structure"]).read())
        structure["left"] = left
        (tmp_path / "structure.json").write_text(json.dumps(structure))
        code = main(["rect", paths["A"], paths["structure"], paths["wm"], paths["wp"],
                     "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestAnyMagnitude:
    """Reports of s*A equal s times those of A for powers of two s far out of
    the normal range, where squared residuals would over- or underflow."""

    @staticmethod
    def _run(capsys, *argv):
        code = main([str(a) for a in argv])
        out = capsys.readouterr().out
        return code, json.loads(out) if out else None

    @staticmethod
    def _close(a, b, scale):
        assert np.abs(np.asarray(a) - np.asarray(b)).max(initial=0.0) <= 1e-12 * scale

    @pytest.fixture(params=["equitable", "random"])
    def case(self, request, tmp_path, rng):
        if request.param == "equitable":
            A, cells = A0, PI0_CELLS
        else:
            A = rng.normal(size=(12, 12))
            A = A + A.T
            cells = random_partition(rng, 12, 4).cells
        pf = tmp_path / "part.json"
        pf.write_text(json.dumps(eq.Partition.from_cells(cells).to_dict()))
        return A, pf

    @pytest.mark.parametrize("s", [2.0**600, 2.0**-600])
    def test_check_scales_exactly(self, capsys, tmp_path, case, s):
        A, pf = case
        files = {}
        for name, M in (("A", A), ("sA", s * A)):
            files[name] = tmp_path / f"{name}.mtx"
            save_matrix_market(files[name], M)
        for side in ("front", "rear"):
            base = self._run(capsys, "check", files["A"], pf, "--side", side, "--tol",
                             repr(1e-10), "--epsilon", "--regular")
            scaled = self._run(capsys, "check", files["sA"], pf, "--side", side, "--tol",
                               repr(s * 1e-10), "--epsilon", "--regular")
            assert scaled[0] == base[0] in (0, 3)
            for key in ("is_equitable", "regular"):
                assert scaled[1][key] == base[1][key]
            for key in ("max_residual", "epsilon", "tol"):
                assert scaled[1][key] == s * base[1][key]  # bit for bit

    @pytest.mark.parametrize("s", [2.0**600, 2.0**-600])
    def test_transform_and_split_scale(self, capsys, tmp_path, case, s):
        A, pf = case
        files = {}
        for name, M in (("A", A), ("sA", s * A)):
            files[name] = tmp_path / f"{name}.mtx"
            save_matrix_market(files[name], M)
        runs = {}
        for name, tol in (("A", 1e-10), ("sA", s * 1e-10)):
            runs[name] = [self._run(capsys, "transform", files[name], pf, "--tol", repr(tol),
                                    "--out-dir", tmp_path / f"out-{name}"),
                          self._run(capsys, "split", files[name], pf, "--tol", repr(tol))]
        (t_code, t), (s_code, sp) = runs["A"]
        (t_code2, t2), (s_code2, sp2) = runs["sA"]
        assert t_code == t_code2 == 0 and s_code == s_code2 == 0
        assert t2["spectrum"]["exact"] == t["spectrum"]["exact"]
        for name, Q in t["quotients"].items():
            assert np.array_equal(np.asarray(t2["quotients"][name]), s * np.asarray(Q))
        scale = s * np.linalg.norm(A)
        for side in ("front", "rear"):
            dev, dev2 = t["deviation"][side], t2["deviation"][side]
            assert np.array_equal(np.asarray(dev2["per_block"]), s * np.asarray(dev["per_block"]))
            assert dev2["nonzero_columns"] == dev["nonzero_columns"]
            for key in ("frobenius", "spectral", "nuclear"):
                self._close(dev2[key], s * dev[key], scale)
        for key in ("eigs_E", "eigs_F"):
            self._close(t2["spectrum"][key], s * np.asarray(t["spectrum"][key]), scale)
            self._close(sp2[key], s * np.asarray(sp[key]), scale)
        assert sp2["weyl_holds"] == sp["weyl_holds"] is True
        assert sp2["exact"] == sp["exact"]
        self._close(sp2["tau_spec"], s * sp["tau_spec"], scale)


class TestExitCodes:
    def test_garbage_matrix_file(self, capsys, tmp_path, pi0_file):
        bad = tmp_path / "bad.mtx"
        bad.write_text("garbage\n")
        code, _ = run_cli(capsys, "check", str(bad), pi0_file)
        assert code == 2

    def test_partition_size_mismatch(self, capsys, a0_file, tmp_path):
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps({"n": 5, "cells": [[1, 2, 3, 4, 5]]}))
        code, _ = run_cli(capsys, "check", a0_file, str(pf))
        assert code == 2

    def test_malformed_partition_json(self, capsys, a0_file, tmp_path):
        for payload in ('{"cells": 3}', '{"n": 6}', '[1,2]', '{"n": 6, "cells": [[0]]}'):
            pf = tmp_path / "p.json"
            pf.write_text(payload)
            code, _ = run_cli(capsys, "check", a0_file, str(pf))
            assert code == 2, payload

    def test_malformed_weights(self, capsys, a0_file, pi0_file, tmp_path):
        for payload in ('{"w": 1}', "[1, 2]", '[1, 1, 1, 1, 1, "x"]',
                        "[[1], 1, 1, 1, 1, 1]"):
            wf = tmp_path / "w.json"
            wf.write_text(payload)
            code, _ = run_cli(
                capsys, "check", a0_file, pi0_file, "--weights", str(wf)
            )
            assert code == 2, payload

    @pytest.mark.parametrize("payload", [
        '{"n": 6, "cells": [["a"], [2, 6], [3, 4, 5]]}',
        '{"n": 6, "cells": [[1.7], [2, 6], [3, 4, 5]]}',
        '{"n": 6.0, "cells": [[1], [2, 6], [3, 4, 5]]}',
        '{"n": 6, "cells": [[true], [2, 6], [3, 4, 5]]}',
        '{"n": true, "cells": [[1]]}',
    ])
    def test_partition_entries_must_be_integers(self, capsys, a0_file, tmp_path, payload):
        pf = tmp_path / "p.json"
        pf.write_text(payload)
        code = main(["check", a0_file, str(pf)])
        captured = capsys.readouterr()
        assert code == 2, payload
        assert captured.out == ""
        assert "bad partition object" in captured.err

    def test_partition_accepts_numpy_integers(self):
        d = {"n": np.int64(3), "cells": [[np.int32(1), 3], [np.uint8(2)]]}
        assert eq.Partition.from_dict(d).cells == ((0, 2), (1,))

    @pytest.mark.parametrize("payload", [
        "[[null, 0], 1, 1, 1, 1, 1]",
        '[["x", 0], 1, 1, 1, 1, 1]',
        "[true, 1, 1, 1, 1, 1]",
        "[[1, false], 1, 1, 1, 1, 1]",
        "[1" + "0" * 400 + ", 1, 1, 1, 1, 1]",
    ])
    def test_weight_entries_must_be_numbers(self, capsys, a0_file, pi0_file, tmp_path, payload):
        wf = tmp_path / "w.json"
        wf.write_text(payload)
        code = main(["check", a0_file, pi0_file, "--weights", str(wf)])
        captured = capsys.readouterr()
        assert code == 2, payload
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("command", ["check", "transform", "split"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_tolerance_refused(self, capsys, a0_file, pi0_file, command, tol):
        with pytest.raises(SystemExit) as exc:
            main([command, a0_file, pi0_file, "--tol", tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_tolerance_comes_from_tol_only(self, capsys, a0_file, pi0_file, tmp_path, rng,
                                           monkeypatch):
        # no environment variable sets a tolerance, nor can one break a command
        monkeypatch.setenv("EQUITILE_TOL", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert main(["refine", a0_file]) == 0
        *_, paths = TestRect()._write_inputs(tmp_path, rng, [3, 4], [1, 2], [2, 3], [1, 2])
        assert main(["rect", paths["A"], paths["structure"], paths["wm"], paths["wp"],
                     "--out-dir", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "check", a0_file, pi0_file)
        assert code == 0
        assert json.loads(out)["tol"] == 1e-10

    def test_missing_json_file(self, capsys, a0_file, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert main(["check", a0_file, missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot read {missing}: [Errno 2] "
                                f"No such file or directory: {missing!r}\n")

    def test_invalid_json_file(self, capsys, a0_file, tmp_path):
        bad = tmp_path / "p.json"
        bad.write_text("not json")
        assert main(["check", a0_file, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {bad}: invalid JSON: "
                                "Expecting value: line 1 column 1 (char 0)\n")

    def test_complex_weights_accepted(self, capsys, a0_file, pi0_file, tmp_path):
        # a global phase on the weights does not disturb equitability
        wf = tmp_path / "w.json"
        wf.write_text(json.dumps([[0.0, 1.0]] * 6))
        code, out = run_cli(capsys, "check", a0_file, pi0_file, "--weights", str(wf))
        assert code == 0
        assert json.loads(out)["is_equitable"] is True

    def test_numerical_failure(self, capsys, tmp_path):
        # finite input whose transform overflows: the eigensolver refuses it
        mf = tmp_path / "huge.mtx"
        save_matrix_market(mf, np.full((2, 2), 1e308))
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps({"n": 2, "cells": [[1, 2]]}))
        with pytest.warns(RuntimeWarning):
            code, _ = run_cli(capsys, "split", str(mf), str(pf))
        assert code == 4

    @pytest.mark.parametrize("command", ["check", "refine", "split", "transform"])
    def test_non_finite_matrix_rejected(self, capsys, tmp_path, command):
        nf = tmp_path / "nan.mtx"
        nf.write_text(
            "%%MatrixMarket matrix array real general\n2 2\nnan\n0.0\n0.0\n1.0\n"
        )
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps({"n": 2, "cells": [[1, 2]]}))
        argv = [command, str(nf)] + ([] if command == "refine" else [str(pf)])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        # the library refuses it too; the command line names the file
        assert captured.err == f"error: {nf}: matrix entries must be finite\n"

    @pytest.mark.parametrize("payload", ["[NaN, 1, 1, 1, 1, 1]", "[[1, Infinity], 1, 1, 1, 1, 1]"])
    def test_non_finite_weights_rejected(self, capsys, a0_file, pi0_file, tmp_path, payload):
        wf = tmp_path / "w.json"
        wf.write_text(payload)
        code = main(["check", a0_file, pi0_file, "--weights", str(wf)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""

    def test_non_finite_phases_rejected(self, capsys, a0_file, pi0_file, tmp_path):
        pf = tmp_path / "phases.json"
        pf.write_text("[1, NaN, 1]")
        code = main(["transform", a0_file, pi0_file, "--phases", str(pf),
                     "--emit", "E", "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""

    def test_overflowing_report_is_numerical_failure(self, capsys, tmp_path):
        # finite input whose row sums overflow: the report would hold NaN,
        # which strict JSON cannot carry
        mf = tmp_path / "huge.mtx"
        save_matrix_market(mf, np.array([[1e308, 1e308], [0.0, 0.0]]))
        pf = tmp_path / "p.json"
        pf.write_text(json.dumps({"n": 2, "cells": [[1, 2]]}))
        with pytest.warns(RuntimeWarning):
            code = main(["check", str(mf), str(pf)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""

    def test_console_entry_point(self, a0_file, pi0_file):
        proc = subprocess.run(
            [sys.executable, "-m", "equitile.cli", "check", a0_file, pi0_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_equitable"] is True


# a child that prints a report of about 400 kB, more than a pipe holds, while
# a 10 ms timer signal interrupts it, as an in-process sampling profiler does
_SIGNALLED_CHILD = """
import signal, sys
from equitile.cli import _print_report
signal.signal(signal.SIGALRM, lambda *args: None)
signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
print("ready", file=sys.stderr, flush=True)
_print_report({"values": list(range(40000))})
signal.setitimer(signal.ITIMER_REAL, 0)
"""


def test_report_is_whole_when_signals_interrupt_a_full_pipe():
    # under PYTHONUNBUFFERED a print's text layer writes once to the raw file
    # and drops what a short write did not take: the report arrived cut at
    # 64 KiB. Each child blocks on a full pipe until the parent reads.
    src = str(Path(eq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    children = [subprocess.Popen([sys.executable, "-c", _SIGNALLED_CHILD], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for _ in range(4)]
    for child in children:
        assert child.stderr.readline() == b"ready\n"
    time.sleep(0.3)
    for child in children:
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        assert json.loads(out) == {"values": list(range(40000))}


def test_error_is_whole_through_short_writes(capfd, monkeypatch, tmp_path):
    # the error line goes out by the report's os.write loop, which goes on
    # from where each short write stopped
    missing = tmp_path / "missing.mtx"
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:3]))
    code = main(["refine", str(missing)])
    captured = capfd.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {missing}")
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
