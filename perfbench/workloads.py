"""The benchmark's workloads: seeded inputs, the program calls of one
instance, and the oracle checks of its outputs.

A workload's set-up returns one cycle of cases. A case has a `kind`, the
matrix entries `n2` it is charged with for entries_per_s, `refs()`
returning its oracle data, `run(tracer, clock)` making the timed program
calls, and `check(outputs, refs, checks)` comparing those outputs with
oracles.py outside the timed region. Cases with `replay = True` run only
when tracing and are not instances.

Oracle code runs in forked processes (run.py), never in the process whose
peak RSS is measured, so it imports nothing the program does not need.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import equitile as eq
from equitile.mmio import load_matrix_market, save_matrix_market
from equitile.rectangular import split_block_diagonal

import gen
import oracles

DELTA = 1e-6  # planted noise of the near-equitable matrices

DENSE_N, DENSE_CELL = 800, 4
DENSE_TOL = 100 * DELTA  # verdict tolerance; cells of 4 deviate by about 4 DELTA

PATH_N, GRID, REGULAR_N, REGULAR_DEGREE, WPATH_N = 400, (30, 40), 1000, 6, 300

CLI_GRID = (20, 30)
CLI_N, CLI_CELL = 600, 60
CLI_TOL = 1000 * DELTA  # cells of 60 deviate by about 20 DELTA
RECT_LEFT, RECT_RIGHT, RECT_BLOCKS = (6, 2), (5, 1), 100
CLI_TIMEOUT_S = 150


class Checks:
    """Oracle comparisons made and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def near(self, got, want, tol, what: str) -> None:
        self.expect(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} within {tol!r}")


def _labels(part: eq.Partition) -> np.ndarray:
    labels = np.empty(part.n, dtype=int)
    labels[np.concatenate(part.cells)] = np.repeat(np.arange(part.k), part.sizes)
    return labels


# ---------------------------------------------------------------- dense-fine

class DenseCase:
    """The whole analysis pipeline on one near-equitable N=800, k=200 matrix."""

    replay = False

    def __init__(self, kind: str, planted: gen.Planted):
        self.kind = kind
        self.P = planted
        self.n2 = planted.A.size
        self.part = eq.Partition.from_cells(planted.cells.tolist())
        self.wi = eq.WeightedIndicator(self.part, planted.weights)

    def run(self, tr, clock):
        A, part, wi, n2 = self.P.A, self.part, self.wi, self.n2
        out = {}
        with tr.span("partition.check_equitable", 2 * n2):
            out["front"] = eq.check_equitable(A, wi, "front", DENSE_TOL)
            out["rear"] = eq.check_equitable(A, wi, "rear", DENSE_TOL)
        with tr.span("partition.epsilon", n2):
            out["eps"] = eq.epsilon_equitability(A, part)
        with tr.span("partition.regular", n2):
            out["regular"] = eq.check_regular_equivalence(A, part)
        with tr.span("triangularize.quotient", 3 * n2):
            out["quotients"] = [eq.generalized_quotient(A, wi, a) for a in (-1.0, 0.0, 1.0)]
        with tr.span("triangularize.deviation", n2):
            out["deviation"] = eq.deviation_matrices(A, wi)
        with tr.span("analysis.deviation_report"):
            out["reports"] = [eq.deviation_report(T) for T in out["deviation"]]
        with tr.span("analysis.theta_residual", n2):
            out["theta"] = eq.theta_residual(A, wi, out["quotients"][0].entries)
        with tr.span("triangularize.block_triangularize", n2), tr.multiplies():
            out["tri"] = eq.block_triangularize(A, wi)
        with tr.span("triangularize.spectrum_split"):
            out["split"] = eq.spectrum_split(out["tri"])
        if self.P.hermitian:
            with tr.span("analysis.weyl_check"):
                out["weyl"] = eq.weyl_check(A, out["tri"])
        return out

    def refs(self) -> dict:
        A, cells, w = self.P.A, self.P.cells, self.P.weights
        ref = {
            "front": oracles.max_front_residual(A, cells, w),
            "rear": oracles.max_rear_residual(A, cells, w),
            "eps": oracles.epsilon(A, cells),
            "regular": oracles.regular(A, cells),
            "fro": float(np.linalg.norm(A)),
            "trace": complex(np.trace(A)),
        }
        if self.P.hermitian:
            ref["eigs"] = np.linalg.eigvalsh(A)
        else:
            ref["eigs"], ref["kappa"] = oracles.eig_condition(A)
        return ref

    def check(self, out, ref, checks: Checks) -> None:
        P = self.P
        small = 1e-9 * ref["fro"]
        front, rear = out["front"], out["rear"]
        checks.expect(front.is_equitable and ref["front"] <= DENSE_TOL, "front verdict")
        checks.near(front.max_residual, ref["front"], 1e-6 * ref["front"], "front residual")
        checks.expect(rear.is_equitable == P.rear_equitable == (ref["rear"] <= DENSE_TOL),
                      "rear verdict")
        checks.near(rear.max_residual, ref["rear"], 1e-6 * ref["rear"], "rear residual")
        checks.near(out["eps"], ref["eps"], 1e-6 * ref["eps"], "epsilon")
        checks.expect(out["regular"] == ref["regular"], "regular equivalence")

        E = [q.entries for q in out["quotients"]]
        checks.near(np.abs(E[0] - P.quotient).max(), 0.0, 100 * DELTA,
                    "front quotient vs planted")
        traces = [np.trace(e) for e in E]
        checks.near(max(abs(t - traces[0]) for t in traces), 0.0, small, "quotient traces")

        T_front, T_rear = out["deviation"]
        tri = out["tri"]
        sv_front = oracles.singular_values(T_front.assembled)
        sv_dm = oracles.singular_values(tri.D_minus)
        checks.near(np.abs(sv_dm - sv_front[:tri.k]).max(), 0.0, small,
                    "sigma(D_minus) vs sigma(T_front)")
        for rep, T in zip(out["reports"], (T_front, T_rear)):
            fro = np.linalg.norm(T.assembled)
            checks.near(rep.frobenius, fro, 1e-9 * fro, f"{T.side} report frobenius")
            spec = oracles.singular_values(T.assembled)[0]
            checks.near(rep.spectral, spec, 1e-9 * spec, f"{T.side} report spectral")
        checks.near(out["theta"], np.linalg.norm(T_front.assembled), small,
                    "theta residual at the front quotient")

        A_hat = tri.assembled()
        checks.near(np.linalg.norm(A_hat), ref["fro"], small, "||A_hat||_F")
        checks.near(np.trace(A_hat), ref["trace"], small, "tr A_hat")

        split = out["split"]
        joint = np.concatenate([split.eigs_E, split.eigs_F])
        tau = sv_dm[0]
        if P.hermitian:
            gap = oracles.sorted_gap(joint, ref["eigs"])
            checks.near(gap, 0.0, tau + 1e-10 * ref["fro"], "joint spectrum within Weyl tau")
            weyl = out["weyl"]
            checks.expect(weyl.holds, "weyl_check holds")
            checks.near(weyl.tau_spec, tau, 1e-9 * tau, "weyl tau")
        else:
            # the joint spectrum is that of A_hat without its D_minus block,
            # a unitary image of A less a perturbation of 2-norm tau
            gap = oracles.nearest_gap(joint, ref["eigs"])
            checks.near(gap, 0.0, ref["kappa"] * tau + 1e-10 * ref["fro"],
                        "joint spectrum within the Bauer-Fike bound")


def dense_fine(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    return [
        DenseCase("symmetric", gen.planted_symmetric(rng, DENSE_N, DENSE_CELL, DELTA)),
        DenseCase("weighted", gen.planted_weighted(rng, DENSE_N, DENSE_CELL, DELTA)),
    ]


# -------------------------------------------------------------- graph-refine

class GraphCase:
    """Refinement with colour tolerance 0, then the equitability verdict."""

    replay = False

    def __init__(self, kind: str, A: np.ndarray, weights=None, cells: int | None = None):
        self.kind = kind
        self.A = A
        self.w = weights
        self.n2 = A.size
        self.cells = cells

    def run(self, tr, clock):
        A, n2 = self.A, self.n2
        if self.w is None:
            with tr.span("partition.refine", n2):
                part = eq.coarsest_front_equitable_refinement(A)
            with tr.span("partition.indicator"):
                wi = eq.WeightedIndicator.unit(part)
        else:
            with tr.span("partition.weighted_refine", n2):
                part = eq.weighted_refinement(A, self.w)
            with tr.span("partition.indicator"):
                wi = eq.WeightedIndicator(part, self.w)
        tr.count("partition.refine_cells", part.k)
        with tr.span("partition.check_equitable", n2):
            verdict = eq.check_equitable(A, wi)
        return part, verdict

    def refs(self) -> int:
        """The expected cell count: analytic, else from numpy refinement."""
        if self.cells is not None:
            return self.cells
        return oracles.coarsest_cell_count(self._scaled())

    def _scaled(self) -> np.ndarray:
        if self.w is None:
            return self.A
        return self.A * self.w[None, :] / self.w[:, None]

    def check(self, out, expected_cells, checks: Checks) -> None:
        part, verdict = out
        checks.expect(part.k == expected_cells,
                      f"{self.kind}: {part.k} cells, want {expected_cells}")
        checks.expect(oracles.exactly_front_equitable(self._scaled(), _labels(part)),
                      f"{self.kind}: refinement is not exactly equitable")
        checks.expect(verdict.is_equitable, f"{self.kind}: verdict")


def graph_refine(seed: int, workdir: Path) -> list:
    rng = np.random.default_rng(seed)
    r, c = GRID
    return [
        GraphCase("path", gen.permuted_path(rng, PATH_N), cells=-(-PATH_N // 2)),
        GraphCase("grid", gen.permuted_grid(rng, r, c), cells=-(-r // 2) * -(-c // 2)),
        GraphCase("regular", gen.regular_graph(rng, REGULAR_N, REGULAR_DEGREE), cells=1),
        GraphCase("weighted-path", gen.permuted_path(rng, WPATH_N),
                  weights=gen.dyadic_weights(rng, WPATH_N)),
    ]


# ----------------------------------------------------------------- cli-files

def _rect_structure() -> dict:
    (m, q), (n, r) = RECT_LEFT, RECT_RIGHT
    return {"left": {"m_sizes": [m] * RECT_BLOCKS, "q_sizes": [q] * RECT_BLOCKS},
            "right": {"n_sizes": [n] * RECT_BLOCKS, "r_sizes": [r] * RECT_BLOCKS}}


class CliFiles:
    """The generated files of one cli-files set-up and their oracle data."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.dir = workdir
        self.grid = gen.permuted_grid(rng, *CLI_GRID)
        self.herm = gen.planted_symmetric(rng, CLI_N, CLI_CELL, DELTA, complex_=True)
        self.rect, Wm, Wp = gen.rect_inputs(rng, RECT_LEFT, RECT_RIGHT, RECT_BLOCKS)
        save_matrix_market(workdir / "grid.mtx", self.grid, fmt="coordinate")
        save_matrix_market(workdir / "herm.mtx", self.herm.A)
        save_matrix_market(workdir / "rect.mtx", self.rect)
        save_matrix_market(workdir / "wm.mtx", Wm)
        save_matrix_market(workdir / "wp.mtx", Wp)
        cells = [[v + 1 for v in c] for c in self.herm.cells.tolist()]
        (workdir / "part.json").write_text(json.dumps({"n": CLI_N, "cells": cells}))
        (workdir / "structure.json").write_text(json.dumps(_rect_structure()))
        self.shapes = {"grid.mtx": self.grid.shape, "herm.mtx": self.herm.A.shape,
                       "rect.mtx": self.rect.shape, "wm.mtx": Wm.shape, "wp.mtx": Wp.shape}


#: subcommand -> (arguments, expected exit code)
CLI_COMMANDS = {
    "refine": (["grid.mtx"], 0),
    "check": (["herm.mtx", "part.json", "--epsilon", "--regular", "--tol", repr(CLI_TOL)], 0),
    "transform": (["herm.mtx", "part.json", "--emit", "full,E,F,D", "--out-dir", "transform"], 0),
    "split": (["herm.mtx", "part.json"], 0),
    "rect": (["rect.mtx", "structure.json", "wm.mtx", "wp.mtx", "--out-dir", "rect"], 0),
}


class CliSession:
    """One session: every subcommand as its own `equitile` process."""

    kind = "session"
    replay = False

    def __init__(self, files: CliFiles):
        self.f = files
        self.n2 = sum(rows * cols for rows, cols in files.shapes.values())

    def run(self, tr, clock):
        out = {}
        for name, (args, _) in CLI_COMMANDS.items():
            with tr.span(f"cli.{name}"):
                out[name] = clock.run_cli([name, *args], cwd=self.f.dir, capture_output=True,
                                          text=True, timeout=CLI_TIMEOUT_S)
        return out

    def refs(self) -> dict:
        H = self.f.herm
        return {
            "eps": oracles.epsilon(H.A, H.cells),
            "regular": oracles.regular(H.A, H.cells),
            "fro": float(np.linalg.norm(H.A)),
            "trace": complex(np.trace(H.A)),
            "eigs": np.linalg.eigvalsh(H.A),
            "rect_smax": oracles.singular_values(self.f.rect)[0],
        }

    def check(self, out, ref, checks: Checks) -> None:
        import scipy.io

        reports = {}
        for name, (_, code) in CLI_COMMANDS.items():
            proc = out[name]
            checks.expect(proc.returncode == code,
                          f"cli {name}: exit {proc.returncode}, want {code}: {proc.stderr[-500:]}")
            try:
                reports[name] = json.loads(proc.stdout)
            except ValueError:
                reports[name] = None
            checks.expect(reports[name] is not None, f"cli {name}: stdout is not JSON")
        if any(r is None for r in reports.values()):
            return

        cells = reports["refine"]["cells"]
        r, c = CLI_GRID
        checks.expect(len(cells) == -(-r // 2) * -(-c // 2), f"cli refine: {len(cells)} cells")
        labels = np.empty(r * c, dtype=int)
        for i, cell in enumerate(cells):
            labels[np.asarray(cell) - 1] = i
        checks.expect(oracles.exactly_front_equitable(self.f.grid, labels),
                      "cli refine: not exactly equitable")

        rep = reports["check"]
        checks.expect(rep["is_equitable"], "cli check: verdict")
        checks.near(rep["epsilon"], ref["eps"], 1e-6 * ref["eps"], "cli check: epsilon")
        checks.expect(rep["regular"] == ref["regular"], "cli check: regular")

        A_hat = scipy.io.mmread(self.f.dir / "transform" / "A_hat.mtx")
        small = 1e-9 * ref["fro"]
        checks.near(np.linalg.norm(A_hat), ref["fro"], small, "cli transform: ||A_hat||_F")
        checks.near(np.trace(A_hat), ref["trace"], small, "cli transform: tr A_hat")

        rep = reports["split"]
        joint = [complex(*z) for z in rep["eigs_E"] + rep["eigs_F"]]
        checks.expect(rep["weyl_holds"], "cli split: weyl_holds")
        checks.near(oracles.sorted_gap(joint, ref["eigs"]), 0.0,
                    rep["tau_spec"] + 1e-10 * ref["fro"], "cli split: joint spectrum")

        gap = reports["rect"]["singular_values"]["max_gap"]
        checks.near(gap, 0.0, 1e-9 * ref["rect_smax"], "cli rect: singular values kept")


class CliReplay:
    """The library calls of one session, in process, so each gets a span."""

    kind = "replay"
    replay = True
    n2 = 0

    def __init__(self, files: CliFiles):
        self.f = files
        self.out = files.dir / "replay"

    def _load(self, tr, name):
        path = self.f.dir / name
        rows, cols = self.f.shapes[name]
        with tr.span("mmio.load", rows * cols):
            M = load_matrix_market(path).matrix
        tr.count("mmio.bytes_read", path.stat().st_size)
        return M

    def _save(self, tr, name, M):
        path = self.out / f"{name}.mtx"
        field = "complex" if np.iscomplexobj(M) else "real"
        with tr.span("mmio.save", M.size):
            save_matrix_market(path, M, fmt="array", field=field)
        tr.count("mmio.bytes_written", path.stat().st_size)

    def refs(self) -> None:
        """A replay is not checked."""
        return None

    def run(self, tr, clock):
        self.out.mkdir(exist_ok=True)
        with tr.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import equitile.cli"],
                           check=True, timeout=CLI_TIMEOUT_S)

        G = self._load(tr, "grid.mtx")
        with tr.span("partition.refine", G.size):
            part = eq.coarsest_front_equitable_refinement(G)
        tr.count("partition.refine_cells", part.k)

        spec = json.loads((self.f.dir / "part.json").read_text())
        with tr.span("partition.indicator"):
            part = eq.Partition.from_dict(spec)
            wi = eq.WeightedIndicator.unit(part)
        A = self._load(tr, "herm.mtx")
        with tr.span("partition.check_equitable", A.size):
            eq.check_equitable(A, wi, "front", CLI_TOL)
        with tr.span("partition.epsilon", A.size):
            eq.epsilon_equitability(A, part)
        with tr.span("partition.regular", A.size):
            eq.check_regular_equivalence(A, part)

        A = self._load(tr, "herm.mtx")
        with tr.span("triangularize.block_triangularize", A.size), tr.multiplies():
            tri = eq.block_triangularize(A, wi)
        with tr.span("triangularize.assembled"):
            A_hat = tri.assembled()
        for name, M in (("E", tri.E), ("F", tri.F), ("D_minus", tri.D_minus),
                        ("D_plus_conj", tri.D_plus_conj), ("A_hat", A_hat)):
            self._save(tr, name, M)
        with tr.span("triangularize.deviation", A.size):
            devs = eq.deviation_matrices(A, wi)
        with tr.span("triangularize.quotient", 3 * A.size):
            for a in (-1.0, 0.0, 1.0):
                eq.generalized_quotient(A, wi, a)
        with tr.span("analysis.deviation_report"):
            for T in devs:
                eq.deviation_report(T)
        with tr.span("triangularize.spectrum_split"):
            eq.spectrum_split(tri)

        A = self._load(tr, "herm.mtx")
        with tr.span("triangularize.block_triangularize", A.size), tr.multiplies():
            tri = eq.block_triangularize(A, wi)
        with tr.span("triangularize.spectrum_split"):
            eq.spectrum_split(tri)
        with tr.span("analysis.weyl_check"):
            eq.weyl_check(A, tri)

        R = self._load(tr, "rect.mtx")
        Wm, Wp = self._load(tr, "wm.mtx"), self._load(tr, "wp.mtx")
        s = _rect_structure()
        with tr.span("rectangular.split_block_diagonal"):
            wm_blocks = split_block_diagonal(Wm, s["left"]["m_sizes"], s["left"]["q_sizes"])
            wp_blocks = split_block_diagonal(Wp, s["right"]["n_sizes"], s["right"]["r_sizes"])
        with tr.span("rectangular.block_svd"):
            left, right = eq.block_svd(wm_blocks), eq.block_svd(wp_blocks)
        with tr.span("rectangular.rect_transform", R.size):
            res = eq.rect_transform(R, left, right)
        with tr.span("rectangular.deviation_rect", R.size):
            eq.deviation_rect(R, wm_blocks, wp_blocks)
        for name, M in (("rect_E", res.E), ("rect_D_minus", res.D_minus),
                        ("rect_D_plus_conj", res.D_plus_conj), ("rect_F", res.F)):
            self._save(tr, name, M)
        return None

    check = None


def cli_files(seed: int, workdir: Path) -> list:
    files = CliFiles(seed, workdir)
    return [CliSession(files), CliReplay(files)]


WORKLOADS = {"dense-fine": dense_fine, "graph-refine": graph_refine, "cli-files": cli_files}
