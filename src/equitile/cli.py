"""File-based front end: refine, check, transform, split, rect.

Matrices travel as Matrix Market files, partitions and weights as JSON,
reports as JSON on stdout. Exit codes: 0 success, 2 input/parse error,
3 semantic negative (not equitable, rank deficient), 4 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import deviation_report, weyl_check
from .errors import (
    AdmissibilityError,
    EquitileError,
    InputError,
    NumericalError,
    RankDeficiencyError,
)

from . import partition
from .mmio import _write_blocks, load_matrix_market, save_matrix_market
from .partition import (
    Partition,
    WeightedIndicator,
    _Sums,
    _index,
    coarsest_front_equitable_refinement,
    weighted_refinement,
)
from .rectangular import _deviations, block_svd, rect_transform, split_block_diagonal
from .triangularize import (
    DeviationMatrix,
    _singular_values,
    block_triangularize,
    recover_eigenvector,
    spectrum_split,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NEGATIVE = 3
EXIT_NUMERICAL = 4

DEFAULT_TOL = 1e-10


def _tolerance(text: str) -> float:
    """--tol by the library's rule (partition._tolerance), as an argparse error."""
    try:
        return partition._tolerance(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _digest(path) -> str:
    # in 1 MiB chunks: reading a whole input at report time would add its
    # size to the peak memory of the run
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc


def _read_partition(path, n: int) -> Partition:
    p = Partition.from_dict(_load_json(path))
    if p.n != n:
        raise InputError(f"partition size {p.n} does not match matrix size {n}")
    return p


def _read_matrix(path) -> np.ndarray:
    A = load_matrix_market(path).matrix
    if not np.all(np.isfinite(A)):
        raise InputError(f"{path}: matrix entries must be finite")
    return A


def _is_number(x) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _read_vector(path, length: int, what: str) -> np.ndarray:
    """A JSON array of `length` finite numbers or [re, im] pairs (weights, phases)."""
    data = _load_json(path)
    if not isinstance(data, list) or len(data) != length:
        raise InputError(f"{path}: {what} must be a JSON array of length {length}")
    vals = []
    for item in data:
        pair = isinstance(item, list) and len(item) == 2 and all(map(_is_number, item))
        if not (_is_number(item) or pair):
            raise InputError(f"{path}: entries must be numbers or [re, im] pairs of numbers")
        try:
            vals.append(complex(*item) if pair else complex(item))
        except OverflowError as exc:
            raise InputError(f"{path}: entries must be finite") from exc
    arr = np.array(vals)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path}: entries must be finite")
    if np.all(arr.imag == 0):
        return arr.real
    return arr


def _pairs(z) -> list:
    """The JSON form of a real or complex array: [re, im] pairs in its shape."""
    z = np.asarray(z)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def _target(out_dir, name: str) -> str:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return str(out_dir / f"{name}.mtx")


def _emit_blocks(out_dir, result, names) -> dict:
    """Write the named windows of result (see _BlockForm.windows) in one
    pass; name -> path, in order."""
    windows = result.windows
    files = {name: _target(out_dir, name) for name in names}
    field = "complex" if np.iscomplexobj(result.A_hat) else "real"
    _write_blocks(result.A_hat, {files[name]: windows[name] for name in names}, field)
    return files


def _write(stream, text: str) -> None:
    """Write text to stream's descriptor by os.write, resuming after a short write (a signal
    in a write to a full pipe), which a text layer drops; else by the stream's own write."""
    stream.flush()
    try:
        fd = stream.fileno()
    except (AttributeError, io.UnsupportedOperation):
        stream.write(text)
        return
    data = memoryview(text.encode(errors="backslashreplace"))
    while data:
        data = data[os.write(fd, data):]


def _print_report(report: dict, indent: int | None = 2) -> None:
    """Write report to stdout as strict JSON; a NaN or infinity is a numerical failure."""
    try:
        text = json.dumps(report, indent=indent, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite number: {exc}") from exc
    _write(sys.stdout, text)


def _load_inputs(args):
    """Matrix, weighted indicator and phases of check, transform and split.

    Weights default to ones, and phases ("auto" or a file) to None, the
    library's default phases. Non-finite matrix entries, weights or phases
    are an input error.
    """
    A = _read_matrix(args.matrix)
    n = A.shape[0]
    part = _read_partition(args.partition, n)
    w = _read_vector(args.weights, n, "weights") if args.weights else np.ones(n)
    phases = getattr(args, "phases", "auto")
    phases = None if phases == "auto" else _read_vector(phases, part.k, "phases")
    return A, WeightedIndicator(part, w), phases


def cmd_refine(args) -> int:
    A = _read_matrix(args.matrix)
    initial = _read_partition(args.initial, A.shape[0]) if args.initial else None
    if args.weights:
        w = _read_vector(args.weights, A.shape[0], "weights")
        part = weighted_refinement(A, w, initial, color_tol=args.color_tol)
    else:
        part = coarsest_front_equitable_refinement(A, initial, color_tol=args.color_tol)
    _print_report(part.to_dict(), indent=None)
    return EXIT_OK


def cmd_check(args) -> int:
    A, wi, _ = _load_inputs(args)
    sums = _Sums(A, wi, keep=True)  # one front pass serves all three with unit weights
    verdict = sums.verdict(args.side, args.tol)
    report = {
        "side": verdict.side,
        "is_equitable": verdict.is_equitable,
        "max_residual": verdict.max_residual,
        "tol": verdict.tol,
        "epsilon": sums.epsilon() if args.epsilon else None,
        "regular": sums.regular() if args.regular else None,
    }
    _print_report(report)
    return EXIT_OK if verdict.is_equitable else EXIT_NEGATIVE


def cmd_transform(args) -> int:
    t0 = time.perf_counter()
    wanted = {piece.strip() for piece in args.emit.split(",") if piece.strip()}
    unknown = wanted - {"E", "F", "D", "full", "eigvecs"}
    if unknown:
        raise InputError(f"unknown --emit values: {sorted(unknown)}")
    A, wi, phases = _load_inputs(args)
    part = wi.partition
    result = block_triangularize(A, wi, phases=phases)

    groups = {"E": ["E"], "F": ["F"], "D": ["D_minus", "D_plus_conj"], "full": ["A_hat"]}
    files = _emit_blocks(args.out_dir, result,
                         [name for flag, group in groups.items() if flag in wanted for name in group])
    if "eigvecs" in wanted:
        (_, vecs_E), (_, vecs_F) = result.eigenpairs
        k = result.k
        Z = np.zeros((result.n, result.n), dtype=complex)
        Z[:k, :k] = vecs_E
        Z[k:, k:] = vecs_F
        files["eigvecs"] = _target(args.out_dir, "eigvecs")
        save_matrix_market(files["eigvecs"], recover_eigenvector(result, Z))

    sums = _Sums(A, wi, keep=True)  # one front and one rear pass, released by deviations
    quotients = {name: _pairs(sums.quotient(alpha))
                 for name, alpha in (("front", -1.0), ("rayleigh", 0.0), ("rear", 1.0))}
    front, rear = (DeviationMatrix(side, T, part) for side, T in sums.deviations())
    split = spectrum_split(result, tol=args.tol)
    report = {
        "command": "transform",
        "argv": _echo_args(args),
        "inputs": _input_digests(args),
        "partition": part.to_dict(),
        "quotients": quotients,
        "deviation": {
            "front": deviation_report(front).to_dict(),
            "rear": deviation_report(rear).to_dict(),
        },
        "spectrum": {
            "eigs_E": _pairs(split.eigs_E),
            "eigs_F": _pairs(split.eigs_F),
            "exact": split.exact,
        },
        "files": files,
        "timing_s": time.perf_counter() - t0,
    }
    _print_report(report)
    return EXIT_OK


def cmd_split(args) -> int:
    A, wi, _ = _load_inputs(args)
    result = block_triangularize(A, wi)
    split = spectrum_split(result, tol=args.tol)
    try:
        weyl_holds = weyl_check(A, result).holds
    except InputError:  # A is not Hermitian, which the bound requires
        weyl_holds = None
    report = {
        "eigs_E": _pairs(split.eigs_E),
        "eigs_F": _pairs(split.eigs_F),
        "tau_spec": result.tau_spec,
        "weyl_holds": weyl_holds,
        "exact": split.exact,
    }
    _print_report(report)
    return EXIT_OK


def cmd_rect(args) -> int:
    t0 = time.perf_counter()
    A = _read_matrix(args.matrix)
    structure = _load_json(args.structure)
    try:
        m_sizes = [_index(x) for x in structure["left"]["m_sizes"]]
        q_sizes = [_index(x) for x in structure["left"]["q_sizes"]]
        n_sizes = [_index(x) for x in structure["right"]["n_sizes"]]
        r_sizes = [_index(x) for x in structure["right"]["r_sizes"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{args.structure}: bad structure object: {exc}") from exc
    Wm = _read_matrix(args.wminus)
    Wp = _read_matrix(args.wplus)
    wm_blocks = split_block_diagonal(Wm, m_sizes, q_sizes)
    wp_blocks = split_block_diagonal(Wp, n_sizes, r_sizes)
    if A.shape != (sum(m_sizes), sum(n_sizes)):
        raise InputError(
            f"matrix shape {A.shape} does not match structure "
            f"({sum(m_sizes)}, {sum(n_sizes)})"
        )

    left, right = block_svd(wm_blocks), block_svd(wp_blocks)  # each side factored once
    result = rect_transform(A, left, right)
    T_minus, T_plus = _deviations(A, left, right)

    files = _emit_blocks(args.out_dir, result, ["E", "D_minus", "D_plus_conj", "F"])

    sv_A = _singular_values(A)
    sv_Ah = _singular_values(result.A_hat)
    report = {
        "command": "rect",
        "argv": _echo_args(args),
        "inputs": _input_digests(args),
        "singular_values": {
            "A": sv_A.tolist(),
            "A_hat": sv_Ah.tolist(),
            "max_gap": float(np.abs(sv_A - sv_Ah).max(initial=0.0)),
            "D_minus": _singular_values(result.D_minus).tolist(),
            "T_minus": _singular_values(T_minus)[: min(result.D_minus.shape)].tolist(),
            "D_plus": _singular_values(result.D_plus_conj).tolist(),
            "T_plus": _singular_values(T_plus)[: min(result.D_plus_conj.shape)].tolist(),
        },
        "files": files,
        "timing_s": time.perf_counter() - t0,
    }
    _print_report(report)
    return EXIT_OK


def _echo_args(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _input_digests(args) -> dict:
    out = {}
    for name in ("matrix", "partition", "initial", "weights", "phases",
                 "structure", "wminus", "wplus"):
        value = getattr(args, name, None)
        if value and value != "auto":
            out[name] = _digest(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equitile",
        description="Detect and exploit (approximately) equitable partitions "
        "of complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="coarsest front equitable refinement")
    p.add_argument("matrix")
    p.add_argument("--initial", help="starting partition JSON")
    p.add_argument("--weights", help="weight vector JSON (entrywise nonzero)")
    p.add_argument("--color-tol", type=float, default=0.0,
                   help="color tolerance: within a cell, members sorted "
                   "lexicographically by row-sum signature stay grouped while "
                   "consecutive signatures differ by at most this in every "
                   "component (single linkage); 0 groups equal signatures")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("check", help="equitability verdict for a partition")
    p.add_argument("matrix")
    p.add_argument("partition")
    p.add_argument("--weights")
    p.add_argument("--side", choices=["front", "rear"], default="front")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--epsilon", action="store_true",
                   help="also report the smallest eps-equitability bound")
    p.add_argument("--regular", action="store_true",
                   help="also report the regular-equivalence flag")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transform", help="block triangularize and emit blocks")
    p.add_argument("matrix")
    p.add_argument("partition")
    p.add_argument("--weights")
    p.add_argument("--phases", default="auto", help="'auto' or a JSON phases file")
    p.add_argument("--emit", default="full",
                   help="comma list from E,F,D,full,eigvecs")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("split", help="spectrum split with deviation bound")
    p.add_argument("matrix")
    p.add_argument("partition")
    p.add_argument("--weights")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("rect", help="rectangular two-sided transform")
    p.add_argument("matrix")
    p.add_argument("structure", help="block structure JSON")
    p.add_argument("wminus", help="left block diagonal side matrix")
    p.add_argument("wplus", help="right block diagonal side matrix")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_rect)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (EquitileError, np.linalg.LinAlgError) as exc:
        _write(sys.stderr, f"error: {exc}\n")
        if isinstance(exc, (RankDeficiencyError, AdmissibilityError)):
            return EXIT_NEGATIVE
        if isinstance(exc, (NumericalError, np.linalg.LinAlgError)):
            return EXIT_NUMERICAL
        return EXIT_INPUT


def entry() -> None:
    # glibc raises its mmap threshold after large frees, so a command's peak RSS moved by one
    # N-by-N array with heap history: fix M_MMAP_THRESHOLD (-3) at its default 128 KiB
    with contextlib.suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).mallopt(-3, 128 * 1024)
    sys.exit(main())


if __name__ == "__main__":
    entry()
