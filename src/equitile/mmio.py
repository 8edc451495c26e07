"""Matrix Market reader and writer for dense use.

Array and coordinate formats, real, complex and integer fields; files with a
symmetry are read too. Both formats share one entry table: a coordinate row
is (i, j, value), an array row a value at an implied column-major (i, j), and
a symmetric array body holds the lower triangle (skew: without the diagonal)
column by column. A body is parsed by one ``np.loadtxt`` and scattered in one
step, and written with one %-format per ``_BLOCK_ROWS`` table rows. Complex
values are (re, im) pairs viewed as one number, and 17 significant digits
make load -> save -> load bit-identical. ``%`` starts a comment anywhere.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError

_FIELDS = {"real", "complex", "integer"}
_FORMATS = {"array", "coordinate"}
_SYMMETRIES = {"general", "symmetric", "hermitian", "skew-symmetric"}
_BLOCK_ROWS = 4096  # table rows formatted per write


@dataclass(frozen=True, eq=False)
class MatrixFile:
    format: str
    field: str
    matrix: np.ndarray


def _tokens(line: str) -> list[str]:
    return line.split("%", 1)[0].split()


def load_matrix_market(path) -> MatrixFile:
    path = Path(path)
    try:
        with open(path) as fh:
            return _read(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # an InputError, or text that is not Unicode
        raise InputError(f"{path}: {exc}") from None


def _read(fh) -> MatrixFile:
    first = fh.readline().rstrip("\n")
    if not first.startswith("%%MatrixMarket"):
        raise InputError("missing MatrixMarket header")
    header = first.split()
    if len(header) != 5 or header[1] != "matrix":
        raise InputError(f"malformed header {first!r}")
    fmt, field, symmetry = header[2:]
    for name, got, known in (("format", fmt, _FORMATS), ("field", field, _FIELDS),
                             ("symmetry", symmetry, _SYMMETRIES)):
        if got not in known:
            raise InputError(f"unsupported {name} {got!r}")

    line = fh.readline()
    while line and not _tokens(line):
        line = fh.readline()
    sizes = _tokens(line)
    if not sizes:
        raise InputError("missing size line")
    if len(sizes) != 2 + (fmt == "coordinate"):
        raise InputError(f"{fmt} size line needs {2 + (fmt == 'coordinate')} integers")
    try:
        m, n, *nnz = dims = [int(s) for s in sizes]
    except ValueError:
        dims = [-1]
    if min(dims) < 0:
        raise InputError(f"sizes must be non-negative integers, got {line.strip()!r}")
    if symmetry != "general" and m != n:
        raise InputError(f"{symmetry} requires a square matrix")
    skew = symmetry == "skew-symmetric"  # packed: n(n+1)/2 values, skew n(n-1)/2
    rows = nnz[0] if nnz else m * n if symmetry == "general" else n * (n + 1 - 2 * skew) // 2

    index = [("i", "i8"), ("j", "i8")] if fmt == "coordinate" else []
    dtype = index + [("v", "f8", (2,)) if field == "complex" else ("v", "f8")]
    converters = {len(index): lambda s: float(int(s))} if field == "integer" else None
    start = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            table = np.loadtxt(fh, dtype, comments="%", ndmin=1, converters=converters)
    except ValueError as exc:  # read the body again to name the offending line
        fh.seek(start)
        table = [ln.rstrip("\n") for ln in fh if _tokens(ln)]
        bad = [ln for ln in table if len(_tokens(ln)) != len(index) + 1 + (field == "complex")]
        if len(table) == rows:
            raise InputError(f"bad entry line {bad[0]!r}" if bad else f"parse error: {exc}")
    if len(table) != rows:  # entry lines of the body, parsed or not
        raise InputError(f"expected {rows} entries, found {len(table)}")
    if field == "complex":
        table = table.view(index + [("v", "c16")])

    M = np.zeros((m, n), dtype=complex if field == "complex" else float)
    if fmt == "coordinate":
        i, j = table["i"] - 1, table["j"] - 1
        bad = (i < 0) | (i >= m) | (j < 0) | (j >= n)
        if bad.any():
            k = bad.argmax()
            raise InputError(f"entry ({i[k] + 1}, {j[k] + 1}) outside 1..{m} x 1..{n}")
        M[i, j] = table["v"]
    elif symmetry == "general":
        M.T[...] = table["v"].reshape(n, m)
    else:
        M.T[np.triu_indices(n, int(skew))] = table["v"]

    if symmetry != "general":
        lower = np.tril(M, -1)
        M = M + {"symmetric": lower.T, "hermitian": lower.conj().T,
                 "skew-symmetric": -lower.T}[symmetry]
    return MatrixFile(format=fmt, field=field, matrix=M)


def save_matrix_market(path, M, fmt: str = "array", field: str | None = None) -> None:
    M = np.asarray(M)
    if M.ndim != 2:
        raise InputError(f"2-d matrix required, got shape {M.shape}")
    if fmt not in _FORMATS:
        raise InputError(f"unsupported format {fmt!r}")
    if field is None:
        field = "complex" if np.iscomplexobj(M) else "integer" if M.dtype.kind in "iu" else "real"
    if field not in _FIELDS:
        raise InputError(f"unsupported field {field!r}")
    coordinate = fmt == "coordinate"
    table = list(np.nonzero(M)) if coordinate else []
    values = M[tuple(table)] if coordinate else M.T.ravel()
    for t in table:
        t += 1  # 1-based indices, after the gather
    re = np.asarray(values.real, dtype=np.float64)
    if field == "integer" and not np.isfinite(re).all():
        raise InputError("integer field requires finite values")
    table.append(np.rint(re) if field == "integer" else re)
    if field == "complex":
        table.append(np.asarray(values.imag, dtype=np.float64))
    spec = {"complex": "%.16e %.16e", "integer": "%d", "real": "%.16e"}[field]
    line = "%d %d " * coordinate + spec + "\n"
    size = f"{M.shape[0]} {M.shape[1]}" + f" {len(values)}" * coordinate
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} {field} general\n{size}\n")
        for a in range(0, len(values), _BLOCK_ROWS):
            block = np.column_stack([c[a:a + _BLOCK_ROWS] for c in table])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def load_dense(path) -> np.ndarray:
    """Convenience: load and return just the payload."""
    return load_matrix_market(path).matrix
