"""Matrix Market reader and writer for dense use.

Array and coordinate formats, real, complex and integer fields; files with a
symmetry are read too. Both formats share one entry table: a coordinate row
is (i, j, value), an array row a value at an implied column-major (i, j), and
a symmetric array body holds the lower triangle (skew: without the diagonal)
column by column. A body is parsed by one ``np.loadtxt`` and scattered in one
step, and written ``_BLOCK_ROWS`` table rows at a time. Complex values are
(re, im) pairs viewed as one number, and 17 significant digits make
load -> save -> load bit-identical. ``%`` starts a comment anywhere.

The writer's text is defined by the ``%`` templates of save_matrix_market
(``%.16e`` per float, ``%d`` per index and integer). For an array-format
real or complex file, _format_rows produces the same bytes with numpy
integer arithmetic: a float x with x = 0 or 10**-11 <= |x| < 10**16 is
rounded to 17 digits exactly from its IEEE significand times a power of
five, and a row holding anything else (NaN, an infinity, a magnitude
outside that range) is formatted by its template and spliced in.
Coordinate and integer-field files are formatted by their templates.
A file with a symmetry stores the lower triangle only: a coordinate entry
above the diagonal or on the diagonal of a skew-symmetric file is refused,
and so is, in either format, a nonzero imaginary part on the diagonal of a
hermitian file.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError

_FIELDS = {"real", "complex", "integer"}
_FORMATS = {"array", "coordinate"}
_SYMMETRIES = {"general", "symmetric", "hermitian", "skew-symmetric"}
_BLOCK_ROWS = 4096  # table rows formatted per write

_U64 = np.uint64


def _least_double_at_least_ten_to(e: int) -> float:
    d = 10.0 ** e if e >= 0 else 1 / 10 ** -e  # the nearest double
    num, den = d.as_integer_ratio()
    below = num * 10 ** max(-e, 0) < den * 10 ** max(e, 0)
    return math.nextafter(d, math.inf) if below else d


#: _TENS[e + 12] is the least double >= 10**e (e = -12..17), so that for a
#: double x, x >= 10**e exactly iff x >= _TENS[e + 12]
_TENS = np.array([_least_double_at_least_ten_to(e) for e in range(-12, 18)])
_POW5 = np.array([5 ** s for s in range(28)], dtype=_U64)
_PAIRS = np.array([b"%02d" % i for i in range(100)]).view(np.uint16)  # 2 ASCII digits
_QUADS = np.stack([np.repeat(_PAIRS, 100), np.tile(_PAIRS, 100)], axis=1).view(np.uint32)[:, 0]


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
    if fmt == "array" and symmetry == "general":
        M.T[...] = table["v"].reshape(n, m)
    else:
        if fmt == "coordinate":
            i, j = table["i"] - 1, table["j"] - 1
        else:  # the packed lower triangle, column by column
            j, i = np.triu_indices(n, int(skew))
        diag = i == j
        for bad, what in (
            ((i < 0) | (i >= m) | (j < 0) | (j >= n), f"outside 1..{m} x 1..{n}"),
            ((i < j) & (symmetry != "general"), f"above the diagonal of a {symmetry} file"),
            (diag & skew, "on the diagonal of a skew-symmetric file"),
            (diag & (symmetry == "hermitian") & (np.imag(table["v"]) != 0),
             "on the diagonal of a hermitian file has a nonzero imaginary part"),
        ):
            if bad.any():
                k = bad.argmax()
                raise InputError(f"entry ({i[k] + 1}, {j[k] + 1}) {what}")
        M[i, j] = table["v"]

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
    fast = not coordinate and field != "integer"  # float columns only
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} {field} general\n{size}\n")
        for a in range(0, len(values), _BLOCK_ROWS):
            block = [c[a:a + _BLOCK_ROWS] for c in table]
            if fast:
                fh.write(_format_rows(block, line))
            else:
                fh.write(line * len(block[0]) % tuple(np.column_stack(block).ravel().tolist()))


def _format_rows(values: list, line: str) -> str:
    """The text of ``line % row`` for every row of one block of float columns.

    values are the block's float64 value columns, one (real) or two
    (complex), and line their template. Each row is laid out in a uint8
    matrix with NUL where a sign is absent, and the NULs are dropped at the
    end. The rows that _put_float does not cover are formatted by ``line``
    and spliced in.
    """
    n = len(values[0])
    buf = np.empty((n, 24 * len(values)), dtype=np.uint8)
    ok = np.ones(n, dtype=bool)
    for k, x in enumerate(values):
        ok &= _put_float(buf[:, 24 * k:24 * k + 23], x)
        buf[:, 24 * k + 23] = ord(" ")
    buf[:, -1] = ord("\n")
    spliced = np.flatnonzero(~ok)
    buf[spliced] = 0
    text = buf.tobytes().translate(None, b"\0").decode("ascii")
    if not spliced.size:
        return text
    ends = np.cumsum(np.count_nonzero(buf, axis=1)).tolist()
    pieces, start = [], 0
    for r in spliced.tolist():
        pieces += [text[start:ends[r]], line % tuple(x[r].item() for x in values)]
        start = ends[r]
    pieces.append(text[start:])
    return "".join(pieces)


def _put_float(out, x) -> np.ndarray:
    """Write ``"%.16e" % v`` for each v of x into its row of out; return where.

    out is an (n, 23) uint8 view, its first column the sign (NUL for none).
    Only v = 0 and 10**-11 <= |v| < 10**16 are written (where the result is
    True); the rest of out is left undefined. The decimal exponent e comes
    from log10 and is corrected by exact comparisons with powers of ten, so
    1e-7, whose double lies below 10**-7, keeps exponent -8.
    """
    ax = np.abs(x)
    zero = ax == 0
    ok = zero | ((ax >= _TENS[1]) & (ax < _TENS[-2]))  # NaN compares False
    ax[zero | ~ok] = 1.0  # in range and finite from here on
    e = np.floor(np.log10(ax)).astype(np.int64)
    e += ax >= _TENS.take(e + 13)
    e -= ax < _TENS.take(e + 12)
    digits = _significant_digits(ax.view(_U64), e)
    digits[zero] = 0
    e[zero] = 0

    lead, r = np.divmod(digits, _U64(10 ** 16))
    h, t = np.divmod(r, _U64(10 ** 8))
    quads = np.empty((len(x), 4), dtype=np.uint32)
    quads[:, 0], quads[:, 1] = np.divmod(h.astype(np.uint32), np.uint32(10000))
    quads[:, 2], quads[:, 3] = np.divmod(t.astype(np.uint32), np.uint32(10000))
    out[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    out[:, 1] = lead + _U64(ord("0"))
    out[:, 2] = ord(".")
    out[:, 3:19].view("V16")[:, 0] = _QUADS.take(quads).view("V16")[:, 0]  # one copy a row
    out[:, 19] = ord("e")
    out[:, 20] = np.where(e < 0, ord("-"), ord("+"))
    out[:, 21:23] = _PAIRS.take(np.abs(e)).view(np.uint8).reshape(-1, 2)
    return ok


def _significant_digits(bits, e):
    """The 17 digits of each positive normal double as an integer below 10**17.

    bits are the doubles' IEEE bits and e their decimal exponents (-11..15).
    For |v| = m 2**q (m the 53-bit significand) the digits are
    m 5**s 2**(q+s), s = 16 - e, rounded half to even on the exact value, as
    Python's ``%.16e`` rounds: m 5**s (s <= 27) is a 128-bit product, shifted
    right once with its remainder kept (left by up to 2 for |v| >= 2**53).
    No double in the range rounds up to 10**17 (which would move e up by
    one): the largest double below each power of ten lies at least 2e-17
    below it, relatively, and rounding up would need 5e-18.
    """
    shift = e + 1059 - (bits >> _U64(52)).astype(np.int64)  # -(q + s)
    hi, lo = _product_128(bits & _U64((1 << 52) - 1) | _U64(1 << 52), _POW5.take(16 - e))
    right = np.maximum(shift, 0).astype(_U64)  # <= 63 over the range
    digits = (hi << _U64(1) << (_U64(63) - right)) | (lo >> right)
    rest = lo & ((_U64(1) << right) - _U64(1))
    half = (_U64(1) << right) >> _U64(1)
    odd = (digits & _U64(1)).astype(bool)
    digits += (rest > half) | (rest == half) & (half > 0) & odd
    return digits << np.maximum(-shift, 0).astype(_U64)


def _product_128(a, b):
    """(hi, lo) with a b = hi 2**64 + lo, for uint64 a < 2**53 and b < 2**63.

    The product is formed from 32-bit limbs; uint64 arithmetic wraps, and
    the low half's carry is taken from that wrap.
    """
    low32 = _U64(0xFFFFFFFF)
    a0, a1, b0, b1 = a & low32, a >> _U64(32), b & low32, b >> _U64(32)
    ll = a0 * b0
    mid = a1 * b0 + a0 * b1  # below 2**53 + 2**63: no wrap
    lo = ll + (mid << _U64(32))
    return a1 * b1 + (mid >> _U64(32)) + (lo < ll), lo


def load_dense(path) -> np.ndarray:
    """Convenience: load and return just the payload."""
    return load_matrix_market(path).matrix
