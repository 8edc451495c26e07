"""Matrix Market reader and writer for dense use.

Array and coordinate formats, real, complex and integer fields; files with a
symmetry are read too. Both formats share one entry table: a coordinate row
is (i, j, value), an array row a value at an implied column-major (i, j), and
a symmetric array body holds the lower triangle (skew: without the diagonal)
column by column. Complex values are (re, im) pairs viewed as one number, 17
significant digits make load -> save -> load bit-identical, and ``%`` starts
a comment anywhere. A file with a symmetry stores the lower triangle only: a
coordinate entry above the diagonal or on the diagonal of a skew-symmetric
file is refused, and so is, in either format, a nonzero imaginary part on
the diagonal of a hermitian file.

The writer's text is ``%.16e`` per float and ``%d`` per index and integer,
about _BLOCK_ROWS table rows at a time, written as bytes to files opened in
binary mode; in array real and complex files _put_float writes x = 0 and
10**-11 <= |x| < 10**16 exactly with numpy integer arithmetic, and other
rows are formatted by their template and spliced in. Those files are
windows (a row range by a column range) of one matrix, written by
_write_blocks in one pass that formats each value some window holds once;
a saved matrix is its own one window. A body is read by one ``np.loadtxt``
and scattered in one step, but an array general real or complex body whose
every line is the writer's with two-digit exponents is parsed by
_parse_block, in about 110-170 ns a value against loadtxt's 320-600.
Eisel-Lemire rounds each value correctly from a truncated 128-bit product
unless it flags the value ambiguous, and float() parses those: every value
is loadtxt's bit for bit, as both round correctly. A body with any other
byte goes to loadtxt whole.
"""
from __future__ import annotations

import math
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError

_FIELDS = {"real", "complex", "integer"}
_FORMATS = {"array", "coordinate"}
_SYMMETRIES = {"general", "symmetric", "hermitian", "skew-symmetric"}
_BLOCK_ROWS = 4096  # table rows a write; the array writer rounds up to whole columns
_BODY_BYTES = 1 << 17  # body bytes a block of _read_array, whose temporaries take ~9x that

_U64, _U8 = np.uint64, np.uint8


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


def _pow5_128(q: int) -> int:
    """5**q to 128 bits, top bit set, as in Lemire's table: truncated for
    q >= 0, else 2**b // 5**-q + 1, truncated when 5**-q > 2**64."""
    p, z = 5 ** abs(q), (5 ** abs(q) - 1).bit_length()
    c = p << 256 if q >= 0 else (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
    return c >> (c.bit_length() - 128)


#: a writer's token is D 10**q, q = -115..83: row q - _Q0 holds the (hi, lo)
#: words of _pow5_128(q), _POWER2 Lemire's power(q) + 1022
_Q0 = -115
_POW5_128 = np.array([divmod(_pow5_128(q), 1 << 64) for q in range(_Q0, 84)], dtype=_U64)
_POWER2 = ((np.arange(_Q0, 84) * 217706 >> 16) + 1085).astype(_U64)
_DIGIT_COLUMNS = np.r_[6, 8:24, 26, 27]  # of a token's window row in _parse_block


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
    start = fh.tell()  # a byte offset when the text decoder holds no state
    fast = fmt == "array" and symmetry == "general" and field != "integer" and start < 1 << 64
    table = _read_array(fh, start, rows, dtype) if fast else None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body
            if table is None:
                fh.seek(start)
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


def _read_array(fh, start: int, rows: int, dtype):
    """The table of the array general body at byte start of text file fh, or None
    unless _parse_block takes every line; read in binary after fh.seek(start)."""
    raw, k = fh.buffer, np.dtype(dtype).itemsize // 8
    if raw.seek(0, 2) - start < 23 * k * rows:  # too short for rows lines of k tokens
        return None
    fh.seek(start)  # drops the text layer's read-ahead
    table = np.empty(rows, dtype)
    flat = table.view(np.float64)
    buf = np.full(_BODY_BYTES + 32, ord("\n"), dtype=np.uint8)
    done = kept = 0
    while True:  # a block of whole lines from buf[24], 24 bytes before it and 8 after
        end = 24 + kept + raw.readinto(memoryview(buf)[24 + kept:-8])
        cut = buf[24:end].tobytes().rfind(b"\n") + 1
        x = _parse_block(buf[:cut + 32], k) if cut else None
        if x is None or done + x.size > flat.size:
            return table if end == 24 and done == flat.size else None
        flat[done:done + x.size] = x
        done += x.size
        kept = end - 24 - cut
        buf[24:24 + kept] = buf[24 + cut:end]


def _parse_block(b, k: int):
    """The doubles of the lines in b[24:-8], or None unless each is k tokens
    ``[-]d.dddddddddddddddde[+-]dd`` joined by a space; b[23] is a newline.

    A token is read from a sliding window's row from 24 bytes before its 'e';
    tokens and separators must tile the lines. D 10**q is rounded from D,
    normalized, times _pow5_128(q) (and a second product where a carry could
    reach the 55 bits kept); a tie or an all-ones low word goes to float().
    """
    p = np.flatnonzero(b[24:-8] == ord("e"))
    if not p.size or p.size % k:
        return None
    tok = np.ndarray((b.size - 31, 32), np.uint8, b, strides=(1, 1))[p]  # sliding window rows
    neg = tok[:, 5] == ord("-")
    start = p - 18 - neg
    sep = tok[:, 28].reshape(-1, k)
    if (start[0] != 0 or p[-1] + 37 != b.size or (start[1:] != p[:-1] + 5).any()
            or (sep[:, -1] != ord("\n")).any() or (sep[:, :-1] != ord(" ")).any()
            or (tok.T[_DIGIT_COLUMNS] - _U8(ord("0")) > 9).any()
            or (tok[:, 7] != ord(".")).any() or (tok[:, 25] - _U8(ord("+")) | _U8(2) != 2).any()):
        return None
    # 16 digits as two words of 8, first digit lowest: Lemire's SWAR conversion
    v = tok.view(_U64).T[1:3] - _U64(0x3030303030303030)
    v = v * _U64(10) + (v >> _U64(8))
    v = (v & _U64(0xFF000000FF)) * _U64(100 + (1000000 << 32)) \
        + (v >> _U64(16) & _U64(0xFF000000FF)) * _U64(1 + (10000 << 32)) >> _U64(32)
    digits = (tok[:, 6] - _U64(ord("0"))) * _U64(10 ** 16) + v[0] * _U64(10 ** 8) + v[1]
    e = tok[:, 26].astype(np.intp) * 10 + tok[:, 27] - 11 * ord("0")
    q = np.where(tok[:, 25] == ord("-"), -e, e) - 16 - _Q0
    lz = (64 - np.frexp(digits.astype(np.float64))[1]).astype(_U64)
    lz += (digits << lz) >> _U64(63) ^ _U64(1)  # the float may round up to a power of two
    w = digits << lz
    hi, lo = _product_128(w, _POW5_128[q, 0])
    redo = np.flatnonzero(hi & _U64(0x1FF) == _U64(0x1FF))
    if redo.size:
        lo2 = lo[redo] + _product_128(w[redo], _POW5_128[q[redo], 1])[0]
        hi[redo] += lo2 < lo[redo]
        lo[redo] = lo2
        redo = redo[lo2 == ~_U64(0)]
    up = hi >> _U64(63)
    mant = hi >> (shift := up + _U64(9))
    tie = (lo <= _U64(1)) & (mant & _U64(3) == _U64(1)) & (mant << shift == hi)
    bits = (_POWER2[q] + up - lz << _U64(52)) + (mant + (mant & _U64(1)) >> _U64(1))
    bits[digits == 0] = 0  # a zero's w, hi and lo are 0 whatever its lz
    x = (bits | neg.astype(_U64) << _U64(63)).view(np.float64)
    for r in redo.tolist() + np.flatnonzero(tie).tolist():
        x[r] = float(b[24 + start[r]:28 + p[r]].tobytes())
    return x


_SPECS = {"complex": "%.16e %.16e", "integer": "%d", "real": "%.16e"}


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
    if fmt == "array" and field != "integer":  # M as its own one window
        _write_blocks(M, {path: (range(M.shape[0]), range(M.shape[1]))}, field)
        return
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
    line = "%d %d " * coordinate + _SPECS[field] + "\n"
    with open(path, "wb") as fh:
        fh.write(_header(fmt, field, M.shape + (len(values),) * coordinate))
        for a in range(0, len(values), _BLOCK_ROWS):
            block = np.column_stack([c[a:a + _BLOCK_ROWS] for c in table])
            fh.write((line * len(block) % tuple(block.ravel().tolist())).encode("ascii"))


def _header(fmt: str, field: str, sizes: tuple) -> bytes:
    return f"%%MatrixMarket matrix {fmt} {field} general\n{' '.join(map(str, sizes))}\n".encode()


def _write_blocks(M, files: dict, field: str) -> None:
    """Write windows of the 2-d array M as array files, in one pass.

    files maps each path to its window (rows, cols), two ranges of M's
    indices; field is "real" or "complex". M's columns are walked in order,
    in bands over which the same files are open; in a band, the rows from
    the first any of them holds to the last one any holds are taken in
    column-major order, _BLOCK_ROWS at a time (whole columns, or one
    column cut in pieces), copied from M and formatted once. Each file
    takes its rows' bytes as runs cut at line offsets, one a column, or
    the whole chunk when its window holds every row of it.
    """
    line = _SPECS[field] + "\n"
    with ExitStack() as stack:
        targets = []
        for path, (rows, cols) in files.items():
            fh = stack.enter_context(open(path, "wb"))
            fh.write(_header("array", field, (len(rows), len(cols))))
            if len(rows) and len(cols):
                targets.append((fh, rows, cols))
        cuts = sorted({c for _, _, cols in targets for c in (cols.start, cols.stop)})
        for c0, c1 in zip(cuts, cuts[1:]):
            band = [(fh, rows) for fh, rows, cols in targets if cols.start <= c0 and c1 <= cols.stop]
            if not band:
                continue
            r0, r1 = min(rows.start for _, rows in band), max(rows.stop for _, rows in band)
            cut = any(rows != range(r0, r1) for _, rows in band)  # a file takes part of a column
            step = -(-_BLOCK_ROWS // (r1 - r0))  # columns a chunk, at least _BLOCK_ROWS rows
            for j0 in range(c0, c1, step):
                j1 = min(j0 + step, c1)
                for i0 in range(r0, r1, _BLOCK_ROWS):
                    i1 = min(i0 + _BLOCK_ROWS, r1)
                    x = M[i0:i1, j0:j1].T.ravel()
                    values = [np.asarray(x.real, dtype=np.float64)]
                    if field == "complex":
                        values.append(np.asarray(x.imag, dtype=np.float64))
                    text, offsets = _format_rows(values, line, cut)
                    for fh, rows in band:
                        a, b = max(rows.start, i0) - i0, min(rows.stop, i1) - i0
                        if (a, b) == (0, i1 - i0):
                            fh.write(text)
                        elif a < b:
                            view, column = memoryview(text), np.arange(0, x.size, i1 - i0)
                            for start, end in zip(offsets[column + a].tolist(),
                                                  offsets[column + b].tolist()):
                                fh.write(view[start:end])


def _format_rows(values: list, line: str, cut: bool) -> tuple[bytes, np.ndarray | None]:
    """The bytes of ``line % row`` for every row of one block of float
    columns and, if cut, the n + 1 offsets where the rows' lines start and end.

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
    text = buf.tobytes().translate(None, b"\0")
    if not (cut or spliced.size):
        return text, None
    width = np.full(n, buf.shape[1])
    for k in range(len(values)):
        width -= buf[:, 24 * k] == 0  # no sign
    width[spliced] = 0
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(width, out=offsets[1:])
    if not spliced.size:
        return text, offsets
    pieces, start = [], 0
    for r in spliced.tolist():
        row = (line % tuple(x[r].item() for x in values)).encode("ascii")
        pieces += [text[start:offsets[r]], row]
        start = offsets[r]
        width[r] = len(row)
    pieces.append(text[start:])
    np.cumsum(width, out=offsets[1:])
    return b"".join(pieces), offsets


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
    """(hi, lo) with a b = hi 2**64 + lo, for uint64 a and b: lo wraps, and
    hi comes from 32-bit limbs, whose partial sums stay below 2**64."""
    low32 = _U64(0xFFFFFFFF)
    a0, a1, b0, b1 = a & low32, a >> _U64(32), b & low32, b >> _U64(32)
    mid = a1 * b0 + (a0 * b0 >> _U64(32))
    return a1 * b1 + (mid >> _U64(32)) + ((mid & low32) + a0 * b1 >> _U64(32)), a * b


def load_dense(path) -> np.ndarray:
    """Convenience: load and return just the payload."""
    return load_matrix_market(path).matrix
