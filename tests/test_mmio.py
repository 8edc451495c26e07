import json
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import numpy as np
import pytest
import scipy.io
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from equitile import Partition, WeightedIndicator, block_triangularize, cli, mmio
from equitile.cli import main
from equitile.errors import InputError
from equitile.mmio import load_dense, load_matrix_market, save_matrix_market
from equitile.rectangular import (_BlockForm, assemble_block_diagonal, block_svd, rect_transform,
                                  split_block_diagonal)

from helpers import reference_load_matrix_market, reference_save_matrix_market


def test_array_complex_round_trip(tmp_path, rng):
    M = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    path = tmp_path / "m.mtx"
    save_matrix_market(path, M)
    mf = load_matrix_market(path)
    assert mf.format == "array" and mf.field == "complex"
    assert np.array_equal(mf.matrix, M)


def test_array_real_round_trip_bit_identical(tmp_path, rng):
    M = rng.normal(size=(5, 5))
    path = tmp_path / "m.mtx"
    save_matrix_market(path, M)
    first = path.read_bytes()
    M2 = load_dense(path)
    assert np.array_equal(M2, M)
    save_matrix_market(path, M2)
    assert path.read_bytes() == first


def test_array_complex_round_trip_bit_identical(tmp_path, rng):
    M = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    path = tmp_path / "m.mtx"
    save_matrix_market(path, M)
    first = path.read_bytes()
    save_matrix_market(path, load_dense(path))
    assert path.read_bytes() == first


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=12,
    )
)
def test_any_finite_doubles_round_trip_exactly(values):
    import tempfile
    from pathlib import Path

    M = np.array(values).reshape(-1, 1)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.mtx"
        save_matrix_market(path, M)
        got = load_dense(path)
        assert np.array_equal(got, M)
        first = path.read_bytes()
        save_matrix_market(path, got)
        assert path.read_bytes() == first


def test_integer_field(tmp_path):
    M = np.array([[1, -2], [0, 7]])
    path = tmp_path / "m.mtx"
    save_matrix_market(path, M)
    mf = load_matrix_market(path)
    assert mf.field == "integer"
    assert np.array_equal(mf.matrix, M.astype(float))


def test_coordinate_round_trip(tmp_path, rng):
    M = np.zeros((6, 4))
    M[0, 1] = 2.5
    M[5, 3] = -1.25
    path = tmp_path / "m.mtx"
    save_matrix_market(path, M, fmt="coordinate")
    mf = load_matrix_market(path)
    assert mf.format == "coordinate"
    assert np.array_equal(mf.matrix, M)


def test_coordinate_complex(tmp_path):
    M = np.zeros((2, 2), dtype=complex)
    M[1, 0] = 1 - 2j
    path = tmp_path / "m.mtx"
    save_matrix_market(path, M, fmt="coordinate")
    assert np.array_equal(load_dense(path), M)


def test_scipy_cross_reader(tmp_path, rng):
    # files we write are readable by an independent implementation
    M = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = tmp_path / "m.mtx"
    save_matrix_market(path, M)
    assert np.allclose(scipy.io.mmread(str(path)), M, atol=0)
    save_matrix_market(path, M, fmt="coordinate")
    assert np.allclose(np.asarray(scipy.io.mmread(str(path)).todense()), M, atol=0)


def test_scipy_cross_writer(tmp_path, rng):
    # and we read files written by the independent implementation
    M = rng.normal(size=(3, 5))
    path = tmp_path / "m.mtx"
    scipy.io.mmwrite(str(path), M)
    got = load_matrix_market(path)
    assert np.allclose(got.matrix, M, atol=1e-14)


def test_symmetric_expansion(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 1 3.0\n"
    )
    M = load_dense(path)
    assert np.array_equal(M, np.array([[1.0, 3.0], [3.0, 0.0]]))


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n"
        "\n"
        "2 1\n"
        "1.0\n"
        "2.0\n"
    )
    assert np.array_equal(load_dense(path), [[1.0], [2.0]])


def test_bad_header(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("not a matrix file\n")
    with pytest.raises(InputError):
        load_matrix_market(path)


def test_wrong_entry_count(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
    with pytest.raises(InputError):
        load_matrix_market(path)


def test_missing_file():
    with pytest.raises(InputError):
        load_matrix_market("/nonexistent/never.mtx")


@pytest.mark.parametrize("M, kwargs, message", [
    (np.ones(3), {}, "2-d matrix required, got shape (3,)"),
    (np.eye(2), {"fmt": "dense"}, "unsupported format 'dense'"),
    (np.eye(2), {"field": "pattern"}, "unsupported field 'pattern'"),
])
def test_writer_refuses_what_it_cannot_write(tmp_path, M, kwargs, message):
    path = tmp_path / "m.mtx"
    with pytest.raises(InputError) as exc:
        save_matrix_market(path, M, **kwargs)
    assert str(exc.value) == message
    assert not path.exists()


# --- entry-table codec against the per-entry reference codec --------------

_SPECIAL = [0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.5, -2.5, 1e30, 2.0**53 + 2, 2.0**70]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(load, path):
    """("ok", matrix) or ("refused", None) for one reader on one file."""
    try:
        return "ok", load(path).matrix
    except InputError:
        return "refused", None


@st.composite
def _matrices(draw):
    shape = draw(st.tuples(st.integers(0, 6), st.integers(0, 6)))
    kind = draw(st.sampled_from(["real", "complex", "int", "sparse"]))
    if kind == "int":
        return draw(hnp.arrays(np.int64, shape))
    floats = st.one_of(st.sampled_from(_SPECIAL), st.floats(width=64))
    if kind == "complex":
        pairs = draw(hnp.arrays(np.float64, shape + (2,), elements=floats))
        return pairs.view(np.complex128)[..., 0]
    M = draw(hnp.arrays(np.float64, shape, elements=floats))
    if kind == "sparse":
        M[draw(hnp.arrays(np.bool_, shape))] = 0.0
    return M


@settings(max_examples=150)
@given(_matrices(), st.sampled_from([5, 4096]))
def test_codec_matches_reference_bit_for_bit(M, block_rows):
    with TemporaryDirectory() as d, mock.patch.object(mmio, "_BLOCK_ROWS", block_rows):
        ref, new = Path(d) / "ref.mtx", Path(d) / "new.mtx"
        for fmt in ("array", "coordinate"):
            for field in (None, "real", "complex", "integer"):
                if field == "integer" and not np.isfinite(np.real(M)).all():
                    with pytest.raises(InputError):
                        save_matrix_market(new, M, fmt=fmt, field=field)
                    continue
                reference_save_matrix_market(ref, M, fmt=fmt, field=field)
                save_matrix_market(new, M, fmt=fmt, field=field)
                assert new.read_bytes() == ref.read_bytes()
                got = load_matrix_market(new)
                want = reference_load_matrix_market(ref)
                assert (got.format, got.field) == (want.format, want.field)
                assert _same_bits(got.matrix, want.matrix)
                assert got.matrix.flags.c_contiguous


@settings(max_examples=80)
@given(
    st.sampled_from(["symmetric", "hermitian", "skew-symmetric", "general"]),
    st.sampled_from(["real", "complex", "integer"]),
    st.integers(0, 5),
    st.data(),
)
def test_hand_written_coordinate_files_match_reference(symmetry, field, n, data):
    # symmetric bodies hold stored-triangle entries only (i >= j, i > j for
    # skew, a zero imaginary part on a hermitian diagonal): the others are
    # refused, see test_symmetric_coordinate_outside_stored_triangle_refused
    if field != "complex" and symmetry == "hermitian":
        field = "complex"
    skew = symmetry == "skew-symmetric"
    count = data.draw(st.integers(0, 8)) if n > skew else 0
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", "% comment", f"{n} {n} {count}"]
    for _ in range(count):
        lines.append(" ".join(map(str, _stored_entry(data, symmetry, field, n))))
    with TemporaryDirectory() as d:
        path = Path(d) / "m.mtx"
        path.write_text("\n".join(lines) + "\n")
        got, want = load_matrix_market(path).matrix, reference_load_matrix_market(path).matrix
        assert _same_bits(got, want) and got.flags.c_contiguous


def _number(field):
    if field == "integer":
        return st.integers(-(10**30), 10**30).map(str)
    return st.one_of(st.sampled_from(["-0", "+2.", "1e-320", "nan", "-inf", ".5"]),
                     st.floats(width=64).map(repr))


def _stored_entry(data, symmetry, field, n):
    """Tokens (i, j, value...) of an entry in the triangle the symmetry stores."""
    if symmetry == "general":
        i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    else:
        skew = symmetry == "skew-symmetric"
        i = data.draw(st.integers(1 + skew, n))
        j = data.draw(st.integers(1, i - skew))
    vals = [data.draw(_number(field)) for _ in range(2 if field == "complex" else 1)]
    if symmetry == "hermitian" and i == j:
        vals[1] = data.draw(st.sampled_from(["0", "-0", "0.0", "-0e5"]))
    return [i, j, *vals]


@settings(max_examples=80)
@given(
    st.sampled_from(["symmetric upper", "hermitian upper", "skew upper", "skew diagonal",
                     "hermitian diagonal"]),
    st.sampled_from(["real", "complex", "integer"]),
    st.integers(1, 5),
    st.data(),
)
def test_symmetric_coordinate_outside_stored_triangle_refused(pattern, field, n, data):
    symmetry = {"symmetric": "symmetric", "hermitian": "hermitian",
                "skew": "skew-symmetric"}[pattern.split()[0]]
    if symmetry == "hermitian":
        field = "complex"
    if pattern.endswith("upper"):
        n = max(n, 2)
        i = data.draw(st.integers(1, n - 1))
        j = data.draw(st.integers(i + 1, n))
    else:
        i = j = data.draw(st.integers(1, n))
    vals = [data.draw(_number(field)) for _ in range(2 if field == "complex" else 1)]
    if pattern == "hermitian diagonal":
        vals[1] = data.draw(st.sampled_from(["1", "-2.5", "1e-320", "nan", "inf"]))
    skew = symmetry == "skew-symmetric"
    entries = [_stored_entry(data, symmetry, field, n)
               for _ in range(data.draw(st.integers(0, 4)) if n > skew else 0)]
    entries.insert(data.draw(st.integers(0, len(entries))), [i, j, *vals])
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", f"{n} {n} {len(entries)}"]
    lines += [" ".join(map(str, e)) for e in entries]
    with TemporaryDirectory() as d:
        path = Path(d) / "m.mtx"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InputError, match=r"entry \(\d+, \d+\) (above|on) the diagonal"):
            load_matrix_market(path)


_A = "%%MatrixMarket matrix array real general\n"
_C = "%%MatrixMarket matrix coordinate real general\n"
_CI = "%%MatrixMarket matrix coordinate integer general\n"
_CC = "%%MatrixMarket matrix coordinate complex general\n"

# files on which both readers agree: refused by both, or loaded bit for bit
_CORPUS = {
    "empty": "",
    "no header": "1 1\n1.0\n",
    "short header": "%%MatrixMarket matrix array real\n1 1\n1\n",
    "not a matrix": "%%MatrixMarket vector array real general\n1 1\n1\n",
    "unknown format": "%%MatrixMarket matrix dense real general\n1 1\n1\n",
    "unknown field": "%%MatrixMarket matrix array pattern general\n1 1\n1\n",
    "unknown symmetry": "%%MatrixMarket matrix array real upper\n1 1\n1\n",
    "header prefix": "%%MatrixMarketX matrix array real general\n1 1\n1\n",
    "no size line": _A,
    "comments only": _A + "% c\n\n",
    "3 sizes in array": _A + "1 1 1\n1\n",
    "2 sizes in coordinate": _C + "1 1\n",
    "float size": _A + "2.0 1\n1\n2\n",
    "negative sizes": _A + "-1 -1\n1\n",
    "negative nnz": _C + "2 2 -1\n",
    "signed size": _A + "+1 1\n1\n",
    "text size": _A + "a b\n",
    "zero rows": _A + "0 3\n",
    "plain": _A + "2 1\n1\n2\n",
    "too few values": _A + "2 2\n1\n",
    "too many values": _A + "1 1\n1\n2\n",
    "two tokens": _A + "2 1\n1 2\n3\n",
    "not a number": _A + "1 1\nx\n",
    "nan and inf": _A + "3 1\nnan\n-inf\n-Infinity\n",
    "decimal comma": _A + "1 1\n1,0\n",
    "hex float": _A + "1 1\n0x1\n",
    "odd spellings": _A + "4 1\n-0\n+2.\n.5\n1E+3\n",
    "crlf": _A.replace("\n", "\r\n") + "2 1\r\n1\r\n2\r\n",
    "tabs": _C + "2 2 1\n1\t2\t3.5\n",
    "comments and blanks inside": _A + "\n2 1\n\n1\n% c\n   \n2\n\n",
    "coordinate": _C + "2 2 2\n1 1 1.0\n2 2 -0.0\n",
    "duplicate entries": _C + "2 2 3\n1 1 1.0\n1 1 2.0\n1 1 3.0\n",
    "index past the end": _C + "2 2 1\n3 1 7.0\n",
    "float index": _C + "2 2 1\n1.0 1 7.0\n",
    "index beyond int64": _C + "2 2 1\n99999999999999999999 1 7\n",
    "coordinate 2 tokens": _C + "2 2 1\n1 1\n",
    "coordinate 4 tokens": _C + "2 2 1\n1 1 1 1\n",
    "no entries": _C + "3 4 0\n",
    "missing entry": _C + "3 4 1\n",
    "extra entry": _C + "2 2 0\n1 1 1\n",
    "integer": _CI + "2 2 2\n1 1 5\n2 1 -7\n",
    "integer written as float": _CI + "2 2 1\n1 1 5.0\n",
    "integer beyond int64": _CI + "1 1 1\n1 1 " + "9" * 40 + "\n",
    "signed integer": _CI + "1 1 1\n1 1 +5\n",
    "complex": _CC + "2 2 1\n2 1 1.0 -0.0\n",
    "complex one part": _CC + "2 2 1\n2 1 1.0\n",
    "array complex": "%%MatrixMarket matrix array complex general\n1 2\n1 2\n3 -inf\n",
    "array complex 3 tokens": "%%MatrixMarket matrix array complex general\n1 1\n1 2 3\n",
    "symmetric coordinate": "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1\n2 1 3\n",
    "symmetric not square": "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n",
    "hermitian coordinate":
        "%%MatrixMarket matrix coordinate complex hermitian\n2 2 2\n1 1 1 0\n2 1 2 -0.0\n",
    "skew coordinate": "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n3 1 4\n",
}

# deliberate changes: what the reader does now (the reference did otherwise)
_CHANGED = {
    "row index 0": (_C + "2 2 1\n0 1 7.0\n", None),
    "negative column index": (_C + "2 2 1\n1 -1 7.0\n", None),
    "full symmetric array body": (
        "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n2\n5\n", None),
    "packed symmetric array": (
        "%%MatrixMarket matrix array real symmetric\n2 2\n1\n2\n5\n", [[1, 2], [2, 5]]),
    "packed skew array": (
        "%%MatrixMarket matrix array real skew-symmetric\n3 3\n1\n2\n3\n",
        [[0, -1, -2], [1, 0, -3], [2, 3, 0]]),
    "packed hermitian array": (
        "%%MatrixMarket matrix array complex hermitian\n2 2\n1 0\n2 -1\n5 0\n",
        [[1, 2 + 1j], [2 - 1j, 5]]),
    "trailing comment": (_A + "1 1\n1.0 % note\n", [[1.0]]),
    "underscore digits": (_A + "1 1\n1_0\n", None),
    "integer too large for a float": (_CI + "1 1 1\n1 1 1" + "0" * 400 + "\n", None),
    "symmetric upper entry": (
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 3\n", None),
    "hermitian array diagonal with an imaginary part": (
        "%%MatrixMarket matrix array complex hermitian\n2 2\n1 5\n2 -1\n5 0\n", None),
}


@pytest.mark.parametrize("name", sorted(_CORPUS))
def test_malformed_corpus_matches_reference(tmp_path, name):
    path = tmp_path / "m.mtx"
    path.write_text(_CORPUS[name])
    got, want = _outcome(load_matrix_market, path), _outcome(reference_load_matrix_market, path)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _same_bits(got[1], want[1])


@pytest.mark.parametrize("name", sorted(_CHANGED))
def test_deliberate_changes(tmp_path, name):
    text, expected = _CHANGED[name]
    path = tmp_path / "m.mtx"
    path.write_text(text)
    if expected is None:
        with pytest.raises(InputError):
            load_matrix_market(path)
    else:
        got = load_dense(path)
        assert got.dtype == (complex if np.iscomplexobj(expected) else float)
        assert np.array_equal(got, expected)


def test_undecodable_file_is_input_error(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array real general\n1 1\n\xff\xfe\n")
    with pytest.raises(InputError, match="m.mtx"):
        load_matrix_market(path)


@pytest.mark.parametrize("entry", ["0 1 7.0", "1 -1 7.0", "3 1 7.0", "1 3 7.0"])
def test_coordinate_index_out_of_range(tmp_path, entry):
    path = tmp_path / "m.mtx"
    path.write_text(_C + f"2 2 1\n{entry}\n")
    with pytest.raises(InputError, match=r"outside 1\.\.2 x 1\.\.2"):
        load_matrix_market(path)


def test_cli_refuses_out_of_range_index(tmp_path, capsys):
    path, part = tmp_path / "m.mtx", tmp_path / "p.json"
    path.write_text(_C + "2 2 1\n0 1 7.0\n")
    part.write_text('{"n": 2, "cells": [[1, 2]]}')
    assert main(["check", str(path), str(part)]) == 2
    assert "outside" in capsys.readouterr().err


@pytest.mark.parametrize("symmetry, entry", [
    ("real symmetric", "1 2 3"), ("complex hermitian", "1 1 1 5"),
    ("real skew-symmetric", "2 2 1")])
def test_cli_refuses_entry_outside_stored_triangle(tmp_path, capsys, symmetry, entry):
    path, part = tmp_path / "m.mtx", tmp_path / "p.json"
    path.write_text(f"%%MatrixMarket matrix coordinate {symmetry}\n2 2 1\n{entry}\n")
    part.write_text('{"n": 2, "cells": [[1, 2]]}')
    assert main(["check", str(path), str(part)]) == 2
    assert f"entry ({entry[0]}, {entry[2]})" in capsys.readouterr().err


def test_cli_refuses_hermitian_array_diagonal(tmp_path, capsys):
    path, part = tmp_path / "m.mtx", tmp_path / "p.json"
    path.write_text("%%MatrixMarket matrix array complex hermitian\n2 2\n1 5\n2 -1\n5 0\n")
    part.write_text('{"n": 2, "cells": [[1, 2]]}')
    assert main(["split", str(path), str(part)]) == 2
    assert ("entry (1, 1) on the diagonal of a hermitian file has a nonzero imaginary part"
            in capsys.readouterr().err)


@pytest.mark.parametrize("sizes", ["-2 2", "2 2.5", "two 2", "2 -0.0"])
def test_bad_sizes_name_the_path_once(tmp_path, sizes):
    path = tmp_path / "m.mtx"
    path.write_text(_A + sizes + "\n")
    with pytest.raises(InputError) as info:
        load_matrix_market(path)
    assert str(info.value).count(str(path)) == 1
    assert "non-negative integers" in str(info.value)


def test_bad_entry_line_is_named(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(_C + "2 2 2\n1 1 1.0\n2 1 3.0 4.0\n")
    with pytest.raises(InputError, match=r"bad entry line '2 1 3\.0 4\.0'") as info:
        load_matrix_market(path)
    assert str(info.value).count(str(path)) == 1


def test_empty_coordinate_body_warns_nothing(tmp_path):
    path = tmp_path / "z.mtx"
    save_matrix_market(path, np.zeros((3, 3)), fmt="coordinate")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(load_dense(path), np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_integer_field_needs_finite_values(tmp_path, bad):
    path = tmp_path / "m.mtx"
    with pytest.raises(InputError):
        save_matrix_market(path, np.array([[1.0, bad]]), field="integer")
    assert not path.exists()


@pytest.mark.parametrize("symmetry", ["symmetric", "hermitian", "skew-symmetric"])
def test_scipy_cross_writer_symmetric_arrays(tmp_path, rng, symmetry):
    # scipy stores the lower triangle column by column, as the spec says
    M = rng.normal(size=(4, 4))
    if symmetry == "hermitian":
        M = M + 1j * rng.normal(size=(4, 4))
        M = M + M.conj().T
    else:
        M = M + (M.T if symmetry == "symmetric" else -M.T)
    path = tmp_path / "m.mtx"
    scipy.io.mmwrite(str(path), M, symmetry=symmetry)
    assert f"array {'complex' if symmetry == 'hermitian' else 'real'} {symmetry}" in \
        path.read_text().splitlines()[0]
    assert np.allclose(load_dense(path), M, atol=1e-14)


@pytest.mark.parametrize("fmt, n", [("array", 600), ("coordinate", 200)])
def test_codec_memory_is_bounded(tmp_path, fmt, n):
    # the per-entry codec peaked at 12.3x (save) and 11.4x (load) on the array
    # case; tracemalloc slows the writer about tenfold, so the coordinate
    # case runs at a smaller size
    M = np.random.default_rng(7).normal(size=(n, n, 2)).view(complex)[..., 0]
    path = tmp_path / "m.mtx"
    for step in (lambda: save_matrix_market(path, M, fmt=fmt), lambda: load_dense(path)):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * M.nbytes


# --- the vectorized writer against the %-templates --------------------------
#
# save_matrix_market formats the floats of array-format real and complex files
# with x = 0 or 1e-11 <= |x| < 1e16 with integer arithmetic, and every other row
# with its %-template; these inputs sit on and around each seam. Coordinate and
# integer-field files are formatted by their templates and compared as well.


def _neighbours(x, k=1):
    """x with the k doubles on either side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(k):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def _powers_of_ten():
    """Each double nearest a power of ten, 1e-12 to 1e17, with 1-ulp neighbours
    (2-ulp at the ends of the fast range, 1e-11 and 1e16)."""
    values = []
    for e in range(-12, 18):
        values += _neighbours(float(Fraction(10) ** e), 2 if e in (-11, 16) else 1)
    return np.array(values)


def _is_tie(x) -> bool:
    """Whether the exact value of x lies halfway between two 17-digit decimals."""
    digits = Decimal(x).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def _ties(rng):
    """Doubles that are exact 17-digit decimal ties, in three decades."""
    n = rng.integers(10 ** 15, 2 ** 50, 200)
    t = [n + 0.25, n + 0.75, (n // 10) + 0.125, (n // 10) + 0.875]
    t.append(np.array([2.0 ** -25, 3 * 2.0 ** -25, 1000000000000000.25, 1000000000000000.75]))
    return np.concatenate(t)


_SPLICED = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, 9e-12, np.nan, -np.nan,
            np.inf, -np.inf, 1e16, -1.5e19, 1.7976931348623157e308]


def _same_as_reference(tmp_path, M, formats=("array", "coordinate"),
                       fields=(None, "real", "complex", "integer")):
    for block_rows in (5, 4096):
        with mock.patch.object(mmio, "_BLOCK_ROWS", block_rows):
            for fmt in formats:
                for field in fields:
                    if field == "integer" and not np.isfinite(np.real(M)).all():
                        continue
                    ref, new = tmp_path / "ref.mtx", tmp_path / "new.mtx"
                    reference_save_matrix_market(ref, M, fmt=fmt, field=field)
                    save_matrix_market(new, M, fmt=fmt, field=field)
                    assert new.read_bytes() == ref.read_bytes(), (fmt, field, block_rows)


def test_writer_powers_of_ten_and_range_edges(tmp_path):
    x = _powers_of_ten()
    x = np.concatenate([x, -x])
    M = x.reshape(-1, 4)
    _same_as_reference(tmp_path, M)
    _same_as_reference(tmp_path, M + 1j * M[::-1])


def test_writer_exact_decimal_ties(tmp_path, rng):
    x = _ties(rng)
    assert sum(map(_is_tie, x.tolist())) >= 0.9 * len(x)
    assert "%.16e" % 1000000000000000.25 == "1.0000000000000002e+15"
    assert "%.16e" % 1000000000000000.75 == "1.0000000000000008e+15"
    M = np.concatenate([x, -x]).reshape(-1, 8)
    _same_as_reference(tmp_path, M, fields=(None, "complex"))
    _same_as_reference(tmp_path, M[:, :4] - 1j * M[:, 4:], fields=(None,))


def test_writer_values_below_a_power_of_ten(tmp_path):
    # the candidates for a rounding carry to 10**17 digits: the largest double
    # below each power of ten in the fast range. None of them carries, which is
    # why the writer has no carry step; a 1e-7, whose double lies below 10**-7,
    # keeps exponent -8.
    below = []
    for e in range(-10, 17):
        d = float(Fraction(10) ** e)
        below.append(d if Fraction(d) < Fraction(10) ** e else float(np.nextafter(d, 0)))
    assert all(("%.16e" % d).startswith("9.99999999999999") for d in below)
    assert "%.16e" % 1e-7 == "9.9999999999999995e-08"
    M = np.array(below + [-d for d in below] + [0.0, 0.0]).reshape(-1, 2)
    _same_as_reference(tmp_path, M)


@pytest.mark.parametrize("bias", [-0.4, 0.4])
def test_writer_corrects_an_exponent_estimate_off_by_one(tmp_path, rng, bias):
    # the decimal exponent from log10 is an estimate that exact comparisons
    # with powers of ten correct by one either way; a biased log10 needs both
    x = np.concatenate([_powers_of_ten(), rng.uniform(1, 10, 500) * 10.0 ** rng.integers(
        -11, 16, 500)]).reshape(-1, 1)
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda a: log10(a) + bias):
        save_matrix_market(tmp_path / "new.mtx", x)
    reference_save_matrix_market(tmp_path / "ref.mtx", x)
    assert (tmp_path / "new.mtx").read_bytes() == (tmp_path / "ref.mtx").read_bytes()


def test_writer_splices_special_values_into_fast_blocks(tmp_path, rng):
    M = rng.normal(size=(41, 3)) * 10.0 ** rng.integers(-10, 15, size=(41, 3))
    M.flat[rng.choice(M.size, size=len(_SPLICED), replace=False)] = _SPLICED
    M[0, 0], M[-1, -1], M[5, :] = np.nan, -np.inf, 5e-324  # first and last rows too
    _same_as_reference(tmp_path, M)
    C = np.empty(M.shape, dtype=complex)
    C.real, C.imag = M, np.roll(M, 7)
    C[3, 1] = complex(2.5, np.nan)
    _same_as_reference(tmp_path, C)


def test_writer_integer_field_around_2_53_and_beyond_2_63(tmp_path):
    big = [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 62, 2 ** 63 - 1]
    ints = np.array(big + [-v for v in big] + [0, 1, -1, 9, 10, -99, 100], dtype=np.int64)
    _same_as_reference(tmp_path, ints.reshape(-1, 1))
    _same_as_reference(tmp_path, np.concatenate([ints, [-2 ** 63]]).reshape(-1, 3))
    floats = np.array([2.0 ** 63, -2.0 ** 63, 2.0 ** 64, 1e20, -3.5e25, 1.7976931348623157e308,
                       2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, -0.0, -0.4, 0.5, 1.5, 2.5])
    _same_as_reference(tmp_path, floats.reshape(-1, 2), fields=("integer",))


def test_writer_coordinate_indices_of_one_to_seven_digits(tmp_path):
    M = np.zeros((1_000_001, 2))
    rows = [0] + [10 ** d - 2 for d in range(1, 7)] + [10 ** d - 1 for d in range(1, 7)]
    M[rows + [1_000_000], 0] = 1.5
    M[[2, 1_000_000], 1] = -2.0
    _same_as_reference(tmp_path, M, formats=("coordinate",))
    lines = (tmp_path / "new.mtx").read_text().splitlines()
    assert lines[-1].startswith("1000001 2 ")


def test_writer_matches_percent_format_on_a_million_values(tmp_path):
    rng = np.random.default_rng(12)
    n = 10 ** 6
    x = rng.uniform(1, 10, n) * 10.0 ** rng.integers(-13, 19, n) * rng.choice([-1.0, 1.0], n)
    x[: n // 4] = rng.normal(size=n // 4)
    path = tmp_path / "m.mtx"
    save_matrix_market(path, x.reshape(-1, 1))
    body = path.read_text().split("\n", 2)[2]
    assert body == ("%.16e\n" * n) % tuple(x.tolist())


# --- the vectorized reader against np.loadtxt --------------------------------
#
# load_matrix_market reads an array general real or complex body whose every
# line is the writer's (k tokens "[-]d.dddddddddddddddde[+-]dd", one space, a
# newline) _BODY_BYTES at a time with Eisel-Lemire; any other body goes to
# np.loadtxt whole. np.loadtxt and the per-entry reference reader are the
# oracles; small _BODY_BYTES put block seams everywhere.

_FAST_TOKEN = re.compile(rb"-?\d\.\d{16}e[+-]\d\d")


def _loadtxt_matrix(path, shape, field):
    """The matrix of a header-and-size-line array file read by np.loadtxt."""
    v = np.loadtxt(path, skiprows=2, ndmin=2)
    v = v.view(np.complex128) if field == "complex" else v
    return np.ascontiguousarray(v.reshape(shape[::-1]).T)


def _reads_like_loadtxt(path, shape, field, reference=True):
    """load_dense(path) against both oracles at several block sizes; True if
    the vectorized path took every block (np.loadtxt was never called)."""
    want = _loadtxt_matrix(path, shape, field)
    if reference:
        assert _same_bits(reference_load_matrix_market(path).matrix, want)
    fast = True
    for body_bytes in (48, 61, 1000, 1 << 18):
        with mock.patch.object(mmio, "_BODY_BYTES", body_bytes), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            assert _same_bits(load_dense(path), want), body_bytes
        fast &= spy.call_count == 0
    return fast


def _writer_shaped(path) -> bool:
    return all(map(_FAST_TOKEN.fullmatch, path.read_bytes().split()[7:]))


def _write_array(path, M, field=None):
    save_matrix_market(path, M, field=field)
    return "complex" if np.iscomplexobj(M) or field == "complex" else "real"


_BITS = st.one_of(
    st.integers(0, 2 ** 64 - 1),  # any double: NaN, infinities, subnormals, 3-digit exponents
    st.sampled_from([0, 1 << 63, 1, (1 << 63) + (1 << 52) - 1]),  # +-0, subnormals
    # |x| around 1e-99..1e100, where %.16e has a two-digit exponent
    st.builds(lambda s, e, f: s << 63 | e << 52 | f, st.integers(0, 1), st.integers(690, 1358),
              st.integers(0, 2 ** 52 - 1)),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(_BITS, min_size=1, max_size=40), st.integers(1, 3), st.booleans())
def test_reader_matches_loadtxt_on_any_doubles(bits, cols, complex_):
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    x = x[:x.size // (2 * cols) * 2 * cols] if complex_ else x[:x.size // cols * cols]
    assume(x.size)
    M = x.view(np.complex128).reshape(-1, cols) if complex_ else x.reshape(-1, cols)
    with TemporaryDirectory() as d:
        path = Path(d) / "m.mtx"
        field = _write_array(path, M)
        assert _reads_like_loadtxt(path, M.shape, field) == _writer_shaped(path)


def test_reader_on_the_writer_edge_sets(tmp_path, rng):
    # all with two-digit exponents: the largest double below 10**-99 is written e-100
    below = [float(np.nextafter(float(Fraction(10) ** e), 0)) for e in range(-98, 100)]
    x = np.concatenate([_powers_of_ten(), _ties(rng), below, 10.0 ** np.arange(-99, 100)])
    x = np.concatenate([x, -x, [0.0, -0.0]])
    x = x[:x.size // 4 * 4]
    for M in (x.reshape(-1, 2), x.view(np.complex128).reshape(-1, 2)):
        path = tmp_path / "m.mtx"
        assert _reads_like_loadtxt(path, M.shape, _write_array(path, M))


def _tokens_file(path, tokens, k):
    lines = [" ".join(tokens[i:i + k]) for i in range(0, len(tokens), k)]
    path.write_text(f"%%MatrixMarket matrix array {'complex' if k == 2 else 'real'} general\n"
                    f"{len(lines)} 1\n" + "\n".join(lines) + "\n")


def _token(digits: str, exponent: int, negative=False) -> str:
    """The %.16e-shaped token of the 17 decimal digits times 10**exponent."""
    return f"{'-' * negative}{digits[0]}.{digits[1:]}e{exponent:+03d}"


def test_reader_rounds_decimal_ties_to_even(tmp_path, rng):
    # 17-digit decimals halfway between two doubles: odd multiples of half an
    # ulp in [2**52, 10**17), which the reader hands to float()
    ties = []
    for lo in rng.integers(2 ** 52, 10 ** 17 - 2 ** 5, 300).tolist():
        d = float(lo)
        half = Fraction(float(np.nextafter(d, np.inf)) - d) / 2
        t = Fraction(d) + half
        digits = str(t.numerator * 10 // t.denominator if t.denominator == 2 else t.numerator)
        exponent = len(str(int(t))) - 1
        ties.append(_token(digits.ljust(17, "0"), exponent, negative=len(ties) % 2 == 1))
    assert all(Fraction(t) % 1 in (0, Fraction(1, 2)) for t in ties)
    for k in (1, 2):
        path = tmp_path / f"t{k}.mtx"
        _tokens_file(path, ties, k)
        got = load_dense(path)
        assert got.view(np.float64).ravel().tolist() == [float(t) for t in ties]
        assert _reads_like_loadtxt(path, got.shape, ("real", "complex")[k - 1])


def _needs_second_product(token: str) -> bool:
    """Whether Eisel-Lemire's first 64x64 product leaves the 9 bits below the
    55 it keeps all ones, so that the second product is formed."""
    digits, exponent = token.lstrip("-").replace(".", "").split("e")
    w = int(digits)
    w <<= 64 - w.bit_length()
    return (w * (mmio._pow5_128(int(exponent) - 16) >> 64) >> 64) & 0x1FF == 0x1FF


def test_reader_takes_the_second_product(tmp_path, rng):
    digits = rng.integers(10 ** 16, 10 ** 17, 40000).tolist()
    exponents = rng.integers(-99, 100, 40000).tolist()
    tokens = [_token(str(d), e, negative=d % 3 == 0) for d, e in zip(digits, exponents)]
    second = [t for t in tokens if _needs_second_product(t)]
    assert len(second) >= 40
    for k in (1, 2):
        path = tmp_path / f"s{k}.mtx"
        _tokens_file(path, second[:len(second) // 2 * 2], k)
        got = load_dense(path)
        assert got.view(np.float64).ravel().tolist() == [float(t) for t in second[:got.size * k]]
        assert _reads_like_loadtxt(path, got.shape, ("real", "complex")[k - 1])


def test_reader_normalizes_digits_next_to_powers_of_two(tmp_path):
    # a 17-digit D just below 2**54, 2**55 or 2**56 rounds up to the power of
    # two as a float, whose exponent then overstates D's bit length by one
    ds = [2 ** b + d for b in (54, 55, 56) for d in (-3, -2, -1, 0, 1)] + [10 ** 16, 10 ** 17 - 1]
    tokens = [_token(str(d), e, negative=e < 0) for d in ds for e in (-99, -16, 0, 7, 99)]
    _tokens_file(tmp_path / "p.mtx", tokens, 1)
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt called")):
        got = load_dense(tmp_path / "p.mtx")
    assert got.ravel().tolist() == [float(t) for t in tokens]


def test_reader_hands_non_finite_values_to_loadtxt(tmp_path, rng):
    M = rng.normal(size=(41, 3)) * 10.0 ** rng.integers(-90, 90, size=(41, 3))
    M.flat[rng.choice(M.size, size=len(_SPLICED), replace=False)] = _SPLICED
    M[0, 0], M[-1, -1], M[20, 1] = np.nan, -np.inf, np.inf
    C = np.empty(M.shape, dtype=complex)
    C.real, C.imag = M, np.roll(M, 7)
    for X in (M, C):
        path = tmp_path / "m.mtx"
        assert not _reads_like_loadtxt(path, X.shape, _write_array(path, X))


def test_reader_on_a_million_random_magnitudes(tmp_path):
    rng = np.random.default_rng(13)
    n = 10 ** 6
    x = rng.uniform(1, 10, n) * 10.0 ** rng.integers(-99, 100, n) * rng.choice([-1.0, 1.0], n)
    x[rng.choice(n, 1000, replace=False)] = 0.0
    path = tmp_path / "m.mtx"
    save_matrix_market(path, x.reshape(1000, 1000))
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt called")):
        got = load_dense(path)
    assert _same_bits(got, _loadtxt_matrix(path, (1000, 1000), "real"))


@pytest.mark.parametrize("shape, field", [((600, 600), "complex"), ((600, 500), "real")])
def test_writer_files_never_reach_loadtxt(tmp_path, shape, field):
    rng = np.random.default_rng(5)
    M = rng.normal(size=shape) + (1j * rng.normal(size=shape) if field == "complex" else 0)
    path = tmp_path / "m.mtx"
    save_matrix_market(path, M)
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt called")):
        got = load_dense(path)
    assert _same_bits(got, M) and got.flags.c_contiguous


_BASE_BODY = "1.5000000000000000e+00 -2.0000000000000000e-03\n-0.0000000000000000e+00 7.0e+01\n"
_HAND_EDITS = {
    "comment line": lambda b: "% a note\n" + b,
    "trailing comment": lambda b: b.replace("\n", " % note\n", 1),
    "tab": lambda b: b.replace(" ", "\t", 1),
    "two spaces": lambda b: b.replace(" ", "  ", 1),
    "crlf": lambda b: b.replace("\n", "\r\n"),
    "capital E": lambda b: b.replace("e+00", "E+00"),
    "leading plus": lambda b: "+" + b,
    "no final newline": lambda b: b[:-1],
    "blank line": lambda b: b.replace("\n", "\n\n", 1),
    "three-digit exponent": lambda b: b.replace("e-03", "e-300"),
    "nan and inf": lambda b: b.replace("1.5000000000000000e+00", "nan").replace(
        "7.0e+01", "-inf"),
    "non-ASCII": lambda b: b.replace("\n", " % é\n", 1),
    "not UTF-8": lambda b: b.replace("\n", " % \xff\n", 1),
    "one value short": lambda b: b.replace(" 7.0e+01", ""),
    "a value too many": lambda b: b + "1.0000000000000000e+00 1.0000000000000000e+00\n",
    "bad token": lambda b: b.replace("7.0e+01", "7.0x+01"),
    "letter in digits": lambda b: b.replace("1.5000000000000000e+00", "1.50000000a0000000e+00"),
    "comma sign": lambda b: b.replace("e-03", "e,03"),
    "comma for the point": lambda b: b.replace("1.5", "1,5"),
    "comma between values": lambda b: b.replace(" ", ",", 1),
    "word between values": lambda b: b.replace(" -2.0", " x -2.0"),
    "number without exponent": lambda b: b.replace("\n", " 7\n", 1),
    "line without exponent at the end": lambda b: b + "7\n",
    "line without exponent inside": lambda b: b.replace("\n", "\n7\n", 1),
    "two entries on one line": lambda b: b.replace("\n", " ", 1),
    "word before the first value": lambda b: "x" + b,
}


def test_reader_refuses_a_size_line_the_body_cannot_hold(tmp_path):
    # the reader sizes its table from the size line only when the body is long
    # enough to hold that many lines; the general reader counts the entries
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n100000000000 100000\n"
                    + _BASE_BODY.replace("7.0e+01", "7.0000000000000000e+01"))
    with pytest.raises(InputError, match="expected 10000000000000000 entries, found 2"):
        load_dense(path)


def test_reader_refuses_a_body_one_line_short(tmp_path):
    # 23 lines of two negative tokens fill the 1104 bytes that 24 shortest
    # lines would: the size check passes, and the count of values refuses it
    line = "-1.0000000000000000e-01 -2.0000000000000000e+01\n"
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n24 1\n" + line * 23)
    with pytest.raises(InputError, match="expected 24 entries, found 23"):
        load_dense(path)


@pytest.mark.parametrize("name", sorted(_HAND_EDITS))
@pytest.mark.parametrize("writer_shaped", [False, True])
def test_hand_edited_bodies_read_as_by_loadtxt(tmp_path, name, writer_shaped):
    body = _BASE_BODY.replace("7.0e+01", "7.0000000000000000e+01") if writer_shaped else _BASE_BODY
    path = tmp_path / "m.mtx"
    encoding = "latin-1" if name == "not UTF-8" else "utf-8"
    path.write_bytes(("%%MatrixMarket matrix array complex general\n2 1\n"
                      + _HAND_EDITS[name](body)).encode(encoding))
    outcomes = []
    for fast in (True, False):
        for body_bytes in (48, 1 << 18):
            with mock.patch.object(mmio, "_BODY_BYTES", body_bytes), \
                    mock.patch.object(mmio, "_read_array",
                                      mmio._read_array if fast else lambda *a: None):
                try:
                    outcomes.append(("ok", load_dense(path).tobytes()))
                except InputError as exc:
                    outcomes.append(("refused", str(exc)))
    assert all(o == outcomes[-1] for o in outcomes), outcomes


# --- windows of a block form, written in one pass ------------------------------
#
# The CLI writes A_hat = [[E, D_plus_conj], [D_minus, F]] and its blocks with one
# _write_blocks call, which walks the stored A_hat once and formats each value
# once. Every file must be byte for byte save_matrix_market's, and
# the per-entry reference writer's, of the matrix it holds; _BLOCK_ROWS of 1
# and 5 put chunk edges inside every window.

_NAMES = ("A_hat", "E", "D_minus", "D_plus_conj", "F")


def _emitted_like_saves(out, files: dict, form):
    """Each emitted file against save_matrix_market and the reference writer."""
    for name, path in files.items():
        M = getattr(form, name)
        save_matrix_market(out / "save.mtx", M)
        reference_save_matrix_market(out / "ref.mtx", M)
        got = Path(path).read_bytes()
        assert got == (out / "save.mtx").read_bytes() == (out / "ref.mtx").read_bytes(), name


@st.composite
def _block_forms(draw):
    rows, cols = (draw(st.lists(st.integers(0, 5), min_size=2, max_size=2)) for _ in "rc")
    floats = st.one_of(st.sampled_from(_SPLICED + [1e-17, -1e-17, 1.5, -2.5]),
                       st.floats(width=64))
    shape = (sum(rows), sum(cols))
    if draw(st.booleans()):
        M = draw(hnp.arrays(np.float64, shape + (2,), elements=floats)).view(complex)[..., 0]
    else:
        M = draw(hnp.arrays(np.float64, shape, elements=floats))
    (q, _), (r, _) = rows, cols
    return _BlockForm(M, q, r)


@settings(max_examples=120, deadline=None)
@given(_block_forms(), st.lists(st.sampled_from(_NAMES), unique=True),
       st.sampled_from([1, 5, 4096]))
def test_block_windows_match_saves_of_each_block(form, names, block_rows):
    with TemporaryDirectory() as d, mock.patch.object(mmio, "_BLOCK_ROWS", block_rows):
        files = cli._emit_blocks(d, form, names)
        assert list(files) == names
        _emitted_like_saves(Path(d), files, form)


def _transform_inputs(tmp_path, A, cells):
    save_matrix_market(tmp_path / "a.mtx", A)
    (tmp_path / "p.json").write_text(json.dumps({"n": len(A), "cells": cells}))
    return str(tmp_path / "a.mtx"), str(tmp_path / "p.json")


def _fast_range(M) -> bool:
    """Whether _put_float writes every value of M: none is spliced."""
    x = np.abs(np.concatenate([M.real.ravel(), M.imag.ravel()]))
    return bool(((x == 0) | (x >= 1e-11) & (x < 1e16)).all())


@pytest.mark.parametrize("block_rows", [5, 4096])
@pytest.mark.parametrize("case", ["random", "singletons", "one cell", "spliced"])
def test_transform_files_match_saves_of_the_library_blocks(tmp_path, capsys, case, block_rows):
    rng = np.random.default_rng(8)
    n = 23
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    cells = [c.tolist() for c in np.array_split(rng.permutation(n) + 1, 5)]
    if case == "singletons":
        cells = [[i] for i in range(1, n + 1)]
        A.flat[rng.choice(A.size, 8, replace=False)] = [0.0, -0.0, 1e-17, -1e-17, 1e16,
                                                       -3e16, 1e-300, 2.5e19]
    elif case == "one cell":
        cells = [list(range(1, n + 1))]
    elif case == "spliced":
        A *= 1e16
    matrix, partition = _transform_inputs(tmp_path, A, cells)
    out = tmp_path / "out"
    with mock.patch.object(mmio, "_BLOCK_ROWS", block_rows):
        assert main(["transform", matrix, partition, "--emit", "full,E,F,D",
                     "--out-dir", str(out)]) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert list(files) == ["E", "F", "D_minus", "D_plus_conj", "A_hat"]
    part = Partition.from_dict(json.loads(Path(partition).read_text()))
    form = block_triangularize(load_dense(matrix), WeightedIndicator.unit(part))
    assert form.F.shape == ((0, 0) if case == "singletons" else (n - part.k,) * 2)
    if case in ("singletons", "spliced"):
        assert not _fast_range(form.assembled())
    _emitted_like_saves(tmp_path, files, form)


@pytest.mark.parametrize("block_rows", [5, 4096])
@pytest.mark.parametrize("scale", [1.0, 1e16])
def test_rect_files_match_saves_of_the_library_blocks(tmp_path, capsys, block_rows, scale):
    rng = np.random.default_rng(9)
    sides = {"left": ([3, 4, 2], [1, 2, 2]), "right": ([2, 3, 4], [1, 2, 1])}
    W = {side: assemble_block_diagonal([rng.normal(size=(a, b)) + 1j * rng.normal(size=(a, b))
                                        for a, b in zip(*sizes)])
         for side, sizes in sides.items()}
    A = scale * rng.normal(size=(9, 9))
    paths = []
    for name, M in (("a", A), ("wm", W["left"]), ("wp", W["right"])):
        save_matrix_market(tmp_path / f"{name}.mtx", M)
        paths.append(str(tmp_path / f"{name}.mtx"))
    (tmp_path / "s.json").write_text(json.dumps({
        "left": {"m_sizes": sides["left"][0], "q_sizes": sides["left"][1]},
        "right": {"n_sizes": sides["right"][0], "r_sizes": sides["right"][1]}}))
    with mock.patch.object(mmio, "_BLOCK_ROWS", block_rows):
        assert main(["rect", paths[0], str(tmp_path / "s.json"), *paths[1:],
                     "--out-dir", str(tmp_path / "out")]) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert list(files) == ["E", "D_minus", "D_plus_conj", "F"]
    form = rect_transform(A, block_svd(split_block_diagonal(W["left"], *sides["left"])),
                          block_svd(split_block_diagonal(W["right"], *sides["right"])))
    if scale > 1:
        assert not _fast_range(form.assembled())
    _emitted_like_saves(tmp_path, files, form)


@pytest.mark.parametrize("emit, names", [("E", ["E"]), ("F", ["F"]),
                                         ("D", ["D_minus", "D_plus_conj"])])
def test_emitting_blocks_alone_formats_only_their_rows(tmp_path, capsys, monkeypatch, emit, names):
    rng = np.random.default_rng(10)
    n, k = 40, 4
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    cells = [c.tolist() for c in np.array_split(rng.permutation(n) + 1, k)]
    matrix, partition = _transform_inputs(tmp_path, A, cells)
    formatted, put_float = [], mmio._put_float
    monkeypatch.setattr(mmio, "_put_float", lambda out, x: formatted.append(len(x))
                        or put_float(out, x))
    assert main(["transform", matrix, partition, "--emit", emit,
                 "--out-dir", str(tmp_path / "out")]) == 0
    files = json.loads(capsys.readouterr().out)["files"]
    assert list(files) == names
    form = block_triangularize(A, WeightedIndicator.unit(Partition.from_dict(
        {"n": n, "cells": cells})))
    # real and imaginary parts of each entry of the emitted blocks, once
    assert sum(formatted) == 2 * sum(getattr(form, name).size for name in names)
    monkeypatch.setattr(mmio, "_put_float", put_float)
    _emitted_like_saves(tmp_path, files, form)


def test_block_emission_memory_is_bounded(tmp_path):
    # the five files of transform --emit full,E,F,D once took A_hat assembled
    # and a column-major copy of it, two N x N arrays
    n, k = 600, 10
    M = np.random.default_rng(11).normal(size=(n, n, 2)).view(complex)[..., 0]
    form = _BlockForm(M, k, k)
    tracemalloc.start()
    try:
        cli._emit_blocks(tmp_path, form, _NAMES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M.nbytes
    assert (tmp_path / "A_hat.mtx").read_bytes().count(b"\n") == n * n + 2
