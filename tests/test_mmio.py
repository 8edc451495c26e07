import tracemalloc
import warnings
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from equitile import mmio
from equitile.cli import main
from equitile.errors import InputError
from equitile.mmio import load_dense, load_matrix_market, save_matrix_market

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
    # symmetric coordinate bodies go through the same mirror step as before,
    # including entries a writer put in the upper triangle
    if field != "complex" and symmetry == "hermitian":
        field = "complex"
    count = data.draw(st.integers(0, 8)) if n else 0
    number = st.one_of(st.sampled_from(["-0", "+2.", "1e-320", "nan", "-inf", ".5"]),
                       st.floats(width=64).map(repr))
    if field == "integer":
        number = st.integers(-(10**30), 10**30).map(str)
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", "% comment", f"{n} {n} {count}"]
    for _ in range(count):
        i, j = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        vals = [data.draw(number) for _ in range(2 if field == "complex" else 1)]
        lines.append(" ".join([str(i), str(j), *vals]))
    with TemporaryDirectory() as d:
        path = Path(d) / "m.mtx"
        path.write_text("\n".join(lines) + "\n")
        got, want = load_matrix_market(path).matrix, reference_load_matrix_market(path).matrix
        assert _same_bits(got, want) and got.flags.c_contiguous


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
    "symmetric upper entry": "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 3\n",
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
