import math
import os
import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpc import build_matrix, column_loads, constraint_loads, from_dense, matrix
from fairpc.cli import run_cli
from fairpc.errors import (
    DimensionMismatch,
    DuplicateEntry,
    EmptyRowOrColumn,
    MatrixMarketFormatError,
    NegativeEntry,
)
from fairpc.matrix import (
    Entries,
    first_offense,
    read_matrix_market,
    segment_sums,
    stable_order,
    write_matrix_market,
)


def test_build_and_views_consistent():
    entries = [(0, 1, 2.0), (0, 0, 1.0), (1, 1, 4.0)]
    mat = build_matrix(entries, 2, 2)
    assert mat.nnz == 3
    assert sorted(mat.entries()) == sorted(entries)
    # both layouts enumerate the same multiset
    row_view = sorted(zip(mat.row_val, mat.row_col))
    col_view = sorted(zip(mat.col_val, mat.col_row))
    assert sorted(v for v, _ in row_view) == sorted(v for v, _ in col_view)


def test_entries_are_row_major_and_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    dense = np.where(rng.random((5, 7)) < 0.4, rng.uniform(1.0, 9.0, (5, 7)), 0.0)
    dense[np.arange(5), np.arange(5)] = 1.0
    dense[0, 5:] = 2.0
    given = list(Entries(*np.nonzero(dense), dense[np.nonzero(dense)]))
    shuffled = [given[k] for k in rng.permutation(len(given))]
    mat = build_matrix(shuffled, 5, 7)
    # rows in order; within a row, the order the entries were given in
    assert list(mat.entries()) == sorted(shuffled, key=lambda e: e[0])
    np.testing.assert_array_equal(mat.to_dense(), dense)
    path = tmp_path / "shuffled.mtx"
    write_matrix_market(path, mat)
    entries, m, n = read_matrix_market(path)
    assert (m, n) == (5, 7) and entries == mat.entries()
    np.testing.assert_array_equal(build_matrix(entries, m, n).to_dense(), dense)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), n=st.integers(1, 12),
       density=st.floats(0.05, 1.0), order=st.sampled_from(["shuffled", "rows", "columns"]))
def test_views_are_the_stable_argsort_of_the_given_entries(seed, m, n, density, order):
    # both views keep the given order within each row and column, whatever
    # order the entries come in; every array is the matrix's own and
    # writable, even where a view is a copy of the given read-only arrays
    # (``take`` copies a read-only index array on every call)
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((m, n)) < density, rng.uniform(1.0, 9.0, (m, n)), 0.0)
    k = np.arange(max(m, n))
    dense[k % m, k % n] = 1.0
    rows, cols = np.nonzero(dense)
    perm = {"shuffled": rng.permutation(rows.size), "rows": np.arange(rows.size),
            "columns": np.lexsort((rows, cols))}[order]
    rows, cols = rows[perm], cols[perm]
    entries = Entries(rows, cols, dense[rows, cols])
    mat = build_matrix(entries, m, n)
    r, c = np.argsort(rows, kind="stable"), np.argsort(cols, kind="stable")
    expected = {
        "row_ptr": np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m)))),
        "row_col": entries.cols[r], "row_val": entries.vals[r],
        "col_ptr": np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n)))),
        "col_row": entries.rows[c], "col_val": entries.vals[c],
    }
    for name, want in expected.items():
        got = getattr(mat, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert got.flags.writeable and not np.shares_memory(got, entries.vals), name
        assert not np.shares_memory(got, entries.rows) and not np.shares_memory(got, entries.cols)


def test_stable_order_falls_back_to_argsort_where_keys_would_overflow():
    idx = np.array([2, 0, 2, 1, 0, 1])
    want = np.argsort(idx, kind="stable")
    top = np.iinfo(np.int64).max // idx.size   # the largest size whose keys fit
    for size, fallback in ((3, False), (top, False), (top + 1, True)):
        values = idx if size == 3 else idx * (size // 3)   # up to size - 1
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            order = stable_order(values, size)
        assert argsort.called is fallback
        assert order.dtype == np.int64 and order.tolist() == want.tolist()
    assert stable_order(np.array([0, 0, 1, 3]), 4) is None


def test_rejects_bad_matrices():
    with pytest.raises(EmptyRowOrColumn):
        build_matrix([(0, 0, 1.0)], 2, 2)  # row 1 and col 1 empty
    with pytest.raises(NegativeEntry):
        build_matrix([(0, 0, -1.0)], 1, 1)
    with pytest.raises(NegativeEntry):
        build_matrix([(0, 0, 0.0)], 1, 1)
    with pytest.raises(DuplicateEntry):
        build_matrix([(0, 0, 1.0), (0, 0, 2.0)], 1, 1)
    with pytest.raises(DimensionMismatch):
        build_matrix([(0, 5, 1.0)], 1, 2)


def test_build_matrix_names_the_first_offense_in_given_order():
    # the repeat comes before the entry outside the shape, as in a file
    with pytest.raises(DuplicateEntry, match=r"^duplicate entry at \(0, 0\)$"):
        build_matrix([(0, 0, 1.0), (0, 0, 2.0), (5, 1, 1.0)], 2, 2)
    with pytest.raises(NegativeEntry, match=r"^entry \(0, 0\) is negative: -1.0$"):
        build_matrix([(0, 0, -1.0), (1, 1, 1.0), (0, 1, 0.0)], 2, 2)
    # an entry's own offense is named before its being a repeat
    with pytest.raises(NegativeEntry, match="non-finite value nan"):
        build_matrix([(0, 0, 1.0), (0, 0, math.nan)], 1, 1)


def test_offense_scan_sorts_only_keys_out_of_order():
    rows, cols = np.array([0, 0, 1, 1, 1, 1]), np.array([0, 2, 0, 1, 1, 2])
    vals = np.ones(rows.size)
    shuffled = np.array([3, 1, 5, 0, 4, 2])   # the repeat of (1, 1) still at position 4
    with mock.patch.object(np, "sort", wraps=np.sort) as sort:
        # row-major keys increase, and a repeat sits next to what it repeats
        assert first_offense(rows, cols, vals, 2, 3) == (4, "duplicate")
        valid = [0, 1, 2, 3, 5]
        assert first_offense(rows[valid], cols[valid], vals[valid], 2, 3) is None
        build_matrix(Entries(rows[valid], cols[valid], vals[valid]), 2, 3)
        assert not sort.called
        assert first_offense(rows[shuffled], cols[shuffled], vals, 2, 3) == (4, "duplicate")
        assert sort.called
    # the stable order names the earliest repeat, not the first in sorted order
    rows, cols = np.array([1, 0, 0, 1, 1]), np.array([1, 2, 0, 1, 0])
    assert first_offense(rows, cols, np.ones(5), 2, 3) == (3, "duplicate")
    rows = cols = np.array([1, 0, 0])
    assert first_offense(rows, cols, np.ones(3), 2, 2) == (2, "duplicate")


def test_constraint_loads_examples():
    ident = from_dense(np.eye(2))
    np.testing.assert_allclose(constraint_loads(ident, np.array([0.3, 0.7])), [0.3, 0.7])
    row = from_dense(np.array([[1.0, 2.0]]))
    loads = constraint_loads(row, np.array([2.0 / 3.0, 1.0 / 6.0]))
    assert loads.shape == (1,)
    assert abs(loads[0] - 1.0) < 1e-15
    assert np.all(constraint_loads(ident, np.zeros(2)) == 0.0)
    with pytest.raises(DimensionMismatch):
        constraint_loads(ident, np.zeros(3))


def test_column_loads_transpose_identity():
    rng = np.random.default_rng(3)
    dense = np.where(rng.random((4, 6)) < 0.5, rng.uniform(1, 5, (4, 6)), 0.0)
    dense[:, dense.sum(axis=0) == 0] = 1.0
    dense[dense.sum(axis=1) == 0, :] = 1.0
    mat = from_dense(dense)
    y = rng.random(4)
    np.testing.assert_allclose(column_loads(mat, y), dense.T @ y, rtol=1e-13)


def test_column_block_sums_do_not_depend_on_the_block_offset():
    """A column block reduced on its own, as a shard reduces it, sums every
    column bitwise as the whole matrix does, for blocks opening at odd offsets."""
    rng = np.random.default_rng(5)
    m, n = 40, 24
    dense = rng.uniform(1.0, 100.0, (m, n)) * (rng.random((m, n)) < rng.random(n))
    dense[rng.integers(0, m, n), np.arange(n)] = 1.0   # no empty column
    dense[np.arange(m), rng.integers(0, n, m)] = 1.0   # and no empty row
    mat = from_dense(dense * 10.0 ** rng.uniform(-6, 6, (m, n)))
    y = rng.random(m) * 10.0 ** rng.uniform(-6, 6, m)
    whole = segment_sums(mat.col_ptr[:-1], mat.col_row, mat.col_val, y)
    blocks = [(c0, c1) for c0 in range(n) for c1 in range(c0 + 1, n + 1)
              if mat.col_ptr[c0] % 2 == 1]
    assert len({mat.col_ptr[c0] % 8 for c0, _ in blocks}) > 1
    assert np.diff(mat.col_ptr).max() > 8
    for c0, c1 in blocks:
        lo, hi = mat.col_ptr[c0], mat.col_ptr[c1]
        block = segment_sums(mat.col_ptr[c0:c1] - lo, mat.col_row[lo:hi], mat.col_val[lo:hi], y)
        assert block.tobytes() == whole[c0:c1].tobytes()


def test_matrix_market_roundtrip(tmp_path):
    mat = from_dense(np.array([[2.0, 0.0], [1.0, 3.5]]))
    path = tmp_path / "a.mtx"
    write_matrix_market(path, mat)
    entries, m, n = read_matrix_market(path)
    again = build_matrix(entries, m, n)
    assert again.to_dense().tolist() == mat.to_dense().tolist()


@pytest.mark.parametrize(
    "content",
    [
        "%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix array real general\n1 1 1\n1 1 1.0\n",
        "not a header\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n",   # nnz mismatch
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0.0\n",   # explicit zero
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n2 1 1.0\n",   # out of range
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 2 nan\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 inf\n1 2 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -inf\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e400\n",  # parses to inf
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1.0 1 1.0\n",  # non-integer index
        "%%MatrixMarket matrix coordinate real general\n1 2 2\n1 1 1.0\n1 2\n",  # missing token
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0 7\n",  # extra token
    ],
)
def test_matrix_market_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketFormatError):
        read_matrix_market(path)


def test_matrix_market_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 1.0\n1 1 2.0\n"
    )
    with pytest.raises(DuplicateEntry):
        read_matrix_market(path)


def test_matrix_market_one_based_and_comments(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n2 3 3\n1 3 5.0\n2 1 1.0\n2 2 4.0\n"
    )
    entries, m, n = read_matrix_market(path)
    assert (m, n) == (2, 3)
    assert (0, 2, 5.0) in entries and (1, 0, 1.0) in entries


def test_matrix_market_blank_lines_and_comments_anywhere(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "\n% before size\n2 2 2\n\n1 1 1.5 % trailing\n% between\n\n2 2 3.0\n\n%\n"
    )
    entries, m, n = read_matrix_market(path)
    assert (m, n) == (2, 2)
    assert entries == [(0, 0, 1.5), (1, 1, 3.0)]


@pytest.mark.parametrize(
    "body, error, message",
    [
        # the first offending entry in file order wins, named 1-based
        ("1 1 1.0\n3 1 1.0\n1 1 0\n", MatrixMarketFormatError, "entry (3, 1) outside declared 2x2"),
        ("1 1 0\n3 1 1.0\n", MatrixMarketFormatError, "explicit zero at (1, 1)"),
        ("2 2 1.0\n1 2 nan\n2 2 4.0\n", MatrixMarketFormatError, "non-finite value nan at (1, 2)"),
        ("1 2 1.0\n2 1 1.0\n1 2 4.0\n1 1 0\n", DuplicateEntry, "duplicate entry at (1, 2)"),
        ("1 2 1.0\n1 1 0\n1 2 4.0\n", MatrixMarketFormatError, "explicit zero at (1, 1)"),
        ("1 1 1.0\n", MatrixMarketFormatError, "declares 3 entries, file has 1"),
        ("1 1 1.0\n2 2 1.0\n1 2 1.0\n2 1 1.0\n", MatrixMarketFormatError, "file has 4"),
    ],
)
def test_matrix_market_names_first_offense(tmp_path, body, error, message):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 3\n" + body)
    with pytest.raises(error) as info:
        read_matrix_market(path)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "body, message, pipe_message",
    [
        # a bad token on file line 6 (entry 1), after comment and blank lines
        ("% c\n2 2 2\n% c\n\n1 x 1.0\n2 2 1.0\n",
         "malformed entry line 6 (token 2): could not convert string 'x' to int64",
         "malformed entry 1 (token 2): could not convert string 'x' to int64"),
        # a wrong token count on file line 7 (entry 2), after a trailing comment
        ("2 2 2\n% c\n1 1 1.0 % t\n% c\n\n2 2\n",
         "malformed entry line 7: the dtype passed requires 3 columns but 2 were found",
         "malformed entry 2: the dtype passed requires 3 columns but 2 were found"),
    ],
)
@pytest.mark.parametrize("pipe", [False, True])
@pytest.mark.parametrize("bound", [0, 2**62])  # every file read in bulk / from the handle
def test_matrix_market_names_the_file_line(tmp_path, monkeypatch, body, message, pipe_message,
                                           pipe, bound):
    monkeypatch.setattr(matrix, "BULK_READ_MIN_ENTRIES", bound)
    text = "%%MatrixMarket matrix coordinate real general\n" + body
    if pipe:
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        path = f"/dev/fd/{r}"
    else:
        path = tmp_path / "bad.mtx"
        path.write_text(text)
    try:
        with pytest.raises(MatrixMarketFormatError) as info:
            read_matrix_market(path)
    finally:
        if pipe:
            os.close(r)
    # a pipe cannot be read again to find the line: it names the entry
    assert str(info.value) == (pipe_message if pipe else message)


@pytest.mark.parametrize("bound", [0, 2**62])
@pytest.mark.parametrize("bad_line, message", [
    (b"% \xff\n", "malformed entry line 1202: 'utf-8' codec can't decode byte 0xff in position 2"),
    (b"1200 1200 \xff.0\n",
     "malformed entry line 1202: 'utf-8' codec can't decode byte 0xff in position 10"),
])
def test_matrix_market_names_a_non_utf8_line_past_the_first_read(tmp_path, monkeypatch, bound,
                                                                  bad_line, message):
    # the byte lies beyond the decoder's first 8 KiB read, so it is met while
    # the entries are read, on either path; its position is the line's own
    monkeypatch.setattr(matrix, "BULK_READ_MIN_ENTRIES", bound)
    lines = [f"{i} {i} 1.0\n".encode() for i in range(1, 1200)]
    path = tmp_path / "bad.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n1200 1200 1200\n"
                     + b"".join(lines) + bad_line)
    assert len(b"".join(lines)) > 8192
    with pytest.raises(MatrixMarketFormatError) as info:
        read_matrix_market(path)
    assert str(info.value) == message + ": invalid start byte"


@contextmanager
def _mm_source(tmp_path, data: bytes, pipe: bool):
    """A path that reads ``data``: a file, or a pipe already holding it."""
    if not pipe:
        path = tmp_path / "bad.mtx"
        path.write_bytes(data)
        yield str(path)
        return
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


@pytest.mark.parametrize("pipe", [False, True])
@pytest.mark.parametrize("where, line_no, position", [
    ("comment", 2, 2),   # before the size line, in the header read
    ("entry", 4, 4),     # the first entry, within the decoder's first 8 KiB read
    ("past", 1203, 10),  # the last entry, past the first 8 KiB
])
def test_matrix_market_names_a_non_utf8_byte_anywhere(tmp_path, capsys, where, line_no,
                                                      position, pipe):
    lines = [b"%%MatrixMarket matrix coordinate real general\n", b"% c\n", b"1200 1200 1200\n"]
    lines += [f"{i} {i} 1.0\n".encode() for i in range(1, 1201)]
    lines[line_no - 1] = {"comment": b"% \xff\n", "entry": b"1 1 \xff.0\n",
                          "past": b"1200 1200 \xff.0\n"}[where]
    data = b"".join(lines)
    assert (data.index(b"\xff") > 8192) == (where == "past")
    # a pipe cannot be read again to find the line: it names the byte alone
    message = ("malformed entry line: 'utf-8' codec can't decode byte 0xff" if pipe else
               f"malformed entry line {line_no}: 'utf-8' codec can't decode byte 0xff in "
               f"position {position}") + ": invalid start byte"
    with _mm_source(tmp_path, data, pipe) as path, pytest.raises(MatrixMarketFormatError) as info:
        read_matrix_market(path)
    assert str(info.value) == message
    with _mm_source(tmp_path, data, pipe) as path:
        code = run_cli(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", path])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_matrix_market_reads_a_pipe():
    # a pipe cannot be reopened: the entries are read on from the same handle
    r, w = os.pipe()
    os.write(w, b"%%MatrixMarket matrix coordinate real general\n% c\n2 2 2\n1 1 1.5\n2 2 2.5\n")
    os.close(w)
    try:
        entries, m, n = read_matrix_market(f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert entries == [(0, 0, 1.5), (1, 1, 2.5)] and (m, n) == (2, 2)


def test_matrix_market_empty_body_is_silent(tmp_path):
    path = tmp_path / "empty.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 0\n% nothing\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entries, m, n = read_matrix_market(path)
    assert len(entries) == 0 and (m, n) == (2, 2)


def test_entries_sequence():
    entries = Entries(np.array([0, 1]), np.array([1, 0]), np.array([2.5, 4.0]))
    assert len(entries) == 2
    assert list(entries) == [(0, 1, 2.5), (1, 0, 4.0)]
    assert all(type(x) is int for x in entries[0][:2]) and type(entries[0][2]) is float
    assert entries == [(0, 1, 2.5), (1, 0, 4.0)] and [(0, 1, 2.5), (1, 0, 4.0)] == entries
    assert entries != [(1, 0, 4.0), (0, 1, 2.5)]
    assert entries[1] == (1, 0, 4.0) and entries[-1] == entries[1]
    assert (1, 0, 4.0) in entries and (1, 0, 2.5) not in entries
    with pytest.raises(ValueError):
        entries.vals[0] = 1.0  # read-only
    with pytest.raises(DimensionMismatch):
        Entries(np.array([0, 1]), np.array([0]), np.array([1.0, 1.0]))


def test_build_matrix_huge_declared_size_is_cheap():
    # far more rows than entries: an empty row is named without counting all of them
    with pytest.raises(EmptyRowOrColumn, match="row 1 has no entries"):
        build_matrix([(0, 0, 1.0)], 10**15, 1)
    with pytest.raises(DimensionMismatch, match="int64"):
        build_matrix([(0, 0, 1.0)], 10**10, 10**10)
