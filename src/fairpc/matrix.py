"""Sparse nonnegative constraint matrices and MatrixMarket ingestion.

The matrix is kept in two synchronized layouts, the only views the solvers
read: row-major (for constraint loads ``Ax``) and column-major (for
per-coordinate gradient sums and ``A^T y``). Within a row or column,
entries keep the order they were given in (a view given in order is not
sorted at all, one out of order costs one sort), and every segment
reduction goes through ``np.add.reduceat`` so that results are
deterministic and identical no matter which layout slice a caller sums
over.

Ingestion is array-at-a-time: entries travel as an ``Entries`` (three
parallel arrays) from the parser through standardization to the build.
One scan, ``first_offense``, decides which entry is the first, in the
given order, that a matrix may not store and why; ``read_matrix_market``
and ``build_matrix`` raise from it, in 1-based and 0-based coordinates.
"""

from __future__ import annotations

import itertools
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEntry,
    EmptyRowOrColumn,
    MatrixMarketFormatError,
    NegativeEntry,
)

MM_HEADER = "%%MatrixMarket matrix coordinate real general"
_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])
_INT64_MAX = int(np.iinfo(np.int64).max)
# a file declaring fewer entries is read on from its open handle: in fresh
# processes the two read paths of read_matrix_market cross at 4k-8k entries
BULK_READ_MIN_ENTRIES = 6000


def _frozen(values, dtype) -> np.ndarray:
    out = np.asarray(values, dtype=dtype).view()
    out.flags.writeable = False
    return out


class Entries(Sequence):
    """Read-only ``(row, col, value)`` triples backed by three parallel arrays.

    Iteration yields plain ``(int, int, float)`` tuples, so an ``Entries``
    compares equal to the list of the same triples in the same order.
    """

    __slots__ = ("rows", "cols", "vals")

    def __init__(self, rows, cols, vals):
        self.rows = _frozen(rows, np.int64)
        self.cols = _frozen(cols, np.int64)
        self.vals = _frozen(vals, np.float64)
        if not (self.rows.ndim == 1 and self.rows.shape == self.cols.shape == self.vals.shape):
            raise DimensionMismatch("entry rows, columns and values must be equal-length 1-d arrays")

    def __len__(self) -> int:
        return self.vals.size

    def __getitem__(self, k: int) -> tuple[int, int, float]:
        return int(self.rows[k]), int(self.cols[k]), float(self.vals[k])

    def __iter__(self):
        return zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist())

    def __eq__(self, other):
        if not isinstance(other, (Entries, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"Entries({len(self)} triples)"


def as_entries(entries) -> Entries:
    """``entries`` as an ``Entries``; any other iterable of triples is converted once."""
    if isinstance(entries, Entries):
        return entries
    triples = list(entries)
    return Entries(*(zip(*triples) if triples else ((), (), ())))


def dense_entries(dense) -> tuple[Entries, int, int]:
    """The nonzero cells of a 2-d array in row-major order, with its shape."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise DimensionMismatch("expected a 2-d array")
    rows, cols = np.nonzero(dense)
    m, n = dense.shape
    return Entries(rows, cols, dense[rows, cols]), m, n


@dataclass(frozen=True, eq=False)
class SparseNonnegMatrix:
    """An m x n sparse matrix with strictly positive stored entries.

    ``row_*``/``col_*`` are the entries stable-sorted by row and by column:
    within each row and each column they keep the order they were given
    in; a view whose index was given in order (the row view of a row-major
    file) is a copy of the given arrays. Every array is the matrix's own.
    Instances are immutable and safe to share.
    """

    m: int
    n: int
    row_ptr: np.ndarray = field(repr=False)
    row_col: np.ndarray = field(repr=False)
    row_val: np.ndarray = field(repr=False)
    col_ptr: np.ndarray = field(repr=False)
    col_row: np.ndarray = field(repr=False)
    col_val: np.ndarray = field(repr=False)

    @property
    def nnz(self) -> int:
        return int(self.row_val.size)

    @property
    def min_entry(self) -> float:
        return float(self.row_val.min())

    @property
    def max_entry(self) -> float:
        return float(self.row_val.max())

    def entries(self) -> Entries:
        """The (row, col, value) triples in row-major order (0-based)."""
        return Entries(segment_index(self.row_ptr), self.row_col, self.row_val)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.m, self.n))
        dense[segment_index(self.row_ptr), self.row_col] = self.row_val
        return dense


def segment_index(ptr: np.ndarray) -> np.ndarray:
    """Each entry's segment (its row from ``row_ptr``, its column from ``col_ptr``)."""
    return np.repeat(np.arange(ptr.size - 1), np.diff(ptr))


def stable_order(idx: np.ndarray, size: int) -> np.ndarray | None:
    """The stable sort order of ``idx``, whose values lie in ``[0, size)``,
    or None where ``idx`` is already in order and so its own order.

    Indexing with the result gathers the entries sorted by ``idx``, ties
    in their given order. Out of order, the unique keys
    ``idx * nnz + position`` are sorted in place (one int64 array and no
    merge buffer, where a stable argsort needs up to half as much again),
    and each sorted key's position, ``key % nnz``, is the order: equal to
    ``np.argsort(idx, kind="stable")``, which serves where those keys
    would overflow int64.
    """
    nnz = idx.size
    if not (idx[1:] < idx[:-1]).any():
        return None
    if size * nnz > _INT64_MAX:
        return np.argsort(idx, kind="stable")
    keys = idx * np.int64(nnz)
    # positions are added a block at a time, so no second nnz-long array is made
    block = 1 << 16
    for lo in range(0, nnz, block):
        keys[lo:lo + block] += np.arange(lo, min(lo + block, nnz))
    keys.sort()
    keys %= nnz
    return keys


def first_offense(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                  m: int, n: int) -> tuple[int, str] | None:
    """The first entry, in the given order, that no m x n matrix may store.

    Returns its position and reason, or None: it lies ``"outside"`` m x n
    (0-based), its value is ``"non-finite"``, ``"negative"`` or ``"zero"``,
    or it repeats an earlier entry's coordinates (``"duplicate"``). An
    entry's own range or value offense is named before its being a repeat.
    """
    if m * n > _INT64_MAX:
        raise DimensionMismatch(f"dimensions {m}x{n} exceed the int64 coordinate range")
    outside = (rows < 0) | (rows >= m) | (cols < 0) | (cols >= n)
    bad = np.flatnonzero(outside | ~((vals > 0.0) & (vals < np.inf)))
    # the entries before the first bad one are in range: a repeat among
    # them comes first; otherwise the bad entry does
    k = int(bad[0]) if bad.size else vals.size
    keys = rows[:k] * np.int64(n) + cols[:k]
    # keys in order (a row-major file's) need no sort to show a repeat
    in_order = not (keys[1:] < keys[:-1]).any()
    ordered = keys if in_order else np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():
        # the stable order names the earliest repeat
        order = np.arange(k) if in_order else stable_order(keys, m * n)
        repeat = keys[order[1:]] == keys[order[:-1]]
        return int(order[1:][repeat].min()), "duplicate"
    if k == vals.size:
        return None
    if outside[k]:
        return k, "outside"
    if not np.isfinite(vals[k]):
        return k, "non-finite"
    return k, "negative" if vals[k] < 0.0 else "zero"


# each offense's error and message: build_matrix's, 0-based, and the
# reader's, 1-based, which differ in three of the five
_BUILD_ERRORS = {
    "outside": (DimensionMismatch, "entry ({i}, {j}) outside {m}x{n}"),
    "non-finite": (NegativeEntry, "entry ({i}, {j}) has non-finite value {v}"),
    "negative": (NegativeEntry, "entry ({i}, {j}) is negative: {v}"),
    "zero": (NegativeEntry, "entry ({i}, {j}) is zero; zeros are never stored"),
    "duplicate": (DuplicateEntry, "duplicate entry at ({i}, {j})"),
}
_READ_ERRORS = {
    **_BUILD_ERRORS,
    "outside": (MatrixMarketFormatError, "entry ({i}, {j}) outside declared {m}x{n}"),
    "non-finite": (MatrixMarketFormatError, "non-finite value {v} at ({i}, {j})"),
    "zero": (MatrixMarketFormatError, "explicit zero at ({i}, {j})"),
}


def _check_entries(rows, cols, vals, m: int, n: int, errors: dict, base: int) -> None:
    """Raise ``errors``' error for the first offense, coordinates ``base``-based."""
    offense = first_offense(rows, cols, vals, m, n)
    if offense is not None:
        k, reason = offense
        error, message = errors[reason]
        raise error(message.format(i=int(rows[k]) + base, j=int(cols[k]) + base,
                                   v=float(vals[k]), m=m, n=n))


def _in_order(values: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """``values`` gathered in a ``stable_order``; copied where it is None.

    The copy is what keeps the views fast: the given arrays are read-only,
    and ``take`` copies a read-only index array on every call.
    """
    return values.copy() if order is None else values[order]


def _segment_ptr(idx: np.ndarray, size: int, what: str, base: int) -> np.ndarray:
    """Segment pointer over ``size`` rows or columns; every one must be
    nonempty, or the first empty one is named ``base``-based."""
    # nnz entries cover at most nnz indices, so when size > nnz an empty one
    # lies below nnz + 1 and the counts need not span all of ``size``
    bound = min(size, idx.size + 1)
    counts = np.bincount(idx if bound == size else idx[idx < bound], minlength=bound)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptyRowOrColumn(f"{what} {int(empty[0]) + base} has no entries")
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def build_matrix(entries, m: int, n: int) -> SparseNonnegMatrix:
    """Build a validated matrix from (row, col, value) triples, 0-based.

    Rejects the ``first_offense``, then an empty row or column. Each view
    keeps the given order within every row or column (``stable_order``): a
    view whose index is out of order costs one sort of nnz int64 keys and a
    gather; one already in order costs neither, only a copy of the arrays.
    """
    if m < 1 or n < 1:
        raise DimensionMismatch(f"matrix dimensions must be positive, got {m}x{n}")
    entries = as_entries(entries)
    rows, cols, vals = entries.rows, entries.cols, entries.vals
    _check_entries(rows, cols, vals, m, n, _BUILD_ERRORS, 0)
    if not vals.size:
        raise EmptyRowOrColumn("matrix has no positive entries")
    row_ptr = _segment_ptr(rows, m, "row", 0)
    col_ptr = _segment_ptr(cols, n, "column", 0)

    # stable orders keep insertion order inside each row/column
    rorder = stable_order(rows, m)
    corder = stable_order(cols, n)
    return SparseNonnegMatrix(
        m=m,
        n=n,
        row_ptr=row_ptr,
        row_col=_in_order(cols, rorder),
        row_val=_in_order(vals, rorder),
        col_ptr=col_ptr,
        col_row=_in_order(rows, corder),
        col_val=_in_order(vals, corder),
    )


def from_dense(dense) -> SparseNonnegMatrix:
    return build_matrix(*dense_entries(dense))


def segment_sums(starts: np.ndarray, idx: np.ndarray, vals: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """``sum(vals[e] * x[idx[e]])`` over each segment of entries opened by ``starts``.

    The one sparse product body: ``Ax`` over the row view, ``A^T y`` over the
    column view, and the column sums of the gradient kernel over a block of
    columns. ``np.add.reduceat`` sums each segment in an order of its own:
    beyond two entries it is neither the stored left-to-right order nor
    that of ``np.add.reduce`` over the same slice. What the engines'
    bit-identity rests on is that a segment's sum does not depend on the
    segment's offset in the array, so a block of columns reduced on its
    own gets each column's sum exactly as the whole matrix does.
    """
    terms = x.take(idx)
    terms *= vals
    return np.add.reduceat(terms, starts)


def constraint_loads(matrix: SparseNonnegMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse product ``Ax``; each row's sum as ``segment_sums`` forms it."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (matrix.n,):
        raise DimensionMismatch(f"expected vector of length {matrix.n}, got {x.shape}")
    return segment_sums(matrix.row_ptr[:-1], matrix.row_col, matrix.row_val, x)


def column_loads(matrix: SparseNonnegMatrix, y: np.ndarray) -> np.ndarray:
    """Sparse product ``A^T y``; each column's sum as ``segment_sums`` forms it."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (matrix.m,):
        raise DimensionMismatch(f"expected vector of length {matrix.m}, got {y.shape}")
    return segment_sums(matrix.col_ptr[:-1], matrix.col_row, matrix.col_val, y)


_LOADTXT_ROW = re.compile(r" at row (\d+)(?:, column (\d+))?")


def _entry_block_error(exc: ValueError, fh, first_line: int) -> MatrixMarketFormatError:
    """loadtxt's error, pointed at the 1-based file line it is about.

    loadtxt counts only the data rows of the entry block (the block starts
    after file line ``first_line`` of ``fh``): 0-based when a token fails to
    convert, 1-based when the token count is wrong. A pipe cannot be read
    again (``fh`` is None): its error names the 1-based entry.
    """
    reason = str(exc).split("; use `usecols`")[0].rstrip(".")
    found = _LOADTXT_ROW.search(reason)
    if found is None:
        return MatrixMarketFormatError(f"malformed entry line: {reason}")
    target = int(found.group(1)) - (not reason.startswith("could not convert"))
    token = f" (token {found.group(2)})" if found.group(2) else ""
    reason = reason[:found.start()] + reason[found.end():]
    line_no = None
    if fh is not None:
        fh.seek(0)
        numbered = enumerate(itertools.islice(fh, first_line, None), first_line + 1)
        data = (no for no, line in numbered if line.split("%", 1)[0].strip())
        line_no = next(itertools.islice(data, target, None), None)
    if line_no is None:
        return MatrixMarketFormatError(f"malformed entry {target + 1}{token}: {reason}")
    return MatrixMarketFormatError(f"malformed entry line {line_no}{token}: {reason}")


def _undecodable_error(exc: UnicodeDecodeError, fh) -> MatrixMarketFormatError:
    """A byte that is not UTF-8, named by its 1-based file line and its place
    in that line, since the decoder counts from wherever its read began. A
    pipe cannot be read again (``fh`` is None): its error names the byte alone."""
    if fh is not None:
        fh.seek(0)
        for line_no, line in enumerate(fh.buffer, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                return MatrixMarketFormatError(f"malformed entry line {line_no}: {bad}")
    return MatrixMarketFormatError(f"malformed entry line: {exc.encoding!r} codec can't decode "
                                   f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}")


def read_matrix_market(path) -> tuple[Entries, int, int]:
    """Parse a MatrixMarket coordinate file into 0-based raw entries.

    Only the ``coordinate real general`` flavor is accepted. An entry line
    is two integer indices and a value; comments (``%``) and blank lines may
    appear anywhere. A size line that declares a shape below 1x1 or a
    negative entry count, the ``first_offense`` in file order, a wrong
    entry count and an empty row or column of the declared shape are
    rejected, every coordinate named 1-based. Returns (entries, m, n).

    The entries are read on from the open handle, unless the file is
    seekable and declares at least ``BULK_READ_MIN_ENTRIES`` entries: then
    loadtxt reopens it by path and reads in bulk. Both paths give the same
    entries, errors and messages.
    """
    with open(path, "r", encoding="utf-8") as fh:
        seekable = fh.seekable()
        try:
            header = fh.readline().rstrip("\n").rstrip("\r")
            if header.strip().lower() != MM_HEADER.lower():
                raise MatrixMarketFormatError(
                    f"unsupported MatrixMarket header {header!r}; expected {MM_HEADER!r}"
                )
            consumed = 1
            for line in iter(fh.readline, ""):
                consumed += 1
                size_line = line.strip()
                if size_line and not size_line.startswith("%"):
                    break
            else:
                raise MatrixMarketFormatError("missing size line")
            try:
                m, n, nnz = map(int, size_line.split())
            except ValueError as exc:
                raise MatrixMarketFormatError(f"malformed size line {size_line!r}") from exc
            if m < 1 or n < 1 or nnz < 0:
                raise MatrixMarketFormatError(
                    f"size line {size_line!r} must declare at least 1x1 and a nonnegative "
                    "entry count"
                )

            # given a path, loadtxt reads in bulk, ~50% faster at 1M entries
            # than from ``fh``, but through numpy's compressed-file opener,
            # whose first call in a process imports gzip and probes for
            # compressed variants (~1 ms); smaller files, and pipes, which can
            # be read only once, are read on from ``fh``
            bulk = seekable and nnz >= BULK_READ_MIN_ENTRIES
            source, skip = (path, consumed) if bulk else (fh, 0)
            with warnings.catch_warnings():
                # an empty entry block is not a format error; nnz decides below
                warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
                data = np.loadtxt(source, dtype=_MM_ENTRY, comments="%", ndmin=1,
                                  skiprows=skip, encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise _undecodable_error(exc, fh if seekable else None) from exc
        except ValueError as exc:  # loadtxt's alone: the size line's is converted above
            raise _entry_block_error(exc, fh if seekable else None, consumed) from exc

    rows = data["i"] - 1
    cols = data["j"] - 1
    vals = np.ascontiguousarray(data["v"])
    del data
    _check_entries(rows, cols, vals, m, n, _READ_ERRORS, 1)
    if vals.size != nnz:
        raise MatrixMarketFormatError(
            f"size line declares {nnz} entries, file has {vals.size}"
        )
    if vals.size:
        _segment_ptr(rows, m, "row", 1)
        _segment_ptr(cols, n, "column", 1)
    return Entries(rows, cols, vals), m, n


def write_matrix_market(path, matrix: SparseNonnegMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MM_HEADER + "\n")
        fh.write(f"{matrix.m} {matrix.n} {matrix.nnz}\n")
        for i, j, v in matrix.entries():
            fh.write(f"{i + 1} {j + 1} {v!r}\n")
