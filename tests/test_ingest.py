"""Ingest: MatrixMarket text through the array parser into standard form."""

import contextlib
import dataclasses
import io
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairpc import cli, matrix
from fairpc.cli import run_cli
from fairpc.errors import (
    AllZero,
    DimensionMismatch,
    DuplicateEntry,
    EmptyRowOrColumn,
    FairpcError,
    MatrixMarketFormatError,
    NegativeEntry,
)
from fairpc.matrix import MM_HEADER, build_matrix, read_matrix_market, write_matrix_market
from fairpc.problem import standardize

from conftest import random_entry_suite, random_suite


def _arrays(instance) -> dict:
    matrix = instance.matrix
    return {
        f.name: getattr(matrix, f.name)
        for f in dataclasses.fields(matrix)
        if isinstance(getattr(matrix, f.name), np.ndarray)
    }


def _python_parse(path):
    """Reference parse with int() and float(), one line at a time."""
    lines = path.read_text().splitlines()
    m, n, _ = (int(t) for t in lines[1].split())
    triples = [(int(i) - 1, int(j) - 1, float(v)) for i, j, v in (ln.split() for ln in lines[2:])]
    return triples, m, n


def test_ingest_bit_identical_to_list_path(tmp_path):
    count = 20
    for k, ((raw, m, n), inst) in enumerate(zip(random_entry_suite(count), random_suite(count))):
        path = tmp_path / f"{k}.mtx"
        write_matrix_market(path, build_matrix(raw, m, n))
        entries, m_got, n_got = read_matrix_market(path)
        triples, _, _ = _python_parse(path)
        assert (m_got, n_got) == (m, n) and entries == triples == raw

        got, got_rec = standardize(entries, m, n)
        ref, ref_rec = standardize(triples, m, n)
        # reference: the scaling as a per-entry Python loop
        c = min(v for _, _, v in triples if v > 0.0)
        assert got.matrix.entries() == [(i, j, v / c) for i, j, v in triples if v > 0.0]
        assert got_rec.c == ref_rec.c == c and got.rho == ref.rho == inst.rho
        for expected in (_arrays(ref), _arrays(inst)):
            for name, arr in _arrays(got).items():
                assert arr.dtype == expected[name].dtype, name
                assert arr.tobytes() == expected[name].tobytes(), name


# ---- exit-code contract over malformed MatrixMarket text ----

_index = st.one_of(
    st.integers(-1, 4).map(str),
    st.integers(1, 3).map(str),
    st.sampled_from(["1.0", "a", "+1", "0x1", "99999999999999999999"]),
)
_value = st.sampled_from(
    ["1.0", "2.5", "0", "0.0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "x", "1_0"]
)
_entry_line = st.one_of(
    st.tuples(_index, _index, _value).map(" ".join),
    st.tuples(_index, _index).map(" ".join),  # missing token
    st.tuples(_index, _index, _value, _value).map(" ".join),  # extra token
    st.tuples(_index, _index, _value).map(lambda t: " ".join(t) + " % note"),
    st.sampled_from(["", "   ", "% comment", "%"]),
)
_size_line = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 6)).map(
        lambda t: " ".join(map(str, t))
    ),
    st.sampled_from(["", "2 2", "2 2 x", "% comment"]),
)


@st.composite
def _mm_text(draw):
    """A k x k diagonal file, mostly valid, with malformed pieces mixed in."""
    header = draw(st.sampled_from(
        [MM_HEADER] * 8 + [MM_HEADER.upper(), "%%MatrixMarket matrix coordinate real symmetric", "junk"]
    ))
    k = draw(st.integers(1, 3))
    good = st.sampled_from(["1", "2.5", "1e-3", "100"])
    lines = [f"{i} {i} {draw(st.one_of(good, good, _value))}" for i in range(1, k + 1)]
    for extra in draw(st.lists(st.one_of(_entry_line, st.integers(0, k - 1)), max_size=4)):
        if isinstance(extra, int):
            extra = lines[extra]  # a repeated line: a duplicate entry
        lines.insert(draw(st.integers(0, len(lines))), extra)
    nnz = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("%"))
    nnz += draw(st.sampled_from([0, 0, 0, -1, 1]))
    size = draw(st.one_of(st.just(f"{k} {k} {nnz}"), st.just(f"{k} {k} {nnz}"), _size_line))
    return "\n".join([header, size, *lines]) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mm_text())
def test_malformed_matrix_market_exit_contract(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.mtx"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1",
                        "--max-iters", "3", "--input", str(path)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")


# ---- one decision on the first offending entry, wherever entries come in ----

# reason: (the reader's error and message, 1-based; build_matrix's, 0-based)
_OFFENSES = {
    "outside": ((MatrixMarketFormatError, "entry ({i}, {j}) outside declared {m}x{n}"),
                (DimensionMismatch, "entry ({i}, {j}) outside {m}x{n}")),
    "non-finite": ((MatrixMarketFormatError, "non-finite value {v} at ({i}, {j})"),
                   (NegativeEntry, "entry ({i}, {j}) has non-finite value {v}")),
    "negative": ((NegativeEntry, "entry ({i}, {j}) is negative: {v}"),
                 (NegativeEntry, "entry ({i}, {j}) is negative: {v}")),
    "zero": ((MatrixMarketFormatError, "explicit zero at ({i}, {j})"),
             (NegativeEntry, "entry ({i}, {j}) is zero; zeros are never stored")),
    "duplicate": ((DuplicateEntry, "duplicate entry at ({i}, {j})"),
                  (DuplicateEntry, "duplicate entry at ({i}, {j})")),
}


def _reference_offense(triples, m, n):
    """The first offending entry by a plain loop: (position, reason) or None."""
    seen = set()
    for k, (i, j, v) in enumerate(triples):
        if not (0 <= i < m and 0 <= j < n):
            return k, "outside"
        if not math.isfinite(v):
            return k, "non-finite"
        if v < 0.0:
            return k, "negative"
        if v == 0.0:
            return k, "zero"
        if (i, j) in seen:
            return k, "duplicate"
        seen.add((i, j))
    return None


_BAD_VALUES = [math.nan, math.inf, -math.inf, -2.0, 0.0, -0.0]


@st.composite
def _offending_entries(draw):
    """Small valid entry lists with offenses injected anywhere."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    good = st.sampled_from([1.0, 2.5, 9.0])
    triples = [(i, j, draw(good)) for i, j in draw(st.lists(cell, min_size=1, max_size=8))]
    kinds = st.sampled_from(["outside", "value", "repeat"])
    for kind in draw(st.lists(kinds, max_size=3)):
        if kind == "outside":
            i, j = draw(st.sampled_from([(-1, 0), (m, 0), (0, -1), (0, n)]))
            entry = (i, j, draw(st.one_of(good, st.sampled_from(_BAD_VALUES))))
        elif kind == "value":
            entry = (*draw(cell), draw(st.sampled_from(_BAD_VALUES)))
        else:
            entry = (*triples[draw(st.integers(0, len(triples) - 1))][:2], draw(good))
        triples.insert(draw(st.integers(0, len(triples))), entry)
    return triples, m, n


def _raised(fn, *args):
    try:
        fn(*args)
    except FairpcError as exc:
        return type(exc), str(exc)
    return None


def _read_both_ways(path):
    """read_matrix_market's error on ``path``, None if it reads: the same on
    the bulk path and on the path that reads on from the open handle."""
    outcomes = []
    for bound in (0, 2**62):
        with mock.patch.object(matrix, "BULK_READ_MIN_ENTRIES", bound):
            try:
                outcomes.append(read_matrix_market(path))
            except FairpcError as exc:
                outcomes.append((type(exc), str(exc)))
    bulk, handle = outcomes
    assert bulk == handle
    return None if isinstance(bulk[0], matrix.Entries) else bulk


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_offending_entries())
def test_reader_build_and_standardize_name_the_same_first_offense(tmp_path_factory, case):
    triples, m, n = case
    path = tmp_path_factory.getbasetemp() / "offense.mtx"
    path.write_text("\n".join([MM_HEADER, f"{m} {n} {len(triples)}",
                               *(f"{i + 1} {j + 1} {v!r}" for i, j, v in triples)]) + "\n")
    read, built = _read_both_ways(path), _raised(build_matrix, triples, m, n)
    offense = _reference_offense(triples, m, n)
    if offense is None:
        # no offense: the two agree on the first empty row or column, if any
        assert (read is None) == (built is None)
        if read is not None:
            assert read[0] is built[0] is EmptyRowOrColumn
            what, index, rest = built[1].split(" ", 2)
            assert read[1] == f"{what} {int(index) + 1} {rest}"
    else:
        k, reason = offense
        i, j, v = triples[k]
        (read_error, read_message), (build_error, build_message) = _OFFENSES[reason]
        assert read == (read_error, read_message.format(i=i + 1, j=j + 1, v=v, m=m, n=n))
        assert built == (build_error, build_message.format(i=i, j=j, v=v, m=m, n=n))
    # standardize drops exact zeros, then raises what the build raises
    nonzero = [t for t in triples if t[2] != 0.0]
    scaled = _raised(standardize, triples, m, n)
    if nonzero:
        assert scaled == _raised(build_matrix, nonzero, m, n)
    else:
        assert scaled == (AllZero, "all entries are zero")


@pytest.mark.parametrize("flags", [["--mode", "pack", "--alpha", "2", "--epsilon", "0.05",
                                    "--early-stop"],
                                   ["--mode", "cover", "--beta", "1", "--epsilon", "0.2"]])
@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_ingest_runs_inside_the_setup_spans(tmp_path, monkeypatch, flags, engine):
    # the benchmark's setup_s is the time inside cli.read_matrix_market and
    # cli.standardize: a build or an offense scan anywhere else in a run
    # would be charged to solve_s unseen
    depth, calls = [0], []

    def setup(fn):
        def inside(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return inside

    def watched(name, fn):
        def call(*args, **kwargs):
            calls.append((name, depth[0] > 0))
            return fn(*args, **kwargs)
        return call

    for name in ("build_matrix", "first_offense"):
        original = getattr(matrix, name)
        wrapper = watched(name, original)
        for module in [mod for key, mod in sys.modules.items() if key.split(".")[0] == "fairpc"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(cli, "read_matrix_market", setup(cli.read_matrix_market))
    monkeypatch.setattr(cli, "standardize", setup(cli.standardize))

    (raw, m, n), = random_entry_suite(1, max_dim=8)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, build_matrix(raw, m, n))
    calls.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(flags + ["--input", str(path), "--engine", engine, "--max-iters", "200",
                                "--trace", str(tmp_path / "t.csv")])
    assert code == 0
    assert {name for name, _ in calls} == {"build_matrix", "first_offense"}
    assert all(inside for _, inside in calls), calls


class _Reopened(Exception):
    pass


def test_small_files_are_read_without_numpys_file_opener(tmp_path, monkeypatch):
    # numpy's opener imports gzip and probes for compressed variants on its
    # first call in a process: a file below the bound never reaches it
    def reopen(*args, **kwargs):
        raise _Reopened(args)

    monkeypatch.setattr(np.lib._datasource, "open", reopen)

    def diagonal(k):
        path = tmp_path / f"diag{k}.mtx"
        path.write_text("\n".join([MM_HEADER, f"{k} {k} {k}",
                                   *(f"{i} {i} 2.0" for i in range(1, k + 1))]) + "\n")
        return path

    # the entry counts of rounds-100 and cover-full-1k in the benchmark
    small, large = diagonal(800), diagonal(12000)
    entries, m, n = read_matrix_market(small)
    assert (m, n) == (800, 800) and entries == [(i, i, 2.0) for i in range(800)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1",
                        "--max-iters", "3", "--input", str(small)])
    assert code == 0 and json.loads(out.getvalue())["iterations"] == 3
    with pytest.raises(_Reopened):
        read_matrix_market(large)
