"""Ingest: MatrixMarket text through the array parser into standard form."""

import contextlib
import dataclasses
import io

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairpc.cli import run_cli
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
