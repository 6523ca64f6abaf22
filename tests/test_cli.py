import contextlib
import io
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairpc import (
    covering, derive_packing_params, packing, single_constraint_packing_optimum,
)
from fairpc.cli import emit_json, emit_trace, run_cli
from fairpc.matrix import from_dense, write_matrix_market
from fairpc.packing import TraceRow
from fairpc.regularization import SubThresholdBetaWarning

ID3 = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n2 2 1.0\n3 3 1.0\n"
ID2 = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n"
ROW11 = "%%MatrixMarket matrix coordinate real general\n1 2 2\n1 1 1.0\n1 2 1.0\n"


@pytest.fixture
def id3_path(tmp_path):
    p = tmp_path / "id3.mtx"
    p.write_text(ID3)
    return p


@pytest.fixture
def id2_path(tmp_path):
    p = tmp_path / "id2.mtx"
    p.write_text(ID2)
    return p


def run(args, capsys):
    code = run_cli(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pack_run_success(id3_path, capsys):
    code, out, _ = run(
        ["--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1",
         "--input", str(id3_path), "--max-iters", "4000"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasibility"]["is_feasible"] is True
    assert doc["iterations"] == 4000
    assert doc["params"]["K"] == 4360239
    assert len(doc["solution"]) == 3


def test_pack_full_budget_meets_bound(tmp_path, capsys):
    # full default budget on a 1x1 instance: objective within 3*eps*(1-a)*f* of 2
    p = tmp_path / "one.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
    code, out, _ = run(
        ["--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1", "--input", str(p)], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["iterations"] == doc["params"]["K"]
    assert doc["objective"] >= 2.0 - 0.3
    assert doc["feasibility"]["is_feasible"] is True


def test_pack_id3_documented_threshold(id3_path, capsys):
    # equilibrium is reached well before the full budget; 2e5 iterations
    # suffice for the documented objective >= 5.1 (full-K in the acceptance gate)
    code, out, _ = run(
        ["--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1",
         "--input", str(id3_path), "--max-iters", "200000"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] >= 5.1
    assert doc["feasibility"]["is_feasible"] is True


def test_cover_run_success(id2_path, capsys):
    code, out, _ = run(
        ["--mode", "cover", "--beta", "1", "--epsilon", "0.1", "--input", str(id2_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["feasibility"]["min_load"] >= 1.0
    assert doc["prescale"]["residual"] >= 1.0 - 0.05
    assert doc["dual"]["gap_estimate"] >= -1e-9


def test_epsilon_bound_named_in_error(id3_path, capsys):
    code, _, err = run(
        ["--mode", "pack", "--alpha", "2", "--epsilon", "0.2", "--input", str(id3_path)],
        capsys,
    )
    assert code == 2
    assert "0.1" in err and "alpha=2" in err  # names the 1/(10(alpha-1)) bound


@pytest.mark.parametrize("mode, flag", [("pack", "--alpha"), ("cover", "--beta")])
def test_missing_fairness_flag(id3_path, capsys, mode, flag):
    code, out, err = run(
        ["--mode", mode, "--epsilon", "0.1", "--input", str(id3_path)], capsys
    )
    assert code == 2 and out == ""
    assert err == f"error: --mode {mode} requires {flag}\n"


@pytest.mark.parametrize("flag, reason", [("--trace-stride", "trace_stride must be >= 1"),
                                          ("--max-iters", "max_iters override must be >= 1")])
@pytest.mark.parametrize("fairness", [["--mode", "pack", "--alpha", "1"],
                                      ["--mode", "cover", "--beta", "1"]])
def test_zero_count_flag_exits_2(id3_path, capsys, flag, reason, fairness):
    code, out, err = run(fairness + ["--epsilon", "0.1", "--input", str(id3_path), flag, "0"],
                         capsys)
    assert code == 2 and out == ""
    assert err == f"error: {reason}\n"


def test_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("garbage\n")
    code, _, err = run(
        ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(bad)], capsys
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flag", ["--output", "--trace"])
def test_unwritable_output_exits_2(id3_path, tmp_path, capsys, flag):
    target = tmp_path / "no" / "such" / "dir" / "out"
    code, out, err = run(
        ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(id3_path),
         "--max-iters", "5", flag, str(target)],
        capsys,
    )
    assert code == 2
    assert f"error: cannot write {target}" in err and "No such file" in err
    if flag == "--trace":
        # a run that fails leaves no result: none on stdout, no --output file
        assert out == ""
        result = tmp_path / "result.json"
        code, out, err = run(
            ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(id3_path),
             "--max-iters", "5", flag, str(target), "--output", str(result)],
            capsys,
        )
        assert code == 2 and out == "" and f"error: cannot write {target}" in err
        assert not result.exists()


def test_unknown_flag_exits_2(id3_path, capsys):
    code, _, _ = run(["--bogus"], capsys)
    assert code == 2


def test_internal_assertion_exits_3(id3_path, capsys, monkeypatch):
    import fairpc.cli as cli
    from fairpc.errors import FeasibilityViolation

    def boom(*args, **kwargs):
        raise FeasibilityViolation("synthetic")

    monkeypatch.setattr(cli, "solve_packing", boom)
    code, _, err = run(
        ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(id3_path)],
        capsys,
    )
    assert code == 3
    assert "assertion" in err


@pytest.mark.parametrize("error", [
    "TruncationDomainViolation", "FeasibilityViolation", "CertificateShortfall",
    "LocalityViolation",
])
def test_every_solver_assertion_exits_3(id3_path, capsys, monkeypatch, error):
    # the solve looks up ``step`` when it runs, so the patched one raises at the first step
    import fairpc.errors as errors
    import fairpc.packing as packing

    def raise_it(state):
        raise getattr(errors, error)("synthetic")

    monkeypatch.setattr(packing, "step", raise_it)
    code, out, err = run(
        ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(id3_path),
         "--max-iters", "10"],
        capsys,
    )
    assert code == 3
    assert err == "solver assertion failed: synthetic\n"
    assert out == ""


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_an_overloaded_packing_iterate_exits_3(id3_path, capsys, monkeypatch, engine):
    # the real feasibility check: an additive step 10**4 times the paper's
    # overloads every row at the first step, and the run names it
    rule = packing.update_rule

    def oversized(params, alpha):
        scale, update = rule(params, alpha)
        return (scale * 1e4 if alpha == 1.0 else scale), update

    monkeypatch.setattr(packing, "update_rule", oversized)
    code, out, err = run(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input",
                          str(id3_path), "--engine", engine], capsys)
    assert code == 3 and out == ""
    assert err == ("solver assertion failed: constraint load 59.972784361723875 exceeded 1 "
                   "at iteration 1; this indicates an implementation bug\n")


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_a_covering_certificate_shortfall_exits_3(id3_path, capsys, monkeypatch, engine):
    # the real certificate check: with no averaging the pre-scale covering
    # is 0, which fails only a run that spent the full budget
    monkeypatch.setattr(covering, "running_average", lambda y_avg, y_new, k: y_avg)
    argv = ["--mode", "cover", "--beta", "1", "--epsilon", "0.1", "--input", str(id3_path),
            "--engine", engine]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert err == ("solver assertion failed: pre-scale certificate 0.0 fell below 0.95 after "
                   "the full budget; this indicates a bug\n")
    code, out, _ = run(argv + ["--max-iters", "100"], capsys)
    assert code == 0 and json.loads(out)["feasibility"]["is_feasible"] is False


def test_golden_byte_stability(id3_path, tmp_path, capsys):
    args = ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1",
            "--input", str(id3_path), "--max-iters", "500"]
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(args + ["--output", str(path)], capsys)
        assert code == 0
        outputs.append(path.read_bytes())
    # identical runs are byte-identical apart from the wall-clock field
    norm = [re.sub(rb'"wall_time_s": [^}]*', b'"wall_time_s": X', o) for o in outputs]
    assert norm[0] == norm[1]
    assert norm[0] != outputs[0]  # the wall-time really was there


def test_engine_rounds_matches_monolithic(id2_path, tmp_path, capsys):
    base = ["--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1",
            "--input", str(id2_path), "--max-iters", "60"]
    out_a = tmp_path / "mono.json"
    out_b = tmp_path / "dist.json"
    assert run(base + ["--output", str(out_a)], capsys)[0] == 0
    assert run(base + ["--engine", "rounds", "--output", str(out_b)], capsys)[0] == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    assert a["solution"] == b["solution"]
    assert a["objective"] == b["objective"]


def test_trace_file(id3_path, tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code, _, _ = run(
        ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(id3_path),
         "--max-iters", "100", "--trace", str(trace), "--trace-stride", "10"],
        capsys,
    )
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,utility,max_load,f_r,gap"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(3 * math.log(0.9 / 3), rel=1e-12)
    for line in lines[1:]:
        assert float(line.split(",")[2]) <= 1.0


def test_trace_row0_value(tmp_path, capsys):
    p = tmp_path / "one.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
    trace = tmp_path / "t.csv"
    code, _, _ = run(
        ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(p),
         "--max-iters", "5", "--trace", str(trace)],
        capsys,
    )
    assert code == 0
    row0 = trace.read_text().splitlines()[1].split(",")
    assert float(row0[1]) == pytest.approx(math.log(0.9), rel=1e-12)


def test_emit_trace_overflow_and_empty(tmp_path):
    path = tmp_path / "t.csv"
    emit_trace([], path)
    assert path.read_text() == "iter,utility,max_load,f_r,gap\n"
    emit_trace([TraceRow(k=1, utility=-1.0, max_load=0.5, f_r=math.inf, gap=None)], path)
    body = path.read_text().splitlines()[1]
    assert body.endswith("+overflow,")


def test_emit_json_formatting():
    text = emit_json({"a": 0.1, "b": [1.0, True, None], "c": "x\"y"})
    assert text == '{"a": 0.10000000000000001, "b": [1, true, null], "c": "x\\"y"}'
    assert json.loads(text) == {"a": 0.1, "b": [1.0, True, None], "c": 'x"y'}


EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, 3.0]


@pytest.mark.parametrize("special", [None, math.nan, math.inf, -math.inf])
def test_emit_json_float_arrays_byte_identical_to_per_value(special):
    rng = np.random.default_rng(11)
    values = EDGE_FLOATS + list(rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50))
    if special is not None:
        values.insert(17, special)
    arr = np.array(values)
    per_value = "[" + ", ".join(emit_json(float(v)) for v in values) + "]"
    assert emit_json(arr) == per_value == emit_json(list(arr))
    assert emit_json({"v": arr}) == '{"v": ' + per_value + "}"
    assert emit_json(np.array([])) == "[]"
    if special is None:
        assert json.loads(emit_json(arr)) == values
    else:
        assert ('"nan"' if math.isnan(special) else f'"{special}"') in emit_json(arr)


def test_json_roundtrip_lossless(id3_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    code, _, _ = run(
        ["--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1", "--input", str(id3_path),
         "--max-iters", "777", "--output", str(out)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    from fairpc import SolverConfig, instance_from_dense, solve_packing

    inst, _ = instance_from_dense(np.eye(3))
    sol = solve_packing(inst, SolverConfig(fairness=0.5, epsilon=0.1, max_iters=777))
    assert doc["solution"] == list(sol.x)  # 17 significant digits round-trip exactly
    assert doc["objective"] == sol.utility


@pytest.mark.parametrize(
    "flags",
    [["--mode", "pack", "--alpha", "nan"], ["--mode", "pack", "--alpha", "inf"],
     ["--mode", "cover", "--beta", "nan"], ["--mode", "cover", "--beta", "inf"],
     # finite, but 10|alpha - 1| is not: the epsilon ceiling is 0 whatever epsilon is
     ["--mode", "pack", "--alpha", "1e308"]],
)
def test_non_finite_fairness_exits_2(id3_path, capsys, flags):
    code, out, err = run(flags + ["--epsilon", "0.1", "--input", str(id3_path)], capsys)
    reason = "alpha=1e+308 is too large" if flags[-1] == "1e308" else "must be finite"
    assert code == 2
    assert reason in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
@pytest.mark.parametrize("beta", ["700", "1e6"])
def test_cover_beta_whose_start_underflows_exits_2(id3_path, capsys, recwarn, engine, beta):
    code, out, err = run(["--mode", "cover", "--beta", beta, "--epsilon", "0.1",
                          "--input", str(id3_path), "--engine", engine], capsys)
    assert code == 2
    assert err.startswith("error: covering beta=") and "underflows to 0" in err
    assert err.count("\n") == 1 and out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cover_beta_with_subnormal_start_still_solves(id3_path, capsys):
    # 3**-677 is subnormal but positive: the largest beta the 3x3 identity admits
    code, out, _ = run(["--mode", "cover", "--beta", "676", "--epsilon", "0.1",
                        "--input", str(id3_path)], capsys)
    assert code == 0 and json.loads(out)["feasibility"]["is_feasible"]


@pytest.mark.parametrize(
    "content, reason",
    [
        ("2 2 2\n1 1 1.0\n2 2 nan\n", "non-finite value nan at (2, 2)"),
        ("1 2 2\n1 1 1e-300\n1 2 1e300\n", "width 1e+300/1e-300"),
        ("2 2 0\n", "no entries given"),
        ("% a header and comments, no size line\n%\n", "missing size line"),
        ("1000000000000000 1 1\n1 1 1.0\n", "row 2 has no entries"),
        # every coordinate is the file's, 1-based
        ("2 3 1\n2 3 -4.0\n", "entry (2, 3) is negative: -4.0"),
        ("2 3 2\n1 1 1.0\n2 2 1.0\n", "column 3 has no entries"),
        # the first offending entry in file order, whatever its offense
        ("2 2 3\n1 1 -1.0\n2 2 1.0\n1 2 0\n", "entry (1, 1) is negative: -1.0"),
        ("10000000000 10000000000 1\n1 1 1.0\n", "int64"),
        # width 1e308 is finite, but 4*m*n*rho/eps is not
        ("1 2 2\n1 1 1e-154\n1 2 1e154\n", "derived constant beta = 0.0"),
    ],
)
@pytest.mark.parametrize("flags", [["--mode", "pack", "--alpha", "1"],
                                   ["--mode", "cover", "--beta", "1"]])
def test_bad_matrix_exits_2_with_reason(tmp_path, capsys, content, reason, flags):
    if flags[1] == "cover":
        reason = reason.replace("constant beta =", "constant beta floor =")
    p = tmp_path / "bad.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n" + content)
    code, out, err = run(flags + ["--epsilon", "0.1", "--input", str(p)], capsys)
    assert code == 2
    assert err.startswith("error: ") and reason in err
    assert err.count("\n") == 1  # one line naming the reason, no warnings
    assert out == ""


@pytest.mark.parametrize("size_line, body", [
    ("-1 2 0", ""), ("0 0 0", ""), ("2 -3 0", ""), ("0 3 1", "1 1 1.0\n"), ("2 2 -1", ""),
])
def test_non_positive_declared_shape_exits_2_naming_the_size_line(tmp_path, capsys, size_line,
                                                                   body):
    p = tmp_path / "bad.mtx"
    p.write_text(f"%%MatrixMarket matrix coordinate real general\n{size_line}\n{body}")
    code, out, err = run(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1",
                          "--input", str(p)], capsys)
    assert code == 2 and out == ""
    assert err == (f"error: size line {size_line!r} must declare at least 1x1 "
                   "and a nonnegative entry count\n")


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_dropped_trace_rows_are_counted(tmp_path, capsys, engine):
    # 5001 rows (iterations 0..5000) into a 4096-row buffer: the oldest 905 go
    p = tmp_path / "one.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n")
    trace = tmp_path / "t.csv"
    code, out, _ = run(
        ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(p),
         "--max-iters", "5000", "--trace-stride", "1", "--trace", str(trace),
         "--engine", engine],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["trace_rows_dropped"] == 905
    lines = trace.read_text().splitlines()
    assert lines[1].split(",")[0] == "905" and len(lines) == 1 + 4096
    # without --trace no row is built, but every one is counted
    code, out, _ = run(
        ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(p),
         "--max-iters", "5000", "--trace-stride", "1", "--engine", engine],
        capsys,
    )
    assert code == 0 and json.loads(out)["trace_rows_dropped"] == 905


SPARSE34 = ("%%MatrixMarket matrix coordinate real general\n3 4 7\n"
            "1 1 2.0\n1 2 1.0\n1 4 1.0\n2 2 5.0\n2 3 1.5\n3 3 1.0\n3 4 4.0\n")


@pytest.mark.parametrize("flags", [
    ["--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1"],
    ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1"],
    ["--mode", "pack", "--alpha", "2", "--epsilon", "0.05"],
    ["--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1", "--early-stop"],
    ["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--early-stop"],
    ["--mode", "pack", "--alpha", "2", "--epsilon", "0.05", "--early-stop"],
    ["--mode", "cover", "--beta", "1", "--epsilon", "0.1"],
])
def test_json_does_not_depend_on_trace(tmp_path, capsys, flags):
    # a run without --trace builds no trace row: its JSON is the traced
    # run's, byte for byte apart from the wall time, on both engines (at
    # alpha = 2 the early-stop run ends at an untraced check, iteration 200)
    p = tmp_path / "sparse.mtx"
    p.write_text(SPARSE34)
    outputs = {}
    for engine in ("monolithic", "rounds"):
        for traced in (False, True):
            out = tmp_path / f"{engine}{traced}.json"
            argv = [*flags, "--input", str(p), "--max-iters", "400", "--trace-stride", "30",
                    "--engine", engine, "--output", str(out)]
            if traced:
                argv += ["--trace", str(tmp_path / "t.csv")]
            assert run(argv, capsys)[0] == 0
            text = re.sub(r'"wall_time_s": [^}]*', '"wall_time_s": 0', out.read_text())
            outputs[engine, traced] = text.replace(f'"engine": "{engine}"', '"engine": ""')
    assert len(set(outputs.values())) == 1
    # the alpha = 2 run without --early-stop reports its last row's certificate
    doc = json.loads(outputs["rounds", False])
    uncertified = flags[1] == "pack" and float(flags[3]) <= 1.0 and "--early-stop" not in flags
    assert (doc["dual"] is None) == uncertified


def test_empty_trace_path_keeps_no_trace(id2_path, tmp_path, monkeypatch, capsys):
    # an empty --trace path is no trace: exit 0, no file, and no row built
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(packing, "TraceRow", side_effect=packing.TraceRow) as rows:
        code, out, _ = run(["--mode", "pack", "--alpha", "2", "--epsilon", "0.1", "--input",
                            str(id2_path), "--max-iters", "50", "--trace", ""], capsys)
    assert code == 0 and rows.call_count == 0 and json.loads(out)["dual"] is not None
    assert sorted(q.name for q in tmp_path.iterdir()) == ["id2.mtx"]


def test_no_trace_rows_dropped_is_reported_as_zero(id2_path, capsys):
    for flags in (["--mode", "pack", "--alpha", "0.5"], ["--mode", "cover", "--beta", "1"]):
        code, out, _ = run(flags + ["--epsilon", "0.1", "--input", str(id2_path),
                                    "--max-iters", "50"], capsys)
        assert code == 0 and json.loads(out)["trace_rows_dropped"] == 0


_special = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "1e-320", "1e400",
                            "x"])
_fairness = st.one_of(
    _special,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 5.0).map(repr),
    st.floats(5.0, 1e6).map(repr),
)
_epsilon = st.one_of(
    _special,
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-6, 0.5).map(repr),
    st.floats(1e-300, 1e-6).map(repr),
)
_count = st.one_of(
    st.integers(1, 50).map(str),
    st.integers(-3, 0).map(str),
    st.sampled_from(["nan", "inf", "1e3", "2.5", "x"]),
)
_stride = st.one_of(
    st.integers(-3, 60).map(str),
    st.just(str(10**30)),
    st.sampled_from(["nan", "inf", "1.5", "x"]),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(["pack", "cover"]), fairness=_fairness, epsilon=_epsilon,
       max_iters=_count, stride=st.one_of(st.none(), _stride),
       engine=st.sampled_from(["monolithic", "rounds"]), early_stop=st.booleans())
def test_parameter_values_exit_contract(id3_path, mode, fairness, epsilon, max_iters, stride,
                                        engine, early_stop):
    flag = "--alpha" if mode == "pack" else "--beta"
    argv = [f"--mode={mode}", f"{flag}={fairness}", f"--epsilon={epsilon}",
            f"--max-iters={max_iters}", f"--engine={engine}", "--input", str(id3_path)]
    if stride is not None:
        argv.append(f"--trace-stride={stride}")
    if early_stop:
        argv.append("--early-stop")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    # a positive beta below the floor warns; no other warning escapes
    assert all(issubclass(w.category, SubThresholdBetaWarning) for w in caught), caught
    if code == 0:
        doc = json.loads(out.getvalue())
        assert doc["iterations"] <= 50
        assert bool(caught) == doc["params"].get("below_guarantee_floor", False)


ROW3_WIDE = "%%MatrixMarket matrix coordinate real general\n1 3 3\n1 1 1\n1 2 1000\n1 3 1000\n"
ROW5 = ("%%MatrixMarket matrix coordinate real general\n1 5 5\n"
        "1 1 100\n1 2 100\n1 3 100\n1 4 1\n1 5 1\n")


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
@pytest.mark.parametrize("matrix, extra", [
    (ID3, []),                      # the paper's start (1 - eps)/(n rho) = 0.3333
    (ROW3_WIDE, ["--early-stop"]),  # the scaled start (1 - eps)/max_i (A 1)_i = 0.0005
])
def test_alpha_whose_start_overflows_exits_2(tmp_path, capsys, recwarn, engine, matrix, extra):
    p = tmp_path / "a.mtx"
    p.write_text(matrix)
    code, out, err = run(["--mode", "pack", "--alpha", "1000", "--epsilon", "0.0001",
                          "--input", str(p), "--engine", engine] + extra, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: alpha=1000 is too large for n=3, rho=")
    assert "overflows" in err and err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_early_stop_above_one_proves_the_bound(tmp_path, capsys, engine):
    # the rule once compared the gap with 10 eps (alpha-1) |f|: here it fired at
    # iteration 0 with utility -2777.8, below the proven -2048
    p = tmp_path / "row5.mtx"
    p.write_text(ROW5)
    code, out, _ = run(["--mode", "pack", "--alpha", "2", "--epsilon", "0.1", "--early-stop",
                        "--trace-stride", "25", "--input", str(p), "--engine", engine], capsys)
    doc = json.loads(out)
    opt = single_constraint_packing_optimum([100.0, 100.0, 100.0, 1.0, 1.0], 2.0).objective
    assert code == 0 and opt == pytest.approx(-1024.0)
    assert doc["stopped_early"] and doc["iterations"] > 0
    assert doc["objective"] >= (1.0 + 10 * 0.1 * (2.0 - 1.0)) * opt   # -2048
    assert doc["guarantee"]["basis"].startswith("certified")
    assert 0.0 <= doc["guarantee"]["eps_f"] <= 10 * 0.1 * abs(opt)


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
@pytest.mark.parametrize("alpha", ["1", "2"])
def test_early_stop_trace_ends_on_the_reported_gap(tmp_path, capsys, alpha, engine):
    # under --early-stop a row's gap is the least dual bound seen minus the
    # row's value, so the stop row shows the gap that proved the stop; at
    # alpha = 1 the stop row's own certificate gives about 3,640 here, the
    # least bound 3.48
    rng = np.random.default_rng(1)
    dense = np.zeros((30, 30))
    offsets = rng.choice(30, 4, replace=False)   # four entries in every row and column
    for i in range(30):
        dense[i, (i + offsets) % 30] = rng.uniform(1.0, 100.0, 4)
    p = tmp_path / "m30.mtx"
    write_matrix_market(p, from_dense(dense))
    csv = tmp_path / "t.csv"
    code, out, _ = run(["--mode", "pack", "--alpha", alpha, "--epsilon", "0.05", "--early-stop",
                        "--trace-stride", "1000", "--input", str(p), "--engine", engine,
                        "--trace", str(csv)], capsys)
    doc = json.loads(out)
    last = csv.read_text().splitlines()[-1].split(",")
    assert code == 0 and doc["stopped_early"] and int(last[0]) == doc["iterations"]
    assert float(last[4]) == doc["dual"]["gap_estimate"]


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_early_stop_default_stride_is_capped(tmp_path, capsys, engine):
    # the certificate is checked every 50 iterations whatever the stride, so
    # at the default stride of K // 1000 = 72,878 the run still stops early
    p = tmp_path / "row5.mtx"
    p.write_text(ROW5)
    code, out, _ = run(["--mode", "pack", "--alpha", "2", "--epsilon", "0.1", "--early-stop",
                        "--input", str(p), "--engine", engine], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["stopped_early"] and doc["iterations"] <= 1000


def test_early_stop_budget_spent_claims_only_its_certified_gap(tmp_path, capsys):
    p = tmp_path / "row5.mtx"
    p.write_text(ROW5)
    code, out, _ = run(["--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1", "--early-stop",
                        "--max-iters", "3", "--trace-stride", "1", "--input", str(p)], capsys)
    doc = json.loads(out)
    assert code == 0 and not doc["stopped_early"] and doc["iterations"] == 3
    # no a-priori radius: the certified gap (scale factor 1 here) and why no more
    assert doc["guarantee"]["eps_f"] == doc["dual"]["gap_estimate"] > 0.0
    assert doc["guarantee"]["form"].startswith("g-f")
    assert "budget spent" in doc["guarantee"]["basis"]


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_early_stop_reports_its_stages(tmp_path, capsys, engine):
    # eps 0.05 at alpha 2 runs the stages 0.1 and 0.05; without the flag the
    # guarantee block keeps its three fields
    p = tmp_path / "row5.mtx"
    p.write_text(ROW5)
    args = ["--mode", "pack", "--alpha", "2", "--epsilon", "0.05", "--trace-stride", "25",
            "--input", str(p), "--engine", engine]
    code, out, _ = run(args + ["--early-stop"], capsys)
    doc = json.loads(out)
    stages = doc["guarantee"]["stages"]
    assert code == 0 and doc["stopped_early"]
    assert [s["epsilon"] for s in stages] == [0.1, 0.05]
    assert 0 <= stages[0]["until"] <= stages[1]["until"] == doc["iterations"]
    assert all(list(s) == ["epsilon", "until", "multiplier"] for s in stages)
    assert 8.0 >= stages[0]["multiplier"] >= stages[1]["multiplier"] >= 1.0
    # the reported constants are the target's
    assert doc["params"]["K"] == derive_packing_params(1, 5, 100.0, 2.0, 0.05).K
    opt = single_constraint_packing_optimum([100.0, 100.0, 100.0, 1.0, 1.0], 2.0).objective
    assert doc["objective"] >= (1.0 + 10 * 0.05 * (2.0 - 1.0)) * opt
    code, out, _ = run(args + ["--max-iters", "50"], capsys)
    assert code == 0 and list(json.loads(out)["guarantee"]) == ["eps_f", "form", "basis"]
