"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import probes
import run
from generate import generate, matrix_market_text, rng_for, write_instance
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def small(name: str):
    """Workload ``name`` shrunk to a 12x12 instance with 3 entries per row."""
    return dataclasses.replace(WORKLOADS[name], n=12, per_row=3, panel=1)


def solved(w, tmp_path, seed=0):
    """An instance of ``w``, its reference, and one real CLI result on it."""
    from fairpc.cli import run_cli

    inst = generate(w.n, w.per_row, rng_for(seed, w.name))
    mtx, out = tmp_path / "in.mtx", tmp_path / "out.json"
    write_instance(mtx, inst)
    ref = gate.reference(w, inst, mtx, tmp_path)
    assert run_cli([*w.cli_args, "--input", str(mtx), "--output", str(out)]) == 0
    return inst, ref, json.loads(out.read_text())


# ---- generator ----

def test_generator_gives_the_same_bytes_for_the_same_seed():
    def text(seed):
        return matrix_market_text(generate(30, 4, rng_for(seed, "pack-cert-30")))

    assert text(7) == text(7)
    assert text(7) != text(8)
    assert "np.float64" not in text(7)


def test_generator_fills_every_row_and_column_evenly():
    inst = generate(50, 5, rng_for(3, "x"))
    assert inst.nnz == 250
    assert np.unique(inst.rows * 50 + inst.cols).size == 250
    assert (np.bincount(inst.rows, minlength=50) == 5).all()
    assert (np.bincount(inst.cols, minlength=50) == 5).all()
    assert inst.vals.min() == 1.0 and inst.vals.max() == 100.0 and inst.width == 100.0


def test_generated_file_reads_back_exactly(tmp_path):
    from fairpc.matrix import read_matrix_market

    inst = generate(20, 3, rng_for(1, "x"))
    write_instance(tmp_path / "a.mtx", inst)
    entries, m, n = read_matrix_market(tmp_path / "a.mtx")
    assert (m, n) == (20, 20)
    assert entries == list(zip(inst.rows.tolist(), inst.cols.tolist(), inst.vals.tolist()))


# ---- correctness gate ----

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_passes_real_results_and_rejects_doctored_ones(name, tmp_path):
    inst, ref, result = solved(small(name), tmp_path)
    assert gate.check(inst, ref, 0, result) == []

    assert gate.check(inst, ref, 3, result) == ["exit code 3"]
    assert gate.check(inst, ref, 0, None) == ["no result JSON"]
    assert gate.check(inst, ref, 0, {"mode": "pack"})[0].startswith("malformed result")
    not_flagged = result | {"feasibility": result["feasibility"] | {"is_feasible": False}}
    assert "is_feasible is not true" in gate.check(inst, ref, 0, not_flagged)
    # scaled past the constraints: the largest packing load to 2, the least covering load to 1/2
    feasibility = result["feasibility"]
    if result["mode"] == "pack":
        scale = 2.0 / feasibility["max_load"]
    else:
        scale = 0.5 / feasibility["min_load"]
    infeasible = result | {"solution": [v * scale for v in result["solution"]]}
    assert any("load" in reason for reason in gate.check(inst, ref, 0, infeasible))
    if name != "pack-cert-30":  # an early stop has no fixed iteration count
        miscounted = result | {"iterations": result["iterations"] + 1}
        assert any("iterations" in reason for reason in gate.check(inst, ref, 0, miscounted))


def test_gate_references(tmp_path):
    _, ref, result = solved(small("cover-full-1k"), tmp_path)
    assert ref["iterations"] == result["params"]["K"] > 1000

    inst, ref, result = solved(small("pack-cert-30"), tmp_path)
    assert result["stopped_early"] is True
    assert gate.check(inst, ref, 0, result | {"stopped_early": False}) == [
        "did not stop on the certificate"
    ]
    shifted = result | {"solution": [v * 0.2 for v in result["solution"]]}
    assert any("optimum" in reason for reason in gate.check(inst, ref, 0, shifted))

    inst, ref, result = solved(small("rounds-100"), tmp_path)
    assert result["engine"] == "rounds" and "engine" not in ref["monolithic"]
    assert gate.check(inst, ref, 0, result | {"wall_time_s": 9.0}) == []
    assert gate.check(inst, ref, 0, result | {"objective": result["objective"] + 1e-12}) == [
        "deterministic fields differ from the monolithic engine"
    ]


# ---- probes ----

def test_probes_restore_every_original_and_time_self_spans(tmp_path):
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in probes.targets(True)]
    tracer = probes.Tracer()
    with pytest.raises(RuntimeError):
        with probes.installed(tracer, traced=True):
            assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
            solved(small("pack-cert-30"), tmp_path)
            raise RuntimeError("leave the block early")
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)

    step, evaluate = tracer.spans["packing.step"], tracer.spans["regularization.evaluate"]
    assert step.calls > 1000 and 0.0 < step.child < step.total
    assert tracer.counts["regularization.evaluated"] == 12 * evaluate.calls


def test_emit_json_is_timed_once_per_document():
    from fairpc import cli

    tracer = probes.Tracer()
    with probes.installed(tracer, traced=True):
        text = cli.emit_json({"a": [1.0, 2.0, {"b": None}]})
    assert tracer.spans["cli.emit_json"].calls == 1
    assert tracer.counts["cli.json_bytes"] == len(text)


# ---- the whole benchmark ----

def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "rounds-100", "--seed", "0", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 2, 0)
    assert set(line["metrics"]) == set(run.PER_LAYER)
    assert line["metrics"]["rounds.local_update_calls"]["value"] == 100 * 300
    assert not (BENCH / ".work").exists() or not any((BENCH / ".work").iterdir())


def test_benchmark_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = bench("--workload", "rounds-100", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
