"""Byte-for-byte CLI output of a small fixed panel, against recorded fixtures.

Each run goes through ``run_cli`` in-process. Its result JSON (without the
timing field ``wall_time_s``), its trace CSV, its stderr and its exit code
must equal the fixture in ``tests/golden/runs.json``. The instances are the
MatrixMarket files beside it.

SIMD ``exp`` and ``log`` can round differently on another CPU or numpy, so
the panel is skipped, with the reason, where the numpy version or numpy's
enabled CPU-dispatch targets differ from the manifest's.

A change that moves output bytes on purpose regenerates the fixtures with
``PYTHONPATH=src python tests/test_golden.py`` and names each changed field
in CHANGES.md.
"""

import io
import json
import pathlib
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from fairpc.cli import run_cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
WALL_TIME = re.compile(r', "wall_time_s": [^,}]+')

# (name, seed, m, n): a seeded draw, recorded once with write_matrix_market
INSTANCES = [("5x9", 2701, 5, 9), ("12x12", 2702, 12, 12)]
ENGINES = ["monolithic", "rounds"]
ALPHAS = [0.0, 0.5, 1.0, 2.0]
MAX_ITERS = 300
STRIDE = 50


def panel():
    """Every run of the panel, as (id, instance name, CLI flags)."""
    runs = []
    for name, *_ in INSTANCES:
        for engine in ENGINES:
            common = ["--engine", engine, "--max-iters", str(MAX_ITERS),
                      "--trace-stride", str(STRIDE)]
            for alpha in ALPHAS:
                eps = "0.05" if alpha > 1.0 else "0.1"
                flags = ["--mode", "pack", "--alpha", repr(alpha), "--epsilon", eps] + common
                runs.append((f"{name}-{engine}-pack-a{alpha:g}-full", name, flags))
                runs.append((f"{name}-{engine}-pack-a{alpha:g}-early", name,
                             flags + ["--early-stop"]))
            runs.append((f"{name}-{engine}-cover-b1", name,
                         ["--mode", "cover", "--beta", "1", "--epsilon", "0.2"] + common))
    return runs


def platform():
    """The numpy version and the CPU-dispatch targets numpy enables here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return {
        "numpy": np.__version__,
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch_enabled": [t for t in umath.__cpu_dispatch__
                                 if umath.__cpu_features__.get(t)],
    }


def run_one(flags, instance_name, trace_path):
    """Run the CLI once, in-process; return its exit code, its JSON without
    the timing field, its stderr and its trace CSV."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(flags + ["--input", str(GOLDEN / f"{instance_name}.mtx"),
                                "--trace", str(trace_path)])
    trace = trace_path.read_text(encoding="utf-8") if trace_path.exists() else None
    return {"exit": code, "json": WALL_TIME.sub("", out.getvalue()), "stderr": err.getvalue(),
            "trace": trace}


def mismatch():
    """Why the recorded bytes cannot be expected here, or None."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    for key, value in platform().items():
        if manifest[key] != value:
            return f"golden fixtures recorded with {key}={manifest[key]}, here {value}"
    return None


@pytest.fixture(scope="module")
def recorded():
    reason = mismatch()
    if reason is not None:
        pytest.skip(reason)
    return json.loads((GOLDEN / "runs.json").read_text(encoding="utf-8"))


PANEL = panel()


@pytest.mark.parametrize("run_id, instance_name, flags", PANEL, ids=[r[0] for r in PANEL])
def test_cli_bytes_match_the_recorded_panel(recorded, tmp_path, run_id, instance_name, flags):
    got = run_one(flags, instance_name, tmp_path / "trace.csv")
    assert got == recorded[run_id]


def record():
    """Write the instances (where missing), the manifest and every run's bytes."""
    import tempfile

    from fairpc.matrix import build_matrix, write_matrix_market

    GOLDEN.mkdir(exist_ok=True)
    for name, seed, m, n in INSTANCES:
        path = GOLDEN / f"{name}.mtx"
        if path.exists():
            continue
        rng = np.random.default_rng(seed)
        mask = rng.random((m, n)) < 0.3
        mask[np.arange(m), rng.integers(n, size=m)] = True
        mask[rng.integers(m, size=n), np.arange(n)] = True
        rows, cols = np.nonzero(mask)
        values = np.round(1.0 + 99.0 * rng.random(rows.size), 3)
        write_matrix_market(path, build_matrix(
            [(int(i), int(j), float(v)) for i, j, v in zip(rows, cols, values)], m, n))
    with tempfile.TemporaryDirectory() as tmp:
        runs = {run_id: run_one(flags, instance_name, pathlib.Path(tmp) / f"{run_id}.csv")
                for run_id, instance_name, flags in PANEL}
    (GOLDEN / "runs.json").write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    (GOLDEN / "manifest.json").write_text(json.dumps(platform(), indent=1) + "\n",
                                          encoding="utf-8")
    print(f"recorded {len(runs)} runs in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
