"""The benchmark's probes (``perfbench/probes.py``) find every name they
wrap, and every wrapped per-iteration call is still made through it.

A refactor that drops or rebinds a probed name would crash every traced
benchmark run with a ``KeyError``, or leave its per-layer metrics at 0.
"""

import importlib
import sys
from pathlib import Path

import pytest

from fairpc.cli import run_cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ID2 = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n"


@pytest.fixture(scope="module")
def probes():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("probes")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_probe_target_exists(probes):
    for owner, attr, name, _hook in probes.targets(True):
        assert attr in vars(owner), f"probe {name}: {owner!r} has no {attr}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_no_subclass_redefines_a_probed_attribute(probes):
    # a probe on a class attribute sees only the calls that reach it: a
    # subclass that redefines the attribute runs unprobed
    for owner, attr, name, _hook in probes.targets(True):
        if not isinstance(owner, type):
            continue
        for sub in _subclasses(owner):
            if sub.__module__.startswith("fairpc"):
                assert attr not in vars(sub), f"probe {name}: {sub.__qualname__} redefines {attr}"


def test_probes_count_every_step_and_trace_row(probes, tmp_path):
    mtx = tmp_path / "id2.mtx"
    mtx.write_text(ID2)
    common = ["--epsilon", "0.1", "--input", str(mtx), "--max-iters", "100",
              "--trace-stride", "10", "--output", str(tmp_path / "out.json")]
    tracer = probes.Tracer()
    with probes.installed(tracer, True):
        assert run_cli(["--mode", "cover", "--beta", "1", *common]) == 0
        assert run_cli(["--mode", "pack", "--alpha", "1", "--engine", "rounds", *common]) == 0
    spans = tracer.spans
    assert spans["covering.step"].calls == 100
    assert spans["packing.step"].calls == 100
    # each lockstep round computes every shard's block in one local_update call
    assert spans["rounds.local_update"].calls == 100
    # both engines evaluate the gradient through the one probed method
    assert spans["regularization.evaluate"].calls == 200
    # 11 trace rows (iterations 0, 10, ..., 100) per run, both through the one recorder
    assert spans["packing.record"].calls == 22
