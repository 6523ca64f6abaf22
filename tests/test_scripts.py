import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )


DEMO_HEADER = "== proportional-fair packing on a single link =="
TRACE_HEADER = " alpha   eps   iters stages stopped      utility        gap  max_load        mu"


@pytest.mark.parametrize("name, header", [
    ("run_demo.py", DEMO_HEADER), ("convergence_trace.py", TRACE_HEADER),
])
def test_script_runs(tmp_path, name, header):
    # the scripts call solve_packing, solve_covering and read sol.stages
    args = [str(tmp_path)] if name == "convergence_trace.py" else []
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
