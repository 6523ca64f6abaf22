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


def test_source_loc_counts_total_and_code_lines(tmp_path):
    # code lines leave out blank lines, comments and docstrings, but not
    # other strings or the code that shares a line with a comment
    (tmp_path / "a.py").write_text(
        '"""Module\n\ndocstring."""\n\nimport os  # a comment\n\n# a comment line\n'
        'def f(x):\n    """Function docstring."""\n    s = """not a\n    docstring"""\n'
        '    return s\n', encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    proc = run_script("source_loc.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["a.py", "12", "5"], ["b.py", "1", "1"], ["all", "13", "6"]]


def test_source_loc_sums_every_module_of_the_package():
    proc = run_script("source_loc.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "fairpc").glob("*.py"))
    assert [row[0] for row in rows] == modules + ["all"]
    for name, total, code in rows[:-1]:
        text = (ROOT / "src" / "fairpc" / name).read_text(encoding="utf-8")
        assert int(total) == len(text.splitlines()) and 0 < int(code) < int(total)
    assert rows[-1][1:] == [str(sum(int(row[i]) for row in rows[:-1])) for i in (1, 2)]
