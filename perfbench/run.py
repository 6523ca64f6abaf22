"""fairpc benchmark: seeded MatrixMarket in, checked solution out.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's instances, and their references are
computed before the clock starts. Then ``fairpc.cli.run_cli`` runs on them,
one fresh child process at a time (a closed loop with one client), until
``--seconds`` have passed. Every run's output goes through the correctness
gate. With ``--trace 0`` the result line carries the end-to-end metrics,
medians over the untraced runs. With ``--trace 1`` untraced and traced runs
alternate on each instance, and the result line carries the per-layer
metrics of the traced runs plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
say the same for a human reader. The exit code is nonzero, with no result
line, when the program cannot be set up at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import check, reference
from generate import generate, rng_for, write_instance
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# hard stop for one invocation, set-up included: no child starts after it,
# and a child still running then is killed
RUN_DEADLINE_S = 170.0

# name -> unit; all are lower-is-better
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "iterations": "count",
    "us_per_iter": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "matrix.read_s": "s",
    "problem.standardize_s": "s",
    "matrix.bytes_per_nnz": "B/nnz",
    "regularization.evaluate_s": "s",
    "regularization.evaluate_calls": "count",
    "regularization.evaluate_ns_per_nnz": "ns",
    "regularization.loads_of_s": "s",
    "regularization.loads_of_calls": "count",
    "regularization.f_r_s": "s",
    "regularization.f_r_calls": "count",
    "regularization.clipped_frac": "ratio",
    "packing.step_self_s": "s",
    "packing.step_calls": "count",
    "packing.record_s": "s",
    "packing.record_calls": "count",
    "packing.finalize_s": "s",
    "covering.step_self_s": "s",
    "covering.step_calls": "count",
    "covering.finalize_s": "s",
    "rounds.self_s": "s",
    "rounds.local_update_s": "s",
    "rounds.local_update_calls": "count",
    "cli.emit_json_s": "s",
    "cli.json_bytes": "B",
    "cli.emit_trace_s": "s",
    "trace_overhead": "ratio",
}
SOLVE_SPANS = ("solve.packing", "solve.covering", "solve.rounds")


def end_to_end(record: dict, result: dict) -> dict[str, float]:
    spans = record["spans"]
    setup = spans["matrix.read"]["total"] + spans["problem.standardize"]["total"]
    solve = sum(spans[s]["total"] for s in SOLVE_SPANS)
    iterations = result["iterations"]
    return {
        "wall_s": record["wall_s"],
        "setup_s": setup,
        "solve_s": solve,
        "iterations": iterations,
        "us_per_iter": solve / iterations * 1e6,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record: dict) -> dict[str, float]:
    """Layer metrics of one traced run; a layer the run never entered reads 0."""
    spans, counts = record["spans"], record["counts"]

    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_time(name):
        span = spans.get(name, {})
        return span.get("total", 0.0) - span.get("child", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    nnz = counts["matrix.nnz"]
    evaluate_calls = calls("regularization.evaluate")
    return {
        "matrix.read_s": total("matrix.read"),
        "problem.standardize_s": total("problem.standardize"),
        "matrix.bytes_per_nnz": counts["matrix.bytes"] / nnz,
        "regularization.evaluate_s": total("regularization.evaluate"),
        "regularization.evaluate_calls": evaluate_calls,
        "regularization.evaluate_ns_per_nnz":
            ratio(total("regularization.evaluate") * 1e9, evaluate_calls * nnz),
        "regularization.loads_of_s": total("regularization.loads_of"),
        "regularization.loads_of_calls": calls("regularization.loads_of"),
        "regularization.f_r_s": total("regularization.f_r"),
        "regularization.f_r_calls": calls("regularization.f_r"),
        "regularization.clipped_frac": ratio(
            counts.get("regularization.clipped", 0), counts.get("regularization.evaluated", 0)
        ),
        "packing.step_self_s": self_time("packing.step"),
        "packing.step_calls": calls("packing.step"),
        "packing.record_s": total("packing.record"),
        "packing.record_calls": calls("packing.record"),
        "packing.finalize_s": total("packing.finalize"),
        "covering.step_self_s": self_time("covering.step"),
        "covering.step_calls": calls("covering.step"),
        "covering.finalize_s": total("covering.finalize"),
        "rounds.self_s": self_time("solve.rounds"),
        "rounds.local_update_s": total("rounds.local_update"),
        "rounds.local_update_calls": calls("rounds.local_update"),
        "cli.emit_json_s": total("cli.emit_json"),
        "cli.json_bytes": counts["cli.json_bytes"],
        "cli.emit_trace_s": total("cli.emit_trace"),
    }


class Bench:
    """One workload on one seed: its instances, references and run log."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w = w
        self.work = work
        self.instances = []
        rng = rng_for(seed, w.name)
        for k in range(w.panel):
            inst = generate(w.n, w.per_row, rng)
            mtx = work / f"instance{k}.mtx"
            size = write_instance(mtx, inst)
            print(f"instance {k}: {inst.m}x{inst.n} nnz={inst.nnz} bytes={size} "
                  f"width={inst.width!r}", flush=True)
            self.instances.append((inst, mtx, reference(w, inst, mtx, work)))
        self.attempted = 0
        self.failed = 0

    def run(self, k: int, traced: bool, deadline: float) -> dict | None:
        """One gated child run on instance ``k``; its samples, or None if it failed."""
        inst, mtx, ref = self.instances[k]
        out = self.work / "result.json"
        out.unlink(missing_ok=True)
        argv = [*self.w.cli_args, "--input", str(mtx), "--output", str(out)]
        if self.w.csv_trace:
            argv += ["--trace", str(self.work / "trace.csv")]
        cmd = [sys.executable, str(HERE / "child.py"), "1" if traced else "0", *argv]
        self.attempted += 1
        label = f"run {self.attempted} ({'traced' if traced else 'untraced'}, instance {k})"
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.perf_counter()))
            if proc.returncode != 0:
                reasons = [f"child process failed: {proc.stderr.strip()[-500:]}"]
            else:
                record = json.loads(proc.stdout.splitlines()[-1])
                result = json.loads(out.read_text()) if record["exit"] == 0 else None
                reasons = check(inst, ref, record["exit"], result)
        except subprocess.TimeoutExpired:
            reasons = ["timed out"]
        except (OSError, ValueError, IndexError) as exc:
            reasons = [f"unreadable output: {exc!r}"]
        if reasons:
            self.failed += 1
            print(f"{label} FAILED: {'; '.join(reasons)}", flush=True)
            return None
        sample = end_to_end(record, result) | (per_layer(record) if traced else {})
        print(f"{label}: " + " ".join(f"{m}={sample[m]:.6g}" for m in END_TO_END), flush=True)
        return sample


def measure(bench: Bench, seconds: float, traced: bool,
            deadline: float) -> dict[str, float] | None:
    """Run children for ``seconds``, in whole passes; medians of their samples.

    None when no run passed the gate, so there is nothing to report.
    """
    untraced, traced_runs, overheads = [], [], []
    start = time.perf_counter()
    k = 0
    panel = len(bench.instances)
    # whole passes over the panel, so every instance weighs the same in the medians
    while k == 0 or time.perf_counter() < deadline and (
        k % panel or time.perf_counter() - start < seconds
    ):
        inst = k % panel
        plain = bench.run(inst, False, deadline)
        if plain is not None:
            untraced.append(plain)
        if traced:
            with_probes = bench.run(inst, True, deadline)
            if with_probes is not None:
                traced_runs.append(with_probes)
                if plain is not None:
                    overheads.append(with_probes["wall_s"] / plain["wall_s"] - 1.0)
        k += 1
    samples = traced_runs if traced else untraced
    if not samples or (traced and not overheads):
        return None
    names = PER_LAYER if traced else END_TO_END
    metrics = {
        name: statistics.median(s[name] for s in samples)
        for name in names if name != "trace_overhead"
    }
    if traced:
        metrics["trace_overhead"] = statistics.median(overheads)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (SRC / "fairpc" / "__init__.py").is_file():
        print(f"error: no fairpc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, work)
        metrics = measure(bench, args.seconds, bool(args.trace), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        print(f"error: all {bench.attempted} runs failed", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} runs)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
