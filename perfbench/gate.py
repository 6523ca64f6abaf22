"""Per-run correctness gate.

References are computed once per instance, before any run is timed. Every
run must exit 0 with a feasible solution whose loads, recomputed here from
the generated matrix, honour the constraints; each workload adds the check
its flags call for.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from generate import Instance
from workloads import Workload

# slack for recomputing loads in another summation order from 17-digit JSON
LOAD_TOL = 1e-9

# fields that legitimately differ between the two engines
ENGINE_FIELDS = ("engine", "wall_time_s")


def deterministic_fields(result: dict) -> dict:
    return {k: v for k, v in result.items() if k not in ENGINE_FIELDS}


def reference(w: Workload, inst: Instance, mtx: Path, work: Path) -> dict:
    """Expected values for one instance; runs the program untimed where needed."""
    from fairpc.cli import run_cli
    from fairpc.oracle import small_dense_packing_optimum
    from fairpc.problem import PACK, instance_from_dense
    from fairpc.regularization import derive_covering_params

    ref: dict = {}
    max_iters = w.flag("--max-iters")
    if "--early-stop" in w.cli_args:
        alpha = float(w.flag("--alpha"))
        dense = np.zeros((inst.m, inst.n))
        dense[inst.rows, inst.cols] = inst.vals
        instance, record = instance_from_dense(dense, mode=PACK, fairness=alpha)
        # the oracle's default 1e-9 gap can exhaust its Newton budget at 30x30;
        # 1e-4 is still far inside the gate's bound of 10 eps (alpha-1) |OPT|
        ref["opt"] = small_dense_packing_optimum(instance, alpha, tol=1e-4).objective
        ref["c"] = record.c
    if max_iters is not None:
        ref["iterations"] = int(max_iters)
    elif w.flag("--mode") == "cover":
        params = derive_covering_params(
            inst.m, inst.n, inst.width, float(w.flag("--beta")), float(w.flag("--epsilon"))
        )
        ref["iterations"] = params.K
    if w.flag("--engine") == "rounds":
        args = list(w.cli_args)
        del args[args.index("--engine"):args.index("--engine") + 2]
        out = work / "monolithic.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_cli(args + ["--input", str(mtx), "--output", str(out)])
        if code != 0:
            raise RuntimeError(f"monolithic reference run exited {code}")
        ref["monolithic"] = deterministic_fields(json.loads(out.read_text()))
    return ref


def check(inst: Instance, ref: dict, exit_code: int, result: dict | None) -> list[str]:
    """Reasons the run fails the gate; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if result is None:
        return ["no result JSON"]
    try:
        return _check_result(inst, ref, result)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result: {exc!r}"]


def _check_result(inst: Instance, ref: dict, result: dict) -> list[str]:
    fails = []
    feasibility = result["feasibility"]
    if feasibility["is_feasible"] is not True:
        fails.append("is_feasible is not true")
    packing = result["mode"] == "pack"
    size = inst.n if packing else inst.m
    x = np.asarray(result["solution"], dtype=np.float64)
    if x.shape != (size,) or not np.isfinite(x).all() or (x < 0).any():
        return fails + [f"solution is not {size} finite nonnegative numbers"]

    if packing:
        loads = np.bincount(inst.rows, weights=inst.vals * x[inst.cols], minlength=inst.m)
        if loads.max() > 1.0 + LOAD_TOL:
            fails.append(f"recomputed max load {float(loads.max())!r} > 1")
    else:
        loads = np.bincount(inst.cols, weights=inst.vals * x[inst.rows], minlength=inst.n)
        if feasibility["min_load"] < 1.0 or loads.min() < 1.0 - LOAD_TOL:
            fails.append(f"min load {feasibility['min_load']!r} "
                         f"(recomputed {float(loads.min())!r}) < 1")

    if "iterations" in ref and result["iterations"] != ref["iterations"]:
        fails.append(f"iterations {result['iterations']} != {ref['iterations']}")
    if "opt" in ref:
        if result["stopped_early"] is not True:
            fails.append("did not stop on the certificate")
        alpha, eps, opt = result["alpha"], result["epsilon"], ref["opt"]
        utility = float(np.sum((x * ref["c"]) ** (1.0 - alpha))) / (1.0 - alpha)
        bound = 10.0 * eps * (alpha - 1.0) * abs(opt)
        if not abs(utility - opt) <= bound:
            fails.append(f"utility {utility!r} is farther than {bound!r} from the optimum {opt!r}")
    if "monolithic" in ref and deterministic_fields(result) != ref["monolithic"]:
        fails.append("deterministic fields differ from the monolithic engine")
    return fails
