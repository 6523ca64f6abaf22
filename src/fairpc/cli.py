"""Command-line front end: MatrixMarket in, JSON result and CSV trace out.

Exit codes: 0 on success, 2 on input or validation problems, 3 when a
solver-internal assertion trips (any ``SolverAssertion``: feasibility,
truncation domain, certificate or locality failures, which indicate bugs
rather than bad input).

Floats are printed with 17 significant digits in a fixed field order so
identical runs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .errors import FairpcError, SolverAssertion
from .covering import CoveringSolution, solve_covering
from .matrix import read_matrix_market
from .packing import CHECK_EVERY, MULTIPLIER_START, PackingSolution, TraceRow, solve_packing
from .problem import COVER, PACK, SolverConfig, standardize
from .rounds import run_distributed

MONOLITHIC = "monolithic"
ROUNDS = "rounds"


def _fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def emit_json(obj) -> str:
    """Serialize with fixed field order and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        inner = ", ".join(f'"{k}": {emit_json(v)}' for k, v in obj.items())
        return "{" + inner + "}"
    if (isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.float64
            and np.isfinite(obj).all()):
        # one format over the whole vector, byte-equal to the per-value path
        return "[" + ", ".join(["%.17g"] * obj.size) % tuple(obj.tolist()) + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(emit_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def emit_trace(rows: list[TraceRow], path) -> None:
    """CSV convergence trace; overflowed f_r prints as ``+overflow``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter,utility,max_load,f_r,gap\n")
        for row in rows:
            f_r = "+overflow" if math.isinf(row.f_r) and row.f_r > 0 else format(row.f_r, ".17g")
            gap = "" if row.gap is None else format(row.gap, ".17g")
            fh.write(
                f"{row.k},{format(row.utility, '.17g')},"
                f"{format(row.max_load, '.17g')},{f_r},{gap}\n"
            )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fairpc",
        description="Solve fair packing and covering problems over sparse nonnegative matrices.",
    )
    p.add_argument("--mode", choices=[PACK, COVER], required=True)
    p.add_argument("--alpha", type=float, help="fairness parameter for packing (>= 0)")
    p.add_argument("--beta", type=float, help="fairness parameter for covering")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--input", required=True, help="MatrixMarket coordinate file")
    p.add_argument("--output", help="result JSON path (default: stdout)")
    p.add_argument("--trace", help="convergence trace CSV path; without it (or with an empty "
                                   "path) no trace row is built, only counted in "
                                   "trace_rows_dropped")
    p.add_argument("--engine", choices=[MONOLITHIC, ROUNDS], default=MONOLITHIC)
    p.add_argument("--max-iters", type=int, help="override the derived iteration budget")
    p.add_argument("--early-stop", action="store_true",
                   help="packing: start from the scaled feasible point, run epsilon stages "
                        "from the largest admissible down to --epsilon within one budget at "
                        f"{MULTIPLIER_START:g} times the paper's step, halved only where a step "
                        "would overload a row, and stop once the dual bound, "
                        f"checked every {CHECK_EVERY} iterations and at traced rows, proves the "
                        "regime's guarantee at --epsilon (any alpha)")
    p.add_argument("--trace-stride", type=int,
                   help="trace every N-th iteration; a run that certifies its trace rows "
                        "certifies these iterations with --trace or without")
    return p


def _packing_result(args, instance, record, solution: PackingSolution, wall: float) -> dict:
    params = solution.params
    guarantee = {
        "eps_f": solution.eps_f,
        "form": solution.eps_f_form,
        "basis": solution.eps_f_basis,
    }
    if solution.stages is not None:
        guarantee["stages"] = [{"epsilon": s.epsilon, "until": s.until, "multiplier": s.multiplier}
                               for s in solution.stages]
    return {
        "mode": PACK,
        "engine": args.engine,
        "alpha": args.alpha,
        "epsilon": args.epsilon,
        "m": instance.m,
        "n": instance.n,
        "rho": instance.rho,
        "scaling": {"c": record.c, "alpha_used": record.alpha_used},
        "params": {
            "beta": params.beta,
            "logC": params.logC,
            "beta_prime": params.beta_prime,
            "h": params.h,
            "K": params.K,
        },
        "iterations": solution.iterations_run,
        "stopped_early": solution.stopped_early,
        "trace_rows_dropped": solution.trace_dropped,
        "objective": solution.utility,
        "solution": solution.x,
        "feasibility": {
            "max_load": solution.max_load,
            "is_feasible": solution.is_feasible,
        },
        "guarantee": guarantee,
        "dual": None if solution.dual_certificate is None else {
            "certificate": solution.dual_certificate,
            "gap_estimate": solution.gap_estimate,
            "space": "standardized",
        },
        "wall_time_s": wall,
    }


def _covering_result(args, instance, record, solution: CoveringSolution, wall: float) -> dict:
    params = solution.params
    return {
        "mode": COVER,
        "engine": args.engine,
        "beta": args.beta,
        "epsilon": args.epsilon,
        "m": instance.m,
        "n": instance.n,
        "rho": instance.rho,
        "scaling": {"c": record.c, "alpha_used": record.alpha_used},
        "params": {
            "beta": params.beta,
            "was_reset": params.was_reset,
            "below_guarantee_floor": params.below_guarantee_floor,
            "beta_prime": params.beta_prime,
            "h": params.h,
            "K": params.K,
            "logC": params.logC,
        },
        "iterations": solution.iterations_run,
        "trace_rows_dropped": solution.trace_dropped,
        "objective": solution.cost,
        "solution": solution.y,
        "feasibility": {
            "min_load": solution.min_load,
            "is_feasible": solution.is_feasible,
        },
        "prescale": {
            "residual": solution.prescale_residual,
            "cost": solution.cost_prescale,
        },
        "guarantee": {
            "cost_ratio_bound": 1.0 + 3.0 * args.epsilon * (1.0 + params.beta),
            "form": "cost(y_avg) <= (1 + 3*eps*(1+beta)) * optimal cost",
        },
        "dual": {
            "certificate": solution.dual_certificate,
            "gap_estimate": solution.gap_estimate,
            "space": "standardized",
        },
        "wall_time_s": wall,
    }


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        if args.mode == PACK and args.alpha is None:
            raise FairpcError("--mode pack requires --alpha")
        if args.mode == COVER and args.beta is None:
            raise FairpcError("--mode cover requires --beta")
        fairness = args.alpha if args.mode == PACK else args.beta
        config = SolverConfig(
            fairness=fairness,
            epsilon=args.epsilon,
            mode=args.mode,
            max_iters=args.max_iters,
            early_stop=args.early_stop,
            trace_stride=args.trace_stride,
            keep_trace=bool(args.trace),
        )
        entries, m, n = read_matrix_market(args.input)
        instance, record = standardize(entries, m, n, mode=args.mode, fairness=fairness)
    except (FairpcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        start = time.perf_counter()
        if args.engine == ROUNDS:
            solution, _ = run_distributed(instance, config, scaling=record)
        elif args.mode == PACK:
            solution = solve_packing(instance, config, scaling=record)
        else:
            solution = solve_covering(instance, config, scaling=record)
        wall = time.perf_counter() - start
    except SolverAssertion as exc:
        print(f"solver assertion failed: {exc}", file=sys.stderr)
        return 3
    except FairpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.mode == PACK:
        result = _packing_result(args, instance, record, solution, wall)
    else:
        result = _covering_result(args, instance, record, solution, wall)
    text = emit_json(result)
    try:
        # the trace first: a run that cannot write it exits 2 with no result written
        if args.trace:
            emit_trace(solution.trace, args.trace)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
