#!/usr/bin/env python3
"""Sweep the fairness parameter on one instance and dump convergence traces.

Every run passes ``early_stop``, so it starts from the scaled feasible point,
runs the epsilon schedule down to the target and stops once the dual bound
proves the regime's guarantee (capped at 30,000 iterations). Writes one CSV
per fairness value (consumable by any plotting tool) plus a summary table to
stdout: the stop iteration, the number of epsilon stages run, whether the
certificate stopped the run, the certified gap, and the step multiplier
each stage ended with (8 unless a trial step overloaded a row and was
redone at half of it).

Usage: python scripts/convergence_trace.py [outdir]
"""

import pathlib
import sys

import numpy as np

from fairpc import SolverConfig, instance_from_dense, solve_packing
from fairpc.cli import emit_trace


def main():
    outdir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("traces")
    outdir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(7)
    dense = np.where(rng.random((6, 8)) < 0.4, rng.uniform(1.0, 10.0, (6, 8)), 0.0)
    dense[np.arange(6), np.arange(6)] = rng.uniform(1.0, 10.0, 6)
    for j in range(8):
        if not dense[:, j].any():
            dense[rng.integers(6), j] = rng.uniform(1.0, 10.0)
    inst, _ = instance_from_dense(dense)

    print(f"instance: {inst.m}x{inst.n}, width={inst.rho:.2f}")
    print(f"{'alpha':>6} {'eps':>5} {'iters':>7} {'stages':>6} {'stopped':>7} {'utility':>12} "
          f"{'gap':>10} {'max_load':>9} {'mu':>9}")
    for alpha in (0.0, 0.25, 0.5, 1.0, 2.0):
        eps = 0.1 if alpha <= 1.0 else 0.05
        config = SolverConfig(
            fairness=alpha, epsilon=eps, max_iters=30_000, trace_stride=30, early_stop=True,
        )
        sol = solve_packing(inst, config)
        path = outdir / f"trace_alpha_{alpha:g}.csv"
        emit_trace(sol.trace, path)
        gap = "none" if sol.gap_estimate is None else f"{sol.gap_estimate:.5f}"
        mu = "/".join(f"{s.multiplier:g}" for s in sol.stages)
        print(f"{alpha:6.2f} {eps:5.2f} {sol.iterations_run:7d} {len(sol.stages):6d} "
              f"{str(sol.stopped_early):>7} "
              f"{sol.utility:12.5f} {gap:>10} {sol.max_load:9.5f} {mu:>9}  -> {path}")


if __name__ == "__main__":
    main()
