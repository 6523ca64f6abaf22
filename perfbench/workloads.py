"""The four benchmark workloads and why each is there.

Every instance is square with the same number of entries in each row and
column (see ``generate``), values uniform in [1, 100] and width exactly 100.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int               # the matrix is n x n
    per_row: int         # entries in every row and every column
    cli_args: tuple[str, ...]
    panel: int = 1       # distinct instances per seed, run in turn
    csv_trace: bool = False  # also pass ``--trace <csv>`` to the CLI

    def flag(self, name: str) -> str | None:
        args = self.cli_args
        return args[args.index(name) + 1] if name in args else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pack-cert-30",
            why="time to a certified answer: 30x30 alpha=2 early stop; dispatch-bound step and "
                "gap certificate dominate; certified stopping moves iterations here",
            n=30, per_row=4, panel=6, csv_trace=True,
            cli_args=("--mode", "pack", "--alpha", "2", "--epsilon", "0.05",
                      "--early-stop", "--trace-stride", "1000"),
        ),
        Workload(
            name="cover-full-1k",
            why="time to a guaranteed covering at the full derived budget: 1k x 1k beta=1 "
                "eps=0.2; kernel with loads above 1, the fallback side of any packing-only gain",
            n=1000, per_row=12,
            cli_args=("--mode", "cover", "--beta", "1", "--epsilon", "0.2"),
        ),
        Workload(
            name="pack-ingest-100k",
            why="setup-dominated: 100k x 100k, 1.1M nnz, alpha=0.5 mirror path, 50 iterations; "
                "parse, standardize, memory, nnz-wide kernel and JSON emit at scale",
            n=100_000, per_row=11,
            cli_args=("--mode", "pack", "--alpha", "0.5", "--epsilon", "0.1", "--max-iters", "50"),
        ),
        Workload(
            name="rounds-100",
            why="the only workload on the rounds engine: 100x100 alpha=1 additive path, "
                "locality audit on, 300 lockstep rounds",
            n=100, per_row=8,
            cli_args=("--mode", "pack", "--alpha", "1", "--epsilon", "0.1",
                      "--engine", "rounds", "--max-iters", "300"),
        ),
    )
}
