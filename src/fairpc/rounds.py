"""Lockstep round-based execution over column-block shards, with a locality audit.

The round engine is the monolithic solver with one thing changed: its
gradient evaluation. In the paper's distributed model agent j updates its
own coordinate from its column of ``A`` and the loads of the rows that
column touches, and the update is elementwise; so only the gradient can
break locality, through its matrix reads and its load messages.

The columns are split into ``SHARD_COUNT`` contiguous blocks of the
column-major arrays. ``_Lockstep`` is a gradient kernel whose every
evaluation is one round, which sends each shard only the loads of its
incident rows and has it compute its block's truncated gradient through the
monolithic kernel's own ``truncated_columns``, in the form the kernel chose
for the run. ``run_distributed`` passes its constructor to
``packing.solve_packing`` or ``covering.solve_covering``, which build one
per stage and drive it with the same start, step, feasibility check,
recorder and stop rule as the monolithic engine; every update expression
is elementwise, so the two engines are bit-identical whatever the
partition.

Locality is structural: a shard reads the matrix only through gather
indices inside its own ``col_ptr`` range. That is checked when the shard is
built and audited every round, along with each message's row set, which
must equal the shard's incident rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import LocalityViolation, MissingLoad
from .problem import COVER, PACK, CoveringInstance, PackingInstance, ScalingRecord, SolverConfig
from .matrix import segment_index
from .packing import solve_packing
from .covering import solve_covering
# not called here: perfbench's probes look these two names up in this module
from .packing import finalize_packing  # noqa: F401
from .covering import finalize_covering  # noqa: F401
from .regularization import ColumnForm, GradientKernel, GradientPair, truncated_columns

# column blocks per run, capped at the number of columns
SHARD_COUNT = 4


@dataclass(frozen=True, eq=False)
class Shard:
    """Columns ``[c0, c1)``: everything the block may read, plus the form
    and allocation term the run's kernel bound."""

    index: int
    c0: int
    c1: int
    gather: np.ndarray      # column-major entry indices the shard reads
    rows: np.ndarray        # sorted incident rows
    row_pos: np.ndarray     # each entry's position in ``rows``
    col_local: np.ndarray | None   # each entry's column, counted from c0; fallback form only
    col_starts: np.ndarray  # each column's first entry, counted from the block's first
    terms: np.ndarray       # each entry's term in the kernel's form: A_ij, or ln(A_ij) + logC
    form: ColumnForm
    allocation_term: Callable   # the kernel's allocation term


class ShardMessage(NamedTuple):
    """The loads of ``rows``, in that order, for one shard and round."""

    round_index: int
    rows: np.ndarray
    loads: np.ndarray


@dataclass(eq=False)
class LocalityAudit:
    rounds: int = 0
    out_of_column: list = field(default_factory=list)           # (round, shard, entry)
    message_key_mismatches: list = field(default_factory=list)  # (round, shard)
    touched_counts: dict = field(default_factory=dict)          # column -> entries read

    @property
    def ok(self) -> bool:
        return not self.out_of_column and not self.message_key_mismatches

    def require_clean(self) -> None:
        if not self.ok:
            raise LocalityViolation(
                f"locality audit failed: {len(self.out_of_column)} out-of-column accesses, "
                f"{len(self.message_key_mismatches)} malformed messages"
            )


def _outside_block(gather: np.ndarray, col_ptr: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """The gather indices that leave the entry range of columns [c0, c1)."""
    lo, hi = col_ptr[c0], col_ptr[c1]
    if gather.size and lo <= np.minimum.reduce(gather) and np.maximum.reduce(gather) < hi:
        return gather[:0]
    return gather[(gather < lo) | (gather >= hi)]


def build_shard(kernel: GradientKernel, index: int, c0: int, c1: int,
                gather: np.ndarray) -> Shard:
    """Gather the block's entries, the shard's only matrix reads; any index
    outside the entries of columns [c0, c1) raises."""
    matrix = kernel.matrix
    outside = _outside_block(gather, matrix.col_ptr, c0, c1)
    if outside.size:
        raise LocalityViolation(
            f"shard {index} (columns {c0}..{c1 - 1}) gathers entry {int(outside[0])} "
            "outside its columns"
        )
    rows, row_pos = np.unique(matrix.col_row[gather], return_inverse=True)
    return Shard(
        index=index, c0=c0, c1=c1, gather=gather, rows=rows, row_pos=row_pos,
        col_local=None if kernel.entry_col is None else kernel.entry_col[gather] - c0,
        col_starts=matrix.col_ptr[c0:c1] - matrix.col_ptr[c0],
        terms=kernel.entry_terms[gather],
        form=kernel.form, allocation_term=kernel.allocation_term,
    )


def build_shards(kernel: GradientKernel, count: int) -> list[Shard]:
    """``count`` (at most n) contiguous column blocks of near-equal width."""
    n, col_ptr = kernel.matrix.n, kernel.matrix.col_ptr
    count = min(count, n)
    bounds = [n * s // count for s in range(count + 1)]
    return [
        build_shard(kernel, i, c0, c1, np.arange(col_ptr[c0], col_ptr[c1]))
        for i, (c0, c1) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def shard_message(shard: Shard, loads: np.ndarray, k: int) -> ShardMessage:
    return ShardMessage(round_index=k, rows=shard.rows, loads=loads[shard.rows])


def _carries_rows(msg: ShardMessage, shard: Shard) -> bool:
    """Whether the message's rows are exactly the shard's incident rows."""
    return msg.rows is shard.rows or np.array_equal(msg.rows, shard.rows)


def local_update(shard: Shard, msg: ShardMessage, x_hat: np.ndarray,
                 u: np.ndarray) -> GradientPair:
    """The block's truncated gradient, from the shard's own entries, its
    round message and its block ``x_hat``, ``u`` of the iterate; with the
    barrier weights of ``shard.rows`` when the form makes them."""
    if not _carries_rows(msg, shard):
        missing = np.setdiff1d(shard.rows, msg.rows)
        lacks = f"the load of row {int(missing[0])}" if missing.size else "its incident rows"
        raise MissingLoad(f"round {msg.round_index}: shard {shard.index}'s message lacks {lacks}")
    _s, _saturated, truncated, weights = truncated_columns(
        shard.form, shard.terms, shard.row_pos, shard.col_local, shard.col_starts,
        shard.allocation_term(x_hat, u), np.log(msg.loads),
    )
    return GradientPair(truncated, weights)


def audit_round(shards: list[Shard], msgs: list[ShardMessage], col_ptr: np.ndarray,
                k: int, audit: LocalityAudit) -> None:
    """Re-check every shard's gather range and message rows; raise on a breach."""
    for shard, msg in zip(shards, msgs):
        outside = _outside_block(shard.gather, col_ptr, shard.c0, shard.c1)
        audit.out_of_column += [(k, shard.index, int(e)) for e in outside]
        if not _carries_rows(msg, shard):
            audit.message_key_mismatches.append((k, shard.index))
    audit.require_clean()


def run_distributed(instance, config: SolverConfig, mode: str | None = None,
                    scaling: ScalingRecord | None = None):
    """Execute the solve as lockstep rounds; returns (solution, audit).

    The monolithic solve runs with ``_Lockstep`` as its kernel constructor,
    so the solution is bit-identical to its own. Every stage's kernel
    shares the one audit, and every round re-checks each shard's gather
    range and message rows; the audit reports how many entries of each
    column the last stage's shards read.
    """
    if mode is None:
        mode = config.mode
    if mode == PACK:
        if not isinstance(instance, PackingInstance):
            raise TypeError("pack mode needs a PackingInstance")
        solve = solve_packing
    elif mode == COVER:
        if not isinstance(instance, CoveringInstance):
            raise TypeError("cover mode needs a CoveringInstance")
        solve = solve_covering
    else:
        raise ValueError(f"unknown mode {mode!r}")
    audit = LocalityAudit()
    last = None   # the latest stage's kernel; earlier ones are dropped as in the monolithic run

    def lockstep(*args) -> _Lockstep:
        nonlocal last
        last = _Lockstep(*args, audit)
        return last

    solution = solve(instance, config, scaling, lockstep)
    return solution, last.close()


class _Lockstep(GradientKernel):
    """A gradient kernel whose every evaluation is one lockstep round of
    its shards, audited by ``audit``; everything else is the monolithic
    kernel's."""

    def __init__(self, matrix, alpha: float, beta: float, logC: float, audit: LocalityAudit):
        super().__init__(matrix, alpha, beta, logC)
        self.shards = build_shards(self, SHARD_COUNT)
        self.audit = audit

    def evaluate(self, x_hat: np.ndarray, u: np.ndarray, loads: np.ndarray) -> GradientPair:
        """Message every shard its rows' ``loads``, audit, and join the blocks."""
        audit = self.audit
        k = audit.rounds = audit.rounds + 1
        shards = self.shards
        msgs = [shard_message(s, loads, k) for s in shards]
        audit_round(shards, msgs, self.matrix.col_ptr, k, audit)
        blocks = [local_update(s, msg, x_hat[s.c0:s.c1], u[s.c0:s.c1])
                  for s, msg in zip(shards, msgs)]
        truncated = np.concatenate([b.truncated for b in blocks])
        weights = None
        if blocks[0].weights is not None:
            weights = np.zeros(self.matrix.m)
            for s, b in zip(shards, blocks):
                weights[s.rows] = b.weights
        return GradientPair(truncated, weights)

    def close(self) -> LocalityAudit:
        audit = self.audit
        read = np.concatenate([s.gather for s in self.shards])
        counts = np.bincount(segment_index(self.matrix.col_ptr)[read], minlength=self.matrix.n)
        audit.touched_counts = {j: int(c) for j, c in enumerate(counts)}
        audit.require_clean()
        return audit
