"""Lockstep round-based execution over column-block shards, with a locality check.

The round engine is the monolithic solver with one thing changed: how the
row factors reach the columns. In the paper's distributed model agent j
updates its own coordinate from its column of ``A`` and the loads of the
rows that column touches, and the update is elementwise; so the only
non-local step is getting each row's price to its columns.

The columns are split into ``SHARD_COUNT`` contiguous blocks of the
column-major arrays. Which rows a shard hears from is fixed by ``A``, so
``build_shards`` lays out every shard's local data once per run
(``Shards``): one message buffer that holds every shard's incident rows,
shard after shard, and each entry's slot in it. A shard's entries are its
columns' own range of the matrix's column-major arrays, so the layout
holds no gather. ``_Lockstep`` is a gradient kernel that runs the
monolithic ``evaluate``, which computes each row's factor from its load
once (``GradientKernel.row_factors``), so a constraint publishes its price.
It overrides only ``GradientKernel.columns``, as one round of a fixed
number of NumPy calls whatever the shard count: one ``take`` fills every
shard's slice of the message buffer with its rows' factors
(``shard_messages``), and one call of the kernel's own
``truncated_columns``, given each entry's message slot and the message,
computes every block's truncated gradient (``local_update``).
``run_distributed`` passes its constructor to ``packing.solve_packing`` or
``covering.solve_covering``, which build one per stage and drive it with
the same start, step, feasibility check, recorder and stop rule as the
monolithic engine; a column's segment sum does not depend on its offset
and every update expression is elementwise, so the two engines are
bit-identical whatever the partition.

Locality is structural: a shard reads its rows' factors only through slots
inside its own message slice. ``check_layout`` checks once per run, when
the layout is built, that every entry's slot lies in its shard's slice and
carries the entry's own row; the layout's arrays are read-only, so what was
checked stays true for every stage. Every round ``check_message`` checks
only that the message buffer is the layout's, and so carries exactly each
shard's incident rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LocalityViolation
from .problem import PACK, ScalingRecord, SolverConfig
from .matrix import SparseNonnegMatrix, _frozen, segment_index
from .packing import solve_packing
from .covering import solve_covering
# not called here: perfbench's probes look these two names up in this module
from .packing import finalize_packing  # noqa: F401
from .covering import finalize_covering  # noqa: F401
from .regularization import GradientKernel

# column blocks per run, capped at the number of columns
SHARD_COUNT = 4


@dataclass(frozen=True, eq=False)
class Shards:
    """Every shard's local data, concatenated shard-major. Every array is
    read-only, so a layout that ``check_layout`` passed stays valid.

    Shard s owns columns ``[bounds[s], bounds[s+1])``, so their entries'
    range of the matrix's column-major arrays, and slots
    ``[slots[s], slots[s+1])`` of the message buffer, whose rows ``rows``
    lists. Entry e reads the load in slot ``row_pos[e]``.
    """

    bounds: np.ndarray      # column bounds, one past the last shard's
    row_pos: np.ndarray     # each entry's message slot, in column-major order
    rows: np.ndarray        # the message buffer's rows: each shard's sorted incident rows
    slots: np.ndarray       # slot offsets, one past the last shard's

    def __post_init__(self):
        for name in ("bounds", "row_pos", "rows", "slots"):
            object.__setattr__(self, name, _frozen(getattr(self, name), np.int64))


class ShardMessages(NamedTuple):
    """Every shard's message of one round, in one buffer: slot i carries the
    factor (``GradientKernel.row_factors``) of row ``rows[i]``, and shard s
    reads slots ``[slots[s], slots[s+1])``."""

    round_index: int
    rows: np.ndarray
    factors: np.ndarray


@dataclass(eq=False)
class LocalityAudit:
    rounds: int = 0
    out_of_column: list = field(default_factory=list)           # (shard, entry)
    message_key_mismatches: list = field(default_factory=list)  # (round, shard)

    @property
    def ok(self) -> bool:
        return not self.out_of_column and not self.message_key_mismatches


def build_shards(matrix: SparseNonnegMatrix, count: int) -> Shards:
    """Lay out ``count`` (at most n) contiguous column blocks of near-equal width."""
    n, m = matrix.n, matrix.m
    count = min(count, n)
    bounds = n * np.arange(count + 1) // count
    # each shard's sorted incident rows, shard after shard, from one sort of
    # (shard, row) keys; an entry's slot is its key's rank
    shard = segment_index(matrix.col_ptr[bounds])
    keys, row_pos = np.unique(shard * m + matrix.col_row, return_inverse=True)
    slots = np.searchsorted(keys, np.arange(count + 1) * m)
    return Shards(bounds=bounds, row_pos=row_pos, rows=keys % m, slots=slots)


def check_layout(shards: Shards, matrix: SparseNonnegMatrix, audit: LocalityAudit) -> None:
    """Check that every entry's slot lies in its shard's message slice and
    carries the entry's own row; on a breach, record each entry and raise."""
    bounds, slot, slots = shards.bounds, shards.row_pos, shards.slots
    shard = segment_index(matrix.col_ptr[bounds])
    breach = np.flatnonzero((slot < slots[shard]) | (slot >= slots[shard + 1])
                            | (shards.rows.take(slot, mode="clip") != matrix.col_row))
    if breach.size:
        audit.out_of_column += [(int(shard[e]), int(e)) for e in breach]
        e = breach[0]
        s, lo, hi = shard[e], slots[shard[e]], slots[shard[e] + 1]
        fault = (f"which carries row {shards.rows[slot[e]]}" if lo <= slot[e] < hi
                 else f"outside its message slice [{lo}, {hi})")
        raise LocalityViolation(
            f"shard {s} (columns {bounds[s]}..{bounds[s + 1] - 1}) reads the load of entry "
            f"{e}'s row {matrix.col_row[e]} from slot {slot[e]}, {fault}"
        )


def shard_messages(shards: Shards, factors: np.ndarray, k: int) -> ShardMessages:
    return ShardMessages(round_index=k, rows=shards.rows, factors=factors.take(shards.rows))


def check_message(shards: Shards, msg: ShardMessages, audit: LocalityAudit) -> None:
    """Check that the message buffer is the layout's, so every shard's slice
    carries exactly its incident rows; on a breach, record each malformed
    shard's and raise. A buffer longer than the layout's is charged to the
    last shard."""
    rows = shards.rows
    if msg.rows is rows or np.array_equal(msg.rows, rows):
        return
    common = min(msg.rows.size, rows.size)
    wrong = np.ones(rows.size, dtype=bool)
    wrong[:common] = msg.rows[:common] != rows[:common]
    bad = set(segment_index(shards.slots)[wrong].tolist())
    if msg.rows.size > rows.size:
        bad.add(shards.slots.size - 2)
    bad = sorted(bad)
    k = msg.round_index
    audit.message_key_mismatches += [(k, s) for s in bad]
    s = bad[0]
    lo, hi = shards.slots[s], shards.slots[s + 1]
    missing = np.setdiff1d(rows[lo:hi], msg.rows[lo:hi])
    fault = (f"lacks the load of row {int(missing[0])}" if missing.size
             else "carries a row it does not touch")
    raise LocalityViolation(
        f"round {k}: malformed messages from shards {bad}; shard {s}'s message {fault}"
    )


def local_update(kernel: GradientKernel, shards: Shards, msg: ShardMessages,
                 x_hat: np.ndarray, u: np.ndarray):
    """Every block's ``GradientKernel.truncated_columns`` triple, each from
    its shard's own entries of ``kernel`` (of the matrix ``shards`` lays
    out), read through their message slots, its message slice and its block
    of ``x_hat``, ``u``."""
    return kernel.truncated_columns(shards.row_pos, x_hat, u, msg.factors)


def run_distributed(instance, config: SolverConfig, scaling: ScalingRecord | None = None):
    """Execute the solve of ``config.mode`` as lockstep rounds; returns
    (solution, audit).

    The run's layout is built and checked once, into the one audit, and
    the monolithic solve, which checks the instance, runs with
    ``_Lockstep`` over it as its kernel constructor, so the solution is
    bit-identical to its own.
    """
    solve = solve_packing if config.mode == PACK else solve_covering
    audit = LocalityAudit()
    shards = build_shards(instance.matrix, SHARD_COUNT)
    check_layout(shards, instance.matrix, audit)
    solution = solve(instance, config, scaling, lambda *args: _Lockstep(*args, audit, shards))
    return solution, audit


class _Lockstep(GradientKernel):
    """A gradient kernel whose row factors reach its columns as one
    lockstep round of ``shards``, a checked layout of ``matrix``, each
    message checked into ``audit``; everything else is the monolithic kernel's."""

    def __init__(self, matrix, alpha: float, beta: float, logC: float, audit: LocalityAudit,
                 shards: Shards):
        super().__init__(matrix, alpha, beta, logC)
        self.shards = shards
        self.audit = audit

    def columns(self, x_hat: np.ndarray, u: np.ndarray, factors: np.ndarray):
        """Count the round, message every shard its rows' ``factors``, check
        the message, and compute every block."""
        audit = self.audit
        k = audit.rounds = audit.rounds + 1
        msg = shard_messages(self.shards, factors, k)
        check_message(self.shards, msg, audit)
        return local_update(self, self.shards, msg, x_hat, u)
