"""Lockstep round-based execution over column-block shards, with a locality audit.

The round engine is the monolithic solver with one thing changed: its
gradient evaluation. In the paper's distributed model agent j updates its
own coordinate from its column of ``A`` and the loads of the rows that
column touches, and the update is elementwise; so only the gradient can
break locality, through its matrix reads and its load messages.

The columns are split into ``SHARD_COUNT`` contiguous blocks of the
column-major arrays. ``build_shards`` lays out every shard's local data once
per kernel, as concatenated shard-major arrays (``Shards``): the entries it
gathers and each entry's slot in one message buffer, which holds every
shard's incident rows, shard after shard. The gathers concatenate to every
entry in column-major order, so a shard is its offsets into the kernel's
own per-entry arrays and into the message buffer. ``_Lockstep``
is a gradient kernel whose every evaluation is one round, of a fixed number
of NumPy calls whatever the shard count: one ``take`` fills every shard's
slice of the message buffer with its rows' loads (``shard_messages``), one
audit checks every shard's gather range and message slice
(``audit_round``), and one call of the monolithic kernel's own
``truncated_columns`` computes every block's truncated gradient
(``local_update``). ``run_distributed`` passes its constructor to
``packing.solve_packing`` or ``covering.solve_covering``, which build one
per stage and drive it with the same start, step, feasibility check,
recorder and stop rule as the monolithic engine; a column's segment sum
does not depend on its offset and every update expression is elementwise,
so the two engines are bit-identical whatever the partition.

Locality is structural: a shard reads the matrix only through gather
indices inside its own ``col_ptr`` range, and the loads only through slots
inside its own message slice. The gathers are checked when the shards are
built; every round re-checks each shard's gather range and slots, and that
its message slice carries exactly its incident rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import LocalityViolation, MissingLoad
from .problem import COVER, PACK, CoveringInstance, PackingInstance, ScalingRecord, SolverConfig
from .matrix import segment_index
from .packing import solve_packing
from .covering import solve_covering
# not called here: perfbench's probes look these two names up in this module
from .packing import finalize_packing  # noqa: F401
from .covering import finalize_covering  # noqa: F401
from .regularization import GradientKernel, GradientPair, truncated_columns

# column blocks per run, capped at the number of columns
SHARD_COUNT = 4


@dataclass(frozen=True, eq=False)
class Shards:
    """Every shard's local data, concatenated shard-major.

    Shard s owns columns ``[bounds[s], bounds[s+1])``, positions
    ``[starts[s], starts[s+1])`` of the kernel's per-entry arrays and slots
    ``[slots[s], slots[s+1])`` of the message buffer, whose rows ``rows``
    lists. ``reads`` stacks each entry's gather index over its slot, and
    ``lo``/``hi`` bound both, per shard: the entries of its columns and its
    message slice.
    """

    bounds: np.ndarray      # column bounds, one past the last shard's
    starts: np.ndarray      # entry offsets, one past the last shard's
    reads: np.ndarray       # (2, entries): column-major gather indices; message slots
    lo: np.ndarray          # (2, shards): each shard's first entry; its first slot
    hi: np.ndarray          # (2, shards): one past its last entry; one past its last slot
    rows: np.ndarray        # the message buffer's rows: each shard's sorted incident rows
    slots: np.ndarray       # slot offsets, one past the last shard's

    @property
    def gather(self) -> np.ndarray:
        return self.reads[0]

    @property
    def row_pos(self) -> np.ndarray:
        return self.reads[1]


class ShardMessages(NamedTuple):
    """Every shard's message of one round, in one buffer: slot i carries the
    load of row ``rows[i]``, and shard s reads slots ``[slots[s], slots[s+1])``."""

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


def _outside(values: np.ndarray, shard: np.ndarray, lo: np.ndarray,
             hi: np.ndarray) -> np.ndarray:
    """Positions of ``values`` outside ``[lo[s], hi[s])``, s their ``shard``."""
    return np.flatnonzero((values < lo[shard]) | (values >= hi[shard]))


def shard_gather(col_ptr: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """The column-major entry indices of columns [c0, c1): what a shard reads."""
    return np.arange(col_ptr[c0], col_ptr[c1])


def build_shards(kernel: GradientKernel, count: int) -> Shards:
    """Lay out ``count`` (at most n) contiguous column blocks of near-equal
    width; any gather index outside its block's entries raises."""
    matrix = kernel.matrix
    n, col_ptr = matrix.n, matrix.col_ptr
    count = min(count, n)
    bounds = n * np.arange(count + 1) // count
    gathers = [shard_gather(col_ptr, c0, c1) for c0, c1 in zip(bounds[:-1], bounds[1:])]
    starts = np.cumsum([0] + [g.size for g in gathers])
    gather = np.concatenate(gathers)
    first, last = col_ptr[bounds[:-1]], col_ptr[bounds[1:]]
    shard = segment_index(starts)
    outside = _outside(gather, shard, first, last)
    if outside.size:
        e = outside[0]
        s = shard[e]
        raise LocalityViolation(
            f"shard {s} (columns {bounds[s]}..{bounds[s + 1] - 1}) gathers entry "
            f"{int(gather[e])} outside its columns"
        )
    # each shard's sorted incident rows, shard after shard, from one sort of
    # (shard, row) keys; an entry's slot is its key's rank
    keys, slot = np.unique(shard * matrix.m + matrix.col_row.take(gather), return_inverse=True)
    slots = np.searchsorted(keys, np.arange(count + 1) * matrix.m)
    return Shards(
        bounds=bounds, starts=starts, reads=np.stack([gather, slot]),
        lo=np.stack([first, slots[:-1]]), hi=np.stack([last, slots[1:]]),
        rows=keys % matrix.m, slots=slots,
    )


def shard_messages(shards: Shards, loads: np.ndarray, k: int) -> ShardMessages:
    return ShardMessages(round_index=k, rows=shards.rows, loads=loads.take(shards.rows))


def _malformed(msg: ShardMessages, shards: Shards) -> list[int]:
    """The shards whose message slice does not carry exactly their incident
    rows; a buffer longer than the layout's is charged to the last shard."""
    rows = shards.rows
    if msg.rows is rows or np.array_equal(msg.rows, rows):
        return []
    common = min(msg.rows.size, rows.size)
    wrong = np.ones(rows.size, dtype=bool)
    wrong[:common] = msg.rows[:common] != rows[:common]
    bad = set(segment_index(shards.slots)[wrong].tolist())
    if msg.rows.size > rows.size:
        bad.add(shards.slots.size - 2)
    return sorted(bad)


def local_update(kernel: GradientKernel, shards: Shards, msg: ShardMessages,
                 x_hat: np.ndarray, u: np.ndarray) -> GradientPair:
    """Every block's truncated gradient, each from its shard's own entries
    of ``kernel`` (the kernel ``shards`` was built for), its message slice
    and its block of ``x_hat``, ``u``; with the barrier weights, scattered
    to their rows, when the kernel's form makes them."""
    bad = _malformed(msg, shards)
    if bad:
        s = bad[0]
        lo, hi = shards.slots[s], shards.slots[s + 1]
        missing = np.setdiff1d(shards.rows[lo:hi], msg.rows[lo:hi])
        lacks = f"the load of row {int(missing[0])}" if missing.size else "its incident rows"
        raise MissingLoad(f"round {msg.round_index}: shard {s}'s message lacks {lacks}")
    _s, _saturated, truncated, weights = truncated_columns(
        kernel.form, kernel.entry_terms, shards.row_pos, kernel.entry_col,
        kernel.matrix.col_ptr[:-1], kernel.allocation_term(x_hat, u), np.log(msg.loads),
    )
    if weights is not None:
        scattered = np.zeros(kernel.matrix.m)
        scattered[shards.rows] = weights
        weights = scattered
    return GradientPair(truncated, weights)


def audit_round(shards: Shards, msg: ShardMessages, k: int, audit: LocalityAudit) -> None:
    """Re-check every shard's gather range and message slice, and that the
    message buffer is the layout's; on a breach, record each shard's and raise."""
    reads, first = shards.reads, shards.starts[:-1]
    within = ((np.minimum.reduceat(reads, first, axis=1) >= shards.lo)
              & (np.maximum.reduceat(reads, first, axis=1) < shards.hi))
    if within.all() and msg.rows is shards.rows:
        return
    shard = segment_index(shards.starts)
    gather, slot = reads
    outside = _outside(gather, shard, shards.lo[0], shards.hi[0])
    audit.out_of_column += [(k, int(shard[e]), int(gather[e])) for e in outside]
    strays = shard[_outside(slot, shard, shards.lo[1], shards.hi[1])].tolist()
    bad = sorted(set(strays).union(_malformed(msg, shards)))
    audit.message_key_mismatches += [(k, s) for s in bad]
    audit.require_clean()


def run_distributed(instance, config: SolverConfig, mode: str | None = None,
                    scaling: ScalingRecord | None = None):
    """Execute the solve as lockstep rounds; returns (solution, audit).

    The monolithic solve runs with ``_Lockstep`` as its kernel constructor,
    so the solution is bit-identical to its own. Every stage's kernel
    shares the one audit, and every round re-checks each shard's gather
    range and message slice; the audit reports how many entries of each
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
        """Message every shard its rows' ``loads``, audit, and compute every block."""
        audit = self.audit
        k = audit.rounds = audit.rounds + 1
        msg = shard_messages(self.shards, loads, k)
        audit_round(self.shards, msg, k, audit)
        return local_update(self, self.shards, msg, x_hat, u)

    def close(self) -> LocalityAudit:
        audit = self.audit
        counts = np.bincount(segment_index(self.matrix.col_ptr)[self.shards.gather],
                             minlength=self.matrix.n)
        audit.touched_counts = {j: int(c) for j, c in enumerate(counts)}
        audit.require_clean()
        return audit
