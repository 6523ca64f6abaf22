"""Lockstep round-based execution over column-block shards, with a locality audit.

The columns are split into ``SHARD_COUNT`` contiguous blocks of the
column-major arrays. Every round the environment publishes the allocations,
computes the constraint loads once and sends each shard only the loads of
its incident rows; the shard updates its whole block in one vectorized pass
through the monolithic kernel's own ``truncated_columns``, in the form the
kernel chose for the run, and its update expressions, so the result is
bit-identical to the monolithic solver. The loads the environment computes
are the iterate's only ``Ax``: the trace record and the finalization read
them too.

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
from .packing import (
    PackingRunRecorder, finalize_packing, init_packing, iterate_loads, mirror_iterate,
    plan_iterations, require_feasible,
)
from .covering import covering_trace_row, finalize_covering, init_covering, running_average
from .regularization import (
    ColumnForm, GradientKernel, barrier_weights, derive_covering_params, derive_packing_params,
    truncated_columns,
)

# column blocks per run, capped at the number of columns
SHARD_COUNT = 4


@dataclass(frozen=True, eq=False)
class Shard:
    """Columns ``[c0, c1)``: everything the block may read, plus the run's
    constants and the expressions its kernel and update rule bound."""

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
    allocation: Callable        # the kernel's allocation map
    allocation_term: Callable   # the kernel's allocation term
    step_scale: float
    update: Callable            # the run's update expression, from ``packing.update_rule``
    beta_prime: float | None    # mirror exponent; None when the block has no mirror state


class ShardMessage(NamedTuple):
    """The loads of ``rows``, in that order, for one shard and round."""

    round_index: int
    rows: np.ndarray
    loads: np.ndarray


class BlockState(NamedTuple):
    x_hat: np.ndarray
    z: np.ndarray | None          # mirror state, alpha < 1 only
    k: int
    u: np.ndarray | None = None   # the allocation published this round, if any


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


def build_shard(kernel: GradientKernel, index: int, c0: int, c1: int, gather: np.ndarray,
                rule: tuple, beta_prime: float | None) -> Shard:
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
        form=kernel.form, allocation=kernel.allocation, allocation_term=kernel.allocation_term,
        step_scale=rule[0], update=rule[1], beta_prime=beta_prime,
    )


def build_shards(kernel: GradientKernel, rule: tuple, beta_prime: float | None,
                 count: int) -> list[Shard]:
    """``count`` (at most n) contiguous column blocks of near-equal width;
    ``rule`` is the run's (step scale, update expression)."""
    n, col_ptr = kernel.matrix.n, kernel.matrix.col_ptr
    count = min(count, n)
    bounds = [n * s // count for s in range(count + 1)]
    return [
        build_shard(kernel, i, c0, c1, np.arange(col_ptr[c0], col_ptr[c1]), rule, beta_prime)
        for i, (c0, c1) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def shard_message(shard: Shard, loads: np.ndarray, k: int) -> ShardMessage:
    return ShardMessage(round_index=k, rows=shard.rows, loads=loads[shard.rows])


def publish(shard: Shard, block: BlockState) -> BlockState:
    """The block at its current iterate, with the allocation it exposes this round."""
    x_hat = block.x_hat if block.z is None else mirror_iterate(block.z, shard.beta_prime)
    return block._replace(x_hat=x_hat, u=shard.allocation(x_hat))


def _carries_rows(msg: ShardMessage, shard: Shard) -> bool:
    """Whether the message's rows are exactly the shard's incident rows."""
    return msg.rows is shard.rows or np.array_equal(msg.rows, shard.rows)


def local_update(shard: Shard, msg: ShardMessage, block: BlockState) -> BlockState:
    """Pure block update from the shard's own entries and its round message.

    ``block`` is as ``publish`` left it this round; an unpublished block is
    published here first.
    """
    if not _carries_rows(msg, shard):
        missing = np.setdiff1d(shard.rows, msg.rows)
        lacks = f"the load of row {int(missing[0])}" if missing.size else "its incident rows"
        raise MissingLoad(f"round {msg.round_index}: shard {shard.index}'s message lacks {lacks}")
    x_hat, z, k, u = block if block.u is not None else publish(shard, block)
    _s, _saturated, truncated, _weights = truncated_columns(
        shard.form, shard.terms, shard.row_pos, shard.col_local, shard.col_starts,
        shard.allocation_term(x_hat, u), np.log(msg.loads),
    )
    if z is not None:   # mirror: the update moves the mirror state
        return BlockState(x_hat, shard.update(z, truncated, shard.step_scale), k + 1)
    return BlockState(shard.update(x_hat, truncated, shard.step_scale), None, k + 1)


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

    The solution is bit-identical to the corresponding monolithic solver's
    output. Every round re-checks each shard's gather range and message
    rows, and the audit reports how many entries of each column were read.
    """
    if mode is None:
        mode = config.mode
    if mode == PACK:
        if not isinstance(instance, PackingInstance):
            raise TypeError("pack mode needs a PackingInstance")
        return _run_packing(instance, config, scaling)
    if mode == COVER:
        if not isinstance(instance, CoveringInstance):
            raise TypeError("cover mode needs a CoveringInstance")
        return _run_covering(instance, config, scaling)
    raise ValueError(f"unknown mode {mode!r}")


class _Lockstep:
    """The environment of one run: the shards, their block states and the audit."""

    def __init__(self, kernel: GradientKernel, rule: tuple, beta_prime: float | None,
                 x_hat: np.ndarray, z: np.ndarray | None):
        self.kernel = kernel
        self.matrix = kernel.matrix
        self.shards = build_shards(kernel, rule, beta_prime, SHARD_COUNT)
        self.blocks = [BlockState(x_hat[s.c0:s.c1], None if z is None else z[s.c0:s.c1], 0)
                       for s in self.shards]
        self.audit = LocalityAudit()

    def round(self, k: int, packing: bool, loads: np.ndarray | None = None) -> np.ndarray:
        """Publish, compute the loads once, message every shard, update every block.

        ``loads``, when given, are those of the allocations this round
        publishes, already checked; they are returned either way.
        """
        shards = self.shards
        blocks = [publish(s, b) for s, b in zip(shards, self.blocks)]
        if loads is None:
            loads = self.kernel.loads_of(np.concatenate([b.u for b in blocks]))
            if packing:
                require_feasible(loads, k)
        msgs = [shard_message(s, loads, k) for s in shards]
        audit_round(shards, msgs, self.matrix.col_ptr, k, self.audit)
        self.blocks = [local_update(s, m, b) for s, m, b in zip(shards, msgs, blocks)]
        self.audit.rounds = k
        return loads

    def joined(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The whole iterate and mirror state, as the monolithic solver holds them."""
        x_hat = np.concatenate([b.x_hat for b in self.blocks])
        z = None if self.blocks[0].z is None else np.concatenate([b.z for b in self.blocks])
        return x_hat, z

    def close(self) -> LocalityAudit:
        audit = self.audit
        read = np.concatenate([s.gather for s in self.shards])
        counts = np.bincount(segment_index(self.matrix.col_ptr)[read], minlength=self.matrix.n)
        audit.touched_counts = {j: int(c) for j, c in enumerate(counts)}
        audit.require_clean()
        return audit


def _run_packing(instance: PackingInstance, config: SolverConfig,
                 scaling: ScalingRecord | None):
    alpha = config.alpha
    params = derive_packing_params(instance.m, instance.n, instance.rho, alpha, config.epsilon)
    if scaling is None:
        scaling = ScalingRecord(c=1.0, alpha_used=alpha)
    planned, stride = plan_iterations(config, params)

    # the environment's whole-vector view, for traces and finalization only
    state = init_packing(instance, config, params)
    env = _Lockstep(state.kernel, state.rule, params.beta_prime, state.x_hat, state.z)
    recorder = PackingRunRecorder(state.kernel, instance, params, config)

    def record(k: int, loads: np.ndarray | None) -> bool:
        state.x_hat, state.z = env.joined()
        state.u, state.k, state.loads = state.kernel.allocation(state.x_hat), k, loads
        recorder.record(state.x_hat, state.u, k, state.trace, iterate_loads(state, k))
        return recorder.should_stop()

    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        stopped_early = record(0, None)
        k = 0
        while k < planned and not stopped_early:
            k += 1
            # at alpha >= 1 a round publishes the iterate the previous round left,
            # whose loads its record computed, and leaves a new one to record;
            # below 1 it publishes a fresh mirror iterate, the one recorded after it
            reuse = alpha >= 1.0 and state.k == k - 1
            loads = env.round(k, packing=True, loads=state.loads if reuse else None)
            if k % stride == 0 or k == planned:
                stopped_early = record(k, loads if alpha < 1.0 else None)

    audit_obj = env.close()  # the last round was recorded, so ``state`` is current
    solution = finalize_packing(state, instance, params, config, scaling, stopped_early,
                                recorder.reported())
    return solution, audit_obj


def _run_covering(instance: CoveringInstance, config: SolverConfig,
                  scaling: ScalingRecord | None):
    params = derive_covering_params(
        instance.m, instance.n, instance.rho, config.beta, config.epsilon
    )
    if scaling is None:
        scaling = ScalingRecord(c=1.0, alpha_used=-params.beta)
    planned, stride = plan_iterations(config, params)

    state = init_covering(instance, config, params)
    kernel = state.kernel
    env = _Lockstep(kernel, state.rule, params.beta_prime, state.x, state.z)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        state.trace.append(covering_trace_row(kernel, state.x, 0, state.loads))
        for k in range(1, planned + 1):
            loads = env.round(k, packing=False)
            y = barrier_weights(kernel.inv_beta, kernel.logC, np.log(loads))
            state.y_avg = running_average(state.y_avg, y, k)
            if k % stride == 0 or k == planned:
                state.x, state.z = env.joined()
                state.k, state.loads = k, loads
                state.trace.append(covering_trace_row(kernel, state.x, k, state.loads))

    audit_obj = env.close()  # the last round was traced, so ``state`` is current
    return finalize_covering(state, instance, params, config, scaling), audit_obj
