import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fairpc import (
    COVER,
    PACK,
    SolverConfig,
    derive_covering_params,
    derive_packing_params,
    init_packing,
    instance_from_dense,
    solve_covering,
    solve_packing,
    step,
    transform_inverse,
)
from fairpc import rounds
from fairpc.cli import run_cli
from fairpc.errors import LocalityViolation
from fairpc.matrix import write_matrix_market
from fairpc.packing import CHECK_EVERY, certify
from fairpc.regularization import GradientKernel
from fairpc.rounds import (
    ShardMessages,
    build_shards,
    check_layout,
    check_message,
    local_update,
    run_distributed,
    shard_messages,
)

from conftest import identity_instance, single_row_instance


def one_shard(instance, params):
    kernel = GradientKernel(instance.matrix, 1.0, params.beta, params.logC)
    shards = build_shards(instance.matrix, count=1)
    assert shards.bounds.tolist() == [0, instance.n]
    return kernel, shards


def checked_lockstep(matrix, alpha, beta, logC, count):
    """A round kernel over a ``count``-shard layout of ``matrix`` that
    ``check_layout`` passed, as ``run_distributed`` builds one per stage."""
    audit = rounds.LocalityAudit()
    shards = build_shards(matrix, count)
    check_layout(shards, matrix, audit)
    return rounds._Lockstep(matrix, alpha, beta, logC, audit, shards)


def test_local_update_reproduces_monolithic_step():
    inst = identity_instance(1)
    config = SolverConfig(fairness=1.0, epsilon=0.1)
    params = derive_packing_params(1, 1, 1.0, 1.0, 0.1)
    state = init_packing(inst, config, params)
    kernel, shard = one_shard(inst, params)
    loads = state.u.copy()   # the identity's loads are the allocation
    msg = ShardMessages(round_index=1, rows=np.array([0]), factors=kernel.row_factors(loads))
    _s, _saturated, block = local_update(kernel, shard, msg, state.x_hat, state.u)
    whole = kernel.evaluate(state.x_hat, state.u, loads)
    assert block.tobytes() == whole.truncated.tobytes()

    step(state)
    assert state.k == 1
    assert state.x_hat[0] == pytest.approx(-0.10451623583222594, rel=1e-9)


def test_local_update_zero_gradient_is_noop():
    inst = identity_instance(1)
    params = derive_packing_params(1, 1, 1.0, 1.0, 0.1)
    kernel, shard = one_shard(inst, params)
    # at load exp(-logC * beta) the weighted sum is exactly 1 -> gradient 0
    x_hat = np.array([-params.logC * params.beta / (1.0 + params.beta)])
    factors = kernel.row_factors(np.exp(x_hat))
    msg = ShardMessages(round_index=4, rows=np.array([0]), factors=factors)
    _s, _saturated, block = local_update(kernel, shard, msg, x_hat, np.exp(x_hat))
    assert block[0] == pytest.approx(0.0, abs=1e-12)


def test_message_check_missing_load():
    inst = single_row_instance([1.0, 1.0])
    params = derive_packing_params(1, 2, 1.0, 1.0, 0.1)
    _, shard = one_shard(inst, params)
    empty = ShardMessages(round_index=1, rows=np.array([], dtype=np.int64), factors=np.array([]))
    audit = rounds.LocalityAudit()
    with pytest.raises(LocalityViolation,
                       match="round 1: .*shard 0's message lacks the load of row 0"):
        check_message(shard, empty, audit)
    assert audit.message_key_mismatches == [(1, 0)]


@pytest.mark.parametrize("alpha,eps", [(0.0, 0.1), (0.5, 0.1), (0.9, 0.1), (1.0, 0.1), (1.5, 0.1), (3.0, 0.05)])
def test_bit_identical_to_monolithic(alpha, eps):
    inst, _ = instance_from_dense(
        np.array([[1.0, 2.0, 0.0], [0.0, 1.5, 1.0], [3.0, 0.0, 1.0]])
    )
    config = SolverConfig(fairness=alpha, epsilon=eps, max_iters=120)
    mono = solve_packing(inst, config)
    dist, audit = run_distributed(inst, config)
    assert mono.x.tobytes() == dist.x.tobytes()
    assert mono.utility == dist.utility
    assert mono.iterations_run == dist.iterations_run == audit.rounds
    assert audit.ok


@pytest.mark.parametrize("stride", [25, 1000])
@pytest.mark.parametrize("alpha,eps", [(0.0, 0.1), (0.5, 0.1), (1.0, 0.1), (2.0, 0.05)])
def test_bit_identical_with_early_stop(alpha, eps, stride):
    inst = single_row_instance([1.0, 2.0, 1.5])
    config = SolverConfig(fairness=alpha, epsilon=eps, early_stop=True, trace_stride=stride)
    mono = solve_packing(inst, config)
    dist, audit = run_distributed(inst, config)
    assert mono.stopped_early and dist.stopped_early
    assert mono.x.tobytes() == dist.x.tobytes()
    assert mono.iterations_run == dist.iterations_run == audit.rounds
    assert mono.gap_estimate == dist.gap_estimate and mono.trace == dist.trace
    assert mono.stages == dist.stages
    assert [s.multiplier for s in mono.stages] == [s.multiplier for s in dist.stages]
    if stride == 1000:
        # certified every CHECK_EVERY iterations between traced rows, with every
        # stage's end and the stop written as rows; alpha = 0 stops at 1,200,
        # where its LP dual bound lags the primal
        assert mono.iterations_run < (1000 if alpha > 0.0 else 2000)
        assert mono.iterations_run % CHECK_EVERY == 0 and mono.iterations_run % 1000 != 0
        assert mono.stages[-1].until == mono.iterations_run == mono.trace[-1].k
        assert {s.until for s in mono.stages} <= {row.k for row in mono.trace}


def test_bit_identical_covering():
    inst = identity_instance(2, mode=COVER)
    config = SolverConfig(fairness=1.0, epsilon=0.1, mode=COVER, max_iters=200)
    mono = solve_covering(inst, config)
    dist, audit = run_distributed(inst, config)
    assert mono.y.tobytes() == dist.y.tobytes()
    assert mono.cost == dist.cost
    assert mono.prescale_residual == dist.prescale_residual
    assert audit.ok


def test_trace_matches_monolithic():
    inst = identity_instance(3)
    config = SolverConfig(fairness=0.5, epsilon=0.1, max_iters=90, trace_stride=10)
    mono = solve_packing(inst, config)
    dist, _ = run_distributed(inst, config)
    assert len(mono.trace) == len(dist.trace)
    for a, b in zip(mono.trace, dist.trace):
        assert a == b


def test_clean_run_records_no_breach():
    inst, _ = instance_from_dense(np.array([[1.0, 2.0], [1.0, 0.0]]))
    config = SolverConfig(fairness=0.0, epsilon=0.1, max_iters=5)
    _, audit = run_distributed(inst, config)
    assert audit.ok and audit.rounds == 5
    assert audit.out_of_column == [] and audit.message_key_mismatches == []


# ---- shard partitions and the structural audit ----

def partition_instance():
    """A 7 x 9 instance with uneven columns, so every partition below differs."""
    rng = np.random.default_rng(7)
    dense = np.where(rng.random((7, 9)) < 0.35, rng.uniform(1.0, 50.0, (7, 9)), 0.0)
    dense[np.arange(9) % 7, np.arange(9)] += 1.0  # no empty row or column
    inst, _ = instance_from_dense(dense)
    return inst


# alpha = 0 scatters the shards' barrier weights; alpha = 25 at eps = 0.004 runs
# the log-domain fallback, where each shard slices the kernel's entry columns
FALLBACK = (25.0, 0.004)


@pytest.mark.parametrize("alpha,eps",
                         [(0.0, 0.1), (0.5, 0.1), (1.0, 0.1), (1.5, 0.1), (3.0, 0.05), FALLBACK])
@pytest.mark.parametrize("count", [1, 2, 4, None])
def test_bit_identical_over_partitions(monkeypatch, alpha, eps, count):
    inst = partition_instance()
    monkeypatch.setattr(rounds, "SHARD_COUNT", inst.n if count is None else count)
    if (alpha, eps) == FALLBACK:
        params = derive_packing_params(inst.m, inst.n, inst.rho, alpha, eps)
        assert GradientKernel(inst.matrix, alpha, params.beta, params.logC).product is False
    config = SolverConfig(fairness=alpha, epsilon=eps, max_iters=150, trace_stride=7)
    mono = solve_packing(inst, config)
    dist, audit = run_distributed(inst, config)
    assert mono.x.tobytes() == dist.x.tobytes()
    assert mono.utility == dist.utility
    assert [r.f_r for r in mono.trace] == [r.f_r for r in dist.trace]
    assert audit.ok and audit.rounds == 150


@pytest.mark.parametrize("count", [1, 2, 4, None])
def test_fallback_evaluate_bit_identical_over_partitions(monkeypatch, count):
    # a run keeps every column's fallback gradient at exactly -1 for thousands of
    # iterations, so the run above cannot tell the columns apart; here each row's
    # exponent ln(load)/beta is set so that the columns' gradients differ
    inst = partition_instance()
    monkeypatch.setattr(rounds, "SHARD_COUNT", inst.n if count is None else count)
    alpha, eps = FALLBACK
    params = derive_packing_params(inst.m, inst.n, inst.rho, alpha, eps)
    kernel = GradientKernel(inst.matrix, alpha, params.beta, params.logC)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.009, 0.011, inst.n)
    q = -(params.logC + alpha * np.log(u).mean()) - 4.0 + rng.uniform(-2.0, 2.0, inst.m)
    x_hat, loads = transform_inverse(u, alpha), np.exp(params.beta * q)
    whole = kernel.evaluate(x_hat, u, loads).truncated
    lockstep = checked_lockstep(inst.matrix, alpha, params.beta, params.logC, rounds.SHARD_COUNT)
    sharded = lockstep.evaluate(x_hat, u, loads).truncated
    assert kernel.product is False
    assert np.unique(whole[whole < 1.0]).size > 3
    assert sharded.tobytes() == whole.tobytes()


@pytest.mark.parametrize("mode,fairness", [(PACK, 0.0), (COVER, 1.0)])
@pytest.mark.parametrize("count", [1, 4, None])
def test_one_barrier_weight_formula(mode, fairness, count):
    # at packing alpha = 0 and in covering the row factors are the barrier
    # weights, so the certificate's multipliers, the weights the gradient
    # returns and the kernel's own are one formula's bytes, in both engines
    rng = np.random.default_rng(11)
    dense = np.where(rng.random((7, 9)) < 0.35, rng.uniform(1.0, 50.0, (7, 9)), 0.0)
    dense[np.arange(9) % 7, np.arange(9)] += 1.0  # no empty row or column
    inst, _ = instance_from_dense(dense, mode=mode)
    if mode == PACK:
        params = derive_packing_params(inst.m, inst.n, inst.rho, fairness, 0.1)
        beta, logC = params.beta, params.logC
    else:
        beta, logC = derive_covering_params(inst.m, inst.n, inst.rho, fairness, 0.1).beta, 0.0
    kernel = GradientKernel(inst.matrix, 0.0, beta, logC)
    lockstep = checked_lockstep(inst.matrix, 0.0, beta, logC, inst.n if count is None else count)
    for top in (0.5, 1.0, 1.01):
        u = np.exp(rng.uniform(np.log(1e-3), 0.0, inst.n))
        u *= top / kernel.loads_of(u).max()
        loads = kernel.loads_of(u)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            weights = kernel.weights(loads)
            for k in (kernel, lockstep):
                assert k.weights(loads).tobytes() == weights.tobytes()
                assert k.evaluate(u, u, loads).weights.tobytes() == weights.tobytes()
                assert certify(k, u, loads).dual.tobytes() == weights.tobytes()
        assert ((weights > 0.0) & np.isfinite(weights)).any()


@pytest.mark.parametrize("count", [1, 2, 4, None])
def test_covering_bit_identical_over_partitions(monkeypatch, count):
    inst, _ = instance_from_dense(
        np.array([[1.0, 0.0, 2.0, 0.0, 1.0],
                  [0.0, 3.0, 0.0, 1.0, 0.0],
                  [1.5, 0.0, 0.0, 2.0, 4.0],
                  [0.0, 1.0, 1.0, 0.0, 0.0]]),
        mode=COVER, fairness=1.0,
    )
    monkeypatch.setattr(rounds, "SHARD_COUNT", inst.n if count is None else count)
    config = SolverConfig(fairness=1.0, epsilon=0.1, mode=COVER, max_iters=200)
    mono = solve_covering(inst, config)
    dist, audit = run_distributed(inst, config)
    assert mono.y.tobytes() == dist.y.tobytes()
    assert mono.cost == dist.cost
    assert audit.ok


def test_shards_partition_the_columns():
    inst = partition_instance()
    shards = build_shards(inst.matrix, count=4)
    col_ptr, col_row = inst.matrix.col_ptr, inst.matrix.col_row
    assert shards.bounds.tolist() == [0, 2, 4, 6, 9]
    for s, (c0, c1) in enumerate(zip(shards.bounds[:-1], shards.bounds[1:])):
        lo, hi = col_ptr[c0], col_ptr[c1]
        # the shard's message slice: its sorted incident rows, and no other
        first, last = shards.slots[s], shards.slots[s + 1]
        assert shards.rows[first:last].tolist() == sorted(set(col_row[lo:hi].tolist()))
        slots = shards.row_pos[lo:hi]
        assert ((first <= slots) & (slots < last)).all()
    assert (shards.rows[shards.row_pos] == col_row).all()


def test_shards_are_read_only():
    inst = partition_instance()
    shards = build_shards(inst.matrix, count=4)
    for name in ("bounds", "row_pos", "rows", "slots"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(shards, name)[0] = 0


@pytest.mark.parametrize("shard,slot", [(0, 1), (2, 0)])
def test_out_of_slice_slot_raises(shard, slot):
    # one row over three one-column shards: every slot carries row 0, so a
    # slot in another shard's slice still carries the entry's own row
    inst = single_row_instance([1.0, 2.0, 3.0])
    good = build_shards(inst.matrix, count=3)
    audit = rounds.LocalityAudit()
    check_layout(good, inst.matrix, audit)
    assert audit.ok
    row_pos = good.row_pos.copy()
    row_pos[shard] = slot
    stray = dataclasses.replace(good, row_pos=row_pos)
    with pytest.raises(LocalityViolation,
                       match=rf"shard {shard} \(columns {shard}..{shard}\) reads the load of "
                             rf"entry {shard}'s row 0 from slot {slot}, outside its message "
                             rf"slice \[{shard}, {shard + 1}\)"):
        check_layout(stray, inst.matrix, audit)
    assert audit.out_of_column == [(shard, shard)]


def test_slot_carrying_another_row_raises():
    # two entries of one shard swap slots: both stay inside the shard's
    # message slice, but each reads the other's row load
    inst = partition_instance()
    good = build_shards(inst.matrix, count=4)
    col_row = inst.matrix.col_row
    lo, hi = inst.matrix.col_ptr[good.bounds[1]], inst.matrix.col_ptr[good.bounds[2]]
    first = int(lo)
    second = first + int(np.flatnonzero(col_row[lo:hi] != col_row[first])[0])
    row_pos = good.row_pos.copy()
    row_pos[[first, second]] = row_pos[[second, first]]
    swapped = dataclasses.replace(good, row_pos=row_pos)
    audit = rounds.LocalityAudit()
    with pytest.raises(LocalityViolation,
                       match=rf"shard 1 .* entry {first}'s row {col_row[first]} from slot "
                             rf"{row_pos[first]}, which carries row {col_row[second]}$"):
        check_layout(swapped, inst.matrix, audit)
    assert audit.out_of_column == [(1, first), (1, second)]


def test_message_check_records_breaches():
    inst = identity_instance(3)
    shards = build_shards(inst.matrix, count=3)
    audit = rounds.LocalityAudit()
    check_message(shards, shard_messages(shards, np.ones(3), 4), audit)
    assert audit.ok
    # an equal copy of the layout's rows passes too
    copied = shard_messages(shards, np.ones(3), 4)._replace(rows=shards.rows.copy())
    check_message(shards, copied, audit)
    assert audit.ok
    # shard 2's message slice carries row 0 instead of its row 2
    msg = shard_messages(shards, np.ones(3), 5)._replace(rows=np.array([0, 1, 0]))
    with pytest.raises(LocalityViolation,
                       match=r"round 5: malformed messages from shards \[2\]; "
                             r"shard 2's message lacks the load of row 2"):
        check_message(shards, msg, audit)
    assert audit.message_key_mismatches == [(5, 2)]
    assert audit.out_of_column == []


def test_audit_charges_a_short_or_long_buffer():
    inst = partition_instance()
    shards = build_shards(inst.matrix, count=4)
    full = shard_messages(shards, np.ones(inst.m), 1)
    # a buffer cut inside shard 2's slice fails shards 2 and 3; one with a slot
    # past the last is charged to the last shard
    cut = full._replace(rows=full.rows[:shards.slots[2] + 1])
    longer = full._replace(rows=np.append(full.rows, 0))
    for msg, breached in [(cut, [2, 3]), (longer, [3])]:
        audit = rounds.LocalityAudit()
        with pytest.raises(LocalityViolation):
            check_message(shards, msg, audit)
        assert audit.message_key_mismatches == [(1, s) for s in breached]
        assert audit.out_of_column == []


def test_one_local_update_per_round(monkeypatch):
    # every round computes all blocks in one call, whatever the shard count
    inst = partition_instance()
    monkeypatch.setattr(rounds, "SHARD_COUNT", inst.n)
    calls = []
    honest = rounds.local_update

    def counted(kernel, shards, msg, x_hat, u):
        calls.append(msg.round_index)
        return honest(kernel, shards, msg, x_hat, u)

    monkeypatch.setattr(rounds, "local_update", counted)
    _, audit = run_distributed(inst, SolverConfig(fairness=1.0, epsilon=0.1, max_iters=40))
    assert calls == list(range(1, 41)) and audit.rounds == 40


@pytest.mark.parametrize("breach,fault", [
    ("stray slot", "from slot 1, outside its message slice [0, 1)"),
    ("wrong row", "from slot 0, which carries row 2"),
])
def test_out_of_column_read_exits_3(tmp_path, monkeypatch, capsys, breach, fault):
    path = tmp_path / "id3.mtx"
    write_matrix_market(path, identity_instance(3).matrix)
    honest = rounds.build_shards

    def broken(matrix, count):
        # one column per shard: either shard 0's entry reads slot 1, in shard
        # 1's message slice, or the buffer lists the rows in reverse, so each
        # slot stays in its shard's slice but carries another row
        shards = honest(matrix, count)
        if breach == "stray slot":
            row_pos = shards.row_pos.copy()
            row_pos[0] = shards.slots[1]
            return dataclasses.replace(shards, row_pos=row_pos)
        return dataclasses.replace(shards, rows=shards.rows[::-1])

    monkeypatch.setattr(rounds, "build_shards", broken)
    code = run_cli(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(path),
                    "--engine", "rounds", "--max-iters", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("solver assertion failed: shard 0 (columns 0..0) reads the load of entry "
                   f"0's row 0 {fault}\n")


def test_malformed_message_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "id3.mtx"
    write_matrix_market(path, identity_instance(3).matrix)
    honest = rounds.shard_messages

    def short(shards, factors, k):
        msg = honest(shards, factors, k)
        return ShardMessages(round_index=k, rows=msg.rows[:0], factors=msg.factors[:0])

    monkeypatch.setattr(rounds, "shard_messages", short)
    code = run_cli(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(path),
                    "--engine", "rounds", "--max-iters", "5"])
    assert code == 3
    assert "malformed messages" in capsys.readouterr().err


# ---- the round against the monolithic kernel, evaluation by evaluation ----

# (mode, fairness, epsilon) of each kernel form: alpha = 0 forms the barrier
# weights, then the mirror, additive and multiplicative regimes, the log-domain
# fallback, and covering's dual kernel (product form, weights, C = 1)
KERNEL_FORMS = {
    "weights": (PACK, 0.0, 0.1),
    "mirror": (PACK, 0.5, 0.1),
    "additive": (PACK, 1.0, 0.1),
    "multiplicative": (PACK, 2.0, 0.05),
    "fallback": (PACK, *FALLBACK),
    "covering": (COVER, 1.0, 0.1),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8),
       n=st.integers(1, 10), form=st.sampled_from(sorted(KERNEL_FORMS)),
       top=st.one_of(st.just(1.0), st.floats(0.5, 1.0)))
def test_round_evaluates_bitwise_as_the_kernel(data, seed, m, n, form, top):
    mode, fairness, eps = KERNEL_FORMS[form]
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((m, n)) < 0.3, 1.0 + 99.0 * rng.random((m, n)) ** 2, 0.0)
    cover = np.arange(max(m, n))
    dense[cover % m, cover % n] += 1.0   # no empty row or column
    inst, _ = instance_from_dense(dense, mode=mode)
    if mode == PACK:
        params = derive_packing_params(m, n, inst.rho, fairness, eps)
        alpha, beta, logC = fairness, params.beta, params.logC
    else:
        alpha, beta, logC = 0.0, derive_covering_params(m, n, inst.rho, fairness, eps).beta, 0.0
    kernel = GradientKernel(inst.matrix, alpha, beta, logC)
    # the fallback needs m n rho above about 711 at these constants
    assume(kernel.product is (form != "fallback"))
    # an allocation spread over six decades, scaled so its fullest row has load ``top``
    u = np.exp(rng.uniform(np.log(1e-6), 0.0, n))
    u *= top / kernel.loads_of(u).max()
    x_hat = u if mode == COVER else transform_inverse(u, alpha)
    loads = kernel.loads_of(u)
    count = data.draw(st.integers(1, n), label="shards")
    lockstep = checked_lockstep(inst.matrix, alpha, beta, logC, count)
    assert lockstep.shards.bounds.size == count + 1
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        whole = kernel.evaluate(x_hat, u, loads)
        sharded = lockstep.evaluate(x_hat, u, loads)
    assert sharded.truncated.tobytes() == whole.truncated.tobytes()
    assert (sharded.weights is None) is (whole.weights is None) is (form not in ("weights", "covering"))
    if whole.weights is not None:
        assert sharded.weights.tobytes() == whole.weights.tobytes()
    assert lockstep.audit.rounds == 1 and lockstep.audit.ok
