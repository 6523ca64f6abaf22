import dataclasses

import numpy as np
import pytest

from fairpc import (
    COVER,
    SolverConfig,
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
from fairpc.errors import LocalityViolation, MissingLoad
from fairpc.matrix import write_matrix_market
from fairpc.regularization import GradientKernel
from fairpc.rounds import (
    ShardMessage,
    audit_round,
    build_shard,
    build_shards,
    local_update,
    run_distributed,
)

from conftest import identity_instance, single_row_instance


def one_shard(instance, params):
    kernel = GradientKernel(instance.matrix, 1.0, params.beta, params.logC)
    (shard,) = build_shards(kernel, count=1)
    return kernel, shard


def test_local_update_reproduces_monolithic_step():
    inst = identity_instance(1)
    config = SolverConfig(fairness=1.0, epsilon=0.1)
    params = derive_packing_params(1, 1, 1.0, 1.0, 0.1)
    state = init_packing(inst, config, params)
    kernel, shard = one_shard(inst, params)
    loads = state.u.copy()   # the identity's loads are the allocation
    msg = ShardMessage(round_index=1, rows=np.array([0]), loads=loads)
    block = local_update(shard, msg, state.x_hat, state.u)
    whole = kernel.evaluate(state.x_hat, state.u, loads)
    assert block.truncated.tobytes() == whole.truncated.tobytes()

    step(state, inst, params, 1.0)
    assert state.k == 1
    assert state.x_hat[0] == pytest.approx(-0.10451623583222594, rel=1e-9)


def test_local_update_zero_gradient_is_noop():
    inst = identity_instance(1)
    params = derive_packing_params(1, 1, 1.0, 1.0, 0.1)
    _, shard = one_shard(inst, params)
    # at load exp(-logC * beta) the weighted sum is exactly 1 -> gradient 0
    x_hat = np.array([-params.logC * params.beta / (1.0 + params.beta)])
    msg = ShardMessage(round_index=4, rows=np.array([0]), loads=np.exp(x_hat))
    block = local_update(shard, msg, x_hat, np.exp(x_hat))
    assert block.truncated[0] == pytest.approx(0.0, abs=1e-12)


def test_local_update_missing_load():
    inst = single_row_instance([1.0, 1.0])
    params = derive_packing_params(1, 2, 1.0, 1.0, 0.1)
    _, shard = one_shard(inst, params)
    x_hat = np.array([-1.0, -1.0])
    empty = ShardMessage(round_index=1, rows=np.array([], dtype=np.int64), loads=np.array([]))
    with pytest.raises(MissingLoad):
        local_update(shard, empty, x_hat, np.exp(x_hat))


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


@pytest.mark.parametrize("alpha,eps", [(0.0, 0.1), (0.5, 0.1), (1.0, 0.1), (2.0, 0.05)])
def test_bit_identical_with_early_stop(alpha, eps):
    inst = single_row_instance([1.0, 2.0, 1.5])
    config = SolverConfig(fairness=alpha, epsilon=eps, early_stop=True, trace_stride=25)
    mono = solve_packing(inst, config)
    dist, audit = run_distributed(inst, config)
    assert mono.stopped_early and dist.stopped_early
    assert mono.x.tobytes() == dist.x.tobytes()
    assert mono.iterations_run == dist.iterations_run
    assert mono.gap_estimate == dist.gap_estimate and mono.trace == dist.trace


def test_bit_identical_covering():
    inst = identity_instance(2, mode=COVER)
    config = SolverConfig(fairness=1.0, epsilon=0.1, mode=COVER, max_iters=200)
    mono = solve_covering(inst, config)
    dist, audit = run_distributed(inst, config, mode=COVER)
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


def test_audit_reports_touched_entries():
    inst, _ = instance_from_dense(np.array([[1.0, 2.0], [1.0, 0.0]]))
    config = SolverConfig(fairness=0.0, epsilon=0.1, max_iters=5)
    _, audit = run_distributed(inst, config)
    assert audit.ok
    assert audit.touched_counts == {0: 2, 1: 1}  # column nnz
    assert audit.out_of_column == []


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
        assert GradientKernel(inst.matrix, alpha, params.beta, params.logC).form.product is False
    config = SolverConfig(fairness=alpha, epsilon=eps, max_iters=150, trace_stride=7)
    mono = solve_packing(inst, config)
    dist, audit = run_distributed(inst, config)
    assert mono.x.tobytes() == dist.x.tobytes()
    assert mono.utility == dist.utility
    assert [r.f_r for r in mono.trace] == [r.f_r for r in dist.trace]
    assert audit.ok and audit.rounds == 150
    assert sum(audit.touched_counts.values()) == inst.matrix.nnz


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
    sharded = rounds._Lockstep(kernel).evaluate(x_hat, u, loads).truncated
    assert kernel.form.product is False
    assert np.unique(whole[whole < 1.0]).size > 3
    assert sharded.tobytes() == whole.tobytes()


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
    dist, audit = run_distributed(inst, config, mode=COVER)
    assert mono.y.tobytes() == dist.y.tobytes()
    assert mono.cost == dist.cost
    assert audit.ok


def test_shards_partition_the_columns():
    inst = partition_instance()
    params = derive_packing_params(inst.m, inst.n, inst.rho, 1.0, 0.1)
    kernel = GradientKernel(inst.matrix, 1.0, params.beta, params.logC)
    shards = build_shards(kernel, count=4)
    assert shards[0].c0 == 0 and shards[-1].c1 == inst.n
    assert all(a.c1 == b.c0 for a, b in zip(shards, shards[1:]))
    for s in shards:
        lo, hi = inst.matrix.col_ptr[s.c0], inst.matrix.col_ptr[s.c1]
        assert s.gather.tolist() == list(range(lo, hi))
        assert s.rows.tolist() == sorted(set(inst.matrix.col_row[lo:hi].tolist()))
        assert (s.rows[s.row_pos] == inst.matrix.col_row[lo:hi]).all()


def test_out_of_column_gather_raises():
    inst = identity_instance(3)
    params = derive_packing_params(3, 3, 1.0, 1.0, 0.1)
    kernel = GradientKernel(inst.matrix, 1.0, params.beta, params.logC)
    # the shard owns column 0 (entry 0) but gathers entry 1, which is column 1's
    with pytest.raises(LocalityViolation, match="gathers entry 1"):
        build_shard(kernel, 0, 0, 1, np.array([0, 1]))


def test_per_round_audit_records_breaches():
    inst = identity_instance(3)
    params = derive_packing_params(3, 3, 1.0, 1.0, 0.1)
    kernel = GradientKernel(inst.matrix, 1.0, params.beta, params.logC)
    good = build_shards(kernel, count=3)
    # a shard whose gather was altered after the build-time check
    bad = [good[0], dataclasses.replace(good[1], gather=np.array([2])), good[2]]
    msgs = [rounds.shard_message(s, np.ones(3), 5) for s in bad]
    msgs[2] = ShardMessage(round_index=5, rows=np.array([0, 2]), loads=np.ones(2))
    audit = rounds.LocalityAudit()
    with pytest.raises(LocalityViolation):
        audit_round(bad, msgs, inst.matrix.col_ptr, 5, audit)
    assert audit.out_of_column == [(5, 1, 2)]
    assert audit.message_key_mismatches == [(5, 2)]


def test_out_of_column_read_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "id3.mtx"
    write_matrix_market(path, identity_instance(3).matrix)

    honest = rounds.build_shard

    def overreach(kernel, index, c0, c1, gather, *rest):
        # every shard also reads the entry after its last one
        return honest(kernel, index, c0, c1, np.append(gather, gather[-1] + 1), *rest)

    monkeypatch.setattr(rounds, "build_shard", overreach)
    code = run_cli(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(path),
                    "--engine", "rounds", "--max-iters", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert "solver assertion failed" in err and "outside its columns" in err


def test_malformed_message_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "id3.mtx"
    write_matrix_market(path, identity_instance(3).matrix)
    honest = rounds.shard_message

    def short(shard, loads, k):
        msg = honest(shard, loads, k)
        return ShardMessage(round_index=k, rows=msg.rows[:0], loads=msg.loads[:0])

    monkeypatch.setattr(rounds, "shard_message", short)
    code = run_cli(["--mode", "pack", "--alpha", "1", "--epsilon", "0.1", "--input", str(path),
                    "--engine", "rounds", "--max-iters", "5"])
    assert code == 3
    assert "malformed messages" in capsys.readouterr().err
