import numpy as np
import pytest

from fairpc import (
    COVER,
    SolverConfig,
    covering_closed_form_optimum,
    covering_residual,
    derive_covering_params,
    g_beta_value,
    init_covering,
    solve_covering,
    step_covering,
)
from fairpc.covering import running_average
from fairpc.errors import NegativeCoordinate
from fairpc.regularization import SubThresholdBetaWarning
from fairpc.rounds import run_distributed

from conftest import identity_instance, single_column_instance


def cover_config(beta, eps=0.1, **kw):
    return SolverConfig(fairness=beta, epsilon=eps, mode=COVER, **kw)


# ---- initialization ----

def test_init_1x1_unit():
    inst = identity_instance(1, mode=COVER)
    state = init_covering(inst, cover_config(1.0), derive_covering_params(1, 1, 1.0, 1.0, 0.1))
    assert state.x_hat[0] == 1.0
    assert state.z[0] == 0.0  # 1**(-b') - 1
    np.testing.assert_array_equal(state.y_avg, [0.0])
    assert state.k == 0


def test_init_2x2():
    inst = identity_instance(2, mode=COVER)
    state = init_covering(inst, cover_config(1.0), derive_covering_params(2, 2, 1.0, 1.0, 0.1))
    np.testing.assert_allclose(state.x_hat, [0.25, 0.25], rtol=1e-15)


# ---- stepping ----

def test_step_fixed_point_at_optimum():
    inst = identity_instance(1, mode=COVER)
    params = derive_covering_params(1, 1, 1.0, 1.0, 0.1)
    state = init_covering(inst, cover_config(1.0), params)
    step_covering(state)
    assert state.x_hat[0] == 1.0
    assert state.z[0] == 0.0  # gradient -1 + (1)^1 = 0
    assert state.y_avg[0] == pytest.approx(1.0, rel=1e-15)


def test_running_average_identity():
    y1, y2 = np.array([2.0]), np.array([4.0])
    avg = running_average(np.zeros(1), y1, 1)
    avg = running_average(avg, y2, 2)
    assert avg[0] == pytest.approx(3.0, rel=1e-15)


def test_y_avg_matches_definition():
    inst = identity_instance(2, mode=COVER)
    params = derive_covering_params(2, 2, 1.0, 1.0, 0.1)
    state = init_covering(inst, cover_config(1.0), params)
    per_step = []
    for _ in range(25):
        step_covering(state)
        loads = state.kernel.loads_of(state.x_hat)
        per_step.append(loads ** (1.0 / params.beta))
    np.testing.assert_allclose(state.y_avg, np.mean(per_step, axis=0), rtol=1e-9)


# ---- residual reports ----

def test_covering_residual_examples():
    inst = identity_instance(2, mode=COVER)
    rep = covering_residual(inst, np.array([1.0, 1.0]))
    assert rep.min_load == 1.0 and rep.violated_cols == []
    rep = covering_residual(inst, np.array([1.0, 0.5]))
    assert rep.min_load == 0.5 and rep.violated_cols == [1]
    rep = covering_residual(inst, np.zeros(2))
    assert rep.min_load == 0.0 and rep.violated_cols == [0, 1]
    with pytest.raises(NegativeCoordinate):
        covering_residual(inst, np.array([-1.0, 1.0]))


# ---- full solves ----

def test_solve_identity_guarantees():
    inst = identity_instance(2, mode=COVER)
    sol = solve_covering(inst, cover_config(1.0))
    oracle = covering_closed_form_optimum(inst, 1.0)
    assert sol.prescale_residual >= 1.0 - 0.1 / 2.0
    assert sol.cost_prescale <= (1.0 + 3 * 0.1 * 2.0) * oracle.objective
    assert sol.min_load >= 1.0
    assert sol.is_feasible
    np.testing.assert_allclose(sol.y, 1.1 * sol.y / 1.1, rtol=0)  # sanity on scaling
    assert sol.iterations_run == sol.params.K


def test_solve_single_column_guarantee():
    inst = single_column_instance([1.0, 1.0])
    sol = solve_covering(inst, cover_config(1.0))
    oracle = covering_closed_form_optimum(inst, 1.0)
    assert sol.cost_prescale <= (1.0 + 3 * 0.1 * 2.0) * oracle.objective
    assert sol.min_load >= 1.0


def test_solve_beta_reset_branch():
    inst = identity_instance(2, mode=COVER)
    sol = solve_covering(inst, cover_config(0.0))
    assert sol.params.was_reset
    oracle = covering_closed_form_optimum(inst, sol.params.beta)
    bound = (1.0 + 3 * 0.1 * (1.0 + sol.params.beta)) * oracle.objective
    assert sol.cost_prescale <= bound
    assert sol.min_load >= 1.0


def test_returned_cost_relation():
    inst = identity_instance(2, mode=COVER)
    sol = solve_covering(inst, cover_config(1.0))
    # both costs are reported; the returned one carries the (1+eps) inflation
    ratio = sol.cost / sol.cost_prescale
    assert ratio == pytest.approx(1.1 ** 2.0, rel=1e-12)


def test_gap_estimate_nonnegative_and_small():
    inst = identity_instance(2, mode=COVER)
    sol = solve_covering(inst, cover_config(1.0))
    assert sol.gap_estimate is not None
    assert sol.gap_estimate >= -1e-9
    oracle = covering_closed_form_optimum(inst, 1.0)
    assert g_beta_value(sol.y, 1.0) - oracle.objective <= sol.gap_estimate + 1e-9


def test_override_budget_skips_certificate():
    inst = identity_instance(2, mode=COVER)
    sol = solve_covering(inst, cover_config(1.0, max_iters=3))
    assert sol.iterations_run == 3  # no CertificateShortfall on truncated runs


def test_solve_deterministic():
    inst = single_column_instance([1.0, 2.0])
    a = solve_covering(inst, cover_config(1.0))
    b = solve_covering(inst, cover_config(1.0))
    assert a.y.tobytes() == b.y.tobytes()


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_trace_rows_and_early_stop_contract(engine):
    # covering rows carry no certificate, and --early-stop changes nothing in covering
    inst = identity_instance(2, mode=COVER)

    def solve(**kw):
        config = cover_config(1.0, max_iters=100, trace_stride=10, **kw)
        if engine == "rounds":
            return run_distributed(inst, config)[0]
        return solve_covering(inst, config)

    sol = solve()
    assert [row.k for row in sol.trace] == list(range(0, 101, 10))
    assert all(row.gap is None for row in sol.trace)
    # the utility column is the dual iterate's linear term, bit for bit
    assert sol.trace[-1].utility == float(np.add.reduce(sol.dual_certificate))
    early = solve(early_stop=True)
    np.testing.assert_array_equal(early.y, sol.y)
    assert early.trace == sol.trace
    assert early.iterations_run == sol.iterations_run == 100


@pytest.mark.parametrize("call", ["derive_covering_params", "solve_covering", "run_distributed"])
def test_sub_threshold_beta_warning_names_the_callers_file(call):
    inst = identity_instance(2, mode=COVER)
    config = cover_config(1e-4, max_iters=5)
    with pytest.warns(SubThresholdBetaWarning) as rec:
        if call == "derive_covering_params":
            derive_covering_params(inst.m, inst.n, inst.rho, config.beta, config.epsilon)
        elif call == "solve_covering":
            solve_covering(inst, config)
        else:
            run_distributed(inst, config)
    assert rec[0].filename == __file__
