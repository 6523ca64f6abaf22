import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpc import (
    COVER,
    PACK,
    SolverConfig,
    certify,
    derive_packing_params,
    diagonal_packing_optimum,
    feasibility_report,
    init_packing,
    instance_from_dense,
    run_distributed,
    single_constraint_packing_optimum,
    small_dense_packing_optimum,
    solve_covering,
    solve_packing,
    standardize,
    step,
)
from fairpc import covering, packing, rounds
from fairpc.errors import FeasibilityViolation, NegativeCoordinate
from fairpc.packing import (
    MULTIPLIER_START, PackingRunRecorder, enter_stage, epsilon_schedule,
    iterate_loads, mirror_state, update_rule,
)
from fairpc.problem import epsilon_upper_bound
from fairpc.regularization import GradientKernel
from fairpc.rounds import SHARD_COUNT, LocalityAudit, _Lockstep, build_shards, check_layout

from conftest import identity_instance, random_sparse_entries, single_row_instance


# ---- initialization ----

def test_init_alpha0():
    inst = identity_instance(2)
    params = derive_packing_params(2, 2, 1.0, 0.0, 0.1)
    state = init_packing(inst, SolverConfig(fairness=0.0, epsilon=0.1), params)
    np.testing.assert_allclose(state.x_hat, [0.45, 0.45], rtol=1e-15)
    # mirror state equals exp(eps/4) - 1 here
    assert state.z[0] == pytest.approx(0.025315120524428858, rel=1e-12)
    assert state.k == 0


def test_init_alpha1():
    inst = identity_instance(1)
    params = derive_packing_params(1, 1, 1.0, 1.0, 0.1)
    state = init_packing(inst, SolverConfig(fairness=1.0, epsilon=0.1), params)
    assert state.x_hat[0] == pytest.approx(math.log(0.9), rel=1e-15)
    assert state.z is None


def test_init_alpha2():
    inst = identity_instance(1)
    params = derive_packing_params(1, 1, 1.0, 2.0, 0.05)
    state = init_packing(inst, SolverConfig(fairness=2.0, epsilon=0.05), params)
    assert state.x_hat[0] == pytest.approx(1.0526315789473684, rel=1e-15)


def test_init_allocation_cache_consistent():
    inst = identity_instance(3)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        eps = 0.1 if alpha <= 1.0 else 0.05
        params = derive_packing_params(3, 3, 1.0, alpha, eps)
        state = init_packing(inst, SolverConfig(fairness=alpha, epsilon=eps), params)
        if alpha == 1.0:
            np.testing.assert_allclose(state.u, np.exp(state.x_hat), rtol=1e-12)
        else:
            np.testing.assert_allclose(state.u, state.x_hat ** (1 / (1 - alpha)), rtol=1e-12)


def test_mirror_consistency_first_iterate():
    # the first mirror recomputation must reproduce the initial iterate
    for alpha in (0.0, 0.3, 0.9):
        inst = identity_instance(2)
        config = SolverConfig(fairness=alpha, epsilon=0.1)
        params = derive_packing_params(2, 2, 1.0, alpha, 0.1)
        state = init_packing(inst, config, params)
        x0 = state.x_hat.copy()
        step(state)
        np.testing.assert_allclose(state.x_hat, x0, rtol=1e-12)


# ---- single steps ----

def test_step_alpha1_hand_value():
    inst = identity_instance(1)
    config = SolverConfig(fairness=1.0, epsilon=0.1)
    params = derive_packing_params(1, 1, 1.0, 1.0, 0.1)
    assert params.beta == pytest.approx(3.38856288352271e-3, rel=1e-12)
    state = init_packing(inst, config, params)
    step(state)
    # gradient is -1 + O(1e-8), so the iterate moves up by beta/(4(1+beta))
    assert state.x_hat[0] == pytest.approx(-0.10451623583222594, rel=1e-9)


def test_step_alpha2_hand_value():
    inst = identity_instance(1)
    config = SolverConfig(fairness=2.0, epsilon=0.05)
    params = derive_packing_params(1, 1, 1.0, 2.0, 0.05)
    state = init_packing(inst, config, params)
    x0 = state.x_hat[0]
    step(state)
    factor = state.x_hat[0] / x0
    assert factor == pytest.approx(1.0 - 2.3726224597919732e-4, rel=1e-9)
    assert state.u[0] > 0.95  # allocation rises toward 1


def test_step_zero_gradient_fixed_point():
    # with (1-alpha) * grad == 0 the alpha > 1 iterate is unchanged
    inst = identity_instance(1)
    params = derive_packing_params(1, 1, 1.0, 2.0, 0.05)
    config = SolverConfig(fairness=2.0, epsilon=0.05)
    state = init_packing(inst, config, params)
    # the fixed point of the multiplicative rule: load with zero scaled gradient
    # x^alpha * C * load^{1/beta} = 1 at load = L*, x = L*
    target = math.exp(
        (2.0 * 0.0 - params.logC * params.beta) / (1.0 + 2.0 * params.beta)
    )  # solves 2 ln x + logC + ln(x)/beta = 0
    state.x_hat = np.array([target ** (1.0 - 2.0)])
    state.u = np.array([target])
    state.loads = state.kernel.loads_of(state.u)
    k0 = state.k
    step(state)
    assert state.k == k0 + 1
    assert state.x_hat[0] == pytest.approx(target ** -1.0, rel=1e-9)


# ---- feasibility report ----

def test_feasibility_report_examples():
    inst = identity_instance(2)
    rep = feasibility_report(inst, np.zeros(2))
    assert rep.max_load == 0.0 and rep.is_feasible
    rep = feasibility_report(inst, np.ones(2))
    assert rep.max_load == 1.0 and rep.is_feasible  # boundary counts as feasible
    rep = feasibility_report(inst, np.array([1.2, 0.0]))
    assert not rep.is_feasible and rep.violated_rows == [0]
    with pytest.raises(NegativeCoordinate):
        feasibility_report(inst, np.array([-0.1, 0.0]))


# ---- certificate: the Lagrangian dual bound at the barrier weights ----

def certificate_at(inst, x_hat, params, alpha):
    """``certify`` at an arbitrary iterate, its loads computed here."""
    kernel = GradientKernel(inst.matrix, alpha, params.beta, params.logC)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return certify(kernel, x_hat, kernel.loads_of(kernel.allocation(x_hat)))


def test_duality_gap_at_barrier_equilibrium():
    # 1x1 at allocation 1/(1+eps/2): dual weight is exactly 1 and the gap eps/2
    inst = identity_instance(1)
    params = derive_packing_params(1, 1, 1.0, 2.0, 0.05)
    x_hat = np.array([1.0 + 0.05 / 2.0])  # transformed: x = 1/(1+eps/2)
    cert = certificate_at(inst, x_hat, params, 2.0)
    assert cert.gap == pytest.approx(0.025, abs=1e-12)


def test_duality_gap_positive_off_optimum():
    inst = identity_instance(1)
    params = derive_packing_params(1, 1, 1.0, 2.0, 0.05)
    cert = certificate_at(inst, np.array([1.0 / 0.9]), params, 2.0)
    assert cert.gap > 0.0


def test_duality_gap_weak_duality_random():
    rng = np.random.default_rng(11)
    inst = single_row_instance([1.0, 2.0])
    params = derive_packing_params(1, 2, 2.0, 2.0, 0.05)
    for _ in range(25):
        x = rng.uniform(0.1, 0.3, 2)
        # keep the load high enough that the dual weight does not underflow
        x *= rng.uniform(0.6, 0.95) / float(np.dot([1.0, 2.0], x))
        x_hat = x ** (1.0 - 2.0)
        cert = certificate_at(inst, x_hat, params, 2.0)
        assert cert.gap >= -1e-9


def test_duality_gap_defined_at_every_alpha():
    # the certificate once required alpha > 1; it now bounds OPT in every regime
    inst = single_row_instance([1.0, 1.0])
    for alpha in (0.0, 0.5, 1.0):
        params = derive_packing_params(1, 2, 1.0, alpha, 0.1)
        x = np.array([0.45, 0.45])
        x_hat = np.log(x) if alpha == 1.0 else x ** (1.0 - alpha)
        cert = certificate_at(inst, x_hat, params, alpha)
        opt = single_constraint_packing_optimum([1.0, 1.0], alpha).objective
        assert math.isfinite(cert.bound) and cert.bound >= opt - 1e-12


def closed_form_bound(matrix, alpha, y):
    """sum(y) + alpha/(1-alpha) sum_j (A^T y)_j**((alpha-1)/alpha) over the
    columns with dual mass, from the dense matrix."""
    aty = matrix.to_dense().T @ y
    mass = aty[aty > 0.0]
    return float(y.sum() + alpha / (1.0 - alpha) * np.sum(mass ** ((alpha - 1.0) / alpha)))


def test_duality_gap_zero_dual_mass():
    # a zero allocation coordinate makes its column's dual mass vanish; above
    # fairness 1 that column adds 0, so the bound stays finite and >= OPT
    inst = identity_instance(2)
    params = derive_packing_params(2, 2, 1.0, 2.0, 0.05)
    # huge transformed value -> allocation underflows to 0 -> zero load row;
    # column 1 sits at allocation 1/(1+eps/2), where its weight is 1
    cert = certificate_at(inst, np.array([1e300, 1.0 + 0.05 / 2.0]), params, 2.0)
    assert cert.dual[0] == 0.0 and cert.dual[1] == pytest.approx(1.0, rel=1e-9)
    assert math.isfinite(cert.bound)
    assert cert.bound == pytest.approx(closed_form_bound(inst.matrix, 2.0, cert.dual),
                                       rel=1e-12)
    assert diagonal_packing_optimum([1.0, 1.0], 2.0).objective <= cert.bound < 0.0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_dual_free_column_adds_zero_above_one(alpha):
    # rows (1, 2, 0) and (0, 0, 1): row 1's load is so low that its barrier
    # weight underflows, so column 2 has no dual mass; OPT is the sum of the
    # two blocks' closed forms; row 0's load 1/(1+eps/2) gives it weight 1
    inst, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]))
    eps = epsilon_upper_bound(alpha)
    params = derive_packing_params(2, 3, 2.0, alpha, eps)
    load = 1.0 / (1.0 + eps / 2.0)
    u = np.array([load / 3.0, load / 3.0, 1e-3])
    cert = certificate_at(inst, u ** (1.0 - alpha), params, alpha)
    opt = (single_constraint_packing_optimum([1.0, 2.0], alpha).objective
           + diagonal_packing_optimum([1.0], alpha).objective)
    assert cert.dual[1] == 0.0 < cert.dual[0]
    assert math.isfinite(cert.bound)
    assert cert.bound == pytest.approx(closed_form_bound(inst.matrix, alpha, cert.dual),
                                       rel=1e-12)
    assert opt <= cert.bound < 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_zero_dual_mass_never_stops(alpha):
    # column 0's load is so low that its barrier weight underflows: (A^T y)_0 = 0
    inst = identity_instance(2)
    eps = min(0.1, epsilon_upper_bound(alpha))
    config = SolverConfig(fairness=alpha, epsilon=eps, early_stop=True)
    params = derive_packing_params(2, 2, 1.0, alpha, eps)
    state = init_packing(inst, config, params)
    recorder = PackingRunRecorder(config)
    u = np.array([1e-3, 0.9])
    x_hat = np.log(u) if alpha == 1.0 else u ** (1.0 - alpha)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        state.x_hat, state.u, state.loads = x_hat, u, state.kernel.loads_of(u)
        recorder.check(state)
        row = recorder.record(state, 0)
    if alpha <= 1.0:
        assert recorder.last.dual[0] == 0.0 and recorder.last.bound == math.inf
        assert row.gap is None and recorder.best is None
    else:
        # the dual-free column adds 0: a finite bound >= OPT, far above f
        cert = recorder.last
        assert cert.dual[0] == 0.0 and math.isfinite(cert.bound)
        assert cert.bound == pytest.approx(closed_form_bound(inst.matrix, alpha, cert.dual),
                                           rel=1e-12)
        assert cert.bound >= diagonal_packing_optimum([1.0, 1.0], alpha).objective
        assert row.gap == cert.gap > 0.0 and recorder.best is cert
    assert not recorder.should_stop(state)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
       scaled=st.booleans())
def test_dual_bound_never_below_the_oracle(seed, alpha, scaled):
    # every finite bound along a run, from either start, is at least OPT
    entries, m, n = random_sparse_entries(np.random.default_rng(seed), max_dim=5, max_rho=10.0)
    inst, _ = standardize(entries, m, n)
    eps = min(0.1, epsilon_upper_bound(alpha))
    config = SolverConfig(fairness=alpha, epsilon=eps, early_stop=scaled)
    params = derive_packing_params(m, n, inst.rho, alpha, eps)
    tol = 1e-6
    opt = small_dense_packing_optimum(inst, alpha, tol=tol).objective
    state = init_packing(inst, config, params)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        for k in range(0, 601):
            if k % 100 == 0:
                cert = certify(state.kernel, state.x_hat, state.loads)
                if math.isfinite(cert.bound):
                    assert cert.bound >= opt - tol, (k, cert.bound, opt)
            step(state)


# ---- the early-stop epsilon schedule ----

def test_epsilon_schedule_halves_down_to_the_target():
    assert epsilon_schedule(2.0, 0.05) == [0.1, 0.05]
    assert epsilon_schedule(1.0, 0.1) == [0.5, 0.25, 0.125, 0.1]
    assert epsilon_schedule(0.5, 0.03) == [0.2, 0.1, 0.05, 0.03]
    assert epsilon_schedule(3.0, 0.05) == [0.05]   # the ceiling itself: one stage


@pytest.mark.parametrize("rounds", [False, True])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_stage_change_keeps_the_iterate(alpha, rounds):
    # x_hat, u and the checked loads stay bit for bit; the kernel, the rule
    # and (below 1) the mirror state are rebuilt for the new epsilon, and
    # under rounds the new kernel keeps the run's one shard layout and audit
    inst, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    first, target = epsilon_schedule(alpha, min(0.1, epsilon_upper_bound(alpha)) / 2)[:2]
    config = SolverConfig(fairness=alpha, epsilon=target, early_stop=True)
    params = derive_packing_params(2, 3, 3.0, alpha, first)
    new = derive_packing_params(2, 3, 3.0, alpha, target)
    audit = LocalityAudit()
    shards = build_shards(inst.matrix, SHARD_COUNT)
    check_layout(shards, inst.matrix, audit)
    make = (lambda *a: _Lockstep(*a, audit, shards)) if rounds else GradientKernel
    state = init_packing(inst, config, params, make)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        for _ in range(50):
            step(state)
        loads = state.loads
        x_hat, u = state.x_hat, state.u
        before = (x_hat.tobytes(), u.tobytes(), loads.tobytes())
        old_kernel, old_rule = state.kernel, state.rule
        enter_stage(state, new, make(inst.matrix, alpha, new.beta, new.logC))
    assert state.x_hat is x_hat and state.u is u and state.loads is loads
    assert (x_hat.tobytes(), u.tobytes(), loads.tobytes()) == before
    kernel = state.kernel
    assert type(kernel) is type(old_kernel) and kernel is not old_kernel
    assert (kernel.beta, kernel.logC) == (new.beta, new.logC)
    assert state.rule[0] != old_rule[0]
    if rounds:
        assert kernel.audit is old_kernel.audit and kernel.shards is old_kernel.shards
    if alpha < 1.0:
        np.testing.assert_array_equal(state.z, mirror_state(x_hat, new.beta_prime))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
def test_epsilon_schedule_certifies_in_both_engines(seed, alpha):
    # at half the smaller of 0.1 and the ceiling at least two stages are
    # scheduled; every iterate is checked for feasibility with no tolerance
    entries, m, n = random_sparse_entries(np.random.default_rng(seed), max_dim=5, max_rho=10.0)
    inst, _ = standardize(entries, m, n)
    eps = min(0.1, epsilon_upper_bound(alpha)) / 2.0
    assert len(epsilon_schedule(alpha, eps)) >= 2
    config = SolverConfig(fairness=alpha, epsilon=eps, early_stop=True, max_iters=20_000)
    with mock.patch.object(packing, "redo", side_effect=packing.redo) as redo:
        mono = solve_packing(inst, config)
        dist, audit = run_distributed(inst, config)
    assert mono.x.tobytes() == dist.x.tobytes() and mono.trace == dist.trace
    assert mono.stages == dist.stages and mono.gap_estimate == dist.gap_estimate
    assert [s.multiplier for s in mono.stages] == [s.multiplier for s in dist.stages]
    assert mono.iterations_run == dist.iterations_run == audit.rounds
    assert [s.epsilon for s in mono.stages] == epsilon_schedule(alpha, eps)[:len(mono.stages)]
    assert mono.stages[-1].until == mono.iterations_run == mono.trace[-1].k
    multipliers = [s.multiplier for s in mono.stages]
    assert multipliers == sorted(multipliers, reverse=True)
    assert all(1.0 <= mu <= MULTIPLIER_START for mu in multipliers)
    if not redo.called:   # at mu = 8 only a redone trial lowers it
        assert multipliers == [MULTIPLIER_START] * len(multipliers)
    tol = 1e-6
    opt = small_dense_packing_optimum(inst, alpha, tol=tol).objective
    if mono.stopped_early:
        assert mono.stages[-1].epsilon == eps
        if alpha < 1.0:
            bound = 3 * eps * (1 - alpha) * opt
        elif alpha == 1.0:
            bound = 3 * eps * n
        else:
            bound = 10 * eps * (alpha - 1) * abs(opt)
        assert opt - mono.utility <= bound + tol
    if mono.gap_estimate is not None:
        assert mono.gap_estimate >= opt - mono.utility - tol


# ---- the early-stop step multiplier ----

@pytest.mark.parametrize("index,alpha", [(39, 0.25), (10, 0.25), (47, 1.0), (31, 0.0)])
def test_a_flat_gap_does_not_lower_the_multiplier(packing_suite, index, alpha):
    # a check whose least certified gap has not shrunk leaves mu as it is:
    # these runs meet such checks (at alpha = 0.25 the first ones see no
    # finite bound), and at mu = 8 throughout each proves its stop quickly
    inst = packing_suite[index]
    config = SolverConfig(fairness=alpha, epsilon=0.1, early_stop=True, max_iters=20_000)
    mono = solve_packing(inst, config)
    dist, audit = run_distributed(inst, config)
    assert mono.stopped_early and mono.iterations_run <= 3_500
    assert mono.x.tobytes() == dist.x.tobytes() and mono.trace == dist.trace
    assert mono.stages == dist.stages and mono.iterations_run == audit.rounds
    assert all(stage.multiplier == MULTIPLIER_START for stage in mono.stages)


@pytest.mark.parametrize("alpha,eps", [(0.5, 0.1), (1.0, 0.1), (2.0, 0.05)])
def test_overshooting_multiplier_is_rejected_and_halved(monkeypatch, alpha, eps):
    # from a start of 1024 some trial iterates overload a row: each is redone
    # from the kept iterate at half the multiplier, with no new gradient, and
    # only iterates whose loads are at most 1 are accepted; both engines agree
    monkeypatch.setattr(packing, "MULTIPLIER_START", 1024.0)
    inst, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    config = SolverConfig(fairness=alpha, epsilon=eps, early_stop=True, trace_stride=25,
                          max_iters=20_000)
    redo, check = packing.redo, packing.iterate_loads
    logs = []

    def run(solve):
        rejected, halved, accepted = [], [], []

        def logged_redo(state):
            rejected.append(float(GradientKernel.loads_of(state.kernel, state.u).max()))
            before = state.retry[2]
            redo(state)
            halved.append((before, state.mu))

        def logged_loads(state, k):
            loads = check(state, k)
            accepted.append((k, float(loads.max())))
            return loads

        monkeypatch.setattr(packing, "redo", logged_redo)
        monkeypatch.setattr(packing, "iterate_loads", logged_loads)
        sol = solve()
        logs.append((rejected, halved, accepted))
        return sol

    mono = run(lambda: solve_packing(inst, config))
    dist, audit = run(lambda: run_distributed(inst, config))
    assert logs[0] == logs[1]
    rejected, halved, accepted = logs[0]
    assert rejected and all(not top <= 1.0 for top in rejected)
    assert all(after == before / 2.0 for before, after in halved)
    assert [k for k, _ in accepted] == list(range(mono.iterations_run + 1))
    assert all(top <= 1.0 for _, top in accepted)
    assert mono.is_feasible
    assert mono.stages[0].multiplier < 1024.0
    assert mono.x.tobytes() == dist.x.tobytes() and mono.stages == dist.stages
    assert audit.rounds == dist.iterations_run == mono.iterations_run


def test_an_overloaded_iterate_at_multiplier_one_raises():
    # at mu = 1 there is no retry to redo: the check itself raises, naming
    # the iteration it was given and the load it saw
    inst, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    params = derive_packing_params(2, 3, inst.rho, 2.0, 0.05)
    state = init_packing(inst, SolverConfig(fairness=2.0, epsilon=0.05), params)
    assert state.mu == 1.0 and state.retry is None
    state.u = np.array([0.5, 0.5, 0.0])
    with pytest.raises(FeasibilityViolation,
                       match=r"^constraint load 1\.5 exceeded 1 at iteration 7; "):
        iterate_loads(state, 7)


_LOADS_CASES = [(PACK, alpha, early_stop) for alpha in (0.0, 0.5, 1.0, 2.0, 3.0)
                for early_stop in (False, True)] + [(COVER, 1.0, False)]


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
@pytest.mark.parametrize("mode,fairness,early_stop", _LOADS_CASES)
def test_every_state_carries_its_iterates_loads(mode, fairness, early_stop, engine):
    # after the start and after every step, through redos and stage changes,
    # the state holds the loads of its allocation, bit for bit; a multiplier
    # start of 1024 makes overloaded trial iterates, and so redos, happen
    module, init, advance = ((packing, "init_packing", "step") if mode == PACK
                             else (covering, "init_covering", "step_covering"))
    states = []

    def carries_its_loads(original):
        def checked(*args):
            state = original(*args)
            assert state.loads.tobytes() == state.kernel.loads_of(state.u).tobytes()
            states.append(state.k)
            return state
        return checked

    instances = [instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]),
                                     mode=mode, fairness=fairness)[0]]
    for seed in (1, 2):
        entries, m, n = random_sparse_entries(np.random.default_rng(seed), max_dim=5,
                                              max_rho=10.0)
        instances.append(standardize(entries, m, n, mode=mode, fairness=fairness)[0])
    eps = min(0.1, epsilon_upper_bound(fairness)) / 2.0 if mode == PACK else 0.2
    config = SolverConfig(fairness=fairness, epsilon=eps, mode=mode, early_stop=early_stop,
                          max_iters=300, trace_stride=25)
    with mock.patch.object(packing, "MULTIPLIER_START", 1024.0), \
            mock.patch.object(packing, "redo", side_effect=packing.redo) as redo, \
            mock.patch.object(module, init, carries_its_loads(getattr(module, init))), \
            mock.patch.object(module, advance, carries_its_loads(getattr(module, advance))):
        for inst in instances:
            states.clear()
            if engine == "monolithic":
                (solve_packing if mode == PACK else solve_covering)(inst, config)
            else:
                run_distributed(inst, config)
            assert states == list(range(len(states))) and len(states) > 1
    assert redo.called == early_stop


def test_without_early_stop_the_multiplier_stays_one():
    inst, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    params = derive_packing_params(2, 3, inst.rho, 2.0, 0.05)
    state = init_packing(inst, SolverConfig(fairness=2.0, epsilon=0.05), params)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        for _ in range(20):
            step(state)
            assert state.mu == 1.0 and state.retry is None


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
@pytest.mark.parametrize("alpha,eps", [(0.0, 0.1), (0.5, 0.1), (2.0, 0.05), (3.0, 0.05)])
def test_huge_multiplier_start_stays_in_the_rule_domain(monkeypatch, engine, alpha, eps):
    # unguarded, a step at mu = 2**20 leaves its rule's domain: above 1 the
    # factor 1 - mu c t turns negative, below 1 so does the mirror's 1 + z, and
    # numpy warns (in log, in power) before the retry guard sees the loads.
    # Entering a stage halves mu until mu |scale| < 1, so nothing warns
    monkeypatch.setattr(packing, "MULTIPLIER_START", 2.0 ** 20)
    inst, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    config = SolverConfig(fairness=alpha, epsilon=eps, early_stop=True, trace_stride=25,
                          max_iters=20_000)
    first = derive_packing_params(2, 3, inst.rho, alpha, epsilon_schedule(alpha, eps)[0])
    state = init_packing(inst, config, first)
    assert 1.0 < state.mu < 2.0 ** 20 and state.mu * abs(state.rule[0]) < 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_packing(inst, config) if engine == "monolithic" else (
            run_distributed(inst, config)[0])
    assert sol.is_feasible
    assert all(top <= 1.0 for top in (row.max_load for row in sol.trace))
    for stage in sol.stages:
        scale, _ = update_rule(derive_packing_params(2, 3, inst.rho, alpha, stage.epsilon), alpha)
        assert stage.multiplier * abs(scale) < 1.0


def test_entry_points_reject_a_config_of_the_other_mode():
    pack = SolverConfig(fairness=1.0, epsilon=0.1)
    cover = SolverConfig(fairness=1.0, epsilon=0.1, mode=COVER)
    with pytest.raises(ValueError, match="solve_packing runs mode 'pack', but the config's "
                                         "mode is 'cover'"):
        solve_packing(identity_instance(2), cover)
    covering = identity_instance(2, mode=COVER)
    with pytest.raises(ValueError, match="solve_covering runs mode 'cover', but the "
                                         "config's mode is 'pack'"):
        solve_covering(covering, pack)


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
@pytest.mark.parametrize("mode,kind", [(PACK, "PackingInstance"), (COVER, "CoveringInstance")])
def test_both_engines_reject_an_instance_of_the_other_kind(engine, mode, kind):
    # the solve of the config's mode checks the instance's kind, for both engines
    other = identity_instance(2, mode=COVER if mode == PACK else PACK)
    config = SolverConfig(fairness=1.0, epsilon=0.1, mode=mode, max_iters=5)
    monolithic = solve_packing if mode == PACK else solve_covering
    solve = monolithic if engine == "monolithic" else run_distributed
    with pytest.raises(TypeError, match=rf"^{mode} mode needs a {kind}$"):
        solve(other, config)


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
@pytest.mark.parametrize("mode,fairness,eps,early_stop", [
    (PACK, 0.5, 0.1, True), (PACK, 1.0, 0.1, True), (PACK, 2.0, 0.05, True),
    (PACK, 2.0, 0.05, False), (COVER, 1.0, 0.1, False),
])
def test_one_kernel_per_stage(monkeypatch, engine, mode, fairness, eps, early_stop):
    # each stage entered builds one kernel, and none is built for the target
    # only to be replaced by the first stage's; under rounds the run builds
    # and checks one shard layout, whatever its number of stages
    built = {"kernels": 0, "shards": 0, "checks": 0}
    init, shard, check = GradientKernel.__init__, rounds.build_shards, rounds.check_layout

    def counted_init(self, *args):
        built["kernels"] += 1
        init(self, *args)

    def counted_shards(*args):
        built["shards"] += 1
        return shard(*args)

    def counted_check(*args):
        built["checks"] += 1
        return check(*args)

    monkeypatch.setattr(GradientKernel, "__init__", counted_init)
    monkeypatch.setattr(rounds, "build_shards", counted_shards)
    monkeypatch.setattr(rounds, "check_layout", counted_check)
    inst, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]), mode=mode)
    config = SolverConfig(fairness=fairness, epsilon=eps, mode=mode, early_stop=early_stop,
                          max_iters=20_000 if early_stop else 50)
    if engine == "rounds":
        sol, _ = run_distributed(inst, config)
    else:
        sol = (solve_packing if mode == PACK else solve_covering)(inst, config)
    stages = 1
    if mode == PACK and early_stop:
        stages = len(sol.stages)
        assert stages >= 2
    assert built["kernels"] == stages
    assert built["shards"] == built["checks"] == (1 if engine == "rounds" else 0)


# ---- solve-level behavior ----

@pytest.mark.parametrize("alpha,eps", [(0.0, 0.1), (0.5, 0.1), (1.0, 0.1), (2.0, 0.05)])
def test_feasible_every_traced_iteration(alpha, eps):
    inst, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    config = SolverConfig(fairness=alpha, epsilon=eps, max_iters=400, trace_stride=1)
    sol = solve_packing(inst, config)
    assert all(row.max_load <= 1.0 for row in sol.trace)
    assert sol.is_feasible


@pytest.mark.parametrize("alpha,eps", [(0.0, 0.1), (0.5, 0.1), (1.0, 0.1), (2.0, 0.05)])
def test_monotone_descent(alpha, eps):
    inst, _ = instance_from_dense(np.array([[1.0, 2.0], [1.5, 1.0]]))
    config = SolverConfig(fairness=alpha, epsilon=eps, max_iters=300, trace_stride=1)
    sol = solve_packing(inst, config)
    values = [row.f_r for row in sol.trace]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-9 * abs(prev)


def test_iterations_match_budget_and_formula():
    inst = identity_instance(1)
    config = SolverConfig(fairness=0.0, epsilon=0.1)
    params = derive_packing_params(1, 1, 1.0, 0.0, 0.1)
    sol = solve_packing(inst, config)
    assert sol.iterations_run == params.K == 19900
    sol = solve_packing(inst, SolverConfig(fairness=0.0, epsilon=0.1, max_iters=7))
    assert sol.iterations_run == 7


def test_solve_deterministic():
    inst, _ = instance_from_dense(np.array([[1.0, 2.0], [1.5, 1.0]]))
    config = SolverConfig(fairness=0.5, epsilon=0.1, max_iters=500)
    a = solve_packing(inst, config)
    b = solve_packing(inst, config)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.utility == b.utility


def test_scaling_record_maps_back():
    # same instance at two scales: original-space solutions must agree
    from fairpc import standardize

    entries = [(0, 0, 2.0), (0, 1, 4.0)]
    inst, rec = standardize(entries, 1, 2)
    assert rec.c == 2.0
    config = SolverConfig(fairness=1.0, epsilon=0.1, max_iters=2000)
    sol = solve_packing(inst, config, scaling=rec)
    raw_loads = np.array([2.0, 4.0]) @ sol.x
    assert raw_loads <= 1.0 + 1e-12
    base, rec1 = standardize([(0, 0, 1.0), (0, 1, 2.0)], 1, 2)
    sol_std = solve_packing(base, config, scaling=rec1)
    np.testing.assert_allclose(sol.x, sol_std.x / 2.0, rtol=1e-12)


def test_trace_row_zero_is_initial_state():
    inst = identity_instance(1)
    sol = solve_packing(inst, SolverConfig(fairness=1.0, epsilon=0.1, max_iters=50))
    assert sol.trace[0].k == 0
    assert sol.trace[0].utility == pytest.approx(math.log(0.9), rel=1e-12)


def test_early_stop_only_with_flag():
    inst = single_row_instance([1.0, 1.0])
    config = SolverConfig(fairness=2.0, epsilon=0.05, max_iters=3000, trace_stride=25)
    sol = solve_packing(inst, config)
    assert not sol.stopped_early and sol.iterations_run == 3000
    config = SolverConfig(fairness=2.0, epsilon=0.05, early_stop=True, trace_stride=25)
    sol = solve_packing(inst, config)
    assert sol.stopped_early
    assert sol.gap_estimate <= 10 * 0.05 * 1.0 * abs(sol.utility)
    assert sol.utility >= -6.0


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("dense", [[[1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]],
                                   [[1.0, 1.0], [0.0, 1.0]], [[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]])
def test_early_stop_certifies_the_paper_bound_below_and_at_one(alpha, dense):
    inst, _ = instance_from_dense(np.array(dense))
    eps = 0.1
    sol = solve_packing(inst, SolverConfig(fairness=alpha, epsilon=eps, early_stop=True,
                                           trace_stride=25))
    opt = small_dense_packing_optimum(inst, alpha, tol=1e-6).objective
    bound = 3 * eps * inst.n if alpha == 1.0 else 3 * eps * (1 - alpha) * opt
    assert sol.stopped_early and sol.is_feasible
    assert opt - sol.utility <= bound
    # the reported gap never under-reports the true one
    assert sol.gap_estimate >= opt - sol.utility - 1e-6
    assert sol.eps_f == sol.gap_estimate   # scale factor 1: the instances are standardized


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_no_certificate_at_or_below_one_without_early_stop(alpha):
    inst = single_row_instance([1.0, 2.0])
    sol = solve_packing(inst, SolverConfig(fairness=alpha, epsilon=0.1, max_iters=60,
                                           trace_stride=10))
    assert [row.gap for row in sol.trace] == [None] * 7
    assert sol.dual_certificate is None and sol.gap_estimate is None
    assert sol.eps_f_basis == "returned utility stands in for the unknown optimum"


def _counted_solve(solve, inst, config):
    """Solve, counting the calls of the trace row's values and of the certificate."""
    with mock.patch.object(packing, "f_alpha_value", side_effect=packing.f_alpha_value) as util, \
            mock.patch.object(GradientKernel, "f_r", autospec=True,
                              side_effect=GradientKernel.f_r) as f_r, \
            mock.patch.object(packing, "certify", side_effect=packing.certify) as cert:
        sol = solve(inst, config)
    return sol, util.call_count, f_r.call_count, cert.call_count


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_untraced_runs_build_no_trace_row(engine):
    # 11 rows (iterations 0, 10, ..., 100) are counted but never built: no
    # utility or f_r beyond the finalizers', and an alpha = 2 run certifies
    # each of them all the same
    solve = solve_packing if engine == "monolithic" else (lambda *a: run_distributed(*a)[0])
    cover = solve_covering if engine == "monolithic" else solve
    inst = single_row_instance([1.0, 2.0, 3.0])
    for alpha in (0.5, 1.0, 2.0):
        for keep in (True, False):
            config = SolverConfig(fairness=alpha, epsilon=0.05, max_iters=100, trace_stride=10,
                                  keep_trace=keep)
            sol, util, f_r, cert = _counted_solve(solve, inst, config)
            rows = 11 if keep else 0
            assert len(sol.trace) == rows and sol.trace_dropped == 0
            assert (util, f_r) == (rows + 1, rows)   # + finalize_packing's utility
            assert cert == (11 if alpha > 1.0 else 0)
    # under early stop every check still certifies: here at 0, 30, 50 (an
    # untraced check that ends the first stage), 60 and 90, where it stops
    counts = []
    for keep in (True, False):
        config = SolverConfig(fairness=2.0, epsilon=0.05, early_stop=True, max_iters=1000,
                              trace_stride=30, keep_trace=keep)
        sol, util, f_r, cert = _counted_solve(
            solve, single_row_instance([100.0, 100.0, 100.0, 1.0, 1.0]), config)
        counts.append((sol.iterations_run, sol.stages, sol.gap_estimate, cert))
    assert counts[0] == counts[1] and counts[1][3] == 5 and (util, f_r) == (1, 0)
    cover_inst = single_row_instance([1.0, 2.0, 3.0], mode=COVER)
    config = SolverConfig(fairness=1.0, epsilon=0.1, mode=COVER, max_iters=100,
                          trace_stride=10, keep_trace=False)
    sol, _, f_r, cert = _counted_solve(cover, cover_inst, config)
    assert sol.trace == [] and (f_r, cert) == (1, 0)   # finalize_covering's f_r


def test_eps_f_forms():
    inst = identity_instance(1)
    sol = solve_packing(inst, SolverConfig(fairness=1.0, epsilon=0.1, max_iters=10))
    assert sol.eps_f == pytest.approx(3 * 0.1 * 1)
    assert sol.eps_f_form == "3*eps*n"
    sol = solve_packing(inst, SolverConfig(fairness=0.5, epsilon=0.1, max_iters=10))
    assert sol.eps_f == pytest.approx(3 * 0.1 * 0.5 * sol.utility)
    assert sol.eps_f_form == "3*eps*(1-alpha)*utility"
    sol = solve_packing(inst, SolverConfig(fairness=2.0, epsilon=0.05, max_iters=10))
    assert sol.eps_f == pytest.approx(10 * 0.05 * 1.0 * abs(sol.utility))
    assert sol.eps_f_form == "10*eps*(alpha-1)*|utility|"
    # the certified runs name the stop rule that proved them
    dense, _ = instance_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    for alpha, rule in [(0.5, "3*eps*(1-alpha)*f"), (1.0, "3*eps*n"),
                        (2.0, "10*eps*(alpha-1)*|g|")]:
        sol = solve_packing(dense, SolverConfig(fairness=alpha, epsilon=0.05, early_stop=True))
        assert sol.stopped_early
        assert sol.eps_f_form == "g-f: least dual bound g >= optimum, minus utility f"
        assert sol.eps_f_basis == f"certified: the run stopped once g-f <= {rule}"


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
def test_a_check_that_ends_several_stages_writes_one_row(engine):
    # on this 30 x 30 instance the untraced check at iteration 150 proves
    # the radii of stages 0.5, 0.25 and 0.125 at once: it is traced once,
    # and every stage ends at a row of the trace
    rng = np.random.default_rng(1)
    dense = np.zeros((30, 30))
    offsets = rng.choice(30, size=4, replace=False)
    for i in range(30):
        for o in offsets:
            dense[i, (i + o) % 30] = rng.uniform(1.0, 100.0)
    inst, _ = instance_from_dense(dense)
    config = SolverConfig(fairness=1.0, epsilon=0.05, early_stop=True, trace_stride=1000)
    sol = solve_packing(inst, config) if engine == "monolithic" else \
        run_distributed(inst, config)[0]
    assert sol.stopped_early
    assert [(s.epsilon, s.until) for s in sol.stages[:3]] == [(0.5, 150), (0.25, 150),
                                                              (0.125, 150)]
    ks = [row.k for row in sol.trace]
    assert all(a < b for a, b in zip(ks, ks[1:]))
    assert {s.until for s in sol.stages} <= set(ks)
