"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Guarantee checks run the
solvers at their full derived budgets on small oracle-solvable instances
(the identity 3x3 case alone is a few million iterations); the randomized
suite uses budget overrides, which leave the per-iteration invariants
(feasibility, descent, equivalence) intact.
"""

import math

import numpy as np
import pytest

from fairpc import (
    COVER,
    PackingRegParams,
    SolverConfig,
    covering_closed_form_optimum,
    derive_covering_params,
    derive_packing_params,
    diagonal_packing_optimum,
    f_r_value,
    grad_f_r,
    single_constraint_packing_optimum,
    small_dense_packing_optimum,
    solve_covering,
    solve_packing,
)
from fairpc.problem import epsilon_upper_bound
from fairpc.rounds import run_distributed
from fairpc import instance_from_dense

from conftest import (
    identity_instance,
    random_suite,
    single_column_instance,
    single_row_instance,
)

SUITE_ALPHAS = [0.0, 0.3, 0.9, 1.0, 1.5, 3.0]
SUITE_BUDGET = 250


def report(num: int, ok: bool, desc: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def suite_runs():
    runs = []
    for idx, inst in enumerate(random_suite(count=50)):
        for alpha in SUITE_ALPHAS:
            eps = min(0.1, epsilon_upper_bound(alpha))
            config = SolverConfig(
                fairness=alpha, epsilon=eps, max_iters=SUITE_BUDGET, trace_stride=1
            )
            runs.append((idx, inst, alpha, eps, solve_packing(inst, config)))
    return runs


def test_criterion_1_feasibility_invariant(suite_runs):
    worst = 0.0
    rows = 0
    for _, _, _, _, sol in suite_runs:
        for row in sol.trace:
            worst = max(worst, row.max_load)
            rows += 1
        assert len(sol.trace) == SUITE_BUDGET + 1
    ok = worst <= 1.0
    report(1, ok, f"max load {worst:.17g} <= 1 over {rows} traced iterations "
                  f"({len(suite_runs)} runs: 50 instances x {len(SUITE_ALPHAS)} fairness values)")


def test_criterion_2_alpha_below_one_guarantee():
    checks = []

    # identity 3x3, alpha = 0.5, eps = 0.1: optimum 6, required utility >= 5.1
    inst = identity_instance(3)
    sol = solve_packing(inst, SolverConfig(fairness=0.5, epsilon=0.1))
    opt = diagonal_packing_optimum([1.0, 1.0, 1.0], 0.5).objective
    checks.append(("id3 a=0.5 e=0.1", sol.utility, opt, 3 * 0.1 * 0.5 * opt, sol))
    assert sol.utility >= 5.1

    # 1x1, alpha = 0.5, eps = 0.05: optimum 2
    inst = identity_instance(1)
    sol = solve_packing(inst, SolverConfig(fairness=0.5, epsilon=0.05))
    opt = diagonal_packing_optimum([1.0], 0.5).objective
    checks.append(("1x1 a=0.5 e=0.05", sol.utility, opt, 3 * 0.05 * 0.5 * opt, sol))

    # 1x1, alpha = 0.3, eps = 0.1
    sol = solve_packing(inst, SolverConfig(fairness=0.3, epsilon=0.1))
    opt = diagonal_packing_optimum([1.0], 0.3).objective
    checks.append(("1x1 a=0.3 e=0.1", sol.utility, opt, 3 * 0.1 * 0.7 * opt, sol))

    # small dense, alpha = 0.3, eps = 0.1, against the barrier-Newton oracle
    dense, _ = instance_from_dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
    sol = solve_packing(dense, SolverConfig(fairness=0.3, epsilon=0.1))
    opt = small_dense_packing_optimum(dense, 0.3, tol=1e-9).objective
    checks.append(("dense2 a=0.3 e=0.1", sol.utility, opt, 3 * 0.1 * 0.7 * opt, sol))

    ok = all(opt - got <= bound and s.is_feasible for _, got, opt, bound, s in checks)
    detail = "; ".join(f"{name}: f={got:.4f} opt={opt:.4f} bound={bound:.4f}"
                       for name, got, opt, bound, _ in checks)
    report(2, ok, detail)


def test_criterion_3_alpha_one_guarantee():
    checks = []
    inst = single_row_instance([1.0, 1.0])
    sol = solve_packing(inst, SolverConfig(fairness=1.0, epsilon=0.1))
    opt = single_constraint_packing_optimum([1.0, 1.0], 1.0).objective
    checks.append(("row(1,1)", sol.utility, opt, 3 * 0.1 * 2, sol))
    assert sol.utility >= -2.0 * math.log(2.0) - 0.6

    one = identity_instance(1)
    sol = solve_packing(one, SolverConfig(fairness=1.0, epsilon=0.1))
    checks.append(("1x1", sol.utility, 0.0, 3 * 0.1 * 1, sol))

    ok = all(opt - got <= bound and s.is_feasible for _, got, opt, bound, s in checks)
    detail = "; ".join(f"{name}: f={got:.5f} opt={opt:.5f} additive bound={bound}"
                       for name, got, opt, bound, _ in checks)
    report(3, ok, detail)


def test_criterion_4_alpha_above_one_guarantee():
    cases = [
        (single_row_instance([1.0, 1.0]),
         single_constraint_packing_optimum([1.0, 1.0], 2.0).objective, 2.0, 0.05),
        (identity_instance(1), diagonal_packing_optimum([1.0], 2.0).objective, 2.0, 0.05),
        (identity_instance(2), diagonal_packing_optimum([1.0, 1.0], 1.5).objective, 1.5, 0.1),
        (single_row_instance([1.0, 2.0]),
         single_constraint_packing_optimum([1.0, 2.0], 3.0).objective, 3.0, 0.04),
    ]
    details = []
    ok = True
    for inst, opt, alpha, eps in cases:
        config = SolverConfig(fairness=alpha, epsilon=eps, early_stop=True, trace_stride=25)
        sol = solve_packing(inst, config)
        slack = 10.0 * eps * (alpha - 1.0)
        needed = (1.0 + slack) * opt  # opt < 0
        gap_bound = slack * abs(opt)
        case_ok = (
            sol.utility >= needed
            and sol.is_feasible
            and sol.gap_estimate is not None
            and -1e-9 <= sol.gap_estimate <= gap_bound
        )
        ok = ok and case_ok
        details.append(
            f"a={alpha} e={eps}: f={sol.utility:.4f} needed>={needed:.4f} "
            f"gap={sol.gap_estimate:.4f}<={gap_bound:.4f} iters={sol.iterations_run}"
        )
    # the mandated example: utility >= -6 against optimum -4
    sol = solve_packing(
        single_row_instance([1.0, 1.0]),
        SolverConfig(fairness=2.0, epsilon=0.05, early_stop=True, trace_stride=25),
    )
    ok = ok and sol.utility >= -6.0
    report(4, ok, "; ".join(details))


def test_criterion_5_covering_guarantees():
    cases = [
        (identity_instance(2, mode=COVER), 1.0, 0.1),
        (identity_instance(2, mode=COVER), 1.0, 0.05),
        (single_column_instance([1.0, 1.0]), 1.0, 0.1),
        (single_column_instance([1.0, 2.0]), 1.0, 0.1),
        (single_column_instance([1.0, 2.0]), 2.0, 0.1),
        (identity_instance(2, mode=COVER), 0.0, 0.1),  # reset branch
    ]
    ok = True
    details = []
    for inst, beta, eps in cases:
        sol = solve_covering(inst, SolverConfig(fairness=beta, epsilon=eps, mode=COVER))
        oracle = covering_closed_form_optimum(inst, sol.params.beta)
        ratio = sol.cost_prescale / oracle.objective
        bound = 1.0 + 3.0 * eps * (1.0 + sol.params.beta)
        case_ok = (
            sol.prescale_residual >= 1.0 - eps / 2.0
            and ratio <= bound
            and sol.min_load >= 1.0
            and (sol.y >= 0.0).all()
        )
        ok = ok and case_ok
        details.append(
            f"b={beta} e={eps}: residual={sol.prescale_residual:.4f}>={1 - eps / 2:.3f} "
            f"ratio={ratio:.4f}<={bound:.2f} minload={sol.min_load:.4f}"
        )
    report(5, ok, "; ".join(details))


def test_criterion_6_iteration_formulas():
    # packing: (m, n, rho, alpha, eps); the expected K is re-derived inline
    pack_tuples = [
        (1, 1, 1.0, 0.0, 0.1),
        (3, 3, 1.0, 0.5, 0.1),
        (1, 1, 1.0, 0.3, 0.1),
        (10, 10, 1.0, 1.0, 0.1),
        (1, 2, 1.0, 1.0, 0.1),
        (1, 2, 1.0, 2.0, 0.05),
        (2, 2, 10.0, 3.0, 0.05),
        (5, 7, 3.0, 1.5, 0.1),
    ]
    ok = True
    for m, n, rho, a, e in pack_tuples:
        beta = (e / 4.0) / ((1.0 + a) * math.log(4.0 * m * n * rho / e))
        if a < 1.0:
            bp = (1.0 - a) * (e / 4.0) / math.log(n * rho / (1.0 - e))
            h = (1.0 - a) * beta * bp / (16.0 * e * (1.0 + a * beta))
            expected = math.ceil(2.0 / ((1.0 - a) * h * e))
        elif a == 1.0:
            expected = math.ceil(10.0 * math.log(8.0 * rho * m * n / e) ** 2 / (e * beta))
        else:
            g = min(a - 1.0, 1.0)
            expected = math.ceil(800.0 * (1.0 + a) ** 2 * math.log(n * rho / (e * g)) / (beta * g))
        got = derive_packing_params(m, n, rho, a, e).K
        ok = ok and got == expected

    cover_tuples = [
        (1, 1, 1.0, 1.0, 0.1, 5896),
        (2, 2, 1.0, 1.0, 0.1, None),
        (2, 1, 1.0, 1.0, 0.1, None),
        (4, 3, 2.0, 0.0, 0.25, None),
    ]
    for m, n, rho, b, e, pinned in cover_tuples:
        bb = b if b > 0.0 else (e / 4.0) / math.log(m * n * rho / e)
        bp = (e / 4.0) / ((1.0 + bb) * math.log(m * n * rho / e))
        h = bb * bp / (16.0 * e)
        expected = 1 + math.ceil(2.0 / (h * e))
        got = derive_covering_params(m, n, rho, b, e).K
        ok = ok and got == expected
        if pinned is not None:
            ok = ok and got == pinned
    report(6, ok, f"{len(pack_tuples) + len(cover_tuples)} parameter tuples match to the integer "
                  f"(incl. covering 1x1 b=1 e=0.1 -> K=5896)")


def test_criterion_7_gradient_correctness():
    rng = np.random.default_rng(99)
    worst_fd = 0.0
    worst_naive = 0.0
    for alpha in (0.0, 0.5, 1.0, 2.0):
        params = PackingRegParams(alpha=alpha, epsilon=0.1, beta=0.5, logC=0.0, K=1)
        for _ in range(20):
            dense = rng.uniform(1.0, 3.0, (3, 3))
            dense[rng.random((3, 3)) < 0.3] = 0.0
            dense[np.arange(3), np.arange(3)] = rng.uniform(1.0, 3.0, 3)
            inst, _ = instance_from_dense(dense)
            a = inst.matrix.to_dense()
            x = rng.uniform(0.5, 1.5, 3) if alpha != 1.0 else rng.uniform(-1.0, 0.2, 3)

            pair = grad_f_r(inst, params, x, alpha)
            fd = np.empty(3)
            for j in range(3):
                h = 1e-6 * max(1.0, abs(x[j]))
                e = np.zeros(3)
                e[j] = h
                fd[j] = (
                    f_r_value(inst, params, x + e, alpha)
                    - f_r_value(inst, params, x - e, alpha)
                ) / (2.0 * h)
            worst_fd = max(worst_fd, float(np.max(np.abs(pair.grad - fd) /
                                                  np.maximum(np.abs(pair.grad), 1e-3))))

            # naive direct-power evaluation (C = exp(0) = 1 here)
            if alpha == 1.0:
                u = np.exp(x)
                loads = a @ u
                naive = -1.0 + u * (a.T @ loads ** 2.0)
                naive_f = -x.sum() + (0.5 / 1.5) * float(np.sum(loads ** 3.0))
            else:
                u = x ** (1.0 / (1.0 - alpha))
                loads = a @ u
                naive = (1.0 / (1.0 - alpha)) * (
                    -1.0 + x ** (alpha / (1.0 - alpha)) * (a.T @ loads ** 2.0)
                )
                naive_f = -x.sum() / (1.0 - alpha) + (0.5 / 1.5) * float(np.sum(loads ** 3.0))
            worst_naive = max(
                worst_naive,
                float(np.max(np.abs(pair.grad - naive) / np.maximum(np.abs(naive), 1e-12))),
                abs(f_r_value(inst, params, x, alpha) - naive_f) / max(abs(naive_f), 1e-12),
            )
    ok = worst_fd <= 1e-5 and worst_naive <= 1e-10
    report(7, ok, f"finite-difference rel err {worst_fd:.2e} <= 1e-5; "
                  f"log-domain vs naive rel err {worst_naive:.2e} <= 1e-10 "
                  f"(20 points x 4 regimes each)")


def test_criterion_8_monotone_descent(suite_runs):
    ok = True
    worst = -math.inf
    for _, _, _, _, sol in suite_runs:
        values = [row.f_r for row in sol.trace]
        for prev, cur in zip(values, values[1:]):
            slack = cur - prev - 1e-9 * abs(prev)
            worst = max(worst, slack)
            if slack > 0.0:
                ok = False
    report(8, ok, f"f_r non-increasing per step across the randomized suite "
                  f"(worst violation slack {worst:.3e})")


def test_criterion_9_distributed_equivalence():
    instances = random_suite(count=50)
    ok = True
    mism = 0
    for idx, inst in enumerate(instances):
        alpha = SUITE_ALPHAS[idx % len(SUITE_ALPHAS)]
        eps = min(0.1, epsilon_upper_bound(alpha))
        config = SolverConfig(fairness=alpha, epsilon=eps, max_iters=120)
        mono = solve_packing(inst, config)
        dist, audit = run_distributed(inst, config)
        same = mono.x.tobytes() == dist.x.tobytes() and mono.utility == dist.utility
        clean = audit.ok and not audit.out_of_column
        rounds_match = audit.rounds == mono.iterations_run
        if not (same and clean and rounds_match):
            ok = False
            mism += 1
    # covering equivalence on structured instances
    for inst, beta in [
        (identity_instance(2, mode=COVER), 1.0),
        (single_column_instance([1.0, 2.0]), 1.0),
    ]:
        config = SolverConfig(fairness=beta, epsilon=0.1, mode=COVER, max_iters=150)
        mono = solve_covering(inst, config)
        dist, audit = run_distributed(inst, config)
        if not (mono.y.tobytes() == dist.y.tobytes() and audit.ok):
            ok = False
            mism += 1
    report(9, ok, f"round engine bit-identical on 50 suite instances + 2 covering runs; "
                  f"{mism} mismatches; locality audits clean")


def test_criterion_10_oracle_self_consistency():
    ok = True
    details = []

    for alpha in (0.5, 1.0, 2.0):
        closed = single_constraint_packing_optimum([1.0, 2.0], alpha)
        newton = small_dense_packing_optimum(single_row_instance([1.0, 2.0]), alpha, tol=1e-9)
        rel = abs(newton.objective - closed.objective) / abs(closed.objective)
        ok = ok and rel <= 1e-7
        details.append(f"newton-vs-closed a={alpha}: rel {rel:.1e}")

    from fairpc import optimum_bounds, covering_optimum_bounds
    from fairpc.matrix import constraint_loads

    for inst, sol, alpha in [
        (single_row_instance([1.0, 2.0]), single_constraint_packing_optimum([1.0, 2.0], 0.5), 0.5),
        (identity_instance(3), diagonal_packing_optimum([1.0, 1.0, 1.0], 1.0), 1.0),
        (identity_instance(2), diagonal_packing_optimum([1.0, 1.0], 2.0), 2.0),
    ]:
        lo, hi = optimum_bounds(inst, alpha)
        feas = constraint_loads(inst.matrix, sol.vector).max() <= 1.0 + 1e-9
        ok = ok and feas and lo - 1e-9 <= sol.objective <= hi + 1e-9

    duality_worst = 0.0
    for inst, beta in [
        (identity_instance(2, mode=COVER), 1.0),
        (single_column_instance([1.0, 1.0]), 1.0),
        (single_column_instance([1.0, 2.0]), 1.0),
    ]:
        sol = covering_closed_form_optimum(inst, beta)
        lo, hi = covering_optimum_bounds(inst, beta)
        ok = ok and lo - 1e-12 <= sol.objective <= hi + 1e-12
        tie = abs(float(np.sum(sol.dual)) - (1.0 + beta) * sol.objective)
        duality_worst = max(duality_worst, tie / abs((1.0 + beta) * sol.objective))
    ok = ok and duality_worst <= 1e-6
    details.append(f"strong-duality tie rel {duality_worst:.1e}")

    # the Newton optimum dominates any feasible solver output (maximization)
    inst = single_row_instance([1.0, 2.0])
    run = solve_packing(inst, SolverConfig(fairness=0.5, epsilon=0.1, max_iters=20000))
    newton = small_dense_packing_optimum(inst, 0.5, tol=1e-9)
    ok = ok and newton.objective >= run.utility - 1e-7 * abs(newton.objective)
    details.append(f"newton {newton.objective:.6f} >= solver {run.utility:.6f}")

    report(10, ok, "; ".join(details))
