"""Covering solver: mirror-step dual engine with averaged recovery.

The covering problem is attacked through its Lagrangian dual, which is the
fairness-0 regularized packing objective with C = 1 and the covering
fairness exponent as the barrier exponent. The same mirror machinery as the
packing solver drives the dual iterate; covering variables are recovered as
the running average of the barrier weights and finally inflated by (1+eps)
to make them strictly feasible. The state is packing's (``PackingState``,
bound by ``enter_stage``), with the average in its ``y_avg``. Each
iterate's loads are computed once and carried with the state for the trace
row and the finalization, which takes the stage's constants and the matrix
from the state too; the barrier weights are the ones the gradient kernel
forms. ``solve_covering`` is the one solve of both engines, which differ
only in the kernel constructor it is given (see ``rounds``). Its loop and
its trace rows are packing's (``packing.run_budget`` and
``PackingRunRecorder``, at the kernel's fairness 0); the run never checks a
certificate, so its rows carry none, and it always spends its whole budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificateShortfall, InvalidBeta
from .matrix import column_loads
from .problem import COVER, CoveringInstance, ScalingRecord, SolverConfig, g_beta_value
from .packing import (
    PackingRunRecorder,
    PackingState,
    TraceRow,
    enter_stage,
    mirror_iterate,
    plan_iterations,
    run_budget,
)
from .regularization import CoveringRegParams, GradientKernel, derive_covering_params


@dataclass(eq=False)
class CoveringSolution:
    y: np.ndarray
    cost: float
    cost_prescale: float
    prescale_residual: float
    min_load: float
    is_feasible: bool
    iterations_run: int
    gap_estimate: float | None
    dual_certificate: np.ndarray
    trace: list[TraceRow]
    params: CoveringRegParams
    trace_dropped: int = 0   # oldest trace rows evicted past the buffer's capacity


def running_average(y_avg, y_new, k: int):
    """Numerically stable running mean after the k-th sample, updated in
    ``y_avg`` and returned."""
    y_avg *= (k - 1.0) / k
    y_avg += y_new / k
    return y_avg


def init_covering(instance: CoveringInstance, params: CoveringRegParams,
                  kernel=GradientKernel) -> PackingState:
    """Start the dual iterate small enough that every barrier weight is < 1,
    as a ``PackingState`` at fairness 0 whose ``x_hat`` and ``u`` are that
    start, bound by ``packing.enter_stage`` to the constants of ``params``
    and the kernel that ``kernel(matrix, 0, beta, 0)`` builds for them.

    A beta so large that the start point, or the first mirror iterate
    recomputed from it, underflows to 0 is rejected: from 0 the dual
    iterate never moves and no covering is certified.
    """
    n, m, rho = instance.n, instance.m, instance.rho
    kernel = kernel(instance.matrix, 0.0, params.beta, 0.0)
    x0 = np.full(n, (1.0 / (n * rho)) * (1.0 / (m * rho)) ** params.beta)
    state = PackingState(x_hat=x0, u=x0, loads=kernel.loads_of(x0), y_avg=np.zeros(m))
    with np.errstate(divide="ignore"):   # a start point of 0 gives z = inf, caught below
        enter_stage(state, params, kernel)
    if not mirror_iterate(state.z[:1], params.beta_prime)[0] > 0.0:
        raise InvalidBeta(
            f"covering beta={params.beta:g} is too large for m={m}, n={n}, rho={rho:g}: "
            "the start point (1/(n rho)) * (1/(m rho))**beta underflows to 0"
        )
    return state


def step_covering(state: PackingState) -> PackingState:
    """One mirror step of the dual iterate plus the covering average update."""
    kernel = state.kernel
    scale, update = state.rule
    x = mirror_iterate(state.z, state.params.beta_prime)
    loads = kernel.loads_of(x)
    pair = kernel.evaluate(x, x, loads)
    state.z = update(state.z, pair.truncated, scale)
    state.x_hat = state.u = x
    state.loads = loads
    k = state.k + 1
    running_average(state.y_avg, pair.weights, k)
    state.k = k
    return state


def finalize_covering(state: PackingState, scaling: ScalingRecord) -> CoveringSolution:
    """Check the pre-scale certificate, inflate, and assemble the report,
    with epsilon and beta from the state's constants and the matrix from
    its kernel.

    The certificate is only enforced when the full derived budget ran; a
    shortfall there means the solver is broken and raises
    CertificateShortfall.
    """
    kernel, params = state.kernel, state.params
    eps = params.epsilon
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        prescale_loads = column_loads(kernel.matrix, state.y_avg)
        prescale_residual = float(prescale_loads.min())
        if state.k >= params.K and prescale_residual < 1.0 - eps / 2.0:
            raise CertificateShortfall(
                f"pre-scale certificate {prescale_residual} fell below "
                f"{1.0 - eps / 2.0} after the full budget; this indicates a bug"
            )

        y_std = (1.0 + eps) * state.y_avg
        y = scaling.original_solution(y_std)
        y_avg_orig = scaling.original_solution(state.y_avg)
        cost = g_beta_value(y, params.beta)
        cost_prescale = g_beta_value(y_avg_orig, params.beta)
        final_loads = column_loads(kernel.matrix, y_std)
        f_r_final = kernel.f_r(state.x_hat, state.loads)
        gap = None
        if np.isfinite(f_r_final):
            # weak duality of the dual engine: cost(y) + f_r(x) >= 0, small near optimality
            gap = g_beta_value(y_std, params.beta) + f_r_final

    return CoveringSolution(
        y=y,
        cost=cost,
        cost_prescale=cost_prescale,
        prescale_residual=prescale_residual,
        min_load=float(final_loads.min()),
        is_feasible=bool(final_loads.min() >= 1.0),
        iterations_run=state.k,
        gap_estimate=gap,
        dual_certificate=state.x_hat.copy(),
        trace=state.trace.rows(),
        params=params,
        trace_dropped=state.trace.dropped,
    )


def solve_covering(instance: CoveringInstance, config: SolverConfig,
                   scaling: ScalingRecord | None = None,
                   kernel=GradientKernel) -> CoveringSolution:
    """Derive the run constants, start (see ``init_covering``), step through
    the budget and return the inflated averaged covering vector.

    ``kernel(matrix, 0, beta, 0)`` builds the run's gradient kernel:
    ``GradientKernel`` for the monolithic engine. A config of another mode
    raises ``ValueError``, an instance of another kind ``TypeError``.
    """
    if config.mode != COVER:
        raise ValueError(f"solve_covering runs mode {COVER!r}, but the config's mode is "
                         f"{config.mode!r}")
    if not isinstance(instance, CoveringInstance):
        raise TypeError("cover mode needs a CoveringInstance")
    params = derive_covering_params(instance.m, instance.n, instance.rho, config.beta,
                                    config.epsilon)
    if scaling is None:
        scaling = ScalingRecord(c=1.0, alpha_used=config.fairness)
    state = init_covering(instance, params, kernel)
    planned, stride = plan_iterations(config, params)
    recorder = PackingRunRecorder(config)

    def visit(traced: bool) -> bool:
        recorder.record(state)
        return False

    run_budget(state, step_covering, visit, planned, stride)
    return finalize_covering(state, scaling)
