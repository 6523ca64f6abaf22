"""Covering solver: mirror-step dual engine with averaged recovery.

The covering problem is attacked through its Lagrangian dual, which is the
fairness-0 regularized packing objective with C = 1 and the covering
fairness exponent as the barrier exponent. The same mirror machinery as the
packing solver drives the dual iterate; covering variables are recovered as
the running average of the barrier weights and finally inflated by (1+eps)
to make them strictly feasible. Each iterate's loads are computed once and
carried with the state for the trace row and the finalization; the barrier
weights are the ones the gradient kernel forms. ``run_covering`` is the one
loop of both engines (see ``rounds``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateShortfall, InvalidBeta, NegativeCoordinate
from .matrix import column_loads
from .problem import CoveringInstance, ScalingRecord, SolverConfig, g_beta_value
from .packing import (
    TraceBuffer,
    TraceRow,
    mirror_iterate,
    plan_iterations,
    update_rule,
)
from .regularization import CoveringRegParams, GradientKernel, derive_covering_params


@dataclass(eq=False)
class CoveringState:
    x: np.ndarray
    z: np.ndarray
    y_avg: np.ndarray
    k: int
    kernel: GradientKernel
    rule: tuple   # (step scale, update expression): the fairness-0 mirror rule
    loads: np.ndarray   # loads of ``x``
    trace: TraceBuffer = field(default_factory=TraceBuffer)


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


@dataclass(frozen=True)
class CoveringResidualReport:
    min_load: float
    violated_cols: list[int]


def running_average(y_avg, y_new, k: int):
    """Numerically stable running mean after the k-th sample."""
    return ((k - 1.0) / k) * y_avg + y_new / k


def init_covering(instance: CoveringInstance, config: SolverConfig,
                  params: CoveringRegParams | None = None) -> CoveringState:
    """Start the dual iterate small enough that every barrier weight is < 1.

    A beta so large that the start point, or the first mirror iterate
    recomputed from it, underflows to 0 is rejected: from 0 the dual
    iterate never moves and no covering is certified.
    """
    if params is None:
        params = derive_covering_params(
            instance.m, instance.n, instance.rho, config.beta, config.epsilon
        )
    n, m, rho = instance.n, instance.m, instance.rho
    x0 = np.full(n, (1.0 / (n * rho)) * (1.0 / (m * rho)) ** params.beta)
    with np.errstate(divide="ignore"):   # a start point of 0 gives z = inf, caught below
        z = np.power(x0, -params.beta_prime) - 1.0
    if not mirror_iterate(z[:1], params.beta_prime)[0] > 0.0:
        raise InvalidBeta(
            f"covering beta={params.beta:g} is too large for m={m}, n={n}, rho={rho:g}: "
            "the start point (1/(n rho)) * (1/(m rho))**beta underflows to 0"
        )
    kernel = GradientKernel(instance.matrix, 0.0, params.beta, 0.0)
    return CoveringState(x=x0, z=z, y_avg=np.zeros(m), k=0, kernel=kernel,
                         rule=update_rule(params, 0.0), loads=kernel.loads_of(x0))


def step_covering(state: CoveringState, instance: CoveringInstance,
                  params: CoveringRegParams) -> CoveringState:
    """One mirror step of the dual iterate plus the covering average update."""
    kernel = state.kernel
    scale, update = state.rule
    x = mirror_iterate(state.z, params.beta_prime)
    loads = kernel.loads_of(x)
    pair = kernel.evaluate(x, x, loads)
    state.z = update(state.z, pair.truncated, scale)
    state.x = x
    state.loads = loads
    k = state.k + 1
    state.y_avg = running_average(state.y_avg, pair.weights, k)
    state.k = k
    return state


def covering_residual(instance: CoveringInstance, y) -> CoveringResidualReport:
    """Minimum column load of a covering vector and the columns below 1."""
    y = np.asarray(y, dtype=np.float64)
    if (y < 0.0).any():
        raise NegativeCoordinate("covering vector must be nonnegative")
    loads = column_loads(instance.matrix, y)
    violated = [int(j) for j in np.flatnonzero(loads < 1.0)]
    return CoveringResidualReport(min_load=float(loads.min()), violated_cols=violated)


def covering_trace_row(kernel: GradientKernel, x: np.ndarray, k: int,
                       loads: np.ndarray) -> TraceRow:
    """Trace row for the dual engine; the utility column is its linear term.
    ``loads`` are those of ``x``."""
    return TraceRow(
        k=k,
        utility=float(np.add.reduce(x)),
        max_load=float(loads.max()),
        f_r=kernel.f_r(x, loads=loads),
        gap=None,
    )


def finalize_covering(state: CoveringState, instance: CoveringInstance,
                      params: CoveringRegParams, config: SolverConfig,
                      scaling: ScalingRecord) -> CoveringSolution:
    """Check the pre-scale certificate, inflate, and assemble the report.

    The certificate is only enforced when the full derived budget ran; a
    shortfall there means the solver is broken and raises
    CertificateShortfall.
    """
    eps = config.epsilon
    kernel = state.kernel
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        prescale_loads = column_loads(instance.matrix, state.y_avg)
        prescale_residual = float(prescale_loads.min())
        ran_full_budget = config.max_iters is None or config.max_iters >= params.K
        if ran_full_budget and prescale_residual < 1.0 - eps / 2.0:
            raise CertificateShortfall(
                f"pre-scale certificate {prescale_residual} fell below "
                f"{1.0 - eps / 2.0} after the full budget; this indicates a bug"
            )

        y_std = (1.0 + eps) * state.y_avg
        y = scaling.original_solution(y_std)
        y_avg_orig = scaling.original_solution(state.y_avg)
        cost = g_beta_value(y, params.beta)
        cost_prescale = g_beta_value(y_avg_orig, params.beta)
        final_loads = column_loads(instance.matrix, y_std)
        f_r_final = kernel.f_r(state.x, loads=state.loads)
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
        dual_certificate=state.x.copy(),
        trace=state.trace.rows(),
        params=params,
        trace_dropped=state.trace.dropped,
    )


def run_covering(state: CoveringState, instance: CoveringInstance, params: CoveringRegParams,
                 config: SolverConfig, scaling: ScalingRecord | None) -> CoveringSolution:
    """Step ``state`` through the budget and return the inflated averaged
    covering vector; the gradient is whatever ``state.kernel.evaluate`` computes."""
    if scaling is None:
        scaling = ScalingRecord(c=1.0, alpha_used=-params.beta)
    planned, stride = plan_iterations(config, params)
    kernel = state.kernel

    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        state.trace.append(covering_trace_row(kernel, state.x, 0, state.loads))
        for k in range(1, planned + 1):
            step_covering(state, instance, params)
            if k % stride == 0 or k == planned:
                state.trace.append(covering_trace_row(kernel, state.x, k, state.loads))

    return finalize_covering(state, instance, params, config, scaling)


def solve_covering(instance: CoveringInstance, config: SolverConfig,
                   scaling: ScalingRecord | None = None) -> CoveringSolution:
    """Derive the run constants, start (see ``init_covering``) and run the budget."""
    params = derive_covering_params(instance.m, instance.n, instance.rho, config.beta,
                                    config.epsilon)
    return run_covering(init_covering(instance, config, params), instance, params, config, scaling)
