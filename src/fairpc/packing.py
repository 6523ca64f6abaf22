"""Width-independent packing solver with per-regime update rules.

Three update regimes share one loop: a mirror step driven by an
accumulated dual state for fairness below 1, an additive step at exactly 1,
and a multiplicative step above 1. Feasibility of every iterate is a hard
invariant, checked (with no tolerance) when an iterate's loads are
computed; that happens once per iterate, and the step, the trace record and
the finalization all read the one copy the state carries.

``run_packing`` is the one loop, and ``step`` the one update, of both
engines: the round engine (see ``rounds``) runs them with a kernel whose
gradient evaluation is a lockstep round of column-block shards, and
nothing else differs. ``update_rule`` picks a run's update expression and
step scale once.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import FeasibilityViolation, InvalidAlpha, NegativeCoordinate
from .matrix import column_loads, constraint_loads
from .problem import (
    PACK, PackingInstance, ScalingRecord, SolverConfig, f_alpha_value, transform_inverse,
)
from .regularization import (
    GradientKernel,
    PackingRegParams,
    barrier_weights,
    derive_packing_params,
)

TRACE_CAPACITY = 4096

# the largest default trace stride under early stop: the certificate is checked
# only at traced rows, and a run whose certificate holds steps on to the next one
EARLY_STOP_STRIDE = 1000


class ComplementarySlacknessWarning(UserWarning):
    """Dual multiplier mass drifted off the tight constraints past burn-in."""


@dataclass(frozen=True)
class TraceRow:
    k: int
    utility: float
    max_load: float
    f_r: float
    gap: float | None = None


class TraceBuffer:
    """Bounded trace storage; past capacity the oldest rows are dropped and counted."""

    def __init__(self, capacity: int = TRACE_CAPACITY):
        self._rows = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, row: TraceRow) -> None:
        if len(self._rows) == self._rows.maxlen:
            self.dropped += 1
        self._rows.append(row)

    def rows(self) -> list[TraceRow]:
        return list(self._rows)


@dataclass(eq=False)
class PackingState:
    x_hat: np.ndarray
    z: np.ndarray | None
    u: np.ndarray
    k: int
    kernel: GradientKernel
    rule: tuple   # (step scale, update expression), from ``update_rule``
    trace: TraceBuffer = field(default_factory=TraceBuffer)
    loads: np.ndarray | None = None   # loads of ``u``, once computed (see iterate_loads)


@dataclass(eq=False)
class PackingSolution:
    x: np.ndarray
    utility: float
    eps_f: float | None
    eps_f_form: str
    eps_f_basis: str
    iterations_run: int
    max_load: float
    is_feasible: bool
    dual_certificate: np.ndarray | None
    gap_estimate: float | None
    trace: list[TraceRow]
    params: PackingRegParams
    stopped_early: bool = False
    trace_dropped: int = 0   # oldest trace rows evicted past the buffer's capacity


@dataclass(frozen=True)
class FeasibilityReport:
    max_load: float
    violated_rows: list[int]
    is_feasible: bool


# ---- branch update expressions and their step scales ----

def mirror_iterate(z, beta_prime: float):
    return np.power(1.0 + z, -1.0 / beta_prime)


def mirror_update(z, truncated, eh: float):
    return z + eh * truncated


def additive_update(x_hat, truncated, c: float):
    return x_hat - c * truncated


def multiplicative_update(x_hat, truncated, c: float):
    return (1.0 - c * truncated) * x_hat


def update_rule(params, alpha: float):
    """The run's (step scale, update expression), chosen once from alpha
    and applied by ``step`` and ``covering.step_covering`` to the whole
    iterate, whichever engine evaluated its gradient.

    Below 1 the mirror state moves by ``epsilon * h``; covering's dual
    engine, the fairness-0 objective, takes this branch with its own
    ``epsilon`` and ``h``. At 1 the iterate moves additively, above 1
    multiplicatively.
    """
    if alpha < 1.0:
        return params.epsilon * params.h, mirror_update
    if alpha == 1.0:
        return params.beta / (4.0 * (1.0 + params.beta)), additive_update
    return (params.beta * (1.0 - alpha) / (4.0 * (1.0 + alpha * params.beta)),
            multiplicative_update)


def init_packing(instance: PackingInstance, config: SolverConfig,
                 params: PackingRegParams | None = None) -> PackingState:
    """Initial state: the same allocation on every coordinate.

    That is the paper's (1 - eps)/(n rho), which its budget ``K`` assumes.
    Under ``config.early_stop``, where the certificate and not ``K`` ends
    the run, it is the scaled (1 - eps)/max_i (A 1)_i instead: still
    feasible, with the fullest row (1 - eps)-tight. An alpha whose
    transformed start ``u0**(1 - alpha)`` overflows is rejected.

    For fairness below 1 the mirror state starts at z_j = x_hat_j**(-b') - 1,
    which makes the first mirror recomputation reproduce the initial iterate.
    """
    alpha = config.alpha
    if params is None:
        params = derive_packing_params(instance.m, instance.n, instance.rho, alpha, config.epsilon)
    n, rho = instance.n, instance.rho
    kernel = GradientKernel(instance.matrix, alpha, params.beta, params.logC)
    if config.early_stop:
        top = float(np.maximum.reduce(kernel.loads_of(np.ones(n))))
        u0 = np.full(n, (1.0 - config.epsilon) / top)
    else:
        u0 = np.full(n, (1.0 - config.epsilon) / (n * rho))
    with np.errstate(over="ignore"):   # an overflow is rejected just below
        x_hat = transform_inverse(u0, alpha)
    if not math.isfinite(x_hat[0]):
        raise InvalidAlpha(
            f"alpha={alpha:g} is too large for n={n}, rho={rho:g}: the start point's "
            f"transform {u0[0]:g}**(1 - alpha) overflows"
        )
    z = None
    if alpha < 1.0:
        z = np.power(x_hat, -params.beta_prime) - 1.0
    return PackingState(x_hat=x_hat, z=z, u=kernel.allocation(x_hat), k=0, kernel=kernel,
                        rule=update_rule(params, alpha))


def require_feasible(loads: np.ndarray, k: int) -> None:
    top = float(np.maximum.reduce(loads))
    if top > 1.0:
        raise FeasibilityViolation(
            f"constraint load {top} exceeded 1 at iteration {k}; "
            "this indicates an implementation bug"
        )


def iterate_loads(state: PackingState, k: int) -> np.ndarray:
    """The loads of the state's allocation: computed (and checked for
    feasibility, labelled iteration ``k``) the first time they are needed,
    then read from the state until the iterate moves."""
    if state.loads is None:
        state.loads = state.kernel.loads_of(state.u)
        require_feasible(state.loads, k)
    return state.loads


def step(state: PackingState, instance: PackingInstance, params: PackingRegParams,
         alpha: float) -> PackingState:
    """Advance one iteration of the state's update rule, in place.

    The mirror branch evaluates a fresh iterate and leaves it, with its
    loads, in the state; the other branches evaluate the state's iterate
    and replace it, leaving its loads to be computed when next needed.
    """
    kernel = state.kernel
    scale, update = state.rule
    if alpha < 1.0:
        state.x_hat = mirror_iterate(state.z, params.beta_prime)
        state.u = kernel.allocation(state.x_hat)
        state.loads = None
        loads = iterate_loads(state, state.k + 1)
        state.z = update(state.z, kernel.evaluate(state.x_hat, state.u, loads).truncated, scale)
    else:
        loads = iterate_loads(state, state.k)
        state.x_hat = update(state.x_hat, kernel.evaluate(state.x_hat, state.u, loads).truncated,
                             scale)
        state.u = kernel.allocation(state.x_hat)
        state.loads = None
    state.k += 1
    return state


def feasibility_report(instance: PackingInstance, x) -> FeasibilityReport:
    """Exact loads of an allocation; feasibility means max load <= 1, no slack."""
    x = np.asarray(x, dtype=np.float64)
    if (x < 0.0).any():
        raise NegativeCoordinate("allocation must be nonnegative")
    loads = constraint_loads(instance.matrix, x)
    violated = [int(i) for i in np.flatnonzero(loads > 1.0)]
    return FeasibilityReport(
        max_load=float(loads.max()), violated_rows=violated, is_feasible=not violated
    )


class Certificate(NamedTuple):
    """The Lagrangian dual bound at one iterate's barrier weights."""

    dual: np.ndarray   # y: the barrier weights at the iterate's loads
    bound: float       # g(y) >= OPT by weak duality; inf where undefined
    value: float       # the iterate's utility, read from x_hat

    @property
    def gap(self) -> float:
        """``bound - value``: at least the iterate's true optimality gap."""
        return self.bound - self.value


def dual_bound(matrix, alpha: float, y: np.ndarray) -> float:
    """The Lagrangian dual of alpha-fair packing at multipliers ``y >= 0``.

    alpha = 0: sum(y) / min_j (A^T y)_j; alpha = 1: sum(y) - sum_j
    (ln (A^T y)_j + 1); otherwise sum(y) + alpha/(1-alpha) * sum_j
    (A^T y)_j**(-(1-alpha)/alpha). inf when a column receives no dual mass.
    """
    aty = column_loads(matrix, y)
    least = float(np.minimum.reduce(aty))
    if not least > 0.0:
        return math.inf
    mass = float(np.add.reduce(y))
    if alpha == 0.0:
        return mass / least
    if alpha == 1.0:
        return mass - float(np.add.reduce(np.log(aty) + 1.0))
    return mass + (alpha / (1.0 - alpha)) * float(
        np.add.reduce(np.power(aty, -(1.0 - alpha) / alpha))
    )


def certify(kernel: GradientKernel, x_hat: np.ndarray, loads: np.ndarray) -> Certificate:
    """The certificate of iterate ``x_hat``, whose allocation has ``loads``.

    Its barrier weights serve as Lagrange multipliers. The iterate's value
    is sum(x_hat)/(1 - alpha), or sum(x_hat) at alpha = 1: the utility of
    its allocation, up to rounding.
    """
    alpha = kernel.alpha
    y = barrier_weights(kernel.inv_beta, kernel.logC, np.log(loads))
    total = float(np.add.reduce(x_hat))
    value = total if alpha == 1.0 else total / (1.0 - alpha)
    return Certificate(y, dual_bound(kernel.matrix, alpha, y), value)


def guarantee_target(alpha: float, epsilon: float, n: int, utility: float) -> tuple[float, str]:
    """Additive guarantee radius; the returned utility stands in for the
    unknown optimum and the form string says so."""
    if alpha == 1.0:
        return 3.0 * epsilon * n, "3*eps*n"
    if alpha < 1.0:
        return 3.0 * epsilon * (1.0 - alpha) * utility, "3*eps*(1-alpha)*utility"
    return 10.0 * epsilon * (alpha - 1.0) * abs(utility), "10*eps*(alpha-1)*|utility|"


def stop_radius(alpha: float, epsilon: float, n: int, bound: float,
                value: float) -> tuple[float, str]:
    """The gap ``bound - value`` that proves the paper's guarantee, and its form.

    Below 1 the gap may reach 3 eps (1-alpha) value, since value <= OPT;
    at 1, 3 eps n. Above 1 it is 10 eps (alpha-1) |bound|: OPT <= bound < 0
    there makes |bound| <= |OPT|, where |value| >= |OPT| would prove less.
    """
    if alpha == 1.0:
        return 3.0 * epsilon * n, "3*eps*n"
    if alpha < 1.0:
        return 3.0 * epsilon * (1.0 - alpha) * value, "3*eps*(1-alpha)*f"
    return 10.0 * epsilon * (alpha - 1.0) * abs(bound), "10*eps*(alpha-1)*|g|"


class PackingRunRecorder:
    """Per-run bookkeeping shared by the monolithic and round engines:
    trace rows, the feasibility audit, certificates, the early-stop
    policy, and the post-burn-in slackness diagnostic (warn only).

    A traced row is certified above fairness 1, and in every regime under
    early stop; the least finite dual bound seen is kept, since each one
    bounds OPT. The run stops once that bound proves the last row within
    ``stop_radius``; a row whose bound is not finite never stops it.
    """

    def __init__(self, kernel: GradientKernel, instance: PackingInstance,
                 params: PackingRegParams, config: SolverConfig):
        self.kernel = kernel
        self.instance = instance
        self.params = params
        self.config = config
        self.alpha = config.alpha
        self.burn_in = math.ceil(10.0 / params.beta)
        self.certifies = config.early_stop or self.alpha > 1.0
        self.last: Certificate | None = None   # the latest row's
        self.best: Certificate | None = None   # the least finite bound's
        self._warned = False

    def record(self, x_hat: np.ndarray, u: np.ndarray, k: int, trace: TraceBuffer,
               loads: np.ndarray) -> TraceRow:
        """Trace row of iteration ``k``; ``loads`` are those of ``u``, as
        ``iterate_loads`` computed and checked them."""
        kernel = self.kernel
        utility = f_alpha_value(u, self.alpha)
        f_r = kernel.f_r(x_hat, loads=loads)
        gap = None
        if self.certifies:
            cert = self.last = certify(kernel, x_hat, loads)
            if math.isfinite(cert.bound):
                gap = cert.gap
                if self.best is None or cert.bound < self.best.bound:
                    self.best = cert
        if self.alpha > 1.0 and k > self.burn_in and not self._warned:
            y = self.last.dual
            lhs = float(np.add.reduce(y))
            rhs = (1.0 + self.config.epsilon) * float(y @ loads)
            if lhs > rhs * (1.0 + 1e-12):
                warnings.warn(
                    f"dual mass {lhs:g} exceeds (1+eps) times its constraint "
                    f"coverage {rhs:g} at iteration {k} (past burn-in {self.burn_in})",
                    ComplementarySlacknessWarning,
                    stacklevel=3,
                )
                self._warned = True
        row = TraceRow(k=k, utility=utility, max_load=float(loads.max()), f_r=f_r, gap=gap)
        trace.append(row)
        return row

    def reported(self) -> Certificate | None:
        """The certificate the run reports for its last row: under early
        stop the least bound seen, with that row's value; else the row's own."""
        if self.config.early_stop and self.best is not None:
            return self.best._replace(value=self.last.value)
        return self.last

    def should_stop(self) -> bool:
        if not self.config.early_stop or self.best is None:
            return False
        bound, value = self.best.bound, self.last.value
        radius, _ = stop_radius(self.alpha, self.config.epsilon, self.instance.n, bound, value)
        return bound - value <= radius


def plan_iterations(config: SolverConfig, params) -> tuple[int, int]:
    """Iteration budget (override-aware) and the trace stride for it.

    The default stride is ``planned // 1000``, at most ``EARLY_STOP_STRIDE``
    when a packing run stops early.
    """
    planned = config.max_iters if config.max_iters is not None else params.K
    stride = max(1, planned // 1000)
    if config.early_stop and config.mode == PACK:
        stride = min(stride, EARLY_STOP_STRIDE)
    return planned, config.trace_stride if config.trace_stride is not None else stride


def finalize_packing(state: PackingState, instance: PackingInstance,
                     params: PackingRegParams, config: SolverConfig,
                     scaling: ScalingRecord, stopped_early: bool,
                     certificate: Certificate | None) -> PackingSolution:
    """Map the final iterate to original space and assemble the report.

    ``certificate`` is the recorder's report for the last traced row, which
    is the final iterate. Without early stop the guarantee is the paper's
    a-priori one; under it, the certified gap, scaled as the utility is.
    A run that spent its budget first claims no more: the a-priori bound
    assumes the paper's start, not the scaled one.
    """
    alpha = config.alpha
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        final_loads = iterate_loads(state, state.k)
        x = scaling.original_solution(state.u)
        utility = f_alpha_value(x, alpha)
        dual = gap = None
        if certificate is not None:
            dual = certificate.dual
            if math.isfinite(certificate.bound):
                gap = certificate.gap
        if not config.early_stop:
            eps_f, form = guarantee_target(alpha, config.epsilon, instance.n, utility)
            basis = "returned utility stands in for the unknown optimum"
        else:
            scale = 1.0 if alpha == 1.0 else float(np.power(scaling.c, alpha - 1.0))
            eps_f = None if gap is None else gap * scale
            form = "g-f: least dual bound g >= optimum, minus utility f"
            if stopped_early:
                _, rule = stop_radius(alpha, config.epsilon, instance.n,
                                      certificate.bound, certificate.value)
                basis = f"certified: the run stopped once g-f <= {rule}"
            else:
                basis = ("budget spent before the stop rule held; the a-priori bound "
                         "assumes the paper's start, not the scaled one")
    return PackingSolution(
        x=x,
        utility=utility,
        eps_f=eps_f,
        eps_f_form=form,
        eps_f_basis=basis,
        iterations_run=state.k,
        max_load=float(final_loads.max()),
        is_feasible=bool(final_loads.max() <= 1.0),
        dual_certificate=dual,
        gap_estimate=gap,
        trace=state.trace.rows(),
        params=params,
        stopped_early=stopped_early,
        trace_dropped=state.trace.dropped,
    )


def run_packing(state: PackingState, instance: PackingInstance, params: PackingRegParams,
                config: SolverConfig, scaling: ScalingRecord | None) -> PackingSolution:
    """Step ``state`` through the iteration budget and map the final iterate back.

    The budget is the derived K unless ``config.max_iters`` overrides it.
    Under ``config.early_stop`` the run stops at the first traced row that
    the least dual bound so far proves within ``stop_radius``, in every
    regime. The gradient is whatever ``state.kernel.evaluate`` computes.
    """
    alpha = config.alpha
    if scaling is None:
        scaling = ScalingRecord(c=1.0, alpha_used=alpha)
    planned, stride = plan_iterations(config, params)
    recorder = PackingRunRecorder(state.kernel, instance, params, config)

    def record(k: int) -> bool:
        loads = iterate_loads(state, k)
        recorder.record(state.x_hat, state.u, k, state.trace, loads)
        return recorder.should_stop()

    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        stopped_early = record(0)
        k = 0
        while k < planned and not stopped_early:
            k += 1
            step(state, instance, params, alpha)
            if k % stride == 0 or k == planned:
                stopped_early = record(k)

    return finalize_packing(state, instance, params, config, scaling, stopped_early,
                            recorder.reported())


def solve_packing(instance: PackingInstance, config: SolverConfig,
                  scaling: ScalingRecord | None = None) -> PackingSolution:
    """Derive the run constants, start (see ``init_packing``) and run the budget."""
    params = derive_packing_params(instance.m, instance.n, instance.rho, config.alpha,
                                   config.epsilon)
    return run_packing(init_packing(instance, config, params), instance, params, config, scaling)
