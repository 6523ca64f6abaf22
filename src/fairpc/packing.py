"""Width-independent packing solver with per-regime update rules.

Three update regimes share one loop: a mirror step driven by an
accumulated dual state for fairness below 1, an additive step at exactly 1,
and a multiplicative step above 1. Feasibility of every iterate is a hard
invariant, checked (with no tolerance) where the iterate is formed: the
start computes and checks its loads, and so does every step for the iterate
it forms (``iterate_loads``). So after the start and after every step the
state carries the current iterate, its iteration ``k`` and its checked
loads, with the stage's constants and kernel (which holds the matrix and
the fairness); the next step, the certificate, the trace record, the stop
rule and the finalization only read them there.

``solve_packing`` is the one solve, and ``step`` the one update, of both
engines: they differ only in the kernel constructor ``solve_packing`` is
given, which builds each stage's gradient kernel (the round engine's, see
``rounds``, evaluates the gradient as a lockstep round of column-block
shards). ``enter_stage`` binds a stage's constants to a state: its
parameters, its kernel and the update rule ``update_rule`` picks, once at
the start and at each step of an early-stop run's epsilon schedule (see
``epsilon_schedule``).

``PackingState``, ``run_budget`` and ``PackingRunRecorder`` are the one
solver state, solve loop and trace recorder of both modes:
``covering.solve_covering`` drives its dual engine, the fairness-0 mirror
rule, through them too, with trace rows that carry no certificate.

Under early stop the certificate, not the step analysis, proves the stop,
so the step only has to keep iterates feasible: its scale is the paper's
times a multiplier ``mu`` that starts at ``MULTIPLIER_START`` and carries
across stages, and it carries a heavy-ball term (Polyak) of weight
``MOMENTUM`` on its rule's own coordinate (``heavy_ball``), whose history
every stage starts without. The run is certified at every traced row and
every ``CHECK_EVERY``-th iteration. A step whose iterate overloads a row is
redone from the kept iterate with the same gradient (``iterate_loads``),
first without the heavy-ball term at the same ``mu``, then at half the
multiplier. That, and entering a stage, which halves ``mu`` until the step
stays in the rule's domain (``enter_stage``), are the only changes to
``mu``; never below 1, the paper's step. Without early stop ``mu`` is 1,
no history is kept and the run is the paper's.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import FeasibilityViolation, InvalidAlpha
from .matrix import column_loads
from .problem import (
    PACK, PackingInstance, ScalingRecord, SolverConfig, epsilon_upper_bound, f_alpha_value,
    transform_inverse,
)
from .regularization import GradientKernel, PackingRegParams, derive_packing_params

TRACE_CAPACITY = 4096

# under early stop: the step multiplier's start, the heavy-ball weight of
# the previous step's move, and the iterations between certificate checks of
# the untraced iterates
MULTIPLIER_START = 8.0
MOMENTUM = 0.8
CHECK_EVERY = 50


@dataclass(frozen=True)
class TraceRow:
    k: int
    utility: float
    max_load: float
    f_r: float
    gap: float | None = None


class TraceBuffer:
    """Bounded trace storage: the latest ``TRACE_CAPACITY`` rows. Every row
    is counted, kept or not (a run that keeps no trace appends None), so
    ``dropped`` is the number of oldest rows a kept trace evicts."""

    def __init__(self):
        self._rows = deque(maxlen=TRACE_CAPACITY)
        self.count = 0

    def append(self, row: TraceRow | None) -> None:
        self.count += 1
        if row is not None:
            self._rows.append(row)

    @property
    def dropped(self) -> int:
        return max(0, self.count - self._rows.maxlen)

    def rows(self) -> list[TraceRow]:
        return list(self._rows)


@dataclass(eq=False)
class PackingState:
    """The solver state of both modes; covering's, at fairness 0 with
    ``CoveringRegParams``, has ``u`` equal to ``x_hat`` and alone a ``y_avg``.

    Under early stop a packing state also keeps the heavy-ball history: its
    weight ``gamma`` and ``velocity``, the previous step's move in its
    rule's own coordinate (see ``velocity``), which ``enter_stage`` drops;
    ``drops`` counts the stage's steps whose term was dropped (see
    ``heavy_ball`` and ``redo``).
    """

    x_hat: np.ndarray
    u: np.ndarray
    k: int = 0
    params: PackingRegParams | None = None   # the stage's constants, bound by ``enter_stage``
    kernel: GradientKernel | None = None
    rule: tuple | None = None   # (step scale, update expression), from ``update_rule``
    z: np.ndarray | None = None   # the mirror state; fairness below 1 only
    trace: TraceBuffer = field(default_factory=TraceBuffer)
    loads: np.ndarray | None = None   # loads of ``u``; packing's checked by ``iterate_loads``
    mu: float = 1.0   # the step multiplier; above 1 under early stop only
    gamma: float = 0.0   # the heavy-ball weight: ``MOMENTUM`` under early stop, else 0
    velocity: np.ndarray | None = None   # the previous step's move; None at a stage's start
    drops: int = 0   # the stage's steps whose heavy-ball term was dropped
    retry: tuple | None = None   # (base, truncated, mu, heavy) of a step taken at mu > 1
                                 # or with the heavy-ball term, until ``iterate_loads``
                                 # accepts its iterate
    y_avg: np.ndarray | None = None   # covering's running average of the barrier weights


class Stage(NamedTuple):
    """One stage of an early-stop run: its epsilon, the iteration at which
    the certificate proved its radius or the budget ran out, the step
    multiplier it ended with, and how many of its steps dropped their
    heavy-ball term (see ``heavy_ball`` and ``redo``)."""

    epsilon: float
    until: int
    multiplier: float
    momentum_drops: int


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
    stages: list[Stage] | None = None   # the epsilon schedule that ran; early stop only


# ---- branch update expressions and their step scales ----

def mirror_iterate(z, beta_prime: float):
    return np.power(1.0 + z, -1.0 / beta_prime)


def mirror_state(x, beta_prime: float):
    """The mirror state z = x**(-b') - 1 whose ``mirror_iterate`` is ``x``."""
    return np.power(x, -beta_prime) - 1.0


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


def epsilon_schedule(alpha: float, epsilon: float) -> list[float]:
    """The epsilon of each stage of an early-stop run, ending at the target ``epsilon``.

    The first is the largest admissible, ``epsilon_upper_bound(alpha)``;
    it is halved while still above the target, and the target comes last.
    A target at the ceiling makes a single stage.
    """
    stages = []
    eps = epsilon_upper_bound(alpha)
    while eps > epsilon:
        stages.append(eps)
        eps /= 2.0
    return stages + [epsilon]


def init_packing(instance: PackingInstance, config: SolverConfig,
                 params: PackingRegParams, kernel=GradientKernel) -> PackingState:
    """Initial state of the stage ``params``, with its kernel built by
    ``kernel(matrix, alpha, beta, logC)``: the same allocation on every
    coordinate, with its checked loads (``iterate_loads``, iteration 0).

    That is the paper's (1 - eps)/(n rho), which its budget ``K`` assumes.
    Under ``config.early_stop``, where the certificate and not ``K`` ends
    the run, it is the scaled (1 - eps)/max_i (A 1)_i instead: still
    feasible, with the fullest row (1 - eps)-tight, and the step multiplier
    starts at ``MULTIPLIER_START``. Either way eps is ``params.epsilon``,
    the first stage's. An alpha whose transformed start ``u0**(1 - alpha)``
    overflows is rejected.
    """
    alpha = config.alpha
    n, rho = instance.n, instance.rho
    kernel = kernel(instance.matrix, alpha, params.beta, params.logC)
    if config.early_stop:
        top = float(np.maximum.reduce(kernel.loads_of(np.ones(n))))
        u0 = np.full(n, (1.0 - params.epsilon) / top)
    else:
        u0 = np.full(n, (1.0 - params.epsilon) / (n * rho))
    with np.errstate(over="ignore"):   # an overflow is rejected just below
        x_hat = transform_inverse(u0, alpha)
    if not math.isfinite(x_hat[0]):
        raise InvalidAlpha(
            f"alpha={alpha:g} is too large for n={n}, rho={rho:g}: the start point's "
            f"transform {u0[0]:g}**(1 - alpha) overflows"
        )
    state = PackingState(x_hat=x_hat, u=kernel.allocation(x_hat),
                         mu=MULTIPLIER_START if config.early_stop else 1.0,
                         gamma=MOMENTUM if config.early_stop else 0.0)
    enter_stage(state, params, kernel)
    iterate_loads(state)
    return state


def enter_stage(state: PackingState, params: PackingRegParams, kernel: GradientKernel) -> None:
    """Bind the constants of ``params`` to ``state``, in place: the
    parameters, ``kernel`` (built for their beta and logC), the update rule
    and, for fairness below 1, the mirror state z_j = x_hat_j**(-b') - 1,
    which makes the next mirror recomputation reproduce the iterate.

    The transformed iterate, ``u**(1 - alpha)`` or ``ln u``, does not depend
    on epsilon, so ``x_hat``, ``u`` and the checked ``loads`` are kept, and
    so is the multiplier, halved (never below 1) until ``mu * |scale|`` is
    below 1 for the rule's step scale. That keeps every step in the rule's
    domain: the multiplicative factor ``1 - mu c t`` and the mirror's
    ``1 + z`` stay positive, for any truncated gradient t in [-1, 1] and
    z >= 0, as at any feasible iterate. A pending retry is dropped with the
    mirror state it would redo, and so is the heavy-ball history: every
    stage's first step has no momentum term, and its count of dropped terms
    starts at 0.
    """
    alpha = kernel.alpha
    state.params = params
    state.kernel = kernel
    state.rule = update_rule(params, alpha)
    while state.mu > 1.0 and state.mu * abs(state.rule[0]) >= 1.0:
        state.mu = max(1.0, state.mu / 2.0)
    state.retry = state.velocity = None
    state.drops = 0
    if alpha < 1.0:
        state.z = mirror_state(state.x_hat, params.beta_prime)


def iterate_loads(state: PackingState) -> np.ndarray:
    """Compute the loads of the state's allocation, the iterate a step or
    the start has just formed; check them for feasibility, labelled with
    the state's iteration ``k``; and keep them on the state, where every
    reader takes them from.

    An iterate a step took at a multiplier above 1, or with the heavy-ball
    term, whose loads exceed 1 (or are not numbers) is never accepted: it is
    redone (see ``redo``), first without the term, then at half the
    multiplier, until it fits or the multiplier is 1 without the term, where
    an overloaded row raises ``FeasibilityViolation``.
    """
    loads = state.kernel.loads_of(state.u)
    top = float(np.maximum.reduce(loads))
    while not top <= 1.0 and state.retry is not None:
        redo(state)
        loads = state.kernel.loads_of(state.u)
        top = float(np.maximum.reduce(loads))
    if top > 1.0:
        raise FeasibilityViolation(
            f"constraint load {top} exceeded 1 at iteration {state.k}; "
            "this indicates an implementation bug"
        )
    state.loads = loads
    state.retry = None
    return loads


def redo(state: PackingState) -> None:
    """Retake the pending step from its kept base, the previous iterate (or
    mirror state), with the same truncated gradient and without the
    heavy-ball term: at the same multiplier if the step carried the term
    (which counts as a drop), else at half the multiplier, which becomes the
    state's; no gradient is evaluated. Under early stop the redone move
    becomes the state's velocity."""
    base, truncated, mu, heavy = state.retry
    if heavy:
        state.drops += 1
    else:
        mu /= 2.0
    scale, update = state.rule
    moved = update(base, truncated, scale * mu)
    if state.gamma:
        state.velocity = velocity(state.kernel.alpha, moved, base)
    if state.kernel.alpha < 1.0:
        state.z = moved
        state.x_hat = mirror_iterate(moved, state.params.beta_prime)
    else:
        state.x_hat = moved
    state.u = state.kernel.allocation(state.x_hat)
    state.mu = mu
    state.retry = (base, truncated, mu, False) if mu > 1.0 else None


def velocity(alpha: float, moved: np.ndarray, base: np.ndarray) -> np.ndarray:
    """A step's move from ``base`` to ``moved`` in its rule's own coordinate:
    the difference of mirror states below fairness 1 and of ``x_hat`` at 1,
    and above 1, where the coordinate is ``ln x_hat``, the ratio of the
    ``x_hat``."""
    return moved / base if alpha > 1.0 else moved - base


def heavy_ball(state: PackingState, base: np.ndarray, truncated: np.ndarray,
               c: float) -> np.ndarray | None:
    """The coordinate a step from ``base`` forms with the heavy-ball term:
    the rule's update at step scale ``c`` plus ``gamma`` times the state's
    velocity v, which becomes this step's move. Above fairness 1, in
    ``ln x_hat``, that is the factor ``(1 - c t) v**gamma`` on ``x_hat``,
    the multiplicative update applied to ``v**gamma``.

    None, counted as a drop, where the mirror state would turn negative,
    outside its rule's domain.
    """
    _, update = state.rule
    alpha, v = state.kernel.alpha, state.velocity
    if alpha > 1.0:
        factor = update(np.power(v, state.gamma), truncated, c)
        state.velocity = factor
        return factor * base
    moved = update(base, truncated, c) + state.gamma * v
    if alpha < 1.0 and not np.minimum.reduce(moved) >= 0.0:
        state.drops += 1
        return None
    state.velocity = moved - base
    return moved


def move(state: PackingState, base: np.ndarray, truncated: np.ndarray) -> np.ndarray:
    """The coordinate a step from ``base`` with ``truncated`` forms: the
    rule's update at the state's multiplier, with the heavy-ball term where
    the state has a velocity and ``heavy_ball`` keeps the term. A step
    taken at a multiplier above 1 or with the term keeps its base and
    gradient in ``retry``. Under early stop every step's move becomes the
    state's velocity; without it none is kept, and the step is the paper's."""
    scale, update = state.rule
    mu = state.mu
    moved = None if state.velocity is None else heavy_ball(state, base, truncated, scale * mu)
    heavy = moved is not None
    if not heavy:
        moved = update(base, truncated, scale * mu)
        if state.gamma:
            state.velocity = velocity(state.kernel.alpha, moved, base)
    state.retry = (base, truncated, mu, heavy) if mu > 1.0 or heavy else None
    return moved


def step(state: PackingState) -> PackingState:
    """Advance one iteration of the state's update rule, in place, at the
    rule's step scale times the state's multiplier ``mu`` and, under early
    stop, with the heavy-ball term (see ``move``), and leave the state's
    iterate with its checked loads (``iterate_loads``). The iteration count
    ``k`` moves first, so a check made in the step is labelled with the
    iteration the step completes.

    The mirror branch forms its iterate from the mirror state first, checks
    it and evaluates it, then moves the mirror state; the other branches
    evaluate the state's iterate, replace it and check the new one. A step
    taken above a multiplier of 1 or with the heavy-ball term keeps its base
    and gradient in ``retry`` until ``iterate_loads`` accepts the iterate it
    leads to: at the end of this step, or for the mirror branch at the start
    of the next.
    """
    kernel = state.kernel
    state.k += 1
    if kernel.alpha < 1.0:
        state.x_hat = mirror_iterate(state.z, state.params.beta_prime)
        state.u = kernel.allocation(state.x_hat)
        loads = iterate_loads(state)
        truncated = kernel.evaluate(state.x_hat, state.u, loads).truncated
        state.z = move(state, state.z, truncated)
    else:
        truncated = kernel.evaluate(state.x_hat, state.u, state.loads).truncated
        state.x_hat = move(state, state.x_hat, truncated)
        state.u = kernel.allocation(state.x_hat)
        iterate_loads(state)
    return state


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
    (A^T y)_j**(-(1-alpha)/alpha).

    Each column adds sup_{u >= 0} f(u) - u (A^T y)_j. Above 1 that is 0 for
    a column with no dual mass (the sup of u**(1-alpha)/(1-alpha), as u
    grows), which the power gives; so is a true mass that underflows to 0,
    which only raises the bound. At and below 1 the sup is +inf there, and
    so is the bound.
    """
    aty = column_loads(matrix, y)
    mass = float(np.add.reduce(y))
    if alpha <= 1.0:
        least = float(np.minimum.reduce(aty))
        if not least > 0.0:
            return math.inf
        if alpha == 0.0:
            return mass / least
        if alpha == 1.0:
            return mass - float(np.add.reduce(np.log(aty) + 1.0))
    return mass + (alpha / (1.0 - alpha)) * float(
        np.add.reduce(np.power(aty, -(1.0 - alpha) / alpha))
    )


def certify(kernel: GradientKernel, x_hat: np.ndarray, loads: np.ndarray) -> Certificate:
    """The certificate of iterate ``x_hat``, whose allocation has ``loads``.

    Its barrier weights, ``kernel.weights``, serve as Lagrange multipliers,
    and its value is ``kernel.value``.
    """
    y = kernel.weights(loads)
    return Certificate(y, dual_bound(kernel.matrix, kernel.alpha, y), kernel.value(x_hat))


def stop_radius(alpha: float, epsilon: float, n: int, bound: float, value: float,
                names: tuple[str, str] = ("f", "g")) -> tuple[float, str]:
    """The gap ``bound - value`` that proves the paper's guarantee, and its
    form, naming value and bound ``names`` (the a-priori guarantee passes
    the returned utility as both, standing in for the unknown optimum).

    Below 1 the gap may reach 3 eps (1-alpha) value, since value <= OPT;
    at 1, 3 eps n. Above 1 it is 10 eps (alpha-1) |bound|: OPT <= bound < 0
    there makes |bound| <= |OPT|, where |value| >= |OPT| would prove less.
    """
    if alpha == 1.0:
        return 3.0 * epsilon * n, "3*eps*n"
    if alpha < 1.0:
        return 3.0 * epsilon * (1.0 - alpha) * value, f"3*eps*(1-alpha)*{names[0]}"
    return 10.0 * epsilon * (alpha - 1.0) * abs(bound), f"10*eps*(alpha-1)*|{names[1]}|"


class PackingRunRecorder:
    """Per-run bookkeeping shared by both modes and both engines: trace
    rows, certificates and the early-stop policy. It keeps only the run's
    facts; each call is given the solver state and only reads it.

    ``check``, the one call that certifies, is made by ``solve_packing``'s
    visit of each iterate when its run certifies (under early stop, or
    above fairness 1); a run that never checks has no certificate. ``record``
    builds the row of the state's iteration at the kernel's fairness (0 for
    covering), with the gap the run would report there, or only counts it
    where the config keeps no trace. The least finite dual bound seen is
    kept, since each bounds OPT whatever stage it came from;
    ``should_stop`` says whether it proves the last certified iterate
    within ``stop_radius`` of the state's stage.
    """

    def __init__(self, config: SolverConfig):
        self.config = config
        self.last: Certificate | None = None   # the latest certified iterate's
        self.best: Certificate | None = None   # the least finite bound's

    def check(self, state: PackingState) -> None:
        """Certify the state's iterate, at its checked loads."""
        cert = self.last = certify(state.kernel, state.x_hat, state.loads)
        if math.isfinite(cert.bound) and (self.best is None or cert.bound < self.best.bound):
            self.best = cert

    def record(self, state: PackingState) -> TraceRow | None:
        """Trace row of the state's iterate, at its iteration ``k``, appended
        to the state's trace, or None where the config keeps no trace; the
        row reads the loads the state carries, as the step that formed the
        iterate computed them. It carries the gap ``reported`` gives, if
        any: after this iterate's ``check``, under early stop the least
        bound seen minus this row's value, so the stop row's gap is the one
        the run reports."""
        if not self.config.keep_trace:
            state.trace.append(None)
            return None
        cert = self.reported()
        gap = cert.gap if cert is not None and math.isfinite(cert.bound) else None
        kernel, loads = state.kernel, state.loads
        row = TraceRow(k=state.k, utility=f_alpha_value(state.u, kernel.alpha),
                       max_load=float(loads.max()), f_r=kernel.f_r(state.x_hat, loads),
                       gap=gap)
        state.trace.append(row)
        return row

    def reported(self) -> Certificate | None:
        """The certificate the run reports for its last row: under early
        stop the least bound seen, with that row's value; else the row's
        own; None for a run that never checks."""
        if self.config.early_stop and self.best is not None:
            return self.best._replace(value=self.last.value)
        return self.last

    def should_stop(self, state: PackingState) -> bool:
        if not self.config.early_stop or self.best is None:
            return False
        bound, value = self.best.bound, self.last.value
        radius, _ = stop_radius(state.kernel.alpha, state.params.epsilon, state.x_hat.size,
                                bound, value)
        return bound - value <= radius


def run_budget(state, advance, visit, planned: int, stride: int, checks: bool = False) -> bool:
    """The one solve loop of both modes: visit iteration 0, then advance
    ``state`` (whose ``k`` counts the steps taken) up to ``planned`` times,
    visiting every ``stride``-th iteration and the last as traced and, when
    ``checks``, every other ``CHECK_EVERY``-th one as untraced. A visit
    reads the iteration from the state. Returns True at the first
    ``visit(traced)`` that does, which ends the run early.
    """
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        if visit(True):
            return True
        while state.k < planned:
            advance(state)
            k = state.k
            traced = k % stride == 0 or k == planned
            if (traced or checks and k % CHECK_EVERY == 0) and visit(traced):
                return True
    return False


def plan_iterations(config: SolverConfig, params) -> tuple[int, int]:
    """Iteration budget (override-aware) and the trace stride for it: by
    default ``planned // 1000``."""
    planned = config.max_iters if config.max_iters is not None else params.K
    stride = max(1, planned // 1000)
    return planned, config.trace_stride if config.trace_stride is not None else stride


def finalize_packing(state: PackingState, params: PackingRegParams, config: SolverConfig,
                     scaling: ScalingRecord, stopped_early: bool,
                     certificate: Certificate | None,
                     stages: list[Stage] | None = None) -> PackingSolution:
    """Map the final iterate to original space and assemble the report.

    ``params`` are the target stage's, ``certificate`` is the recorder's
    report for the last traced row, which is the final iterate, and
    ``stages`` the epsilon schedule that ran (early stop only). The
    reported load and feasibility read the checked loads the state carries,
    and the radius its iterate's size n. Without early stop the guarantee
    is the paper's a-priori one; under it, the certified gap, scaled as the
    utility is. A run that spent its budget first claims no more: the
    a-priori bound assumes the paper's start, not the scaled one.
    """
    alpha, n = config.alpha, state.x_hat.size
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        final_loads = state.loads
        x = scaling.original_solution(state.u)
        utility = f_alpha_value(x, alpha)
        dual = gap = None
        if certificate is not None:
            dual = certificate.dual
            if math.isfinite(certificate.bound):
                gap = certificate.gap
        if not config.early_stop:
            eps_f, form = stop_radius(alpha, config.epsilon, n, utility, utility,
                                      ("utility", "utility"))
            basis = "returned utility stands in for the unknown optimum"
        else:
            scale = 1.0 if alpha == 1.0 else float(np.power(scaling.c, alpha - 1.0))
            eps_f = None if gap is None else gap * scale
            form = "g-f: least dual bound g >= optimum, minus utility f"
            if stopped_early:
                _, rule = stop_radius(alpha, config.epsilon, n, certificate.bound,
                                      certificate.value)
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
        stages=stages,
    )


def solve_packing(instance: PackingInstance, config: SolverConfig,
                  scaling: ScalingRecord | None = None,
                  kernel=GradientKernel) -> PackingSolution:
    """Derive the run constants, start (see ``init_packing``), step through
    the iteration budget and map the final iterate back.

    ``kernel(matrix, alpha, beta, logC)`` builds each stage's gradient
    kernel, once per stage: ``GradientKernel`` for the monolithic engine.
    The budget is the derived K unless ``config.max_iters`` overrides it.
    Under ``config.early_stop`` the run goes through ``epsilon_schedule``'s
    stages, in every regime, starting at the first, with the step
    multiplier of the module docstring. Its ``visit`` of an iterate, at a
    traced row or every ``CHECK_EVERY`` iterations, is the one place the run
    certifies; it records the row when the iterate is traced or proves a
    stage, so the run's last row is its final iterate. One proof ends every
    stage it proves, and the run stops at the target's. A new stage keeps
    the iterate, its checked loads and the multiplier and binds its own
    constants to the state (``enter_stage``). The budget, the trace stride
    and the reported constants are the target's, counted on one iteration
    counter. A config of another mode raises ``ValueError``, an instance
    of another kind ``TypeError``.
    """
    if config.mode != PACK:
        raise ValueError(f"solve_packing runs mode {PACK!r}, but the config's mode is "
                         f"{config.mode!r}")
    if not isinstance(instance, PackingInstance):
        raise TypeError("pack mode needs a PackingInstance")
    alpha = config.alpha
    m, n, rho = instance.m, instance.n, instance.rho
    if scaling is None:
        scaling = ScalingRecord(c=1.0, alpha_used=config.fairness)
    params = derive_packing_params(m, n, rho, alpha, config.epsilon)
    schedule = epsilon_schedule(alpha, config.epsilon) if config.early_stop else [config.epsilon]

    def stage_params(epsilon: float) -> PackingRegParams:
        return params if epsilon == config.epsilon else derive_packing_params(
            m, n, rho, alpha, epsilon)

    state = init_packing(instance, config, stage_params(schedule[0]), kernel)
    planned, stride = plan_iterations(config, params)
    recorder = PackingRunRecorder(config)
    certifies = config.early_stop or alpha > 1.0
    stages: list[Stage] = []   # the stages ended so far

    def visit(traced: bool) -> bool:
        if certifies:
            recorder.check(state)
        proven = recorder.should_stop(state)
        if traced or proven:   # on the kernel of the stage the check ends
            recorder.record(state)
        while proven:
            stages.append(Stage(state.params.epsilon, state.k, state.mu, state.drops))
            if len(stages) == len(schedule):
                return True
            new = stage_params(schedule[len(stages)])
            enter_stage(state, new, kernel(instance.matrix, alpha, new.beta, new.logC))
            proven = recorder.should_stop(state)
        return False

    stopped_early = run_budget(state, step, visit, planned, stride, config.early_stop)
    if config.early_stop and not stopped_early:
        stages.append(Stage(state.params.epsilon, state.k, state.mu, state.drops))

    return finalize_packing(state, params, config, scaling, stopped_early,
                            recorder.reported(), stages if config.early_stop else None)
