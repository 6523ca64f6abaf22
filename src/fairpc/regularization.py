"""Regularized objective, derived constants, and the gradient kernel.

The constrained problem is replaced by minimizing

    f_r(x) = -(linear utility) + (beta/(1+beta)) * sum_i C * load_i**((1+beta)/beta)

over the transformed iterate, where ``load_i`` is the i-th constraint load.
With realistic parameters ``1/beta`` is in the hundreds, so ``C`` and the
barrier weights ``w_i = C * load_i**(1/beta)`` are formed from natural-log
exponents, and f_r reports a positive-overflow marker instead of a finite
lie once its exponent passes ``EXP_SAT``.

The scaled gradient of coordinate j is ``u_j**alpha * (A^T w)_j - 1``. The
kernel evaluates it in that product form (one gather, multiply and
``reduceat`` over the entries, plus O(m + n) ``exp``/``log``) whenever a
bound from the run constants proves every factor stays in float range, and
otherwise falls back to exponentiating each entry's combined log exponent,
never materializing one above ``EXP_SAT``. The form, like the allocation
map and the allocation term, is bound once per run, when the kernel is
built.

The kernel owns the column routine, and both engines run the one
``GradientKernel.evaluate``: each row's factor comes from
``GradientKernel.row_factors`` and reaches ``GradientKernel.truncated_columns``
through ``GradientKernel.columns``, which the round engine (see ``rounds``)
alone overrides, to message the factors to its column-block shards and
pass each entry's message slot in place of its row. That is what makes the
two engines bit-identical. The barrier weights have one formula,
``GradientKernel.weights``: the row factors at alpha = 0, and the packing
certificate's multipliers.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DerivedConstantOverflow, DomainError, TruncationDomainViolation
from .matrix import SparseNonnegMatrix, segment_index, segment_sums
from .problem import COVER, PACK, check_run

# saturation threshold for combined log exponents, near the float64 overflow bound
EXP_SAT = 700.0

# marker returned by f_r_value when the barrier exponent exceeds EXP_SAT
POSITIVE_OVERFLOW = math.inf


def is_positive_overflow(value: float) -> bool:
    return math.isinf(value) and value > 0


class SubThresholdBetaWarning(UserWarning):
    """Fairness beta below the floor assumed by the covering guarantee."""


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _outside_stacklevel() -> int:
    """The ``stacklevel`` at which a warning issued by this function's
    caller names the first frame outside the package: the user's call, by
    whichever solve it went through."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class PackingRegParams:
    """Derived constants for one packing run.

    Constructing directly (rather than through ``derive_packing_params``)
    is supported for tests that need moderate injected values; the solver
    path always derives.
    """

    alpha: float
    epsilon: float
    beta: float
    logC: float
    K: int
    beta_prime: float | None = None  # alpha < 1 only
    h: float | None = None           # alpha < 1 only


@dataclass(frozen=True)
class CoveringRegParams:
    """Derived constants for one covering run; the barrier uses C = 1."""

    epsilon: float
    beta: float            # fairness exponent, reset if the input was <= 0
    beta_prime: float
    h: float
    K: int
    was_reset: bool = False
    below_guarantee_floor: bool = False
    logC: float = 0.0


def _finite(name: str, value: float, m: int, n: int, rho: float, epsilon: float) -> float:
    """``value`` when finite and nonzero; a product of m, n, rho and 1/epsilon
    near the float range overflows and turns a derived constant into 0 or inf."""
    if math.isfinite(value) and value != 0.0:
        return value
    raise DerivedConstantOverflow(
        f"derived constant {name} = {value} is out of floating-point range for "
        f"m={m}, n={n}, rho={rho:g}, epsilon={epsilon:g}"
    )


def derive_packing_params(m: int, n: int, rho: float, alpha: float, epsilon: float) -> PackingRegParams:
    """Evaluate the packing run constants for the given standardized shape."""
    check_run(PACK, alpha, epsilon)
    if m < 1 or n < 1 or rho < 1.0:
        raise ValueError("need m, n >= 1 and rho >= 1")

    def finite(name: str, value: float) -> float:
        return _finite(name, value, m, n, rho, epsilon)

    beta = finite(
        "beta", (epsilon / 4.0) / ((1.0 + alpha) * math.log(4.0 * m * n * rho / epsilon))
    )
    logC = finite("logC", math.log(1.0 + epsilon / 2.0) / beta)
    beta_prime = None
    h = None
    if alpha < 1.0:
        beta_prime = finite(
            "beta_prime", (1.0 - alpha) * (epsilon / 4.0) / math.log(n * rho / (1.0 - epsilon))
        )
        h = finite("h", (1.0 - alpha) * beta * beta_prime / (16.0 * epsilon * (1.0 + alpha * beta)))
        K = finite("K", 2.0 / ((1.0 - alpha) * h * epsilon))
    elif alpha == 1.0:
        K = finite("K", 10.0 * math.log(8.0 * rho * m * n / epsilon) ** 2 / (epsilon * beta))
    else:
        gap = min(alpha - 1.0, 1.0)
        K = finite(
            "K", 800.0 * (1.0 + alpha) ** 2 * math.log(n * rho / (epsilon * gap)) / (beta * gap)
        )
    return PackingRegParams(
        alpha=alpha, epsilon=epsilon, beta=beta, logC=logC,
        beta_prime=beta_prime, h=h, K=math.ceil(K),
    )


def derive_covering_params(m: int, n: int, rho: float, beta: float, epsilon: float) -> CoveringRegParams:
    """Evaluate the covering run constants, resetting beta <= 0 to the floor."""
    check_run(COVER, beta, epsilon)
    if m < 1 or n < 1 or rho < 1.0:
        raise ValueError("need m, n >= 1 and rho >= 1")

    def finite(name: str, value: float) -> float:
        return _finite(name, value, m, n, rho, epsilon)

    floor = finite("beta floor", (epsilon / 4.0) / math.log(m * n * rho / epsilon))
    was_reset = beta <= 0.0
    if was_reset:
        beta = floor
    below = (not was_reset) and beta < floor
    if below:
        warnings.warn(
            f"fairness beta={beta:g} is below the guarantee floor {floor:g}; "
            "the cost bound is not guaranteed in this regime",
            SubThresholdBetaWarning,
            stacklevel=_outside_stacklevel(),
        )
    beta_prime = finite(
        "beta_prime", (epsilon / 4.0) / ((1.0 + beta) * math.log(m * n * rho / epsilon))
    )
    h = finite("h", beta * beta_prime / (16.0 * epsilon))
    # a subnormal beta can leave h * epsilon at 0.0, where the budget is inf
    h_eps = h * epsilon
    K = 1 + math.ceil(finite("K", 2.0 / h_eps if h_eps else math.inf))
    return CoveringRegParams(
        epsilon=epsilon, beta=beta, beta_prime=beta_prime, h=h, K=K,
        was_reset=was_reset, below_guarantee_floor=below,
    )


class GradientPair(NamedTuple):
    """Gradient data at one iterate.

    ``truncated`` is the scaled-and-clipped gradient, every entry in
    [-1, 1]; a saturated coordinate truncates to exactly 1.0. ``weights``
    are the barrier weights ``C * load**(1/beta)`` when the kernel formed
    them (the product form at alpha = 0, which covering always runs), else
    None. ``grad``, the raw gradient, is filled in by ``grad_f_r`` alone:
    saturated coordinates carry a signed-infinity sentinel there, and no
    arithmetic is ever performed on it.
    """

    truncated: np.ndarray
    weights: np.ndarray | None = None
    grad: np.ndarray | None = None


def product_form_bound(matrix: SparseNonnegMatrix, alpha: float, logC: float) -> float:
    """The largest exponent the product form can meet on a feasible packing iterate.

    Loads <= 1 give ``A_ij u_j <= 1`` for every entry and ``q_i = ln(load_i)/beta
    <= 0``, so both an entry's combined exponent ``ln A_ij + logC + alpha ln u_j
    + q_i`` and its column factor's exponent ``logC + alpha ln u_j`` are at
    most ``logC + max((1 - alpha) ln A_ij, -alpha ln A_ij)``. In standard form
    (entries in [1, rho]) this is ``logC + max(0, 1 - alpha) ln rho``.
    """
    lo, hi = math.log(matrix.min_entry), math.log(matrix.max_entry)
    return logC + max((1.0 - alpha) * hi, (1.0 - alpha) * lo, -alpha * lo)


def _identity(x_hat):
    return x_hat


def allocation_map(alpha: float):
    """F, the allocation-space image of a transformed iterate, as a
    one-argument function chosen once per run.

    alpha = 0 is the identity and returns its input unchanged so that both
    execution engines see literally the same values.
    """
    if alpha == 0.0:
        return _identity
    if alpha == 1.0:
        return np.exp
    power = 1.0 / (1.0 - alpha)
    return lambda x_hat: np.power(x_hat, power)


def allocation_term(alpha: float):
    """The per-coordinate log factor of the column factor, as a function of
    ``(x_hat, u)`` chosen once per run.

    alpha = 0 has no column factor and gives 0.0; alpha = 1 uses the
    iterate itself (it is already the log of the allocation, exactly);
    otherwise alpha * ln(u).
    """
    if alpha == 0.0:
        return lambda x_hat, u: 0.0
    if alpha == 1.0:
        return lambda x_hat, u: x_hat
    return lambda x_hat, u: alpha * np.log(u)


class GradientKernel:
    """Precomputed arrays for repeated gradient evaluation on one instance.

    One kernel serves one (matrix, alpha, beta, logC) combination; solvers
    build it once and call :meth:`evaluate` every iteration. Everything
    that depends on the run alone is bound here, so an evaluation decides
    nothing: the allocation map, the allocation term, and the column
    routine's form: the product form at alpha = 0 (covering included;
    there without a column factor) and whenever ``product_form_bound``
    stays within EXP_SAT, else the log-domain fallback.
    """

    def __init__(self, matrix: SparseNonnegMatrix, alpha: float, beta: float, logC: float):
        self.matrix = matrix
        self.alpha = alpha
        self.beta = beta
        self.logC = logC
        self.inv_beta = 1.0 / beta
        self.barrier_ratio = (1.0 + beta) / beta
        self.allocation = allocation_map(alpha)
        self.allocation_term = allocation_term(alpha)
        # the column routine's form, and its column factor (none at alpha = 0,
        # where the allocation term is 0.0)
        self.product = alpha == 0.0 or product_form_bound(matrix, alpha, logC) <= EXP_SAT
        self.column_factor = alpha != 0.0
        # per-entry terms of the column routine (ln A_ij + logC in the fallback)
        # and, for the fallback's allocation term alone, each entry's column
        self.entry_terms = matrix.col_val if self.product else np.log(matrix.col_val) + logC
        self.entry_col = None if self.product else segment_index(matrix.col_ptr)
        self._col_starts = matrix.col_ptr[:-1]
        self._row_starts = matrix.row_ptr[:-1]

    def loads_of(self, u: np.ndarray) -> np.ndarray:
        """Constraint loads ``Au``: the body of ``matrix.constraint_loads``, unchecked."""
        return segment_sums(self._row_starts, self.matrix.row_col, self.matrix.row_val, u)

    def weights(self, loads: np.ndarray) -> np.ndarray:
        """The barrier weights ``C * load**(1/beta)`` per row; rows with zero load give 0."""
        return np.exp(self.logC + self.inv_beta * np.log(loads))

    def row_factors(self, loads: np.ndarray) -> np.ndarray:
        """Each row's factor in its columns' sums, from its load, once per row.

        Product form: ``load**(1/beta)``, or without a column factor the
        barrier weights, which ``evaluate`` also returns. Log-domain
        fallback: the exponent ``ln(load)/beta``.
        """
        if not self.product:
            return self.inv_beta * np.log(loads)
        if self.column_factor:
            return np.exp(self.inv_beta * np.log(loads))
        return self.weights(loads)

    def truncated_columns(self, entry_row: np.ndarray, x_hat: np.ndarray, u: np.ndarray,
                          factors: np.ndarray):
        """Scaled gradient ``s`` of every column, its saturation mask and its
        truncation, at ``x_hat`` with allocation ``u``.

        ``entry_row`` indexes each column-major entry's row factor
        (``row_factors``) in ``factors``: ``matrix.col_row`` when ``factors``
        holds one per row, a message slot when it holds a message buffer.

        Product form: ``s = exp(logC + t) * (A^T load**(1/beta)) - 1``, with
        ``t`` the ``allocation_term``. ``C`` sits in the column factor, so on
        a feasible iterate the row factors lie in [0, 1] and
        ``product_form_bound`` bounds the column factor's exponent. Without
        a column factor the row factors are the barrier weights themselves;
        one that overflows makes ``s`` +inf, which truncates to 1. A
        saturated column is one whose ``s`` is +inf, and ``saturated`` is None.

        Log-domain fallback: each entry's exponent ``(ln A_ij + logC + t) + q``
        is exponentiated; exponents above EXP_SAT are never materialized:
        their column is saturated (``s`` is meaningless there) and truncates
        to exactly 1.0. ``saturated`` marks those columns, or is None when
        nothing saturates.

        Both engines run every column through this one method, so each
        column's arithmetic agrees bitwise.
        """
        t = self.allocation_term(x_hat, u)
        saturated = None
        if self.product:
            s = segment_sums(self._col_starts, entry_row, self.entry_terms, factors)
            if self.column_factor:
                s *= np.exp(self.logC + t)
            s -= 1.0
        else:
            t_entry = t.take(self.entry_col) if self.column_factor else t
            e = (self.entry_terms + t_entry) + factors.take(entry_row)
            if float(np.maximum.reduce(e)) > EXP_SAT:
                saturated = np.maximum.reduceat(e, self._col_starts) > EXP_SAT
                e = np.where(e > EXP_SAT, -np.inf, e)
            s = np.add.reduceat(np.exp(e), self._col_starts) - 1.0
        smin = float(np.minimum.reduce(s))
        if not smin >= -1.0:  # also catches NaN
            raise TruncationDomainViolation(
                f"scaled gradient fell below -1 (min {smin}); solver state is corrupted"
            )
        truncated = np.minimum(s, 1.0)
        if saturated is not None:
            truncated[saturated] = 1.0
        return s, saturated, truncated

    def columns(self, x_hat: np.ndarray, u: np.ndarray, factors: np.ndarray):
        """``truncated_columns`` over every column, from one factor per row."""
        return self.truncated_columns(self.matrix.col_row, x_hat, u, factors)

    def evaluate(self, x_hat: np.ndarray, u: np.ndarray, loads: np.ndarray) -> GradientPair:
        """Truncated gradient at ``x_hat``, whose allocation ``u`` has the
        constraint loads ``loads``, with the barrier weights when formed."""
        factors = self.row_factors(loads)
        truncated = self.columns(x_hat, u, factors)[2]
        return GradientPair(truncated, None if self.column_factor else factors)

    def value(self, x_hat: np.ndarray) -> float:
        """The iterate's value ``sum(x_hat)/(1 - alpha)``, or ``sum(x_hat)`` at
        alpha = 1: the utility of its allocation, up to rounding."""
        total = float(np.add.reduce(x_hat))
        return total if self.alpha == 1.0 else total / (1.0 - self.alpha)

    def f_r(self, x_hat: np.ndarray, loads: np.ndarray) -> float:
        """Regularized objective value at ``x_hat``, whose allocation has the
        constraint loads ``loads``; may return POSITIVE_OVERFLOW."""
        be = self.logC + self.barrier_ratio * np.log(loads)
        if float(be.max()) > EXP_SAT:
            return POSITIVE_OVERFLOW
        barrier = (self.beta / (1.0 + self.beta)) * float(np.add.reduce(np.exp(be)))
        return barrier - self.value(x_hat)


def _check_domain(x_hat, alpha: float) -> np.ndarray:
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if alpha != 1.0 and (x_hat <= 0.0).any():
        raise DomainError(f"iterate must be strictly positive for alpha={alpha}")
    if np.isnan(x_hat).any():
        raise DomainError("iterate contains NaN")
    return x_hat


def f_r_value(instance, params, x_hat, alpha: float) -> float:
    """Regularized objective at ``x_hat`` (transformed space).

    Zero loads contribute exactly zero to the barrier. When any barrier
    exponent exceeds EXP_SAT the returned value is POSITIVE_OVERFLOW
    (+inf), a tagged marker rather than a finite lie.
    """
    x_hat = _check_domain(x_hat, alpha)
    kernel = GradientKernel(instance.matrix, alpha, params.beta, params.logC)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return kernel.f_r(x_hat, kernel.loads_of(kernel.allocation(x_hat)))


def grad_f_r(instance, params, x_hat, alpha: float) -> GradientPair:
    """Gradient of f_r with its truncated companion, through the run's kernel.

    The raw gradient is ``s`` unscaled: ``s`` itself at alpha = 1, else
    ``s / (1 - alpha)``; saturated coordinates get the sentinel of the sign
    the unscaled gradient would have (in product form, where ``s`` is +inf
    there, the division gives it).
    """
    x_hat = _check_domain(x_hat, alpha)
    kernel = GradientKernel(instance.matrix, alpha, params.beta, params.logC)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        u = kernel.allocation(x_hat)
        factors = kernel.row_factors(kernel.loads_of(u))
        s, saturated, truncated = kernel.columns(x_hat, u, factors)
        if alpha == 1.0:
            grad, sentinel = s, np.inf
        else:
            grad, sentinel = s / (1.0 - alpha), (np.inf if alpha < 1.0 else -np.inf)
    if saturated is not None:
        grad[saturated] = sentinel
    return GradientPair(truncated, grad=grad)

