"""Problem representation: standard scaled form, objectives, run parameters.

Packing instances maximize the fairness utility subject to ``Ax <= 1``,
``x >= 0``; covering instances minimize a power cost subject to
``A^T y >= 1``, ``y >= 0``. Both are kept in standard scaled form: the
matrix is divided by its minimum nonzero entry, so the minimum entry is
exactly 1 and the maximum entry equals the width ``rho``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    DomainError,
    EpsilonOutOfRange,
    InvalidAlpha,
    InvalidBeta,
    NegativeCoordinate,
    NonPositiveCoordinate,
    WidthOverflow,
)
from .matrix import Entries, SparseNonnegMatrix, as_entries, build_matrix, dense_entries

PACK = "pack"
COVER = "cover"


@dataclass(frozen=True)
class ScalingRecord:
    """Maps solutions of the standardized instance back to the original one.

    ``c`` is the original minimum nonzero entry. Dividing a standardized
    solution by ``c`` recovers an original-space solution with identical
    constraint loads. ``alpha_used`` is the fairness as given (alpha for
    packing, beta for covering), so objective values can be rescaled: a
    packing utility picks up a factor ``c**(alpha-1)`` (at alpha = 1 an
    additive shift ``n*ln(1/c)``), a covering cost a factor ``c**(-(1+beta))``.
    """

    c: float
    alpha_used: float

    def original_solution(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=np.float64) / self.c


def _check_standardized(matrix: SparseNonnegMatrix, rho: float) -> None:
    if matrix.min_entry != 1.0:
        raise ValueError(
            f"instance is not in standard form: minimum entry {matrix.min_entry} != 1"
        )
    if rho != matrix.max_entry or rho < 1.0:
        raise ValueError(f"width {rho} does not equal the maximum entry {matrix.max_entry}")


@dataclass(frozen=True)
class _StandardInstance:
    """A matrix in standard scaled form and its width."""

    matrix: SparseNonnegMatrix
    rho: float

    def __post_init__(self):
        _check_standardized(self.matrix, self.rho)

    @property
    def m(self) -> int:
        return self.matrix.m

    @property
    def n(self) -> int:
        return self.matrix.n


class PackingInstance(_StandardInstance):
    """Standardized packing data; the constraints are the rows of A."""


class CoveringInstance(_StandardInstance):
    """Standardized covering data; the constraints are the columns of A."""


def standardize(entries, m: int, n: int, mode: str = PACK, fairness: float = 0.0):
    """Build raw entries (an ``Entries`` or any triples) into a matrix, then scale it.

    Exact zeros are dropped; ``build_matrix`` rejects every other offending
    entry, and an empty row or column. A width (largest over smallest
    entry) that overflows float64 is rejected; otherwise both value views
    are divided by the smallest entry. Returns the instance (packing or
    covering, per ``mode``) and the ScalingRecord carrying the scale factor.
    """
    if mode not in (PACK, COVER):
        raise ValueError(f"mode must be {PACK!r} or {COVER!r}, got {mode!r}")
    entries = as_entries(entries)
    kept = entries.vals != 0.0   # NaN is kept, for the build to name
    if not kept.any():
        raise AllZero("all entries are zero" if len(entries) else "no entries given")
    if not kept.all():
        entries = Entries(entries.rows[kept], entries.cols[kept], entries.vals[kept])
    matrix = build_matrix(entries, m, n)
    c, top = matrix.min_entry, matrix.max_entry
    if math.isinf(top / c):
        raise WidthOverflow(
            f"width {top!r}/{c!r} (largest over smallest nonzero entry) "
            f"overflows float64; rescaling the instance would produce inf"
        )
    matrix = dataclasses.replace(matrix, row_val=matrix.row_val / c, col_val=matrix.col_val / c)
    kind = PackingInstance if mode == PACK else CoveringInstance
    return kind(matrix=matrix, rho=matrix.max_entry), ScalingRecord(c=c, alpha_used=float(fairness))


def instance_from_dense(dense, mode: str = PACK, fairness: float = 0.0):
    entries, m, n = dense_entries(dense)
    return standardize(entries, m, n, mode=mode, fairness=fairness)


def epsilon_upper_bound(alpha: float) -> float:
    """Admissible epsilon ceiling for packing: min(1/2, 1/(10|alpha-1|))."""
    if alpha == 1.0:
        return 0.5
    return min(0.5, 1.0 / (10.0 * abs(alpha - 1.0)))


def check_run(mode: str, fairness: float, epsilon: float) -> None:
    """Reject a fairness or epsilon the run's guarantee does not admit.

    The fairness (alpha for packing, beta for covering) must be finite and,
    for packing, >= 0; epsilon must lie in (0, epsilon_upper_bound(alpha)]
    for packing and in (0, 1/2] for covering. An alpha whose ceiling is 0
    (``10|alpha - 1|`` overflows) is rejected as too large.
    """
    if not math.isfinite(fairness):
        name, error = ("alpha", InvalidAlpha) if mode == PACK else ("beta", InvalidBeta)
        raise error(f"{name} must be finite, got {fairness}")
    if mode == PACK:
        if fairness < 0.0:
            raise InvalidAlpha(f"alpha must be >= 0, got {fairness}")
        hi = epsilon_upper_bound(fairness)
        if not hi > 0.0:
            raise InvalidAlpha(f"alpha={fairness:g} is too large: its epsilon ceiling "
                               "1/(10|alpha-1|) is 0, so no epsilon is admissible")
        if not (0.0 < epsilon <= hi):
            raise EpsilonOutOfRange(
                f"epsilon must lie in (0, {hi:g}] "
                f"(= min(1/2, 1/(10|alpha-1|)) for alpha={fairness:g}), got {epsilon}"
            )
    elif not (0.0 < epsilon <= 0.5):
        raise EpsilonOutOfRange(f"epsilon must lie in (0, 0.5] for covering, got {epsilon}")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: fairness (alpha or beta), epsilon, and overrides.

    ``keep_trace`` says whether the caller keeps the solution's trace.
    Without it no trace row is built: every traced iteration is still
    counted, so ``trace_dropped`` is what a kept trace would have dropped,
    and still certified where a kept row would be, so ``trace_stride``
    still places certificate checks.
    """

    fairness: float
    epsilon: float
    mode: str = PACK
    max_iters: int | None = None
    early_stop: bool = False
    trace_stride: int | None = None
    keep_trace: bool = True

    def __post_init__(self):
        if self.mode not in (PACK, COVER):
            raise ValueError(f"mode must be {PACK!r} or {COVER!r}, got {self.mode!r}")
        check_run(self.mode, self.fairness, self.epsilon)
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters override must be >= 1")
        if self.trace_stride is not None and self.trace_stride < 1:
            raise ValueError("trace_stride must be >= 1")

    @property
    def alpha(self) -> float:
        return self.fairness

    @property
    def beta(self) -> float:
        return self.fairness


def f_alpha_value(x, alpha: float) -> float:
    """Fairness utility: sum of x**(1-alpha)/(1-alpha), or sum of ln(x)."""
    if alpha < 0.0:
        raise InvalidAlpha(f"alpha must be >= 0, got {alpha}")
    x = np.asarray(x, dtype=np.float64)
    if (x < 0.0).any():
        raise NegativeCoordinate("utility undefined for negative coordinates")
    if alpha >= 1.0 and (x == 0.0).any():
        raise NonPositiveCoordinate(
            f"utility is -inf at zero coordinates for alpha={alpha}"
        )
    if alpha == 1.0:
        return float(np.add.reduce(np.log(x)))
    return float(np.add.reduce(np.power(x, 1.0 - alpha))) / (1.0 - alpha)


def g_beta_value(y, beta: float) -> float:
    """Covering cost: sum of y**(1+beta)/(1+beta) over y >= 0."""
    y = np.asarray(y, dtype=np.float64)
    if (y < 0.0).any():
        raise NegativeCoordinate("cost undefined for negative coordinates")
    return float(np.add.reduce(np.power(y, 1.0 + beta))) / (1.0 + beta)


def transform_inverse(x, alpha: float):
    """The linearized iterate of allocation ``x``, the inverse of
    ``regularization.allocation_map``: x**(1-alpha) for alpha != 1, ln(x)
    for alpha = 1."""
    x = np.asarray(x, dtype=np.float64)
    if (x <= 0.0).any():
        raise DomainError("transform_inverse requires strictly positive input")
    if alpha == 1.0:
        return np.log(x)
    return np.power(x, 1.0 - alpha)


def optimum_bounds(instance, alpha: float) -> tuple[float, float]:
    """Bracket the optimal utility of a standardized packing instance.

    The infinity norm of a standardized matrix is its width rho.
    """
    n = instance.n
    rho = instance.rho
    if alpha == 1.0:
        return -n * math.log(n * rho), 0.0
    lower = (n / (1.0 - alpha)) * (n * rho) ** (alpha - 1.0)
    upper = n / (1.0 - alpha)
    return lower, upper


def covering_optimum_bounds(instance, beta: float) -> tuple[float, float]:
    """Bracket the optimal covering cost (width-based sandwich)."""
    mm = instance.m
    rho = instance.rho
    lower = (1.0 / (mm * rho)) ** (1.0 + beta) * mm / (1.0 + beta)
    upper = mm / (1.0 + beta)
    return lower, upper
