import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpc import (
    PackingRegParams,
    derive_covering_params,
    derive_packing_params,
    f_r_value,
    grad_f_r,
    is_positive_overflow,
)
from fairpc.errors import (
    DerivedConstantOverflow, DomainError, EpsilonOutOfRange, TruncationDomainViolation,
)
from fairpc.matrix import from_dense
from fairpc.regularization import GradientKernel, SubThresholdBetaWarning

from conftest import identity_instance


# ---- derived constants (values hand-evaluated from the branch formulas) ----

def test_packing_params_alpha1():
    p = derive_packing_params(10, 10, 1.0, 1.0, 0.1)
    assert p.beta == pytest.approx(1.5071045559652853e-3, rel=1e-12)
    assert p.logC == pytest.approx(32.373443485599736, rel=1e-12)
    assert p.beta_prime is None and p.h is None


def test_packing_params_alpha0():
    p = derive_packing_params(1, 1, 1.0, 0.0, 0.1)
    assert p.beta == pytest.approx(6.77712576704542e-3, rel=1e-12)
    assert p.beta_prime == pytest.approx(0.23728053952574749, rel=1e-12)
    assert p.logC == pytest.approx(math.log(1.05) / p.beta, rel=1e-12)


def test_packing_params_epsilon_rejected():
    with pytest.raises(EpsilonOutOfRange):
        derive_packing_params(1, 1, 1.0, 2.0, 0.2)  # 0.2 > 1/(10*(2-1))


def test_covering_params_examples():
    p = derive_covering_params(1, 1, 1.0, 1.0, 0.1)
    assert p.beta_prime == pytest.approx(5.428681023790648e-3, rel=1e-12)
    assert p.h == pytest.approx(3.392925639869155e-3, rel=1e-12)
    assert p.K == 5896
    assert not p.was_reset

    p0 = derive_covering_params(1, 1, 1.0, 0.0, 0.1)
    assert p0.was_reset
    assert p0.beta == pytest.approx(1.0857362047581295e-2, rel=1e-12)

    pneg = derive_covering_params(1, 1, 1.0, -3.0, 0.1)
    assert pneg.beta == p0.beta  # the reset applies to every beta <= 0


def test_covering_params_floor_warning():
    with pytest.warns(SubThresholdBetaWarning):
        p = derive_covering_params(1, 1, 1.0, 1e-4, 0.1)
    assert p.below_guarantee_floor
    assert p.beta == 1e-4  # warned, not clamped


def test_derive_is_pure():
    a = derive_packing_params(7, 5, 3.0, 0.5, 0.1)
    b = derive_packing_params(7, 5, 3.0, 0.5, 0.1)
    assert (a.beta, a.logC, a.beta_prime, a.h, a.K) == (b.beta, b.logC, b.beta_prime, b.h, b.K)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_packing_params_overflow_is_named(alpha):
    # 4*m*n*rho/eps overflows: beta would be 0 and logC a division by zero
    with pytest.raises(DerivedConstantOverflow, match="derived constant beta = 0.0"):
        derive_packing_params(1, 2, 1e308, alpha, 0.1)
    # the alpha = 1 budget overflows on its own (8*rho*m*n/eps) a factor 2 later
    if alpha == 1.0:
        with pytest.raises(DerivedConstantOverflow, match="derived constant K = inf"):
            derive_packing_params(1, 1, 3e306, alpha, 0.1)
    assert derive_packing_params(1, 2, 1e300, alpha, 0.1).K > 0


@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_covering_params_overflow_is_named(beta):
    with pytest.raises(DerivedConstantOverflow, match="derived constant beta floor = 0.0"):
        derive_covering_params(1, 2, 1e308, beta, 0.1)
    # a finite floor with a positive beta so small that the budget overflows;
    # at epsilon = 0.0625 the product h * epsilon underflows to 0 instead
    for epsilon in (0.1, 0.0625):
        with pytest.raises(DerivedConstantOverflow, match="derived constant K = inf"):
            with pytest.warns(SubThresholdBetaWarning):
                derive_covering_params(1, 1, 1.0, 1e-320, epsilon)
    assert derive_covering_params(1, 2, 1e300, beta, 0.1).K > 0


# ---- f_r ----

def test_f_r_small_load_is_linear_term():
    inst = identity_instance(1)
    p = derive_packing_params(1, 1, 1.0, 0.0, 0.1)
    v = f_r_value(inst, p, np.array([0.5]), 0.0)
    # barrier exponent is about -95.8, so the barrier is far below 1e-40
    assert v == pytest.approx(-0.5, abs=1e-40)


def test_f_r_vanishes_at_zero_allocation_limit():
    inst = identity_instance(2)
    p = derive_packing_params(2, 2, 1.0, 0.5, 0.1)
    v = f_r_value(inst, p, np.array([1e-200, 1e-200]), 0.5)
    assert abs(v) < 1e-100


def test_f_r_barrier_dominates_above_one():
    inst = identity_instance(1)
    p = derive_packing_params(1, 1, 1.0, 0.0, 0.1)
    v = f_r_value(inst, p, np.array([2.0]), 0.0)
    # exponent around +110: huge positive (or the overflow marker on narrower floats)
    assert v > 1e40 or is_positive_overflow(v)


def test_f_r_overflow_marker():
    inst = identity_instance(1)
    # injected constants force the barrier exponent past the saturation threshold
    p = PackingRegParams(alpha=0.0, epsilon=0.1, beta=1e-3, logC=0.0, K=1)
    v = f_r_value(inst, p, np.array([3.0]), 0.0)
    assert is_positive_overflow(v)


# ---- gradients ----

def test_grad_examples_1x1():
    inst = identity_instance(1)
    p = derive_packing_params(1, 1, 1.0, 0.0, 0.1)
    pair = grad_f_r(inst, p, np.array([0.5]), 0.0)
    assert pair.grad[0] == pytest.approx(-1.0, abs=1e-30)
    assert pair.truncated[0] == pytest.approx(-1.0, abs=1e-30)

    pair = grad_f_r(inst, p, np.array([1.0]), 0.0)
    # scaled gradient is -1 + C with C about 1338, far above the clip point
    assert pair.truncated[0] == 1.0
    assert pair.grad[0] > 2.0


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
def test_grad_saturation_sentinel(alpha):
    # logC = 800 > EXP_SAT: above 0 the kernel takes the log-domain fallback,
    # which saturates the column and writes the sentinel; at 0 it keeps the
    # product form, whose overflowing barrier weight gives s = +inf
    inst = identity_instance(1)
    p = PackingRegParams(alpha=alpha, epsilon=0.1, beta=0.5, logC=800.0, K=1)
    assert GradientKernel(inst.matrix, alpha, p.beta, p.logC).product == (alpha == 0.0)
    pair = grad_f_r(inst, p, np.array([1.0]), alpha)
    assert pair.truncated[0] == 1.0
    assert pair.grad[0] == (math.inf if alpha < 1.0 else -math.inf)


@pytest.mark.parametrize("fn", [f_r_value, grad_f_r])
@pytest.mark.parametrize("alpha, x_hat, reason", [
    (0.5, [1.0, 0.0], "iterate must be strictly positive for alpha=0.5"),
    (2.0, [-1.0, 1.0], "iterate must be strictly positive for alpha=2.0"),
    (0.5, [1.0, math.nan], "iterate contains NaN"),
    (1.0, [-1.0, math.nan], "iterate contains NaN"),   # any sign is in alpha = 1's domain
])
def test_domain_errors_name_the_bad_iterate(fn, alpha, x_hat, reason):
    inst = identity_instance(2)
    p = PackingRegParams(alpha=alpha, epsilon=0.1, beta=0.5, logC=0.0, K=1)
    with pytest.raises(DomainError, match=f"^{reason}$"):
        fn(inst, p, np.array(x_hat), alpha)


def test_truncated_always_in_range():
    rng = np.random.default_rng(5)
    inst = identity_instance(4)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        p = PackingRegParams(alpha=alpha, epsilon=0.1, beta=0.5, logC=0.0, K=1)
        for _ in range(25):
            x = rng.uniform(0.05, 3.0, 4) if alpha != 1.0 else rng.uniform(-2.0, 1.0, 4)
            pair = grad_f_r(inst, p, x, alpha)
            assert (pair.truncated >= -1.0).all() and (pair.truncated <= 1.0).all()


def test_truncated_equals_scaled_gradient_in_range():
    rng = np.random.default_rng(17)
    inst = identity_instance(3)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        p = PackingRegParams(alpha=alpha, epsilon=0.1, beta=0.5, logC=0.0, K=1)
        for _ in range(10):
            x = rng.uniform(0.2, 1.2, 3) if alpha != 1.0 else rng.uniform(-1.5, 0.0, 3)
            pair = grad_f_r(inst, p, x, alpha)
            scaled = pair.grad if alpha == 1.0 else (1.0 - alpha) * pair.grad
            in_range = np.abs(scaled) <= 1.0
            np.testing.assert_allclose(
                pair.truncated[in_range], scaled[in_range], rtol=1e-15
            )


def truncate(s):
    """The truncation of scaled gradients ``s``, as the kernel's
    ``truncated_columns`` forms it: an alpha = 0 kernel over the identity,
    so one single-entry column each with ``A_ij = 1``, and row factors
    ``s + 1``, so the column's scaled gradient is ``(s + 1) - 1``."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    mat = from_dense(np.eye(s.size))
    kernel = GradientKernel(mat, 0.0, 1.0, 0.0)
    return kernel.truncated_columns(mat.col_row, None, None, s + 1.0)[2]  # reads no iterate


def test_truncate_scalar():
    assert truncate(0.5)[0] == 0.5
    assert truncate(7.0)[0] == 1.0
    assert truncate(-0.3)[0] == pytest.approx(-0.3, rel=1e-15)
    assert truncate(math.inf)[0] == 1.0
    np.testing.assert_array_equal(truncate([0.5, 7.0, -1.0]), [0.5, 1.0, -1.0])
    for bad in (-2.0, math.nan):
        with pytest.raises(TruncationDomainViolation):
            truncate(bad)


# ---- correctness against naive evaluation and finite differences ----

def naive_f_r(dense, x_hat, alpha, beta, logC):
    C = math.exp(logC)
    if alpha == 1.0:
        u = np.exp(x_hat)
        lin = -float(np.sum(x_hat))
    else:
        u = x_hat ** (1.0 / (1.0 - alpha))
        lin = -float(np.sum(x_hat)) / (1.0 - alpha)
    loads = dense @ u
    return lin + C * beta / (1.0 + beta) * float(np.sum(loads ** ((1.0 + beta) / beta)))


def naive_grad(dense, x_hat, alpha, beta, logC):
    C = math.exp(logC)
    if alpha == 1.0:
        u = np.exp(x_hat)
        loads = dense @ u
        return -1.0 + u * (dense.T @ (C * loads ** (1.0 / beta)))
    u = x_hat ** (1.0 / (1.0 - alpha))
    loads = dense @ u
    inner = dense.T @ (C * loads ** (1.0 / beta))
    return (1.0 / (1.0 - alpha)) * (-1.0 + x_hat ** (alpha / (1.0 - alpha)) * inner)


def _random_small_instance(rng):
    dense = rng.uniform(1.0, 3.0, (3, 3))
    dense[rng.random((3, 3)) < 0.3] = 0.0
    dense[np.arange(3), np.arange(3)] = rng.uniform(1.0, 3.0, 3)  # keep rows/cols covered
    from fairpc import instance_from_dense

    inst, _ = instance_from_dense(dense)
    return inst, inst.matrix.to_dense()


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_log_domain_matches_naive(alpha):
    rng = np.random.default_rng(42)
    p = PackingRegParams(alpha=alpha, epsilon=0.1, beta=0.5, logC=0.0, K=1)
    for _ in range(10):
        inst, dense = _random_small_instance(rng)
        x = rng.uniform(0.4, 1.6, 3) if alpha != 1.0 else rng.uniform(-1.0, 0.2, 3)
        assert f_r_value(inst, p, x, alpha) == pytest.approx(
            naive_f_r(dense, x, alpha, 0.5, 0.0), rel=1e-10
        )
        pair = grad_f_r(inst, p, x, alpha)
        np.testing.assert_allclose(pair.grad, naive_grad(dense, x, alpha, 0.5, 0.0), rtol=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_gradient_matches_central_differences(alpha):
    rng = np.random.default_rng(1234)
    p = PackingRegParams(alpha=alpha, epsilon=0.1, beta=0.5, logC=0.0, K=1)
    checked = 0
    while checked < 20:
        inst, _ = _random_small_instance(rng)
        x = rng.uniform(0.5, 1.5, 3) if alpha != 1.0 else rng.uniform(-1.0, 0.2, 3)
        pair = grad_f_r(inst, p, x, alpha)
        fd = np.empty(3)
        for j in range(3):
            h = 1e-6 * max(1.0, abs(x[j]))
            e = np.zeros(3)
            e[j] = h
            fd[j] = (f_r_value(inst, p, x + e, alpha) - f_r_value(inst, p, x - e, alpha)) / (2 * h)
        np.testing.assert_allclose(pair.grad, fd, rtol=1e-5, atol=1e-8)
        checked += 1


def test_barrier_monotone_in_loads():
    # raising any single load strictly raises f_r
    inst = identity_instance(3)
    p = derive_packing_params(3, 3, 1.0, 0.5, 0.1)
    x = np.array([0.5, 0.5, 0.5])
    base = f_r_value(inst, p, x, 0.5)
    for j in range(3):
        bumped = x.copy()
        bumped[j] += 0.05  # identity: load_j rises, linear term also changes
        v = f_r_value(inst, p, bumped, 0.5)
        # isolate the barrier by comparing against the linear-term change
        lin_delta = -(bumped.sum() - x.sum()) / 0.5
        assert v - base > lin_delta - 1e-12


@settings(max_examples=40)
@given(st.floats(min_value=-1.0, max_value=50.0), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]))
def test_truncate_range_property(g, alpha):
    s = g if alpha == 1.0 else (1.0 - alpha) * g
    if s < -1.0:
        with pytest.raises(TruncationDomainViolation):
            truncate(s)
    else:
        out = truncate(s)[0]
        assert -1.0 <= out <= 1.0
        if -1.0 <= s <= 1.0:
            assert out == (s + 1.0) - 1.0
