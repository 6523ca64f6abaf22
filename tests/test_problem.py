import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpc import (
    COVER,
    PACK,
    SolverConfig,
    covering_optimum_bounds,
    f_alpha_value,
    g_beta_value,
    optimum_bounds,
    standardize,
    transform_inverse,
)
from fairpc.errors import (
    AllZero,
    EmptyRowOrColumn,
    EpsilonOutOfRange,
    FairpcError,
    InvalidAlpha,
    InvalidBeta,
    NegativeCoordinate,
    NegativeEntry,
    NonPositiveCoordinate,
    WidthOverflow,
)
from fairpc.matrix import constraint_loads
from fairpc.regularization import allocation_map, derive_covering_params, derive_packing_params

from conftest import identity_instance

ALPHAS = [0.0, 0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0]

positive_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False), min_size=1, max_size=8
).map(np.array)


# ---- standardize ----

def test_standardize_examples():
    inst, rec = standardize([(0, 0, 2.0), (1, 1, 4.0)], 2, 2)
    assert rec.c == 2.0
    assert inst.rho == 2.0
    assert inst.matrix.to_dense().tolist() == [[1.0, 0.0], [0.0, 2.0]]

    inst, rec = standardize([(i, i, 1.0) for i in range(3)], 3, 3)
    assert rec.c == 1.0 and inst.rho == 1.0

    inst, rec = standardize([(0, 0, 0.5), (0, 1, 5.0)], 1, 2)
    assert rec.c == 0.5 and inst.rho == 10.0
    assert inst.matrix.to_dense().tolist() == [[1.0, 10.0]]


def test_standardize_rejects():
    with pytest.raises(NegativeEntry):
        standardize([(0, 0, -1.0)], 1, 1)
    with pytest.raises(AllZero):
        standardize([(0, 0, 0.0)], 1, 1)
    with pytest.raises(AllZero):
        standardize([], 1, 1)
    with pytest.raises(EmptyRowOrColumn):
        standardize([(0, 0, 1.0), (0, 1, 0.0)], 1, 2)  # col 1 empty after dropping zero
    with pytest.raises(NegativeEntry, match="non-finite"):
        standardize([(0, 0, 1.0), (0, 1, math.nan)], 1, 2)  # NaN is not a zero to drop
    with pytest.raises(NegativeEntry, match="non-finite"):
        standardize([(0, 0, math.inf)], 1, 1)


def test_standardize_names_width_overflow():
    # 1e300 / 1e-300 is inf: the width, not any single entry, is at fault
    with pytest.raises(WidthOverflow, match="width 1e\\+300/1e-300") as info:
        standardize([(0, 0, 1e-300), (0, 1, 1e300)], 1, 2)
    assert isinstance(info.value, FairpcError)
    inst, rec = standardize([(0, 0, 1e-150), (0, 1, 1e150)], 1, 2)  # wide but finite
    assert rec.c == 1e-150 and inst.rho == 1e150 / 1e-150


def test_standardize_idempotent():
    entries = [(0, 0, 3.0), (0, 1, 12.0), (1, 1, 7.5)]
    inst, rec = standardize(entries, 2, 2)
    again, rec2 = standardize(list(inst.matrix.entries()), 2, 2)
    assert rec2.c == 1.0
    assert again.matrix.to_dense().tolist() == inst.matrix.to_dense().tolist()
    assert inst.matrix.min_entry == 1.0


def test_scaling_record_preserves_loads():
    entries = [(0, 0, 3.0), (0, 1, 12.0), (1, 1, 7.5)]
    inst, rec = standardize(entries, 2, 2)
    raw = np.array([[3.0, 12.0], [0.0, 7.5]])
    x_std = np.array([0.05, 0.01])
    x_orig = rec.original_solution(x_std)
    np.testing.assert_allclose(
        raw @ x_orig, constraint_loads(inst.matrix, x_std), rtol=1e-13
    )


def test_standardize_covering_mode():
    inst, rec = standardize([(0, 0, 2.0), (1, 0, 4.0)], 2, 1, mode=COVER, fairness=1.0)
    assert inst.rho == 2.0
    assert rec.alpha_used == 1.0


# ---- objective values ----

def test_f_alpha_examples():
    assert f_alpha_value([0.5, 0.5], 2.0) == pytest.approx(-4.0, rel=1e-14)
    assert f_alpha_value([1.0, 1.0], 1.0) == 0.0
    assert f_alpha_value([1.0, 4.0], 0.5) == pytest.approx(6.0, rel=1e-14)
    # zero is allowed below alpha = 1 and contributes nothing
    assert f_alpha_value([0.0, 4.0], 0.5) == pytest.approx(4.0, rel=1e-14)


def test_f_alpha_domain_errors():
    with pytest.raises(NonPositiveCoordinate):
        f_alpha_value([0.0, 1.0], 1.0)
    with pytest.raises(NonPositiveCoordinate):
        f_alpha_value([0.0], 2.0)
    with pytest.raises(NegativeCoordinate):
        f_alpha_value([-0.1], 0.5)
    with pytest.raises(InvalidAlpha):
        f_alpha_value([1.0], -0.5)


def test_g_beta_examples():
    assert g_beta_value([1.0, 1.0], 1.0) == pytest.approx(1.0, rel=1e-14)
    assert g_beta_value([2.0, 3.0], 0.0) == pytest.approx(5.0, rel=1e-14)
    assert g_beta_value([1.0, 2.0], 2.0) == pytest.approx(3.0, rel=1e-14)
    with pytest.raises(NegativeCoordinate):
        g_beta_value([-1.0], 1.0)


@settings(max_examples=60)
@given(positive_vectors, st.sampled_from(ALPHAS), st.floats(min_value=0.01, max_value=100.0))
def test_scale_law(x, alpha, c):
    lhs = f_alpha_value(c * x, alpha)
    if alpha == 1.0:
        rhs = f_alpha_value(x, alpha) + x.size * math.log(c)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))
    else:
        rhs = c ** (1.0 - alpha) * f_alpha_value(x, alpha)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---- transforms ----

def test_transform_examples():
    assert allocation_map(0.5)(np.array([4.0]))[0] == pytest.approx(16.0, rel=1e-14)
    assert allocation_map(1.0)(np.array([0.0]))[0] == 1.0
    assert allocation_map(2.0)(np.array([4.0]))[0] == pytest.approx(0.25, rel=1e-14)


@settings(max_examples=60)
@given(positive_vectors, st.sampled_from(ALPHAS))
def test_transform_round_trip(x, alpha):
    np.testing.assert_allclose(allocation_map(alpha)(transform_inverse(x, alpha)), x, rtol=1e-12)


def test_transform_domain():
    from fairpc.errors import DomainError

    with pytest.raises(DomainError):
        transform_inverse(np.array([0.0]), 1.0)
    # the alpha = 1 map accepts any real
    assert allocation_map(1.0)(np.array([-2.0]))[0] == pytest.approx(math.exp(-2.0))


# ---- loads linearity ----

@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_loads_linear(n, seed):
    rng = np.random.default_rng(seed)
    inst = identity_instance(n)
    x, y = rng.random(n), rng.random(n)
    lhs = constraint_loads(inst.matrix, x + y)
    rhs = constraint_loads(inst.matrix, x) + constraint_loads(inst.matrix, y)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


# ---- optimum bounds ----

def test_optimum_bounds_examples():
    ident = identity_instance(2)
    lo, hi = optimum_bounds(ident, 0.0)
    assert lo == pytest.approx(1.0, rel=1e-14) and hi == pytest.approx(2.0, rel=1e-14)
    lo, hi = optimum_bounds(ident, 1.0)
    assert lo == pytest.approx(-2.0 * math.log(2.0), rel=1e-14) and hi == 0.0
    lo, hi = optimum_bounds(ident, 2.0)
    assert lo == pytest.approx(-4.0, rel=1e-14) and hi == pytest.approx(-2.0, rel=1e-14)


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=1.0, max_value=100.0),
    st.sampled_from(ALPHAS),
)
def test_optimum_bounds_ordered(n, rho, alpha):
    class Shape:
        pass

    inst = Shape()
    inst.n, inst.rho = n, rho
    lo, hi = optimum_bounds(inst, alpha)
    assert lo <= hi


def test_covering_bounds_ordered():
    ident = identity_instance(3, mode=COVER)
    lo, hi = covering_optimum_bounds(ident, 1.0)
    assert lo <= 1.5 <= hi  # the diagonal optimum m/(1+beta) = 1.5 sits inside


# ---- config validation ----

def test_config_epsilon_bounds():
    SolverConfig(fairness=2.0, epsilon=0.1)  # exactly at 1/(10*|alpha-1|)
    with pytest.raises(EpsilonOutOfRange):
        SolverConfig(fairness=2.0, epsilon=0.2)
    with pytest.raises(EpsilonOutOfRange):
        SolverConfig(fairness=1.0, epsilon=0.6)
    with pytest.raises(EpsilonOutOfRange):
        SolverConfig(fairness=0.0, epsilon=0.0)
    with pytest.raises(InvalidAlpha):
        SolverConfig(fairness=-1.0, epsilon=0.1)
    SolverConfig(fairness=1.0, epsilon=0.5, mode=PACK)
    with pytest.raises(EpsilonOutOfRange):
        SolverConfig(fairness=1.0, epsilon=0.51, mode=COVER)
    SolverConfig(fairness=-3.0, epsilon=0.5, mode=COVER)  # beta may be negative for covering


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_fairness(value):
    with pytest.raises(InvalidAlpha, match="alpha must be finite"):
        SolverConfig(fairness=value, epsilon=0.1, mode=PACK)
    with pytest.raises(InvalidBeta, match="beta must be finite"):
        SolverConfig(fairness=value, epsilon=0.1, mode=COVER)
    # the parameter derivations apply the same rules
    with pytest.raises(InvalidAlpha, match="alpha must be finite"):
        derive_packing_params(2, 2, 1.0, value, 0.1)
    with pytest.raises(InvalidBeta, match="beta must be finite"):
        derive_covering_params(2, 2, 1.0, value, 0.1)
