"""The gradient kernel: product form against the log-domain fallback, the
choice between them, and one ``Ax`` per iterate in both engines."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairpc import COVER, PACK, instance_from_dense
from fairpc.cli import run_cli
from fairpc.regularization import (
    EXP_SAT,
    GradientKernel,
    allocation_term,
    derive_covering_params,
    derive_packing_params,
)

LN_MAX = math.log(np.finfo(np.float64).max)
CASES = [0.0, 0.5, 1.0, 2.0, 5.0, COVER]


def _instance(rng, mode, fairness):
    m, n = (int(d) for d in rng.integers(2, 25, 2))
    dense = rng.uniform(1.0, 100.0, (m, n)) * (rng.random((m, n)) < 0.3)
    k = min(m, n)
    dense[np.arange(k), np.arange(k)] = rng.uniform(1.0, 100.0, k)
    dense[np.arange(k, m), 0] = rng.uniform(1.0, 100.0, m - k)   # cover the spare rows
    dense[0, np.arange(k, n)] = rng.uniform(1.0, 100.0, n - k)   # and the spare columns
    return instance_from_dense(dense, mode=mode, fairness=fairness)[0]


def _kernel_args(rng, case):
    """A kernel's (instance, alpha, beta, logC) and an allocation for ``case``.

    Packing allocations are feasible (max load in [0.5, 1]), the product
    form's domain. At alpha = 0 and in covering the loads range up to 4, so
    barrier exponents run from far below EXP_SAT to far above it.
    """
    if case == COVER:
        inst = _instance(rng, COVER, 0.0)
        params = derive_covering_params(inst.m, inst.n, inst.rho, 0.0, 0.1)  # beta at its floor
        alpha, logC, top = 0.0, 0.0, 4.0
    else:
        inst = _instance(rng, PACK, case)
        eps = 0.1 if case == 1.0 else min(0.1, 1.0 / (10.0 * abs(case - 1.0)))
        params = derive_packing_params(inst.m, inst.n, inst.rho, case, eps)
        alpha, logC = case, params.logC
        top = 4.0 if case == 0.0 else rng.uniform(0.5, 1.0)
    u = rng.uniform(0.0, 1.0, inst.n) ** 3 + 1e-12
    u *= top / float((inst.matrix.to_dense() @ u).max())
    return inst, alpha, params.beta, logC, u


def _x_hat(u, alpha):
    if alpha == 0.0:
        return u
    if alpha == 1.0:
        return np.log(u)
    return np.power(u, 1.0 - alpha)


def _entry_cols(mat):
    """Each column-major entry's column."""
    return np.repeat(np.arange(mat.n), np.diff(mat.col_ptr))


def _columns(inst, alpha, beta, logC, u, product):
    """The kernel's ``truncated_columns`` over every column in the given form."""
    mat = inst.matrix
    k = GradientKernel(mat, alpha, beta, logC)
    k.product = product
    k.entry_terms = mat.col_val if product else np.log(mat.col_val) + logC
    k.entry_col = _entry_cols(mat)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return k.truncated_columns(mat.col_row, _x_hat(u, alpha), u,
                                   k.row_factors(mat.to_dense() @ u))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(CASES))
def test_product_form_matches_log_domain(seed, case):
    rng = np.random.default_rng(seed)
    inst, alpha, beta, logC, u = _kernel_args(rng, case)
    x_hat = _x_hat(u, alpha)
    s_p, sat_p, trunc_p = _columns(inst, alpha, beta, logC, u, product=True)
    _, sat_l, trunc_l = _columns(inst, alpha, beta, logC, u, product=False)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        # each column's largest combined exponent, as the fallback forms it
        mat = inst.matrix
        t = allocation_term(alpha)(x_hat, u)
        t_entry = t if np.isscalar(t) else t[_entry_cols(mat)]
        q = np.log(mat.to_dense() @ u) / beta
        e = np.log(mat.col_val) + logC + t_entry + q[mat.col_row]
        top = np.maximum.reduceat(e, mat.col_ptr[:-1])

    np.testing.assert_allclose(trunc_p, trunc_l, rtol=0.0, atol=1e-12)
    assert sat_p is None   # the product form marks saturation by s = +inf
    mask_p = s_p == math.inf
    mask_l = np.zeros(inst.n, bool) if sat_l is None else sat_l
    # an exponent in (EXP_SAT, ln(max float)] saturates the fallback while the
    # product form still holds a finite s > e**EXP_SAT - 1; both truncate to 1
    clear = (top < EXP_SAT - 1.0) | (top > LN_MAX + 1.0)
    assert (mask_p[clear] == mask_l[clear]).all()
    assert (trunc_p[mask_p] == 1.0).all()
    if case not in (0.0, COVER):   # the guard's bound holds on feasible iterates
        assert not mask_p.any() and sat_l is None


def test_saturation_is_exercised_by_the_property_cases():
    """The overflowing side of the mask comparison above is not vacuous."""
    saturated = 0
    for seed in range(20):
        for case in (0.0, COVER):
            inst, alpha, beta, logC, u = _kernel_args(np.random.default_rng(seed), case)
            s, *_ = _columns(inst, alpha, beta, logC, u, product=True)
            saturated += int((s == math.inf).sum())
    assert saturated > 0


def test_form_is_chosen_from_the_run_constants():
    inst = instance_from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]), fairness=0.5)[0]

    def kernel(alpha, eps):
        p = derive_packing_params(2, 2, inst.rho, alpha, eps)
        return GradientKernel(inst.matrix, alpha, p.beta, p.logC), p.logC

    for alpha, eps in ((0.5, 0.1), (1.0, 0.1), (2.0, 0.1)):
        k, logC = kernel(alpha, eps)
        assert k.product and logC + max(0.0, 1.0 - alpha) * math.log(2.0) <= EXP_SAT
        assert k.entry_terms is inst.matrix.col_val   # no per-entry log array is built
    k, logC = kernel(50.0, 0.002)
    assert logC > EXP_SAT and not k.product
    np.testing.assert_array_equal(k.entry_terms, np.log(inst.matrix.col_val) + logC)
    # alpha = 0 always runs in product form, however large logC is
    assert GradientKernel(inst.matrix, 0.0, 1e-3, 2.0 * EXP_SAT).product


def test_log_domain_fallback_engines_agree_byte_for_byte(tmp_path, capsys):
    path = tmp_path / "w2.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 4\n"
                    "1 1 1.0\n1 2 2.0\n2 1 2.0\n2 2 1.0\n")
    args = ["--mode", "pack", "--alpha", "50", "--epsilon", "0.002", "--max-iters", "200",
            "--input", str(path)]
    outs = []
    for engine in ("monolithic", "rounds"):
        assert run_cli([*args, "--engine", engine]) == 0
        outs.append(capsys.readouterr().out)
    doc = json.loads(outs[0])
    assert doc["params"]["logC"] == pytest.approx(987, abs=1.0)
    assert doc["iterations"] == 200 and doc["feasibility"]["is_feasible"]
    mono = outs[0][:outs[0].index('"wall_time_s"')]
    rounds = outs[1][:outs[1].index('"wall_time_s"')]
    assert mono.replace('"engine": "monolithic"', '"engine": "rounds"') == rounds


@pytest.mark.parametrize("engine", ["monolithic", "rounds"])
@pytest.mark.parametrize("mode,fairness", [(PACK, "0.5"), (PACK, "1"), (PACK, "2"), (COVER, "1")])
def test_one_loads_computation_per_iterate(engine, mode, fairness, tmp_path, monkeypatch):
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 4 7\n"
                    "1 1 1.0\n1 3 4.0\n2 2 2.5\n2 4 1.0\n3 1 3.0\n3 3 1.5\n3 4 2.0\n")
    calls = []
    original = GradientKernel.loads_of

    def counted(self, u):
        calls.append(1)
        return original(self, u)

    monkeypatch.setattr(GradientKernel, "loads_of", counted)
    out = tmp_path / "out.json"
    flag = "--alpha" if mode == PACK else "--beta"
    assert run_cli(["--mode", mode, flag, fairness, "--epsilon", "0.05", "--input", str(path),
                    "--engine", engine, "--max-iters", "40", "--trace-stride", "1",
                    "--output", str(out)]) == 0
    iterations = json.loads(out.read_text())["iterations"]
    assert iterations == 40
    assert len(calls) == iterations + 1
