"""Contour choice and pointwise kernel evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from foxh import (
    ContourSpec,
    NoAdmissibleContourError,
    ParameterError,
    choose_contour,
    derive_invariants,
    eval_hfunction,
    eval_hfunction_batch,
    validate_params,
)
from foxh.gammasym import symbol_from_params
from foxh.quadrature import LineRule

from conftest import canonical_params, exp_series

EXP_K = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])


def test_choose_contour_exp_kernel():
    inv = derive_invariants(EXP_K)
    spec = choose_contour(inv, 1.0, 1e-10)
    assert spec.re_line == 1.0  # unit offset from the finite edge
    assert spec.half_height > 4.0
    assert spec.nodes_per_unit >= 4


def test_choose_contour_beta_kernel_midpoint():
    pb = validate_params(1, 1, 1, 1, [(-1.0, 1.0)], [(0.0, 1.0)])
    inv = derive_invariants(pb)
    spec = choose_contour(inv, 1.0, 1e-10)
    assert spec.re_line == pytest.approx(1.0)  # midpoint of (0, 2)


def test_choose_contour_refuses_oscillatory():
    params, _, _ = canonical_params(3)
    inv = derive_invariants(params)
    with pytest.raises(NoAdmissibleContourError, match="algebraic-decay"):
        choose_contour(inv, 1.0)


def test_choose_contour_refuses_balanced():
    params, _, _ = canonical_params(1)
    inv = derive_invariants(params)
    with pytest.raises(NoAdmissibleContourError, match="no decay"):
        choose_contour(inv, 1.0)


def test_contour_spec_validation():
    with pytest.raises(ParameterError):
        ContourSpec(1.0, -1.0)
    with pytest.raises(ParameterError):
        ContourSpec(1.0, 10.0, 2)


def test_eval_exp_kernel_at_one():
    res = eval_hfunction(EXP_K, 1.0, target_abs_err=1e-11)
    assert abs(res.value - exp_series(1.0)) <= 1e-10
    assert res.truncation_bound < 1e-11
    assert res.quadrature_error_estimate < 1e-10


def test_eval_exp_kernel_far_argument():
    res = eval_hfunction(EXP_K, 10.0, target_abs_err=1e-13)
    oracle = exp_series(10.0)
    assert abs(res.value - oracle) / oracle < 1e-8


def test_eval_beta_kernel_values():
    pb = validate_params(1, 1, 1, 1, [(0.0, 1.0)], [(0.0, 1.0)])
    res = eval_hfunction(pb, 1.0)
    assert abs(res.value - 0.5) < 1e-10


def test_eval_batch_preserves_order_and_empty():
    xs = [2.0, 0.5, 1.0]
    res = eval_hfunction_batch(EXP_K, xs)
    vals = [r.value for r in res]
    assert abs(vals[0] - math.exp(-2.0)) < 1e-10
    assert abs(vals[1] - math.exp(-0.5)) < 1e-10
    assert eval_hfunction_batch(EXP_K, []) == []


def test_eval_batch_rejects_nonpositive():
    with pytest.raises(ParameterError, match="positive"):
        eval_hfunction_batch(EXP_K, [1.0, 0.0])


def test_contour_shift_invariance():
    r1 = eval_hfunction(EXP_K, 1.0, ContourSpec(0.7, 25.0, 10))
    r2 = eval_hfunction(EXP_K, 1.0, ContourSpec(1.9, 25.0, 10))
    budget = (r1.quadrature_error_estimate + r2.quadrature_error_estimate
              + r1.truncation_bound + r2.truncation_bound)
    assert abs(r1.value - r2.value) <= budget + 1e-15


def test_truncation_bound_is_a_true_bound():
    # doubling the height never moves the value by more than the bound
    for x in (0.3, 1.0, 4.0):
        short = eval_hfunction(EXP_K, x, ContourSpec(1.0, 9.0, 10))
        tall = eval_hfunction(EXP_K, x, ContourSpec(1.0, 18.0, 10))
        moved = abs(short.value - tall.value)
        assert moved <= short.truncation_bound + 1e-13


def test_user_contour_outside_strip_rejected():
    from foxh import HypothesisError

    with pytest.raises(HypothesisError, match="strip"):
        eval_hfunction(EXP_K, 1.0, ContourSpec(-0.5, 10.0, 8))


def test_kernel_reduction_grid():
    xs = np.geomspace(0.1, 10.0, 20)
    res = eval_hfunction_batch(EXP_K, xs, target_abs_err=1e-11)
    worst = max(abs(r.value - exp_series(x)) / exp_series(x)
                for r, x in zip(res, xs))
    assert worst < 1e-8


# -- panel-factored line sums ---------------------------------------------------

def _dense_line_sum(rule, logx):
    """The rule's coefficients summed node by node in long double, nodes
    mid + off formed in long double."""
    t = (rule.mid.astype(np.longdouble)[:, None] + rule.off.astype(np.longdouble)).ravel()
    s = rule.gamma + 1j * t.astype(np.clongdouble)
    coeff = rule.coeff.ravel().astype(np.clongdouble)
    out = [np.sum(np.exp(-l * s) * coeff) for l in np.atleast_1d(logx).astype(np.longdouble)]
    return np.array(out, dtype=complex).reshape(np.shape(logx))


@pytest.mark.parametrize("case", range(1, 10))
def test_line_rule_matches_dense_long_double_sum(case, rng):
    # a line inside the kernel's strip; cases 1-4 have no decaying contour,
    # which the sum does not need
    params, nu, _ = canonical_params(case)
    rule = LineRule(symbol_from_params(params).eval, 1.0 - nu, 30.0, 85)
    logx = rng.uniform(-45.0, 45.0, 200)
    err = np.abs(rule(logx) - _dense_line_sum(rule, logx))
    bound = 1e-13 * np.sum(np.abs(rule.coeff)) * np.exp(-rule.gamma * logx)
    assert np.all(err <= bound)


def test_line_rule_scalar_and_empty_arguments():
    params, nu, _ = canonical_params(5)
    rule = LineRule(symbol_from_params(params).eval, 1.0 - nu, 20.0, 40)
    one = rule(0.7)
    assert np.shape(one) == ()
    ref = _dense_line_sum(rule, 0.7)
    assert abs(one - ref) <= 1e-13 * np.sum(np.abs(rule.coeff)) * math.exp(-0.7 * rule.gamma)
    assert rule(np.zeros(0)).shape == (0,)


def test_line_rule_memory_stays_below_dense_matrix():
    # a* = 0.025 kernel of the survey benchmark: its contour runs to heights
    # in the thousands; a dense exp(-outer(logx, s)) holds 64 N complex values
    low_a_star = validate_params(
        0, 2, 3, 0,
        [(0.958944 - 0.257488j, 0.404989), (-0.676720 - 0.255238j, 0.728059),
         (0.328821 - 0.172448j, 1.108355)],
        [])
    rule = LineRule(symbol_from_params(low_a_star).eval, -0.9, 2540.0, 85)
    assert rule.coeff.size >= 400_000
    logx = np.linspace(-4.6, 4.6, 64)
    tracemalloc.start()
    try:
        rule(logx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 64 * rule.coeff.size * 16
