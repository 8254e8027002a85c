"""Contour choice and pointwise kernel evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from foxh import (
    ContourSpec,
    NoAdmissibleContourError,
    ParameterError,
    SpaceSpec,
    TestFunction,
    choose_contour,
    derive_invariants,
    eval_hfunction,
    eval_hfunction_batch,
    htransform_direct,
    validate_params,
)
from foxh.gammasym import symbol_from_params
from foxh.mellin_barnes import _EVALUATOR_CACHE, _LOG_SPAN, kernel_evaluator
from foxh.quadrature import LineRule

from conftest import canonical_params, exp_series

EXP_K = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])
# two frozen kernels of the survey benchmark: a* = 0.025, whose contour runs
# to heights in the thousands, and one with a strip 0.55 wide
LOW_A_STAR_K = validate_params(
    0, 2, 3, 0,
    [(0.958944 - 0.257488j, 0.404989), (-0.676720 - 0.255238j, 0.728059),
     (0.328821 - 0.172448j, 1.108355)],
    [])
NARROW_STRIP_K = validate_params(
    2, 1, 1, 2,
    [(-0.492959 - 0.399135j, 1.490357)],
    [(-0.606965 + 0.028680j, 1.344994), (-0.540330 - 0.300761j, 1.291913)])
SURVEY_GRID = np.geomspace(1e-2, 1e2, 64)


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


# -- contours sized to the batch ------------------------------------------------

def _values(results):
    return np.array([r.value for r in results])


def test_batch_contour_node_floor_near_strip_edge():
    # the mid-strip line is 0.275 from a pole: density from the span alone
    # (13 per unit) leaves the table 4e-7 of max|value| off, the pole's
    # floor (62 per unit) 1e-13
    res = eval_hfunction_batch(NARROW_STRIP_K, SURVEY_GRID)
    c = res[0].contour_used
    vals = _values(res)
    dense = LineRule(symbol_from_params(NARROW_STRIP_K).eval, c.re_line,
                     1.3 * c.half_height, 2 * c.nodes_per_unit)(np.log(SURVEY_GRID))
    assert np.max(np.abs(vals - dense)) <= 1e-11 * np.max(np.abs(vals))


def test_low_a_star_batch_contour_is_sized_to_its_grid():
    res = eval_hfunction_batch(LOW_A_STAR_K, SURVEY_GRID)
    c = res[0].contour_used
    full = kernel_evaluator(LOW_A_STAR_K, 1e-10, _LOG_SPAN)
    f = full.contour
    assert c.half_height * c.nodes_per_unit <= 0.25 * f.half_height * f.nodes_per_unit
    vals = _values(res)
    ref = full.eval(SURVEY_GRID)[0]
    assert np.max(np.abs(vals - ref)) <= 1e-6 * np.max(np.abs(vals))


def test_batch_values_do_not_depend_on_cached_evaluators():
    # the direct route builds the full-span evaluator at the batch's
    # tolerance (1e-9 * 1e-2); a batch must not pick it up
    xs = np.geomspace(0.1, 10.0, 7)
    _EVALUATOR_CACHE.clear()
    htransform_direct(EXP_K, TestFunction.builtin("exp"), [1.0], SpaceSpec(0.5, 2.0))
    assert (EXP_K, -11.0, _LOG_SPAN) in _EVALUATOR_CACHE
    after = eval_hfunction_batch(EXP_K, xs, target_abs_err=1e-11)
    _EVALUATOR_CACHE.clear()
    cold = eval_hfunction_batch(EXP_K, xs, target_abs_err=1e-11)
    assert after[0].contour_used == cold[0].contour_used
    assert cold[0].contour_used.half_height < kernel_evaluator(EXP_K, 1e-11).contour.half_height
    assert np.array_equal(_values(after), _values(cold))


def test_direct_route_leaves_the_coarse_rule_unbuilt():
    # only eval's error estimate reads the coarse rule, so it is built there,
    # from the contour's density: the values stay those of an eager build
    _EVALUATOR_CACHE.clear()
    htransform_direct(EXP_K, TestFunction.builtin("exp"), [1.0], SpaceSpec(0.5, 2.0))
    ev = _EVALUATOR_CACHE[(EXP_K, -11.0, _LOG_SPAN)]
    assert "_coarse" not in vars(ev)
    xs = np.geomspace(0.1, 10.0, 7)
    fine, qerr, _ = ev.eval(xs)
    assert "_coarse" in vars(ev)
    c = ev.contour
    coarse = LineRule(symbol_from_params(EXP_K).eval, c.re_line, c.half_height,
                      max(4, int(c.nodes_per_unit / 1.6)))
    assert np.array_equal(qerr, np.abs(fine - coarse(np.log(xs))))


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
    # the a* = 0.025 kernel's contour runs to heights in the thousands; a
    # dense exp(-outer(logx, s)) holds 64 N complex values
    rule = LineRule(symbol_from_params(LOW_A_STAR_K).eval, -0.9, 2540.0, 85)
    assert rule.coeff.size >= 400_000
    logx = np.linspace(-4.6, 4.6, 64)
    tracemalloc.start()
    try:
        rule(logx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 64 * rule.coeff.size * 16


# -- line sums on arithmetic progressions ---------------------------------------

@pytest.mark.parametrize("case", range(1, 10))
def test_line_rule_progression_matches_dense_long_double_sum(case):
    params, nu, _ = canonical_params(case)
    rule = LineRule(symbol_from_params(params).eval, 1.0 - nu, 20.0, 85)
    steps = (0.5, -0.5, 0.25, -0.25, 0.0625, -0.0625)
    for step, l0 in zip(steps, (-13.7, 21.1, 0.3, -30.2, 8.9, -0.6)):
        # the runs of n arguments are prefixes of the longest
        logx = l0 + step * np.arange(64)
        dense = _dense_line_sum(rule, logx)
        bound = 1e-13 * np.sum(np.abs(rule.coeff)) * np.exp(-rule.gamma * logx)
        for n in (1, 2, 37, 64):
            err = np.abs(rule.progression(l0, step, n) - dense[:n])
            assert np.all(err <= bound[:n]), (step, n)


def test_line_rule_progression_same_from_cached_or_fresh_tables():
    params, nu, _ = canonical_params(7)
    F = symbol_from_params(params).eval
    warm = LineRule(F, 1.0 - nu, 30.0, 85)
    for step in (0.5, -0.25, 0.0625):
        warm.progression(4.0, step, 64)
    for step in (0.5, -0.5, -0.25, 0.0625):
        for n in (1, 37, 64):
            fresh = LineRule(F, 1.0 - nu, 30.0, 85).progression(-2.3, step, n)
            assert np.array_equal(warm.progression(-2.3, step, n), fresh)


def test_line_rule_progression_memory_stays_below_dense_matrix():
    rule = LineRule(symbol_from_params(LOW_A_STAR_K).eval, -0.9, 2540.0, 85)
    assert rule.coeff.size >= 400_000
    tracemalloc.start()
    try:
        rule.progression(-4.6, -0.0625, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 64 * rule.coeff.size * 16
