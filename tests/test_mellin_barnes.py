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
from foxh.gammasym import GammaSymbol, symbol_from_params
from foxh.mellin_barnes import _EVALUATOR_CACHE, _LOG_SPAN, kernel_evaluator
from foxh.quadrature import _LINE_CHUNK, LineRule

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
    # the mid-strip line is 0.275 from a pole, which sets the trapezoid
    # density: Gauss-Legendre at twice that density, on a taller line, agrees
    res = eval_hfunction_batch(NARROW_STRIP_K, SURVEY_GRID)
    c = res[0].contour_used
    vals = _values(res)
    dense = LineRule(symbol_from_params(NARROW_STRIP_K).eval, c.re_line,
                     1.3 * c.half_height, 2 * c.nodes_per_unit)(np.log(SURVEY_GRID))
    assert np.max(np.abs(vals - dense)) <= 1e-11 * np.max(np.abs(vals))


def _beta_kernel(a):
    return validate_params(1, 1, 1, 1, [(1.0 - a, 1.0)], [(0.0, 1.0)])


@pytest.mark.parametrize("params", [EXP_K, _beta_kernel(1.0), _beta_kernel(2.0), _beta_kernel(3.5)]
                         + [canonical_params(case)[0] for case in range(5, 10)])
def test_batch_trapezoid_table_matches_dense_gauss_legendre(params):
    # the nested trapezoid table against Gauss-Legendre at 100 nodes per
    # unit on the same contour
    res = eval_hfunction_batch(params, SURVEY_GRID)
    c = res[0].contour_used
    vals = _values(res)
    dense = LineRule(symbol_from_params(params).eval, c.re_line, c.half_height,
                     100)(np.log(SURVEY_GRID))
    assert np.max(np.abs(vals - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_low_a_star_batch_contour_is_sized_to_its_grid():
    # the trapezoid density takes the span only as a term beside
    # ln(1/tol) / d, so the grid's saving is mostly in the height
    res = eval_hfunction_batch(LOW_A_STAR_K, SURVEY_GRID)
    c = res[0].contour_used
    full = kernel_evaluator(LOW_A_STAR_K, 1e-10, _LOG_SPAN)
    ref, _, _, full_density = full.eval(SURVEY_GRID)
    assert c.half_height <= 0.6 * full.contour.half_height
    assert c.half_height * c.nodes_per_unit <= 0.3 * full.contour.half_height * full_density
    vals = _values(res)
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


def _dense_trapezoid_sum(params, gamma, T, h, logx):
    """(h / 2 pi) sum over t = k h, |t| <= T, of symbol(gamma + i t) x^-(gamma + i t),
    summed in long double."""
    k = np.arange(-math.floor(T / h), math.floor(T / h) + 1)
    s = gamma + 1j * h * k
    coeff = symbol_from_params(params).eval(s).astype(np.clongdouble) * h / (2 * math.pi)
    s = gamma + 1j * (np.longdouble(h) * k.astype(np.longdouble))
    return np.array([np.sum(np.exp(-l * s) * coeff) for l in logx.astype(np.longdouble)],
                    dtype=complex)


def test_batch_reads_each_trapezoid_node_once(monkeypatch):
    # a batch reads the symbol once per trapezoid node of its final step and
    # leaves fine, the direct route's Gauss-Legendre rule, unbuilt; the
    # direct route then builds it as an eager LineRule at 1.8 x 45 + 4 = 85
    # nodes per unit, bitwise
    _EVALUATOR_CACHE.clear()
    points = []
    symbol_eval = GammaSymbol.eval

    def counting(sym, s):
        points.append(np.size(s))
        return symbol_eval(sym, s)

    monkeypatch.setattr(GammaSymbol, "eval", counting)
    # |ln x| up to 44.5: the direct route's span and tolerance, so its evaluator
    res = eval_hfunction_batch(EXP_K, np.exp(np.linspace(-44.5, 2.0, 9)),
                               target_abs_err=1e-11)
    monkeypatch.undo()
    c = res[0].contour_used
    assert sum(points) == 2 * math.floor(c.half_height * c.nodes_per_unit) + 1
    ev = _EVALUATOR_CACHE[(EXP_K, -11.0, _LOG_SPAN)]
    assert "fine" not in vars(ev)
    htransform_direct(EXP_K, TestFunction.builtin("exp"), [1.0], SpaceSpec(0.5, 2.0))
    eager = LineRule(symbol_from_params(EXP_K).eval, c.re_line, c.half_height, 85)
    for name in ("mid", "off", "coeff"):
        assert np.array_equal(getattr(ev.fine, name), getattr(eager, name))


def test_batch_error_estimate_is_the_gap_to_every_other_node():
    # at tolerance 1e-6 the sums stop while the gap is well above rounding
    xs = np.geomspace(0.1, 10.0, 7)
    res = eval_hfunction_batch(EXP_K, xs, ContourSpec(1.0, 25.0, 4), target_abs_err=1e-6)
    c = res[0].contour_used
    h = 1.0 / c.nodes_per_unit
    logx = np.log(xs)
    fine = _dense_trapezoid_sum(EXP_K, c.re_line, c.half_height, h, logx)
    coarse = _dense_trapezoid_sum(EXP_K, c.re_line, c.half_height, 2 * h, logx)
    vals = _values(res)
    qerr = np.array([r.quadrature_error_estimate for r in res])
    assert np.max(np.abs(vals - fine)) <= 1e-14
    assert np.max(np.abs(qerr - np.abs(fine - coarse))) <= 1e-14
    assert 1e-12 < np.max(qerr) <= 5e-7


# mpmath's value of the a* = 0.025 kernel at SURVEY_GRID[62] = 86.40 (30
# digits, Gauss-Legendre over |t| <= 3000 on Re s = -0.89862)
LOW_A_STAR_AT_86 = -0.506758327568557 - 1.121886866121693j


def _survey_reference_contour():
    """The survey's reference contour for the a* = 0.025 kernel: 0.15 below
    the batch's line, 1.5 times the height choose_contour gives at the
    grid's ends (T about 2,505)."""
    inv = derive_invariants(LOW_A_STAR_K)
    T = 1.5 * max(choose_contour(inv, x).half_height for x in SURVEY_GRID[[0, -1]])
    return ContourSpec(-1.0486, T, 8)


def test_low_a_star_kernel_against_mpmath():
    # the survey's hardest kernel: its sums cancel by five to eight orders
    # of magnitude, so rounding, not the rule, sets the error
    vals = _values(eval_hfunction_batch(LOW_A_STAR_K, SURVEY_GRID))
    scale = np.max(np.abs(vals))
    assert abs(vals[62] - LOW_A_STAR_AT_86) <= 6e-9 * scale
    ref = _values(eval_hfunction_batch(LOW_A_STAR_K, SURVEY_GRID, _survey_reference_contour()))
    assert abs(ref[62] - LOW_A_STAR_AT_86) <= 2.5e-8 * scale


def test_refine_line_memory_does_not_grow_with_nodes():
    # the reference contour ends near 80,000 trapezoid nodes; the symbol is
    # read _LINE_CHUNK nodes at a time, so the peak stays below one chunk's
    # dense 64 x _LINE_CHUNK phase matrix, whatever the node count
    tracemalloc.start()
    try:
        res = eval_hfunction_batch(LOW_A_STAR_K, SURVEY_GRID, _survey_reference_contour())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    c = res[0].contour_used
    assert 2 * c.half_height * c.nodes_per_unit >= 50_000
    assert peak < 64 * _LINE_CHUNK * 16


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
