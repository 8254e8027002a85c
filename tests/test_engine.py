"""Factorization plans, route agreement, representation route, bilinearity."""

import dataclasses
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from foxh import (
    DivergentIntegralError,
    FoxHError,
    GammaSymbol,
    GridFunction,
    HypothesisError,
    NumericalError,
    ParameterError,
    PoleError,
    SpaceSpec,
    TestFunction,
    apply_plan,
    best_route,
    bilinear_check,
    derive_invariants,
    exact_cancellation,
    htransform_direct,
    htransform_mellin,
    htransform_repr,
    laplace_mod,
    log_gamma,
    plan_factorization,
    symbol_from_params,
    transpose_params,
    validate_params,
    verify_plan_symbol,
)
from foxh import engine, gammasym, quadrature
from foxh.classical import Support, mellin_line_samples
from foxh.engine import (
    VERIFY_POINTS,
    EK,
    Dilate,
    HankelOp,
    LaplaceOp,
    LiveFunction,
    LogGrid,
    Multiplier,
    PowerWeight,
    Reflect,
    _dry_run_spaces,
    chain_action,
    tabulate,
)
from foxh.mellin_barnes import kernel_evaluator
from foxh.quadrature import Lattice, LineRule, trapezoid_line

from conftest import canonical_params, random_params

EXP_K = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])
BETA_K = validate_params(1, 1, 1, 1, [(0.0, 1.0)], [(0.0, 1.0)])
F_EXP = TestFunction.power_exp(0.0, 1.0)
F_TEXP = TestFunction.power_exp(1.0, 1.0)
SP = SpaceSpec(0.5, 2.0)
XS = np.array([0.5, 1.0, 2.0])


# -- plan construction and symbol verification -------------------------------

@pytest.mark.parametrize("case", range(1, 10))
def test_plan_symbol_identity_each_case(case):
    params, nu, r = canonical_params(case)
    plan = plan_factorization(params, nu, r)
    assert plan.case_label == case
    residual = verify_plan_symbol(plan)
    assert residual <= 1e-10
    assert exact_cancellation(plan)


def test_plan_case1_shape():
    params, nu, r = canonical_params(1)
    plan = plan_factorization(params, nu, r)
    kinds = [p.kind for p in plan.chain]
    assert kinds == ["reflect", "multiplier", "dilate"]
    assert plan.mapping["to_nu"] == 1.0 - nu
    assert plan.mapping["s_range"] == "s = r"


def test_plan_case6_exp_kernel_shape():
    plan = plan_factorization(EXP_K, 0.5, 2.0)
    kinds = [p.kind for p in plan.chain]
    assert kinds == ["reflect", "multiplier", "reflect", "laplace", "dilate"]
    # branch constant omega = mu + a1* alpha + 1/2 = 0 here
    assert plan.chain_params["omega"] == 0.0


def test_plan_case3_bessel_chain_constants():
    params, nu, r = canonical_params(3)
    plan = plan_factorization(params, nu, r)
    kinds = [p.kind for p in plan.chain]
    assert kinds == ["multiplier", "power-weight", "hankel", "power-weight",
                     "dilate"]
    hankel = plan.chain[2]
    inv = derive_invariants(params)
    # eta = -Delta(alpha) - mu - 1 evaluates to the kernel's own order here
    assert hankel.order == pytest.approx(-inv.delta_cap * inv.alpha_low
                                         - inv.mu - 1.0)
    assert hankel.order == pytest.approx(0.0)
    assert hankel.index == pytest.approx(inv.delta_cap)


def test_plan_mirrored_cases_wrap_with_reflections():
    for case in (4, 7, 9):
        params, nu, r = canonical_params(case)
        plan = plan_factorization(params, nu, r)
        assert plan.chain[0].kind == "reflect"
        assert plan.chain[-1].kind == "reflect"
        assert plan.chain_params.get("mirrored") is True


def test_plan_hypothesis_failure_is_named():
    # case 3 at r far from 2 violates the gamma(r) sharpening
    params, nu, _ = canonical_params(3)
    with pytest.raises(HypothesisError, match="gamma"):
        plan_factorization(params, nu, 10.0)


def test_plan_rejects_r_one():
    with pytest.raises(HypothesisError, match="1 < r"):
        plan_factorization(EXP_K, 0.5, 1.0)


def test_plan_rejects_strip_violation():
    with pytest.raises(HypothesisError, match="alpha < 1 - nu"):
        plan_factorization(EXP_K, 1.2, 2.0)


def test_chain_argument_map_reflects():
    plan = plan_factorization(BETA_K, 0.5, 2.0)
    s = 0.5 + 1.3j
    _, a, b = chain_action(plan.chain)
    assert abs(complex(a + b * s) - (1.0 - s)) < 1e-12


def test_verify_rejects_chain_that_does_not_reflect():
    plan = plan_factorization(EXP_K, 0.5, 2.0)
    broken = dataclasses.replace(plan, chain=plan.chain[1:])
    with pytest.raises(NumericalError, match="reflect"):
        verify_plan_symbol(broken)


def _log_ratio_close(got, ref, tol=1e-12):
    return abs(np.exp(complex(got) - complex(ref)) - 1.0) < tol


def test_mellin_action_matches_closed_forms(rng):
    # the gamma formulas of test_criterion_04, as (symbol, a, b) actions
    for trial in range(40):
        cplx = trial % 2 == 1
        alpha = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5) if cplx else 0.0)
        eta = complex(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 0.5) if cplx else 0.0)
        sigma = rng.uniform(0.4, 2.0)
        kap = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 2.5)
        s = complex(rng.uniform(-1.0, 2.0), rng.uniform(-3.0, 3.0))

        sym, a, b = EK("left", alpha, sigma, eta).mellin_action()
        assert (a, b) == (0.0, 1.0)
        assert _log_ratio_close(sym.eval_log(s), log_gamma(1 + eta - s / sigma)
                                - log_gamma(1 + eta + alpha - s / sigma))

        sym, a, b = EK("right", alpha, sigma, eta).mellin_action()
        assert (a, b) == (0.0, 1.0)
        assert _log_ratio_close(sym.eval_log(s), log_gamma(eta + s / sigma)
                                - log_gamma(eta + alpha + s / sigma))

        sym, a, b = HankelOp(kap, eta).mellin_action()
        assert (a, b) == (1.0, -1.0)
        arg = kap * (s - 0.5)
        assert _log_ratio_close(sym.eval_log(s), arg * math.log(2 / abs(kap))
                                + log_gamma((eta + arg + 1) / 2)
                                - log_gamma((eta - arg + 1) / 2))

        sym, a, b = LaplaceOp(kap, alpha - 1.0).mellin_action()
        assert (a, b) == (1.0, -1.0)
        arg = kap * (s - (alpha - 1.0))
        assert _log_ratio_close(sym.eval_log(s), log_gamma(arg)
                                + (1 - arg) * math.log(abs(kap)))


def _step_and_conditions(rng, kind):
    """A random EK, Laplace or Hankel step with its space conditions in the
    paper's closed forms: (step, r, [(edge of nu, holds(nu))])."""
    eta = complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
    kap = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
    r = rng.uniform(1.1, 5.0)
    if kind in ("left", "right"):
        sigma = rng.uniform(0.2, 3.0)
        step = EK(kind, complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0)), sigma, eta)
        if kind == "left":
            edge = sigma * (1.0 + eta.real)
            return step, r, [(edge, lambda nu: nu < edge)]
        edge = -sigma * eta.real
        return step, r, [(edge, lambda nu: nu > edge)]
    if kind == "laplace":
        return LaplaceOp(kap, eta), r, [
            (1.0 - eta.real, lambda nu: kap * (1.0 - nu - eta.real) > 0)]
    gamma_r = SpaceSpec(0.0, r).gamma_r
    return HankelOp(kap, eta), r, [
        ((eta.real + 1.0) / kap + 0.5, lambda nu: kap * (nu - 0.5) + 0.5 < eta.real + 1.5),
        ((gamma_r - 0.5) / kap + 0.5, lambda nu: gamma_r <= kap * (nu - 0.5) + 0.5),
    ]


def test_step_space_checks_match_the_closed_forms(rng):
    # check_space reads the condition off the step's Mellin action; it must
    # raise exactly where the closed forms fail, on lines at least 1e-9 from
    # every edge, and the chain check must name the step's position
    for trial in range(4000):
        kind = ("left", "right", "laplace", "hankel")[trial % 4]
        step, r, conds = _step_and_conditions(rng, kind)
        edge = conds[trial % len(conds)][0]
        nu = edge + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, 0.5)
        if min(abs(nu - e) for e, _ in conds) < 1e-9:
            continue
        chain = (Dilate(2.0), step)
        if all(holds(nu) for _, holds in conds):
            step.check_space(nu, r)
            _dry_run_spaces(chain, nu, r)
        else:
            with pytest.raises(HypothesisError):
                step.check_space(nu, r)
            with pytest.raises(HypothesisError, match=rf"^chain position 1 \({step.kind}\): "):
                _dry_run_spaces(chain, nu, r)


def test_ek_space_check_needs_re_alpha_positive():
    with pytest.raises(HypothesisError, match=r"Re\(alpha\) > 0"):
        EK("right", -0.5 + 1j, 1.0, 1.0).check_space(0.5, 2.0)


def test_describe_is_kind_and_fields():
    # complex fields as [re, im], also when they hold a float; symbols
    # through to_json; EK.side and Multiplier.strip left out
    sym = GammaSymbol(num=((0.5 + 0.25j, 1.0),), den=((1.5 + 0j, -2.0),),
                      powers=((2.0, 0.5 + 0j, -1.0 + 0j),))
    cases = [
        (Reflect(), {"op": "reflect"}),
        (PowerWeight(-0.75), {"op": "power-weight", "zeta": [-0.75, 0.0]}),
        (Dilate(2.5), {"op": "dilate", "factor": 2.5}),
        (Multiplier(sym, "core", (0.0, 1.0)),
         {"op": "multiplier", "label": "core",
          "symbol": {"num": [[0.5, 0.25, 1.0]], "den": [[1.5, 0.0, -2.0]],
                     "powers": [[2.0, 0.5, 0.0, -1.0, 0.0]]}}),
        (EK("left", 1.5 + 0.5j, 2.0, -0.25 + 0.125j),
         {"op": "ek-left", "alpha": [1.5, 0.5], "sigma": 2.0, "eta": [-0.25, 0.125]}),
        (EK("right", 0.5, 1.0, 0.75j),
         {"op": "ek-right", "alpha": [0.5, 0.0], "sigma": 1.0, "eta": [0.0, 0.75]}),
        (HankelOp(-1.5, 0.5 - 2j), {"op": "hankel", "index": -1.5, "order": [0.5, -2.0]}),
        (LaplaceOp(1.25, 0.25), {"op": "laplace", "index": 1.25, "offset": [0.25, 0.0]}),
    ]
    for step, want in cases:
        assert step.describe() == want


def test_verify_plan_symbol_on_random_plans(rng):
    checked = 0
    while checked < 200:
        params = random_params(rng)
        inv = derive_invariants(params)
        if inv.case_label is None:
            continue
        hi = inv.beta_high if math.isfinite(inv.beta_high) else inv.alpha_low + 2.0
        lo = inv.alpha_low if math.isfinite(inv.alpha_low) else hi - 2.0
        try:
            plan = plan_factorization(params, 1.0 - 0.5 * (lo + hi), 2.0)
        except FoxHError:
            continue
        assert verify_plan_symbol(plan) <= 1e-10, params
        assert exact_cancellation(plan), params
        checked += 1


def test_verify_plan_symbol_nudges_off_a_structural_zero():
    # Gamma(1/2 + 2s) / Gamma(1/2 - s) vanishes at s = 1/2, on the working
    # line of nu = 1/2; Im s = 0 lands there, so the whole set is nudged
    params = validate_params(1, 0, 0, 2, [], [(0.5, 2.0), (0.5, 1.0)])
    plan = plan_factorization(params, 0.5, 2.0)
    with pytest.raises(PoleError):
        symbol_from_params(params).eval_log(0.5)
    residual = verify_plan_symbol(plan, points=[0.731, 0.0, -1.173])
    assert math.isfinite(residual) and residual <= 1e-10


@pytest.mark.parametrize("case", range(1, 10))
def test_verify_plan_symbol_calls_log_gamma_once_per_symbol(case, monkeypatch):
    params, nu, r = canonical_params(case)
    plan = plan_factorization(params, nu, r)
    calls = []

    def counting(z):
        calls.append(np.size(z))
        return log_gamma(z)

    monkeypatch.setattr(gammasym, "log_gamma", counting)
    verify_plan_symbol(plan)
    chain_sym = chain_action(plan.chain)[0]
    sym = symbol_from_params(params)
    assert calls == [(len(g.num) + len(g.den)) * len(VERIFY_POINTS)
                     for g in (chain_sym, sym)]


def test_exact_cancellation_rejects_a_wrong_chain():
    params, nu, r = canonical_params(5)
    plan = plan_factorization(params, nu, r)
    # the plan checked against a kernel whose offsets moved by 1e-9
    moved = validate_params(params.m, params.n, params.p, params.q,
                            [(c + 1e-9, w) for c, w in params.upper], list(params.lower))
    assert not exact_cancellation(dataclasses.replace(plan, params=moved))
    assert not exact_cancellation(dataclasses.replace(plan, chain=plan.chain[1:]))


def test_plan_json_roundtrip_fields():
    plan = plan_factorization(EXP_K, 0.5, 2.0)
    blob = plan.to_json()
    assert blob["case"] == 6
    assert [op["op"] for op in blob["chain"]] == \
        ["reflect", "multiplier", "reflect", "laplace", "dilate"]
    assert "aux_symbol" in blob and "mapping" in blob


# -- routes on the exponential kernel ----------------------------------------

def test_direct_route_exp_kernel():
    res = htransform_direct(EXP_K, F_EXP, XS, SP)
    oracle = 1.0 / (1.0 + XS)
    assert np.max(np.abs(res.values - oracle) / oracle) < 1e-9
    res2 = htransform_direct(EXP_K, F_TEXP, XS, SP)
    oracle2 = 1.0 / (1.0 + XS) ** 2
    assert np.max(np.abs(res2.values - oracle2) / oracle2) < 1e-9


def _pointwise_direct(params, f, x, tol):
    """htransform_direct's integral at x with the kernel read point by point
    (LineRule.__call__) on its line rule."""
    rule = kernel_evaluator(params, min(tol * 1e-2, 1e-10)).fine
    logx = math.log(x)

    def g(tau):
        t = np.exp(tau)
        return rule(logx + tau) * np.asarray(f(t), dtype=complex) * t

    return trapezoid_line(g, tol=tol)[0]


@pytest.mark.parametrize("case", range(5, 10))
def test_direct_route_matches_pointwise_kernel_sums(case):
    params, nu, r = canonical_params(case)
    space = SpaceSpec(nu, r)
    xs = [0.5, 1.3, 3.0]
    got = htransform_direct(params, F_EXP, xs, space).values
    ref = np.array([_pointwise_direct(params, F_EXP, x, 1e-9) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [1.0, -1.0])
def test_direct_route_matches_pointwise_on_augmented_beta_kernels(lam):
    # the kernels htransform_repr integrates, at its stencil's tolerance
    variant = "raise-upper" if lam > (1.0 - SP.nu) - 1.0 else "raise-lower"
    aug = engine._augmented_params(BETA_K, lam, 1.0, variant)
    xs = XS * (1.0 + 1e-3)
    got = htransform_direct(aug, F_EXP, xs, SP, engine._REPR_TOL).values
    ref = np.array([_pointwise_direct(aug, F_EXP, x, engine._REPR_TOL) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_direct_route_never_sums_the_kernel_pointwise(monkeypatch):
    def pointwise(rule, logx):
        raise AssertionError("pointwise kernel line sum on the direct route")

    monkeypatch.setattr(LineRule, "__call__", pointwise)
    res = htransform_direct(EXP_K, F_EXP, XS, SP)
    assert np.max(np.abs(res.values * (1.0 + XS) - 1.0)) < 1e-9
    for lam in (1.0, -1.0):
        htransform_repr(BETA_K, F_EXP, lam, 1.0, XS, SP)


def test_mellin_route_exp_kernel():
    res = htransform_mellin(EXP_K, F_EXP, XS, SP)
    oracle = 1.0 / (1.0 + XS)
    assert np.max(np.abs(res.values - oracle) / oracle) < 1e-9


@pytest.mark.parametrize("xs", [[1.0, 0.0], [-2.0], [math.nan], [math.inf]])
def test_direct_route_rejects_bad_x(xs):
    # and so do the Mellin and plan routes
    plan = plan_factorization(EXP_K, SP.nu, SP.r)
    for route in (lambda: htransform_direct(EXP_K, F_EXP, xs, SP),
                  lambda: htransform_mellin(EXP_K, F_EXP, xs, SP),
                  lambda: apply_plan(plan, F_EXP, xs)):
        with pytest.raises(ParameterError, match="x must be positive"):
            route()


@pytest.mark.parametrize("case", range(1, 10))
def test_mellin_route_error_estimate_meets_tol(case):
    # the default tol is 1e-10; the line is refined to half of it
    params, nu, r = canonical_params(case)
    res = htransform_mellin(params, F_TEXP, [0.5, 1.3, 3.0], SpaceSpec(nu, r))
    assert np.max(res.error_estimates) <= 5e-11


def test_mellin_route_error_estimates_per_x():
    # each x carries its own estimate, not the worst point's
    grid = np.geomspace(1e-2, 1e2, 64)
    res = htransform_mellin(EXP_K, F_TEXP, grid, SP)
    assert res.error_estimates.shape == grid.shape
    assert np.unique(res.error_estimates).size > 1


def test_repr_route_both_variants():
    oracle = 1.0 / (1.0 + XS)
    up = htransform_repr(EXP_K, F_EXP, 1.0, 1.0, XS, SP)
    assert np.max(np.abs(up.values - oracle) / oracle) < 1e-6
    down = htransform_repr(EXP_K, F_EXP, -1.0, 1.0, XS, SP)
    assert np.max(np.abs(down.values - oracle) / oracle) < 1e-6


def test_repr_route_boundary_rejected():
    thr = (1.0 - SP.nu) * 1.0 - 1.0
    with pytest.raises(HypothesisError, match="boundary"):
        htransform_repr(EXP_K, F_EXP, thr, 1.0, XS, SP)


def test_repr_route_inadmissible_augmented_kernel():
    params, nu, _ = canonical_params(1)
    with pytest.raises(HypothesisError,
                       match="augmented kernel inadmissible for direct evaluation"):
        htransform_repr(params, F_EXP, 1.0, 1.0, XS, SpaceSpec(nu, 2.0))


def test_plan_route_exp_kernel():
    plan = plan_factorization(EXP_K, 0.5, 2.0)
    res = apply_plan(plan, F_EXP, XS)
    oracle = 1.0 / (1.0 + XS)
    assert np.max(np.abs(res.values - oracle) / oracle) < 1e-6


def test_zero_function_through_plan():
    plan = plan_factorization(EXP_K, 0.5, 2.0)
    res = apply_plan(plan, TestFunction.zero(), XS)
    assert np.max(np.abs(res.values)) < 1e-14


def test_multiplier_whose_cut_leaves_no_panel():
    # every coefficient of f = 0 is dead: no panel survives the cut
    chain = plan_factorization(EXP_K, 0.5, 2.0).chain
    mult = next(op for op in chain if op.kind == "multiplier")
    out = mult.apply(LiveFunction(TestFunction.zero(), 0.5))
    assert np.array_equal(out(XS), np.zeros(XS.size))


def test_multipliers_share_one_set_of_line_tables():
    # two canonical multipliers on different inputs: their Mellin line
    # samples sit at the same contour nodes, so one set of tables serves both
    mults = [next(op for op in plan_factorization(*canonical_params(case)[:2], 2.0).chain
                  if op.kind == "multiplier") for case in (1, 5)]
    quadrature._lattice_tables.cache_clear()
    mults[0].apply(LiveFunction(F_TEXP, 0.5))
    mults[1].apply(LiveFunction(TestFunction.gaussian(0.3, 0.5), 0.5))
    info = quadrature._lattice_tables.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


@pytest.mark.parametrize("case", [7, 9])
def test_mirrored_cases_near_strip_edge_raise_or_agree(case):
    # at nu = 0.06 the doubly reflected input of cases 7 and 9 overflows
    # past |log x| = 709; apply_plan must raise, not return other values
    params, _, _ = canonical_params(case)
    ref = apply_plan(plan_factorization(params, 0.5, 2.0), F_EXP, XS).values
    assert abs(ref[1] - {7: 0.22778775, 9: 0.11129511}[case]) < 1e-8
    try:
        near = apply_plan(plan_factorization(params, 0.06, 2.0), F_EXP, XS).values
    except DivergentIntegralError:
        return
    assert np.max(np.abs(near - ref)) < 1e-5


def test_direct_route_inadmissible_for_case1():
    params, nu, r = canonical_params(1)
    with pytest.raises(HypothesisError, match="direct route inadmissible"):
        htransform_direct(params, F_EXP, XS, SpaceSpec(nu, 2.0))


def test_route_agreement_beta_kernel():
    d = htransform_direct(BETA_K, F_EXP, XS, SP)
    m = htransform_mellin(BETA_K, F_EXP, XS, SP)
    p = apply_plan(plan_factorization(BETA_K, 0.5, 2.0), F_EXP, XS)
    scale = np.abs(d.values)
    assert np.max(np.abs(d.values - m.values) / scale) < 1e-6
    assert np.max(np.abs(d.values - p.values) / scale) < 1e-5


def test_beta_kernel_plan_route_matches_closed_form():
    # H^{1,1}_{1,1}[(0,1);(0,1)] maps e^{-t} to e^{1/x} E_1(1/x) / x; both
    # Laplace steps of the case 5 chain sum on their input's table lattice
    p = apply_plan(plan_factorization(BETA_K, 0.5, 2.0), F_EXP, XS)
    ref = np.exp(1.0 / XS) * exp1(1.0 / XS) / XS
    assert np.max(np.abs(p.values - ref) / np.abs(ref)) < 1e-12


def test_plan_route_case1_agrees_with_mellin():
    params, nu, r = canonical_params(1)
    m = htransform_mellin(params, F_EXP, XS, SpaceSpec(nu, 2.0))
    p = apply_plan(plan_factorization(params, nu, r), F_EXP, XS)
    assert np.max(np.abs(m.values - p.values) / np.abs(m.values)) < 1e-5


@pytest.mark.parametrize("case, gate", [(5, 1e-5), (6, 1e-5), (7, 1e-5),
                                        (8, 5e-5), (9, 5e-5)])
def test_plan_route_on_hard_edge_agrees_with_mellin(case, gate):
    # tpow:0 stops at t = 1; the multiplier step's line samples split there.
    # The values lie between 0.07 and 0.8; the gates are absolute.
    params, nu, r = canonical_params(case)
    f = TestFunction.builtin("tpow:0")
    m = htransform_mellin(params, f, XS, SpaceSpec(nu, r))
    p = apply_plan(plan_factorization(params, nu, r), f, XS)
    assert np.max(np.abs(m.values - p.values)) < gate


def test_plan_route_bessel_is_hankel_transform():
    params, nu, r = canonical_params(3)
    m = htransform_mellin(params, F_EXP, XS, SpaceSpec(nu, r))
    p = apply_plan(plan_factorization(params, nu, r), F_EXP, XS)
    assert np.max(np.abs(m.values - p.values) / np.abs(m.values)) < 1e-5
    # classical reduction: this kernel transform of e^-t is e^-x
    assert np.max(np.abs(m.values - np.exp(-XS))) < 1e-8


def test_plan_route_ek_left_chain_agrees_with_mellin():
    # case 2 with m = 0 anchors on the upper strip edge: the chain ends in
    # the left Erdelyi-Kober operator
    params = transpose_params(canonical_params(2)[0])
    plan = plan_factorization(params, 0.5, 2.0)
    assert plan.chain[-1].kind == "ek-left"
    xs = np.array([0.5, 1.3, 3.0])
    m = htransform_mellin(params, F_TEXP, xs, SpaceSpec(0.5, 2.0))
    p = apply_plan(plan, F_TEXP, xs)
    assert np.max(np.abs(m.values - p.values) / np.abs(m.values)) < 1e-5


def test_plan_route_ek_left_chain_meets_mellin_on_gauss():
    # the left Erdelyi-Kober step reads the dilated multiplier output itself
    params = transpose_params(canonical_params(2)[0])
    xs = np.array([0.05, 0.5, 1.3, 3.0, 20.0])
    f = TestFunction.builtin("gauss")
    m = htransform_mellin(params, f, xs, SpaceSpec(0.5, 2.0))
    p = apply_plan(plan_factorization(params, 0.5, 2.0), f, xs)
    assert np.max(np.abs(m.values - p.values)) < 1e-9 * np.max(np.abs(m.values))


@pytest.mark.parametrize("lower, nu", [((-0.8978 - 0.3885j, 1.18627), -0.1284),
                                       ((-0.6, 1.3), -0.3)])
def test_plan_basic_kernel_with_zero_re_omega(lower, nu):
    # H^{1,0}_{0,1}[(b, beta)] is case 6 with omega = i Im b; rounding makes
    # Re omega -1.1e-16, which must not add an EK step of order ~1e-16
    params = validate_params(1, 0, 0, 1, [], [lower])
    plan = plan_factorization(params, nu, 2.0)
    assert abs(plan.chain_params["omega"].real) < 1e-12
    assert [op.kind for op in plan.chain] == ["reflect", "multiplier", "reflect",
                                              "laplace", "dilate"]
    xs = np.array([0.5, 1.3, 3.0])
    m = htransform_mellin(params, F_TEXP, xs, SpaceSpec(nu, 2.0))
    p = apply_plan(plan, F_TEXP, xs)
    assert np.max(np.abs(m.values - p.values)) < 1e-9 * np.max(np.abs(m.values))


def test_plan_route_complex_ek_order_meets_mellin():
    # a case 6 chain ending in a right EK step of order 0.22 + 0.63i
    params = validate_params(2, 0, 0, 2, [], [(0.8384 - 0.3298j, 1.4011),
                                             (0.3293 - 0.2998j, 0.821)])
    plan = plan_factorization(params, 0.45, 2.0)
    ek = plan.chain[-2]
    assert ek.kind == "ek-right" and abs(complex(ek.alpha).imag) > 0.5
    xs = np.array([0.5, 1.3, 3.0])
    m = htransform_mellin(params, F_TEXP, xs, SpaceSpec(0.45, 2.0))
    p = apply_plan(plan, F_TEXP, xs)
    assert np.max(np.abs(m.values - p.values)) < 1e-9 * np.max(np.abs(m.values))


@pytest.mark.parametrize("case, n_x, tables", [(2, 3, 0), (2, 64, 1), (3, 3, 1)])
def test_plan_route_tabulates_for_hankel_and_many_ek_arguments(case, n_x, tables,
                                                               monkeypatch):
    # EK samples its input on its own lattice until its head nodes per
    # argument outnumber a table's points (about 1.6k here); Hankel always
    # reads a table
    calls = []

    def counting(live, **kwargs):
        calls.append(live)
        return tabulate(live, **kwargs)

    monkeypatch.setattr(engine, "tabulate", counting)
    params, nu, r = canonical_params(case)
    xs = np.geomspace(0.5, 2.0, n_x)
    p = apply_plan(plan_factorization(params, nu, r), F_TEXP, xs)
    assert len(calls) == tables
    if case == 2:
        m = htransform_mellin(params, F_TEXP, xs, SpaceSpec(nu, r))
        assert np.max(np.abs(m.values - p.values)) < 1e-9 * np.max(np.abs(m.values))


_CANONICAL_OPS = {
    1: ["reflect", "multiplier", "dilate"],
    2: ["reflect", "multiplier", "dilate", "ek-right"],
    3: ["multiplier", "power-weight", "hankel", "power-weight", "dilate"],
    4: ["reflect", "multiplier", "power-weight", "hankel", "power-weight",
        "dilate", "reflect"],
    5: ["reflect", "multiplier", "laplace", "laplace", "dilate"],
    6: ["reflect", "multiplier", "reflect", "laplace", "dilate"],
    7: ["reflect", "reflect", "multiplier", "reflect", "laplace", "dilate",
        "reflect"],
    8: ["reflect", "multiplier", "power-weight", "laplace", "hankel",
        "power-weight", "dilate"],
    9: ["reflect", "reflect", "multiplier", "power-weight", "laplace", "hankel",
        "power-weight", "dilate", "reflect"],
}


def test_plan_json_names_every_op():
    plans = [(plan_factorization(*canonical_params(case)), _CANONICAL_OPS[case])
             for case in range(1, 10)]
    plans.append((plan_factorization(transpose_params(canonical_params(2)[0]),
                                     0.5, 2.0),
                  ["reflect", "multiplier", "dilate", "ek-left"]))
    for plan, ops in plans:
        blob = json.loads(json.dumps(plan.to_json()))
        assert [step["op"] for step in blob["chain"]] == ops
        assert blob["case"] == plan.case_label


def test_nu_independence():
    a = htransform_mellin(EXP_K, F_EXP, XS, SpaceSpec(0.5, 2.0))
    b = htransform_mellin(EXP_K, F_EXP, XS, SpaceSpec(0.75, 2.0))
    assert np.max(np.abs(a.values - b.values)) < 1e-6


def test_best_route_fallback_order():
    assert best_route(EXP_K, F_EXP, XS, SP).route == "direct"
    params1, nu, r = canonical_params(1)
    res = best_route(params1, F_EXP, XS, SpaceSpec(nu, 2.0))
    assert res.route == "mellin"


# e^-t sampled on a grid: no closed-form Mellin data, so routes that need it
# fall back to the factorization chain
_GRID_T = np.geomspace(1e-9, 60.0, 6000)
_GRID_EXP = GridFunction(_GRID_T, np.exp(-_GRID_T))


def test_best_route_falls_back_to_the_plan_on_grid_data():
    params, nu, r = canonical_params(1)
    space = SpaceSpec(nu, r)
    res = best_route(params, _GRID_EXP, XS, space)
    ref = htransform_mellin(params, F_EXP, XS, space).values
    assert res.route == "plan"
    assert np.max(np.abs(res.values - ref)) < 1e-5 * np.max(np.abs(ref))


def test_bilinear_check_falls_back_to_the_plan_on_grid_data():
    params, nu, r = canonical_params(1)
    assert bilinear_check(params, _GRID_EXP, F_EXP, SpaceSpec(nu, r)) < 1e-6


def test_transform_result_admissibility_record():
    res = htransform_direct(EXP_K, F_EXP, XS, SP)
    ok, reason = res.admissibility["direct-integral"]
    assert ok and reason


# -- bilinear pairing ----------------------------------------------------------

def test_bilinear_exp_kernel():
    res = bilinear_check(EXP_K, F_EXP, F_TEXP, SP)
    assert res < 1e-8


def test_bilinear_symmetric_input():
    res = bilinear_check(EXP_K, F_EXP, F_EXP, SP)
    assert res < 1e-12


def test_bilinear_beta_kernel():
    res = bilinear_check(BETA_K, F_EXP, TestFunction.power_exp(0.0, 2.0), SP)
    assert res < 1e-8


# -- misc engine pieces ---------------------------------------------------------

def test_tabulate_accuracy():
    live = LiveFunction(lambda x: np.exp(-1.0 / x) / x, 0.5)
    tab = tabulate(live)
    xs = np.geomspace(0.03, 30.0, 23)
    assert np.max(np.abs(tab(xs) - np.exp(-1.0 / xs) / xs)) < 1e-9


def test_tabulate_returns_its_lattice():
    live = LiveFunction(lambda x: x * np.exp(-x), 0.5)
    tab = tabulate(live)
    assert isinstance(tab, LogGrid) and tab.nu == 0.5
    assert np.allclose(np.diff(tab.taus), tab.h)
    assert np.array_equal(tab.values, live(np.exp(tab.taus)))
    # the interpolant returns the samples on the lattice and zero off the table
    assert np.allclose(tab(np.exp(tab.taus)), tab.values, rtol=0, atol=1e-11)
    assert np.all(tab(np.exp([tab.taus[0] - 1.0, tab.hi + 1.0])) == 0.0)
    empty = tabulate(LiveFunction(lambda x: np.zeros_like(x), 0.5))
    assert empty.taus.size == 0 and np.all(empty(XS) == 0.0)
    out = LaplaceOp(1.0, 0.0).apply(LiveFunction(empty, 0.5))
    assert np.all(out(XS) == 0.0)


def test_tabulate_lattice_points_sit_where_the_interpolant_reads_them():
    tab = tabulate(LiveFunction(lambda x: x * np.exp(-x), 0.5))
    assert np.array_equal(tab.taus, tab.taus[0] + tab.h * np.arange(tab.taus.size))
    # the last sample lies at or past hi, where the table is zero
    got = tab(np.exp(tab.taus))
    assert tab.taus[-1] >= tab.hi - 1e-12 and got[-1] == 0.0
    np.testing.assert_allclose(got[:-1], tab.values[:-1], rtol=1e-15, atol=0)


_TEXP_LIVE = LiveFunction(lambda t: t * np.exp(-t), 0.5)


def _laplace_texp_by_quad(kappa, alpha, x):
    # the modified Laplace transform of f = t e^{-t} by adaptive quadrature
    # over the whole tau = log u line, split where the weight and the input
    # turn over: for kappa > 0 the integrand falls only like
    # e^{(2 - Re alpha) tau} as tau -> -inf, so no finite cut is safe.  The
    # integrand is one complex exponent; a part (real or imaginary) that
    # cancels to far below the integral of |g| is taken to 1e-14 of that
    # integral, not to 1e-13 of itself, which roundoff would prevent.
    a1, ak, logx = 2.0 - alpha, abs(kappa), math.log(x)

    def g(tau):
        # exponents past 700 only ever drive the integrand to 0
        e = (a1 * tau - 2.0 * logx - ak * math.exp(min(tau / kappa, 700.0))
             - math.exp(min(tau - logx, 700.0)))
        return complex(np.exp(e)) if e.real > -745.0 else 0j

    cuts = [-math.inf] + sorted([0.0, logx]) + [math.inf]
    pieces = list(zip(cuts[:-1], cuts[1:]))
    mag = sum(quad(lambda t: abs(g(t)), lo, hi, limit=400)[0] for lo, hi in pieces)
    return sum(quad(g, lo, hi, limit=400, epsabs=1e-14 * mag, epsrel=1e-13,
                    complex_func=True)[0] for lo, hi in pieces)


@settings(max_examples=40, deadline=None)
@given(kappa=st.floats(0.25, 2.0), negative=st.booleans(),
       re_alpha=st.floats(-1.0, 1.9), im_alpha=st.sampled_from([0.0, -1.3, 0.4, 2.0]),
       logx=st.lists(st.floats(-5.0, 5.0), max_size=4))
def test_laplace_grid_sum_matches_pointwise_oracle(kappa, negative, re_alpha, im_alpha,
                                                   logx):
    # the input is summed on its table's lattice.  For kappa > 0 and
    # Re alpha > 1 the weight grows toward tau -> -inf, so the table must
    # reach below where |f| alone falls to 1e-17 of its peak.  The drawn x
    # join a fixed spread over e^-5..e^5, which sets the scale max|value|.
    kappa = -kappa if negative else kappa
    alpha = complex(re_alpha, im_alpha)
    x = np.exp(np.concatenate([np.linspace(-5.0, 5.0, 9), logx]))
    grid = LaplaceOp(kappa, alpha).apply(_TEXP_LIVE)(x)
    ref = np.array([_laplace_texp_by_quad(kappa, alpha, xi) for xi in x])
    assert np.max(np.abs(grid - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=12, deadline=None)
@given(kappa=st.floats(0.05, 0.25), negative=st.booleans(),
       re_alpha=st.floats(-1.0, 1.9), im_alpha=st.sampled_from([0.0, -1.3, 0.4]))
def test_laplace_grid_sum_small_kappa_matches_quadrature(kappa, negative, re_alpha,
                                                         im_alpha):
    # the weight cuts off over a width ~|kappa| in tau, so the lattice must
    # refine with |kappa|
    kappa = -kappa if negative else kappa
    alpha = complex(re_alpha, im_alpha)
    x = np.exp(np.linspace(-5.0, 5.0, 5))
    grid = LaplaceOp(kappa, alpha).apply(_TEXP_LIVE)(x)
    ref = np.array([_laplace_texp_by_quad(kappa, alpha, xi) for xi in x])
    assert np.max(np.abs(grid - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_laplace_index_zero_and_nonpositive_argument_raise():
    with pytest.raises(HypothesisError, match="kappa != 0"):
        LaplaceOp(0.0, 0.3)
    with pytest.raises(HypothesisError, match="kappa != 0"):
        laplace_mod(0.0, 0.3, F_TEXP, 1.0)
    with pytest.raises(ParameterError, match="positive"):
        laplace_mod(1.0, 0.3, F_TEXP, np.array([1.0, 0.0]))
    with pytest.raises(ParameterError, match="positive"):
        laplace_mod(-1.0, 0.3, F_TEXP, -2.0)


def test_laplace_mod_probes_a_recorded_function_once():
    # f keeps its own Support record, so every LiveFunction laplace_mod wraps
    # it in shares the record's probes: after the first call, a call
    # evaluates f once, at its table's points, and returns the same values
    class Counting:
        def __init__(self):
            self.calls, self.sizes = 0, []

        @functools.cached_property
        def support(self):
            return Support(self)

        def __call__(self, t):
            t = np.atleast_1d(t)
            self.calls += 1
            self.sizes.append(t.size)
            return F_TEXP(t)

    f = Counting()
    x = [0.5, 1.3]
    first = laplace_mod(1.2, 0.0, f, x)
    probe_calls, table = f.calls, f.sizes[-1]
    for _ in range(2):
        assert np.array_equal(laplace_mod(1.2, 0.0, f, x), first)
    assert f.calls == probe_calls + 2
    assert f.sizes[probe_calls:] == [table, table]


# -- chain steps read on a lattice ------------------------------------------------

# (h, n, t0): n on both sides of the multiplier's runs of 64 points; lattices
# that straddle tau = 0 and ones that start past it, the latter only where
# they end below tau = 700, short of the float range of e^tau
_LATTICES = [(h, n, t0) for h in (0.05, 0.5) for n in (1, 64, 65, 1601)
             for t0 in (-0.37 - 0.5 * (n - 1) * h, 0.37) if t0 + (n - 1) * h < 700.0]
# the smooth factor of each elementary step: e^(power tau) live(e^(sign (tau - shift)))
_CARRIED = {"reflect": lambda p: (-1.0, 0.0, -1.0),
            "power-weight": lambda p: (1.0, 0.0, complex(p.zeta).real),
            "dilate": lambda p: (1.0, math.log(p.factor), 0.0)}


def _chain_reads(case):
    """(kind, output, scale) for the steps of a canonical chain on t e^-t.

    scale(taus) is the size of the rounding a read of the output carries
    besides max|value|: a multiplier's line sum at l rounds in units of
    sum|coeff| e^(-gamma l) (see test_line_rule_progression_matches_dense_
    long_double_sum), carried on by the elementary steps after it as
    S e^(a tau + b); 0 for outputs not reading a multiplier.  Outputs past a
    Hankel or EK step read it pointwise whatever the argument.
    """
    params, nu, r = canonical_params(case)
    live, rounding, reads = LiveFunction(F_TEXP, nu), None, []
    for prim in plan_factorization(params, nu, r).chain:
        out = prim.apply(live)
        if prim.kind == "multiplier":
            rule = LineRule(lambda s, p=prim, f=live: p.symbol.eval(s) * mellin_line_samples(f, s),
                            live.nu, engine._MULTIPLIER_HALF_HEIGHT, engine._MULTIPLIER_NODES)
            rounding = (float(np.sum(np.abs(rule.coeff))), -live.nu, 0.0)
        elif prim.kind in _CARRIED and rounding is not None:
            sign, shift, power = _CARRIED[prim.kind](prim)
            total, a, b = rounding
            rounding = (total, sign * a + power, b - a * sign * shift)
        else:
            rounding = None
        reads.append((prim.kind, out, rounding))
        live = out
    return reads


@pytest.mark.parametrize("case", range(1, 10))
def test_chain_steps_read_on_a_lattice_as_pointwise(case):
    # the lattice read (closed lattice form, forwarded through the
    # elementary steps) against the pointwise read at the same points.  Past
    # a Hankel step every point costs a Hankel transform either way and
    # nothing below reads a lattice, so those steps take n = 1 only
    past_hankel = False
    for kind, out, rounding in _chain_reads(case):
        past_hankel |= kind == "hankel"
        if kind not in ("reflect", "power-weight", "dilate", "multiplier", "laplace"):
            continue
        for h, n, t0 in _LATTICES:
            if past_hankel and n > 1:
                continue
            taus = t0 + h * np.arange(n)
            x = Lattice(taus, h)
            assert x.t0 == t0 and np.array_equal(x, np.exp(taus))
            got, ref = out(x), out(np.exp(taus))
            scale = np.max(np.abs(ref))
            if rounding is not None:
                total, a, b = rounding
                with np.errstate(over="ignore"):
                    scale = scale + total * np.exp(a * taus + b)
            bad = ~(np.abs(got - ref) <= 1e-13 * scale)
            assert not bad.any(), (kind, h, n, t0, taus[bad][:3], np.abs(got - ref)[bad][:3])


def test_laplace_lattice_off_its_grid_takes_the_dense_sum():
    # a step that is no integer multiple of the table's 0.05, and a
    # negative one, are summed densely, bitwise as at plain points
    out = LaplaceOp(1.0, 0.3 + 0.5j).apply(_TEXP_LIVE)
    for h in (0.07, 0.025, 0.15):
        taus = -3.1 + h * np.arange(200)
        assert np.array_equal(out(Lattice(taus, h)), out(np.exp(taus)))
    taus = 3.1 - 0.05 * np.arange(200)
    np.testing.assert_allclose(out(Lattice(taus, -0.05)), out(np.exp(taus)),
                               rtol=0, atol=1e-13 * np.max(np.abs(out(np.exp(taus)))))


def test_lattice_views_are_plain_points():
    x = Lattice(-1.0 + 0.5 * np.arange(8), 0.5)
    assert x.h == 0.5 and x.reversed().t0 == 2.5 and x.reversed().h == -0.5
    for derived in (x[1:], x.copy(), x.reshape(2, 4), np.log(x), Lattice(np.zeros(0), 0.5)):
        assert getattr(derived, "t0", None) is None
    calls = []
    live = LiveFunction(lambda t: calls.append(type(t)) or t, 0.5)
    # without a lattice reader, fn gets the lattice unchanged
    assert np.array_equal(live(x), x) and calls == [Lattice]


@pytest.mark.parametrize("case", [5, 8])
def test_plan_reads_its_multiplier_only_on_lattices_and_at_xs(case, monkeypatch):
    # tabulate and the Support profile read the multiplier's output on
    # lattices, from phase tables; only the caller's xs may reach the
    # pointwise sum
    sizes = []
    pointwise = LineRule.__call__

    def counting(rule, logx):
        sizes.append(np.size(logx))
        return pointwise(rule, logx)

    monkeypatch.setattr(LineRule, "__call__", counting)
    xs = np.array([0.5, 1.3, 3.0])
    apply_plan(plan_factorization(*canonical_params(case)), F_TEXP, xs)
    assert max(sizes, default=0) <= xs.size


def test_laplace_grid_sum_memory_stays_below_dense_matrix():
    # the weights are built 64 rows at a time, never n_x x n at once
    live = LiveFunction(lambda t: np.sqrt(t) * np.exp(-t), 0.5)
    n = tabulate(live).taus.size
    assert n >= 1500
    out = LaplaceOp(1.0, 0.3 + 0.5j).apply(live)
    x = np.exp(np.linspace(-5.0, 5.0, 2000))
    tracemalloc.start()
    try:
        out(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * x.size * n * 16


def test_apply_plan_checks_membership():
    plan = plan_factorization(EXP_K, 0.5, 2.0)
    bad = TestFunction.power_exp(-0.8, 1.0)  # not in the nu = 0.5 space
    with pytest.raises(HypothesisError, match="weighted space"):
        apply_plan(plan, bad, XS)


def test_injectivity_smoke():
    # distinct inputs produce transforms with distinct Mellin data
    plan = plan_factorization(EXP_K, 0.5, 2.0)
    r1 = apply_plan(plan, F_EXP, XS)
    r2 = apply_plan(plan, F_TEXP, XS)
    assert np.min(np.abs(r1.values - r2.values)) > 1e-3
