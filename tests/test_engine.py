"""Factorization plans, route agreement, representation route, bilinearity."""

import dataclasses
import math

import numpy as np
import pytest

from foxh import (
    DivergentIntegralError,
    FoxHError,
    HypothesisError,
    NumericalError,
    ParameterError,
    SpaceSpec,
    TestFunction,
    apply_plan,
    best_route,
    bilinear_check,
    derive_invariants,
    htransform_direct,
    htransform_mellin,
    htransform_repr,
    log_gamma,
    plan_factorization,
    validate_params,
    verify_plan_symbol,
)
from foxh.engine import (
    EKLeft,
    EKRight,
    HankelOp,
    LaplaceOp,
    LiveFunction,
    chain_action,
    tabulate,
)

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

        sym, a, b = EKLeft(alpha, sigma, eta).mellin_action()
        assert (a, b) == (0.0, 1.0)
        assert _log_ratio_close(sym.eval_log(s), log_gamma(1 + eta - s / sigma)
                                - log_gamma(1 + eta + alpha - s / sigma))

        sym, a, b = EKRight(alpha, sigma, eta).mellin_action()
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
        checked += 1


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


def test_mellin_route_exp_kernel():
    res = htransform_mellin(EXP_K, F_EXP, XS, SP)
    oracle = 1.0 / (1.0 + XS)
    assert np.max(np.abs(res.values - oracle) / oracle) < 1e-9


@pytest.mark.parametrize("xs", [[1.0, 0.0], [-2.0], [math.nan], [math.inf]])
def test_direct_route_rejects_bad_x(xs):
    with pytest.raises(ParameterError, match="x must be positive"):
        htransform_direct(EXP_K, F_EXP, xs, SP)


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


def test_nu_independence():
    a = htransform_mellin(EXP_K, F_EXP, XS, SpaceSpec(0.5, 2.0))
    b = htransform_mellin(EXP_K, F_EXP, XS, SpaceSpec(0.75, 2.0))
    assert np.max(np.abs(a.values - b.values)) < 1e-6


def test_best_route_fallback_order():
    assert best_route(EXP_K, F_EXP, XS, SP).route == "direct"
    params1, nu, r = canonical_params(1)
    res = best_route(params1, F_EXP, XS, SpaceSpec(nu, 2.0))
    assert res.route == "mellin"


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
    live = LiveFunction(lambda x: np.exp(-1.0 / x) / x, 0.5, cost=1)
    tab = tabulate(live)
    xs = np.geomspace(0.03, 30.0, 23)
    assert np.max(np.abs(tab(xs) - np.exp(-1.0 / xs) / xs)) < 1e-9


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
