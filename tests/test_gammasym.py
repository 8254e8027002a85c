"""Symbol algebra, magnitude envelope, auxiliary symbols, zero probing."""

import math

import mpmath
import numpy as np
import pytest

from foxh import (
    GammaSymbol,
    PoleError,
    PoleOnLineError,
    TestFunction,
    asymptotic_log_derivative,
    asymptotic_magnitude,
    derive_invariants,
    digamma,
    find_zeros_on_line,
    log_gamma,
    plan_factorization,
    symbol_from_params,
    transpose_params,
    validate_params,
)
from foxh.engine import chain_action
from foxh.gammasym import AsymptoticEstimate

from conftest import (
    EDGE_ZERO_K,
    SQUARE_K,
    canonical_params,
    gamma_abs_half_line,
    line_in_strip,
    random_params,
)


EXP = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])
BETA1 = validate_params(1, 1, 1, 1, [(0.0, 1.0)], [(0.0, 1.0)])


# -- construction and evaluation -------------------------------------------

def test_symbol_from_exp_kernel():
    sym = symbol_from_params(EXP)
    assert abs(sym.eval(2.0) - 1.0) < 1e-13          # Gamma(2) = 1
    assert abs(sym.eval(0.5) - math.sqrt(math.pi)) < 1e-12


def test_symbol_identical_factor_cancellation():
    p = validate_params(1, 0, 1, 1, [(1.0, 1.0)], [(1.0, 1.0)])
    sym = symbol_from_params(p)
    for s in (0.3, 1.1 + 0.7j, -0.2 + 2.0j):
        assert abs(sym.eval(s) - 1.0) < 1e-12


def test_symbol_beta_kernel():
    sym = symbol_from_params(BETA1)  # Gamma(s) Gamma(1presume-s) with a=1
    assert abs(sym.eval(0.5) - math.pi) < 1e-12


def test_symbol_counts_match_orders(rng):
    for _ in range(20):
        p = random_params(rng)
        sym = symbol_from_params(p)
        assert len(sym.num) == p.m + p.n
        assert len(sym.den) == (p.p - p.n) + (p.q - p.m)


def test_compose_multiply_and_reflect():
    g_s = GammaSymbol(num=((0j, 1.0),))           # Gamma(s)
    g_refl = g_s.substitute(1.0, -1.0)            # Gamma(1-s)
    assert abs(g_refl.eval(0.0) - 1.0) < 1e-13
    prod = g_s * GammaSymbol(num=((1.0 + 0j, -1.0),))
    assert abs(prod.eval(0.5) - math.pi) < 1e-12  # Gamma(1/2)^2


def test_compose_power_prefactor():
    g_s = GammaSymbol(num=((0j, 1.0),))
    comp = GammaSymbol.power(2.0, 0.0, -1.0) * g_s
    assert abs(comp.eval(1.0) - 0.5) < 1e-13      # 2^-1 Gamma(1)


def test_compose_scale_argument():
    g_s = GammaSymbol(num=((0j, 1.0),))
    scaled = g_s.substitute(0.0, 2.0)             # Gamma(2s)
    assert abs(scaled.eval(0.25) - math.sqrt(math.pi)) < 1e-12


def test_substitute_is_evaluation_at_affine_argument(rng):
    for _ in range(10):
        sym = symbol_from_params(random_params(rng)) \
            * GammaSymbol.power(rng.uniform(0.2, 3.0), 0.3 - 0.1j, rng.uniform(-2, 2))
        a = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        b = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))
        s = complex(rng.uniform(-0.5, 0.5), rng.uniform(-3, 3))
        try:
            ref = sym.eval_log(a + b * s)
        except PoleError:
            continue
        got = sym.substitute(a, b).eval_log(s)
        assert abs(np.exp(got - ref) - 1.0) < 1e-12


def test_eval_log_continuity_along_contour():
    sym = symbol_from_params(BETA1)
    t = np.linspace(-30.0, 30.0, 4001)
    vals = sym.eval_log(0.5 + 1j * t)
    jumps = np.abs(np.diff(vals.imag))
    assert jumps.max() < 0.2  # no branch snapping


def test_symbol_json_roundtrip():
    sym = symbol_from_params(BETA1) * GammaSymbol.power(2.0, 0.5, -1.0)
    back = GammaSymbol.from_json(sym.to_json())
    s = 0.4 + 1.3j
    assert abs(back.eval(s) - sym.eval(s)) < 1e-13


# -- one gamma batch per symbol ----------------------------------------------

def _per_factor(sym, s, kernel):
    """eval_log (kernel log_gamma) or log_derivative (kernel digamma) with
    one kernel call per factor, summed num, den, powers in listed order."""
    s = np.asarray(s, dtype=complex)
    total = np.zeros_like(s)
    deriv = kernel is digamma
    for sign, group in ((1.0, sym.num), (-1.0, sym.den)):
        for c, w in group:
            row = kernel(c + w * s)
            row = w * row if deriv else row
            total = total + row if sign > 0 else total - row
    if deriv:
        return total + sum((complex(v) * math.log(b) for (b, _, v) in sym.powers), 0.0j)
    for b, u, v in sym.powers:
        total = total + (u + v * s) * math.log(b)
    return total


def _same_bits(got, ref):
    return np.asarray(got, dtype=complex).tobytes() == np.asarray(ref, dtype=complex).tobytes()


def _batch_symbols(rng):
    syms = [symbol_from_params(random_params(rng))
            * GammaSymbol.power(rng.uniform(0.2, 3.0), complex(rng.normal(), rng.normal()),
                                rng.uniform(-2, 2))
            for _ in range(30)]
    syms += [chain_action(plan_factorization(*canonical_params(case)).chain)[0]
             for case in (5, 8, 9)]
    syms += [GammaSymbol.one(),
             GammaSymbol.power(2.0, 0.5, -1.0) * GammaSymbol.power(0.3, 1j, 0.25)]
    return syms


@pytest.mark.parametrize("method, kernel", [("eval_log", log_gamma),
                                            ("log_derivative", digamma)])
def test_one_batch_per_symbol_is_bitwise_the_per_factor_sum(rng, method, kernel):
    t = np.linspace(-40.0, 40.0, 257)
    for sym in _batch_symbols(rng):
        line = rng.uniform(-0.45, 0.45) + 0.05
        points = [line + 1j * t,
                  (line + 1j * t[:240]).reshape(12, 20),
                  complex(line, rng.uniform(-3.0, 3.0))]
        for s in points:
            try:
                ref = _per_factor(sym, s, kernel)
            except PoleError:
                continue
            got = getattr(sym, method)(s)
            assert np.shape(got) == np.shape(s)
            assert _same_bits(got, ref), (sym, s)


@pytest.mark.parametrize("method", ["eval_log", "log_derivative"])
def test_one_batch_per_symbol_raises_on_a_single_factor_pole(method):
    # only Gamma(1 + s) of the four factors has a pole at s = -3
    sym = GammaSymbol(num=((0.5 + 0j, 1.0), (1.0 + 0j, 1.0)),
                      den=((0.25 + 0j, 1.0), (2.5 + 0j, -1.0)))
    for s in (-3.0, np.array([0.3 + 1j, -3.0, 0.7 - 2j]),
              np.array([[0.3, 0.4], [-3.0, 0.7]])):
        with pytest.raises(PoleError):
            getattr(sym, method)(s)


@pytest.mark.parametrize("f", [TestFunction.power_exp(0.7, 1.3), TestFunction.power_exp(1.0, 1.0),
                               TestFunction.gaussian(0.4, 0.8), TestFunction.gaussian(0.0, 0.5)],
                         ids=["pexp", "texp", "gauss-c", "gauss"])
def test_mellin_from_its_symbol_matches_the_closed_forms(f):
    # the closed forms, written out per family
    re = np.linspace(-f.c + 0.2, -f.c + 4.0, 9)
    s = (re[:, None] + 1j * np.linspace(-3.0, 3.0, 13)[None, :]).reshape(-1)
    if f.family == "power-exp":
        ref = np.exp(log_gamma(s + f.c) - (s + f.c) * math.log(f.p))
    else:
        ref = 0.5 * np.exp(log_gamma((s + f.c) / 2.0) - (s + f.c) / 2.0 * math.log(f.p))
    assert np.max(np.abs(f.mellin(s) - ref) / np.abs(ref)) <= 1e-15
    assert TestFunction.trunc_power(0.5).mellin_symbol() is None


# -- auxiliary symbols -------------------------------------------------------

def test_aux_case1_formal_prefactor_cancellation():
    # symbol 2^s with delta = 2: the scaled symbol is identically 1
    formal = GammaSymbol.power(2.0, 0.0, 1.0)
    aux = GammaSymbol.power(2.0, 0.0, -1.0) * formal
    for s in (0.3 + 1.7j, -1.0 + 0.2j, 2.0):
        assert abs(aux.eval(s) - 1.0) < 1e-14


def test_aux_case2_agrees_with_direct_product():
    # m > 0: the plan anchors at the lower edge alpha
    p, nu, r = canonical_params(2)
    inv = derive_invariants(p)
    plan = plan_factorization(p, nu, r)
    assert plan.chain_params["branch"] == "lower"
    sym = symbol_from_params(p)
    for s in (0.6 + 0.9j, 1.4 - 0.3j):
        alpha = inv.alpha_low
        quot = np.exp(log_gamma(s - alpha - inv.mu) - log_gamma(s - alpha))
        direct = quot * sym.eval(s)
        assert abs(plan.aux_symbol.eval(s) / direct - 1.0) < 1e-12


def test_aux_case2_upper_branch_closed_form():
    # the transposed kernel has m = 0, n > 0: the plan anchors at beta and
    # ends in a left Erdelyi-Kober step
    p, nu, r = canonical_params(2)
    tp = transpose_params(p)
    inv = derive_invariants(tp)
    plan = plan_factorization(tp, 1.0 - nu, r)
    assert plan.case_label == 2 and plan.chain_params["branch"] == "upper"
    assert plan.chain[-1].kind == "ek-left"
    sym = symbol_from_params(tp)
    beta = inv.beta_high
    for s in (0.4 + 0.9j, 0.2 - 1.3j, 0.7 + 2.1j):
        quot = np.exp(log_gamma(beta - inv.mu - s) - log_gamma(beta - s))
        assert abs(plan.aux_symbol.eval(s) / (quot * sym.eval(s)) - 1.0) < 1e-12


def test_aux_case8_matches_symbolic_expansion():
    p, nu, r = canonical_params(8)
    inv = derive_invariants(p)
    plan = plan_factorization(p, nu, r)
    cp = plan.chain_params
    eta, zeta, omega = cp["eta"], cp["zeta"], cp["omega"]
    assert omega == inv.a_star * eta - inv.mu - 0.5
    sym = symbol_from_params(p)
    a, a2, dl = inv.a_star, inv.a2_star, inv.delta
    for s in (0.45 + 0.8j, 0.7 - 1.2j):
        expected = (
            a ** (a * (s + eta) - 1.0)
            * abs(a2) ** (-2.0 * a2 * s - omega)
            * np.exp(
                log_gamma(a2 * (s + zeta) + omega)
                - log_gamma(a * (s + eta))
                - log_gamma(a2 * (zeta - s))
            )
            * dl ** (-s)
            * sym.eval(s)
        )
        assert abs(plan.aux_symbol.eval(s) / expected - 1.0) < 1e-12


def test_aux_mirror_cases_use_transposed_kernel():
    p, nu, r = canonical_params(4)
    plan = plan_factorization(p, nu, r)
    partner = plan_factorization(transpose_params(p), 1.0 - nu, r)
    assert (plan.case_label, partner.case_label) == (4, 3)
    assert plan.chain[1:-1] == partner.chain
    s = 0.37 + 0.9j
    assert abs(plan.aux_symbol.eval(s) - partner.aux_symbol.eval(s)) < 1e-12


# -- magnitude envelope and log derivative ----------------------------------

def test_envelope_exp_kernel_against_closed_form():
    inv = derive_invariants(EXP)
    t = 50.0
    est = asymptotic_magnitude(inv, 0.5, t)
    exact = gamma_abs_half_line(t)
    assert 0.99 < exact / est < 1.01


def test_envelope_randomized_ratio(rng):
    # ratio checked in log form so deep exponential decay cannot underflow
    checked = 0
    for _ in range(60):
        p = random_params(rng, w_lo=0.45)
        inv = derive_invariants(p)
        est = AsymptoticEstimate.from_invariants(inv)
        sym = symbol_from_params(p)
        for sigma in (-0.4, 0.3, 1.0):
            for t in (200.0, 1000.0):
                log_est = est.log_value(sigma, t)
                log_val = float(np.real(sym.eval_log(sigma + 1j * t)))
                tol = 0.02 if t == 200.0 else 0.005
                assert abs(math.exp(log_val - log_est) - 1.0) < tol
                checked += 1
    assert checked >= 300


def test_envelope_case1_t_independent():
    p, _, _ = canonical_params(1)
    inv = derive_invariants(p)
    est = AsymptoticEstimate.from_invariants(inv)
    vals = [est.value(0.4, t) for t in (10.0, 100.0, 1000.0)]
    assert max(vals) / min(vals) == pytest.approx(1.0, abs=1e-12)


def test_log_derivative_formula_vs_finite_difference():
    inv = derive_invariants(EXP)
    sym = symbol_from_params(EXP)
    for t in (100.0, 300.0, 1000.0):
        h = 1e-3
        fd = (sym.eval_log(0.5 + 1j * (t + h)) - sym.eval_log(0.5 + 1j * (t - h))) / (2j * h)
        formula = asymptotic_log_derivative(inv, 0.5, t)
        assert abs(fd - formula) <= 10.0 / t**2


def test_log_derivative_case1_reduces_to_remainder():
    p, _, _ = canonical_params(1)
    inv = derive_invariants(p)
    v100 = asymptotic_log_derivative(inv, 0.4, 100.0) - math.log(inv.delta)
    assert abs(v100) < 0.05 / 100.0 * 5  # only the O(1/t) term survives


def test_log_derivative_constant_prefactor_case():
    # delta = 2, a1* = a2* = 0: the expansion is log 2 plus O(1/t)
    sym_inv = derive_invariants(canonical_params(1)[0])
    est = asymptotic_log_derivative(sym_inv, 0.0, 1e6)
    assert est == pytest.approx(math.log(sym_inv.delta), abs=1e-5)


def test_class_a_derivative_decay_for_aux_symbols(rng):
    # |d/ds log aux| = O(1/t) makes |aux'| = O(|aux|/t); checked on substrips
    for case in range(1, 10):
        p, nu, r = canonical_params(case)
        plan = plan_factorization(p, nu, r)
        aux = plan.aux_symbol
        sigma = 1.0 - nu if case not in (3, 4) else nu
        ratios = []
        for t in (40.0, 80.0, 160.0, 320.0):
            ld = complex(aux.log_derivative(sigma + 1j * t))
            drift = abs(ld - complex(aux.log_derivative(sigma + 2j * t)))
            ratios.append(abs(drift) * t)
        assert max(ratios) < 50.0  # bounded t * |variation| means O(1/t) decay


# -- zero probing ------------------------------------------------------------

def test_zero_probe_ratio_symbol():
    # Gamma(1+s)/Gamma(s) = s: single zero at the origin
    p = validate_params(1, 0, 1, 1, [(0.0, 1.0)], [(1.0, 1.0)])
    sym = symbol_from_params(p)
    rep = find_zeros_on_line(sym, 1.0, 5.0, strip=(-1.0, math.inf))
    assert len(rep.zeros) == 1
    z, mult = rep.zeros[0]
    assert abs(z) < 1e-9
    assert mult == 1
    assert rep.in_exceptional_set


def test_zero_probe_gamma_has_none():
    sym = symbol_from_params(EXP)
    rep = find_zeros_on_line(sym, 0.5, 50.0, strip=(0.0, math.inf))
    assert rep.zeros == ()
    assert not rep.in_exceptional_set


def test_zero_probe_reflection_pair_has_none():
    sym = symbol_from_params(BETA1)  # pi / sin(pi s)
    rep = find_zeros_on_line(sym, 0.5, 50.0, strip=(0.0, 1.0))
    assert rep.zeros == ()
    assert not rep.in_exceptional_set


def test_zero_probe_counts_match_structure(rng):
    # argument-principle count equals the number of structural zeros
    p = validate_params(1, 0, 1, 1, [(-0.75, 0.5)], [(2.0, 1.0)])
    sym = symbol_from_params(p)
    # structural zeros: poles of Gamma(-0.75 + 0.5 s): s = (0.75 - k)/0.5...
    struct = sym.structural_zeros(6.0, (0.0, 3.0))
    rep = find_zeros_on_line(sym, 1.0 - 1.5, 6.0, strip=(-2.0, math.inf))
    on_line = [z for (z, m) in rep.zeros]
    assert len(on_line) == sum(
        1 for (z, m) in struct if abs(z.real - 1.5) <= 1e-9 and abs(z.imag) <= 6.0
    )


def test_zero_probe_cancelled_poles_are_not_zeros():
    # Gamma(1+s)/Gamma(s) = s: the poles of Gamma(s) at -1, -2, ... are
    # cancelled upstairs, so Re s = -1 and Re s = -2 carry neither zero nor pole
    p = validate_params(1, 0, 1, 1, [(0.0, 1.0)], [(1.0, 1.0)])
    for nu in (2.0, 3.0):
        rep = find_zeros_on_line(symbol_from_params(p), nu, 5.0)
        assert rep.zeros == () and not rep.in_exceptional_set


def test_zero_probe_pole_on_line_rejected():
    # Gamma(s - 1/2) has a pole at s = 1/2; probing that line must refuse
    sym = GammaSymbol(num=((-0.5 + 0j, 1.0),))
    with pytest.raises(PoleOnLineError):
        find_zeros_on_line(sym, 0.5, 5.0)


def test_zero_report_json():
    p = validate_params(1, 0, 1, 1, [(0.0, 1.0)], [(1.0, 1.0)])
    rep = find_zeros_on_line(symbol_from_params(p), 1.0, 5.0, strip=(-1.0, math.inf))
    blob = rep.to_json()
    assert blob["in_exceptional_set"] is True
    assert blob["zeros"][0]["mult"] == 1
    assert set(blob) == {"line", "window", "zeros", "in_exceptional_set"}


# the three kernels of conftest.ZERO_PROBE_CASES

def test_zero_probe_double_zero_on_line():
    rep = find_zeros_on_line(symbol_from_params(SQUARE_K), 1.0, 5.0,
                             strip=(-1.0, math.inf))
    assert rep.zeros == ((0j, 2),)
    assert rep.in_exceptional_set


def test_zero_probe_two_close_simple_zeros():
    # 1 / (Gamma(s) Gamma(0.2 + s)) vanishes at 0 and -0.2, both near Re s = 0
    sym = GammaSymbol(den=((0j, 1.0), (0.2 + 0j, 1.0)))
    rep = find_zeros_on_line(sym, 1.0, 5.0)
    assert rep.zeros == ((-0.2 + 0j, 1), (0j, 1))
    assert rep.in_exceptional_set


def test_zero_probe_zero_just_inside_the_box():
    # the zero lies 7e-4 inside the box edge |Re s - line| = 1/4
    rep = find_zeros_on_line(symbol_from_params(EDGE_ZERO_K), -2.3032431408038985,
                             5.0, strip=(0.8720495321783714, math.inf))
    assert len(rep.zeros) == 1
    z, mult = rep.zeros[0]
    assert abs(z - (3.5526 - 0.3465j)) < 1e-4 and mult == 1
    assert 0.249 < abs(z.real - rep.line) < 0.25
    assert not rep.in_exceptional_set


def _mp_kernel_symbol(p, s):
    """The kernel's Mellin symbol at s from mpmath's gamma and rgamma."""
    s = mpmath.mpc(s)
    val = mpmath.mpf(1)
    for c, w in p.lower[: p.m]:
        val *= mpmath.gamma(c + w * s)
    for c, w in p.upper[: p.n]:
        val *= mpmath.gamma(1 - c - w * s)
    for c, w in p.upper[p.n:]:
        val *= mpmath.rgamma(c + w * s)
    for c, w in p.lower[p.m:]:
        val *= mpmath.rgamma(1 - c - w * s)
    return val


def test_zero_probe_zeros_and_orders_vs_mpmath(rng):
    # a zero of order m makes |symbol(z + eps)| / eps^m tend to a nonzero
    # constant; a wrong location or order moves the ratio tenfold
    checked = 0
    for _ in range(60):
        p = random_params(rng)
        inv = derive_invariants(p)
        if not inv.alpha_low < inv.beta_high:
            continue
        rep = find_zeros_on_line(symbol_from_params(p), 1.0 - line_in_strip(rng, inv),
                                 10.0, strip=(inv.alpha_low, inv.beta_high))
        for z, m in rep.zeros:
            r4, r5 = (abs(_mp_kernel_symbol(p, z + eps)) / eps ** m
                      for eps in (1e-4, 1e-5))
            assert abs(r4 / r5 - 1.0) < 0.1, (p, z, m)
            checked += 1
    assert checked >= 10
