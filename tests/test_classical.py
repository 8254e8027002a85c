"""Classical operators: Mellin machinery, elementary ops, EK, Hankel, Laplace."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import gamma as scipy_gamma, gammainc

from foxh import (
    DivergentIntegralError,
    GridFunction,
    HypothesisError,
    ParameterError,
    TestFunction,
    ek_fractional,
    hankel_mod,
    laplace_mod,
    lnur_norm,
    log_gamma,
    mellin_inverse_numeric,
    mellin_numeric,
)
from foxh.classical import _line_rule, mellin_line_samples, support_of
from foxh.engine import Dilate, LiveFunction, PowerWeight, Reflect, tabulate
from foxh.gammasym import GammaSymbol

from conftest import exp_series

EXPF = TestFunction.power_exp(0.0, 1.0)


# -- test functions ----------------------------------------------------------

def test_testfunction_self_check_runs():
    f = TestFunction.power_exp(0.7, 1.3)
    s = 1.1 + 0.4j
    assert abs(mellin_numeric(f, s) - f.mellin(s)) < 1e-8


def test_testfunction_membership_witness():
    f = TestFunction.power_exp(0.5, 1.0)
    assert f.in_space(0.2)
    assert not f.in_space(-0.6)


def test_builtin_names():
    assert abs(TestFunction.builtin("exp")(1.0)[0] - math.exp(-1)) < 1e-15
    assert abs(TestFunction.builtin("texp")(2.0)[0] - 2 * math.exp(-2)) < 1e-15
    assert abs(TestFunction.builtin("gauss")(1.0)[0] - math.exp(-0.5)) < 1e-15
    assert TestFunction.builtin("tpow:0.5")(2.0)[0] == 0.0
    with pytest.raises(ParameterError):
        TestFunction.builtin("nope")


def test_zero_function():
    z = TestFunction.zero()
    assert np.all(z(np.array([0.5, 1.0, 2.0])) == 0.0)
    assert z.in_space(-5.0)


# -- numerical Mellin transform ---------------------------------------------

def test_mellin_exp_at_two():
    assert abs(mellin_numeric(EXPF, 2.0) - 1.0) < 1e-11


def test_mellin_exp_at_half():
    assert abs(mellin_numeric(EXPF, 0.5) - math.sqrt(math.pi)) < 1e-10


def test_mellin_truncated_power():
    f = TestFunction.trunc_power(1.0)
    assert abs(mellin_numeric(f, 1.0) - 0.5) < 1e-11


def test_mellin_divergence_detected():
    with pytest.raises(DivergentIntegralError):
        mellin_numeric(EXPF, -0.5)


def test_mellin_line_samples_match_closed_form():
    s_nodes = 0.5 + 1j * np.linspace(-30, 30, 41)
    vals = mellin_line_samples(EXPF, s_nodes)
    assert np.max(np.abs(vals - EXPF.mellin(s_nodes))) < 1e-12


def test_mellin_line_samples_split_at_hard_edge():
    # tpow:0 is 1 on (0, 1) and stops at t = 1; its Mellin transform is 1/s
    s_nodes = 0.5 + 1j * np.linspace(-48.0, 48.0, 801)
    vals = mellin_line_samples(TestFunction.builtin("tpow:0"), s_nodes)
    assert np.max(np.abs(vals * s_nodes - 1.0)) < 1e-10


@pytest.mark.parametrize("name, closed_form, trapezoid", [
    ("exp", scipy_gamma, True), ("tpow:0", lambda s: 1.0 / s, False)])
def test_mellin_line_samples_on_both_line_rules(name, closed_form, trapezoid):
    # e^{-t} takes the trapezoid blocks, tpow:0 (hard edge at t = 1) the
    # equal Gauss-Legendre panels; both sum through panel_sums
    f = TestFunction.builtin(name)
    s_nodes = 0.5 + 1j * np.linspace(-48.0, 48.0, 801)
    _, off, weights = _line_rule(f, 0.5, 48.0)
    assert (off.size == 64 and weights[-1, -1] == 0.0) == trapezoid
    err = np.abs(mellin_line_samples(f, s_nodes) - closed_form(s_nodes))
    assert np.max(err) < 1e-12
    assert abs(mellin_line_samples(f, 0.5 + 2.0j) - closed_form(0.5 + 2.0j)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(c=st.floats(-0.4, 2.0), margin=st.floats(0.2, 2.5), top=st.floats(0.0, 48.0))
def test_mellin_line_samples_trunc_power(c, margin, top):
    # t^c on (0, 1) has Mellin transform 1/(s + c) for Re s > -c
    f = TestFunction.trunc_power(c)
    s_nodes = margin - c + 1j * np.linspace(-top, top, 97)
    ref = 1.0 / (s_nodes + c)
    err = np.max(np.abs(mellin_line_samples(f, s_nodes) - ref))
    assert err <= 1e-10 * np.max(np.abs(ref))


def test_hard_edges_carried_through_elementary_operators():
    live = LiveFunction(TestFunction.builtin("tpow:0"), 0.5)
    assert live.support.hard == (None, 0.0)
    moved = Dilate(2.0).apply(Reflect().apply(live))
    assert moved.support.hard == (math.log(2.0), None)
    assert PowerWeight(0.5).apply(moved).support.hard == (math.log(2.0), None)
    # the function does stop there
    assert moved(np.array([1.99, 2.01]))[0] == 0.0
    assert moved(np.array([1.99, 2.01]))[1] != 0.0


# -- inverse Mellin -----------------------------------------------------------

def test_inverse_mellin_gamma_gives_exp():
    gs = GammaSymbol(num=((0j, 1.0),))
    val, err = mellin_inverse_numeric(gs, 1.0, 1.0)
    assert abs(val - exp_series(1.0)) < 1e-10


def test_inverse_mellin_beta_pair():
    gb = GammaSymbol(num=((0j, 1.0), (1.0 + 0j, -1.0)))
    vals, err = mellin_inverse_numeric(gb, 0.5, np.array([1.0, 2.0]))
    assert abs(vals[0] - 0.5) < 1e-10
    assert abs(vals[1] - 1.0 / 3.0) < 1e-10


def test_inverse_mellin_constant_refused():
    with pytest.raises(DivergentIntegralError, match="decay"):
        mellin_inverse_numeric(lambda s: np.ones_like(s), 0.5, 1.0)


# -- elementary operators ----------------------------------------------------

def test_inversion_on_exp():
    R = Reflect().apply(LiveFunction(EXPF, 0.5))
    assert abs(complex(R(2.0)[0]) - 0.5 * math.exp(-0.5)) < 1e-15


def test_dilation_group_property():
    W2 = Dilate(2.0).apply(LiveFunction(EXPF, 0.5))
    Whalf = Dilate(0.5).apply(W2)
    xs = np.array([0.31, 1.0, 2.7, 8.9])
    assert np.max(np.abs(Whalf(xs) - EXPF(xs))) == 0.0


def test_dilation_rejects_nonpositive():
    with pytest.raises(ParameterError):
        Dilate(-1.0)


def test_power_weight_mellin_shift():
    # Mellin of x f(x) at s equals Mellin of f at s+1
    Mf = PowerWeight(1.0).apply(LiveFunction(EXPF, 0.5))
    val = mellin_numeric(Mf, 1.0)
    assert abs(val - EXPF.mellin(2.0)) < 1e-10


def test_isometries_and_scaling_laws():
    nu, r = 0.8, 2.0
    base = lnur_norm(EXPF, nu, r)
    live = LiveFunction(EXPF, nu)
    # power weight: norm moves to nu - Re zeta
    zeta = 0.4
    Mf = PowerWeight(zeta).apply(live)
    assert Mf.nu == nu - zeta
    assert abs(lnur_norm(Mf, nu - zeta, r) - base) < 1e-9
    # inversion: norm moves to 1 - nu
    Rf = Reflect().apply(live)
    assert Rf.nu == 1.0 - nu
    assert abs(lnur_norm(Rf, 1.0 - nu, r) - base) < 1e-9
    # dilation: norm scales by d^nu
    d = 2.5
    Wf = Dilate(d).apply(live)
    assert Wf.nu == nu
    assert abs(lnur_norm(Wf, nu, r) - d ** nu * base) < 1e-9 * d ** nu


def test_mellin_bookkeeping_all_three():
    s = 1.2 + 0.7j
    d = 1.7
    zeta = 0.35 + 0.1j
    live = LiveFunction(EXPF, 0.5)
    Mf = PowerWeight(zeta).apply(live)
    Wf = Dilate(d).apply(live)
    Rf = Reflect().apply(live)
    assert abs(mellin_numeric(Mf, s) - EXPF.mellin(s + zeta)) < 1e-8
    assert abs(mellin_numeric(Wf, s) - d ** s * EXPF.mellin(s)) < 1e-8
    # the inverted function's transform lives on Re s < 1
    s_r = 0.6 + 0.7j
    assert abs(mellin_numeric(Rf, s_r) - EXPF.mellin(1.0 - s_r)) < 1e-8


# -- Erdelyi-Kober ------------------------------------------------------------

def test_ek_left_power_oracle():
    # closed form on powers: Gamma(eta+lam+1)/Gamma(alpha+eta+lam+1) x^{sigma lam}
    x = 1.7
    for alpha, sigma, eta, lam in ((1.0, 1.0, 0.0, 1.0), (0.6, 2.0, 0.3, 0.8),
                                   (2.3, 0.7, -0.2, 1.5)):
        f = lambda t: t ** (sigma * lam)
        val = ek_fractional("left", alpha, sigma, eta, f, x)
        ratio = math.gamma(eta + lam + 1) / math.gamma(alpha + eta + lam + 1)
        assert abs(val - ratio * x ** (sigma * lam)) < 1e-9 * abs(ratio)


def test_ek_left_identity_examples():
    # alpha=1, sigma=1, eta=0 averages f over (0, x)
    val = ek_fractional("left", 1.0, 1.0, 0.0, lambda t: np.asarray(t), 3.0)
    assert abs(val - 1.5) < 1e-10
    val = ek_fractional("left", 1.0, 1.0, 0.0,
                        lambda t: np.ones_like(np.asarray(t)), 2.2)
    assert abs(val - 1.0) < 1e-11


def test_ek_right_vs_adaptive_quadrature():
    val = ek_fractional("right", 1.0, 1.0, 1.0, EXPF, 1.0)
    oracle = quad(lambda t: math.exp(-t) / t ** 2, 1.0, 80.0)[0]
    assert abs(val - oracle) < 1e-9


def test_ek_rejects_bad_order():
    with pytest.raises(HypothesisError):
        ek_fractional("left", -0.5, 1.0, 0.0, EXPF, 1.0)


def test_ek_semigroup_on_powers():
    # I^a compose I^b with eta-shift equals I^{a+b} on powers
    sigma, lam = 1.3, 0.9
    a, b, eta = 0.7, 1.1, 0.25
    f = lambda t: t ** (sigma * lam)
    inner = lambda x: np.asarray(
        [ek_fractional("left", b, sigma, eta + a, f, float(v))
         for v in np.atleast_1d(x)]
    )
    lhs = ek_fractional("left", a, sigma, eta, inner, 1.4)
    rhs = ek_fractional("left", a + b, sigma, eta, f, 1.4)
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def test_ek_mellin_identities(rng):
    # left: factor Gamma(1+eta-s/sigma)/Gamma(1+eta+alpha-s/sigma)
    # right: factor Gamma(eta+s/sigma)/Gamma(eta+alpha+s/sigma)
    for side in ("left", "right"):
        for _ in range(3):
            alpha = rng.uniform(0.4, 1.8)
            sigma = rng.uniform(0.6, 1.6)
            eta = rng.uniform(0.2, 1.2)
            c = rng.uniform(0.0, 0.8)
            f = TestFunction.power_exp(c, rng.uniform(0.6, 1.4))
            out = LiveFunction(
                lambda xv: ek_fractional(side, alpha, sigma, eta, f, xv), 0.5)
            tab = tabulate(out, h=0.04, floor=1e-40)
            if side == "left":
                lo, hi = -c, sigma * (1.0 + eta)
                fac = lambda s: np.exp(
                    log_gamma(1 + eta - s / sigma)
                    - log_gamma(1 + eta + alpha - s / sigma))
            else:
                lo, hi = max(-sigma * eta, -c), None
                fac = lambda s: np.exp(
                    log_gamma(eta + s / sigma)
                    - log_gamma(eta + alpha + s / sigma))
            width = (hi - lo) if hi is not None else 3.0
            hi_eff = hi if hi is not None else lo + 3.0
            for _ in range(3):
                sre = rng.uniform(lo + 0.3 * width, hi_eff - 0.3 * width)
                s = complex(sre, rng.uniform(-1.5, 1.5))
                lhs = mellin_numeric(tab, s)
                rhs = fac(s) * f.mellin(s)
                assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs))


def test_ek_right_tail_near_strip_edge():
    # the sixth draw of test_ek_mellin_identities at alpha = 1, where the
    # average has a closed form: sigma x^{sigma eta} p^{sigma eta - c}
    # Gamma(c - sigma eta, p x).  c sits 0.0064 below sigma eta, so at tiny x
    # the tail decays too slowly for the kernel-sized window and must be
    # carried to the dead upper edge of f
    sigma, eta, c, p = 0.624674, 0.703551, 0.433132, 1.290695
    f = TestFunction.power_exp(c, p)
    for log_x in (-250.0, -240.0, -230.0, -5.0, 1.5):
        x = mpmath.exp(log_x)
        ref = complex(sigma * x ** (sigma * eta) * mpmath.mpf(p) ** (sigma * eta - c)
                      * mpmath.gammainc(c - sigma * eta, p * x))
        val = ek_fractional("right", 1.0, sigma, eta, f, math.exp(log_x))
        assert abs(val - ref) < 1e-9 * abs(ref)


@pytest.mark.parametrize("c", [-0.55, -0.59])
def test_ek_left_tail_near_strip_edge(c):
    # alpha = 1 average of t^c e^{-t}: sigma x^{-sigma(eta+1)} gamma(a, x) with
    # a = sigma(eta+1) + c = 0.05 or 0.01, so the power tail toward t -> 0
    # outlasts the kernel-sized window and f has no dead lower edge
    sigma, eta = 0.5, 0.2
    f = TestFunction.power_exp(c, 1.0)
    a = sigma * (eta + 1.0) + c
    for x in (1.0, 2.5):
        ref = sigma * x ** (-sigma * (eta + 1.0)) * scipy_gamma(a) * gammainc(a, x)
        val = ek_fractional("left", 1.0, sigma, eta, f, x)
        assert abs(val - ref) < 1e-9 * ref


def test_ek_left_window_reaches_dead_lower_edge():
    # t^c with c = -3.4 cut off below t = e^{-50}: the alpha = 1 average decays
    # at sigma(eta+1) + c = 0.12 per unit of log t, so the kernel-sized window
    # (28 units) stops far short of the edge and must be carried to it
    sigma, eta, c = 1.6, 1.2, -3.4
    a = sigma * (eta + 1.0) + c
    # smooth cut-off t^c exp(-b/t), b = e^{-50}: sigma x^{-sigma(eta+1)} b^a Gamma(-a, b/x)
    b = math.exp(-50.0)

    def smooth(t):
        t = np.asarray(t, dtype=float)
        return t ** c * np.exp(-b / t)

    for x in (0.2, 1.0, 3.0):
        ref = float(sigma * x ** (-sigma * (eta + 1.0)) * mpmath.mpf(b) ** a
                    * mpmath.gammainc(-a, b / x))
        val = ek_fractional("left", 1.0, sigma, eta, smooth, x)
        assert abs(val - ref) < 1e-9 * ref
    # hard cut-off on a grid: sigma x^{-sigma(eta+1)} (x^a - e^{-50a}) / a at
    # x = 1.  The grid's linear interpolation in log t and the edge falling
    # inside a unit panel limit agreement to about 2e-5; a window stopped
    # before the edge is 2.7% low
    t = np.exp(np.linspace(-50.0, 5.0, 20001))
    grid = GridFunction(t, t ** c)
    ref = sigma * (1.0 - math.exp(-50.0 * a)) / a
    assert abs(ek_fractional("left", 1.0, sigma, eta, grid, 1.0) - ref) < 1e-4 * ref


@pytest.mark.parametrize("side", ["left", "right"])
def test_ek_power_far_beyond_support_probe(side):
    # alpha = 1, sigma = 1 averages of a pure power at |log x| = 120, beyond the
    # +-100 span at which the Support record judges a side dead.  A power is
    # alive at every scale, however small it gets there, so no support edge
    # may cut the tail:
    # right, eta = 1: x int_x^inf t^{-2} t^{1/2} dt = 2 x^{1/2};
    # left, eta = 0: x^{-1} int_0^x t^{-1/2} dt = 2 x^{-1/2}
    if side == "right":
        x, eta, c = math.exp(-120.0), 1.0, 0.5
    else:
        x, eta, c = math.exp(120.0), 0.0, -0.5
    f = lambda t: np.asarray(t, dtype=float) ** c
    val = ek_fractional(side, 1.0, 1.0, eta, f, x)
    ref = 2.0 * x ** c
    assert abs(val - ref) < 1e-9 * ref


def test_support_edges_only_where_f_is_dead():
    # an edge needs f to vanish at tau = +-100 or to decay faster than any
    # power there; a power gets none, however small it is there
    def edges(f):
        return support_of(f).edges()

    assert edges(lambda t: np.exp(-np.asarray(t))) == (None, 5.0)
    assert edges(lambda t: np.exp(-np.asarray(t) ** 0.06))[1] is not None
    assert edges(lambda t: np.asarray(t) ** 0.5) == (None, None)
    assert edges(lambda t: np.asarray(t) ** -0.5) == (None, None)


_ek_boundary = dict(
    side=st.sampled_from(["left", "right"]),
    alpha=st.floats(0.3, 2.5),
    sigma=st.floats(0.5, 2.0),
    eta=st.floats(0.1, 1.3),
    x=st.floats(0.2, 5.0),
)


@settings(max_examples=40, deadline=None)
@given(gap=st.floats(1e-3, 0.3), **_ek_boundary)
def test_ek_power_near_strip_edge_property(side, alpha, sigma, eta, x, gap):
    # on f = t^c the operators act by a gamma ratio (Kilbas & Saigo, ch. 3):
    # left  Gamma(eta + c/sigma + 1) / Gamma(alpha + eta + c/sigma + 1) x^c,
    # right Gamma(eta - c/sigma) / Gamma(alpha + eta - c/sigma) x^c,
    # finite while c stays inside -sigma(eta+1) < c (left), c < sigma eta (right)
    if side == "left":
        c = -sigma * (eta + 1.0) + gap
        ratio = np.exp(log_gamma(eta + c / sigma + 1.0)
                       - log_gamma(alpha + eta + c / sigma + 1.0))
    else:
        c = sigma * eta - gap
        ratio = np.exp(log_gamma(eta - c / sigma) - log_gamma(alpha + eta - c / sigma))
    f = lambda t: np.asarray(t, dtype=float) ** c
    val = ek_fractional(side, alpha, sigma, eta, f, x)
    ref = complex(ratio) * x ** c
    # a tail is cut once its outermost panel is below 1e-8 of its largest,
    # and its geometric remainder is then below 1e-8 of the value
    assert abs(val - ref) < 1e-8 * abs(ref)


@settings(max_examples=20, deadline=None)
@given(excess=st.floats(0.0, 0.3), **_ek_boundary)
@example(side="right", alpha=0.7, sigma=0.8, eta=0.5, x=1.3, excess=0.0)
@example(side="right", alpha=0.7, sigma=0.8, eta=0.5, x=1.3, excess=0.2)
def test_ek_power_beyond_strip_edge_raises_property(side, alpha, sigma, eta, x, excess):
    # f = t^c with c <= -sigma(eta+1) (left) or c >= sigma eta (right): the
    # integral diverges at t -> 0 (left) or t -> inf (right)
    c = -sigma * (eta + 1.0) - excess if side == "left" else sigma * eta + excess
    f = lambda t: np.asarray(t, dtype=float) ** c
    with pytest.raises(DivergentIntegralError):
        ek_fractional(side, alpha, sigma, eta, f, x)


# -- Hankel --------------------------------------------------------------------

def test_hankel_cosine_self_reciprocity():
    f = TestFunction.gaussian(0.0, 0.5)
    val = hankel_mod(1.0, -0.5, f, 1.0)
    assert abs(val - math.exp(-0.5)) < 1e-12


def test_hankel_sine_vs_adaptive_quadrature():
    f = TestFunction.gaussian(0.0, 0.5)
    val = hankel_mod(1.0, 0.5, f, 1.0)
    oracle = quad(lambda t: math.sqrt(2 / math.pi) * math.sin(t) * math.exp(-t * t / 2),
                  0.0, 40.0, limit=400)[0]
    assert abs(val - oracle) < 1e-10


def test_hankel_linearity_zero():
    assert hankel_mod(1.0, 0.5, TestFunction.zero(), 1.0) == 0.0


def test_hankel_rejects_bad_order():
    with pytest.raises(HypothesisError):
        hankel_mod(1.0, -1.5, EXPF, 1.0)
    with pytest.raises(HypothesisError):
        hankel_mod(0.0, 0.5, EXPF, 1.0)


def test_hankel_mellin_identity_spot():
    kap, eta = 1.0, 0.3
    f = TestFunction.gaussian(0.4, 0.6)
    out = LiveFunction(lambda xv: hankel_mod(kap, eta, f, xv), 0.5)
    tab = tabulate(out, h=0.045, floor=1e-30)
    s = 0.62 + 0.9j
    arg = kap * (s - 0.5)
    lhs = mellin_numeric(tab, s)
    rhs = (2.0 / abs(kap)) ** arg * np.exp(
        log_gamma((eta + arg + 1) / 2) - log_gamma((eta - arg + 1) / 2)
    ) * f.mellin(1.0 - s)
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


# -- Laplace --------------------------------------------------------------------

def test_laplace_exp_examples():
    assert abs(laplace_mod(1.0, 0.0, EXPF, 1.0) - 0.5) < 1e-11
    assert abs(laplace_mod(1.0, 0.0, EXPF, 3.0) - 0.25) < 1e-11
    ft = TestFunction.power_exp(1.0, 1.0)
    assert abs(laplace_mod(1.0, 0.0, ft, 1.0) - 0.25) < 1e-11


def test_laplace_array_matches_closed_form():
    # int_0^inf e^{-u} e^{-u/x} du / x = 1 / (1 + x), over several blocks of x
    x = np.exp(np.linspace(-8.0, 8.0, 75))
    val = laplace_mod(1.0, 0.0, EXPF, x)
    assert np.max(np.abs(val - 1.0 / (1.0 + x))) < 1e-11


@pytest.mark.parametrize("kappa", [1.0, -1.0])
def test_laplace_array_equals_scalar_calls(kappa):
    # one column-wise sweep per block of x gives each x its scalar value exactly
    alpha = 0.3 + 0.7j
    f = TestFunction.power_exp(0.5, 1.2)
    x = np.exp(np.linspace(-30.0, 30.0, 200))
    batch = laplace_mod(kappa, alpha, f, x)
    single = np.array([laplace_mod(kappa, alpha, f, float(xv)) for xv in x])
    assert np.array_equal(batch, single)


def test_laplace_mellin_identity_spot():
    kap, alpha = 1.0, 0.2
    f = TestFunction.power_exp(0.5, 1.2)
    out = LiveFunction(lambda xv: laplace_mod(kap, alpha, f, xv), 0.5)
    tab = tabulate(out, h=0.04, floor=1e-40)
    # output strip is (Re alpha, 1 + c) here; stay well inside
    s = 0.62 + 0.8j
    arg = kap * (s - alpha)
    lhs = mellin_numeric(tab, s)
    rhs = np.exp(log_gamma(arg)) * abs(kap) ** (1.0 - arg) * f.mellin(1.0 - s)
    assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def test_laplace_negative_index():
    # kappa < 0 integrates against exp(-|k| (xt)^{1/k}), decaying near zero
    val = laplace_mod(-1.0, 0.0, EXPF, 1.0)
    oracle = quad(lambda t: math.exp(-1.0 / t) * math.exp(-t), 0.0, 60.0,
                  limit=400)[0]
    assert abs(val - oracle) < 1e-9


# -- norms -----------------------------------------------------------------------

def test_norm_exp_r1():
    assert abs(lnur_norm(EXPF, 1.0, 1.0) - 1.0) < 1e-11


def test_norm_exp_r2():
    assert abs(lnur_norm(EXPF, 1.0, 2.0) - 0.5) < 1e-11


def test_norm_divergent_returns_inf():
    f = TestFunction.trunc_power(-0.5)
    assert lnur_norm(f, 0.0, 2.0) == math.inf


def test_norm_ess_sup():
    val = lnur_norm(EXPF, 1.0, math.inf)
    # max of t e^-t is 1/e at t = 1
    assert abs(val - math.exp(-1)) < 1e-6


# -- grid functions ----------------------------------------------------------------

def test_grid_function_roundtrip(tmp_path):
    t = np.geomspace(0.01, 100.0, 200)
    g = GridFunction(t, np.exp(-t) * (1 + 0.5j))
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    g2 = GridFunction.from_csv(path)
    xs = np.array([0.05, 1.0, 7.7])
    assert np.max(np.abs(g(xs) - g2(xs))) < 1e-12
    assert g2(np.array([1e4]))[0] == 0.0


def test_grid_function_too_small():
    with pytest.raises(ParameterError, match="16"):
        GridFunction(np.geomspace(0.1, 1, 5), np.zeros(5))


def test_grid_function_mellin():
    t = np.geomspace(1e-4, 60.0, 3000)
    g = GridFunction(t, np.exp(-t))
    val = mellin_numeric(g, 2.0)
    assert abs(val - 1.0) < 1e-5  # limited by linear interpolation
