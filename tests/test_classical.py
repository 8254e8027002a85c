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
from foxh.classical import (
    _TABLE_STEP,
    _decay_truncation,
    _ek_taps,
    _line_rule,
    mellin_line_samples,
    support_of,
)
from foxh.engine import Dilate, LaplaceOp, LiveFunction, PowerWeight, Reflect, tabulate
from foxh.gammasym import GammaSymbol, symbol_from_params
from foxh.quadrature import Lattice, _lattice_tables, equal_panels, panel_sums

from conftest import canonical_params, exp_series

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


def _masked_formula(f, x):
    # every argument masked to a safe value first: the single pass must
    # give these outputs bit for bit
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ok = np.isfinite(x) & (x > 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        logx = np.log(np.where(ok, x, 1.0))
        if f.family == "power-exp":
            out = np.exp(f.c * logx - f.p * np.where(ok, x, 0.0))
        elif f.family == "gaussian":
            out = np.exp(f.c * logx - f.p * np.where(ok, x * x, 0.0))
        else:
            out = np.where(x < 1.0, np.exp(f.c * logx), 0.0)
    return f.amplitude * np.where(ok, out, 0.0)


@pytest.mark.parametrize("f", [
    TestFunction.power_exp(0.7, 1.3),
    TestFunction.power_exp(-0.4, 0.6, amplitude=2.0 - 1.0j),
    TestFunction.gaussian(0.5, 0.5),
    TestFunction.trunc_power(0.3),
], ids=["power-exp", "power-exp-complex", "gaussian", "trunc-power"])
def test_testfunction_call_equals_masked_formula(f):
    rng = np.random.default_rng(7)
    clean = np.exp(rng.uniform(-40.0, 6.0, 398))
    special = np.array([0.0, -0.0, -1.5, -np.inf, np.inf, np.nan, 1.0, 1e-300, 1e300])
    dirty = rng.permutation(np.concatenate([clean, special]))
    for x in (clean, dirty, dirty.reshape(-1, 11), 2.0, np.nan):
        got, ref = f(x), _masked_formula(f, x)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    got = f(special)
    assert np.all(got[:6] == 0.0) and np.all(np.isfinite(got))


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
    # e^{-t} takes the trapezoid blocks, summed by lattice_sums (a single
    # point by panel_sums), tpow:0 (hard edge at t = 1) the equal
    # Gauss-Legendre panels, summed by panel_sums
    f = TestFunction.builtin(name)
    s_nodes = 0.5 + 1j * np.linspace(-48.0, 48.0, 801)
    _, off, weights, h = _line_rule(f, 0.5, 48.0)
    assert (off.size == 64 and weights[-1, -1] == 0.0 and h is not None) == trapezoid
    err = np.abs(mellin_line_samples(f, s_nodes) - closed_form(s_nodes))
    assert np.max(err) < 1e-12
    assert abs(mellin_line_samples(f, 0.5 + 2.0j) - closed_form(0.5 + 2.0j)) < 1e-12


def test_mellin_line_samples_from_shared_tables_match_panel_sums():
    # the multiplier's contour (|Im s| <= 48, 16 nodes per unit) on
    # Re s = 0.3: the sums from the lattice tables against panel_sums.  All
    # three inputs share one set of tables, and power_exp(0.2, 0.05), the
    # longest tau range (31 blocks, against 13 and 25), grows its panels table
    mid, off, _ = equal_panels(-48.0, 48.0, 1.0, 16)
    l = (mid[:, None] + off).ravel()
    _lattice_tables.cache_clear()
    for f in (TestFunction.power_exp(1.0, 1.0), TestFunction.gaussian(0.3, 0.5),
              TestFunction.power_exp(0.2, 0.05)):
        t_mid, t_off, weights, h = _line_rule(f, 0.3, float(np.max(np.abs(l))))
        taus = t_mid[:, None] + t_off
        ref = panel_sums(l, t_mid, t_off, f(np.exp(taus)) * np.exp(0.3 * taus) * weights)
        vals = mellin_line_samples(f, 0.3 - 1j * l)
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert _lattice_tables.cache_info().misses == 1
    assert _lattice_tables(l.tobytes(), h, t_off.size)[1].shape[0] == t_mid.size == 31


@pytest.mark.parametrize("s_nodes", [np.zeros(0) + 0.5, np.zeros((0, 3)) + 0.5])
def test_mellin_line_samples_empty_line(s_nodes):
    vals = mellin_line_samples(EXPF, s_nodes)
    assert vals.shape == s_nodes.shape and vals.dtype == complex


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
    calls = []

    def flat(s):
        calls.append(s)
        return np.ones_like(s)

    with pytest.raises(DivergentIntegralError, match="decay"):
        mellin_inverse_numeric(flat, 0.5, 1.0)
    # one batch: two scale points and three points at each of the ten
    # heights 5 x 1.6^k <= 400
    assert [np.size(s) for s in calls] == [32]


def _decay_truncation_by_height(F, gamma_line, tol):
    """_decay_truncation's rule with F probed one height at a time."""
    near = np.max(np.abs(F(np.array([gamma_line + 0.3j, gamma_line + 1.9j]))))
    scale, T = 0.0, 5.0
    while T <= 400.0:
        m = np.max(np.abs(F(gamma_line + np.array([1j * T, 1.07j * T, -1j * T]))))
        scale = max(scale, m, near)
        if m <= tol * scale / max(T, 1.0):
            return T
        T *= 1.6
    return None


@pytest.mark.parametrize("case", range(1, 10))
def test_decay_truncation_batch_keeps_the_per_height_rule(case):
    params, nu, _ = canonical_params(case)
    sym = symbol_from_params(params)

    def F(s):
        return sym.eval(s) * EXPF.mellin(1.0 - s)

    for tol in (1e-6, 1e-10, 1e-14):
        ref = _decay_truncation_by_height(F, 1.0 - nu, tol)
        if ref is None:
            with pytest.raises(DivergentIntegralError):
                _decay_truncation(F, 1.0 - nu, tol)
        else:
            assert _decay_truncation(F, 1.0 - nu, tol) == ref


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


@pytest.mark.parametrize("side, draw", [
    ("left", (0.58, 1.1, 0.8, 0.02, 0.72)),
    ("right", (0.59, 0.99, 0.7, 0.23, 1.08)),
])
def test_ek_array_call_equals_scalar_calls(side, draw):
    # 77 arguments: more than one row block, and not a whole number of them
    alpha, sigma, eta, c, p = draw
    f = TestFunction.power_exp(c, p)
    x = np.exp(np.linspace(-6.0, 6.0, 77))
    batch = ek_fractional(side, alpha, sigma, eta, f, x)
    single = np.array([ek_fractional(side, alpha, sigma, eta, f, float(v)) for v in x])
    assert np.max(np.abs(batch - single) / np.abs(single)) < 1e-15


@pytest.mark.parametrize("side", ["left", "right"])
def test_ek_tail_hands_f_its_lattice(side):
    # the tail samples f once on its own lattice tau = +-k h, as a Lattice
    # whose points are bitwise the plain ones, so f without a lattice
    # reader sees the same x and gives the same values (the Support
    # profile's lattices are of step 1/2)
    f, seen = TestFunction.power_exp(1.0, 1.0), []

    def recording(t):
        if isinstance(t, Lattice) and t.t0 is not None and abs(t.h) < 0.5:
            seen.append(t)
        return f(t)

    x = np.exp(np.linspace(-3.0, 3.0, 9))
    got = ek_fractional(side, 0.7, 1.3, 0.4, recording, x)
    assert len(seen) == 1
    lat = seen[0]
    sign = 1.0 if side == "left" else -1.0
    k0 = round(sign * lat.t0 / _TABLE_STEP)
    assert lat.h == sign * _TABLE_STEP
    assert np.array_equal(lat, np.exp((sign * np.arange(k0, k0 + lat.size)) * _TABLE_STEP))
    assert np.array_equal(got, ek_fractional(side, 0.7, 1.3, 0.4, f, x))


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


def test_ek_truncated_power_hard_edge():
    # f = 1 on (0, 1), alpha = sigma = 1: right, eta = 1, gives
    # x int_x^1 t^-2 dt = 1 - x; left, eta = 0, gives (1/x) int_0^1 dt = 1/x.
    # The right tail's table crosses the edge tau = 0, where its cells take
    # one-sided stencils; the left tail starts above the edge
    f = TestFunction.builtin("tpow:0")
    assert abs(ek_fractional("right", 1.0, 1.0, 1.0, f, 0.3) - 0.7) < 1e-10
    assert abs(ek_fractional("left", 1.0, 1.0, 0.0, f, 3.0) - 1.0 / 3.0) < 1e-10


def test_ek_defect_draw_against_mpmath():
    # the right-side draw whose c sits 0.0064 below sigma eta (the benchmark's
    # EK_DEFECT_DRAW), against mpmath on the defining integral in rho = log(t/x):
    # sigma / Gamma(alpha) int e^{-sigma eta rho} (1 - e^{-sigma rho})^{alpha-1}
    # f(x e^rho) d rho, split where p x e^rho = 1 and cut where it is 100
    alpha, sigma, eta, c, p = 0.983264, 0.624674, 0.703551, 0.433132, 1.290695
    f = TestFunction.power_exp(c, p)
    with mpmath.workdps(20):
        for tau in (-60.0, -10.0, -3.0, 0.0, 2.0):
            x = mpmath.exp(tau)

            def integrand(rho):
                return (mpmath.exp(-sigma * eta * rho)
                        * (-mpmath.expm1(-sigma * rho)) ** (alpha - 1)
                        * (x * mpmath.exp(rho)) ** c * mpmath.exp(-p * x * mpmath.exp(rho)))

            split = -tau - math.log(p)
            end = split + math.log(100.0)
            pts = [0, 1, split, end] if split > 1 else [0, 1, end]
            ref = complex(sigma * mpmath.quad(integrand, pts) / mpmath.gamma(alpha))
            val = ek_fractional("right", alpha, sigma, eta, f, math.exp(tau))
            assert abs(val - ref) < 1e-10 * abs(ref), tau


@pytest.mark.parametrize("alpha", [0.8 + 0.1j, 0.8 + 0.5j, 0.3 + 0.3j, 1.5 + 0.8j])
@pytest.mark.parametrize("side", ["left", "right"])
def test_ek_complex_order_against_mpmath(side, alpha):
    # the head's weights carry (1-u)^(alpha-1), phase and all.  mpmath takes
    # the defining average over u = (t/x)^(+-sigma) in w = 1 - u, and
    # w = e^-v on w < 1/2, which carries the endpoint power
    sigma, eta = 0.9, 0.6
    f = TestFunction.power_exp(0.5, 1.0)
    xs = np.exp([-1.0, 0.3, 1.0])
    val = ek_fractional(side, alpha, sigma, eta, f, xs)
    a = mpmath.mpc(alpha)
    with mpmath.workdps(20):
        for x, got in zip(xs, val):
            if side == "left":
                def g(u):
                    t = x * u ** (1 / sigma)
                    return u ** eta * mpmath.sqrt(t) * mpmath.exp(-t)
            else:
                def g(u):
                    t = x * u ** (-1 / sigma)
                    return u ** (eta - 1) * mpmath.sqrt(t) * mpmath.exp(-t)
            l2 = mpmath.log(2)
            ref = mpmath.quad(lambda w: w ** (a - 1) * g(1 - w), [0.5, 1])
            ref += mpmath.quad(lambda v: mpmath.exp(-a * v) * g(1 - mpmath.exp(-v)),
                               [l2, l2 + 1, l2 + 4, l2 + 16, l2 + 64, mpmath.inf])
            ref = complex(ref / mpmath.gamma(a))
            assert abs(got - ref) < 1e-9 * abs(ref), x


@pytest.mark.parametrize("rate, alpha, sigma", [
    (1.3, 1.0, 0.8), (0.9, 0.6, 1.2), (2.1, 1.7 + 0.3j, 0.7), (0.4 - 0.2j, 0.9, 2.5),
])
def test_ek_taps_integrate_the_tail_kernel(rate, alpha, sigma):
    # the interpolant of constant samples is the constant, so the taps (near
    # ones plus far q^d from D on) sum to the kernel's integral over the tail
    h = 0.05
    taps = _ek_taps(complex(rate), complex(alpha), sigma, h)
    big_d = taps.d0 + taps.near.size
    total = np.sum(taps.near) + taps.far * taps.q ** big_d / (1.0 - taps.q)
    rho_s = math.log(2.0) / sigma
    with mpmath.workdps(20):
        ref = complex(mpmath.quad(
            lambda r: mpmath.exp(-rate * r) * (-mpmath.expm1(-sigma * r)) ** (alpha - 1),
            [rho_s, rho_s + 5, mpmath.inf]))
    assert abs(total - ref) < 1e-13 * abs(ref)


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


@pytest.mark.parametrize("eta", [-0.3, 0.0, 0.7, 1.6])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_hankel_power_exp_closed_form(eta, p):
    # kappa = 1 on t^(eta + 1/2) e^(-p t): a decaying tail, settled by Wynn
    x = np.exp(np.linspace(-4.0, 4.0, 161))
    val = hankel_mod(1.0, eta, TestFunction.power_exp(eta + 0.5, p), x)
    exact = (np.sqrt(x) * 2.0 * p * (2.0 * x) ** eta * math.gamma(eta + 1.5)
             / (math.sqrt(math.pi) * (p * p + x * x) ** (eta + 1.5)))
    assert np.max(np.abs(val - exact)) < 1e-11 * np.max(np.abs(exact))


def test_hankel_slow_decay_settles_early():
    # a slowly decaying tail: its extrapolated limit settles long before
    # the last arch; summing all 2048 arches takes 533,640 points here
    f = TestFunction.power_exp(0.25, 0.53)
    count = [0]

    def counted(t):
        count[0] += np.size(t)
        return f(t)

    hankel_mod(0.56, 1.86, counted, np.exp(np.linspace(-2.0, 3.0, 41)))
    assert count[0] < 200_000


# (kappa, eta, c, p, log x, value) with f = t^c e^(-p t): arch terms that grow
# over the first block.  The values are mpmath.quadosc at 30 digits of
# |kappa| x^(1/kappa - 1/2) int_0^inf J_eta(xi v) f(v^kappa) v^(kappa/2) dv,
# xi = |kappa| x^(1/kappa)
_HANKEL_GROWING = [
    (1.4, 0.34, 0.94, 1.26, 9.7, -3.095971151349346952e-9),
    (-1.11, 2.05, 0.013, 1.13, -5.58, 3.6910475033617658374e-8),
]


# (kappa, eta, f, log x, most reads of f per argument): the head takes 120
# reads a chunk, 840 at most, and each arch block 768; all 2,048 arches
# would take 25,416
_HANKEL_READS = [
    # growing terms: three head chunks and one block
    pytest.param(1.4, 0.34, ("power_exp", 0.94, 1.26), 9.7, 1_128, id="growing"),
    # the operators bench's Hankel draw at seed 2: decaying terms, a few
    # head chunks and one block
    pytest.param(0.5621884571021415, 1.8563166570532206,
                 ("power_exp", 0.24588067788131787, 0.5289163175466469),
                 np.linspace(-8.0, 8.0, 161), 1_140, id="bench-seed-2"),
    # f's support starts at arch 15, inside the first block's Wynn window:
    # the whole head, which is 0, then 401 reads of the Support probe a
    # zero head takes for a plain callable, then two blocks
    pytest.param(-0.952, 0.671, ("trunc_power", 0.82), -3.76, 2_777, id="late-support"),
]


@pytest.mark.parametrize("kap, eta, f_args, logx, most", _HANKEL_READS)
def test_hankel_growing_terms_settle_after_the_first_block(kap, eta, f_args, logx, most):
    name, *args = f_args
    f = getattr(TestFunction, name)(*args)
    x = np.exp(logx)
    count = [0]

    def counted(t):
        count[0] += np.size(t)
        return f(t)

    hankel_mod(kap, eta, counted, x)
    assert count[0] <= most * np.size(x)


@pytest.mark.parametrize("kap, eta, c, p, logx, ref", _HANKEL_GROWING)
def test_hankel_growing_terms_match_mpmath(kap, eta, c, p, logx, ref):
    val = hankel_mod(kap, eta, TestFunction.power_exp(c, p), math.exp(logx))
    assert abs(val - ref) < 1e-9 * abs(ref)


# (log x, value, relative tolerance) for the second _HANKEL_GROWING series
# at smaller x, where its arch terms rise from a tiny first term.  The
# values are mpmath.quadosc at 30 digits of the formula above
_HANKEL_RISING = [
    (-5.6, 2.3773318767576594885e-8, 1e-6),
    (-6.5, 5.8464640344973925979e-13, 1e-2),
]


@pytest.mark.parametrize("logx, ref, rel", _HANKEL_RISING)
def test_hankel_tiny_first_term_does_not_settle_a_rising_sum(logx, ref, rel):
    # a term settles the sum only against the partial sum it ends, not
    # against the block's last one
    kap, eta, c, p = _HANKEL_GROWING[1][:4]
    val = hankel_mod(kap, eta, TestFunction.power_exp(c, p), math.exp(logx))
    assert abs(val - ref) < rel * abs(ref)


# kappa = -0.54, eta = -0.3, f = gaussian(0.2, 0.52): at small x the
# integrand is flat to all orders where the Bessel factor oscillates.
# mpmath.quadosc at 30 digits of the formula above _HANKEL_GROWING gives
# -8.1586e-277 at x = e^-5.8 and -6.3646e-413 at x = e^-6.0
@pytest.mark.parametrize("logx", [-5.8, -6.0])
def test_hankel_flat_integrand_at_small_x_is_near_zero(logx):
    val = hankel_mod(-0.54, -0.3, TestFunction.gaussian(0.2, 0.52), math.exp(logx))
    assert abs(val) <= 1e-12


def test_hankel_support_starting_past_the_first_arches():
    # f = e^-t on [2, 60]: at x = 3 the head and the first arch see no mass,
    # and a zero term must not settle a zero sum.  mpmath gives
    # int_2^60 (3t)^(1/2) J_0(3t) e^-t dt = 0.0335744350937; the rest of the
    # gap is the grid's edges falling inside arch panels
    t = np.geomspace(2.0, 60.0, 4000)
    val = hankel_mod(1.0, 0.0, GridFunction(t, np.exp(-t)), 3.0)
    assert abs(val - 0.0335744350937) < 5e-3 * 0.0335744350937


def test_hankel_support_starting_past_the_first_block():
    # the same f at x = 150: the whole first block sees no mass, and such a
    # column is not growing.  mpmath gives int_2^60 (150t)^(1/2) J_0(150t)
    # e^-t dt = 4.93950721089515e-4.  (At x = 30 the grid's edges inside
    # arch panels put the value 16% off; the next test covers that x.)
    t = np.geomspace(2.0, 60.0, 4000)
    val = hankel_mod(1.0, 0.0, GridFunction(t, np.exp(-t)), 150.0)
    assert abs(val - 4.93950721089515e-4) < 5e-3 * 4.93950721089515e-4


@pytest.mark.parametrize("x, ref", [(30.0, -6.5359278192021993203e-7),
                                    (150.0, -9.4824919874130026608e-10)])
def test_hankel_smooth_support_start_is_not_growth(x, ref):
    # f = (t - 2)^3 e^-t past t = 2, 0 below: f's support starts at arch 19
    # (x = 30) or 95 (x = 150), so part of the first block's Wynn window
    # sees no mass.  Such a column must run on past the first block.  ref
    # is mpmath.quadosc at 30 digits of
    # int_2^inf (xt)^(1/2) J_0(xt) (t - 2)^3 e^-t dt
    def f(t):
        return np.maximum(t - 2.0, 0.0) ** 3 * np.exp(-t)

    assert abs(hankel_mod(1.0, 0.0, f, x) - ref) < 1e-4 * abs(ref)


@pytest.mark.parametrize("kap, eta, f, logx", [
    (1.0, 0.5, TestFunction.zero(), 0.0),
    # the operators bench's Hankel draw 0: at x = e^-60 every node maps past
    # f's upper edge, log t = 5.5
    (0.5623695115450007, 1.8562319070584732,
     TestFunction.power_exp(0.24602030749852266, 0.5293390438937224), -60.0),
])
def test_hankel_dead_column_reads_no_arch(kap, eta, f, logx):
    # a zero head whose nodes all map past an edge of f is 0: the head's
    # 840 reads, none of an arch.  f's own Support record answers the probe
    count = [0]

    def counted(t):
        count[0] += np.size(t)
        return f(t)

    counted.support = f.support
    assert hankel_mod(kap, eta, counted, math.exp(logx)) == 0.0
    assert count[0] <= 840


def test_hankel_sign_change_in_head_and_arches():
    # (xt)^(1/2) J_(1/2)(xt) = sqrt(2/pi) sin(xt), so on f = (1 - 4t) e^-t the
    # transform is sqrt(2/pi) (x/(1 + x^2) - 8x/(1 + x^2)^2).  f changes sign
    # at y = x/4: inside the head for x = 0.3 and 3, in the arches for 20, 200
    x = np.array([0.3, 3.0, 20.0, 200.0])
    exact = math.sqrt(2.0 / math.pi) * (x / (1 + x * x) - 8.0 * x / (1 + x * x) ** 2)
    val = hankel_mod(1.0, 0.5, lambda t: (1.0 - 4.0 * t) * np.exp(-t), x)
    assert np.max(np.abs(val - exact)) < 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("logx, ref", [
    (-0.40, 0.56083187885211717881),
    (-0.45, 0.54918317577330707176),
])
def test_hankel_criterion_04_draw_matches_mpmath(logx, ref):
    # criterion_04's Hankel draw 0, where the first tiny arch term falls in
    # arches 64..127, so the first 64-arch block settles it by Wynn.  ref is
    # mpmath.quadosc at 30 digits of the formula above _HANKEL_GROWING
    f = TestFunction.power_exp(0.24602030749852266, 0.5293390438937224)
    val = hankel_mod(0.5623695115450007, 1.8562319070584732, f, math.exp(logx))
    assert abs(val - ref) < 2e-13 * abs(ref)


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


def _laplace_power_exp(kappa, alpha, c, b, x):
    # f = t^c e^{-b t}: the u-integral of u^{c - alpha} e^{-|k| u^{1/k} - b u / x}
    # over x^{c + 1} is a Gamma function for kappa = 1 and a Bessel K one
    # for kappa = -1, both of order n = c + 1 - alpha
    n = c + 1.0 - alpha
    if kappa == 1.0:
        return np.exp(log_gamma(n)) * (1.0 + b / x) ** (-n) * x ** (-c - 1.0)
    return np.array([complex(2.0 * mpmath.mpf(xi / b) ** (n / 2)
                             * mpmath.besselk(n, 2.0 * mpmath.sqrt(b / xi)))
                     for xi in x]) * x ** (-c - 1.0)


@pytest.mark.parametrize("kappa, alpha, c, b", [
    (1.0, 0.3 + 0.7j, 0.5, 1.2),
    (-1.0, 0.3 + 0.7j, 0.5, 1.2),
    # Re alpha near 2: the lower tail of f carries the integral
    (1.0, 1.9, 1.0, 1.0),
    (1.0, 1.9 - 1.3j, 1.0, 1.0),
], ids=["gamma", "bessel-k", "gamma-alpha-1.9", "gamma-alpha-1.9-1.3i"])
def test_laplace_matches_gamma_and_bessel_k_forms(kappa, alpha, c, b):
    f = TestFunction.power_exp(c, b)
    x = np.exp(np.linspace(-30.0, 30.0, 200))
    val = laplace_mod(kappa, alpha, f, x)
    ref = _laplace_power_exp(kappa, alpha, c, b, x)
    assert np.max(np.abs(val - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def test_laplace_answers_a_lattice_by_its_correlation():
    # tabulate hands laplace_mod a Lattice; laplace_mod keeps it one, so it
    # is summed as LaplaceOp's correlation, not densely
    kap, alpha, f = 1.2, 0.3, TestFunction.power_exp(0.5, 1.0)
    taus = -6.0 + 0.05 * np.arange(240)
    got = laplace_mod(kap, alpha, f, Lattice(taus, 0.05))
    op = LaplaceOp(kap, alpha).apply(LiveFunction(f, 0.0))
    assert np.array_equal(got, op(Lattice(taus, 0.05)))
    plain = laplace_mod(kap, alpha, f, np.exp(taus))
    assert np.max(np.abs(got - plain)) <= 1e-13 * np.max(np.abs(plain))


def test_ek_and_hankel_read_a_lattice_as_plain_points():
    # positive_args turns a Lattice into plain points
    taus = -3.0 + 0.05 * np.arange(120)
    f = TestFunction.power_exp(0.5, 1.0)
    for op in (lambda x: ek_fractional("left", 0.7, 1.3, 0.4, f, x),
               lambda x: ek_fractional("right", 0.7, 1.3, 0.4, f, x),
               lambda x: hankel_mod(1.3, 0.4, f, x)):
        assert np.array_equal(op(Lattice(taus, 0.05)), op(np.exp(taus)))


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


@pytest.mark.parametrize("nu, r, exact", [(0.5, 2.0, 1.0), (1.0, 3.0, (1.0 / 3.0) ** (1.0 / 3.0))])
def test_norm_splits_at_hard_edge(nu, r, exact):
    # tpow:0 is 1 on (0, 1]: the integral of t^(r nu - 1) there is 1/(r nu)
    assert abs(lnur_norm(TestFunction.builtin("tpow:0"), nu, r) - exact) < 1e-11


def test_norm_ess_sup():
    val = lnur_norm(EXPF, 1.0, math.inf)
    # max of t e^-t is 1/e at t = 1
    assert abs(val - math.exp(-1)) < 1e-6


def test_norm_ess_sup_reads_a_grid_far_from_one():
    # ones on log t in [99, 101]: the samples follow the record's range
    t = np.exp(np.linspace(99.0, 101.0, 64))
    assert lnur_norm(GridFunction(t, np.ones(64)), 0.0, math.inf) == 1.0


def test_norm_ess_sup_of_a_peak_at_log_t_93():
    # t^3 e^(-1e-40 t) peaks at t = 3e40, where it is (3e40)^3 e^-3
    f = TestFunction.power_exp(3.0, 1e-40)
    sup = math.exp(3.0 * math.log(3e40) - 3.0)
    assert abs(lnur_norm(f, 0.0, math.inf) - sup) < 1e-5 * sup


@pytest.mark.parametrize("f", [lambda t: np.exp(-t), EXPF])
def test_norm_ess_sup_unbounded_returns_inf(f):
    # t^(-1/2) e^(-t) grows without bound as t -> 0, also where a
    # TestFunction reads t = e^tau as 0
    assert lnur_norm(f, -0.5, math.inf) == math.inf


@pytest.mark.parametrize("f", [lambda t: np.exp(-t), EXPF])
def test_norm_ess_sup_levelling_off(f):
    # e^-t tends to its sup 1 as t -> 0 without falling away
    assert abs(lnur_norm(f, 0.0, math.inf) - 1.0) < 1e-12


def test_norm_ess_sup_reads_inside_a_hard_edge():
    # t^0.5 on (0, 1] has its sup 1 at the edge t = 1, where tpow:0 is 0
    assert abs(lnur_norm(TestFunction.builtin("tpow:0"), 0.5, math.inf) - 1.0) < 1e-12


def test_norm_weight_inside_the_power():
    # |t^-1 t^3 e^(-1e-40 t)|^3 integrates to Gamma(6) / (3e-40)^6, about
    # 1.6e239, while |f|^3 alone reaches 2e360 at its peak
    f = TestFunction.power_exp(3.0, 1e-40)
    exact = math.exp((math.log(120.0) - 6.0 * math.log(3e-40)) / 3.0)
    assert abs(lnur_norm(f, -1.0, 3.0) - exact) < 1e-12 * exact


@pytest.mark.parametrize("nu", [0.02, 0.05])
def test_norm_near_the_strip_edge(nu):
    # the squared L_{nu,2} norm of e^-t is Gamma(2 nu) 2^(-2 nu)
    exact = math.sqrt(math.gamma(2.0 * nu) * 2.0 ** (-2.0 * nu))
    assert abs(lnur_norm(EXPF, nu, 2.0) - exact) < 1e-12 * exact


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


@pytest.mark.parametrize("values", [np.ones(10), np.ones((20, 2))])
def test_grid_function_rejects_mismatched_values(values):
    with pytest.raises(ParameterError, match="values of shape"):
        GridFunction(np.geomspace(0.1, 10.0, 20), values)


def test_grid_function_rejects_infinite_node():
    t = np.geomspace(0.1, 10.0, 20)
    t[-1] = np.inf
    with pytest.raises(ParameterError, match="finite"):
        GridFunction(t, np.ones(20))


def test_grid_function_mellin():
    t = np.geomspace(1e-4, 60.0, 3000)
    g = GridFunction(t, np.exp(-t))
    val = mellin_numeric(g, 2.0)
    assert abs(val - 1.0) < 1e-5  # limited by linear interpolation


@pytest.mark.parametrize("x", [math.nan, math.inf, 0.0])
def test_operators_reject_non_finite_or_non_positive_x(x):
    operators = (
        lambda: laplace_mod(1.0, 0.0, EXPF, [x]),
        lambda: ek_fractional("right", 1.0, 1.0, 1.0, EXPF, [x]),
        lambda: hankel_mod(1.0, 0.0, EXPF, [1.0, x]),
    )
    for op in operators:
        with pytest.raises(ParameterError, match="x must be positive"):
            op()
