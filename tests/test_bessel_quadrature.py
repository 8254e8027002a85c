"""Bessel J, Gauss rules, series acceleration, oscillatory integrals.

The oscillatory Bessel integrals are taken with hankel_mod at kappa = 1,
(H f)(x) = integral of (x t)^(1/2) J_eta(x t) f(t) dt.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import jv as scipy_jv

from foxh.bessel import bessel_j, phase_breakpoints
from foxh.classical import hankel_mod
from foxh.errors import DivergentIntegralError, NumericalError
from foxh.quadrature import (
    Run,
    endpoint_power_rule,
    equal_panels,
    trapezoid_line,
    wynn_epsilon,
)


def test_bessel_real_orders_vs_scipy():
    z = np.linspace(0.01, 60.0, 911)
    for eta in (0.0, 0.5, -0.5, 1.0, 2.3, -0.9):
        err = np.max(np.abs(bessel_j(eta, z) - scipy_jv(eta, z)))
        assert err < 5e-11


def test_bessel_seam_cross_validation():
    # series and asymptotic branches must agree through the switchover
    z = np.linspace(11.5, 12.5, 301)
    for eta in (0.0, 1.5, -0.7, 2.5):
        err = np.max(np.abs(bessel_j(eta, z) - scipy_jv(eta, z)))
        assert err < 1e-10


def test_bessel_complex_order_vs_mpmath():
    eta = 0.7 + 0.3j
    for z in (0.5, 3.0, 11.9, 12.1, 30.0, 200.0):
        ref = complex(mpmath.besselj(mpmath.mpc(eta), z))
        assert abs(complex(bessel_j(eta, z)[0]) - ref) < 2e-11


@pytest.mark.parametrize("eta", [-0.3, 0.0, 0.7, 1.6, 0.5 + 0.8j, 2.5 - 1.2j,
                                 -0.6 + 0.3j])
def test_bessel_ascending_series_vs_mpmath(eta):
    # the series branch (z <= 12) cancels terms of up to about 1e3, so its
    # coefficients must be good to a few ulps each
    z = np.linspace(0.05, 12.0, 240)
    with mpmath.workdps(30):
        ref = np.array([complex(mpmath.besselj(mpmath.mpc(eta), x)) for x in z])
    assert np.max(np.abs(bessel_j(eta, z) - ref)) < 2e-12


def test_phase_breakpoints_near_true_zeros():
    from scipy.special import jn_zeros

    ref = jn_zeros(1, 30)
    mine = phase_breakpoints(1.0, 30)
    assert np.max(np.abs(mine - ref)) < 5e-3


@pytest.mark.parametrize("alpha", [0.02, 0.06, 0.4, 1.0, 1.8, 6.0, 0.8 + 0.1j,
                                   0.3 + 0.3j, 0.5 + 2j, 0.5 + 5j, 1.5 + 3j,
                                   0.016 + 0.23j])
def test_endpoint_power_rule_moments(alpha):
    # int_0^(1/2) w^(alpha-1) dw = 2^-alpha / alpha
    w, c = endpoint_power_rule(complex(alpha))
    exact = 2.0 ** -complex(alpha) / alpha
    assert abs(np.sum(c) - exact) < 1e-13 * abs(exact)
    assert np.all((w >= 0.0) & (w <= 0.5))


def test_endpoint_power_rule_refuses_order_near_zero():
    # the phase of w^(0.4i) against the modulus w^(1e-6) would take ~1e8 nodes
    with pytest.raises(NumericalError, match="endpoint rule"):
        endpoint_power_rule(1e-6 + 0.4j)


def test_equal_panels_polynomial_exactness():
    mid, off, w = equal_panels(0.0, 3.0, 1.0, 6)
    val = float(np.sum(w * (mid[:, None] + off) ** 7))
    assert abs(val - 3.0 ** 8 / 8.0) < 1e-10


def test_trapezoid_line_gaussian():
    val, err = trapezoid_line(lambda t: np.exp(-t * t), tol=1e-13)
    assert abs(val - math.sqrt(math.pi)) < 1e-12


# supports centred from -200 to 150, decay lengths from 0.05 to 10, and a
# kink on the lattice, where the sums converge only like h^2
@pytest.mark.parametrize("g, exact, atol", [
    (lambda t: np.exp(-(t + 200.0) ** 2 / 0.05), math.sqrt(0.05 * math.pi), 1e-12),
    (lambda t: np.exp(-(t - 150.0) ** 2 / 400.0) * np.exp(0.3j * t),
     math.sqrt(400.0 * math.pi) * math.exp(-9.0) * complex(math.cos(45.0), math.sin(45.0)),
     1e-12),
    (lambda t: 1.0 / np.cosh(t / 10.0), 10.0 * math.pi, 1e-9),
    (lambda t: np.exp(-np.abs(t - 3.0)) * (1.0 + 2.0j), 2.0 + 4.0j, 1e-3),
], ids=["narrow-at-minus-200", "wide-oscillating-at-150", "sech", "kink"])
def test_trapezoid_line_closed_forms(g, exact, atol):
    val, err = trapezoid_line(g, tol=1e-12)
    assert abs(val - exact) < atol
    assert abs(val - exact) <= max(err, 1e-13)


def test_trapezoid_line_hands_g_arithmetic_runs():
    runs = []

    def g(tau):
        assert isinstance(tau, Run) and tau.start == tau[0]
        assert type(tau * 2.0) is np.ndarray and type(np.exp(tau)) is np.ndarray
        runs.append((tau.start, tau.step, np.array(tau)))
        tau *= tau  # in place, as on a plain array
        return np.exp(-tau)

    val, _ = trapezoid_line(g, tol=1e-13)
    assert abs(val - math.sqrt(math.pi)) < 1e-12
    for start, step, points in runs:
        assert points.size == 64
        assert np.allclose(points, start + step * np.arange(64), rtol=0, atol=1e-12)
    assert {step for _, step, _ in runs} == {0.5, -0.5}


def test_trapezoid_line_zero_integrand():
    assert trapezoid_line(lambda t: np.zeros_like(t))[0] == 0.0


def test_trapezoid_line_non_decaying_integrand_raises():
    with pytest.raises(DivergentIntegralError):
        trapezoid_line(lambda t: np.ones_like(t))


def test_trapezoid_line_one_d_returns_scalars():
    val, err = trapezoid_line(lambda t: np.exp(-t * t))
    assert isinstance(val, complex) and isinstance(err, float)
    assert np.ndim(val) == 0 and np.ndim(err) == 0


def test_wynn_accelerates_log2():
    partial = np.cumsum([(-1.0) ** k / (k + 1.0) for k in range(30)])
    est, gap = wynn_epsilon(list(partial))
    assert abs(est - math.log(2.0)) < 1e-12


def test_wynn_handles_converged_input():
    est, gap = wynn_epsilon([1.0] * 20)
    assert est == 1.0 and gap == 0.0


def _wynn_loop(partial_sums):
    # one sequence, entry by entry, as a reference for the column form
    s = [complex(v) for v in partial_sums]
    n = len(s)
    scale = max(abs(v) for v in s)
    if scale == 0.0:
        return 0.0 + 0.0j, 0.0
    if max(abs(b - a) for a, b in zip(s[:-1], s[1:])) <= 1e-15 * scale:
        return s[-1], 0.0
    col_prev, col_curr = [0.0 + 0.0j] * (n + 1), list(s)
    even_tops, k = [col_curr[-1]], 0
    while len(col_curr) >= 2:
        pairs = list(zip(col_curr[:-1], col_curr[1:]))
        if any(abs(b - a) <= 5e-16 * (abs(a) + abs(b)) + 1e-280 for a, b in pairs):
            break
        col_next = [p + 1.0 / (b - a) for p, (a, b) in zip(col_prev[1:], pairs)]
        col_prev, col_curr = col_curr, col_next
        k += 1
        if k % 2 == 0:
            even_tops.append(col_curr[-1])
    best_val, best_gap = even_tops[-1], math.inf
    for a, b in zip(even_tops[:-1], even_tops[1:]):
        if abs(b - a) <= best_gap:
            best_gap, best_val = abs(b - a), b
    return best_val, best_gap


def test_wynn_columns_equal_scalar_calls():
    k = np.arange(40)
    cols = [
        np.cumsum((-1.0) ** k / (k + 1.0)),
        np.cumsum((-1.0) ** k / (k + 1.0) ** 2),
        np.cumsum((-0.8 + 0.3j) ** k),
        np.full(40, 2.5 - 1.0j),  # flat
        np.zeros(40),
        np.cumsum(0.3 ** k),  # differences at rounding level at once
        1.5e308 * (-1.0) ** k,  # differences overflow to inf
    ]
    table = np.column_stack(cols)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, gap = wynn_epsilon(table)
        scalar = [wynn_epsilon(col) for col in cols]
    assert est.shape == gap.shape == (len(cols),)
    np.testing.assert_allclose(est, [e for e, _ in scalar], rtol=1e-15, atol=0)
    np.testing.assert_allclose(gap, [g for _, g in scalar], rtol=1e-15, atol=0)
    loop = [_wynn_loop(col) for col in cols]
    np.testing.assert_allclose(est, [e for e, _ in loop], rtol=1e-15, atol=0)
    np.testing.assert_allclose(gap, [g for _, g in loop], rtol=1e-15, atol=0)
    assert abs(est[0] - math.log(2.0)) < 1e-12
    assert est[3] == 2.5 - 1.0j and gap[3] == 0.0
    assert est[4] == 0.0 and gap[4] == 0.0
    assert est[5] == cols[5][-1] and gap[5] == math.inf


def test_oscillatory_integral_exponential_weight():
    # integral of e^{-v} J_0(3 v) dv = 1/sqrt(10)
    val = hankel_mod(1.0, 0.0, lambda t: np.exp(-t) / np.sqrt(t), 3.0) / math.sqrt(3.0)
    assert abs(val - 1.0 / math.sqrt(10.0)) < 1e-11


def test_oscillatory_integral_weber():
    # integral of J_0(v) dv = 1
    val = hankel_mod(1.0, 0.0, lambda t: t ** -0.5, 1.0)
    assert abs(val - 1.0) < 1e-9


def test_oscillatory_integral_gaussian_pair():
    # integral of v^2 e^{-v^2/2} J_1(5 v) dv = 5 e^{-12.5}
    val = hankel_mod(1.0, 1.0, lambda t: t ** 1.5 * np.exp(-t * t / 2), 5.0) \
        / math.sqrt(5.0)
    assert abs(val - 5.0 * math.exp(-12.5)) < 1e-12
