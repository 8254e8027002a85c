"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here and nothing is calibrated at runtime.
"""

import math

import numpy as np

from foxh import (
    SpaceSpec,
    TestFunction,
    apply_plan,
    bilinear_check,
    derive_invariants,
    eval_hfunction_batch,
    find_zeros_on_line,
    htransform_direct,
    htransform_mellin,
    htransform_repr,
    laplace_mod,
    ek_fractional,
    hankel_mod,
    lnur_norm,
    log_gamma,
    mellin_numeric,
    plan_factorization,
    symbol_from_params,
    validate_params,
    verify_plan_symbol,
)
from foxh.engine import Dilate, LiveFunction, PowerWeight, Reflect, tabulate
from foxh.gammasym import AsymptoticEstimate, asymptotic_log_derivative
from foxh.cli import run_cli

from conftest import canonical_params, exp_series, random_params

EXP_K = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])


def report(num: int, name: str) -> None:
    print(f"\n[criterion {num:2d}] {name}: PASS")


def test_criterion_01_kernel_reductions():
    xs = np.geomspace(0.1, 10.0, 20)
    res = eval_hfunction_batch(EXP_K, xs, target_abs_err=1e-11)
    worst = max(abs(r.value - exp_series(x)) / exp_series(x)
                for r, x in zip(res, xs))
    assert worst < 1e-8, f"exponential reduction off by {worst:.2e}"
    for a in (1.0, 2.0, 3.5):
        pb = validate_params(1, 1, 1, 1, [(1.0 - a, 1.0)], [(0.0, 1.0)])
        res = eval_hfunction_batch(pb, xs, target_abs_err=1e-11)
        worst = max(
            abs(r.value - math.gamma(a) * (1 + x) ** (-a))
            / (math.gamma(a) * (1 + x) ** (-a))
            for r, x in zip(res, xs)
        )
        assert worst < 1e-8, f"beta reduction a={a} off by {worst:.2e}"
    report(1, "kernel reductions (exponential and beta families)")


def _nine_predicates(inv):
    a, d, m = inv.a_star, inv.delta_cap, inv.mu.real
    a1, a2 = inv.a1_star, inv.a2_star
    tol = 1e-12
    z = lambda v: abs(v) <= tol
    return [
        z(a) and z(d) and z(m),
        z(a) and z(d) and m < -tol,
        z(a) and d > tol,
        z(a) and d < -tol,
        a1 > tol and a2 > tol,
        a1 > tol and z(a2),
        z(a1) and a2 > tol,
        a > tol and a1 > tol and a2 < -tol,
        a > tol and a1 < -tol and a2 > tol,
    ]


def test_criterion_02_invariant_algebra():
    rng = np.random.default_rng(42)
    classified = 0
    for _ in range(1000):
        inv = derive_invariants(random_params(rng))
        assert inv.a_star == inv.a1_star + inv.a2_star
        assert inv.delta_cap == inv.a1_star - inv.a2_star
        hits = sum(_nine_predicates(inv))
        if inv.case_label is None:
            assert hits == 0
        else:
            assert hits == 1
            assert _nine_predicates(inv)[inv.case_label - 1]
            classified += 1
    assert classified > 300
    report(2, "invariant sum/difference identities and exclusive nine-case split")


def test_criterion_03_magnitude_envelope_and_log_derivative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = random_params(rng, w_lo=0.45)
        inv = derive_invariants(params)
        est = AsymptoticEstimate.from_invariants(inv)
        sym = symbol_from_params(params)
        for sigma in (-0.4, 0.3, 1.0):
            for t, tol in ((200.0, 0.02), (1000.0, 0.005)):
                for sign in (1.0, -1.0):
                    log_ratio = float(
                        np.real(sym.eval_log(sigma + 1j * sign * t))
                    ) - est.log_value(sigma, sign * t)
                    assert abs(math.exp(log_ratio) - 1.0) < tol
        # log-derivative expansion: error * t^2 stays bounded on [100, 1000]
        sigma = 0.3
        ts = np.geomspace(100.0, 1000.0, 10)
        errs = []
        for t in ts:
            h = 1e-3
            fd = (sym.eval_log(sigma + 1j * (t + h))
                  - sym.eval_log(sigma + 1j * (t - h))) / (2j * h)
            errs.append(abs(fd - asymptotic_log_derivative(inv, sigma, t)) * t * t)
        c_fit = max(errs[:3])
        assert max(errs) <= 4.0 * c_fit + 1e-9
    report(3, "magnitude envelope ratios and log-derivative 1/t^2 remainder")


def test_criterion_04_mellin_identities():
    rng = np.random.default_rng(11)

    # Erdelyi-Kober, both sides
    for side in ("left", "right"):
        for _ in range(10):
            alpha = rng.uniform(0.4, 1.8)
            sigma = rng.uniform(0.6, 1.6)
            eta = rng.uniform(0.2, 1.2)
            c = rng.uniform(0.0, 0.8)
            f = TestFunction.power_exp(c, rng.uniform(0.6, 1.4))
            out = LiveFunction(
                lambda xv: ek_fractional(side, alpha, sigma, eta, f, xv), 0.5)
            tab = tabulate(out, h=0.05, floor=1e-40)
            if side == "left":
                lo, hi = -c, sigma * (1.0 + eta)
                width = hi - lo
                fac = lambda s: np.exp(
                    log_gamma(1 + eta - s / sigma)
                    - log_gamma(1 + eta + alpha - s / sigma))
            else:
                lo = max(-sigma * eta, -c)
                width, hi = 3.0, lo + 3.0
                fac = lambda s: np.exp(
                    log_gamma(eta + s / sigma)
                    - log_gamma(eta + alpha + s / sigma))
            for _ in range(5):
                s = complex(rng.uniform(lo + 0.3 * width, hi - 0.3 * width),
                            rng.uniform(-1.5, 1.5))
                lhs = mellin_numeric(tab, s)
                rhs = fac(s) * f.mellin(s)
                assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs)), \
                    f"EK {side} identity off at s={s}"

    # modified Hankel
    for _ in range(10):
        kap = rng.uniform(0.5, 2.0)
        eta = rng.uniform(-0.7, 2.5)
        c = rng.uniform(0.0, 1.0)
        f = TestFunction.power_exp(c, rng.uniform(0.5, 1.5))
        hf = tabulate(
            LiveFunction(lambda xx: hankel_mod(kap, eta, f, xx), 0.5),
            h=0.045, floor=1e-40)
        lo = 0.5 - (1 + eta) / kap
        hi = 1.0 + c
        w = hi - lo
        for _ in range(5):
            s = complex(rng.uniform(lo + 0.3 * w, hi - 0.3 * w),
                        rng.uniform(-1.5, 1.5))
            arg = kap * (s - 0.5)
            lhs = mellin_numeric(hf, s)
            rhs = (2 / abs(kap)) ** arg * np.exp(
                log_gamma((eta + arg + 1) / 2) - log_gamma((eta - arg + 1) / 2)
            ) * f.mellin(1 - s)
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs)), \
                f"Hankel identity off at s={s}"

    # modified Laplace
    for _ in range(10):
        kap = rng.uniform(0.6, 1.8)
        alpha = rng.uniform(-0.3, 0.5)
        c = rng.uniform(0.0, 1.0)
        f = TestFunction.power_exp(c, rng.uniform(0.5, 1.5))
        lf = tabulate(
            LiveFunction(lambda xx: laplace_mod(kap, alpha, f, xx), 0.5),
            h=0.05, floor=1e-40)
        lo = alpha  # first pole of Gamma(kappa (s - alpha)) at s = alpha
        hi = 1.0 + c
        w = hi - lo
        for _ in range(5):
            s = complex(rng.uniform(lo + 0.3 * w, hi - 0.3 * w),
                        rng.uniform(-1.5, 1.5))
            arg = kap * (s - alpha)
            lhs = mellin_numeric(lf, s)
            rhs = np.exp(log_gamma(arg)) * abs(kap) ** (1 - arg) * f.mellin(1 - s)
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(rhs)), \
                f"Laplace identity off at s={s}"
    report(4, "fractional/Hankel/Laplace Mellin identities (10 tuples, 5 points)")


def test_criterion_05_elementary_operator_laws():
    fns = [TestFunction.power_exp(0.0, 1.0), TestFunction.power_exp(1.0, 1.0),
           TestFunction.gaussian(0.5, 0.5)]
    for f in fns:
        for nu, r in ((0.8, 2.0), (1.2, 3.0)):
            base = lnur_norm(f, nu, r)
            live = LiveFunction(f, nu)
            zeta = 0.4 + 0.2j
            Mf = PowerWeight(zeta).apply(live)
            assert abs(lnur_norm(Mf, nu - zeta.real, r) - base) < 1e-9
            Rf = Reflect().apply(live)
            assert abs(lnur_norm(Rf, 1.0 - nu, r) - base) < 1e-9
            d = 2.3
            Wf = Dilate(d).apply(live)
            assert abs(lnur_norm(Wf, nu, r) - d ** nu * base) < 1e-9 * d ** nu
    f = fns[0]
    live = LiveFunction(f, 0.5)
    s = 1.1 + 0.6j
    zeta = 0.35 + 0.1j
    d = 1.7
    assert abs(mellin_numeric(PowerWeight(zeta).apply(live), s)
               - f.mellin(s + zeta)) < 1e-8
    assert abs(mellin_numeric(Dilate(d).apply(live), s)
               - d ** s * f.mellin(s)) < 1e-8
    s_r = 0.6 + 0.6j
    assert abs(mellin_numeric(Reflect().apply(live), s_r)
               - f.mellin(1.0 - s_r)) < 1e-8
    report(5, "power-weight/inversion isometries, dilation scaling, bookkeeping")


def test_criterion_06_factorization_symbol_identities():
    for case in range(1, 10):
        params, nu, r = canonical_params(case)
        plan = plan_factorization(params, nu, r)
        assert plan.case_label == case
        residual = verify_plan_symbol(plan)
        assert residual <= 1e-10, f"case {case} residual {residual:.2e}"
    report(6, "nine per-case factorization chains reproduce the kernel symbol")


def test_criterion_07_route_agreement():
    xs = np.array([0.5, 1.0, 2.0])
    fs = [TestFunction.power_exp(0.0, 1.0), TestFunction.power_exp(1.0, 1.0)]
    kernels = [EXP_K, validate_params(1, 1, 1, 1, [(0.0, 1.0)], [(0.0, 1.0)])]
    for params in kernels:
        plan = plan_factorization(params, 0.5, 2.0)
        sp = SpaceSpec(0.5, 2.0)
        for f in fs:
            routes = {
                "direct": htransform_direct(params, f, xs, sp).values,
                "mellin": htransform_mellin(params, f, xs, sp).values,
                "repr-up": htransform_repr(params, f, 1.0, 1.0, xs, sp).values,
                "repr-down": htransform_repr(params, f, -1.0, 1.0, xs, sp).values,
                "plan": apply_plan(plan, f, xs).values,
            }
            names = sorted(routes)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    scale = np.abs(routes[a])
                    gap = float(np.max(np.abs(routes[a] - routes[b]) / scale))
                    assert gap < 1e-5, f"{a} vs {b}: {gap:.2e}"
    a = htransform_mellin(EXP_K, fs[0], xs, SpaceSpec(0.5, 2.0))
    b = htransform_mellin(EXP_K, fs[0], xs, SpaceSpec(0.75, 2.0))
    assert np.max(np.abs(a.values - b.values)) < 1e-6
    report(7, "direct/multiplier/representation/chain routes agree pairwise")


def test_criterion_08_bilinear_relation():
    f1 = TestFunction.power_exp(0.0, 1.0)
    f2 = TestFunction.power_exp(1.0, 1.0)
    f3 = TestFunction.power_exp(0.0, 2.0)
    pairs = [(f1, f2), (f1, f3), (f2, f3)]
    for case in (1, 3, 5, 6):
        params, nu, r = canonical_params(case)
        sp = SpaceSpec(nu, 2.0)
        for f, g in pairs:
            residual = bilinear_check(params, f, g, sp)
            assert residual < 1e-6, f"case {case}: residual {residual:.2e}"
    report(8, "bilinear pairing symmetry across applicable cases")


def test_criterion_09_exceptional_set_probe():
    ratio = validate_params(1, 0, 1, 1, [(0.0, 1.0)], [(1.0, 1.0)])
    inv = derive_invariants(ratio)
    rep = find_zeros_on_line(symbol_from_params(ratio), 1.0, 5.0,
                             strip=(inv.alpha_low, inv.beta_high))
    assert len(rep.zeros) == 1
    z, mult = rep.zeros[0]
    assert abs(z) < 1e-9 and mult == 1
    assert rep.in_exceptional_set

    inv_e = derive_invariants(EXP_K)
    rep2 = find_zeros_on_line(symbol_from_params(EXP_K), 0.5, 50.0,
                              strip=(inv_e.alpha_low, inv_e.beta_high))
    assert rep2.zeros == () and not rep2.in_exceptional_set
    report(9, "exceptional-set probe: ratio symbol zero found, gamma kernels clean")


def test_criterion_10_cli_determinism_and_exit_codes(capsys, tmp_path):
    exp_json = '{"m":1,"n":0,"p":0,"q":1,"upper":[],"lower":[[0,0,1]]}'
    bessel_json = ('{"m":1,"n":0,"p":0,"q":2,"upper":[],'
                   '"lower":[[0,0,1],[0,0,1]]}')
    ratio_json = ('{"m":1,"n":0,"p":1,"q":1,"upper":[[0,0,1]],'
                  '"lower":[[1,0,1]]}')
    fixtures = [
        ("classify", "--params", exp_json, "--nu", "0.5", "--r", "2"),
        ("eval", "--params", exp_json, "--x-grid", "0.1:10:5"),
        ("transform", "--params", exp_json, "--nu", "0.5", "--r", "2",
         "--f", "exp", "--x", "1", "--route", "mellin"),
        ("zeros", "--params", ratio_json, "--nu", "1.0", "--window", "5"),
        ("factorize", "--params", exp_json, "--nu", "0.5", "--r", "2"),
        ("verify", "--params", exp_json, "--nu", "0.5", "--r", "2"),
    ]
    for argv in fixtures:
        code1 = run_cli(list(argv))
        out1 = capsys.readouterr().out
        code2 = run_cli(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, argv[0]
        assert out1 == out2, f"{argv[0]} output not byte-identical"
        assert out1

    code = run_cli(["transform", "--params", bessel_json, "--nu", "0.5",
                    "--r", "2", "--f", "exp", "--x", "1", "--route", "direct"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("hypothesis-failure:")
    assert "\n" not in err.strip()

    code = run_cli(["classify", "--params", "{broken"])
    err = capsys.readouterr().err
    assert code == 64 and err.startswith("usage-error:")
    report(10, "CLI reruns byte-identical; documented exit codes observed")
