"""The four workloads: job lists, references and accuracy gates.

A job is one timed call (one route on one kernel, input and x set; for
``survey`` the six steps on one kernel; for ``operators`` one operator
tabulated).  ``setup(seed)`` fixes the job list from theory alone
(``classify_case``, ``plan_factorization``, ``admissible_range``), computes
every reference outside the timed region and warms the package caches.  The
timed code reaches foxh only through module attributes looked up at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import foxh
import foxh.engine

from inputs import (
    BETA_K,
    CLOSED_FORMS,
    EK_DEFECT_DRAW,
    EXP_K,
    LOW_A_STAR_K,
    NARROW_STRIP_K,
    beta_family,
    canonical_params,
    criterion_04_draws,
    random_params,
    seeded_x,
)

ROUTE_GATE = 1e-5      # route agreement, as in test_criterion_07
IDENTITY_GATE = 1e-7   # Mellin identities, as in test_criterion_04
SYMBOL_GATE = 1e-10    # plan symbol residual, as in test_criterion_06
TABLE_GATE = 1e-8      # kernel reductions, as in test_criterion_01

@dataclass
class Job:
    """One timed call and the untimed check of what it returned.

    check(result) returns (relative error, within gate); reference names
    what the result is compared against.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    reference: str


def compare(values, reference, gate: float) -> tuple:
    """max |value - reference| over the job's largest |reference|."""
    values = np.asarray(values, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    scale = float(np.max(np.abs(reference)))
    err = float(np.max(np.abs(values - reference))) / scale
    if not math.isfinite(err):
        err = math.inf
    return err, err <= gate


def _test_functions():
    return foxh.TestFunction.power_exp(0.0, 1.0), foxh.TestFunction.power_exp(1.0, 1.0)


def clear_caches(lru_too: bool = True) -> None:
    """Empty the package's *_CACHE dicts and, with lru_too, its lru caches."""
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "foxh" or name.startswith("foxh.")):
            continue
        for attr, value in vars(mod).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
            elif lru_too and callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _mellin_reference(params, f, xs, nu, r):
    return foxh.htransform_mellin(params, f, xs, foxh.SpaceSpec(nu, r)).values


def _warm(kind: str, args, f) -> None:
    """Fill the Hankel-grid or Gauss-Jacobi cache that an operator call uses."""
    try:
        if kind == "hankel":
            foxh.hankel_mod(*args, f, 1.0)
        elif kind in ("ek-left", "ek-right"):
            foxh.ek_fractional(kind[3:], *args, f, 1.0)
    except foxh.FoxHError:
        pass


# ---------------------------------------------------------------------------
# plan: apply_plan on the nine canonical kernels
# ---------------------------------------------------------------------------

# One input, t e^{-t}, keeps a pass near six seconds so that a run holds
# several passes; with e^{-t} as well a pass took 17 s and a run held one.
def setup_plan(rng):
    xs = seeded_x(rng)
    f_exp, f_texp = _test_functions()
    jobs = []
    for case in range(1, 10):
        params, nu, r = canonical_params(case)
        plan = foxh.plan_factorization(params, nu, r)
        if case == 3:
            ref_name = "case3,te^-t: e^-x(1-x)"
            ref = CLOSED_FORMS[ref_name](xs)
        else:
            ref_name = f"mellin route, nu={nu:g}"
            ref = _mellin_reference(params, f_texp, xs, nu, r)
        jobs.append(Job(
            f"plan,case{case},te^-t",
            lambda plan=plan: foxh.apply_plan(plan, f_texp, xs).values,
            lambda v, ref=ref: compare(v, ref, ROUTE_GATE),
            ref_name,
        ))
        for op in plan.chain:
            if op.kind == "hankel":
                _warm(op.kind, (op.index, op.order), f_exp)
            elif op.kind.startswith("ek-"):
                _warm(op.kind, (op.alpha, op.sigma, op.eta), f_exp)
    return jobs


# ---------------------------------------------------------------------------
# direct: htransform_direct on cases 5-9, htransform_repr on the beta kernel
# ---------------------------------------------------------------------------

# One input, e^{-t}, and the representation route on the beta kernel only
# (both variants) keep a pass near seven seconds; the exponential kernel's
# representation jobs took 3.7 s each.  Set-up calls each job's route once on
# the first x, untimed, which builds exactly the contour evaluators it uses.
def setup_direct(rng):
    xs = seeded_x(rng)
    f_exp = _test_functions()[0]
    jobs = []
    for case in range(5, 10):
        params, nu, r = canonical_params(case)
        space = foxh.SpaceSpec(nu, r)
        ok, _ = foxh.admissible_range(foxh.derive_invariants(params), space,
                                      "direct-integral")
        if not ok:
            continue
        if params == EXP_K:
            ref_name = "exp-kernel,e^-t: 1/(1+x)"
            ref = CLOSED_FORMS[ref_name](xs)
        else:
            ref_name = f"mellin route, nu={nu:g}"
            ref = _mellin_reference(params, f_exp, xs, nu, r)
        foxh.htransform_direct(params, f_exp, xs[:1], space)
        jobs.append(Job(
            f"direct,case{case},e^-t",
            lambda params=params, space=space:
                foxh.htransform_direct(params, f_exp, xs, space).values,
            lambda v, ref=ref: compare(v, ref, ROUTE_GATE),
            ref_name,
        ))
    space = foxh.SpaceSpec(0.5, 2.0)
    ref_name = "beta-kernel,e^-t: e^(1/x)E1(1/x)/x"
    ref = CLOSED_FORMS[ref_name](xs)
    for lam in (1.0, -1.0):
        foxh.htransform_repr(BETA_K, f_exp, lam, 1.0, xs[:1], space)
        jobs.append(Job(
            f"repr,beta,lambda={lam:+g}",
            lambda lam=lam: foxh.htransform_repr(BETA_K, f_exp, lam, 1.0, xs, space).values,
            lambda v: compare(v, ref, ROUTE_GATE),
            ref_name,
        ))
    return jobs


# ---------------------------------------------------------------------------
# survey: random kernels, six steps each, plus closed-form and frozen kernels
# ---------------------------------------------------------------------------

SURVEY_RANDOM = 30
SURVEY_GRID = np.geomspace(1e-2, 1e2, 64)
# The random pool keeps to kernels whose cost and digits do not hang on the
# jitter: a* at least 0.25 (smaller a* needs contour heights in the
# thousands) and a capped strip at least 0.8 wide (the Mellin route loses
# digits when a symbol pole comes within a few tenths of its line).  One
# kernel beyond each limit is a fixed survey job: LOW_A_STAR_K, NARROW_STRIP_K.
SURVEY_MIN_A_STAR = 0.25
SURVEY_MIN_WIDTH = 0.8
SURVEY_LINE_SHIFT = 0.15


def capped_strip(inv):
    """The strip for t e^{-t}: its Mellin data needs Re s < 2, so cap at 1.5."""
    hi = min(inv.beta_high, 1.5)
    lo = inv.alpha_low if math.isfinite(inv.alpha_low) else hi - 2.0
    return lo, hi


def working_lines(inv):
    """(line, second line): the capped strip's midpoint and a little below."""
    lo, hi = capped_strip(inv)
    line = 0.5 * (lo + hi)
    return line, line - SURVEY_LINE_SHIFT


# The random kernels are a frozen pool drawn once, with the seed of the test
# suite's rng fixture; a run's seed moves every offset by up to SURVEY_JITTER.
# A fresh pool per seed made a pass's time and its fewest digits depend on
# which few expensive or ill-conditioned kernels a seed happened to draw.
SURVEY_POOL_SEED = 20240814
SURVEY_JITTER = 0.003


def survey_pool():
    """The first SURVEY_RANDOM random kernels that theory admits within the
    pool's limits on a* and strip width."""
    rng = np.random.default_rng(SURVEY_POOL_SEED)
    pool = []
    while len(pool) < SURVEY_RANDOM:
        params = random_params(rng)
        cand = _survey_candidate(params)
        if cand is None or cand[0].a_star < SURVEY_MIN_A_STAR:
            continue
        lo, hi = capped_strip(cand[0])
        if hi - lo >= SURVEY_MIN_WIDTH:
            pool.append(params)
    return pool


def jittered(params, rng):
    """params with each offset moved by up to SURVEY_JITTER in Re and Im."""
    def move(pairs):
        return [(c + complex(*rng.uniform(-SURVEY_JITTER, SURVEY_JITTER, 2)), w)
                for c, w in pairs]

    return foxh.validate_params(params.m, params.n, params.p, params.q,
                                move(params.upper), move(params.lower))


def _survey_candidate(params):
    """(inv, nu, nu2) when theory admits every survey step, else None."""
    inv = foxh.derive_invariants(params)
    if inv.case_label is None:
        return None
    line, line2 = working_lines(inv)
    nu, nu2 = 1.0 - line, 1.0 - line2
    for v in (nu, nu2):
        if not foxh.admissible_range(inv, foxh.SpaceSpec(v, 2.0), "definition")[0]:
            return None
    try:
        foxh.plan_factorization(params, nu, 2.0)
    except foxh.FoxHError:
        return None
    return inv, nu, nu2


def _survey_job(name, params, inv, nu, mellin_ref, table_ref):
    """The six survey steps on one kernel, with their untimed check.

    Every survey kernel has a* > 0, so a kernel contour always exists.
    """
    f_texp = _test_functions()[1]
    space = foxh.SpaceSpec(nu, 2.0)

    def run():
        case = foxh.classify_case(foxh.derive_invariants(params))
        plan = foxh.plan_factorization(params, nu, 2.0)
        residual = foxh.verify_plan_symbol(plan)
        sym = foxh.symbol_from_params(params)
        foxh.find_zeros_on_line(sym, nu, 10.0, strip=(inv.alpha_low, inv.beta_high))
        mel = foxh.htransform_mellin(params, f_texp, SURVEY_GRID, space).values
        table = [r.value for r in foxh.eval_hfunction_batch(params, SURVEY_GRID)]
        return case, residual, mel, table

    (m_name, m_ref, m_gate), (t_name, t_ref, t_gate) = mellin_ref, table_ref

    def check(out):
        case, residual, mel, table = out
        if case != inv.case_label:
            return math.inf, False
        errs = [(residual, residual <= SYMBOL_GATE), compare(mel, m_ref, m_gate),
                compare(table, t_ref, t_gate)]
        return max(e for e, _ in errs), all(ok for _, ok in errs)

    return Job(name, run, check, f"symbol residual; t e^-t: {m_name}; table: {t_name}")


def _second_line_table(params, inv, line2):
    """Kernel table on an explicit contour at the second line (untimed)."""
    T = 1.5 * max(foxh.choose_contour(inv, x).half_height for x in SURVEY_GRID[[0, -1]])
    contour = foxh.ContourSpec(line2, T, 8)
    return np.array([r.value for r in foxh.eval_hfunction_batch(params, SURVEY_GRID, contour)])


def setup_survey(rng):
    f_texp = _test_functions()[1]
    grid = SURVEY_GRID
    jobs = []
    fixed = [("exp-kernel", EXP_K, ("e^-x", np.exp(-grid), TABLE_GATE))]
    for a in (1.0, 2.0, 3.5):
        fixed.append((f"beta,a={a:g}", beta_family(a),
                      ("Gamma(a)(1+x)^-a", math.gamma(a) * (1.0 + grid) ** -a, TABLE_GATE)))
    for name, params, table_ref in fixed:
        inv, nu, nu2 = _survey_candidate(params)
        if params == EXP_K:
            mellin_ref = ("1/(1+x)^2", CLOSED_FORMS["exp-kernel,te^-t: 1/(1+x)^2"](grid),
                          ROUTE_GATE)
        else:
            mellin_ref = (f"mellin route, nu={nu2:.4g}",
                          _mellin_reference(params, f_texp, grid, nu2, 2.0), ROUTE_GATE)
        jobs.append(_survey_job(name, params, inv, nu, mellin_ref, table_ref))
    kernels = [("low-a*", LOW_A_STAR_K), ("narrow-strip", NARROW_STRIP_K)]
    for k, base in enumerate(survey_pool(), start=1):
        params = jittered(base, rng)
        if _survey_candidate(params) is None:  # jitter left theory: keep the pool kernel
            params = base
        kernels.append((f"random{k}", params))
    for name, params in kernels:
        inv, nu, nu2 = _survey_candidate(params)
        mellin_ref = (f"mellin route, nu={nu2:.4g}",
                      _mellin_reference(params, f_texp, grid, nu2, 2.0), ROUTE_GATE)
        table_ref = (f"contour at Re s={1.0 - nu2:.4g}",
                     _second_line_table(params, inv, 1.0 - nu2), ROUTE_GATE)
        jobs.append(_survey_job(f"{name},case{inv.case_label}", params, inv, nu,
                                mellin_ref, table_ref))
    return jobs


def before_survey_pass() -> None:
    """Each survey kernel is used once per pass, so its evaluator starts cold."""
    clear_caches(lru_too=False)


# ---------------------------------------------------------------------------
# operators: EK and Hankel draws tabulated, Mellin identities checked
# ---------------------------------------------------------------------------

# Draws taken from test_criterion_04 (by position in that test's sequence).
# EK and Hankel each take about half of a pass.  Laplace draws are left out:
# one costs 9-13 s, which no run could repeat, and plan already spends most
# of its time in laplace_mod.
OPERATOR_DRAWS = {"ek-left": (0, 1), "ek-right": (0,), "hankel": (0,)}
# Each seed moves every drawn parameter by up to this relative amount: the
# inputs change with the seed while the cost of a pass stays put.
JITTER = 0.001


def _identity(kind, params, f):
    """(timed tabulation, Mellin factor of the operator, check-line range)."""
    engine = foxh.engine
    if kind.startswith("ek"):
        side = kind[3:]
        alpha, sigma, eta, c, _ = params

        def tab():
            live = engine.LiveFunction(
                lambda xv: foxh.ek_fractional(side, alpha, sigma, eta, f, xv), 0.5)
            return engine.tabulate(live, h=0.05, floor=1e-40)

        if side == "left":
            lo, hi = -c, sigma * (1.0 + eta)
            fac = lambda s: np.exp(foxh.log_gamma(1 + eta - s / sigma)  # noqa: E731
                                   - foxh.log_gamma(1 + eta + alpha - s / sigma)) * f.mellin(s)
        else:
            lo = max(-sigma * eta, -c)
            hi = lo + 3.0
            fac = lambda s: np.exp(foxh.log_gamma(eta + s / sigma)  # noqa: E731
                                   - foxh.log_gamma(eta + alpha + s / sigma)) * f.mellin(s)
        return tab, fac, (lo, hi)
    kap, eta, c, _ = params  # hankel

    def tab():
        live = engine.LiveFunction(lambda xx: foxh.hankel_mod(kap, eta, f, xx), 0.5)
        return engine.tabulate(live, h=0.045, floor=1e-40)

    def fac(s):
        arg = kap * (s - 0.5)
        return (2 / abs(kap)) ** arg * np.exp(
            foxh.log_gamma((eta + arg + 1) / 2) - foxh.log_gamma((eta - arg + 1) / 2)
        ) * f.mellin(1 - s)

    return tab, fac, (0.5 - (1 + eta) / kap, 1.0 + c)


def _operator_job(kind, params, rng):
    f = foxh.TestFunction.power_exp(params[-2], params[-1])
    tab, fac, (lo, hi) = _identity(kind, params, f)
    w = hi - lo
    points = [complex(rng.uniform(lo + 0.3 * w, hi - 0.3 * w), rng.uniform(-1.5, 1.5))
              for _ in range(5)]
    rhs = [complex(fac(s)) for s in points]

    def check(table):
        lhs = [foxh.mellin_numeric(table, s) for s in points]
        err = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(lhs, rhs))
        return err, err < IDENTITY_GATE

    _warm(kind, params[:-2], f)
    name = kind + "(" + ",".join(f"{v:.6g}" for v in params) + ")"
    return Job(name, tab, check, "Mellin identity at 5 points")


def setup_operators(rng):
    draws = criterion_04_draws()
    jobs = []
    for kind, picks in OPERATOR_DRAWS.items():
        for i in picks:
            base = np.asarray(draws[kind][i])
            params = tuple(base * (1.0 + rng.uniform(-JITTER, JITTER, base.size)))
            jobs.append(_operator_job(kind, params, rng))
    kind, *params = EK_DEFECT_DRAW
    jobs.append(_operator_job(kind, tuple(params), rng))
    return jobs


@dataclass(frozen=True)
class Workload:
    setup: Callable
    before_pass: Callable[[], None] = lambda: None


WORKLOADS = {
    "plan": Workload(setup_plan),
    "direct": Workload(setup_direct),
    "survey": Workload(setup_survey, before_survey_pass),
    "operators": Workload(setup_operators),
}
