"""Transform engine: routes, factorization plans, and their verification.

The transform of a test function can be computed three ways (direct
integral, Mellin multiplier, differentiated representation) plus a fourth:
applying the per-case operator factorization chain.  Chains are tuples of
primitive operators applied left to right (first element first).

Each primitive states its Mellin action once, as ``mellin_action()``
returning (GammaSymbol, a, b): the Mellin transform of its output at s is
that symbol times the input's transform at a + b s.  Everything else about
the action is derived from it: the weight of the output space (the input's
line Re s = nu maps to Re(a + b s) = nu, see ``_out_weight``) and the action
of a whole chain, which ``chain_action`` composes with
``GammaSymbol.substitute`` into one symbol and one affine map.  Each
primitive also knows its admissibility conditions and how to apply itself
numerically.

A chain factorizes the transform exactly when its composed map is the
reflection s -> 1 - s and its composed symbol is the kernel symbol;
verify_plan_symbol checks the map once and the symbol pointwise on the
working line, the numerical content of the range theorems used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .classical import (
    Support,
    TestFunction,
    ek_fractional,
    hankel_mod,
    laplace_mod,
    mellin_line_samples,
    mellin_inverse_numeric,
    support_of,
)
from .errors import (
    HypothesisError,
    NumericalError,
    OutOfTheoryError,
    ParameterError,
    PoleError,
)
from .gammasym import GammaSymbol, build_aux_symbol, symbol_from_params
from .mellin_barnes import kernel_evaluator
from .params import (
    HParams,
    SpaceSpec,
    admissible_range,
    classify_case,
    derive_invariants,
    transpose_params,
    validate_params,
)
from .quadrature import LineRule, trapezoid_line

# Multiplier.apply's line: half height and Gauss-Legendre nodes per unit
_MULTIPLIER_HALF_HEIGHT, _MULTIPLIER_NODES = 48.0, 16


# ---------------------------------------------------------------------------
# Live functions and primitive operators
# ---------------------------------------------------------------------------

class LiveFunction:
    """Vectorized callable on (0, inf) tagged with its space weight.

    cost records how expensive a single evaluation is (0: closed form,
    1: one matrix product, 2: nested quadrature); integral operators
    tabulate costly inputs before sampling them thousands of times.
    support is the function's Support record, with fn's hard edges.
    """

    def __init__(self, fn, nu: float, cost: int = 0):
        self._fn = fn
        self.nu = float(nu)
        self.cost = cost
        self.support = Support(self, support_of(fn).hard)

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.asarray(self._fn(x), dtype=complex)


_LAGRANGE_W8 = np.array([-1.0, 7.0, -21.0, 35.0, -35.0, 21.0, -7.0, 1.0])


# tabulate's grid reaches this far in log x past its support window
_TABLE_MARGIN = 2.5


def tabulate(live: LiveFunction, *, h: float = 0.05,
             floor: float = 1e-17) -> LiveFunction:
    """Sample a function on a log-uniform grid and interpolate thereafter.

    Uses centered 8-point barycentric interpolation in log x (error
    O(h^8) for smooth data).  The grid is the window of live's Support
    record where |live| exceeds floor times its side's peak, widened by
    _TABLE_MARGIN; outside it the table returns zero.
    """
    win = support_of(live).window(0.0, floor)
    if win is None:
        return LiveFunction(lambda x: np.zeros_like(x, dtype=complex), live.nu, 0)
    t_lo = win[0] - _TABLE_MARGIN
    t_hi = win[1] + _TABLE_MARGIN
    taus = np.arange(t_lo, t_hi + h, h)
    vals = live(np.exp(taus))
    n = taus.size

    def ev(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            tx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
        inside = (tx >= t_lo) & (tx <= t_hi - h * 1e-9)
        if not inside.any():
            return out
        pos = (tx[inside] - t_lo) / h
        base = np.clip(np.floor(pos).astype(int) - 3, 0, n - 8)
        frac = pos - base
        idx = base[:, None] + np.arange(8)[None, :]
        vv = vals[idx]
        d = frac[:, None] - np.arange(8)[None, :]
        exact = np.abs(d) < 1e-12
        d = np.where(exact, 1.0, d)
        w = _LAGRANGE_W8[None, :] / d
        num = np.sum(w * vv, axis=1)
        den = np.sum(w, axis=1)
        res = num / den
        hit = exact.any(axis=1)
        if hit.any():
            res[hit] = vv[exact].reshape(-1)
        out[inside] = res
        return out

    return LiveFunction(ev, live.nu, cost=0)


def _integral_step(prim, live: LiveFunction, op, *args) -> LiveFunction:
    """prim's output x -> op(*args, live, x), live tabulated first if costly."""
    src = tabulate(live) if getattr(live, "cost", 0) >= 1 else live
    return LiveFunction(lambda x: op(*args, src, x), _out_weight(prim, live.nu), cost=2)


def _out_weight(prim, nu: float) -> float:
    """Weight of prim's output space for an input of weight nu.

    The input's Mellin line Re s = nu must be Re(a + b s), so the output's
    line, and weight, is (nu - Re a) / b.
    """
    _, a, b = prim.mellin_action()
    return (nu - complex(a).real) / b


def _carried(live, fn, nu: float, sign: float, shift: float = 0.0) -> LiveFunction:
    """fn(e^tau) = live(e^(sign tau + shift)) times a smooth factor, as a
    LiveFunction of live's cost that carries live's hard edges."""
    out = LiveFunction(fn, nu, getattr(live, "cost", 0))
    ends = [None if e is None else sign * e + shift for e in support_of(live).hard]
    out.support = Support(out, ends if sign > 0 else ends[::-1])
    return out


@dataclass(frozen=True)
class Reflect:
    kind: str = field(default="reflect", init=False)

    def mellin_action(self):
        return GammaSymbol.one(), 1.0, -1.0

    def check_space(self, nu, r):
        return None

    def apply(self, live: LiveFunction) -> LiveFunction:
        return _carried(live, lambda x: live(1.0 / x) / x, _out_weight(self, live.nu), -1.0)

    def describe(self):
        return {"op": "reflect"}


@dataclass(frozen=True)
class PowerWeight:
    zeta: complex
    kind: str = field(default="power-weight", init=False)

    def mellin_action(self):
        return GammaSymbol.one(), self.zeta, 1.0

    def check_space(self, nu, r):
        return None

    def apply(self, live: LiveFunction) -> LiveFunction:
        zeta = complex(self.zeta)
        return _carried(live, lambda x: np.exp(zeta * np.log(x)) * live(x),
                        _out_weight(self, live.nu), 1.0)

    def describe(self):
        return {"op": "power-weight", "zeta": [self.zeta.real, self.zeta.imag]}


@dataclass(frozen=True)
class Dilate:
    factor: float
    kind: str = field(default="dilate", init=False)

    def __post_init__(self):
        if self.factor <= 0:
            raise ParameterError("dilation factor must be positive")

    def mellin_action(self):
        return GammaSymbol.power(self.factor, 0.0, 1.0), 0.0, 1.0

    def check_space(self, nu, r):
        return None

    def apply(self, live: LiveFunction) -> LiveFunction:
        return _carried(live, lambda x: live(x / self.factor), _out_weight(self, live.nu),
                        1.0, math.log(self.factor))

    def describe(self):
        return {"op": "dilate", "factor": self.factor}


@dataclass(frozen=True)
class Multiplier:
    symbol: GammaSymbol
    label: str = "multiplier"
    strip: Optional[tuple] = None
    kind: str = field(default="multiplier", init=False)

    def mellin_action(self):
        return self.symbol, 0.0, 1.0

    def check_space(self, nu, r):
        if not (1.0 < r < math.inf):
            raise HypothesisError("1 < r < inf", "multiplier transforms need it")
        if self.strip is not None:
            lo, hi = self.strip
            if not (lo < nu < hi):
                raise HypothesisError(
                    "multiplier strip", f"need {lo:g} < {nu:g} < {hi:g}"
                )

    def apply(self, live: LiveFunction) -> LiveFunction:
        nu_c = live.nu
        rule = LineRule(lambda s: self.symbol.eval(s) * mellin_line_samples(live, s),
                        nu_c, _MULTIPLIER_HALF_HEIGHT, _MULTIPLIER_NODES)
        # zero numerically dead contour nodes and drop panels left without any
        mags = np.abs(rule.coeff)
        keep = mags > np.max(mags) * 1e-18
        # below this x^(-nu)-scaled floor the truncated inversion is noise
        noise_const = float(np.sum(mags[~keep]) + np.sum(mags[keep]) * 1e-15)
        live_panels = keep.any(axis=1)
        rule.mid, rule.coeff = rule.mid[live_panels], np.where(keep, rule.coeff, 0.0)[live_panels]
        # the discrete contour sum aliases beyond its resolution horizon
        horizon = 0.75 * math.pi * _MULTIPLIER_NODES

        def ev(x):
            logx = np.log(x)
            vals = rule(logx)
            floor = noise_const * np.exp(-nu_c * logx)
            vals = np.where(np.abs(vals) > 12.0 * floor, vals, 0.0)
            return np.where(np.abs(logx) <= horizon, vals, 0.0)

        return LiveFunction(ev, _out_weight(self, nu_c), cost=1)

    def describe(self):
        return {"op": "multiplier", "label": self.label,
                "symbol": self.symbol.to_json()}


@dataclass(frozen=True)
class EKLeft:
    alpha: complex
    sigma: float
    eta: complex
    kind: str = field(default="ek-left", init=False)

    def mellin_action(self):
        # Gamma(1 + eta - s/sigma) / Gamma(1 + eta + alpha - s/sigma)
        w = -1.0 / self.sigma
        return GammaSymbol(num=((complex(1.0 + self.eta), w),),
                           den=((complex(1.0 + self.eta + self.alpha), w),)), 0.0, 1.0

    def check_space(self, nu, r):
        if complex(self.alpha).real <= 0:
            raise HypothesisError("Re(alpha) > 0")
        if not nu < self.sigma * (1.0 + complex(self.eta).real):
            raise HypothesisError(
                "nu < sigma (1 + Re eta)",
                f"nu={nu:g}, sigma={self.sigma:g}, eta={self.eta}",
            )

    def apply(self, live: LiveFunction) -> LiveFunction:
        return _integral_step(self, live, ek_fractional, "left", self.alpha, self.sigma,
                              self.eta)

    def describe(self):
        return {"op": "ek-left", "alpha": [self.alpha.real, self.alpha.imag],
                "sigma": self.sigma, "eta": [self.eta.real, self.eta.imag]}


@dataclass(frozen=True)
class EKRight:
    alpha: complex
    sigma: float
    eta: complex
    kind: str = field(default="ek-right", init=False)

    def mellin_action(self):
        # Gamma(eta + s/sigma) / Gamma(eta + alpha + s/sigma)
        w = 1.0 / self.sigma
        return GammaSymbol(num=((complex(self.eta), w),),
                           den=((complex(self.eta + self.alpha), w),)), 0.0, 1.0

    def check_space(self, nu, r):
        if complex(self.alpha).real <= 0:
            raise HypothesisError("Re(alpha) > 0")
        if not nu > -self.sigma * complex(self.eta).real:
            raise HypothesisError(
                "nu > -sigma Re(eta)",
                f"nu={nu:g}, sigma={self.sigma:g}, eta={self.eta}",
            )

    def apply(self, live: LiveFunction) -> LiveFunction:
        return _integral_step(self, live, ek_fractional, "right", self.alpha, self.sigma,
                              self.eta)

    def describe(self):
        return {"op": "ek-right", "alpha": [self.alpha.real, self.alpha.imag],
                "sigma": self.sigma, "eta": [self.eta.real, self.eta.imag]}


@dataclass(frozen=True)
class HankelOp:
    index: float  # kappa
    order: complex  # eta
    kind: str = field(default="hankel", init=False)

    def mellin_action(self):
        # (2/|kappa|)^z Gamma((eta + 1 + z)/2) / Gamma((eta + 1 - z)/2),
        # z = kappa (s - 1/2), on the reflected argument 1 - s
        half = self.index / 2.0
        eta = complex(self.order)
        sym = GammaSymbol(num=(((eta + 1.0 - half) / 2.0, half),),
                          den=(((eta + 1.0 + half) / 2.0, -half),))
        return sym * GammaSymbol.power(2.0 / abs(self.index), -half, self.index), 1.0, -1.0

    def check_space(self, nu, r):
        if not (1.0 < r < math.inf):
            raise HypothesisError("1 < r < inf")
        rr = SpaceSpec(nu, r)
        mid = self.index * (nu - 0.5) + 0.5
        if not (rr.gamma_r <= mid + 1e-12):
            raise HypothesisError(
                "gamma(r) <= kappa (nu - 1/2) + 1/2",
                f"gamma(r)={rr.gamma_r:g}, value={mid:g}",
            )
        if not (mid < complex(self.order).real + 1.5):
            raise HypothesisError(
                "kappa (nu - 1/2) + 1/2 < Re(eta) + 3/2",
                f"value={mid:g}, eta={self.order}",
            )

    def apply(self, live: LiveFunction) -> LiveFunction:
        return _integral_step(self, live, hankel_mod, self.index, self.order)

    def describe(self):
        return {"op": "hankel", "index": self.index,
                "order": [self.order.real, self.order.imag]}


@dataclass(frozen=True)
class LaplaceOp:
    index: float  # kappa
    offset: complex  # alpha
    kind: str = field(default="laplace", init=False)

    def mellin_action(self):
        # Gamma(z) |kappa|^(1 - z), z = kappa (s - alpha), on the reflected
        # argument 1 - s
        kap = self.index
        sym = GammaSymbol(num=((complex(-kap * self.offset), kap),))
        return sym * GammaSymbol.power(abs(kap), 1.0 + kap * self.offset, -kap), 1.0, -1.0

    def check_space(self, nu, r):
        a = complex(self.offset).real
        if self.index > 0 and not nu < 1.0 - a:
            raise HypothesisError("nu < 1 - Re(alpha) for kappa > 0",
                                  f"nu={nu:g}, alpha={self.offset}")
        if self.index < 0 and not nu > 1.0 - a:
            raise HypothesisError("nu > 1 - Re(alpha) for kappa < 0",
                                  f"nu={nu:g}, alpha={self.offset}")

    def apply(self, live: LiveFunction) -> LiveFunction:
        return _integral_step(self, live, laplace_mod, self.index, self.offset)

    def describe(self):
        return {"op": "laplace", "index": self.index,
                "offset": [self.offset.real, self.offset.imag]}


# ---------------------------------------------------------------------------
# Factorization plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationPlan:
    """A case's operator chain, applied first-element-first."""

    case_label: int
    chain: tuple
    aux_symbol: GammaSymbol
    chain_params: dict
    nu: float
    r: float
    mapping: dict
    params: HParams

    def to_json(self) -> dict:
        return {
            "case": self.case_label,
            "chain": [p.describe() for p in self.chain],
            "aux_symbol": self.aux_symbol.to_json(),
            "chain_params": {
                k: (v if not isinstance(v, complex) else [v.real, v.imag])
                for k, v in self.chain_params.items()
            },
            "mapping": self.mapping,
        }


_S_RANGE = {
    1: "s = r",
    2: "r <= s < inf with 1/s > 1/r + Re(mu), endpoints open",
    3: "r <= s < inf with conjugate s' >= 1/(1/2 - Delta(1-nu) - Re(mu)), endpoints open",
    4: "r <= s < inf with conjugate s' >= 1/(1/2 - Delta(1-nu) - Re(mu)), endpoints open",
    5: "r <= s <= inf",
    6: "r <= s <= inf",
    7: "r <= s <= inf",
    8: "r <= s <= inf",
    9: "r <= s <= inf",
}


def _dry_run_spaces(chain, nu, r):
    """Check every step's space conditions along the chain; the final weight."""
    cur = nu
    for pos, prim in enumerate(chain):
        try:
            prim.check_space(cur, r)
        except HypothesisError as exc:
            raise HypothesisError(
                f"chain position {pos} ({prim.kind}): {exc.condition}", exc.detail
            ) from None
        cur = _out_weight(prim, cur)
    return cur


def plan_factorization(params: HParams, nu: float, r: float) -> FactorizationPlan:
    """Build the case factorization of the transform for the space (nu, r)."""
    inv = derive_invariants(params)
    case = classify_case(inv)
    if not (1.0 < r < math.inf):
        raise HypothesisError("1 < r < inf", "factorizations use multiplier transforms")
    line = 1.0 - nu
    if not (inv.alpha_low < line < inv.beta_high):
        raise HypothesisError(
            "alpha < 1 - nu < beta",
            f"1-nu={line:g}, strip=({inv.alpha_low:g}, {inv.beta_high:g})",
        )
    space = SpaceSpec(nu, r)
    sym = symbol_from_params(params)
    delta = inv.delta
    alpha, beta = inv.alpha_low, inv.beta_high
    a1, a2, a_star = inv.a1_star, inv.a2_star, inv.a_star
    mu = inv.mu
    cp: dict = {}

    if case == 1:
        aux = build_aux_symbol(params, inv, 1)
        chain = (
            Reflect(),
            Multiplier(aux, "balanced-core", (alpha, beta)),
            Dilate(delta),
        )

    elif case == 2:
        if params.m == 0 and params.n == 0:
            raise HypothesisError("m > 0 or n > 0", "no anchored strip edge")
        cp["k"] = 1.0
        cp["branch"] = "lower" if params.m > 0 else "upper"
        aux = build_aux_symbol(params, inv, 2, cp)
        mult = Multiplier(
            GammaSymbol.power(delta, 0.0, -1.0) * aux,
            "augmented-balanced-core", (alpha, beta),
        )
        k = cp["k"]
        if cp["branch"] == "lower":
            tail = EKRight(-mu, k, -alpha / k)
        else:
            tail = EKLeft(-mu, k, beta / k - 1.0)
        chain = (Reflect(), mult, Dilate(delta), tail)

    elif case == 3:
        decay = inv.delta_cap * line + mu.real
        if not decay <= 0.5 - space.gamma_r + 1e-12:
            raise HypothesisError(
                "Delta(1-nu) + Re(mu) <= 1/2 - gamma(r)",
                f"value={decay:g}, bound={0.5 - space.gamma_r:g}",
            )
        eta_c = -inv.delta_cap * alpha - mu - 1.0
        cp["eta"] = eta_c
        aux = build_aux_symbol(params, inv, 3)
        lo = max(1.0 - beta, alpha + 1.0 + 2.0 * mu.real / inv.delta_cap)
        hi = 1.0 - alpha
        shift = mu / inv.delta_cap + 0.5
        chain = (
            Multiplier(aux, "reflected-core", (lo, hi)),
            PowerWeight(shift),
            HankelOp(inv.delta_cap, eta_c),
            PowerWeight(shift),
            Dilate(delta),
        )

    elif case in (4, 7, 9):
        partner = {4: 3, 7: 6, 9: 8}[case]
        tp = transpose_params(params)
        inner = plan_factorization(tp, 1.0 - nu, r)
        if inner.case_label != partner:
            raise NumericalError("reciprocal kernel did not land in the partner case")
        cp = {"mirrored": True, **inner.chain_params}
        chain = (Reflect(),) + inner.chain + (Reflect(),)
        aux = inner.aux_symbol

    elif case == 5:
        omega = mu + a1 * alpha - a2 * beta + 1.0
        cp["omega"] = omega
        aux = build_aux_symbol(params, inv, 5, cp)
        mult = Multiplier(aux, "double-laplace-core", (alpha, beta))
        if omega.real >= 0:
            chain = (
                Reflect(), mult,
                LaplaceOp(a2, 1.0 - beta - omega / a2),
                LaplaceOp(a1, alpha),
                Dilate(delta),
            )
        else:
            chain = (
                Reflect(), mult,
                LaplaceOp(a2, 1.0 - beta),
                LaplaceOp(a1, alpha),
                EKRight(-omega, 1.0 / a1, -a1 * alpha),
                Dilate(delta),
            )

    elif case == 6:
        omega = mu + a1 * alpha + 0.5
        cp["omega"] = omega
        aux = build_aux_symbol(params, inv, 6, cp)
        mult = Multiplier(aux, "laplace-core", (alpha, beta))
        if omega.real >= 0:
            chain = (
                Reflect(), mult, Reflect(),
                LaplaceOp(a1, alpha - omega / a1),
                Dilate(delta),
            )
        else:
            chain = (
                Reflect(), mult, Reflect(),
                LaplaceOp(a1, alpha),
                EKRight(-omega, 1.0 / a1, -a1 * alpha),
                Dilate(delta),
            )

    elif case == 8:
        eta_eq = (space.gamma_r + 2.0 * a2 * (nu - 1.0) + mu.real) / a_star
        eta = eta_eq if eta_eq > nu - 1.0 + 1e-9 else nu - 1.0 + 0.5
        zeta = (1.0 - nu) - 0.5
        omega = a_star * eta - mu - 0.5
        cp.update({"eta": eta, "zeta": zeta, "omega": omega})
        aux = build_aux_symbol(params, inv, 8, cp)
        mult = Multiplier(aux, "laplace-hankel-core", (alpha, beta))
        shift = omega / (2.0 * a2)
        chain = (
            Reflect(), mult,
            PowerWeight(-0.5 - shift),
            LaplaceOp(-a_star, 0.5 + eta - shift),
            HankelOp(-2.0 * a2, 2.0 * a2 * zeta + omega - 1.0),
            PowerWeight(0.5 + shift),
            Dilate(delta),
        )

    else:
        raise OutOfTheoryError(f"no factorization for case {case!r}")

    final_nu = _dry_run_spaces(chain, nu, r)
    if abs(final_nu - (1.0 - nu)) > 1e-9:
        raise NumericalError("chain space bookkeeping is inconsistent")
    mapping = {
        "from_nu": nu, "r": r, "to_nu": 1.0 - nu, "s_range": _S_RANGE[case],
    }
    return FactorizationPlan(case, chain, aux, cp, nu, r, mapping, params)


def _exact_sum(terms) -> complex:
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def chain_action(chain) -> tuple:
    """Composed Mellin action (symbol, a, b) of a chain, first element first.

    M[chain f](s) = symbol(s) * M[f](a + b s).  The chain is folded from its
    last primitive back, so each primitive's own symbol is substituted into
    the map accumulated after it.  The constant a is kept as a list of
    terms, each primitive's constant times the slopes of the primitives
    before it, and summed with fsum: with slopes +-1 the terms are exact, so
    shifts that cancel (x^z ... x^-z around a reflection) give exactly 0.
    """
    sym, terms, b = GammaSymbol.one(), [], 1.0
    for prim in reversed(chain):
        p_sym, pa, pb = prim.mellin_action()
        sym = sym * p_sym.substitute(_exact_sum(terms), b)
        terms = [complex(pa)] + [pb * t for t in terms]
        b = pb * b
    return sym, _exact_sum(terms), b


VERIFY_POINTS = (0.317, -0.317, 0.731, -0.731, 1.173, -1.173, 1.637, -1.637,
                 2.411, -2.411)


def verify_plan_symbol(plan: FactorizationPlan, params: Optional[HParams] = None,
                       points=None) -> float:
    """Max relative deviation of the chain's composed symbol from the kernel's.

    The composed argument map must be exactly the reflection s -> 1 - s.
    The symbols are compared at Im s = points (default VERIFY_POINTS) on the
    working line Re s = 1 - nu; points landing on a pole of any factor are
    nudged along the line.
    """
    if params is None:
        params = plan.params
    sym = symbol_from_params(params)
    chain_sym, a, b = chain_action(plan.chain)
    if (a, b) != (1.0, -1.0):
        raise NumericalError("chain argument map does not reflect the line")
    line = 1.0 - plan.nu
    if points is None:
        points = VERIFY_POINTS
    worst = 0.0
    for t in points:
        for attempt in range(4):
            s = complex(line, t + 0.0371 * attempt)
            try:
                total = chain_sym.eval_log(s)
                ref = sym.eval_log(s)
                break
            except PoleError:
                continue
        else:
            raise NumericalError(f"could not find a pole-free sample near Im s = {t}")
        worst = max(worst, abs(np.exp(complex(total) - complex(ref)) - 1.0))
    return worst


def apply_plan(plan: FactorizationPlan, f, xs, *, collect_route="plan") -> "TransformResult":
    """Apply the chain numerically, first element first."""
    if isinstance(f, TestFunction) and not f.in_space(plan.nu, plan.r):
        raise HypothesisError("f in weighted space", f"nu={plan.nu:g}, r={plan.r:g}")
    _dry_run_spaces(plan.chain, plan.nu, plan.r)
    live = LiveFunction(f, plan.nu)
    for prim in plan.chain:
        live = prim.apply(live)
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    values = live(xs_arr)
    return TransformResult(
        xs=xs_arr, values=values, route=collect_route,
        error_estimates=np.full(xs_arr.shape, np.nan),
        admissibility={"plan": (True, f"case {plan.case_label} chain")},
    )


# ---------------------------------------------------------------------------
# Transform routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransformResult:
    xs: np.ndarray
    values: np.ndarray
    route: str
    error_estimates: np.ndarray
    admissibility: dict


def htransform_direct(params: HParams, f, xs, space: SpaceSpec,
                      tol: float = 1e-9) -> TransformResult:
    """Transform as the defining integral, kernel from contour quadrature."""
    inv = derive_invariants(params)
    ok, reason = admissible_range(inv, space, "direct-integral")
    if not ok:
        raise HypothesisError("direct route inadmissible", reason)
    if isinstance(f, TestFunction) and not f.in_space(space.nu, space.r):
        raise HypothesisError("f in weighted space", f"nu={space.nu:g}")
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.any(xs_arr <= 0) or not np.all(np.isfinite(xs_arr)):
        raise ParameterError("x must be positive")
    ktol = tol * 1e-2
    kernel = kernel_evaluator(params, min(ktol, 1e-10)).fine
    values = np.empty(xs_arr.shape, dtype=complex)
    errs = np.empty(xs_arr.shape, dtype=float)
    for i, xv in enumerate(xs_arr):
        def g(tau):
            t = np.exp(tau)
            return kernel(math.log(xv) + tau) * np.asarray(f(t), dtype=complex) * t

        val, err = trapezoid_line(g, tol=tol)
        values[i] = val
        errs[i] = err + ktol
    return TransformResult(
        xs=xs_arr, values=values, route="direct", error_estimates=errs,
        admissibility={"direct-integral": (True, reason)},
    )


def htransform_mellin(params: HParams, f, xs, space: SpaceSpec,
                      tol: float = 1e-10) -> TransformResult:
    """Transform as inverse Mellin of symbol(s) * (M f)(1-s) on Re s = 1 - nu."""
    inv = derive_invariants(params)
    ok, reason = admissible_range(inv, space, "definition")
    if not ok:
        raise HypothesisError("multiplier route inadmissible", reason)
    if not isinstance(f, TestFunction) or f.family == "grid":
        raise HypothesisError("closed-form Mellin data", "needed on the working line")
    lo, hi = f.mellin_strip()
    if not (lo < space.nu < hi):
        raise HypothesisError(
            "Mellin data on the line", f"nu={space.nu:g} outside ({lo:g}, {hi:g})"
        )
    sym = symbol_from_params(params)

    def F(s):
        return sym.eval(s) * f.mellin(1.0 - s)

    vals, err = mellin_inverse_numeric(F, 1.0 - space.nu, xs, tol=tol)
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    vals = np.atleast_1d(np.asarray(vals))
    return TransformResult(
        xs=xs_arr, values=vals, route="mellin",
        error_estimates=np.atleast_1d(err),
        admissibility={"definition": (True, reason)},
    )


def _augmented_params(params: HParams, lam: complex, h: float, variant: str) -> HParams:
    up = list(params.upper)
    lo = list(params.lower)
    if variant == "raise-upper":
        up2 = [(-lam, h)] + up
        lo2 = lo + [(-lam - 1.0, h)]
        return validate_params(params.m, params.n + 1, params.p + 1, params.q + 1,
                               up2, lo2)
    up2 = up + [(-lam, h)]
    lo2 = [(-lam - 1.0, h)] + lo
    return validate_params(params.m + 1, params.n, params.p + 1, params.q + 1,
                           up2, lo2)


def htransform_repr(params: HParams, f, lam: complex, h: float, xs,
                    space: SpaceSpec, tol: float = 1e-8) -> TransformResult:
    """Differentiated representation with an augmented kernel.

    The kernel gains one upper and one lower pair built from (lambda, h);
    the grown integral is then differentiated under the power weights.
    """
    lam = complex(lam)
    if h <= 0:
        raise HypothesisError("h > 0")
    thr = (1.0 - space.nu) * h - 1.0
    if abs(lam.real - thr) < 1e-9:
        raise HypothesisError(
            "Re(lambda) != (1-nu) h - 1", "representation boundary excluded"
        )
    variant = "raise-upper" if lam.real > thr else "raise-lower"
    sign = 1.0 if variant == "raise-upper" else -1.0
    aug = _augmented_params(params, lam, h, variant)
    try:
        probe = htransform_direct(aug, f, [], space, tol)
    except HypothesisError as exc:
        raise HypothesisError(
            "augmented kernel inadmissible for direct evaluation", str(exc)
        ) from None
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    c = (lam + 1.0) / h
    d0 = 1e-3
    stencil = np.concatenate([
        xs_arr * (1.0 + d0), xs_arr * (1.0 - d0),
        xs_arr * (1.0 + d0 / 2), xs_arr * (1.0 - d0 / 2),
    ])
    g_res = htransform_direct(aug, f, stencil, space, tol)
    gv = g_res.values.reshape(4, xs_arr.size)
    phi = np.exp(c * np.log(stencil.reshape(4, xs_arr.size))) * gv
    d_coarse = (phi[0] - phi[1]) / (2.0 * d0 * xs_arr)
    d_fine = (phi[2] - phi[3]) / (d0 * xs_arr)
    deriv = (4.0 * d_fine - d_coarse) / 3.0
    values = sign * h * np.exp((1.0 - c) * np.log(xs_arr)) * deriv
    errs = np.abs(d_fine - d_coarse) * np.abs(h * xs_arr ** (1.0 - c.real)) + tol
    return TransformResult(
        xs=xs_arr, values=values, route="repr", error_estimates=errs,
        admissibility={"representation": (True, variant)},
    )


def best_route(params: HParams, f, xs, space: SpaceSpec) -> TransformResult:
    """Direct integral if admissible, else multiplier route, else the plan."""
    try:
        return htransform_direct(params, f, xs, space)
    except HypothesisError:
        pass
    try:
        return htransform_mellin(params, f, xs, space)
    except HypothesisError:
        pass
    plan = plan_factorization(params, space.nu, space.r)
    return apply_plan(plan, f, xs)


def bilinear_check(params: HParams, f, g, space: SpaceSpec,
                   tau_span: float = 42.0, h: float = 0.05) -> float:
    """|integral of f (Hg) - integral of g (Hf)| on a shared log grid.

    The transforms are computed once on the grid through the multiplier
    route when admissible (otherwise the factorization chain) and the outer
    integrals by the trapezoid rule in log coordinates.
    """
    taus = np.arange(-tau_span, tau_span + h, h)
    t = np.exp(taus)

    def transform_on_grid(fn):
        try:
            return htransform_mellin(params, fn, t, space).values
        except HypothesisError:
            plan = plan_factorization(params, space.nu, space.r)
            return apply_plan(plan, fn, t).values

    hg = transform_on_grid(g)
    hf = transform_on_grid(f)
    fv = np.asarray(f(t), dtype=complex)
    gv = np.asarray(g(t), dtype=complex)
    left = h * np.sum(fv * hg * t)
    right = h * np.sum(gv * hf * t)
    return abs(left - right)
