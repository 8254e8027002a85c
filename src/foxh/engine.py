"""Transform engine: routes, factorization plans, and their verification.

The transform of a test function can be computed three ways (direct
integral, Mellin multiplier, differentiated representation) plus a fourth:
applying the per-case operator factorization chain.  Chains are tuples of
primitive operators applied left to right (first element first).

Each primitive states its Mellin action once, as ``mellin_action()``
returning (GammaSymbol, a, b): the Mellin transform of its output at s is
that symbol times the input's transform at a + b s.  The rest is derived
from it: the output weight (the input's line Re s = nu maps to
Re(a + b s) = nu, ``_out_weight``), the step's convergence condition and
JSON (``_Step``), and the action of a whole chain, which ``chain_action``
composes with ``GammaSymbol.substitute`` into one symbol and one affine
map.  A step states by hand only what its action cannot show (Re alpha > 0,
Hankel's r conditions, a multiplier's strip) and how it applies itself.

A chain factorizes the transform exactly when its composed map is the
reflection s -> 1 - s and its composed symbol is the kernel symbol;
verify_plan_symbol checks the map once and the symbol pointwise on the
working line, the numerical content of the range theorems used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .classical import (
    _TABLE_STEP,
    Support,
    _lagrange8,
    TestFunction,
    ek_fractional,
    hankel_mod,
    mellin_line_samples,
    mellin_inverse_numeric,
    positive_args,
    support_of,
)
from .errors import (
    HypothesisError,
    NumericalError,
    OutOfTheoryError,
    ParameterError,
    PoleError,
)
from .gammasym import GammaSymbol, symbol_from_params
from .mellin_barnes import kernel_evaluator
from .params import (
    _SIGN_TOL,
    HParams,
    SpaceSpec,
    admissible_range,
    classify_case,
    derive_invariants,
    transpose_params,
    validate_params,
)
from .quadrature import _BLOCK, Lattice, LineRule, endpoint_power_rule, trapezoid_line

# Multiplier.apply's line: half height and Gauss-Legendre nodes per unit
_MULTIPLIER_HALF_HEIGHT, _MULTIPLIER_NODES = 48.0, 16
# the phase tables of that line's nodes, which every multiplier's rule shares
_MULTIPLIER_TABLES: dict = {}


# ---------------------------------------------------------------------------
# Live functions and primitive operators
# ---------------------------------------------------------------------------

class LiveFunction:
    """Vectorized callable on (0, inf) tagged with its space weight.

    Nothing is tabulated on the way in: a step that reads its input at
    many points decides that itself (HankelOp and LaplaceOp tabulate, EK
    only for many arguments).  A third argument, once an evaluation cost,
    is accepted and ignored.  support is fn's own Support record where fn
    keeps one, so every wrapper of fn shares its probes; else a fresh
    record without hard edges.

    A quadrature.Lattice argument (tabulate's grid, the Support profile, the
    EK tail) goes to on_lattice if given, with h > 0 (a lattice of step -h
    is read reversed); else to fn unchanged, so wrappers hand it on.
    """

    def __init__(self, fn, nu: float, _ignored=None, *, on_lattice=None):
        self._fn, self._on_lattice = fn, on_lattice
        self.nu = float(nu)
        rec = getattr(fn, "support", None)
        self.support = rec if isinstance(rec, Support) else Support(self)

    def __call__(self, x):
        if isinstance(x, Lattice) and x.t0 is not None:
            if self._on_lattice is None:
                return np.asarray(self._fn(x), dtype=complex)
            if x.h < 0:
                return self._on_lattice(x.reversed())[::-1]
            return self._on_lattice(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.asarray(self._fn(x), dtype=complex)


# tabulate's grid runs _TABLE_MARGIN in log x past where |f| > _TABLE_FLOOR * peak
_TABLE_MARGIN, _TABLE_FLOOR = 2.5, 1e-17


class LogGrid(LiveFunction):
    """A function's samples on a uniform lattice in tau = log t.

    The samples sit at taus = t0 + h * arange(n); the table reaches up to
    hi.  Calling it interpolates the samples by centered 8-point barycentric
    interpolation in log x (error O(h^8) for smooth data) and returns zero
    outside [t0, hi].  Steps that can work on the lattice itself read taus
    and values (complex) instead.  Real samples are kept as floats, so such
    a table holds 8 bytes a point.
    """

    def __init__(self, t0: float, h: float, values, hi: float, nu: float):
        values = np.asarray(values, dtype=complex)
        self._samples = values if np.any(values.imag) else values.real.copy()
        self._t0, self.h, self.hi = t0, h, hi
        super().__init__(self._interpolate, nu)

    @property
    def taus(self) -> np.ndarray:
        return self._t0 + self.h * np.arange(self._samples.size)

    @property
    def values(self) -> np.ndarray:
        return self._samples.astype(complex)

    def _interpolate(self, x):
        t_lo, h, n = self._t0, self.h, self._samples.size
        out = np.zeros(x.shape, dtype=complex)
        if n == 0:
            return out
        with np.errstate(divide="ignore", invalid="ignore"):
            tx = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
        inside = (tx >= t_lo) & (tx <= self.hi - h * 1e-9)
        if not inside.any():
            return out
        pos = (tx[inside] - t_lo) / h
        base = np.clip(np.floor(pos).astype(int) - 3, 0, n - 8)
        idx = base[:, None] + np.arange(8)[None, :]
        out[inside] = _lagrange8(pos - base, self._samples[idx].astype(complex))
        return out


def tabulate(live: LiveFunction, *, h: float = _TABLE_STEP,
             floor: float = _TABLE_FLOOR, weight: float = 0.0) -> LogGrid:
    """Sample a function on a log-uniform grid, as a LogGrid.

    The grid is the window of live's Support record where |live| exceeds
    floor times its side's peak, joined with the window where
    |live| e^(weight tau) does (the weight a consuming step puts on the
    tails), widened by _TABLE_MARGIN; outside it the table returns zero.
    A function that vanishes gives an empty grid.  live reads the grid as
    one Lattice, so a chain step answers it in closed lattice form.
    """
    rec = support_of(live)
    wins = [w for w in (rec.window(0.0, floor), rec.window(weight, floor)) if w is not None]
    if not wins:
        return LogGrid(0.0, h, np.zeros(0), -np.inf, live.nu)
    t_lo = min(w[0] for w in wins) - _TABLE_MARGIN
    t_hi = max(w[1] for w in wins) + _TABLE_MARGIN
    # as many points as np.arange(t_lo, t_hi + h, h), but placed exactly at
    # t_lo + i h, where the interpolant looks for them
    taus = t_lo + h * np.arange(math.ceil((t_hi + h - t_lo) / h))
    return LogGrid(t_lo, h, live(Lattice(taus, h)), t_hi, live.nu)


# outputs of the grid Laplace sum per block: its weights take _LAPLACE_ROWS x n
_LAPLACE_ROWS = 64


def _laplace_on_grid(kappa: float, alpha, grid: LogGrid, nu: float) -> LiveFunction:
    """The modified Laplace transform of grid as a trapezoid sum on its lattice.

    The transform is the integral of u^{-alpha} e^{-|kappa| u^{1/kappa}}
    f(u/x) / x over u > 0.  In tau = log u = log x + t its integrand is
    w(log x + t) f(e^t) / x, w(s) = exp((1 - alpha) s - |kappa| e^(s/kappa)),
    so on the lattice t = taus[i] the value is
    (h / x) sum_i w(log x + taus[i]) values[i]: nothing is interpolated.
    |w| is one real exponent, non-finite entries 0; the phase
    e^(i Im(1 - alpha) s) of w splits into one factor per x and one per
    sample, so no complex exponent is taken per entry.

    On a Lattice of step m grid.h (m >= 1 an integer) log x_j + taus[i] is
    fine lattice point i + m j: w is taken there once and the outputs are
    the direct correlation sum_i w[i + m j] values[i] (no FFT, so small
    values keep their digits).  Other arguments take the dense sum.
    """
    a1 = 1.0 - complex(alpha)
    re_a, im_a, ak = a1.real, a1.imag, abs(kappa)
    taus, vals = grid.taus, grid.values
    vals = np.where(np.isfinite(vals), vals, 0.0)
    if im_a:
        vals = vals * np.exp(1j * im_a * taus)
    # complex samples as (n, 2) real pairs: the product keeps real weights
    pairs = vals.view(float).reshape(-1, 2)

    def weights(s):
        with np.errstate(over="ignore", invalid="ignore"):
            # built in place: s, w and one temporary are all that is held
            w = np.exp(s / kappa)
            w *= -ak
            w += re_a * s
            np.exp(w, out=w)
        w[~np.isfinite(w)] = 0.0
        return w

    def finish(out, logx, x):
        vals_x = out.view(complex).ravel()
        if im_a:
            vals_x = vals_x * np.exp(1j * im_a * logx)
        return grid.h * vals_x.reshape(x.shape) / x

    def ev(x):
        if np.any(x <= 0):
            raise ParameterError("argument must be positive")
        logx = np.log(x).ravel()
        out = np.empty((logx.size, 2))
        for start in range(0, logx.size, _LAPLACE_ROWS):
            out[start:start + _LAPLACE_ROWS] = (
                weights(logx[start:start + _LAPLACE_ROWS, None] + taus) @ pairs)
        return finish(out, logx, x)

    def on_lattice(x):
        m = round(x.h / grid.h)
        if m < 1 or x.h != m * grid.h or taus.size == 0:
            return ev(x)
        n, n_in = x.size, taus.size
        w = weights((x.t0 + taus[0]) + grid.h * np.arange(n_in + m * (n - 1)))
        out = np.zeros((n, 2))
        for r in range(min(m, n_in)):
            for c in range(2):
                out[:, c] += np.correlate(w[r::m], pairs[r::m, c], "valid")
        return finish(out, x.t0 + x.h * np.arange(n), x)

    return LiveFunction(ev, nu, on_lattice=on_lattice)


def _out_weight(prim, nu: float) -> float:
    """Weight of prim's output space for an input of weight nu.

    The input's Mellin line Re s = nu must be Re(a + b s), so the output's
    line, and weight, is (nu - Re a) / b.
    """
    _, a, b = prim.mellin_action()
    return (nu - complex(a).real) / b


def _carried(prim, live, fn, sign: float, shift: float = 0.0,
             power: complex = 0.0) -> LiveFunction:
    """prim's output fn(e^tau) = e^(power tau) live(e^(sign (tau - shift))),
    as a LiveFunction that carries live's hard edges.  On a Lattice it reads
    live on the lattice sign (tau - shift), which live may answer in closed
    form in turn, and multiplies by e^(power tau)."""
    def on_lattice(x):
        taus = x.t0 + x.h * np.arange(x.size)
        vals = live(Lattice(sign * (taus - shift), sign * x.h))
        return vals * np.exp(power * taus) if power else vals

    out = LiveFunction(fn, _out_weight(prim, live.nu), on_lattice=on_lattice)
    ends = [None if e is None else sign * e + shift for e in support_of(live).hard]
    out.support = Support(out, ends if sign > 0 else ends[::-1])
    return out


_UNDESCRIBED = {"undescribed": True}  # field metadata: describe() leaves it out


class _Step:
    """A chain primitive's space check and JSON, read off mellin_action().

    check_space: on the output line Re s = nu' each numerator factor
    Gamma(c + w s) of the symbol needs Re(c + w nu') > 0, the side of its
    poles where the step's Mellin integral converges.  describe: {"op": kind}
    plus the fields, complex ones as [re, im], symbols through to_json(),
    those marked _UNDESCRIBED left out.
    """

    def check_space(self, nu, r):
        out = _out_weight(self, nu)
        for c, w in self.mellin_action()[0].num:
            if not complex(c).real + w * out > 0:
                raise HypothesisError("Re(c + w s) > 0 for a numerator Gamma(c + w s)",
                                      f"c={complex(c):.6g}, w={w:.6g}, line Re s={out:g}")

    def describe(self):
        out = {"op": self.kind}
        for f in fields(self):
            if f.metadata.get("undescribed"):
                continue
            v = getattr(self, f.name)
            if isinstance(v, GammaSymbol):
                v = v.to_json()
            elif f.type == "complex":
                v = [complex(v).real, complex(v).imag]
            out[f.name] = v
        return out


@dataclass(frozen=True)
class Reflect(_Step):
    kind = "reflect"

    def mellin_action(self):
        return GammaSymbol.one(), 1.0, -1.0

    def apply(self, live: LiveFunction) -> LiveFunction:
        return _carried(self, live, lambda x: live(1.0 / x) / x, -1.0, power=-1.0)


@dataclass(frozen=True)
class PowerWeight(_Step):
    zeta: complex
    kind = "power-weight"

    def mellin_action(self):
        return GammaSymbol.one(), self.zeta, 1.0

    def apply(self, live: LiveFunction) -> LiveFunction:
        zeta = complex(self.zeta)
        return _carried(self, live, lambda x: np.exp(zeta * np.log(x)) * live(x), 1.0,
                        power=zeta)


@dataclass(frozen=True)
class Dilate(_Step):
    factor: float
    kind = "dilate"

    def __post_init__(self):
        if self.factor <= 0:
            raise ParameterError("dilation factor must be positive")

    def mellin_action(self):
        return GammaSymbol.power(self.factor, 0.0, 1.0), 0.0, 1.0

    def apply(self, live: LiveFunction) -> LiveFunction:
        return _carried(self, live, lambda x: live(x / self.factor), 1.0, math.log(self.factor))


@dataclass(frozen=True)
class Multiplier(_Step):
    symbol: GammaSymbol
    label: str
    strip: tuple = field(metadata=_UNDESCRIBED)
    kind = "multiplier"

    def mellin_action(self):
        return self.symbol, 0.0, 1.0

    def check_space(self, nu, r):
        # the symbol need only be analytic on the line: its strip replaces
        # the convergence rule
        if not (1.0 < r < math.inf):
            raise HypothesisError("1 < r < inf", "multiplier transforms need it")
        lo, hi = self.strip
        if not (lo < nu < hi):
            raise HypothesisError("multiplier strip", f"need {lo:g} < {nu:g} < {hi:g}")

    def apply(self, live: LiveFunction) -> LiveFunction:
        nu_c = live.nu
        rule = LineRule(lambda s: self.symbol.eval(s) * mellin_line_samples(live, s),
                        nu_c, _MULTIPLIER_HALF_HEIGHT, _MULTIPLIER_NODES, _MULTIPLIER_TABLES)
        # zero numerically dead contour nodes; the nodes stay those of the
        # shared tables
        mags = np.abs(rule.coeff)
        keep = mags > np.max(mags) * 1e-18
        # below this x^(-nu)-scaled floor the truncated inversion is noise
        noise_const = float(np.sum(mags[~keep]) + np.sum(mags[keep]) * 1e-15)
        rule.coeff = np.where(keep, rule.coeff, 0.0)
        # the discrete contour sum aliases beyond its resolution horizon
        horizon = 0.75 * math.pi * _MULTIPLIER_NODES

        def cut(logx, vals):
            floor = noise_const * np.exp(-nu_c * logx)
            vals = np.where(np.abs(vals) > 12.0 * floor, vals, 0.0)
            return np.where(np.abs(logx) <= horizon, vals, 0.0)

        def ev(x):
            logx = np.log(x)
            return cut(logx, rule(logx))

        def on_lattice(x):
            # runs of at most _BLOCK points, summed from the rule's phase tables
            logx = x.t0 + x.h * np.arange(x.size)
            return cut(logx, np.concatenate([
                rule.progression(logx[k], x.h, min(_BLOCK, x.size - k))
                for k in range(0, x.size, _BLOCK)]))

        return LiveFunction(ev, _out_weight(self, nu_c), on_lattice=on_lattice)


@dataclass(frozen=True)
class EK(_Step):
    """Erdelyi-Kober fractional integral of order alpha, side "left" or "right"."""

    side: str = field(metadata=_UNDESCRIBED)
    alpha: complex
    sigma: float
    eta: complex

    @property
    def kind(self):
        return "ek-" + self.side

    def mellin_action(self):
        # left: Gamma(1 + eta - s/sigma) / Gamma(1 + eta + alpha - s/sigma);
        # right: Gamma(eta + s/sigma) / Gamma(eta + alpha + s/sigma)
        if self.side == "left":
            c, w = complex(1.0 + self.eta), -1.0 / self.sigma
        else:
            c, w = complex(self.eta), 1.0 / self.sigma
        return GammaSymbol(num=((c, w),), den=((c + self.alpha, w),)), 0.0, 1.0

    def check_space(self, nu, r):
        if complex(self.alpha).real <= 0:
            raise HypothesisError("Re(alpha) > 0")
        super().check_space(nu, r)

    def apply(self, live: LiveFunction) -> LiveFunction:
        # ek_fractional reads live on its lattice and at its head rule's
        # nodes per argument: past the points of tabulate's grid, a table is
        # cheaper.  Below that live reads stay, for accuracy as well as cost:
        # on case 2's left-EK chain with a Gaussian input, a table put x = 0.5
        # 2.3e-9 of max|value| off the Mellin route, live reads 3.3e-12
        win = support_of(live).window(0.0, _TABLE_FLOOR)
        span = 0.0 if win is None else win[1] - win[0] + 2.0 * _TABLE_MARGIN

        def ev(x):
            nodes = endpoint_power_rule(complex(self.alpha))[0].size
            f = tabulate(live) if nodes * x.size * _TABLE_STEP > span else live
            return ek_fractional(self.side, self.alpha, self.sigma, self.eta, f, x)

        return LiveFunction(ev, _out_weight(self, live.nu))


@dataclass(frozen=True)
class HankelOp(_Step):
    index: float  # kappa
    order: complex  # eta
    kind = "hankel"

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
        gamma_r = SpaceSpec(nu, r).gamma_r
        mid = self.index * (nu - 0.5) + 0.5
        if not (gamma_r <= mid + 1e-12):
            raise HypothesisError(
                "gamma(r) <= kappa (nu - 1/2) + 1/2",
                f"gamma(r)={gamma_r:g}, value={mid:g}",
            )
        super().check_space(nu, r)

    def apply(self, live: LiveFunction) -> LiveFunction:
        # hankel_mod reads its input at 840 head points per argument, and
        # 1,536 more per block of 128 arches, 25,416 at most
        src = tabulate(live)
        return LiveFunction(lambda x: hankel_mod(self.index, self.order, src, x),
                            _out_weight(self, live.nu))


@dataclass(frozen=True)
class LaplaceOp(_Step):
    """Modified Laplace transform of index kappa and offset alpha.

    apply tabulates its input and sums on the table's own lattice
    (_laplace_on_grid), with no interpolation and no sweep per x; it is the
    one Laplace implementation, classical.laplace_mod calls it.
    """

    index: float  # kappa
    offset: complex  # alpha
    kind = "laplace"

    def __post_init__(self):
        if self.index == 0:
            raise HypothesisError("kappa != 0")

    def mellin_action(self):
        # Gamma(z) |kappa|^(1 - z), z = kappa (s - alpha), on the reflected
        # argument 1 - s
        kap = self.index
        sym = GammaSymbol(num=((complex(-kap * self.offset), kap),))
        return sym * GammaSymbol.power(abs(kap), 1.0 + kap * self.offset, -kap), 1.0, -1.0

    def apply(self, live: LiveFunction) -> LiveFunction:
        # the weight is analytic for |Im s| < pi |kappa| / 2, so the lattice
        # sum errs like exp(-pi^2 |kappa| / h): h <= |kappa| / 4 makes that
        # exp(-4 pi^2), about 7e-18
        h = min(_TABLE_STEP, abs(self.index) / 4.0)
        # on the side it does not cut off, the weight goes like
        # e^((1 - Re alpha) t), so the table also covers f's tail there
        weight = 1.0 - complex(self.offset).real
        return _laplace_on_grid(self.index, self.offset, tabulate(live, h=h, weight=weight),
                                _out_weight(self, live.nu))


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
    """Build the case factorization of the transform for the space (nu, r).

    Each case's chain wraps one Multiplier, and that multiplier's symbol
    (the plan's aux_symbol) is the case's auxiliary gamma quotient times
    the kernel symbol, formed in the case's branch beside the operators
    around it.  chain_params records the free constants the branch chose
    (k and the anchored edge in case 2, eta in case 3, omega in cases 5-6,
    eta, zeta and omega in case 8) for to_json.  The mirrored cases 4, 7
    and 9 are the partner plan (3, 6, 8) of the reciprocal kernel between
    two reflections, and keep its aux_symbol and chain_params.
    """
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
        aux = GammaSymbol.power(delta, 0.0, -1.0) * sym
        chain = (
            Reflect(),
            Multiplier(aux, "balanced-core", (alpha, beta)),
            Dilate(delta),
        )

    elif case == 2:
        if params.m == 0 and params.n == 0:
            raise HypothesisError("m > 0 or n > 0", "no anchored strip edge")
        cp["k"] = 1.0
        if params.m > 0:
            # Gamma(s - alpha - mu) / Gamma(s - alpha), anchored at alpha
            cp["branch"] = "lower"
            aux = GammaSymbol(num=((-mu - alpha, 1.0),), den=((complex(-alpha), 1.0),)) * sym
            tail = EK("right", -mu, 1.0, -alpha)
        else:
            # Gamma(beta - mu - s) / Gamma(beta - s), anchored at beta
            cp["branch"] = "upper"
            aux = GammaSymbol(num=((beta - mu, -1.0),), den=((complex(beta), -1.0),)) * sym
            tail = EK("left", -mu, 1.0, beta - 1.0)
        mult = Multiplier(
            GammaSymbol.power(delta, 0.0, -1.0) * aux,
            "augmented-balanced-core", (alpha, beta),
        )
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
        pref = GammaSymbol.power(delta, -1.0, 1.0)
        pref = pref * GammaSymbol.power(a1, mu + inv.delta_cap, -inv.delta_cap)
        quot = GammaSymbol(
            num=(((-mu + a1 * (-1.0 - alpha)), a1),),
            den=(((a1 * (1.0 - alpha)), -a1),),
        )
        aux = pref * quot * sym.substitute(1.0, -1.0)
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
        pref = GammaSymbol.power(a1, a1 * (-alpha) - 1.0, a1)
        if omega.real >= -_SIGN_TOL:
            pref = pref * GammaSymbol.power(a2, a2 * beta + omega - 1.0, -a2)
            quot = GammaSymbol(den=((complex(-a1 * alpha), a1),
                                    (a2 * beta + omega, -a2)))
            steps = (LaplaceOp(a2, 1.0 - beta - omega / a2), LaplaceOp(a1, alpha))
        else:
            pref = pref * GammaSymbol.power(a2, a2 * beta - 1.0, -a2)
            quot = GammaSymbol(
                num=(((-a1 * alpha - omega), a1),),
                den=((complex(-a1 * alpha), a1), (complex(-a1 * alpha), a1),
                     (complex(a2 * beta), -a2)),
            )
            steps = (LaplaceOp(a2, 1.0 - beta), LaplaceOp(a1, alpha),
                     EK("right", -omega, 1.0 / a1, -a1 * alpha))
        aux = pref * quot * GammaSymbol.power(delta, 0.0, -1.0) * sym
        chain = (Reflect(), Multiplier(aux, "double-laplace-core", (alpha, beta)),
                 *steps, Dilate(delta))

    elif case == 6:
        omega = mu + a1 * alpha + 0.5
        cp["omega"] = omega
        if omega.real >= -_SIGN_TOL:
            pref = GammaSymbol.power(a1, a1 * (-alpha) + omega - 1.0, a1)
            quot = GammaSymbol(den=(((-a1 * alpha + omega), a1),))
            steps = (LaplaceOp(a1, alpha - omega / a1),)
        else:
            pref = GammaSymbol.power(a1, a1 * (-alpha) - 1.0, a1)
            quot = GammaSymbol(
                num=(((-a1 * alpha - omega), a1),),
                den=((complex(-a1 * alpha), a1), (complex(-a1 * alpha), a1)),
            )
            steps = (LaplaceOp(a1, alpha), EK("right", -omega, 1.0 / a1, -a1 * alpha))
        aux = pref * quot * GammaSymbol.power(delta, 0.0, -1.0) * sym
        chain = (Reflect(), Multiplier(aux, "laplace-core", (alpha, beta)), Reflect(),
                 *steps, Dilate(delta))

    elif case == 8:
        eta_eq = (space.gamma_r + 2.0 * a2 * (nu - 1.0) + mu.real) / a_star
        eta = eta_eq if eta_eq > nu - 1.0 + 1e-9 else nu - 1.0 + 0.5
        zeta = (1.0 - nu) - 0.5
        omega = a_star * eta - mu - 0.5
        cp.update({"eta": eta, "zeta": zeta, "omega": omega})
        # the symbol takes eta and zeta as complex numbers
        eta_s, zeta_s = complex(eta), complex(zeta)
        pref = GammaSymbol.power(a_star, a_star * eta_s - 1.0, a_star)
        pref = pref * GammaSymbol.power(abs(a2), -omega, -2.0 * a2)
        quot = GammaSymbol(
            num=(((a2 * zeta_s + omega), a2),),
            den=(((a_star * eta_s), a_star), ((a2 * zeta_s), -a2)),
        )
        aux = pref * quot * GammaSymbol.power(delta, 0.0, -1.0) * sym
        shift = omega / (2.0 * a2)
        chain = (
            Reflect(), Multiplier(aux, "laplace-hankel-core", (alpha, beta)),
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


def verify_plan_symbol(plan: FactorizationPlan, points=None) -> float:
    """Max relative deviation of the chain's composed symbol from the kernel's.

    The composed argument map must be exactly the reflection s -> 1 - s.
    The symbols are compared at Im s = points (default VERIFY_POINTS) on the
    working line Re s = 1 - nu, all points in one evaluation of each symbol.
    When a point lands on a pole of any factor, the whole point set is
    nudged along the line and evaluated again.
    """
    sym = symbol_from_params(plan.params)
    chain_sym, a, b = chain_action(plan.chain)
    if (a, b) != (1.0, -1.0):
        raise NumericalError("chain argument map does not reflect the line")
    line = 1.0 - plan.nu
    ts = np.asarray(VERIFY_POINTS if points is None else points, dtype=float)
    for attempt in range(4):
        s = line + 1j * (ts + 0.0371 * attempt)
        try:
            total = chain_sym.eval_log(s)
            ref = sym.eval_log(s)
            break
        except PoleError:
            continue
    else:
        raise NumericalError(f"could not find pole-free samples near Im s = {ts.tolist()}")
    return float(np.max(np.abs(np.exp(total - ref) - 1.0)))


# rounding allowance of exact_cancellation, relative to max(1, |value|): the
# plans' own arithmetic leaves at most 13 eps in 2,000 random plans
_CANCEL_TOL = 64.0 * np.finfo(float).eps


def _agree(x, y) -> bool:
    return abs(x - y) <= _CANCEL_TOL * max(1.0, abs(x))


def exact_cancellation(plan: FactorizationPlan) -> bool:
    """Whether the chain's composed action is the kernel's, checked on the
    factors themselves rather than at sample points.

    The argument map must be exactly s -> 1 - s.  Every gamma factor (c, w)
    of the chain upstairs or of the kernel downstairs must pair off with
    one of the chain downstairs or of the kernel upstairs, nothing left on
    either side, and the chain's power prefactors must sum to zero: the
    sums of u log(base) and of v log(base).  Pairs and sums agree to the
    rounding of the plan's own arithmetic (_CANCEL_TOL).
    """
    sym = symbol_from_params(plan.params)
    chain_sym, a, b = chain_action(plan.chain)
    if (a, b) != (1.0, -1.0):
        return False
    down = list(chain_sym.den + sym.num)
    for c, w in chain_sym.num + sym.den:
        k = next((i for i, (c2, w2) in enumerate(down) if _agree(c, c2) and _agree(w, w2)),
                 None)
        if k is None:
            return False
        del down[k]
    if down:
        return False
    for part in (1, 2):
        terms = [complex(pw[part]) * math.log(pw[0]) for pw in chain_sym.powers]
        if abs(_exact_sum(terms)) > _CANCEL_TOL * sum(abs(z) for z in terms):
            return False
    return True


def apply_plan(plan: FactorizationPlan, f, xs) -> "TransformResult":
    """Apply the chain numerically, first element first."""
    if isinstance(f, TestFunction) and not f.in_space(plan.nu):
        raise HypothesisError("f in weighted space", f"nu={plan.nu:g}, r={plan.r:g}")
    _dry_run_spaces(plan.chain, plan.nu, plan.r)
    xs_arr = positive_args(xs)
    live = LiveFunction(f, plan.nu)
    for prim in plan.chain:
        live = prim.apply(live)
    values = live(xs_arr)
    return TransformResult(
        xs=xs_arr, values=values, route="plan",
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
    """Transform as the defining integral, kernel from contour quadrature.

    (Hf)(x) = int H(x e^tau) f(e^tau) e^tau dtau by trapezoid_line.  Its
    integrand gets each sweep block as Runs in arithmetic progression, so
    the kernel is read on ln x + run through LineRule.progression: phase
    tables kept on the kernel's line rule, and G + P exponentials per run,
    not one per argument and node.
    """
    inv = derive_invariants(params)
    ok, reason = admissible_range(inv, space, "direct-integral")
    if not ok:
        raise HypothesisError("direct route inadmissible", reason)
    if isinstance(f, TestFunction) and not f.in_space(space.nu):
        raise HypothesisError("f in weighted space", f"nu={space.nu:g}")
    xs_arr = positive_args(xs)
    ktol = tol * 1e-2
    kernel = kernel_evaluator(params, min(ktol, 1e-10)).fine
    values = np.empty(xs_arr.shape, dtype=complex)
    errs = np.empty(xs_arr.shape, dtype=float)
    for i, xv in enumerate(xs_arr):
        logx = math.log(xv)

        def g(run):
            t = np.exp(run)
            return (kernel.progression(logx + run.start, run.step, run.size)
                    * np.asarray(f(t), dtype=complex) * t)

        val, err = trapezoid_line(g, tol=tol)
        values[i] = val
        errs[i] = err + ktol
    return TransformResult(
        xs=xs_arr, values=values, route="direct", error_estimates=errs,
        admissibility={"direct-integral": (True, reason)},
    )


# tolerances of the multiplier route's inversion and of the representation
# route's direct integrals
_MELLIN_TOL, _REPR_TOL = 1e-10, 1e-8


def htransform_mellin(params: HParams, f, xs, space: SpaceSpec) -> TransformResult:
    """Transform as inverse Mellin of symbol(s) * (M f)(1-s) on Re s = 1 - nu.

    Where f's transform is a GammaSymbol (``TestFunction.mellin_symbol``),
    the integrand is the product symbol, evaluated in one pass.
    """
    inv = derive_invariants(params)
    ok, reason = admissible_range(inv, space, "definition")
    if not ok:
        raise HypothesisError("multiplier route inadmissible", reason)
    if not isinstance(f, TestFunction):
        raise HypothesisError("closed-form Mellin data", "needed on the working line")
    lo, hi = f.mellin_strip()
    if not (lo < space.nu < hi):
        raise HypothesisError(
            "Mellin data on the line", f"nu={space.nu:g} outside ({lo:g}, {hi:g})"
        )
    xs_arr = positive_args(xs)
    sym = symbol_from_params(params)
    f_sym = f.mellin_symbol()
    if f_sym is None:
        def F(s):
            return sym.eval(s) * f.mellin(1.0 - s)
    else:
        # kernel and f's transform at 1 - s as one symbol: one log_gamma
        # batch per node set
        whole = sym * f_sym.substitute(1.0, -1.0)

        def F(s):
            return f.amplitude * whole.eval(s)

    vals, err = mellin_inverse_numeric(F, 1.0 - space.nu, xs, tol=_MELLIN_TOL)
    vals = np.atleast_1d(np.asarray(vals))
    return TransformResult(
        xs=xs_arr, values=vals, route="mellin",
        error_estimates=np.atleast_1d(err),
        admissibility={"definition": (True, reason)},
    )


def _augmented_params(params: HParams, lam: complex, h: float, variant: str) -> HParams:
    up, lo = list(params.upper), list(params.lower)
    if variant == "raise-upper":
        return validate_params(params.m, params.n + 1, params.p + 1, params.q + 1,
                               [(-lam, h)] + up, lo + [(-lam - 1.0, h)])
    return validate_params(params.m + 1, params.n, params.p + 1, params.q + 1,
                           up + [(-lam, h)], [(-lam - 1.0, h)] + lo)


def htransform_repr(params: HParams, f, lam: complex, h: float, xs,
                    space: SpaceSpec) -> TransformResult:
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
    xs_arr = np.atleast_1d(np.asarray(xs, dtype=float))
    c = (lam + 1.0) / h
    d0 = 1e-3
    stencil = np.concatenate([
        xs_arr * (1.0 + d0), xs_arr * (1.0 - d0),
        xs_arr * (1.0 + d0 / 2), xs_arr * (1.0 - d0 / 2),
    ])
    try:
        g_res = htransform_direct(aug, f, stencil, space, _REPR_TOL)
    except HypothesisError as exc:
        raise HypothesisError(
            "augmented kernel inadmissible for direct evaluation", str(exc)
        ) from None
    gv = g_res.values.reshape(4, xs_arr.size)
    phi = np.exp(c * np.log(stencil.reshape(4, xs_arr.size))) * gv
    d_coarse = (phi[0] - phi[1]) / (2.0 * d0 * xs_arr)
    d_fine = (phi[2] - phi[3]) / (d0 * xs_arr)
    deriv = (4.0 * d_fine - d_coarse) / 3.0
    values = sign * h * np.exp((1.0 - c) * np.log(xs_arr)) * deriv
    errs = np.abs(d_fine - d_coarse) * np.abs(h * xs_arr ** (1.0 - c.real)) + _REPR_TOL
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


# bilinear_check's shared log grid: half-width and step in log t
_BILINEAR_SPAN, _BILINEAR_STEP = 42.0, 0.05


def bilinear_check(params: HParams, f, g, space: SpaceSpec) -> float:
    """|integral of f (Hg) - integral of g (Hf)| on a shared log grid.

    The transforms are computed once on the grid through the multiplier
    route when admissible (otherwise the factorization chain) and the outer
    integrals by the trapezoid rule in log coordinates.
    """
    h = _BILINEAR_STEP
    taus = np.arange(-_BILINEAR_SPAN, _BILINEAR_SPAN + h, h)
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
