"""Classical integral operators on the positive half line.

These are the building blocks every factorization chain is assembled from:
the numerical Mellin transform and its inverse, Erdelyi-Kober fractional
integrals, the modified Hankel and Laplace transforms, and weighted-space
norms.  The elementary operators x^z f(x), f(x/d) and f(1/x)/x are the
chain primitives PowerWeight, Dilate and Reflect in engine.py.

Where a function lives is one Support record per function object
(support_of), in tau = log t.  Its hard edges, where f stops, are exact:
tau = 0 for the truncated power, the grid's ends for grid data; Reflect,
Dilate and PowerWeight carry them on.  All else comes from one magnitude
profile |f(e^tau)| on the lattice tau = k/2, probed lazily: the window
where |f| e^(nu tau) exceeds a floor times its side's peak, and whether a
side is dead.  Mellin line sums split at hard edges.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DivergentIntegralError,
    HypothesisError,
    NumericalError,
    ParameterError,
)
from .bessel import bessel_j, phase_breakpoints
from .gammafn import log_gamma
from .gammasym import GammaSymbol
from .quadrature import (
    _BLOCK,
    Lattice,
    endpoint_power_rule,
    equal_panels,
    gauss_legendre,
    lattice_sums,
    panel_sums,
    refine_line,
    trapezoid_density,
    wynn_epsilon,
)


# ---------------------------------------------------------------------------
# Test functions and grid functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """Samples on a strictly increasing log-uniform grid; zero outside."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if t.ndim != 1 or t.size < 16:
            raise ParameterError("grid needs at least 16 nodes")
        if not np.all(np.diff(t) > 0) or t[0] <= 0 or not math.isfinite(t[-1]):
            raise ParameterError("grid must be finite, positive and strictly increasing")
        if v.shape != t.shape:
            raise ParameterError(f"grid has {t.size} nodes but values of shape {v.shape}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        inside = (x >= self.t[0]) & (x <= self.t[-1])
        if inside.any():
            lt = np.log(self.t)
            lx = np.log(x[inside])
            re = np.interp(lx, lt, self.values.real)
            im = np.interp(lx, lt, self.values.imag)
            out[inside] = re + 1j * im
        return out

    @cached_property
    def support(self) -> "Support":
        return Support(self, (math.log(self.t[0]), math.log(self.t[-1])))

    @staticmethod
    def from_csv(path) -> "GridFunction":
        rows = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        return GridFunction(rows[:, 0], rows[:, 1] + 1j * rows[:, 2])

    def to_csv(self, path) -> None:
        data = np.column_stack([self.t, self.values.real, self.values.imag])
        np.savetxt(path, data, delimiter=",")


@lru_cache(maxsize=128)
def _self_check_cached(family: str, c: float, p: float) -> bool:
    f = TestFunction(family=family, c=c, p=p, _checked=True)
    lo, hi = f.mellin_strip()
    hi_eff = min(hi, lo + 6.0)
    rng = np.random.default_rng(20240814)
    for _ in range(5):
        s = complex(rng.uniform(lo + 0.2, hi_eff), rng.uniform(-1.5, 1.5))
        num = mellin_numeric(f, s)
        ref = f.mellin(s)
        if abs(num - ref) > 1e-8 * max(1.0, abs(ref)):
            raise NumericalError(
                f"test function {family}(c={c}, p={p}) failed its Mellin self-check"
            )
    return True


@dataclass(frozen=True)
class TestFunction:
    """Analytic test function with a closed-form Mellin transform.

    Families: 'power-exp' A t^c e^(-p t); 'trunc-power' A t^c on (0,1);
    'gaussian' A t^c e^(-p t^2).  Membership in a weighted space is
    witnessed by nu + c > 0 (every family decays fast enough at infinity for
    every exponent r).  Sampled data without a closed form is a GridFunction.
    """

    __test__ = False  # a library class, not a pytest test class

    family: str = "power-exp"
    c: float = 0.0
    p: float = 1.0
    amplitude: complex = 1.0
    _checked: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.family not in ("power-exp", "trunc-power", "gaussian"):
            raise ParameterError(f"unknown test-function family {self.family!r}")
        if not (math.isfinite(self.c) and math.isfinite(self.p)):
            raise ParameterError("exponent and decay rate must be finite")
        if self.p <= 0:
            raise ParameterError("decay rate must be positive")
        if not self._checked and self.amplitude != 0:
            _self_check_cached(self.family, self.c, self.p)

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.amplitude == 0:
            return np.zeros(x.shape, dtype=complex)
        # every family decays at +inf, so non-finite and non-positive
        # arguments contribute zero; they are evaluated at 1.0 and zeroed
        bad = None
        if x.size and not (x.min() > 0.0 and x.max() < math.inf):
            bad = ~(np.isfinite(x) & (x > 0))
            x = np.where(bad, 1.0, x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.log(x)
            out *= self.c
            if self.family == "power-exp":
                out -= self.p * x
            elif self.family == "gaussian":
                out -= self.p * (x * x)
            np.exp(out, out=out)
            if self.family == "trunc-power":
                out[x >= 1.0] = 0.0
        if bad is not None:
            out[bad] = 0.0
        return self.amplitude * out

    @cached_property
    def support(self) -> "Support":
        if self.family == "trunc-power":
            return Support(self, (None, 0.0))
        return Support(self)

    # -- Mellin data ----------------------------------------------------

    def mellin_strip(self):
        if self.amplitude == 0:
            return (-math.inf, math.inf)
        return (-self.c, math.inf)

    def mellin_symbol(self):
        """GammaSymbol of the Mellin transform, amplitude left out, or None
        for the truncated power.

        power-exp: Gamma(s + c) p^-(s + c); gaussian: 1/2 Gamma((s + c)/2)
        p^-(s + c)/2, the 1/2 as the power 2^-1.  The truncated power's
        1/(s + c) stays rational: as a gamma ratio it loses digits high on
        the line.
        """
        c, p = self.c, self.p
        if self.family == "power-exp":
            return GammaSymbol(num=((c, 1.0),), powers=((p, -c, -1.0),))
        if self.family == "gaussian":
            return GammaSymbol(num=((c / 2.0, 0.5),),
                               powers=((p, -c / 2.0, -0.5), (2.0, -1.0, 0.0)))
        return None

    def mellin(self, s):
        """Closed-form Mellin transform on the validity strip: the amplitude
        times one evaluation of ``mellin_symbol`` (one log_gamma batch), or
        times 1/(s + c) for the truncated power."""
        s = np.asarray(s, dtype=complex)
        if self.amplitude == 0:
            return np.zeros(s.shape, dtype=complex)[()] if s.ndim else 0.0j
        sym = self.mellin_symbol()
        out = 1.0 / (s + self.c) if sym is None else sym.eval(s)
        return self.amplitude * out

    def in_space(self, nu: float) -> bool:
        if self.amplitude == 0:
            return True
        return nu + self.c > 0

    # -- named constructors ---------------------------------------------

    @staticmethod
    def power_exp(c=0.0, p=1.0, amplitude=1.0):
        return TestFunction("power-exp", c, p, amplitude)

    @staticmethod
    def trunc_power(c=0.0):
        return TestFunction("trunc-power", c, 1.0)

    @staticmethod
    def gaussian(c=0.0, p=0.5):
        return TestFunction("gaussian", c, p)

    @staticmethod
    def zero():
        return TestFunction("power-exp", 0.0, 1.0, 0.0)

    @staticmethod
    def builtin(name: str) -> "TestFunction":
        """CLI-facing named functions: exp, texp, gauss, tpow:c."""
        if name == "exp":
            return TestFunction.power_exp(0.0, 1.0)
        if name == "texp":
            return TestFunction.power_exp(1.0, 1.0)
        if name == "gauss":
            return TestFunction.gaussian(0.0, 0.5)
        if name.startswith("tpow:"):
            try:
                c = float(name.split(":", 1)[1])
            except ValueError:
                raise ParameterError(f"tpow:c needs a number c, got {name!r}") from None
            return TestFunction.trunc_power(c)
        raise ParameterError(f"unknown built-in test function {name!r}")


# ---------------------------------------------------------------------------
# Where a function lives
# ---------------------------------------------------------------------------

_LATTICE = 0.5  # profile step in tau
# window probe: +-64, then a live side grown by 48 per probe; six probes for
# tables and Erdelyi-Kober edges, 16 for line sums, which may decay slowly
_PROBE, _GROW, _LINE_PROBES = 64.0, 48.0, 16
# negligible against a side's peak; Erdelyi-Kober tails run _EDGE_MARGIN past
# the last lattice point above it; sides are judged dead _DEAD_SPAN out
_NEGLIGIBLE, _EDGE_MARGIN, _DEAD_SPAN = 1e-19, 1.5, 100.0


class Support:
    """Where f lives on (0, inf), in tau = log t (see the module docstring).

    hard = (lo, hi): exact hard edges, None where none is known.
    """

    def __init__(self, f, hard=(None, None)):
        self.f, self.hard = f, tuple(hard)
        self._k0, self._mags = 0, np.zeros(0)  # |f| at tau = (_k0 + i) _LATTICE

    def _profile(self, lo: float, hi: float):
        """(taus, |f|, finite) on the lattice over [lo, hi], non-finite |f| as 0."""
        k_lo, k_hi = round(lo / _LATTICE), round(hi / _LATTICE)
        if self._mags.size == 0:
            self._k0 = k_lo
        k0, k1 = self._k0, self._k0 + self._mags.size - 1
        new = []
        for ks in (np.arange(min(k_lo, k0), k0), np.arange(k1 + 1, max(k_hi, k1) + 1)):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                new.append(np.abs(np.asarray(self.f(Lattice(_LATTICE * ks, _LATTICE)),
                                             dtype=complex))
                           if ks.size else np.zeros(0))
        self._mags = np.concatenate([new[0], self._mags, new[1]])
        self._k0 = min(k_lo, k0)
        mags = self._mags[k_lo - self._k0:k_hi - self._k0 + 1]
        finite = np.isfinite(mags)
        return _LATTICE * np.arange(k_lo, k_hi + 1), np.where(finite, mags, 0.0), finite

    def window(self, nu: float, floor: float, probes: int = 6):
        """Lattice edges (lo, hi, open_lo, open_hi) of where |f| e^(nu tau)
        exceeds floor times its side's peak, sides split at tau = 0 so that
        growth toward one end cannot hide the other's tail.  At most `probes`
        probes, no wider than one side grown `probes` times; open: still
        above where the probe stopped, or next to a non-finite sample, past
        which nothing is known.  None if f vanishes on the first probe."""
        lo, hi = -_PROBE, _PROBE
        for _ in range(probes):
            taus, mags, finite = self._profile(lo, hi)
            with np.errstate(over="ignore", invalid="ignore"):
                mags = mags * np.exp(nu * taus)
            mags = np.where(np.isfinite(mags), mags, 0.0)
            peak = float(np.max(mags))
            if peak == 0.0:
                return None
            mid = round(-lo / _LATTICE)
            left_peak = float(np.max(mags[: mid + 1])) or peak
            right_peak = float(np.max(mags[mid:])) or peak
            i_lo = np.nonzero(mags > floor * left_peak)[0][0]
            i_hi = np.nonzero(mags > floor * right_peak)[0][-1]
            grow_lo = i_lo <= 1 and finite[0]
            grow_hi = i_hi >= taus.size - 2 and finite[-1]
            if not (grow_lo or grow_hi) or hi - lo >= 2 * _PROBE + _GROW * probes:
                break
            lo -= _GROW if grow_lo else 0.0
            hi += _GROW if grow_hi else 0.0
        open_lo = i_lo <= 1 or not finite[i_lo - 1]
        open_hi = i_hi >= taus.size - 2 or not finite[i_hi + 1]
        return float(taus[i_lo]), float(taus[i_hi]), bool(open_lo), bool(open_hi)

    def _dead(self, sign: float) -> bool:
        """Whether f vanishes _DEAD_SPAN out on one side or falls faster than
        any power there.  A power is a straight line in log|f| against tau;
        a faster decay steepens, taken as a drop over the last unit of tau
        larger by 1 than the drop over the unit before."""
        _, mags, _ = self._profile(*sorted((sign * _DEAD_SPAN, sign * (_DEAD_SPAN - 2.0))))
        ends = mags[::2] if sign > 0 else mags[::-2]
        if ends[-1] == 0.0:
            return True
        if np.any(ends == 0.0):
            return False
        drops = np.diff(np.log(ends))
        return bool(drops[1] < drops[0] - 1.0)

    def edges(self):
        """(lo, hi) past which f is negligible for good, None for f = 0: a
        hard edge, else _EDGE_MARGIN past the window at _NEGLIGIBLE on a side
        that settles a unit inside _DEAD_SPAN and is dead there, else None."""
        win = self.window(0.0, _NEGLIGIBLE)
        if win is None:
            return None
        lo, hi, open_lo, open_hi = win
        hard_lo, hard_hi = self.hard
        if hard_lo is None and not open_lo and lo >= 1.0 - _DEAD_SPAN and self._dead(-1.0):
            hard_lo = lo - _EDGE_MARGIN
        if hard_hi is None and not open_hi and hi <= _DEAD_SPAN - 1.0 and self._dead(1.0):
            hard_hi = hi + _EDGE_MARGIN
        return hard_lo, hard_hi


def support_of(f) -> Support:
    """f's own record if it keeps one, else a fresh record without edges."""
    rec = getattr(f, "support", None)
    return rec if isinstance(rec, Support) else Support(f)


# ---------------------------------------------------------------------------
# Numerical Mellin transform and inverse
# ---------------------------------------------------------------------------

def _line_range(f, nu: float):
    """(lo, hi, open_lo, open_hi, edged): the tau range on which |f(e^tau)|
    e^(nu tau) lives, None if f vanishes: the record's window at _NEGLIGIBLE,
    one lattice step wider on a soft side, open where that side stays open;
    edged when it ends at a hard edge."""
    sup = support_of(f)
    hard_lo, hard_hi = sup.hard
    # with both hard edges known f vanishes outside them, seen by the lattice or not
    win = sup.window(nu, _NEGLIGIBLE, _LINE_PROBES) if None in sup.hard \
        else sup.hard + (False, False)
    if win is None:
        return None
    lo, hi, open_lo, open_hi = win
    at_lo = hard_lo is not None and (open_lo or hard_lo >= lo - _LATTICE)
    at_hi = hard_hi is not None and (open_hi or hard_hi <= hi + _LATTICE)
    return (hard_lo if at_lo else lo - _LATTICE, hard_hi if at_hi else hi + _LATTICE,
            open_lo and not at_lo, open_hi and not at_hi, at_lo or at_hi)


def _line_rule(f, nu: float, t_max: float):
    """tau nodes for int f(e^tau) e^(s tau) dtau on Re s = nu, |Im s| <= t_max,
    as (mid, off, weights, h): node g of block p is mid[p] + off[g] with
    weight weights[p, g], ready for panel_sums.  The range is _line_range's.
    A range ending at a hard edge takes equal Gauss-Legendre panels at most
    a unit wide, with nodes for the oscillation e^(i t_max tau), and h None;
    any other the trapezoid grid of step h = 2 pi / (t_max + 80), in blocks
    of _BLOCK points, the last padded with zero weights, ready for
    lattice_sums too.  Raises on an open range."""
    rng = _line_range(f, nu)
    if rng is None:
        return np.zeros(0), np.zeros(0), np.zeros((0, 0)), None
    lo, hi, open_lo, open_hi, edged = rng
    if open_lo or open_hi:
        raise DivergentIntegralError("Mellin line integrand does not decay")
    if edged:
        mid, off, w = equal_panels(lo, hi, 1.0, 14 + int(math.ceil(0.5 * t_max)))
        return mid, off, np.broadcast_to(w, (mid.size, w.size)), None
    h = min(0.125, 2.0 * math.pi / (t_max + 80.0))
    n = int(math.ceil((hi + h - lo) / h))  # the points of arange(lo, hi + h, h)
    n_blocks = -(-n // _BLOCK)
    weights = np.zeros(n_blocks * _BLOCK)
    weights[:n] = h
    return (lo + h * _BLOCK * np.arange(n_blocks), h * np.arange(_BLOCK),
            weights.reshape(n_blocks, _BLOCK), h)


def mellin_numeric(f, s) -> complex:
    """Mellin transform of f at a single point s: its line sample
    (mellin_line_samples), which reads f itself on the range of f's Support
    record and splits at its hard edges.  A TestFunction is first checked
    against its strip."""
    s = complex(s)
    if isinstance(f, TestFunction):
        lo, hi = f.mellin_strip()
        if not (lo < s.real < hi):
            raise DivergentIntegralError(
                f"Mellin integral diverges at Re s = {s.real:g} (strip ({lo:g}, {hi:g}))"
            )
    return complex(mellin_line_samples(f, [s])[0])


def mellin_line_samples(fn, s_nodes):
    """Mellin transform of fn at many points on one vertical line.

    All nodes must share their real part.  One set of tau nodes from
    _line_rule serves every point, summed by lattice_sums on the trapezoid
    grid (L exponentials, from tables shared by calls at the same points)
    or, for one point or Gauss-Legendre panels, by panel_sums (L (P + G)),
    and one L x G x P product for L points, P blocks of G tau nodes.  So
    chains can push sampled functions through multiplier steps cheaply.
    The result is shaped like s_nodes.
    """
    s_nodes = np.asarray(s_nodes, dtype=complex)
    if s_nodes.size == 0:
        return np.zeros(s_nodes.shape, dtype=complex)
    nu = float(s_nodes.real.flat[0])
    if not np.allclose(s_nodes.real, nu, atol=1e-12):
        raise ParameterError("line sampling requires constant Re s")
    t_max = float(np.max(np.abs(s_nodes.imag)))
    mid, off, weights, h = _line_rule(fn, nu, t_max)
    taus = mid[:, None] + off
    with np.errstate(over="ignore", invalid="ignore"):
        base = (np.asarray(fn(np.exp(taus.ravel())), dtype=complex).reshape(taus.shape)
                * np.exp(nu * taus) * weights)
    # a sample that overflows counts as 0, as in the record's profile
    base = np.where(np.isfinite(base), base, 0.0)
    if h is None or s_nodes.size == 1:
        return panel_sums(-s_nodes.imag, mid, off, base)
    return lattice_sums(-s_nodes.imag.ravel(), mid[0], h, base).reshape(s_nodes.shape)


def positive_args(x) -> np.ndarray:
    """x as a 1-D float array; ParameterError unless every x is finite and > 0."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0) or not np.all(np.isfinite(x_arr)):
        raise ParameterError("x must be positive")
    return x_arr


def _decay_truncation(F, gamma_line: float, tol: float):
    """Find T with |F| negligible beyond it on the line Re s = gamma_line.

    |F| at T is judged against the largest |F| seen, at the heights tried so
    far and at two fixed points near the real axis.  F is sampled once, at
    those two points and at every height 5, 5 x 1.6, ... up to 400.
    """
    heights = []
    T = 5.0
    while T <= 400.0:
        heights.append(T)
        T *= 1.6
    probes = np.multiply.outer(heights, [1j, 1.07j, -1j]).ravel()
    mags = np.abs(np.asarray(F(gamma_line + np.concatenate([[0.3j, 1.9j], probes]))))
    near = float(np.max(mags[:2]))
    scale = 0.0
    for T, sample in zip(heights, mags[2:].reshape(-1, 3)):
        m = float(np.max(sample))
        scale = max(scale, m, near)
        if m <= tol * scale / max(T, 1.0):
            return T
    raise DivergentIntegralError("no decay on the inversion line")


def mellin_inverse_numeric(F, gamma_line: float, x, *, tol: float = 1e-10):
    """Inverse Mellin transform along Re s = gamma_line, at finite positive x.

    F is a callable on complex arrays (a GammaSymbol's eval also works).
    Truncated where |F| has decayed to tol, summed by refine_line from the
    step of trapezoid_density for a pole 0.5 from the line (F's poles are
    unknown here).  Returns (values, error_estimates), both shaped like x:
    the estimate at each x is its gap to the sum on every other node.
    """
    if isinstance(F, GammaSymbol):
        F = F.eval
    x_arr = positive_args(x)
    T = _decay_truncation(F, gamma_line, tol)
    logx = np.log(x_arr)
    first = trapezoid_density(float(np.max(np.abs(logx))), 0.5, tol)
    fine, err, _ = refine_line(F, gamma_line, T, logx, first, tol)
    return (fine[0], float(err[0])) if np.ndim(x) == 0 else (fine, err)


# ---------------------------------------------------------------------------
# Erdelyi-Kober fractional integrals
# ---------------------------------------------------------------------------

# lattice step in tau = log t of tabulate's tables and of the Erdelyi-Kober
# (EK) tail's table of f
_TABLE_STEP = 0.05
# barycentric weights of 8-point interpolation on equispaced nodes
_LAGRANGE_W8 = np.array([-1.0, 7.0, -21.0, 35.0, -35.0, 21.0, -7.0, 1.0])


def _lagrange8(frac, vv):
    """Row i's 8-point interpolant through vv[i] (samples at 0..7), at frac[i];
    a frac within 1e-12 of a node takes that node's sample."""
    d = frac[:, None] - np.arange(8)[None, :]
    exact = np.abs(d) < 1e-12
    d = np.where(exact, 1.0, d)
    w = _LAGRANGE_W8[None, :] / d
    res = np.sum(w * vv, axis=1) / np.sum(w, axis=1)
    hit = exact.any(axis=1)
    if hit.any():
        res[hit] = vv[exact].reshape(-1)
    return res


# the EK tail kernel is e^(-rate rho) to double precision once
# |alpha - 1| e^(-sigma rho) < e^-_EK_PURE
_EK_PURE = 39.2
# the farthest (in tau) the tail's table reaches past its outputs
_EK_MAX_REACH = 480.0
# rows and recursion steps per block, anchored at multiples of it on the
# lattice so that every call sums a row in the same order; f samples per
# head block (arguments times head nodes)
_EK_BLOCK, _EK_HEAD_SAMPLES = 64, 20480

# an EK tail's lattice weights, in steps of h: the tail of row j starts
# `split` steps off; taps d0 <= d < D = d0 + near.size are near[d - d0], taps
# d >= D are far q^d, and block[i, l] = q^(i - l) (i >= l) is one recursion
# block
_Taps = namedtuple("_Taps", "split d0 near far q block")


def _ek_kernel(rate, alpha, sigma, rho):
    """The EK tail kernel e^(-rate rho) (1 - e^(-sigma rho))^(alpha - 1)."""
    return np.exp(-rate * rho + (alpha - 1.0) * np.log1p(-np.exp(-sigma * rho)))


def _basis8(phi):
    """The 8-point Lagrange basis on nodes 0..7 at 3 + phi, one row per phi."""
    w = _LAGRANGE_W8 / (3.0 + phi[:, None] - np.arange(8))
    return w / w.sum(axis=1, keepdims=True)


@lru_cache(maxsize=64)
def _ek_taps(rate: complex, alpha: complex, sigma: float, h: float) -> _Taps:
    """Product-integration weights of an EK tail on the lattice tau = m h.

    The tail at x = e^(j h) is int_{rho_s}^inf K(rho) f(e^(j h -+ rho)),
    K = _ek_kernel, rho_s = log 2 / sigma.  With f replaced by LogGrid's
    centred 8-point interpolant of its samples v_m it is sum_d W_d v_(j-+d)
    exactly, W_d integrating K against the basis polynomials that reach
    that sample (Lubich, SIAM J. Math. Anal. 17 (1986)); Gauss-Legendre
    nodes on each cell of rho.
    """
    split = math.log(2.0) / sigma / h
    gap = abs(alpha - 1.0)
    # real parameters keep the arithmetic real
    rate, alpha = (z.real if z.imag == 0 else z for z in (rate, alpha))
    pure = split if gap == 0.0 else max(split, (_EK_PURE + math.log(gap)) / (sigma * h))
    c0 = math.floor(split)
    # cell c (rho/h in [c, c+1]) reaches taps c - 3 .. c + 4, so taps from D on
    # see only cells where K is exponential
    big_d = max(math.ceil(pure), c0 + 1) + 4
    xg, wg = gauss_legendre(8 + 4 * math.ceil(h * (abs(rate) + sigma)))
    cells, lo = np.arange(c0, big_d + 4), split - c0  # the first cell starts at rho_s
    half = 0.5 + 0.5 * xg
    phi = np.vstack([lo + (1.0 - lo) * half, np.broadcast_to(half, (cells.size - 1, xg.size))])
    kern = _ek_kernel(rate, alpha, sigma, (cells[:, None] + phi) * h) * (0.5 * h * wg)
    kern[0] *= 1.0 - lo
    basis = _basis8(half)
    cell_w = np.vstack([kern[:1] @ _basis8(phi[0]), kern[1:] @ basis])
    taps = np.zeros(cells.size + 8, dtype=complex)  # taps c0 - 3 ..
    for k in range(8):
        taps[k:k + cells.size] += cell_w[:, k]
    # an exponential cell: W_d = q^d h sum_k q^(3-k) int_0^1 e^(-rate h phi) l_k
    far = 0.5 * h * np.sum(np.exp(-rate * h * (3.0 - np.arange(8) + half[:, None]))
                           * basis * wg[:, None])
    steps = np.subtract.outer(np.arange(_EK_BLOCK), np.arange(_EK_BLOCK))
    block = np.where(steps >= 0, np.exp(-rate * h * np.maximum(steps, 0)), 0.0)
    return _Taps(split, c0 - 3, taps[:big_d - c0 + 3], complex(far),
                 complex(np.exp(-rate * h)), block)


def _geometric_sums(v, first: int, stop: int, taps: _Taps):
    """S_i = v_i + q S_(i-1) from S_(first-1) = 0, for first <= i <= stop
    (v[0] is v_first): each block's own sums one matrix product, then one
    carry per block."""
    k_lo = first // _EK_BLOCK
    pad = np.zeros((stop // _EK_BLOCK - k_lo + 1) * _EK_BLOCK, dtype=complex)
    pad[first - k_lo * _EK_BLOCK:stop - k_lo * _EK_BLOCK + 1] = v[:stop - first + 1]
    local = pad.reshape(-1, _EK_BLOCK) @ taps.block.T
    carry, c = np.empty(local.shape[0], dtype=complex), 0.0j
    for k in range(local.shape[0]):
        carry[k], c = c, local[k, -1] + taps.q * taps.block[-1, 0] * c
    local += np.multiply.outer(carry, taps.q * taps.block[:, 0])
    return local.ravel()[first - k_lo * _EK_BLOCK:stop - k_lo * _EK_BLOCK + 1]


def _edge_zone(edge: float, above: bool, v, first: int):
    """(u, w, delta): Gauss-Legendre nodes and weights on the 7 cells next to
    a hard edge of f (lattice units, v[0] the sample at first), and there
    the one-sided interpolant, through the 8 live samples nearest the edge
    and 0 past it, minus the centred one, which reads dead samples."""
    # the live sample nearest the edge, and the cells whose stencils differ
    live = math.ceil(edge - 1e-9) - 1 if above else math.floor(edge + 1e-9) + 1
    first_cell, base = (live - 3, live - 7) if above else (live - 4, live)
    marks = np.unique(np.append(np.arange(first_cell, first_cell + 8), edge))
    xg, wg = gauss_legendre(12)
    a, b = marks[:-1, None], marks[1:, None]
    u, w = (a + (b - a) * (0.5 + 0.5 * xg)).ravel(), ((b - a) * (0.5 * wg)).ravel()

    def interp(bases):
        return _lagrange8(u - bases, v[bases[:, None] + np.arange(8) - first])

    one_sided = np.where(u < edge if above else u > edge, interp(np.full(u.size, base)), 0.0)
    return u, w, one_sided - interp(np.floor(u).astype(int) - 3)


def _ek_tail(side: str, alpha: complex, sigma: float, eta: complex, f, x_arr):
    """The part u <= 1/2 of an EK integral at x_arr (see ek_fractional)."""
    h = _TABLE_STEP
    sup = support_of(f)
    edges = sup.edges()
    if edges is None:
        return np.zeros(x_arr.size, dtype=complex)
    # the frame: lattice index g stands at tau = sign g h, so on both sides
    # the tail of row g runs downward from g - split
    sign = 1.0 if side == "left" else -1.0
    rate = sigma * (eta + 1.0) if side == "left" else sigma * eta
    taps = _ek_taps(rate, alpha, sigma, h)
    below, above, hard_below, hard_above = (
        None if e is None else sign * e / h
        for e in (edges[::int(sign)] + sup.hard[::int(sign)]))

    # an x within 1e-12 steps of the lattice reads its row, any other 8 rows
    pos = sign * np.log(x_arr) / h
    hit = np.abs(pos - np.rint(pos)) < 1e-12
    base = np.where(hit, np.rint(pos), np.floor(pos)).astype(int) - 3
    rows = np.where(hit[:, None], base[:, None] + 3, base[:, None] + np.arange(8))
    blocks = np.unique(rows // _EK_BLOCK)
    g_lo, g_hi = blocks[0] * _EK_BLOCK, (blocks[-1] + 1) * _EK_BLOCK - 1

    # the table v: f on [first, last], 0 past its edges.  It ends at the
    # far edge if that is within reach, else it is completed below
    d0, big_d = taps.d0, taps.d0 + taps.near.size
    last = g_hi - d0 + 8
    top = g_lo - math.floor(taps.split)  # where the lowest row's tail starts
    top = top if above is None else min(top, math.floor(above))
    complete = below is None or top - below > _EK_MAX_REACH / h
    if complete:
        reach = min(100.0 / max(complex(rate).real, 0.05), _EK_MAX_REACH)
        first = min(g_lo - big_d, top - math.ceil(reach / h)) - 8
    else:
        first = min(math.floor(below), g_lo - big_d) - 8
    zones = [(e, up) for e, up in ((hard_below, False), (hard_above, True))
             if e is not None and first + 8 <= e <= g_hi - taps.split + 8]
    for e, _ in zones:
        first, last = min(first, math.floor(e) - 16), max(last, math.ceil(e) + 16)
    live_lo = first if below is None else max(first, math.floor(below + 1e-9) + 1)
    live_hi = last if above is None else min(last, math.ceil(above - 1e-9) - 1)
    v = np.zeros(last - first + 1, dtype=complex)
    if live_hi >= live_lo:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fv = np.asarray(f(Lattice((sign * np.arange(live_lo, live_hi + 1)) * h,
                                      sign * h)), dtype=complex)
        v[live_lo - first:live_hi - first + 1] = np.where(np.isfinite(fv), fv, 0.0)

    # near taps, one dot product per row, over runs of consecutive blocks
    tail = np.zeros(g_hi - g_lo + 1, dtype=complex)
    for run in np.split(blocks, np.nonzero(np.diff(blocks) > 1)[0] + 1):
        r0, r1 = run[0] * _EK_BLOCK, (run[-1] + 1) * _EK_BLOCK - 1
        tail[r0 - g_lo:r1 - g_lo + 1] = np.correlate(
            v[r0 - big_d + 1 - first:r1 - d0 + 1 - first], np.conj(taps.near[::-1]), "valid")

    # far taps far q^d, d >= D: one recursion over the table, started with
    # f below it summed as the power v[0] / v[1] per step
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _geometric_sums(v, first, g_hi - big_d, taps)
        if complete and v[0] != 0:
            ratio = v[0] / v[1]
            if not (np.isfinite(ratio) and 1.0 - abs(taps.q * ratio) >= 1e-6 * h):
                raise DivergentIntegralError("endpoint divergence in fractional integral")
            sums += (np.exp(-rate * h * np.arange(1, sums.size + 1))
                     * (v[0] * ratio / (1.0 - taps.q * ratio)))
        tail += taps.far * np.exp(-rate * h * big_d) * sums[g_lo - big_d - first:]

    # next to a hard edge, rows add the one-sided minus the centred interpolant
    g_rows = np.arange(g_lo, g_hi + 1)
    for e, up in zones:
        u, w, delta = _edge_zone(e, up, v, first)
        seen = g_rows - taps.split > u.min()  # rows whose tail reaches the zone
        rho = np.subtract.outer(g_rows[seen], u)
        kern = _ek_kernel(rate, alpha, sigma, np.maximum(rho, taps.split) * h)
        tail[seen] += h * (np.where(rho >= taps.split, kern, 0.0) @ (w * delta))

    idx = np.clip(base[:, None] + np.arange(8) - g_lo, 0, tail.size - 1)
    return sigma * _lagrange8(pos - base, tail[idx])


def ek_fractional(side: str, alpha, sigma: float, eta, f, x):
    """Erdelyi-Kober fractional integrals of order alpha (Re alpha > 0).

    side='left' integrates over (0, x), side='right' over (x, inf).  With
    u = (t/x)^sigma both are averages over u in (0, 1) with a (1-u)^(alpha-1)
    endpoint.  Head, u in [1/2, 1]: quadrature.endpoint_power_rule in
    w = 1 - u, whose weights carry the complex power w^(alpha-1); 51 to 78
    nodes per argument for real alpha in 0.4..6, more as |Im alpha| /
    Re alpha grows (298 at 0.5+2i), NumericalError past 4,096.
    Tail: in rho = |log(t/x)| it is sigma int_{log 2/sigma}^inf e^(-rate rho)
    (1 - e^(-sigma rho))^(alpha-1) f(x e^(-+rho)) d rho, rate = sigma(eta+1)
    on the left and sigma eta on the right.  f is sampled once on the
    lattice tau = m h, h = _TABLE_STEP; the tail at the lattice points is a
    correlation of the samples with weights that integrate the kernel
    exactly against LogGrid's 8-point interpolant (_ek_taps): about
    39/(sigma h) near taps as dot products, the rest, where the kernel is
    exponential, as one geometric recursion.  The tail at x interpolates its
    lattice values.  Beside a hard edge of f's Support record f's
    interpolant is one-sided, and 0 past the edge.  f is read as given, at
    the head nodes and on the lattice: a chain's EK step tabulates its input
    only for arguments whose head nodes outnumber the table's points.

    The table ends at the record's edge toward the tail's end if that lies
    within _EK_MAX_REACH of the outputs.  Else it runs 100 / Re(rate) (at
    most _EK_MAX_REACH) past them, and f beyond is summed as the geometric
    series of the power its last two samples show; DivergentIntegralError
    is raised where that series decays by less than 1e-6 per unit of tau
    (e.g. f = t^c, c >= sigma Re eta, on the right).

    Accuracy: on smooth f 2e-12 to 1e-11 of max|value| (alpha = 1 closed
    forms of t^c e^(-p t), log x in -8..4), set by the interpolant of f
    where f is steep; 11.4 to 12.8 digits on the benchmark's Mellin
    identities; against mpmath 9e-12 relative or better on a right-side
    draw with c 0.0064 below sigma eta, 2e-15 at log x = -60, and 1e-10
    relative at complex orders 0.3+0.3i to 1.5+0.8i.  A hard edge inside
    the head, [x, 2^(1/sigma) x], is not resolved.
    """
    alpha, eta = complex(alpha), complex(eta)
    if alpha.real <= 0:
        raise HypothesisError("Re(alpha) > 0", f"got {alpha}")
    if sigma <= 0:
        raise HypothesisError("sigma > 0", f"got {sigma}")
    if side not in ("left", "right"):
        raise ParameterError("side must be 'left' or 'right'")
    x_arr = positive_args(x)
    power, u_pow = (1.0 / sigma, eta) if side == "left" else (-1.0 / sigma, eta - 1.0)

    # head u in [1/2, 1]: in w = 1 - u the endpoint rule carries w^(alpha-1)
    w, c = endpoint_power_rule(alpha)
    log_u = np.log1p(-w)
    c_up, t_up = c * np.exp(u_pow * log_u), np.exp(power * log_u)
    head = np.empty(x_arr.size, dtype=complex)
    rows = _EK_HEAD_SAMPLES // w.size
    for k0 in range(0, x_arr.size, rows):
        xs = x_arr[k0:k0 + rows]
        fu = np.asarray(f(np.multiply.outer(t_up, xs).ravel()), dtype=complex)
        head[k0:k0 + rows] = c_up @ fu.reshape(t_up.size, xs.size)
    out = np.exp(-log_gamma(alpha)) * (head + _ek_tail(side, alpha, sigma, eta, f, x_arr))
    return complex(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Modified Hankel and Laplace transforms
# ---------------------------------------------------------------------------

# arches, arches per block (it divides _N_ARCH, and the first 52 partials
# of every block hold the Wynn window), geometric head panels and panels per
# head chunk, Gauss-Legendre nodes each
_N_ARCH, _ARCH_BLOCK, _HEAD_LEVELS, _HEAD_CHUNK, _HANKEL_NODES = 2048, 64, 70, 10, 12
# arguments per block: an arch block's float temporaries are 0.8 MB each
_HANKEL_COLS = 128
# an arch term this small against its running sum settles the sum; a head
# chunk whose absolute mass is this small against it ends the head
_HANKEL_SETTLE, _HEAD_SETTLE = 1e-3 * 1e-10, 1e-17


@lru_cache(maxsize=32)
def _hankel_grid(eta_key):
    """Fixed integration structure in y = xi * v: head panels plus arches.

    Returns (y_head, jw_head, ly_arch, jw_arch): y at the head nodes, log y
    at the arch nodes, and jw premultiplying the Bessel factor and
    quadrature weight.  Each is a (groups, nodes) array; the head's groups
    are its chunks of _HEAD_CHUNK panels, top first, the arches one each.
    """
    eta = complex(*eta_key)
    breaks = phase_breakpoints(eta, _N_ARCH + 1)
    xg, wg = gauss_legendre(_HANKEL_NODES)
    # geometric head panels on (0, j_1]
    hi = float(breaks[0])
    edges_hi = hi * 0.32 ** np.arange(_HEAD_LEVELS)
    edges_lo = edges_hi * 0.32
    mid = 0.5 * (edges_hi + edges_lo)
    half = 0.5 * (edges_hi - edges_lo)
    y_head = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w_head = (half[:, None] * wg[None, :]).ravel()
    jw_head = bessel_j(eta, y_head) * w_head
    # arches between consecutive breakpoints
    lo_a = breaks[:-1]
    hi_a = breaks[1:]
    mid = 0.5 * (hi_a + lo_a)
    half = 0.5 * (hi_a - lo_a)
    y_arch = (mid[:, None] + half[:, None] * xg[None, :])
    w_arch = half[:, None] * wg[None, :]
    jw_arch = bessel_j(eta, y_arch.ravel()).reshape(y_arch.shape) * w_arch
    chunks = (-1, _HEAD_CHUNK * _HANKEL_NODES)
    return y_head.reshape(chunks), jw_head.reshape(chunks), np.log(y_arch), jw_arch


def _node_sums(vals, jw):
    """sum_j vals[k, j, i] jw[k, j] as a (groups, arguments) array: one
    batched matrix product; a real vals meets jw as (re, im) pairs."""
    vt = vals.transpose(0, 2, 1)
    if np.iscomplexobj(vals):
        return np.matmul(vt, jw[:, :, None])[..., 0]
    return np.matmul(vt, jw.view(float).reshape(*jw.shape, 2)).view(complex)[..., 0]


def hankel_mod(kappa: float, eta, f, x):
    """Modified Hankel transform with index kappa != 0 and order Re(eta) > -1.

    After substitution the oscillation lives on a fixed grid in y = xi * v,
    so batches share the Bessel samples.  The integrand f(v^kappa)
    v^(kappa/2), v = y / xi, is formed in log space: with lv = kappa log v
    it is f(t) sqrt(t), t = e^lv, so no power is taken per entry.  f is
    read only where an argument's sum can still change:

    - The head, _HEAD_LEVELS geometric panels on (0, j_1] reaching
      y = e^-80, is summed top down in chunks of _HEAD_CHUNK panels.  An
      argument leaves it after a chunk whose absolute mass sum |integrand
      jw| is at most _HEAD_SETTLE of its nonzero running sum, so a chunk
      that cancels cannot end it.  Its log v is the log of the ratio y /
      xi, which log y - log xi would lose to cancellation down there.
    - An argument whose head is exactly 0 and whose nodes, head bottom to
      the last arch, all map in log t past an edge of f (support_of(f),
      probed only then) is 0 and reads no arch.
    - Arch sums advance block by block (_ARCH_BLOCK arches), with log v =
      log y - log xi from the cached log y.  An argument settles after a
      block when an arch term falls to _HANKEL_SETTLE of its running sum,
      after a nonzero head or arch term: the partial sum there is its
      value; or otherwise, when arch terms 6..52 of the block are all
      nonzero and wynn_epsilon on the block's partials 5..52 is finite:
      that extrapolation is its value.  The window is early in the block,
      where alternating sums that grow are still smallest.

    An argument still unsettled after all _N_ARCH arches takes the midpoint
    of its last two partial sums.
    """
    eta = complex(eta)
    if kappa == 0:
        raise HypothesisError("kappa != 0")
    if eta.real <= -1.0:
        raise HypothesisError("Re(eta) > -1", f"got {eta}")
    x_arr = positive_args(x)
    y_head, jw_head, ly_arch, jw_arch = _hankel_grid((eta.real, eta.imag))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xi_full = np.abs(kappa) * x_arr ** (1.0 / kappa)
        lxi_full = np.log(xi_full)
    edges = None  # f's edges in log t, probed once some head is exactly 0

    def group_sums(lv, jw, xi):
        """sum_j f(v^kappa) v^(kappa/2) jw[k, j] / xi per group k and
        argument, from lv = log v, v = y[k, j] / xi (overwritten), and the
        integrand.  Non-finite integrand entries count 0."""
        lv *= kappa
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = np.exp(lv, out=lv)
            vals = np.asarray(f(t.ravel())).reshape(t.shape)
            # sqrt(t) multiplies in place, and t's buffer takes it, unless
            # vals is t itself, read-only or narrower than float
            if (np.may_share_memory(vals, t) or not vals.flags.writeable
                    or np.result_type(vals, float) != vals.dtype):
                vals = vals.astype(np.result_type(vals, float))
            vals *= np.sqrt(t, out=t)
            sums = _node_sums(vals, jw)
            # a non-finite entry leaves its group's sum non-finite
            if not np.all(np.isfinite(sums)):
                vals[~np.isfinite(vals)] = 0.0
                sums = _node_sums(vals, jw)
        return sums / xi, vals

    out = np.empty(x_arr.size, dtype=complex)
    for start in range(0, x_arr.size, _HANKEL_COLS):
        sl = slice(start, start + _HANKEL_COLS)
        xi, lxi = xi_full[sl], lxi_full[sl]
        block = out[sl]
        acc = np.zeros(xi.size, dtype=complex)
        live = np.arange(xi.size)  # block columns still in the head
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for y, jw in zip(y_head, jw_head):
                lv = np.log(np.divide.outer(y, xi[live]))
                sums, vals = group_sums(lv[None], jw[None], xi[live])
                acc[live] += sums[0]
                mass = np.abs(jw) @ np.abs(vals[0]) / xi[live]
                settled = (mass <= _HEAD_SETTLE * np.abs(acc[live])) & (acc[live] != 0)
                live = live[~settled]
                if not live.size:
                    break
        dead = acc == 0
        if dead.any():
            if edges is None:
                # f = 0 (no edges) leaves no live range: every zero head is dead
                lo, hi = support_of(f).edges() or (math.inf, -math.inf)
                edges = (-math.inf if lo is None else lo, math.inf if hi is None else hi)
            # log t at the lowest head node and the last arch node
            lt = kappa * (np.array([[np.log(y_head[-1].min())], [ly_arch[-1, -1]]]) - lxi)
            dead &= (lt.max(axis=0) < edges[0]) | (lt.min(axis=0) > edges[1])
            block[dead] = 0.0
        live = np.flatnonzero(~dead)  # block columns not yet settled
        acc = acc[live]
        done = 0
        while done < _N_ARCH and live.size:
            blk = slice(done, done + _ARCH_BLOCK)
            lv = np.subtract.outer(ly_arch[blk], lxi[live])
            terms = group_sums(lv, jw_arch[blk], xi[live])[0]
            partials = acc + np.cumsum(terms, axis=0)
            done += _ARCH_BLOCK
            # a term this small against the running sum settles the sum
            # there, once the sum before it has seen mass
            before = np.vstack([acc[None, :], partials[:-1]])
            tiny = (np.abs(terms) <= _HANKEL_SETTLE * np.abs(partials)) & (before != 0)
            hit = tiny.any(axis=0)
            block[live[hit]] = partials[np.argmax(tiny[:, hit], axis=0), hit]
            # otherwise Wynn on the block's early window.  A zero term there
            # (f's support not reached yet) leaves the column to run on
            wynn = ~hit & np.all(terms[5:52] != 0, axis=0)
            limit = np.full(live.size, np.nan, dtype=complex)
            limit[wynn] = wynn_epsilon(partials[4:52, wynn])[0]
            near = np.isfinite(limit)
            block[live[near]] = limit[near]
            keep = ~(hit | near)
            live, partials = live[keep], partials[:, keep]
            acc = partials[-1]
        if live.size:
            block[live] = 0.5 * (partials[-1] + partials[-2])
    out = out * np.abs(kappa) * x_arr ** (1.0 / kappa - 0.5)
    return complex(out[0]) if np.ndim(x) == 0 else out


def laplace_mod(kappa: float, alpha, f, x):
    """Modified Laplace transform with index kappa != 0, pointwise.

    The integral of u^{-alpha} e^{-|k| u^{1/k}} f(u/x) / x over u > 0, by the
    one Laplace implementation: engine.LaplaceOp tabulates f on a lattice in
    log t, of step min(0.05, |kappa| / 4), and sums there
    (engine._laplace_on_grid).  On smooth f it meets the Gamma and Bessel-K
    closed forms (kappa = 1 and -1, Re alpha up to 1.9) to about 1e-13 of
    max|value| over x in e^-30..e^30, and values far below that scale keep
    their digits: for f = t e^{-t}, alpha = 0, kappa = -0.25 and x = e^-5 it
    is 7e-11 off the exact 1.06e-27.  A hard edge in f is summed over at
    O(h) only: for f = tpow:0, kappa = 1, alpha = 0 it is 2.5e-2 of
    max|value| off, 2e-2 relative at x = 0.3.
    """
    from .engine import LaplaceOp, LiveFunction

    xs = positive_args(x)
    if isinstance(x, Lattice):
        xs = x  # LaplaceOp sums a whole lattice as one correlation
    out = LaplaceOp(kappa, alpha).apply(LiveFunction(f, 0.0))(xs)
    return complex(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Weighted-space norms
# ---------------------------------------------------------------------------

# step in tau of the essential-sup norm's samples
_SUP_STEP = 0.005
# t = e^tau is a normal double for tau between these: f cannot be read past them
_TAU_LIMITS = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))


def lnur_norm(f, nu: float, r: float) -> float:
    """Norm in the weighted space: (integral of |t^nu f|^r dt/t)^(1/r).

    The integral is the Mellin transform of |t^nu f|^r (not of |f|^r, which
    may overflow) at s = 0, its line sample with f's hard edges.  r = inf
    gives the essential-sup norm: the largest |t^nu f| at steps of _SUP_STEP
    in tau on _line_range clipped to _TAU_LIMITS (f read at the last double
    inside a hard edge that ends the range), or inf where it is still
    rising at an open or clipped end (above the sample _GROW inward by more
    than rounding).  A divergent integral returns +inf rather than raising.
    """
    if r < 1.0:
        raise ParameterError("exponent r must be >= 1")
    if math.isinf(r):
        rng = _line_range(f, nu)
        if rng is None:
            return 0.0
        lo, hi, open_lo, open_hi, _ = rng
        a, b = max(lo, _TAU_LIMITS[0]), min(hi, _TAU_LIMITS[1])
        taus = np.linspace(a, b, int(math.ceil((b - a) / _SUP_STEP)) + 1)
        ts = np.exp(taus)
        # f stops at a hard edge: read it at the last double inside
        hard_lo, hard_hi = support_of(f).hard
        if a == hard_lo:
            ts[0] = np.nextafter(ts[0], math.inf)
        if b == hard_hi:
            ts[-1] = np.nextafter(ts[-1], 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.abs(np.asarray(f(ts), dtype=complex)) * np.exp(nu * taus)
        k = min(round(_GROW / _SUP_STEP), taus.size - 1)
        rising = ((open_lo or a > lo) and vals[0] > vals[k] * (1.0 + 1e-9)) or \
            ((open_hi or b < hi) and vals[-1] > vals[-1 - k] * (1.0 + 1e-9))
        return math.inf if rising else float(np.max(vals))

    def mag(t):
        """|t^nu f(t)|^r, 0 where f vanishes."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mags = np.abs(np.asarray(f(t), dtype=complex))
            out = np.exp(r * (np.log(np.where(mags > 0, mags, 1.0)) + nu * np.log(t)))
        return np.where(mags > 0, out, 0.0)

    mag.support = Support(mag, support_of(f).hard)
    try:
        value = mellin_line_samples(mag, [0.0])[0]
    except (DivergentIntegralError, NumericalError):
        return math.inf
    return float(abs(value)) ** (1.0 / r)
