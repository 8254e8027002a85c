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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

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
    equal_panels,
    gauss_legendre,
    jacobi_unit_interval,
    panel_sums,
    refine_line,
    trapezoid_line,
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
        if not np.all(np.diff(t) > 0) or t[0] <= 0:
            raise ParameterError("grid must be positive and strictly increasing")
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
    'gaussian' A t^c e^(-p t^2); 'grid' (no closed form).  Membership in a
    weighted space is witnessed by nu + c > 0 (all closed-form families
    decay fast enough at infinity for every exponent r).
    """

    family: str = "power-exp"
    c: float = 0.0
    p: float = 1.0
    amplitude: complex = 1.0
    grid: Optional[GridFunction] = None
    _checked: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.family not in ("power-exp", "trunc-power", "gaussian", "grid"):
            raise ParameterError(f"unknown test-function family {self.family!r}")
        if self.family != "grid" and self.p <= 0:
            raise ParameterError("decay rate must be positive")
        if self.family == "grid" and self.grid is None:
            raise ParameterError("grid family needs grid data")
        if not self._checked and self.family != "grid" and self.amplitude != 0:
            _self_check_cached(self.family, self.c, self.p)

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.amplitude == 0:
            return np.zeros(x.shape, dtype=complex)
        ok = np.isfinite(x) & (x > 0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logx = np.log(np.where(ok, x, 1.0))
            if self.family == "power-exp":
                out = np.exp(self.c * logx - self.p * np.where(ok, x, 0.0))
            elif self.family == "gaussian":
                out = np.exp(self.c * logx - self.p * np.where(ok, x * x, 0.0))
            elif self.family == "trunc-power":
                out = np.where(x < 1.0, np.exp(self.c * logx), 0.0)
            else:
                out = self.grid(np.where(ok, x, 1.0))
        # every family decays at +inf, so non-finite arguments contribute zero
        return self.amplitude * np.where(ok, out, 0.0)

    @cached_property
    def support(self) -> "Support":
        if self.family == "trunc-power":
            return Support(self, (None, 0.0))
        if self.family == "grid":
            return Support(self, self.grid.support.hard)
        return Support(self)

    # -- Mellin data ----------------------------------------------------

    def mellin_strip(self):
        if self.family == "grid" or self.amplitude == 0:
            return (-math.inf, math.inf)
        return (-self.c, math.inf)

    def mellin(self, s):
        """Closed-form Mellin transform on the validity strip."""
        s = np.asarray(s, dtype=complex)
        if self.amplitude == 0:
            return np.zeros(s.shape, dtype=complex)[()] if s.ndim else 0.0j
        if self.family == "power-exp":
            out = np.exp(log_gamma(s + self.c) - (s + self.c) * math.log(self.p))
        elif self.family == "gaussian":
            out = 0.5 * np.exp(
                log_gamma((s + self.c) / 2.0) - (s + self.c) / 2.0 * math.log(self.p)
            )
        elif self.family == "trunc-power":
            out = 1.0 / (s + self.c)
        else:
            raise NumericalError("grid functions have no closed-form Mellin data")
        return self.amplitude * out

    def in_space(self, nu: float, r: float = 2.0) -> bool:
        if self.amplitude == 0 or self.family == "grid":
            return True
        return nu + self.c > 0

    # -- named constructors ---------------------------------------------

    @staticmethod
    def power_exp(c=0.0, p=1.0, amplitude=1.0):
        return TestFunction("power-exp", c, p, amplitude)

    @staticmethod
    def trunc_power(c=0.0, amplitude=1.0):
        return TestFunction("trunc-power", c, 1.0, amplitude)

    @staticmethod
    def gaussian(c=0.0, p=0.5, amplitude=1.0):
        return TestFunction("gaussian", c, p, amplitude)

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
            return TestFunction.trunc_power(float(name.split(":", 1)[1]))
        raise ParameterError(f"unknown built-in test function {name!r}")

    def to_json(self) -> dict:
        return {
            "family": self.family, "c": self.c, "p": self.p,
            "amplitude": [self.amplitude.real, self.amplitude.imag],
        }


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
                new.append(np.abs(np.asarray(self.f(np.exp(_LATTICE * ks)), dtype=complex))
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

def _quad_center(f, s) -> float:
    if isinstance(f, TestFunction):
        if f.family == "power-exp":
            peak = max((np.real(s) + f.c) / f.p, 1e-3)
            return math.log(peak)
        if f.family == "gaussian":
            peak = max((np.real(s) + f.c) / (2 * f.p), 1e-3)
            return 0.5 * math.log(peak)
    return 0.0


_TRAP_BLOCK = 64  # trapezoid points per block of a line rule


def _line_rule(f, nu: float, t_max: float):
    """tau nodes for int f(e^tau) e^(s tau) dtau on Re s = nu, |Im s| <= t_max,
    as (mid, off, weights): node g of block p is mid[p] + off[g] with weight
    weights[p, g], ready for panel_sums.  The range is the record's window at
    _NEGLIGIBLE, one lattice step wider on a soft side.  A range ending at a
    hard edge takes equal Gauss-Legendre panels at most a unit wide, with
    nodes for the oscillation e^(i t_max tau); any other the trapezoid grid
    of step 2 pi / (t_max + 80), in blocks of _TRAP_BLOCK points, the last
    padded with zero weights."""
    sup = support_of(f)
    hard_lo, hard_hi = sup.hard
    # with both hard edges known f vanishes outside them, seen by the lattice or not
    win = sup.window(nu, _NEGLIGIBLE, _LINE_PROBES) if None in sup.hard \
        else sup.hard + (False, False)
    if win is None:
        return np.zeros(0), np.zeros(0), np.zeros((0, 0))
    lo, hi, open_lo, open_hi = win
    at_lo = hard_lo is not None and (open_lo or hard_lo >= lo - _LATTICE)
    at_hi = hard_hi is not None and (open_hi or hard_hi <= hi + _LATTICE)
    if (open_lo and not at_lo) or (open_hi and not at_hi):
        raise DivergentIntegralError("Mellin line integrand does not decay")
    lo = hard_lo if at_lo else lo - _LATTICE
    hi = hard_hi if at_hi else hi + _LATTICE
    if at_lo or at_hi:
        mid, off, w = equal_panels(lo, hi, 1.0, 14 + int(math.ceil(0.5 * t_max)))
        return mid, off, np.broadcast_to(w, (mid.size, w.size))
    h = min(0.125, 2.0 * math.pi / (t_max + 80.0))
    n = int(math.ceil((hi + h - lo) / h))  # the points of arange(lo, hi + h, h)
    n_blocks = -(-n // _TRAP_BLOCK)
    weights = np.zeros(n_blocks * _TRAP_BLOCK)
    weights[:n] = h
    return (lo + h * _TRAP_BLOCK * np.arange(n_blocks), h * np.arange(_TRAP_BLOCK),
            weights.reshape(n_blocks, _TRAP_BLOCK))


def mellin_numeric(f, s) -> complex:
    """Mellin transform of f at a single point s: its line sample if f has a
    hard edge, else by the adaptive trapezoid rule in tau."""
    s = complex(s)
    if isinstance(f, TestFunction):
        lo, hi = f.mellin_strip()
        if not (lo < s.real < hi):
            raise DivergentIntegralError(
                f"Mellin integral diverges at Re s = {s.real:g} (strip ({lo:g}, {hi:g}))"
            )
    if support_of(f).hard != (None, None):
        return complex(mellin_line_samples(f, [s])[0])

    def g(tau):
        t = np.exp(tau)
        return np.asarray(f(t), dtype=complex) * np.exp(s * tau)

    value, _ = trapezoid_line(g, tol=1e-11, center=_quad_center(f, s))
    return value


def mellin_line_samples(fn, s_nodes):
    """Mellin transform of fn at many points on one vertical line.

    All nodes must share their real part.  One set of tau nodes from
    _line_rule serves every point, summed by panel_sums: L (P + G)
    exponentials and one L x G x P product for L points, P blocks of G tau
    nodes, and memory L x P.  So chains can push sampled functions through
    multiplier steps cheaply.  The result is shaped like s_nodes.
    """
    s_nodes = np.asarray(s_nodes, dtype=complex)
    nu = float(s_nodes.real.flat[0])
    if not np.allclose(s_nodes.real, nu, atol=1e-12):
        raise ParameterError("line sampling requires constant Re s")
    t_max = float(np.max(np.abs(s_nodes.imag))) if s_nodes.size else 0.0
    mid, off, weights = _line_rule(fn, nu, t_max)
    taus = mid[:, None] + off
    with np.errstate(over="ignore", invalid="ignore"):
        base = (np.asarray(fn(np.exp(taus.ravel())), dtype=complex).reshape(taus.shape)
                * np.exp(nu * taus) * weights)
    # a sample that overflows counts as 0, as in the record's profile
    base = np.where(np.isfinite(base), base, 0.0)
    return panel_sums(-s_nodes.imag, mid, off, base)


def _decay_truncation(F, gamma_line: float, tol: float):
    """Find T with |F| negligible beyond it on the line Re s = gamma_line."""
    scale = 0.0
    T = 5.0
    while T <= 400.0:
        sample = np.abs(np.asarray(
            F(np.array([gamma_line + 1j * T, gamma_line + 1.07j * T, gamma_line - 1j * T]))
        ))
        m = float(np.max(sample))
        scale = max(scale, m, float(np.max(np.abs(np.asarray(
            F(np.array([gamma_line + 0.3j, gamma_line + 1.9j])))))))
        if m <= tol * scale / max(T, 1.0):
            return T
        T *= 1.6
    raise DivergentIntegralError("no decay on the inversion line")


def mellin_inverse_numeric(F, gamma_line: float, x, *, tol: float = 1e-10):
    """Inverse Mellin transform along Re s = gamma_line, at positive x.

    F is a callable on complex arrays (a GammaSymbol's eval also works).
    Truncated where |F| has decayed to tol, refined to an error of tol/2.
    Returns (values, error_estimates), both shaped like x: the estimate at
    each x is its distance from the next coarser density's sum.
    """
    if isinstance(F, GammaSymbol):
        F = F.eval
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ParameterError("inverse Mellin needs positive arguments")
    T = _decay_truncation(F, gamma_line, tol)
    logx = np.log(x_arr)
    npu = max(10, int(math.ceil(1.5 * float(np.max(np.abs(logx))))))
    fine, err = refine_line(F, gamma_line, T, logx, npu, tol)
    return (fine[0], float(err[0])) if np.ndim(x) == 0 else (fine, err)


# ---------------------------------------------------------------------------
# Erdelyi-Kober fractional integrals
# ---------------------------------------------------------------------------

_EK_MAX_PANELS = 480
# a geometric tail whose measured decay per unit panel is below this cannot
# be told from a non-decaying one at double precision
_EK_MIN_RATE = 1e-6


def _ek_panel_sums(side: str, alpha, sigma: float, eta, f, tau_s: np.ndarray,
                   log_x: np.ndarray, first: int, stop: int) -> np.ndarray:
    """Unit-panel integrals of the outer tail, one row per argument.

    Column j covers the panel first+j .. first+j+1 units from tau_s, running
    away from the split point (downward for the left side, upward for the
    right), so the last column is the outermost panel.  In tau =
    log(argument) every row is a shift of one fixed Gauss-Legendre grid, so
    the evaluations form one matrix.
    """
    xg, wg = gauss_legendre(12)
    step = -1.0 if side == "left" else 1.0
    nodes = step * (np.arange(first, stop, dtype=float)[:, None] + 0.5
                    + 0.5 * xg[None, :]).ravel()
    # log u = -step sigma (tau - log x) and the density is sigma u^power.
    # tau - log x splits into a per-row offset (tau_s - log x, which is not
    # the split constant when the start was clamped to a support edge) plus
    # the node, so each exponential is an outer product of a row factor and
    # a column factor.  The offset and the node have the same sign in log u,
    # so both factors lie on the same side of 1 and the product overflows
    # or underflows only where the exact value does.
    power = eta + 1.0 if side == "left" else eta
    lu_row = -step * sigma * (tau_s - log_x)
    lu_col = -step * sigma * nodes
    # (1 - u)^(alpha - 1) rounds to 1 once |alpha - 1| u < 1e-17; u falls
    # along each row, so only the leading columns need it
    lead = int(np.count_nonzero(
        lu_col + np.max(lu_row) > math.log(1e-17 / max(abs(alpha - 1.0), 1e-280))))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        smooth = sigma * np.multiply.outer(np.exp(power * lu_row),
                                           np.exp(power * lu_col))
        u = np.minimum(np.multiply.outer(np.exp(lu_row), np.exp(lu_col[:lead])), 0.5)
        smooth[:, :lead] *= np.exp((alpha - 1.0) * np.log1p(-u))
        t = np.multiply.outer(np.exp(tau_s), np.exp(nodes))
        fv = np.asarray(f(t.ravel()), dtype=complex).reshape(t.shape)
        vals = fv * smooth
    vals = np.where(np.isfinite(vals), vals, 0.0)
    return vals.reshape(tau_s.size, stop - first, xg.size) @ wg * 0.5


def _outer_panel_alive(panels: np.ndarray) -> np.ndarray:
    """Rows whose outermost panel still carries 1e-8 of the row's largest."""
    mags = np.abs(panels)
    return mags[:, -1] > 1e-8 * mags.max(axis=1)


def _ek_outer_tail_batch(side: str, alpha, sigma: float, eta, f,
                         x_arr: np.ndarray, edges):
    """The u in (0, 1/2] part of the power-substituted integral for a batch.

    The tail runs in tau = log(argument) from the split point u = 1/2 toward
    t -> 0 (left side) or t -> inf (right side), in unit panels.  Where
    f ~ t^c the integrand decays like exp(-rate |tau|), with rate
    sigma (Re eta + 1) + c on the left and sigma Re eta - c on the right.
    c is not known, so the first window is 100 / rate' panels long (at
    most _EK_MAX_PANELS), rate' being the kernel's part alone, and it stops
    1.5 units past the edge on that side of edges = Support.edges() (None
    for the zero function).  A row whose outermost panel still holds 1e-8
    of its largest panel is completed:

    - if an edge lies ahead of the window, the window is carried to 1.5
      units past it;
    - a row still alive after that, or with no edge ahead, sees f behave as
      a power, so its panels continue as a geometric series whose ratio is
      measured on its last two panels, and the series' remainder is added.

    DivergentIntegralError is raised when a measured ratio shows no decay
    (a rate below _EK_MIN_RATE per panel) and when reaching the edge would
    take more than _EK_MAX_PANELS panels.
    """
    if edges is None:
        return np.zeros(x_arr.size, dtype=complex)
    sup_lo, sup_hi = edges
    log_x = np.log(x_arr)
    split = math.log(0.5) / sigma
    if side == "left":
        rate = max(sigma * (complex(eta).real + 1.0), 0.05)
        tau_s = log_x + split
        if sup_hi is not None:
            tau_s = np.minimum(tau_s, sup_hi)
        to_edge = None if sup_lo is None else tau_s - (sup_lo - 1.5)
    else:
        rate = max(sigma * complex(eta).real, 0.05)
        tau_s = log_x - split
        if sup_lo is not None:
            tau_s = np.maximum(tau_s, sup_lo)
        to_edge = None if sup_hi is None else sup_hi + 1.5 - tau_s
    reach = np.full(x_arr.size, 100.0 / rate)
    if to_edge is not None:
        reach = np.minimum(reach, to_edge)
    n_panels = int(min(_EK_MAX_PANELS, max(8, math.ceil(float(np.max(reach))))))
    panels = _ek_panel_sums(side, alpha, sigma, eta, f, tau_s, log_x, 0, n_panels)
    total = panels.sum(axis=1)
    alive = _outer_panel_alive(panels)
    last2 = panels[:, -2:].copy()
    if to_edge is not None:
        # a live row whose window already passed the edge shows f alive
        # beyond it; such rows take the geometric rule below
        ext = np.nonzero(alive & (to_edge > n_panels))[0]
        if ext.size:
            n_edge = math.ceil(float(np.max(to_edge[ext])))
            if n_edge > _EK_MAX_PANELS:
                raise DivergentIntegralError(
                    "fractional integral tail needs more than "
                    f"{_EK_MAX_PANELS} panels to reach the support edge")
            more = _ek_panel_sums(side, alpha, sigma, eta, f, tau_s[ext],
                                  log_x[ext], n_panels, n_edge)
            total[ext] += more.sum(axis=1)
            full = np.concatenate([panels[ext], more], axis=1)
            last2[ext] = full[:, -2:]
            alive[ext] = _outer_panel_alive(full)
    rows = np.nonzero(alive)[0]
    if rows.size:
        prev, last = last2[rows, 0], last2[rows, 1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = last / prev
        if not np.all(np.abs(ratio) < math.exp(-_EK_MIN_RATE)):
            raise DivergentIntegralError(
                "endpoint divergence in fractional integral")
        total[rows] += last * ratio / (1.0 - ratio)
    return total


def ek_fractional(side: str, alpha, sigma: float, eta, f, x):
    """Erdelyi-Kober fractional integrals of order alpha (Re alpha > 0).

    side='left' integrates over (0, x); side='right' over (x, inf).  After
    the power substitution both become weighted averages over (0, 1) with a
    (1-u)^(alpha-1) endpoint handled by Gauss-Jacobi nodes on [1/2, 1].

    The outer part u in (0, 1/2] reaches t -> 0 (left) or t -> inf (right)
    and is summed in unit panels of log t by _ek_outer_tail_batch, up to
    the edges of f's Support record or on as a geometric series; it raises
    DivergentIntegralError where the integral diverges (e.g. f = t^c with
    c >= sigma Re eta on the right).

    Accuracy: the outer window ends where a panel falls below 1e-8 of the
    row's largest, so values carry about 1e-8 relative error at worst
    (near a strip edge, where the tail decays slowly); fast-decaying tails
    come out far better.
    """
    alpha = complex(alpha)
    eta = complex(eta)
    if alpha.real <= 0:
        raise HypothesisError("Re(alpha) > 0", f"got {alpha}")
    if sigma <= 0:
        raise HypothesisError("sigma > 0", f"got {sigma}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ParameterError("argument must be positive")

    if side == "left":
        power = 1.0 / sigma
        u_pow = eta
    elif side == "right":
        power = -1.0 / sigma
        u_pow = eta - 1.0
    else:
        raise ParameterError("side must be 'left' or 'right'")

    norm = np.exp(-log_gamma(alpha))

    # upper part [1/2, 1]: Gauss-Jacobi absorbs (1-u)^(Re alpha - 1)
    uj, wj = jacobi_unit_interval(80, alpha.real - 1.0, 0.0)
    u_up = 0.5 + 0.5 * uj
    w_up = wj * 0.5 ** alpha.real  # from (1-u) = (1-v)/2 and du = dv/2
    smooth_up = (
        np.exp(u_pow * np.log(u_up))
        * np.exp(1j * alpha.imag * np.log1p(-u_up))
    )
    t_up = u_up ** power
    fu = np.asarray(f(np.multiply.outer(t_up, x_arr).ravel()), dtype=complex)
    fu = fu.reshape(t_up.size, x_arr.size)
    upper = (w_up * smooth_up) @ fu

    # lower part (0, 1/2]: unit panels in log argument track the decay of f
    edges = support_of(f).edges()
    lower = np.empty(x_arr.size, dtype=complex)
    chunk = 512
    for k0 in range(0, x_arr.size, chunk):
        sl = slice(k0, min(k0 + chunk, x_arr.size))
        lower[sl] = _ek_outer_tail_batch(side, alpha, sigma, eta, f,
                                         x_arr[sl], edges)

    out = norm * (upper + lower)
    return complex(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Modified Hankel and Laplace transforms
# ---------------------------------------------------------------------------

# arches, arches per block, geometric head panels, Gauss-Legendre nodes each
_N_ARCH, _ARCH_BLOCK, _HEAD_LEVELS, _HANKEL_NODES = 2048, 128, 70, 12
# an arch term this small against its running sum settles the sum
_HANKEL_SETTLE = 1e-3 * 1e-10


@lru_cache(maxsize=32)
def _hankel_grid(eta_key):
    """Fixed integration structure in y = xi * v: head panels plus arches.

    Returns (y_head, jw_head, y_arch, jw_arch) where jw premultiplies the
    Bessel factor and quadrature weight; the arch axis is jw_arch's first.
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
    return y_head, jw_head, y_arch, jw_arch


def _hankel_column(partials_col, terms_col):
    """Value of one unsettled oscillatory sum from its partials and terms."""
    tcol = np.abs(terms_col)
    n = tcol.size
    if n < 8:
        return partials_col[-1]
    if tcol[-1] <= tcol[min(12, n // 2)]:
        # decaying tail: accelerate the last stretch, limit kept in bracket
        est, _ = wynn_epsilon(list(partials_col[-44:]))
        spread = float(np.max(np.abs(partials_col[-8:] - partials_col[-1])))
        if not np.isfinite(est) or abs(est - partials_col[-1]) > 3.0 * spread + 1e-280:
            est = 0.5 * (partials_col[-1] + partials_col[-2])
        return est
    # growing-term (high-frequency) regime: accelerate an early window,
    # where the alternating series is still smallest
    hi = min(52, n)
    est, _ = wynn_epsilon(list(partials_col[4:hi]))
    if not np.isfinite(est):
        est = 0.5 * (partials_col[-1] + partials_col[-2])
    return est


def hankel_mod(kappa: float, eta, f, x):
    """Modified Hankel transform with index kappa != 0 and order Re(eta) > -1.

    After substitution the oscillation lives on a fixed grid in y = xi * v,
    so batches share the Bessel samples.  Arch sums advance block by block
    per argument until the integrand's decay settles them; unsettled tails
    are accelerated as alternating series.
    """
    eta = complex(eta)
    if kappa == 0:
        raise HypothesisError("kappa != 0")
    if eta.real <= -1.0:
        raise HypothesisError("Re(eta) > -1", f"got {eta}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ParameterError("argument must be positive")
    y_head, jw_head, y_arch, jw_arch = _hankel_grid((eta.real, eta.imag))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        xi_full = np.abs(kappa) * x_arr ** (1.0 / kappa)

    def g_matrix(y_flat, xi):
        v = np.divide.outer(y_flat, xi)  # (n_y, n_x)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = v ** float(kappa)
            vals = np.asarray(f(t.ravel()), dtype=complex).reshape(v.shape)
            vals = vals * v ** (kappa / 2.0)
        return np.where(np.isfinite(vals), vals, 0.0)

    out = np.empty(x_arr.size, dtype=complex)
    for start in range(0, x_arr.size, 192):
        sl = slice(start, min(start + 192, x_arr.size))
        xi = xi_full[sl]
        nx = xi.size
        head = (g_matrix(y_head, xi) * jw_head[:, None]).sum(axis=0) / xi
        partials = [np.empty((0, nx), dtype=complex)]
        terms_all = [np.empty((0, nx), dtype=complex)]
        acc = head.copy()
        active = np.ones(nx, dtype=bool)
        settle = np.full(nx, -1, dtype=int)
        done = 0
        while done < _N_ARCH and active.any():
            blk = slice(done, min(done + _ARCH_BLOCK, _N_ARCH))
            ya = y_arch[blk]
            jwa = jw_arch[blk]
            gm = g_matrix(ya.ravel(), xi[active]).reshape(
                ya.shape[0], ya.shape[1], -1)
            tb = np.einsum("kjx,kj->kx", gm, jwa) / xi[active][None, :]
            full_tb = np.zeros((ya.shape[0], nx), dtype=complex)
            full_tb[:, active] = tb
            terms_all.append(full_tb)
            # a settled column's partials past its settle index are never read
            block_partials = acc[None, :] + np.cumsum(full_tb, axis=0)
            partials.append(block_partials)
            acc = block_partials[-1].copy()
            scale = np.maximum(np.abs(acc), 1e-280)
            tiny = np.abs(full_tb) <= _HANKEL_SETTLE * scale[None, :]
            hit = active & tiny.any(axis=0)
            settle[hit] = done + np.argmax(tiny[:, hit], axis=0)
            active &= ~hit
            done += ya.shape[0]
        partials = np.concatenate(partials, axis=0)
        terms = np.concatenate(terms_all, axis=0)
        settled = np.nonzero(settle >= 0)[0]
        out[start + settled] = partials[settle[settled], settled]
        for i in np.nonzero(settle < 0)[0]:
            out[start + i] = _hankel_column(partials[:, i], terms[:, i])
    out = out * np.abs(kappa) * x_arr ** (1.0 / kappa - 0.5)
    return complex(out[0]) if np.ndim(x) == 0 else out


# arguments that share one column-wise trapezoid sweep in laplace_mod
_LAPLACE_BLOCK = 32


def laplace_mod(kappa: float, alpha, f, x):
    """Modified Laplace transform with index kappa != 0.

    In tau = log u the integrand u^{-alpha} e^{-|k| u^{1/k}} f(u/x) / x has
    one weight for every x, so each block of _LAPLACE_BLOCK arguments is one
    vector-valued trapezoid_line call with a column per argument; every
    column keeps the stopping rules, and so the value, of its own scalar call.
    """
    alpha = complex(alpha)
    if kappa == 0:
        raise HypothesisError("kappa != 0")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ParameterError("argument must be positive")
    out = np.empty(x_arr.size, dtype=complex)
    ak = abs(kappa)
    for start in range(0, x_arr.size, _LAPLACE_BLOCK):
        xb = x_arr[start:start + _LAPLACE_BLOCK]

        def g(tau, xb=xb):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                inner = np.exp(tau / kappa)
                expo = (1.0 - alpha) * tau - ak * inner
                t = np.divide.outer(np.exp(tau), xb)
                fv = np.asarray(f(t.ravel()), dtype=complex).reshape(t.shape)
                vals = np.exp(expo)[:, None] * fv
            return np.where(np.isfinite(vals), vals, 0.0) / xb

        out[start:start + xb.size], _ = trapezoid_line(g, tol=1e-10)
    return complex(out[0]) if np.ndim(x) == 0 else out


# ---------------------------------------------------------------------------
# Weighted-space norms
# ---------------------------------------------------------------------------

def lnur_norm(f, nu: float, r: float) -> float:
    """Norm in the weighted space: (integral of |t^nu f|^r dt/t)^(1/r).

    r = inf gives the essential-sup norm (probed on a dense log grid).
    A divergent integral returns +inf rather than raising.
    """
    if math.isinf(r):
        taus = np.linspace(-60.0, 60.0, 24001)
        t = np.exp(taus)
        vals = np.abs(np.asarray(f(t), dtype=complex)) * np.exp(nu * taus)
        return float(np.max(vals))
    if r < 1.0:
        raise ParameterError("exponent r must be >= 1")

    def g(tau):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t = np.exp(tau)
            mags = np.abs(np.asarray(f(t), dtype=complex))
            out = np.exp(r * (np.log(np.where(mags > 0, mags, 1.0)) + nu * tau))
        return np.where(mags > 0, out, 0.0)

    try:
        value, _ = trapezoid_line(g, tol=1e-12)
    except (DivergentIntegralError, NumericalError):
        return math.inf
    return float(abs(value)) ** (1.0 / r)
