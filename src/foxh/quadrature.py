"""Shared quadrature machinery.

Everything on the positive half line is integrated after the substitution
t = exp(tau), which turns both endpoint behaviours of the weighted-space
integrands into exponential decay in tau.  The resulting line integrals are
handled by the trapezoidal rule with automatic range expansion and nested
step halving (spectrally accurate for integrands analytic in a strip around
the real tau axis).

Finite panels use composite Gauss-Legendre, among them the vertical line of
every inverse Mellin transform (LineRule, refined by refine_line);
an endpoint power w^(alpha-1), alpha complex, is carried by the weights of
a double-exponential rule (endpoint_power_rule).

Sums over a vertical line, sum_j c_j e^(-i l t_j) at L real arguments l, are
evaluated in panels (panel_sums).  The nodes come as t = mid_p + off_g: P
panels of equal width, each carrying the same G offsets (Gauss-Legendre
nodes, or a block of trapezoid points).  The sum then factors exactly into
e^(-i l mid_p) times an (L x G)(G x P) matrix product, so it costs L (P + G)
complex exponentials and one product, and its memory is L x P, against
L P G exponentials and an L x N matrix (N = P G) for the dense form.  The
splitting is the one behind fast sums at non-equispaced nodes (Dutt &
Rokhlin, SIAM J. Sci. Comput. 14 (1993)); here it needs no approximation.

Arguments in arithmetic progression, l_j = l0 + j delta, split once more:
e^(-i l_j t) = e^(-i l0 t) e^(-i j delta t).  The second factor, at t =
off_g and t = mid_p, is a table that depends only on |delta| and the
nodes, so a LineRule keeps it (LineRule.progression).  A run of n <= _BLOCK
arguments then costs G + P exponentials, n G products to scale the
offsets' table, one (n x G)(G x P) product, an n x P multiply and one
(n x P)(P) product that weights the panels by e^(-i l0 mid_p): no
exponential per argument, against n (G + P) for panel_sums.  Two callers
meet such runs.  The direct route: trapezoid_line hands its integrand the
points of each sweep block as two Runs.  A chain's multiplier step: tabulate,
the Support profile and the EK tail read its output on a Lattice, x =
e^(t0 + j h), which it sums in runs of _BLOCK points.

Nodes in arithmetic progression, t = lo + h (G p + g), split the transposed
sum the same way (lattice_sums): e^(-i l t) = e^(-i l lo) e^(-i l G h p)
e^(-i l h g), whose last two factors depend only on the arguments l and h.
Kept as tables per (l, h), they leave L exponentials per sum, against
L (P + G) for panel_sums.  The caller, mellin_line_samples, sums at every
multiplier's contour nodes, so all multipliers share one set of tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivergentIntegralError, NumericalError

# trapezoid_line: initial step, sweep block, largest |tau|, halvings
_STEP, _BLOCK, _MAX_SPAN, _MAX_HALVINGS = 0.5, 64, 900.0, 4
# most Gauss-Legendre nodes one vertical line may carry
NODE_BUDGET = 2_000_000


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


# endpoint_power_rule: first t (w = 1/2 to 1e-22), log of the floor past
# which w^(Re alpha) is dropped, step in t for a real order, most nodes
_DE_T0, _DE_FLOOR, _DE_STEP, _DE_MAX_NODES = -3.5, 39.2, 0.1, 4096


@lru_cache(maxsize=64)
def endpoint_power_rule(alpha: complex):
    """Nodes w and weights c with int_0^(1/2) w^(alpha-1) g(w) dw = sum c g(w)
    for g smooth on [0, 1/2] and any complex alpha, Re alpha > 0.

    Double-exponential rule (Takahasi & Mori, Publ. RIMS 9 (1974)):
    w = 1 / (2 (1 + e^s)), s = pi sinh t, trapezoid in t, so each weight
    carries the whole power w^alpha.  t runs from _DE_T0 to where
    w^(Re alpha) < e^-_DE_FLOOR (1e-17), in steps of _DE_STEP, shortened by
    Re alpha / |Im alpha| where the phase of w^(i Im alpha) turns faster
    than the modulus falls.  Weights are formed from log w: w underflows for
    Re alpha < 0.06.  Past _DE_MAX_NODES nodes (Re alpha near 0) it raises
    NumericalError.
    """
    a = alpha.real
    h = _DE_STEP * a / max(a, abs(alpha.imag))
    n = math.ceil((math.asinh(_DE_FLOOR / (math.pi * a)) - _DE_T0) / h) + 1
    if n > _DE_MAX_NODES:
        raise NumericalError(f"endpoint rule for w^(alpha-1), alpha={alpha}, needs {n} nodes")
    t = _DE_T0 + h * np.arange(n)
    s = math.pi * np.sinh(t)
    log_w = -math.log(2.0) - np.logaddexp(0.0, s)
    # dw = -w e^s / (1 + e^s) pi cosh t dt
    log_c = np.log(h * math.pi * np.cosh(t)) - np.logaddexp(0.0, -s)
    return np.exp(log_w), np.exp(log_c + alpha * log_w)


def equal_panels(t_lo: float, t_hi: float, panel_width: float, nodes_per_panel: int):
    """The fewest equal Gauss-Legendre panels at most panel_width wide on
    [t_lo, t_hi], as (mid, off, w): node g of panel p is mid[p] + off[g],
    with weight w[g]."""
    n_panels = max(1, int(math.ceil((t_hi - t_lo) / panel_width)))
    width = (t_hi - t_lo) / n_panels
    x, w = gauss_legendre(nodes_per_panel)
    mid = t_lo + (np.arange(n_panels) + 0.5) * width
    return mid, 0.5 * width * x, 0.5 * width * w


def _panel_terms(phase, mid, off, coeff):
    """phase(mid)[..., p] times the sum over g of coeff[p, g] phase(off)[..., g],
    one term per panel p: a (... x G)(G x P) product and a multiply.

    phase(t) gives the factors e^(-i l t) of every argument l at the nodes
    t; the offsets' factors are freed before the panels' are made.
    """
    inner = phase(off) @ coeff.T
    return phase(mid) * inner


def panel_sums(l, mid, off, coeff):
    """sum over p, g of coeff[p, g] e^(-i l (mid[p] + off[g])) for each entry
    of the real array l, shaped like l.

    coeff has shape (mid.size, off.size).  One exponential per (l, panel)
    and per (l, offset), and one matrix product (see the module docstring).
    """
    return np.sum(_panel_terms(lambda t: np.exp(-1j * np.multiply.outer(l, t)),
                               mid, off, coeff), axis=-1)


def lattice_sums(l, lo: float, h: float, coeff):
    """panel_sums for the 1-D array l on the lattice t = lo + h (G p + g):
    P = coeff.shape[0] blocks of G = coeff.shape[1] points.  From the tables
    of (l, h, G) (_lattice_tables), grown to P blocks, a call takes L
    exponentials, one (P x G)(G x L) product and a P x L multiply and sum.
    """
    n_blocks, width = coeff.shape
    tables = _lattice_tables(l.tobytes(), h, width)
    offsets, panels = tables
    if panels.shape[0] < n_blocks:
        # a longer input than any before: its blocks' factors join the table
        lg = np.multiply.outer(width * h * np.arange(panels.shape[0], n_blocks), l)
        tables[1] = panels = np.concatenate([panels, np.exp(-1j * lg)])
    terms = coeff @ offsets
    terms *= panels[:n_blocks]
    return np.exp(-1j * lo * l) * terms.sum(axis=0)


@lru_cache(maxsize=4)
def _lattice_tables(l_key: bytes, h: float, width: int):
    """[e^(-i l h g) as a (width x L) array, e^(-i l width h p) as a
    (P x L) array for the P blocks seen so far], l = frombuffer(l_key);
    lattice_sums grows the second."""
    l = np.frombuffer(l_key)
    return [np.exp(-1j * np.multiply.outer(h * np.arange(width), l)),
            np.zeros((0, l.size), dtype=complex)]


class LineRule:
    """(1/2 pi i) int F(s) x^(-s) ds on Re s = gamma, |Im s| <= T.

    ceil(2T) equal Gauss-Legendre panels of nodes_per_unit nodes, at most a
    unit wide; F (vectorized) is sampled once into coeff[p, g] =
    F(gamma + i (mid[p] + off[g])) w[g] / (2 pi).  rule(logx) gives the sums,
    shaped like logx, through panel_sums: L (P + G) exponentials and one
    L x G x P product for L arguments, P panels and G nodes per panel, and
    memory L x P.  rule.progression(l0, step, n) gives them at l0 + j step,
    n <= _BLOCK, from phase tables kept per |step| (see the module
    docstring; the direct route's kernel sums and the multiplier step's
    lattice reads call it): G + P exponentials per call, and memory
    _BLOCK x (P + G) per step, for at most _MAX_HALVINGS + 1 steps, plus
    P x G for conj(coeff) once a step is negative.  The tables depend only
    on the nodes, which T and nodes_per_unit fix: rules given the same
    tables dict share them.
    """

    def __init__(self, F, gamma: float, T: float, nodes_per_unit: int, tables=None):
        self.gamma = gamma
        self.mid, self.off, w = equal_panels(-T, T, 1.0, nodes_per_unit)
        s = gamma + 1j * (self.mid[:, None] + self.off)
        self.coeff = (np.asarray(F(s.ravel()), dtype=complex).reshape(s.shape)
                      * w / (2.0 * math.pi))
        self._tables = {} if tables is None else tables
        self._conj_coeff = None

    def __call__(self, logx):
        logx = np.asarray(logx, dtype=float)
        return np.exp(-self.gamma * logx) * panel_sums(logx, self.mid, self.off, self.coeff)

    def progression(self, l0: float, step: float, n: int):
        """The sums at the n <= _BLOCK arguments l0 + j step, j < n.

        e^(-i j |step| t) comes from the tables of |step| (_phase_tables),
        e^(-i l0 t) from G + P exponentials: those at the offsets scale the
        offsets' table before the product, and those at the panels, common
        to every argument, weight the sum over the panels.  A negative step
        reads the conjugate tables: its sums are the conjugates of the sums
        over conj(coeff) at -l0 + j |step|.
        """
        coeff, base = self.coeff, l0
        if step < 0:
            if self._conj_coeff is None:
                self._conj_coeff = np.conj(self.coeff)
            coeff, base = self._conj_coeff, -l0
        off_table, mid_table = self._phase_tables(abs(step))

        def phase(t):
            if t is self.mid:
                return mid_table[:n]
            return off_table[:n] * np.exp(-1j * base * t)

        sums = _panel_terms(phase, self.mid, self.off, coeff) @ np.exp(-1j * base * self.mid)
        if step < 0:
            np.conjugate(sums, out=sums)
        return np.exp(-self.gamma * (l0 + step * np.arange(n))) * sums

    def _phase_tables(self, step: float):
        """e^(-i j step off[g]) and e^(-i j step mid[p]) for j < _BLOCK,
        built once per step >= 0.  The cache holds at most _MAX_HALVINGS + 1
        steps, as many as one trapezoid_line call takes."""
        tables = self._tables.get(step)
        if tables is None:
            if len(self._tables) > _MAX_HALVINGS:
                self._tables.clear()
            jstep = step * np.arange(_BLOCK)
            tables = self._tables[step] = (np.exp(-1j * np.multiply.outer(jstep, self.off)),
                                           np.exp(-1j * np.multiply.outer(jstep, self.mid)))
        return tables


def refine_line(F, gamma: float, T: float, logx, nodes_per_unit: int, tol: float):
    """LineRule sums at logx, density raised (x1.6 + 2, at most 4 times).

    Stops when successive densities agree to tol/2, when their gap stops
    halving, or at NODE_BUDGET.  Returns the densest sums and, per argument,
    their distance from the previous density's.
    """
    coarse = LineRule(F, gamma, T, nodes_per_unit)(logx)
    best_err = math.inf
    for _ in range(4):
        denser = int(nodes_per_unit * 1.6) + 2
        fine = LineRule(F, gamma, T, denser)(logx)
        err = float(np.max(np.abs(fine - coarse)))
        if err <= tol / 2.0 or denser * 2 * T > NODE_BUDGET or err > 0.5 * best_err:
            break
        best_err = err
        coarse, nodes_per_unit = fine, denser
    return fine, np.abs(fine - coarse)


class _Tagged(np.ndarray):
    """A float array that carries how its points were made.  Ufuncs on it,
    in place too, give plain arrays."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(x):
            return np.asarray(x) if isinstance(x, _Tagged) else x

        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        return getattr(ufunc, method)(*map(plain, inputs), **kwargs)


class Run(_Tagged):
    """The points origin + step * k for the integers k of idx, in arithmetic
    progression: a float array that also carries its first point start and
    its step, so that an integrand may evaluate on the progression as a
    whole."""

    def __new__(cls, origin: float, step: float, idx):
        run = (origin + step * idx).view(cls)
        run.start, run.step = float(run[0]), step
        return run


class Lattice(_Tagged):
    """The points x = np.exp(taus) of a lattice taus[j] = t0 + j h in
    tau = log x, h of either sign: a float array that also carries t0 =
    taus[0] and h, so that a function that knows its values there in closed
    form may answer the whole lattice at once (engine.LiveFunction).  The
    points are bitwise those of np.exp(taus).  An array derived from a
    lattice (a slice, a copy) and an empty lattice carry t0 = None: they are
    plain points."""

    t0 = h = None

    def __new__(cls, taus, h: float):
        x = np.exp(taus).view(cls)
        if x.ndim == 1 and x.size:
            x.t0, x.h = float(taus[0]), float(h)
        return x

    def reversed(self) -> "Lattice":
        """The same points in reverse order, as the lattice of step -h."""
        out = np.asarray(self)[::-1].view(Lattice)
        out.t0, out.h = self.t0 + (self.size - 1) * self.h, -self.h
        return out


def _sweep(g, spacing: float, offset: float, tol: float):
    """Sum of g over {+-(offset + spacing*k), k >= 0}, times spacing.

    Sweeps outward in blocks until the block maximum is negligible against
    the largest sample seen.  Each block is two Runs of _BLOCK points,
    offset + spacing*k and its mirror -offset - spacing*k, and g takes one
    run per call.  For offset == 0 the k=0 lattice point appears in both
    directions and is counted once; for offset > 0 the two directions
    interleave without overlap (together they tile the shifted lattice
    offset + k*spacing).
    """
    total, scale, amax = 0j, 0.0, 0.0
    k0 = 0
    while spacing * k0 < _MAX_SPAN:
        idx = np.arange(k0, k0 + _BLOCK)
        vals = np.concatenate([np.asarray(g(Run(offset, spacing, idx)), dtype=complex),
                               np.asarray(g(Run(-offset, -spacing, idx)), dtype=complex)])
        if k0 == 0 and offset == 0.0:
            vals[_BLOCK] = 0.0
        if not np.all(np.isfinite(vals)):
            raise DivergentIntegralError("integrand overflow on the line")
        total += vals.sum() * spacing
        amax = np.max(np.abs(vals))
        scale = max(scale, amax)
        # never conclude before any mass has been seen: the support may sit
        # far from tau = 0
        if k0 > 0 and scale > 0.0 and amax * spacing <= tol * scale * spacing * 1e-2:
            return total
        k0 += _BLOCK
    # an integrand identically zero on the whole span is done; otherwise
    # running out of range means divergence or budget exhaustion
    if scale == 0.0:
        return total
    if amax > 1e-8 * scale:
        raise DivergentIntegralError("integrand does not decay on the line")
    raise NumericalError("line quadrature range budget exhausted")


def trapezoid_line(g, *, tol: float = 1e-12):
    """Integrate vectorized g over the whole real line by trapezoid sums.

    g must decay at least exponentially in both directions.  It is called
    on one Run at a time (_sweep): _BLOCK points in arithmetic progression,
    which it may treat as a plain array.  Step halving reuses previous
    lattice points and stops once two estimates agree to
    tol * max(1, |value|).  Returns (value, error_estimate) as a complex and
    a float.
    """
    h = _STEP
    value = _sweep(g, h, 0.0, tol)
    err = math.inf
    for _ in range(_MAX_HALVINGS):
        fill = _sweep(g, h, 0.5 * h, tol)
        refined = 0.5 * value + 0.5 * fill
        err = np.abs(refined - value)
        value = refined
        h *= 0.5
        if err <= tol * np.maximum(1.0, np.abs(value)):
            break
    return complex(value), float(err)


def wynn_epsilon(partial_sums):
    """Accelerate partial sums with Wynn's epsilon algorithm.

    partial_sums has shape (n,) or (n, m): one sequence, or m sequences in
    columns, each accelerated on its own rules.  Returns
    (best_estimate, stability_gap) per sequence: the top entry of the even
    column where consecutive even columns agree best, and that gap, usable
    as an error proxy.  A 1-D input gives a complex and a float, an (n, m)
    input two arrays of shape (m,).
    """
    s = np.asarray(partial_sums, dtype=complex)
    one_d = s.ndim == 1
    s = s.reshape(s.shape[0], -1)
    n, m = s.shape
    if n == 0:
        raise ValueError("no partial sums")
    # exhausted columns stay in the arrays, where inf - inf may occur
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if n < 3:
            best_val = s[-1].copy()
            best_gap = np.abs(s[-1] - s[0]) if n > 1 else np.full(m, math.inf)
        else:
            best_val, best_gap = _wynn_columns(s)
    if one_d:
        return complex(best_val[0]), float(best_gap[0])
    return best_val, best_gap


def _wynn_columns(s):
    """wynn_epsilon on the columns of s, which has at least 3 rows."""
    n, m = s.shape
    # flat columns, all-zero ones among them, keep their last entry
    flat = np.max(np.abs(np.diff(s, axis=0)), axis=0) <= 1e-15 * np.max(np.abs(s), axis=0)
    # a column's table grows while no difference in it is at rounding level
    live = ~flat
    col_prev = np.zeros((n + 1, m), dtype=complex)
    col_curr = s
    even_tops = [s[-1]]
    n_tops = np.ones(m, dtype=int)
    k = 0
    while col_curr.shape[0] >= 2 and live.any():
        a = np.abs(col_curr)
        d = col_curr[1:] - col_curr[:-1]
        # dividing differences at rounding level only makes noise
        live &= ~np.any(np.abs(d) <= 5e-16 * (a[:-1] + a[1:]) + 1e-280, axis=0)
        col_prev, col_curr = col_curr, col_prev[1:col_curr.shape[0]] + 1.0 / d
        k += 1
        if k % 2 == 0:
            even_tops.append(col_curr[-1])
            n_tops += live
    # keep the entry where consecutive even columns agree best (the plateau);
    # a column's first n_tops even tops were formed before it was exhausted
    best_val = np.array(even_tops)[n_tops - 1, np.arange(m)]
    best_gap = np.full(m, math.inf)
    for i in range(1, len(even_tops)):
        gap = np.abs(even_tops[i] - even_tops[i - 1])
        take = (i < n_tops) & (gap <= best_gap)
        best_gap[take] = gap[take]
        best_val[take] = even_tops[i][take]
    best_val[flat], best_gap[flat] = s[-1, flat], 0.0
    return best_val, best_gap
