"""Shared quadrature machinery.

Everything on the positive half line is integrated after the substitution
t = exp(tau), which turns both endpoint behaviours of the weighted-space
integrands into exponential decay in tau.  The resulting line integrals are
handled by the trapezoidal rule with automatic range expansion and nested
step halving (spectrally accurate for integrands analytic in a strip around
the real tau axis).  An integrand may be vector-valued, one column per
output (say one per argument x of a transform): all columns share the tau
lattice and each column stops sweeping outward and stops halving on its own
tests, so one sweep serves a block of outputs with the values that separate
scalar calls would give.

Finite panels use composite Gauss-Legendre, among them the vertical line of
every inverse Mellin transform (LineRule, refined by refine_line);
endpoint-singular weights use Gauss-Jacobi nodes computed by Golub-Welsch.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DivergentIntegralError, NumericalError

# trapezoid_line: initial step, sweep block, largest |tau - center|, halvings
_STEP, _BLOCK, _MAX_SPAN, _MAX_HALVINGS = 0.5, 64, 900.0, 4
# most Gauss-Legendre nodes one vertical line may carry
NODE_BUDGET = 2_000_000


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=256)
def gauss_jacobi(n: int, a: float, b: float):
    """Golub-Welsch nodes/weights for weight (1-x)^a (1+x)^b on [-1, 1]."""
    if a <= -1.0 or b <= -1.0:
        raise ValueError("Jacobi exponents must exceed -1")
    k = np.arange(n, dtype=float)
    apb = a + b
    diag = np.empty(n)
    if n > 0:
        diag[0] = (b - a) / (apb + 2.0)
    if n > 1:
        kk = k[1:]
        diag[1:] = (b * b - a * a) / ((2 * kk + apb) * (2 * kk + apb + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        off[0] = math.sqrt(4.0 * (1 + a) * (1 + b) / ((apb + 2) ** 2 * (apb + 3)))
    if n > 2:
        kk = k[2:]
        num = 4.0 * kk * (kk + a) * (kk + b) * (kk + apb)
        den = (2 * kk + apb) ** 2 * (2 * kk + apb + 1.0) * (2 * kk + apb - 1.0)
        off[1:] = np.sqrt(num / den)
    jm = np.diag(diag)
    if n > 1:
        jm += np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jm)
    mu0 = math.exp(
        (apb + 1) * math.log(2.0)
        + math.lgamma(a + 1.0)
        + math.lgamma(b + 1.0)
        - math.lgamma(apb + 2.0)
    )
    weights = mu0 * vecs[0, :] ** 2
    return vals, weights


def jacobi_unit_interval(n: int, exp_at_one: float, exp_at_zero: float):
    """Nodes/weights for u^exp_at_zero (1-u)^exp_at_one * smooth(u) on (0, 1).

    Returns (u, w) so that the integral equals sum(w * smooth(u)); the
    singular endpoint powers are absorbed into the weights.
    """
    x, w = gauss_jacobi(n, exp_at_one, exp_at_zero)
    u = 0.5 * (x + 1.0)
    scale = 0.5 ** (exp_at_one + exp_at_zero + 1.0)
    return u, w * scale


def panel_rule(t_lo: float, t_hi: float, panel_width: float, nodes_per_panel: int):
    """Composite Gauss-Legendre nodes/weights on [t_lo, t_hi]."""
    if t_hi <= t_lo:
        raise ValueError("empty panel range")
    n_panels = max(1, int(math.ceil((t_hi - t_lo) / panel_width)))
    edges = np.linspace(t_lo, t_hi, n_panels + 1)
    x, w = gauss_legendre(nodes_per_panel)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


class LineRule:
    """(1/2 pi i) int F(s) x^(-s) ds on Re s = gamma, |Im s| <= T.

    Unit Gauss-Legendre panels of nodes_per_unit nodes; F (vectorized) is
    sampled once into coeff = F(s) w / (2 pi).  rule(logx) gives the sums.
    """

    def __init__(self, F, gamma: float, T: float, nodes_per_unit: int):
        nodes, weights = panel_rule(-T, T, 1.0, nodes_per_unit)
        self.s = gamma + 1j * nodes
        self.coeff = np.asarray(F(self.s), dtype=complex) * weights / (2.0 * math.pi)

    def __call__(self, logx):
        return np.exp(-np.outer(logx, self.s)) @ self.coeff


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


def _sweep(g, spacing: float, offset: float, center: float, tol: float, live=None):
    """Column sums of g over {center +- (offset + spacing*k), k >= 0}, times spacing.

    g(taus) has shape (n,) or (n, ncols); a 1-D result is one column.  The
    result has one entry per column.  Only the columns flagged in live (all
    when None) are summed, and each stops on its own decay test; the others
    stay 0.  Returns (sums, one_d), one_d telling whether g is 1-D.  For
    offset == 0 the k=0 lattice point appears in both directions and is
    counted once; for offset > 0 the two directions interleave without
    overlap (together they tile the shifted lattice center +
    offset + k*spacing).
    """
    total = scale = amax = going = None
    k0 = 0
    while spacing * k0 < _MAX_SPAN:
        idx = np.arange(k0, k0 + _BLOCK)
        taus = np.concatenate(
            [center + offset + spacing * idx, center - offset - spacing * idx]
        )
        vals = np.asarray(g(taus), dtype=complex)
        one_d = vals.ndim == 1
        vals = vals.reshape(taus.size, -1).T
        if going is None:
            total = np.zeros(vals.shape[0], dtype=complex)
            scale = np.zeros(vals.shape[0])
            amax = np.zeros(vals.shape[0])
            going = np.ones(vals.shape[0], dtype=bool) if live is None else live.copy()
        # one contiguous row per summed column, so each row sums exactly
        # as a 1-D integrand would
        vals = vals[going]
        if k0 == 0 and offset == 0.0:
            vals[:, _BLOCK] = 0.0
        if not np.all(np.isfinite(vals)):
            raise DivergentIntegralError("integrand overflow on the line")
        total[going] += vals.sum(axis=1) * spacing
        amax[going] = np.max(np.abs(vals), axis=1)
        scale[going] = np.maximum(scale[going], amax[going])
        # never conclude before any mass has been seen: the support may sit
        # far from the expansion center
        if k0 > 0:
            going &= ~((scale > 0.0) & (amax * spacing <= tol * scale * spacing * 1e-2))
            if not going.any():
                return total, one_d
        k0 += _BLOCK
    # columns identically zero on the whole span are done; for the others,
    # running out of range means divergence or budget exhaustion
    going &= scale > 0.0
    if np.any(amax[going] > 1e-8 * scale[going]):
        raise DivergentIntegralError("integrand does not decay on the line")
    if going.any():
        raise NumericalError("line quadrature range budget exhausted")
    return total, one_d


def trapezoid_line(g, *, tol: float = 1e-12, center: float = 0.0):
    """Integrate vectorized g over the whole real line by trapezoid sums.

    g must decay at least exponentially in both directions.  Step halving
    reuses previous lattice points.  g(taus) may return shape (n,) or
    (n, ncols); each column is integrated on its own, with the stopping
    rules of a 1-D integrand: it stops sweeping outward at its own decay,
    stops halving once its own estimate meets tol * max(1, |value|), and
    raises the same errors.  A finished column is frozen, so its value
    equals that of a 1-D call on that column alone.  Returns
    (value, error_estimate): a complex and a float for a 1-D g, arrays of
    shape (ncols,) otherwise.
    """
    h = _STEP
    value, one_d = _sweep(g, h, 0.0, center, tol)
    err = np.full(value.shape, math.inf)
    live = np.ones(value.shape, dtype=bool)
    for _ in range(_MAX_HALVINGS):
        fill, _ = _sweep(g, h, 0.5 * h, center, tol, live)
        refined = 0.5 * value + 0.5 * fill
        err[live] = np.abs(refined - value)[live]
        value[live] = refined[live]
        h *= 0.5
        live &= ~(err <= tol * np.maximum(1.0, np.abs(value)))
        if not live.any():
            break
    if one_d:
        return complex(value[0]), float(err[0])
    return value, err


def wynn_epsilon(partial_sums):
    """Accelerate partial sums with Wynn's epsilon algorithm.

    Returns (best_estimate, stability_gap): the top even-column entry and
    the spread of the last few even columns, usable as an error proxy.
    """
    s = [complex(v) for v in partial_sums]
    n = len(s)
    if n == 0:
        raise ValueError("no partial sums")
    if n < 3:
        return s[-1], (abs(s[-1] - s[0]) if n > 1 else math.inf)
    scale = max(abs(v) for v in s)
    if scale == 0.0:
        return 0.0 + 0.0j, 0.0
    if max(abs(b - a) for a, b in zip(s[:-1], s[1:])) <= 1e-15 * scale:
        return s[-1], 0.0
    col_prev = [0.0 + 0.0j] * (n + 1)
    col_curr = list(s)
    even_tops = [col_curr[-1]]
    k = 0
    exhausted = False
    while len(col_curr) >= 2 and not exhausted:
        col_next = []
        for j in range(len(col_curr) - 1):
            d = col_curr[j + 1] - col_curr[j]
            # dividing differences at rounding level only makes noise
            if abs(d) <= 5e-16 * (abs(col_curr[j]) + abs(col_curr[j + 1])) + 1e-280:
                exhausted = True
                break
            col_next.append(col_prev[j + 1] + 1.0 / d)
        if exhausted:
            break
        col_prev, col_curr = col_curr, col_next
        k += 1
        if k % 2 == 0 and col_curr:
            even_tops.append(col_curr[-1])
    # keep the entry where consecutive even columns agree best (the plateau)
    best_val, best_gap = even_tops[-1], math.inf
    for a, b in zip(even_tops[:-1], even_tops[1:]):
        gap = abs(b - a)
        if gap <= best_gap:
            best_gap, best_val = gap, b
    return best_val, best_gap
