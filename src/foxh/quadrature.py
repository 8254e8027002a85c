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

Sums over a vertical line, sum_j c_j e^(-i l t_j) at L real arguments l, are
evaluated in panels (panel_sums).  The nodes come as t = mid_p + off_g: P
panels of equal width, each carrying the same G offsets (Gauss-Legendre
nodes, or a block of trapezoid points).  The sum then factors exactly into
e^(-i l mid_p) times an (L x G)(G x P) matrix product, so it costs L (P + G)
complex exponentials and one product, and its memory is L x P, against
L P G exponentials and an L x N matrix (N = P G) for the dense form.  The
splitting is the one behind fast sums at non-equispaced nodes (Dutt &
Rokhlin, SIAM J. Sci. Comput. 14 (1993)); here it needs no approximation.
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


def equal_panels(t_lo: float, t_hi: float, panel_width: float, nodes_per_panel: int):
    """The fewest equal Gauss-Legendre panels at most panel_width wide on
    [t_lo, t_hi], as (mid, off, w): node g of panel p is mid[p] + off[g],
    with weight w[g]."""
    n_panels = max(1, int(math.ceil((t_hi - t_lo) / panel_width)))
    width = (t_hi - t_lo) / n_panels
    x, w = gauss_legendre(nodes_per_panel)
    mid = t_lo + (np.arange(n_panels) + 0.5) * width
    return mid, 0.5 * width * x, 0.5 * width * w


def panel_sums(l, mid, off, coeff):
    """sum over p, g of coeff[p, g] e^(-i l (mid[p] + off[g])) for each entry
    of the real array l, shaped like l.

    coeff has shape (mid.size, off.size).  One exponential per (l, panel)
    and per (l, offset), and one matrix product (see the module docstring).
    """
    inner = np.exp(-1j * np.multiply.outer(l, off)) @ coeff.T
    return np.sum(np.exp(-1j * np.multiply.outer(l, mid)) * inner, axis=-1)


def panel_rule(t_lo: float, t_hi: float, panel_width: float, nodes_per_panel: int):
    """Composite Gauss-Legendre nodes/weights on [t_lo, t_hi]: equal_panels,
    flattened."""
    if t_hi <= t_lo:
        raise ValueError("empty panel range")
    mid, off, w = equal_panels(t_lo, t_hi, panel_width, nodes_per_panel)
    return (mid[:, None] + off).ravel(), np.tile(w, mid.size)


class LineRule:
    """(1/2 pi i) int F(s) x^(-s) ds on Re s = gamma, |Im s| <= T.

    ceil(2T) equal Gauss-Legendre panels of nodes_per_unit nodes, at most a
    unit wide; F (vectorized) is sampled once into coeff[p, g] =
    F(gamma + i (mid[p] + off[g])) w[g] / (2 pi).  rule(logx) gives the sums,
    shaped like logx, through panel_sums: L (P + G) exponentials and one
    L x G x P product for L arguments, P panels and G nodes per panel, and
    memory L x P.
    """

    def __init__(self, F, gamma: float, T: float, nodes_per_unit: int):
        self.gamma = gamma
        self.mid, self.off, w = equal_panels(-T, T, 1.0, nodes_per_unit)
        s = gamma + 1j * (self.mid[:, None] + self.off)
        self.coeff = (np.asarray(F(s.ravel()), dtype=complex).reshape(s.shape)
                      * w / (2.0 * math.pi))

    def __call__(self, logx):
        logx = np.asarray(logx, dtype=float)
        return np.exp(-self.gamma * logx) * panel_sums(logx, self.mid, self.off, self.coeff)


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
