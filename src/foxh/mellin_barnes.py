"""Pointwise kernel evaluation by vertical-line contour quadrature.

The kernel at argument x is the inverse Mellin transform of its symbol
along a vertical line inside the strip of analyticity.  The line is chosen
automatically: midpoint of a bounded strip, unit offset from a single
finite edge, or shifted toward the decaying side when only algebraic decay
is available.  Truncation is controlled by the magnitude envelope of the
symbol (a true bound once the asymptotic regime is reached), quadrature by
the LineRule of quadrature.py (refine_line for an explicit contour).

An automatic contour is sized to the arguments it serves: its height keeps
the tail small against x^(-gamma) for |ln x| up to a log span, and its node
density follows both the oscillation exp(-i t ln x) over that span and the
distance from the line to the nearer strip edge, where the symbol's poles
limit Gauss-Legendre convergence.  A batch of arguments takes the span of
its own largest |ln x|; the direct route, whose integrand reads the kernel
at arguments not known in advance, takes the full span _LOG_SPAN.

Only vertical contours are supported.  Kernels whose symbol does not decay
on any admissible vertical line (the balanced cases, and oscillatory ones
without enough algebraic decay) are refused; the transform engine reaches
those kernels through factorization chains instead of pointwise values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    HypothesisError,
    NoAdmissibleContourError,
    NumericalError,
    ParameterError,
)
from .gammasym import AsymptoticEstimate, symbol_from_params
from .params import HParams, Invariants, derive_invariants
from .quadrature import NODE_BUDGET, LineRule, refine_line

_T_CAP = 2.0e4
_LOG_SPAN = 45.0


@dataclass(frozen=True)
class ContourSpec:
    """Vertical line Re s = re_line truncated at |Im s| <= half_height."""

    re_line: float
    half_height: float
    nodes_per_unit: int = 8

    def __post_init__(self):
        if self.half_height <= 0:
            raise ParameterError("half_height must be positive")
        if self.nodes_per_unit < 4:
            raise ParameterError("nodes_per_unit must be at least 4")


@dataclass(frozen=True)
class EvalResult:
    value: complex
    truncation_bound: float
    quadrature_error_estimate: float
    contour_used: ContourSpec


def _tail_bound(inv: Invariants, gamma: float, T: float) -> float:
    """Upper bound on the neglected |Im s| > T part of the contour integral.

    Uses the magnitude envelope K |t|^rho exp(-c |t|) of AsymptoticEstimate,
    its sign term bounded on both sides: for c > 0 the bound
    t^rho <= T^rho e^{rho (t-T)/T} (rho >= 0) or T^rho (rho < 0) gives a
    closed form; for c = 0 the algebraic tail integrates exactly.
    """
    env = AsymptoticEstimate.from_invariants(inv)
    K = env.front * env.delta ** gamma * math.exp(abs(env.sign_coeff))
    rho = env.algebraic_slope * gamma + env.algebraic_const
    c = -env.exp_rate
    if c > 0:
        if rho >= 0:
            denom = c - rho / T
            if denom <= 0:
                return math.inf
            return 2.0 * K * T ** rho * math.exp(-c * T) / denom
        return 2.0 * K * T ** rho * math.exp(-c * T) / c
    if rho < -1.0:
        return 2.0 * K * T ** (rho + 1.0) / (-1.0 - rho)
    return math.inf


def choose_contour(inv: Invariants, x: float, target_abs_err: float = 1e-10) -> ContourSpec:
    """Pick an admissible vertical contour with tail bound <= target/2."""
    if x <= 0:
        raise ParameterError("kernel argument must be positive")
    alpha, beta = inv.alpha_low, inv.beta_high
    if not (alpha < beta):
        raise NoAdmissibleContourError("empty analyticity strip")
    if inv.a_star > 0:
        if math.isfinite(alpha) and math.isfinite(beta):
            gamma = 0.5 * (alpha + beta)
        elif math.isfinite(alpha):
            gamma = alpha + 1.0
        elif math.isfinite(beta):
            gamma = beta - 1.0
        else:
            gamma = 0.0
    elif inv.a_star < 0:
        raise NoAdmissibleContourError("a* < 0: symbol grows on every vertical line")
    else:
        if inv.delta_cap == 0:
            raise NoAdmissibleContourError(
                "no admissible contour: balanced symbol has no decay on vertical lines"
            )
        # need Delta*gamma + Re mu well below -1, inside the strip
        margin = 0.05 * (beta - alpha) if math.isfinite(alpha) and math.isfinite(beta) else 0.25
        if inv.delta_cap > 0:
            edge = alpha + margin if math.isfinite(alpha) else -_T_CAP
            gamma = min(edge, (-4.0 - inv.mu.real) / inv.delta_cap)
            gamma = max(gamma, alpha + 1e-3) if math.isfinite(alpha) else gamma
        else:
            edge = beta - margin if math.isfinite(beta) else _T_CAP
            gamma = max(edge, (-4.0 - inv.mu.real) / inv.delta_cap)
            gamma = min(gamma, beta - 1e-3) if math.isfinite(beta) else gamma
        if not (alpha < gamma < beta) or inv.delta_cap * gamma + inv.mu.real >= -1.0:
            raise NoAdmissibleContourError(
                "no admissible contour: algebraic-decay condition cannot be met in the strip"
            )
    # grow T geometrically until the envelope tail is small enough; the
    # envelope is asymptotic, so start beyond the first few oscillations
    target = max(target_abs_err, 1e-14) / 2.0
    scale = x ** (-gamma)
    T = 4.0
    while T <= _T_CAP:
        if _tail_bound(inv, gamma, T) * scale <= target:
            return ContourSpec(gamma, T)
        T *= 1.3
    raise NumericalError("truncation horizon exceeds the quadrature budget")


def _nodes_per_unit(inv: Invariants, gamma: float, base: int, log_span: float) -> int:
    """Node density of a contour at Re s = gamma serving |ln x| <= log_span.

    The oscillation exp(-i t ln x) takes 1.8 nodes per unit of |ln x|.  A
    strip edge at distance d from the line holds a pole, so n nodes on a
    unit Gauss-Legendre panel converge like rho(d)^(-2n), rho(d) = 2d +
    sqrt(4d^2 + 1) being the pole's Bernstein ellipse (Trefethen, SIAM Rev.
    50, 2008).  n is raised until rho(d)^-n reaches 1e-14, a square's margin
    on that rate, but never past the density of the full span.
    """
    full = int(math.ceil(1.8 * _LOG_SPAN)) + 4
    d = min(gamma - inv.alpha_low, inv.beta_high - gamma)
    floor = 0
    if math.isfinite(d):
        rho = 2.0 * d + math.sqrt(4.0 * d * d + 1.0)
        floor = min(int(math.ceil(math.log(1e14) / math.log(rho))), full)
    return max(base, int(math.ceil(1.8 * log_span)) + 4, floor)


class KernelEvaluator:
    """Reusable contour data for one kernel: symbol values computed once.

    Covers arguments with |ln x| up to log_span (at most _LOG_SPAN); the
    truncation height is sized so the envelope tail stays below the target
    even against the worst x^(-gamma) amplification in that range, and the
    node density by _nodes_per_unit.  The LineRule fine gives the kernel
    values; a coarser one, built on eval's first call (the direct route
    reads only fine), estimates their error.
    """

    def __init__(self, params: HParams, target_abs_err: float, log_span: float):
        self.params = params
        self.inv = derive_invariants(params)
        self.target = target_abs_err
        base = choose_contour(self.inv, 1.0, target_abs_err)
        gamma = base.re_line
        T = base.half_height
        worst_scale = math.exp(abs(gamma) * log_span)
        while T <= _T_CAP and _tail_bound(self.inv, gamma, T) * worst_scale > target_abs_err / 2.0:
            T *= 1.15
        npu = _nodes_per_unit(self.inv, gamma, base.nodes_per_unit, log_span)
        if 2 * T * npu > NODE_BUDGET:
            raise NumericalError("truncation horizon exceeds the quadrature budget")
        self.contour = ContourSpec(gamma, T, npu)
        self._sym = symbol_from_params(params)
        self.fine = LineRule(self._sym.eval, gamma, T, npu)

    @cached_property
    def _coarse(self) -> LineRule:
        c = self.contour
        return LineRule(self._sym.eval, c.re_line, c.half_height,
                        max(4, int(c.nodes_per_unit / 1.6)))

    def eval(self, x_arr: np.ndarray):
        logx = np.log(x_arr)
        gamma = self.contour.re_line
        fine = self.fine(logx)
        qerr = np.abs(fine - self._coarse(logx))
        tail = _tail_bound(self.inv, gamma, self.contour.half_height)
        tails = tail * np.exp(-gamma * logx)
        return fine, qerr, tails


_EVALUATOR_CACHE: dict = {}


def kernel_evaluator(params: HParams, target_abs_err: float,
                     log_span: float = _LOG_SPAN) -> KernelEvaluator:
    key = (params, round(math.log10(target_abs_err), 3), log_span)
    ev = _EVALUATOR_CACHE.get(key)
    if ev is None:
        ev = KernelEvaluator(params, target_abs_err, log_span)
        if len(_EVALUATOR_CACHE) > 64:
            _EVALUATOR_CACHE.clear()
        _EVALUATOR_CACHE[key] = ev
    return ev


def eval_hfunction_batch(params: HParams, xs, contour=None,
                         target_abs_err: float = 1e-10):
    """Kernel values at many positive arguments, sharing one contour.

    With contour=None the contour is chosen automatically and sized to the
    batch: it covers the log span ceil(max |ln x|), between 1 and _LOG_SPAN,
    so the values depend only on the kernel, the tolerance and the batch
    (symbol data is cached per kernel and span, so repeated batches are
    cheap).  Returns a list of EvalResult in order; each carries the
    contour used.
    """
    xs = list(xs)
    if len(xs) == 0:
        return []
    x_arr = np.asarray([float(v) for v in xs], dtype=float)
    if np.any(x_arr <= 0) or not np.all(np.isfinite(x_arr)):
        raise ParameterError("x must be positive")
    if contour is None:
        span = min(_LOG_SPAN, max(1.0, float(math.ceil(np.max(np.abs(np.log(x_arr)))))))
        ev = kernel_evaluator(params, min(target_abs_err, 1e-10), span)
        vals, qerr, tails = ev.eval(x_arr)
        contour = ev.contour
    else:
        inv = derive_invariants(params)
        if not (inv.alpha_low < contour.re_line < inv.beta_high):
            raise HypothesisError(
                "contour inside strip",
                f"Re s = {contour.re_line:g} outside ({inv.alpha_low:g}, {inv.beta_high:g})",
            )
        gamma, T = contour.re_line, contour.half_height
        logx = np.log(x_arr)
        # oscillation exp(-i t ln x) needs density scaled to |ln x|
        npu = max(contour.nodes_per_unit, int(math.ceil(1.8 * float(np.max(np.abs(logx))))) + 4)
        if 2 * T * npu > NODE_BUDGET:
            raise NumericalError("truncation horizon exceeds the quadrature budget")
        vals, qerr = refine_line(symbol_from_params(params).eval, gamma, T, logx, npu,
                                 target_abs_err)
        tails = _tail_bound(inv, gamma, T) * np.exp(-gamma * logx)
    return [
        EvalResult(value=v, truncation_bound=tb, quadrature_error_estimate=qe,
                   contour_used=contour)
        for v, tb, qe in zip(np.asarray(vals, dtype=complex).tolist(),
                             tails.tolist(), qerr.tolist())
    ]


def eval_hfunction(params: HParams, x: float, contour=None,
                   target_abs_err: float = 1e-10) -> EvalResult:
    """Kernel value at a single positive argument."""
    return eval_hfunction_batch(params, [x], contour, target_abs_err)[0]
