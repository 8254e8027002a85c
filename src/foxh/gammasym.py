"""Mellin symbols built from gamma factors, their asymptotics and zeros.

A symbol is a finite product of gamma factors Gamma(c + w s) upstairs and
downstairs (w signed, so reflected factors Gamma(c - |w| s) need no special
casing) times power prefactors base^(u + v s) with positive real base.
This algebra is closed under multiplication and under affine substitution
s -> a + b s (reflection s -> 1-s and scaling s -> k s are special cases),
which is what the per-case auxiliary multiplier symbols and the composed
actions of factorization chains require; both are formed in engine.py,
the auxiliary symbols in ``plan_factorization`` beside the chain each one
sits in.

Evaluation goes through summed log-gammas, so magnitudes far beyond float
range are usable in log form, and the imaginary part varies continuously
along vertical contours (each factor's argument moves monotonically).  All
of a symbol's gamma factors go through one log_gamma (or digamma) batch per
evaluation.

Neither Gamma nor base^z vanishes, so the zeros of a symbol are exactly the
poles of its denominator factors that numerator poles do not cancel, with
multiplicity, and its poles are the numerator poles that denominator poles
do not cancel.  Both sets are listed in closed form (``structural_zeros``,
``uncancelled_poles``); the exceptional-set probe ``find_zeros_on_line``
reads its zeros from that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, PoleOnLineError
from .gammafn import digamma, log_gamma
from .params import HParams, Invariants

_ON_LINE_TOL = 1e-9
_MATCH_TOL = 1e-9
_MAX_POLE_INDEX = 10000


@dataclass(frozen=True)
class GammaSymbol:
    """Product of gamma factors and power prefactors, as a Mellin symbol.

    num and den hold pairs (c, w) for Gamma(c + w s); powers holds triples
    (base, u, v) for base^(u + v s).  Symbols multiply with ``*``, and
    ``substitute(a, b)`` gives the symbol at a + b s, so every operator with
    a Mellin action is one symbol plus one affine argument map: the
    factorization-chain primitives in engine.py report theirs through
    ``mellin_action()`` and a whole chain composes into one such pair.
    """

    num: tuple[tuple[complex, float], ...] = ()
    den: tuple[tuple[complex, float], ...] = ()
    powers: tuple[tuple[float, complex, complex], ...] = ()

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other: "GammaSymbol") -> "GammaSymbol":
        return GammaSymbol(
            self.num + other.num, self.den + other.den, self.powers + other.powers
        )

    def substitute(self, a: complex, b: float) -> "GammaSymbol":
        """The symbol evaluated at a + b s, as a new symbol (b real)."""
        return GammaSymbol(
            tuple((c + w * a, w * b) for (c, w) in self.num),
            tuple((c + w * a, w * b) for (c, w) in self.den),
            tuple((base, u + v * a, v * b) for (base, u, v) in self.powers),
        )

    @staticmethod
    def power(base: float, u: complex, v: complex) -> "GammaSymbol":
        if not (base > 0.0):
            raise ParameterError("power prefactor base must be positive")
        return GammaSymbol(powers=((float(base), complex(u), complex(v)),))

    @staticmethod
    def one() -> "GammaSymbol":
        return GammaSymbol()

    # -- evaluation -------------------------------------------------------

    def _gamma_rows(self, kernel, s):
        """kernel at the arguments c + w s of every num then den factor, in
        one batch of shape (len(num) + len(den), *s.shape)."""
        cw = np.array(self.num + self.den, dtype=complex).reshape(-1, 2, *(1,) * s.ndim)
        return kernel(cw[:, 0] + cw[:, 1] * s)

    def eval_log(self, s):
        """log of the symbol; imaginary part continuous along vertical lines.

        All gamma factors go through one log_gamma batch; the rows are then
        added numerators first, denominators next, powers last, each in its
        listed order (log_gamma gives a batch the bits of its elements, so
        the sum is that of one call per factor).
        """
        s = np.asarray(s, dtype=complex)
        total = np.zeros_like(s)
        n = len(self.num)
        if self.num or self.den:
            rows = self._gamma_rows(log_gamma, s)
            for row in rows[:n]:
                total = total + row
            for row in rows[n:]:
                total = total - row
        for b, u, v in self.powers:
            total = total + (u + v * s) * math.log(b)
        return total[()] if total.ndim == 0 else total

    def eval(self, s):
        """Direct value; overflow surfaces as inf (use eval_log instead)."""
        with np.errstate(over="ignore"):
            return np.exp(self.eval_log(s))

    def log_derivative(self, s):
        """d/ds log(symbol): every gamma factor in one digamma batch, summed
        in eval_log's order."""
        s = np.asarray(s, dtype=complex)
        total = np.zeros_like(s)
        n = len(self.num)
        if self.num or self.den:
            rows = self._gamma_rows(digamma, s)
            for (_, w), row in zip(self.num, rows[:n]):
                total = total + w * row
            for (_, w), row in zip(self.den, rows[n:]):
                total = total - w * row
        const = sum((complex(v) * math.log(b) for (b, _, v) in self.powers), 0.0j)
        total = total + const
        return total[()] if total.ndim == 0 else total

    # -- structure --------------------------------------------------------

    def pole_candidates(self, which: str, im_max: float, re_window):
        """Exact pole locations of the chosen factor group inside a window.

        Gamma(c + w s) has its poles s_k = (-k - c) / w, k = 0, ..., 10000,
        on one horizontal line.  A factor whose line lies beyond im_max + 1
        in |Im| gives none; otherwise only the k whose real part can fall
        within one of re_window are formed.
        """
        factors = self.num if which == "num" else self.den
        re_lo, re_hi = re_window[0] - 1.0, re_window[1] + 1.0
        pts = []
        for c, w in factors:
            if w == 0 or abs((-c / w).imag) > im_max + 1.0:
                continue
            # Re s_k = (-k - Re c) / w lies in [re_lo, re_hi] for k between
            # these two ends; one extra k each way absorbs rounding
            k_ends = (-c.real - re_lo * w, -c.real - re_hi * w)
            k_lo = max(0, math.floor(min(k_ends)) - 1)
            k_hi = min(_MAX_POLE_INDEX, math.ceil(max(k_ends)) + 1)
            for k in range(k_lo, k_hi + 1):
                sk = (-k - c) / w
                if re_lo <= sk.real <= re_hi:
                    pts.append(sk)
        return pts

    def structural_zeros(self, im_max: float, re_window):
        """Zeros with multiplicity: denominator poles not cancelled upstairs."""
        out = []
        for z in _cancel(self.pole_candidates("den", im_max, re_window),
                         self.pole_candidates("num", im_max, re_window)):
            for idx, (z0, m0) in enumerate(out):
                if abs(z0 - z) < _MATCH_TOL:
                    out[idx] = (z0, m0 + 1)
                    break
            else:
                out.append((z, 1))
        return out

    def uncancelled_poles(self, im_max: float, re_window):
        """True poles of the symbol (numerator poles not cancelled below)."""
        return _cancel(self.pole_candidates("num", im_max, re_window),
                       self.pole_candidates("den", im_max, re_window))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "num": [[c.real, c.imag, w] for (c, w) in self.num],
            "den": [[c.real, c.imag, w] for (c, w) in self.den],
            "powers": [
                [b, u.real, u.imag, v.real, v.imag] for (b, u, v) in self.powers
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "GammaSymbol":
        num = tuple((complex(r, i), w) for r, i, w in data.get("num", []))
        den = tuple((complex(r, i), w) for r, i, w in data.get("den", []))
        powers = tuple(
            (b, complex(ur, ui), complex(vr, vi))
            for b, ur, ui, vr, vi in data.get("powers", [])
        )
        return GammaSymbol(num, den, powers)


def _cancel(pts, against):
    """pts as a multiset, less one match (within _MATCH_TOL) per entry of
    against; order kept."""
    used = [False] * len(against)
    out = []
    for z in pts:
        for i, pz in enumerate(against):
            if not used[i] and abs(pz - z) < _MATCH_TOL:
                used[i] = True
                break
        else:
            out.append(z)
    return out


def symbol_from_params(params: HParams) -> GammaSymbol:
    """The kernel's Mellin symbol: m + n factors upstairs, the rest downstairs."""
    num = [(c, w) for (c, w) in params.lower[: params.m]]
    num += [(1.0 - c, -w) for (c, w) in params.upper[: params.n]]
    den = [(c, w) for (c, w) in params.upper[params.n:]]
    den += [(1.0 - c, -w) for (c, w) in params.lower[params.m:]]
    return GammaSymbol(tuple(num), tuple(den))


# ---------------------------------------------------------------------------
# Magnitude envelope and log-derivative expansion along vertical lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticEstimate:
    """Coefficients of the large-|t| magnitude envelope of the symbol."""

    front: float          # (2 pi)^{c*} * prod alpha^{1/2-Re a} * prod beta^{Re b-1/2}
    delta: float          # delta^sigma factor base
    algebraic_slope: float   # Delta, in |t|^{Delta sigma + Re mu}
    algebraic_const: float   # Re mu
    exp_rate: float          # -pi a*/2 multiplies |t|
    sign_coeff: float        # -pi Im(xi)/2 multiplies sign(t)

    def log_value(self, sigma: float, t):
        """log of the envelope; safe where the envelope itself underflows."""
        t = np.asarray(t, dtype=float)
        out = (
            math.log(self.front)
            + sigma * math.log(self.delta)
            + (self.algebraic_slope * sigma + self.algebraic_const) * np.log(np.abs(t))
            + self.exp_rate * np.abs(t)
            + self.sign_coeff * np.sign(t)
        )
        return out[()] if out.ndim == 0 else out

    def value(self, sigma: float, t):
        with np.errstate(over="ignore", under="ignore"):
            mag = np.exp(self.log_value(sigma, t))
        return mag

    @staticmethod
    def from_invariants(inv: Invariants) -> "AsymptoticEstimate":
        return AsymptoticEstimate(
            front=inv.stirling_front,
            delta=inv.delta,
            algebraic_slope=inv.delta_cap,
            algebraic_const=inv.mu.real,
            exp_rate=-math.pi * inv.a_star / 2.0,
            sign_coeff=-math.pi * inv.xi.imag / 2.0,
        )


def asymptotic_magnitude(inv: Invariants, sigma: float, t) -> float:
    """Right side of the magnitude envelope at s = sigma + i t (t != 0)."""
    return AsymptoticEstimate.from_invariants(inv).value(sigma, t)


def asymptotic_log_derivative(inv: Invariants, sigma: float, t):
    """Leading terms of (log symbol)' along the vertical line, principal logs."""
    t = np.asarray(t, dtype=float)
    it = 1j * t
    out = (
        math.log(inv.delta)
        + inv.a1_star * np.log(it)
        - inv.a2_star * np.log(-it)
        + (inv.mu + inv.delta_cap * sigma) / it
    )
    return out[()] if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Zero probing on a vertical line (exceptional-set membership)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroReport:
    """Zeros of a symbol near the line Re s = 1 - nu within |Im s| <= T."""

    line: float
    window: float
    zeros: tuple[tuple[complex, int], ...]
    in_exceptional_set: bool

    def to_json(self) -> dict:
        return {
            "line": self.line,
            "window": self.window,
            "zeros": [
                {"re": z.real, "im": z.imag, "mult": m} for (z, m) in self.zeros
            ],
            "in_exceptional_set": self.in_exceptional_set,
        }


def find_zeros_on_line(sym: GammaSymbol, nu: float, window: float,
                       strip: Optional[tuple] = None) -> ZeroReport:
    """Zeros of the symbol with |Im s| <= window near the line Re s = 1 - nu.

    The zeros are the uncancelled denominator poles (``structural_zeros``),
    so none is searched for: a zero is reported, with its multiplicity and
    in (Im, Re) order, when it lies less than ``half`` from the line.
    ``half`` is 1/4, at most half the distance to a finite strip edge or to
    an uncancelled pole, and shrunk when a zero sits within 1e-6 of it.
    The line is in the exceptional set when a zero lies on it (to 1e-9).
    A pole of the symbol on the line raises PoleOnLineError.
    """
    line = 1.0 - nu
    if strip is not None:
        lo, hi = strip
        if not (lo < line < hi):
            raise ParameterError("probe line must lie strictly inside the strip")

    re_window = (line - 1.0, line + 1.0)
    half = 0.25
    if strip is not None:
        lo, hi = strip
        if math.isfinite(lo):
            half = min(half, (line - lo) / 2.0)
        if math.isfinite(hi):
            half = min(half, (hi - line) / 2.0)
    for pz in sym.uncancelled_poles(window, re_window):
        d = abs(pz.real - line)
        if d <= _ON_LINE_TOL:
            raise PoleOnLineError(
                f"symbol pole at {pz:.12g} lies on the probe line Re s = {line:.12g}"
            )
        half = min(half, d / 2.0)
    zeros = sym.structural_zeros(window, re_window)
    # a zero within 1e-6 of the box edge moves the edge, so that rounding
    # in the line or the strip cannot decide whether it is reported
    for z, _ in zeros:
        d = abs(z.real - line)
        if abs(d - half) < 1e-6:
            half = max(half * 0.7, d / 2.0 if d > 2e-6 else half * 0.7)

    found = sorted(
        ((z, m) for (z, m) in zeros
         if abs(z.real - line) < half and abs(z.imag) <= window),
        key=lambda zm: (zm[0].imag, zm[0].real),
    )
    return ZeroReport(
        line=line,
        window=window,
        zeros=tuple(found),
        in_exceptional_set=any(abs(z.real - line) <= _ON_LINE_TOL for z, _ in found),
    )
