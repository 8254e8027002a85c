"""Mellin symbols built from gamma factors, their asymptotics and zeros.

A symbol is a finite product of gamma factors Gamma(c + w s) upstairs and
downstairs (w signed, so reflected factors Gamma(c - |w| s) need no special
casing) times power prefactors base^(u + v s) with positive real base.
This algebra is closed under multiplication and under affine substitution
s -> a + b s (reflection s -> 1-s and scaling s -> k s are special cases),
which is what the per-case auxiliary multiplier symbols and the composed
actions of factorization chains require.

Evaluation goes through summed log-gammas, so magnitudes far beyond float
range are usable in log form, and the imaginary part varies continuously
along vertical contours (each factor's argument moves monotonically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NumericalError,
    OutOfTheoryError,
    ParameterError,
    PoleError,
    PoleOnLineError,
)
from .gammafn import digamma, log_gamma
from .params import HParams, Invariants, transpose_params
from .quadrature import panel_rule

_ON_LINE_TOL = 1e-9
_DEFLATION_TOL = 1e-10


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

    def eval_log(self, s):
        """log of the symbol; imaginary part continuous along vertical lines."""
        s = np.asarray(s, dtype=complex)
        total = np.zeros_like(s)
        for c, w in self.num:
            total = total + log_gamma(c + w * s)
        for c, w in self.den:
            total = total - log_gamma(c + w * s)
        for b, u, v in self.powers:
            total = total + (u + v * s) * math.log(b)
        return total[()] if total.ndim == 0 else total

    def eval(self, s):
        """Direct value; overflow surfaces as inf (use eval_log instead)."""
        with np.errstate(over="ignore"):
            return np.exp(self.eval_log(s))

    def log_derivative(self, s):
        """d/ds log(symbol), via digamma."""
        s = np.asarray(s, dtype=complex)
        total = np.zeros_like(s)
        for c, w in self.num:
            total = total + w * digamma(c + w * s)
        for c, w in self.den:
            total = total - w * digamma(c + w * s)
        const = sum((complex(v) * math.log(b) for (b, _, v) in self.powers), 0.0j)
        total = total + const
        return total[()] if total.ndim == 0 else total

    # -- structure --------------------------------------------------------

    def pole_candidates(self, which: str, im_max: float, re_window=None):
        """Exact pole locations of the chosen factor group inside a window."""
        factors = self.num if which == "num" else self.den
        pts = []
        for c, w in factors:
            if w == 0:
                continue
            # c + w s = -k  =>  s = (-k - c) / w
            k = 0
            while True:
                sk = (-k - c) / w
                if abs(sk.imag) > im_max + 1.0:
                    break
                if re_window is None or (re_window[0] - 1.0 <= sk.real <= re_window[1] + 1.0):
                    pts.append(sk)
                k += 1
                if k > 10000:
                    break
        return pts

    def structural_zeros(self, im_max: float, re_window=None):
        """Zeros with multiplicity: denominator poles not cancelled upstairs."""
        den_pts = self.pole_candidates("den", im_max, re_window)
        num_pts = self.pole_candidates("num", im_max, re_window)
        out = []
        used = [False] * len(num_pts)
        for z in den_pts:
            mult = 1
            for i, pz in enumerate(num_pts):
                if not used[i] and abs(pz - z) < 1e-9:
                    used[i] = True
                    mult -= 1
                    break
            if mult > 0:
                merged = False
                for idx, (z0, m0) in enumerate(out):
                    if abs(z0 - z) < 1e-9:
                        out[idx] = (z0, m0 + 1)
                        merged = True
                        break
                if not merged:
                    out.append((z, 1))
        return out

    def uncancelled_poles(self, im_max: float, re_window=None):
        """True poles of the symbol (numerator poles not cancelled below)."""
        den_pts = self.pole_candidates("den", im_max, re_window)
        num_pts = self.pole_candidates("num", im_max, re_window)
        out = []
        used = [False] * len(den_pts)
        for z in num_pts:
            keep = True
            for i, pz in enumerate(den_pts):
                if not used[i] and abs(pz - z) < 1e-9:
                    used[i] = True
                    keep = False
                    break
            if keep:
                out.append(z)
        return out

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


def symbol_from_params(params: HParams) -> GammaSymbol:
    """The kernel's Mellin symbol: m + n factors upstairs, the rest downstairs."""
    num = [(c, w) for (c, w) in params.lower[: params.m]]
    num += [(1.0 - c, -w) for (c, w) in params.upper[: params.n]]
    den = [(c, w) for (c, w) in params.upper[params.n:]]
    den += [(1.0 - c, -w) for (c, w) in params.lower[params.m:]]
    return GammaSymbol(tuple(num), tuple(den))


# ---------------------------------------------------------------------------
# Auxiliary multiplier symbols for the per-case factorizations
# ---------------------------------------------------------------------------

def build_aux_symbol(params: HParams, inv: Invariants, case: int,
                     chain_params: Optional[dict] = None) -> GammaSymbol:
    """The gamma-quotient/prefactor multiplier symbol for the given case.

    chain_params supplies the free constants of the host factorization
    (k for case 2; omega/branch for cases 5-7; eta, zeta, omega for 8-9).
    Mirrored cases (4, 7, 9) return the partner symbol built on the
    reciprocal kernel's parameters.
    """
    cp = dict(chain_params or {})
    sym = symbol_from_params(params)
    alpha = inv.alpha_low
    beta = inv.beta_high
    a1, a2, a_star = inv.a1_star, inv.a2_star, inv.a_star
    mu = inv.mu
    delta_scale = GammaSymbol.power(inv.delta, 0.0, -1.0)

    if case == 1:
        return delta_scale * sym

    if case == 2:
        k = float(cp.get("k", 1.0))
        branch = cp.get("branch", "lower" if params.m > 0 else "upper")
        if branch == "lower":
            if params.m == 0:
                raise ParameterError("lower-anchored symbol needs m > 0")
            if not math.isfinite(alpha):
                raise ParameterError("finite lower strip edge required")
            quot = GammaSymbol(
                num=(((-mu - alpha / k), 1.0 / k),),
                den=((complex(-alpha / k), 1.0 / k),),
            )
        else:
            if params.n == 0:
                raise ParameterError("upper-anchored symbol needs n > 0")
            if not math.isfinite(beta):
                raise ParameterError("finite upper strip edge required")
            quot = GammaSymbol(
                num=(((beta / k - mu), -1.0 / k),),
                den=((complex(beta / k), -1.0 / k),),
            )
        return quot * sym

    if case == 3:
        if not math.isfinite(alpha):
            raise ParameterError("finite lower strip edge required")
        refl = sym.substitute(1.0, -1.0)
        pref = GammaSymbol.power(inv.delta, -1.0, 1.0)
        pref = pref * GammaSymbol.power(a1, mu + inv.delta_cap, -inv.delta_cap)
        quot = GammaSymbol(
            num=(((-mu + a1 * (-1.0 - alpha)), a1),),
            den=(((a1 * (1.0 - alpha)), -a1),),
        )
        return pref * quot * refl

    if case in (4, 7, 9):
        tp = transpose_params(params)
        from .params import derive_invariants

        tinv = derive_invariants(tp)
        partner = {4: 3, 7: 6, 9: 8}[case]
        return build_aux_symbol(tp, tinv, partner, cp)

    if case == 5:
        omega = complex(cp["omega"])
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ParameterError("bounded strip required")
        if omega.real >= 0:
            pref = GammaSymbol.power(a1, a1 * (-alpha) - 1.0, a1)
            pref = pref * GammaSymbol.power(a2, a2 * beta + omega - 1.0, -a2)
            quot = GammaSymbol(den=((complex(-a1 * alpha), a1),
                                    (a2 * beta + omega, -a2)))
        else:
            pref = GammaSymbol.power(a1, a1 * (-alpha) - 1.0, a1)
            pref = pref * GammaSymbol.power(a2, a2 * beta - 1.0, -a2)
            quot = GammaSymbol(
                num=(((-a1 * alpha - omega), a1),),
                den=((complex(-a1 * alpha), a1), (complex(-a1 * alpha), a1),
                     (complex(a2 * beta), -a2)),
            )
        return pref * quot * delta_scale * sym

    if case == 6:
        omega = complex(cp["omega"])
        if not math.isfinite(alpha):
            raise ParameterError("finite lower strip edge required")
        if omega.real >= 0:
            pref = GammaSymbol.power(a1, a1 * (-alpha) + omega - 1.0, a1)
            quot = GammaSymbol(den=(((-a1 * alpha + omega), a1),))
        else:
            pref = GammaSymbol.power(a1, a1 * (-alpha) - 1.0, a1)
            quot = GammaSymbol(
                num=(((-a1 * alpha - omega), a1),),
                den=((complex(-a1 * alpha), a1), (complex(-a1 * alpha), a1)),
            )
        return pref * quot * delta_scale * sym

    if case == 8:
        eta = complex(cp["eta"])
        zeta = complex(cp["zeta"])
        omega = complex(cp["omega"])
        pref = GammaSymbol.power(a_star, a_star * eta - 1.0, a_star)
        pref = pref * GammaSymbol.power(abs(a2), -omega, -2.0 * a2)
        quot = GammaSymbol(
            num=(((a2 * zeta + omega), a2),),
            den=(((a_star * eta), a_star), ((a2 * zeta), -a2)),
        )
        return pref * quot * delta_scale * sym

    raise OutOfTheoryError(f"no auxiliary symbol for case {case!r}")


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


def _winding(sym: GammaSymbol, re_lo, re_hi, im_lo, im_hi, npp=16, width=0.5):
    """Winding number of the symbol around the rectangle via its log-derivative."""
    corners = [
        complex(re_hi, im_lo), complex(re_hi, im_hi),
        complex(re_lo, im_hi), complex(re_lo, im_lo),
    ]
    total = 0.0 + 0.0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        length = abs(b - a)
        nodes, weights = panel_rule(0.0, length, width, npp)
        direction = (b - a) / length
        pts = a + nodes * direction
        vals = sym.log_derivative(pts)
        total += np.sum(np.asarray(vals) * weights) * direction
    return total / (2.0j * math.pi)


def _winding_int(sym, re_lo, re_hi, im_lo, im_hi):
    for npp, width in ((16, 0.5), (24, 0.25), (32, 0.1)):
        w = _winding(sym, re_lo, re_hi, im_lo, im_hi, npp, width)
        if abs(w - round(w.real)) < 0.1 and abs(w.imag) < 0.1:
            return int(round(w.real))
    raise NumericalError("winding integral did not settle to an integer")


def _safe_eval(sym: GammaSymbol, z: complex) -> complex:
    try:
        return complex(sym.eval(z))
    except PoleError:
        return complex(sym.eval(z + 3.7e-11 + 2.9e-11j))


def _refine_zero(sym: GammaSymbol, z0: complex, candidates) -> complex:
    if candidates:
        # structural zeros are exact: take the nearest one in the box
        return min(candidates, key=lambda z: abs(z - z0))
    # derivative-free secant refinement
    z_prev = z0 + 1e-4
    f_prev = _safe_eval(sym, z_prev)
    z_cur = z0
    f_cur = _safe_eval(sym, z_cur)
    for _ in range(80):
        denom = f_cur - f_prev
        if denom == 0:
            break
        step = f_cur * (z_cur - z_prev) / denom
        z_prev, f_prev = z_cur, f_cur
        z_cur = z_cur - step
        f_cur = _safe_eval(sym, z_cur)
        if abs(step) < 1e-13 * (1.0 + abs(z_cur)):
            break
    return z_cur


def find_zeros_on_line(sym: GammaSymbol, nu: float, window: float,
                       strip: Optional[tuple] = None) -> ZeroReport:
    """Locate zeros of the symbol with |Im s| <= window around Re s = 1 - nu.

    Counting is done by the argument principle over rectangles tiling the
    window, followed by local refinement; structurally exact zero locations
    (denominator-factor poles) seed the refinement.  A pole of the symbol on
    the line raises PoleOnLineError.
    """
    line = 1.0 - nu
    if strip is not None:
        lo, hi = strip
        if not (lo < line < hi):
            raise ParameterError("probe line must lie strictly inside the strip")

    poles = sym.uncancelled_poles(window, (line - 1.0, line + 1.0))
    half = 0.25
    if strip is not None:
        lo, hi = strip
        if math.isfinite(lo):
            half = min(half, (line - lo) / 2.0)
        if math.isfinite(hi):
            half = min(half, (hi - line) / 2.0)
    for pz in poles:
        d = abs(pz.real - line)
        if d <= _ON_LINE_TOL:
            raise PoleOnLineError(
                f"symbol pole at {pz:.12g} lies on the probe line Re s = {line:.12g}"
            )
        half = min(half, d / 2.0)
    zeros_struct = [z for (z, _) in sym.structural_zeros(window, (line - 1.0, line + 1.0))]
    # keep the contour clear of structural zeros
    for z in zeros_struct:
        d = abs(z.real - line)
        if abs(d - half) < 1e-6:
            half = max(half * 0.7, d / 2.0 if d > 2e-6 else half * 0.7)

    found: list[tuple[complex, int]] = []

    def search(im_lo, im_hi):
        count = _winding_int(sym, line - half, line + half, im_lo, im_hi)
        if count == 0:
            return
        if count == 1 or (im_hi - im_lo) < 1e-3:
            center = complex(line, 0.5 * (im_lo + im_hi))
            inside = [
                z for z in zeros_struct
                if abs(z.real - line) <= half and im_lo - 1e-12 <= z.imag <= im_hi + 1e-12
            ]
            z = _refine_zero(sym, center, inside)
            try:
                val = abs(complex(sym.eval(z)))
            except PoleError:
                # a denominator-factor pole: the symbol vanishes there exactly
                val = 0.0
            if val > _DEFLATION_TOL:
                raise NumericalError(
                    f"refined zero candidate at {z:.12g} has |symbol| = {val:.3e}"
                )
            found.append((z, count))
            return
        mid = 0.5 * (im_lo + im_hi)
        # avoid cutting through a structural zero
        for z in zeros_struct:
            if abs(z.imag - mid) < 0.01:
                mid += 0.0137
                break
        search(im_lo, mid)
        search(mid, im_hi)

    # tile the window in bands of height <= 2, edges nudged off any zeros
    band = 2.0
    edges = list(np.arange(-window, window, band)) + [window]
    edges = [float(e) for e in edges]
    for i in range(1, len(edges) - 1):
        while any(abs(z.imag - edges[i]) < 0.01 for z in zeros_struct):
            edges[i] += 0.0137
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        if hi_e > lo_e:
            search(float(lo_e), float(hi_e))

    found.sort(key=lambda zm: (zm[0].imag, zm[0].real))
    on_line = [(z, m) for (z, m) in found if abs(z.real - line) <= _ON_LINE_TOL]
    return ZeroReport(
        line=line,
        window=window,
        zeros=tuple(found),
        in_exceptional_set=bool(on_line),
    )
