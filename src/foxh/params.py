"""Kernel parameter model, derived invariants and the nine-case split.

A kernel is specified by integer orders (m, n, p, q) and parameter pairs
(a_i, alpha_i) (upper row) and (b_j, beta_j) (lower row), with all weights
alpha_i, beta_j > 0.  From these we derive the scalar invariants that
control decay and growth of the Mellin symbol along vertical lines, the
maximal strip of analyticity, and the case label that selects which
operator factorization applies.

Sign tests at the case boundaries use exact rational arithmetic whenever
the weights were supplied as rationals; otherwise a 1e-12 tolerance, since
the boundaries are structural rather than numerical.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import OutOfTheoryError, ParameterError

_SIGN_TOL = 1e-12


@dataclass(frozen=True)
class HParams:
    """Orders and parameter pairs of a kernel; use validate_params to build."""

    m: int
    n: int
    p: int
    q: int
    upper: tuple[tuple[complex, float], ...]
    lower: tuple[tuple[complex, float], ...]
    # exact weights (Fractions) when the user supplied rationals, else None
    upper_exact: tuple[Optional[Fraction], ...] = field(default=(), compare=False)
    lower_exact: tuple[Optional[Fraction], ...] = field(default=(), compare=False)

    @property
    def upper_offsets(self):
        return [c for c, _ in self.upper]

    @property
    def lower_offsets(self):
        return [c for c, _ in self.lower]

    @property
    def upper_weights(self):
        return [w for _, w in self.upper]

    @property
    def lower_weights(self):
        return [w for _, w in self.lower]


def _coerce_pairs(pairs):
    """(complex offset, float weight) pairs and the weights given as Fractions."""
    pairs = [(complex(c), w) for c, w in pairs]
    return (tuple((c, float(w)) for c, w in pairs),
            tuple(w if isinstance(w, Fraction) else None for _, w in pairs))


def validate_params(m: int, n: int, p: int, q: int,
                    upper: Sequence, lower: Sequence) -> HParams:
    """Check order and weight constraints; reject with a distinct diagnostic.

    A weight given as a Fraction is also kept exactly, for the sign tests
    at the case boundaries.
    """
    for name, v in (("m", m), ("n", n), ("p", p), ("q", q)):
        if not isinstance(v, int) or v < 0:
            raise ParameterError(f"order {name} must be a non-negative integer")
    if m > q:
        raise ParameterError("m exceeds q")
    if n > p:
        raise ParameterError("n exceeds p")
    if len(upper) != p:
        raise ParameterError(f"length mismatch: expected {p} upper pairs, got {len(upper)}")
    if len(lower) != q:
        raise ParameterError(f"length mismatch: expected {q} lower pairs, got {len(lower)}")
    up, upx = _coerce_pairs(upper)
    lo, lox = _coerce_pairs(lower)
    for c, w in up + lo:
        if not (w > 0.0) or not math.isfinite(w):
            raise ParameterError("non-positive weight")
        if not cmath.isfinite(c):
            raise ParameterError(f"non-finite offset {c}")
    return HParams(m, n, p, q, up, lo, upx, lox)


@dataclass(frozen=True)
class Invariants:
    """Derived scalars of a kernel.

    a_star = a1_star + a2_star and delta_cap = a1_star - a2_star hold to
    machine exactness by construction.  alpha_low / beta_high are the strip
    edges, with -inf / +inf sentinels when the corresponding order vanishes.
    stirling_front collects the sigma-independent constant of the magnitude
    envelope so callers can bound truncation tails.
    """

    a_star: float
    delta_cap: float
    mu: complex
    delta: float
    a1_star: float
    a2_star: float
    c_star: float
    xi: complex
    alpha_low: float
    beta_high: float
    case_label: Optional[int]
    stirling_front: float
    a1_exact: Optional[Fraction] = field(default=None, compare=False)
    a2_exact: Optional[Fraction] = field(default=None, compare=False)

    @property
    def a_star_exact(self):
        if self.a1_exact is None or self.a2_exact is None:
            return None
        return self.a1_exact + self.a2_exact

    @property
    def delta_cap_exact(self):
        if self.a1_exact is None or self.a2_exact is None:
            return None
        return self.a1_exact - self.a2_exact


def _sorted_sum(values):
    # deterministic under permutation of the input group
    return sum(sorted(values, key=lambda z: (z.real, z.imag)), complex(0.0))


def _sorted_sum_real(values):
    return math.fsum(sorted(values))


def derive_invariants(params: HParams) -> Invariants:
    """Evaluate the invariant sums/products and classify the kernel."""
    m, n, p, q = params.m, params.n, params.p, params.q
    au = params.upper_weights
    bl = params.lower_weights
    a_off = params.upper_offsets
    b_off = params.lower_offsets

    a1 = _sorted_sum_real(bl[:m]) - _sorted_sum_real(au[n:])
    a2 = _sorted_sum_real(au[:n]) - _sorted_sum_real(bl[m:])
    a_star = a1 + a2
    delta_cap = a1 - a2

    a1x = a2x = None
    if None not in params.upper_exact + params.lower_exact:
        a1x = sum(params.lower_exact[:m], Fraction(0)) - sum(params.upper_exact[n:], Fraction(0))
        a2x = sum(params.upper_exact[:n], Fraction(0)) - sum(params.lower_exact[m:], Fraction(0))

    mu = _sorted_sum(b_off) - _sorted_sum(a_off) + (p - q) / 2.0
    delta = math.exp(
        _sorted_sum_real([w * math.log(w) for w in bl])
        - _sorted_sum_real([w * math.log(w) for w in au])
    )
    c_star = m + n - (p + q) / 2.0
    xi = (
        _sorted_sum(a_off[:n]) - _sorted_sum(a_off[n:])
        + _sorted_sum(b_off[:m]) - _sorted_sum(b_off[m:])
    )
    alpha_low = max((-c.real / w for (c, w) in params.lower[:m]), default=-math.inf) + 0.0
    beta_high = min(((1.0 - c.real) / w for (c, w) in params.upper[:n]), default=math.inf) + 0.0

    log_front = c_star * math.log(2.0 * math.pi)
    log_front += _sorted_sum_real([(0.5 - c.real) * math.log(w) for (c, w) in params.upper])
    log_front += _sorted_sum_real([(c.real - 0.5) * math.log(w) for (c, w) in params.lower])
    stirling_front = math.exp(log_front)

    inv = Invariants(
        a_star=a_star, delta_cap=delta_cap, mu=mu, delta=delta,
        a1_star=a1, a2_star=a2, c_star=c_star, xi=xi,
        alpha_low=alpha_low, beta_high=beta_high, case_label=None,
        stirling_front=stirling_front, a1_exact=a1x, a2_exact=a2x,
    )
    try:
        label = classify_case(inv)
    except OutOfTheoryError:
        label = None
    return dataclasses.replace(inv, case_label=label)


def _sign(value: float, exact: Optional[Fraction]) -> int:
    if exact is not None:
        return (exact > 0) - (exact < 0)
    if abs(value) <= _SIGN_TOL:
        return 0
    return 1 if value > 0 else -1


def classify_case(inv: Invariants) -> int:
    """Assign the mutually exclusive case label, or reject as out of theory."""
    s1 = _sign(inv.a1_star, inv.a1_exact)
    s2 = _sign(inv.a2_star, inv.a2_exact)
    sa = _sign(inv.a_star, inv.a_star_exact)
    sd = _sign(inv.delta_cap, inv.delta_cap_exact)
    if sa < 0:
        raise OutOfTheoryError("a* < 0 is outside the classified cases")
    if sa == 0:
        if sd > 0:
            return 3
        if sd < 0:
            return 4
        re_mu = inv.mu.real
        if abs(re_mu) <= _SIGN_TOL:
            return 1
        if re_mu < 0:
            return 2
        raise OutOfTheoryError("a* = Delta = 0 with Re(mu) > 0 is outside the classified cases")
    # a* > 0
    if s1 > 0 and s2 > 0:
        return 5
    if s1 > 0 and s2 == 0:
        return 6
    if s1 == 0 and s2 > 0:
        return 7
    if s1 > 0 and s2 < 0:
        return 8
    if s1 < 0 and s2 > 0:
        return 9
    raise OutOfTheoryError("sign pattern of (a1*, a2*) is outside the classified cases")


@dataclass(frozen=True)
class SpaceSpec:
    """Weighted-space index: weight nu and integrability exponent r."""

    nu: float
    r: float

    def __post_init__(self):
        if not (1.0 <= self.r < math.inf):
            raise ParameterError("exponent r must lie in [1, infinity)")

    @property
    def r_conj(self) -> float:
        return math.inf if self.r == 1.0 else self.r / (self.r - 1.0)

    @property
    def gamma_r(self) -> float:
        rc = self.r_conj
        return max(1.0 / self.r, 0.0 if math.isinf(rc) else 1.0 / rc)


def admissible_range(inv: Invariants, space: SpaceSpec, mode: str):
    """Decide whether the transform exists for (nu, r) in the given mode.

    mode='definition' checks the multiplier-level existence conditions;
    mode='direct-integral' checks the stronger conditions under which the
    defining integral converges pointwise.  Returns (ok, reason) with the
    first failed condition named.
    """
    if mode not in ("definition", "direct-integral"):
        raise ValueError("mode must be 'definition' or 'direct-integral'")
    line = 1.0 - space.nu
    if not (inv.alpha_low < line < inv.beta_high):
        return False, "strip boundary"
    sa = _sign(inv.a_star, inv.a_star_exact)
    if sa > 0:
        return True, "a* > 0"
    if sa < 0:
        return False, "a* < 0: out of theory"
    decay = inv.delta_cap * line + inv.mu.real
    if mode == "direct-integral":
        if decay < -1.0:
            return True, "a* = 0 and Delta(1-nu)+Re(mu) < -1"
        return False, "a* = 0 and Delta(1-nu)+Re(mu) >= -1"
    sd = _sign(inv.delta_cap, inv.delta_cap_exact)
    if sd == 0:
        if inv.mu.real <= _SIGN_TOL:
            return True, "a* = Delta = 0 and Re(mu) <= 0"
        return False, "a* = Delta = 0 and Re(mu) > 0"
    bound = 0.5 - space.gamma_r
    if decay <= bound + _SIGN_TOL:
        return True, "a* = 0 and Delta(1-nu)+Re(mu) <= 1/2-gamma(r)"
    return False, "a* = 0 and Delta(1-nu)+Re(mu) > 1/2-gamma(r)"


def transpose_params(params: HParams) -> HParams:
    """Parameters of the reciprocal kernel x -> (1/x) H(1/x).

    The reciprocal kernel's Mellin symbol is s -> symbol(1 - s); its orders
    swap to (n, m, q, p) and every pair (c, w) maps to (1 - c - w, w) on the
    opposite row.  Mirrored-case factorizations are built through it.
    """
    def flipped(pairs, exact):
        return [(1.0 - c - w, w if x is None else x) for (c, w), x in zip(pairs, exact)]

    return validate_params(params.n, params.m, params.q, params.p,
                           flipped(params.lower, params.lower_exact),
                           flipped(params.upper, params.upper_exact))


# ---------------------------------------------------------------------------
# JSON parameter schema
# ---------------------------------------------------------------------------

def _parse_weight(w):
    return Fraction(w) if isinstance(w, str) else float(w)


def params_from_json(data) -> HParams:
    """Parse {"m","n","p","q","upper":[[re,im,w],...],"lower":[...]}.

    Weights may be numbers or exact rationals written as "num/den" strings.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    try:
        orders = [data[k] for k in ("m", "n", "p", "q")]
        # a bool or a non-integral number is no order (int() would take it)
        if not all(type(v) is int or type(v) is float and v.is_integer() for v in orders):
            raise ParameterError(f"orders m, n, p, q must be integers, got {orders}")
        m, n, p, q = (int(v) for v in orders)
        upper, lower = ([(complex(float(re), float(im)), _parse_weight(w))
                         for re, im, w in data.get(row, [])] for row in ("upper", "lower"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"malformed parameter object: {exc}") from None
    return validate_params(m, n, p, q, upper, lower)


def params_to_json(params: HParams) -> dict:
    def rows(pairs, exact):
        out = []
        for k, (c, w) in enumerate(pairs):
            wv = str(exact[k]) if k < len(exact) and exact[k] is not None else w
            out.append([c.real, c.imag, wv])
        return out

    return {
        "m": params.m, "n": params.n, "p": params.p, "q": params.q,
        "upper": rows(params.upper, params.upper_exact),
        "lower": rows(params.lower, params.lower_exact),
    }
