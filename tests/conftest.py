"""Shared fixtures: canonical kernels per case, random kernels, oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from foxh import validate_params


def canonical_params(case: int):
    """One hand-picked kernel per case, with a working (nu, r)."""
    if case == 1:
        return validate_params(2, 0, 2, 2, [(0.5, 3.0), (0.5, 1.0)],
                               [(0.5, 2.0), (0.5, 2.0)]), 0.5, 3.0
    if case == 2:
        return validate_params(2, 0, 2, 2, [(0.5, 3.0), (0.5, 1.0)],
                               [(0.25, 2.0), (0.25, 2.0)]), 0.5, 2.0
    if case == 3:
        return validate_params(1, 0, 0, 2, [], [(0.0, 1.0), (0.0, 1.0)]), 0.5, 2.0
    if case == 4:
        return validate_params(0, 1, 2, 0, [(0.0, 1.0), (0.0, 1.0)], []), 0.5, 2.0
    if case == 5:
        return validate_params(1, 1, 1, 1, [(-1.0, 1.0)], [(0.0, 1.0)]), 0.5, 2.0
    if case == 6:
        return validate_params(1, 0, 0, 1, [], [(0.0, 1.0)]), 0.5, 2.0
    if case == 7:
        return validate_params(0, 1, 1, 0, [(0.0, 1.0)], []), 0.5, 2.0
    if case == 8:
        return validate_params(1, 0, 0, 2, [], [(0.5, 2.0), (0.0, 1.0)]), 0.5, 2.0
    if case == 9:
        return validate_params(0, 1, 2, 0, [(-1.5, 2.0), (0.0, 1.0)], []), 0.5, 2.0
    raise ValueError(case)


def random_params(rng: np.random.Generator, *, max_order=3, complex_offsets=True,
                  w_lo=0.4, w_hi=1.6):
    """A random structurally valid kernel (any sign pattern)."""
    while True:
        p = int(rng.integers(0, max_order + 1))
        q = int(rng.integers(0, max_order + 1))
        if p + q > 0:
            break
    m = int(rng.integers(0, q + 1))
    n = int(rng.integers(0, p + 1))
    def pair():
        re = rng.uniform(-1.0, 1.5)
        im = rng.uniform(-0.4, 0.4) if complex_offsets else 0.0
        return (complex(re, im), float(rng.uniform(w_lo, w_hi)))
    upper = [pair() for _ in range(p)]
    lower = [pair() for _ in range(q)]
    return validate_params(m, n, p, q, upper, lower)


def line_in_strip(rng: np.random.Generator, inv) -> float:
    """A probe line Re s drawn uniformly from the strip (alpha, beta), an
    infinite end taken 4 from the other one (or from 1); 0.3 for an empty
    strip."""
    lo, hi = inv.alpha_low, inv.beta_high
    a = lo if math.isfinite(lo) else min(hi, 1.0) - 4.0
    b = hi if math.isfinite(hi) else a + 4.0
    return float(rng.uniform(a, b)) if a < b else 0.3


# Zero-probe inputs that defeat a numerical zero search, as (params, nu,
# window): the symbol s^2 at Re s = 0 (a double zero on the line),
# 1/(Gamma(s) Gamma(0.2 + s)) at Re s = 0 (two simple zeros 0.2 apart), and
# a zero 7e-4 inside the edge of the probe's box.
SQUARE_K = validate_params(2, 0, 2, 2, [(0.0, 1.0), (0.0, 1.0)],
                           [(1.0, 1.0), (1.0, 1.0)])
CLOSE_PAIR_K = validate_params(0, 0, 2, 0, [(0.0, 1.0), (0.2, 1.0)], [])
EDGE_ZERO_K = validate_params(1, 0, 0, 2, [], [
    (-0.9705295793158975 - 0.043626776543431944j, 1.112929419148387),
    (-0.6463548866564452 + 0.35561384158697906j, 1.0264026564051854),
])
ZERO_PROBE_CASES = [(SQUARE_K, 1.0, 5.0), (CLOSE_PAIR_K, 1.0, 5.0),
                    (EDGE_ZERO_K, -2.3032431408038985, 5.0)]


def exp_series(x: float) -> float:
    """exp(-x) summed from its power series (independent oracle)."""
    total = 0.0
    term = 1.0
    k = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)) and k < 600:
        total += term
        k += 1
        term *= -x / k
    return total


def gamma_abs_half_line(t: float) -> float:
    """|Gamma(1/2 + i t)| in closed form: sqrt(pi / cosh(pi t))."""
    return math.sqrt(math.pi / math.cosh(math.pi * t))


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)
