"""Frozen benchmark inputs: kernels, draws, x sets and closed forms.

The kernel constructors are copies of the test fixtures ``canonical_params``
and ``random_params`` (tests/conftest.py), so that editing a test cannot move
a workload.  Everything seeded takes a ``numpy.random.Generator``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import exp1

import foxh


def canonical_params(case: int):
    """One hand-picked kernel per case, with a working (nu, r)."""
    v = foxh.validate_params
    if case == 1:
        return v(2, 0, 2, 2, [(0.5, 3.0), (0.5, 1.0)], [(0.5, 2.0), (0.5, 2.0)]), 0.5, 3.0
    if case == 2:
        return v(2, 0, 2, 2, [(0.5, 3.0), (0.5, 1.0)], [(0.25, 2.0), (0.25, 2.0)]), 0.5, 2.0
    if case == 3:
        return v(1, 0, 0, 2, [], [(0.0, 1.0), (0.0, 1.0)]), 0.5, 2.0
    if case == 4:
        return v(0, 1, 2, 0, [(0.0, 1.0), (0.0, 1.0)], []), 0.5, 2.0
    if case == 5:
        return v(1, 1, 1, 1, [(-1.0, 1.0)], [(0.0, 1.0)]), 0.5, 2.0
    if case == 6:
        return v(1, 0, 0, 1, [], [(0.0, 1.0)]), 0.5, 2.0
    if case == 7:
        return v(0, 1, 1, 0, [(0.0, 1.0)], []), 0.5, 2.0
    if case == 8:
        return v(1, 0, 0, 2, [], [(0.5, 2.0), (0.0, 1.0)]), 0.5, 2.0
    if case == 9:
        return v(0, 1, 2, 0, [(-1.5, 2.0), (0.0, 1.0)], []), 0.5, 2.0
    raise ValueError(case)


def random_params(rng: np.random.Generator):
    """A random structurally valid kernel (any sign pattern): orders up to 3,
    complex offsets, weights in [0.4, 1.6]."""
    while True:
        p = int(rng.integers(0, 4))
        q = int(rng.integers(0, 4))
        if p + q > 0:
            break
    m = int(rng.integers(0, q + 1))
    n = int(rng.integers(0, p + 1))

    def pair():
        re = rng.uniform(-1.0, 1.5)
        im = rng.uniform(-0.4, 0.4)
        return (complex(re, im), float(rng.uniform(0.4, 1.6)))

    upper = [pair() for _ in range(p)]
    lower = [pair() for _ in range(q)]
    return foxh.validate_params(m, n, p, q, upper, lower)


# H^{1,0}_{0,1}[(0,1)]: kernel e^{-x}.  H^{1,1}_{1,1}[(0,1);(0,1)]: 1/(1+x).
EXP_K = foxh.validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])
BETA_K = foxh.validate_params(1, 1, 1, 1, [(0.0, 1.0)], [(0.0, 1.0)])


def beta_family(a: float):
    """H^{1,1}_{1,1}[(1-a,1);(0,1)]: kernel Gamma(a) (1+x)^(-a)."""
    return foxh.validate_params(1, 1, 1, 1, [(1.0 - a, 1.0)], [(0.0, 1.0)])


def seeded_x(rng: np.random.Generator) -> np.ndarray:
    """The points 0.5, 1.3 and 3.0, each moved by a seeded factor within 1 +- 2%.

    The cost of the per-x routes changes in steps with x (sweep blocks,
    step halvings), so points drawn across all of [0.2, 5] made a pass's
    time depend on the seed; small moves keep it put.
    """
    return np.array([0.5, 1.3, 3.0]) * np.exp(rng.uniform(-0.02, 0.02, 3))


# Closed forms, each f(x) -> array, named for the job records.
CLOSED_FORMS = {
    "exp-kernel,e^-t: 1/(1+x)": lambda x: 1.0 / (1.0 + x),
    "exp-kernel,te^-t: 1/(1+x)^2": lambda x: 1.0 / (1.0 + x) ** 2,
    "beta-kernel,e^-t: e^(1/x)E1(1/x)/x": lambda x: np.exp(1.0 / x) * exp1(1.0 / x) / x,
    "case3,te^-t: e^-x(1-x)": lambda x: np.exp(-x) * (1.0 - x),
}


# The Erdelyi-Kober draw that fails tests/test_classical.py::
# test_ek_mellin_identities at the time this benchmark was written: right
# side, c just below sigma * eta.  It is always part of ``operators``.
EK_DEFECT_DRAW = ("ek-right", 0.983264, 0.624674, 0.703551, 0.433132, 1.290695)


# Two kernels of the survey's random draws (seed 20240814, draws 72 and 21)
# that the random pool leaves out, rounded to six places.  Both are always
# part of ``survey``.  LOW_A_STAR_K has a* = 0.025: its contour runs to
# heights in the thousands, a job takes seconds and its table keeps about
# 7.5 digits.  NARROW_STRIP_K has a strip 0.55 wide: the Mellin route on its
# mid-strip line keeps about 6 digits.
LOW_A_STAR_K = foxh.validate_params(
    0, 2, 3, 0,
    [(0.958944 - 0.257488j, 0.404989), (-0.676720 - 0.255238j, 0.728059),
     (0.328821 - 0.172448j, 1.108355)],
    [])
NARROW_STRIP_K = foxh.validate_params(
    2, 1, 1, 2,
    [(-0.492959 - 0.399135j, 1.490357)],
    [(-0.606965 + 0.028680j, 1.344994), (-0.540330 - 0.300761j, 1.291913)])


def criterion_04_draws():
    """The operator draws of test_criterion_04_mellin_identities, in order.

    Replays that test's generator (seed 11) including the evaluation points
    it consumes, so the draws are exactly the test's.  Returns a dict of
    lists: 'ek-left', 'ek-right', 'hankel'; EK entries are
    (alpha, sigma, eta, c, p), Hankel entries (kappa, eta, c, p).
    """
    rng = np.random.default_rng(11)
    out = {"ek-left": [], "ek-right": [], "hankel": []}

    def skip_points():
        for _ in range(5):
            rng.uniform(0.0, 1.0)
            rng.uniform(0.0, 1.0)

    for side in ("left", "right"):
        for _ in range(10):
            d = (rng.uniform(0.4, 1.8), rng.uniform(0.6, 1.6), rng.uniform(0.2, 1.2),
                 rng.uniform(0.0, 0.8), rng.uniform(0.6, 1.4))
            out["ek-" + side].append(d)
            skip_points()
    for _ in range(10):
        out["hankel"].append((rng.uniform(0.5, 2.0), rng.uniform(-0.7, 2.5),
                              rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)))
        skip_points()
    return out
