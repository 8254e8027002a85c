"""Complex log-gamma and digamma kernels.

Both functions use the asymptotic (Stirling) series once the argument has
been pushed to |w| >= 10 by the recurrence, and the reflection formula for
Re z < 1/2.  The log-sine in the reflection is evaluated on the branch that
keeps log-gamma equal to the analytic continuation from the positive real
axis (real there, continuous off the cut along the non-positive reals).

The recurrence is one fixed shift (``_shift``): every argument with
|w| < 10 moves up by exactly ten unit steps and no other argument moves, so
its cost is one table of w + k, whatever the argument.  Log-gamma takes the
ten logs as the log of one running product.  Working in the upper half-plane
(log-gamma commutes with conjugation), each pair of factors turns the
product counterclockwise by less than pi, so the principal log of the
product misses the sum of the logs by 2 pi i for each time the product's
imaginary part turned negative; those turns are counted (Hare, "Computing
the principal branch of log-Gamma", J. Algorithms 25 (1997)).  The logs of
the product and of the series argument are log|w| + i arg w from
real-valued ufuncs (|w| a hypot, so nothing overflows at |w| near 1e154),
not complex logs.  The series keeps the eight terms that matter at
|w| >= 10, and the reflection drops its log1p term once |Im z| > 6.5, where
that term is below 2e-18.

Every operation is elementwise and in a fixed order, and long inputs run in
blocks of _BLOCK points, so a batch gives the same bits as its elements
evaluated one at a time.

Accuracy target is 1e-13 relative in the right half plane; products of many
kernel factors amplify per-factor error roughly linearly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleError

LN_SQRT_2PI = 0.9189385332046727417803297364056176
LN_PI = 1.1447298858494001741434273513530587
LN_2 = 0.6931471805599453094172321214581766
PI_LO = 1.2246467991473532e-16  # pi - math.pi

# B_{2n} / (2n (2n-1)) for the log-gamma series; at |w| >= 10 the next term
# is below 2e-18
_LG_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# B_{2n} / (2n) for the digamma series; at |w| >= 10 the next term is below
# 4e-18
_PSI_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

_SHIFT = 10  # unit steps taken by every argument with |w| < _SHIFT
_STEPS = np.arange(float(_SHIFT)).reshape(-1, 1)
_BLOCK = 4096  # points per block of a long input
# past this height |exp(2 pi i w)| < 2e-18 and the reflection drops its log1p
_REFLECT_FLAT = 6.5
_POLE_TOL = 1e-12


def _evaluate(kernel, z):
    """kernel over z (any shape, read only) in blocks of _BLOCK points."""
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.reshape(-1)
    if z.size <= _BLOCK:
        out = kernel(z)
    else:
        out = np.empty_like(z)
        for start in range(0, z.size, _BLOCK):
            out[start:start + _BLOCK] = kernel(z[start:start + _BLOCK])
    return out[0] if shape == () else out.reshape(shape)


def _principal_log(w: np.ndarray) -> np.ndarray:
    """Principal log w from log|w| and arg w (real-valued ufuncs only).

    |w| is numpy's complex absolute value, a hypot, so it neither
    overflows nor underflows where |w|^2 would.
    """
    out = np.empty_like(w)
    out.real = np.log(np.abs(w))
    out.imag = np.arctan2(w.imag, w.real)
    return out


def _shift(w: np.ndarray):
    """Move every |w| < _SHIFT up by exactly _SHIFT unit steps, in place.

    Returns the flat indices of the moved arguments and the table of the
    values they stepped through, w + k for k < _SHIFT (one row per k).
    """
    small = (np.abs(w) < _SHIFT).nonzero()[0]
    w0 = w[small]
    w[small] = w0 + _SHIFT
    return small, w0 + _STEPS


def _log_product(steps: np.ndarray) -> np.ndarray:
    """sum over the rows u of log(u), for Re u > 0 and Im u >= 0.

    One log of the running product of the rows, taken two at a time.  Each
    pair turns the product counterclockwise by less than pi, so its
    imaginary part turns negative exactly when its argument passes an odd
    multiple of pi; each such turn adds 2 pi i to the principal log.
    """
    pairs = steps[0::2] * steps[1::2]
    prod = np.empty_like(pairs)
    prod[0] = pairs[0]
    for k in range(1, len(pairs)):
        np.multiply(prod[k - 1], pairs[k], out=prod[k])
    below = prod.imag < 0.0
    out = _principal_log(prod[-1])
    out.imag += 2.0 * math.pi * np.add.reduce(below[1:] > below[:-1], axis=0)
    return out


def _series(coeffs, rz2: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] rz2^(n+1), by Horner with out-of-place products."""
    acc = coeffs[-1] * rz2
    for c in reversed(coeffs[:-1]):
        acc = (acc + c) * rz2
    return acc


def _stirling_log_gamma(w: np.ndarray):
    """Stirling's log-gamma at |w| >= 10 as (head, tail): the head
    (w - 1/2)(log w - 1), of size |w| log|w|, and the tail
    log sqrt(2 pi) - 1/2 + the series."""
    rz = 1.0 / w
    head = (w - 0.5) * (_principal_log(w) - 1.0)
    return head, _series(_LG_COEFFS, rz * rz) * w + (LN_SQRT_2PI - 0.5)


def _conj_where(a: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """a, conjugated in place where mask holds."""
    np.negative(a.imag, out=a.imag, where=mask)
    return a


def _reflected(z: np.ndarray):
    """(w, neg): w = 1 - z where Re z < 1/2 (flat indices neg), else z.

    Raises PoleError where z is a non-positive integer.
    """
    w = z.copy()
    neg = (z.real < 0.5).nonzero()[0]
    if neg.size:
        zn = z[neg]
        near = np.abs(zn.imag) < _POLE_TOL
        if np.count_nonzero(near):
            re = zn.real[near]
            bad = np.abs(re - np.round(re)) < _POLE_TOL
            if np.count_nonzero(bad):
                raise PoleError(f"gamma pole at z = {re[bad][0]:.17g}")
        w[neg] = 1.0 - zn
    return w, neg


def _log_sin_pi(z: np.ndarray):
    """Branch of log(sin(pi z)) continuous off the real integer points, as
    (head, tail) with the head the -i pi u term.

    With u = z or conj(z), whichever has Im u >= 0 (Im z = 0 takes u = z),
    it is -i pi u + i pi/2 - log 2 + log1p(-exp(2 i pi u)), conjugated back:
    |exp(2 i pi u)| <= 1 keeps log1p on its principal branch, and the log1p
    term is below 2e-18 once Im u > _REFLECT_FLAT.  Pi u is taken in two
    parts, since math.pi is 1.2e-16 short of pi.
    """
    lower = z.imag < 0.0
    u = _conj_where(z.copy(), lower)
    tail = u * (-1j * PI_LO) + (0.5j * math.pi - LN_2)
    near = (u.imag <= _REFLECT_FLAT).nonzero()[0]
    if near.size:
        tail[near] = tail[near] + np.log1p(-np.exp(2j * math.pi * u[near]))
    return _conj_where(u * (-1j * math.pi), lower), _conj_where(tail, lower)


def _log_gamma_kernel(z: np.ndarray) -> np.ndarray:
    # Each value is head + tail, the head holding the terms of size |z| log|z|
    # or |Im z|, the tail the constants and the rest.  The large terms meet
    # first and the constants join in one last rounding: a constant added to
    # a large term rounds off the same bits at every point of a contour, and
    # contour sums accumulate that bias.
    w, neg = _reflected(z)
    lower = w.imag < 0.0
    small, steps = _shift(_conj_where(w, lower))
    head, tail = _stirling_log_gamma(w)
    if small.size:
        head[small] = head[small] - _log_product(steps)
    head, tail = _conj_where(head, lower), _conj_where(tail, lower)
    lg = head + tail
    if neg.size:
        # log-gamma(z) = log pi - log sin(pi z) - log-gamma(1 - z)
        sin_head, sin_tail = _log_sin_pi(z[neg])
        lg[neg] = (LN_PI - sin_tail - tail[neg]) - (sin_head + head[neg])
    return lg


def log_gamma(z):
    """Principal (analytic) log-gamma, vectorized over complex arrays.

    Raises PoleError at non-positive integers.
    """
    return _evaluate(_log_gamma_kernel, z)


def _stirling_digamma(w: np.ndarray) -> np.ndarray:
    rz = 1.0 / w
    return _principal_log(w) - 0.5 * rz - _series(_PSI_COEFFS, rz * rz)


def _cot_pi(z: np.ndarray) -> np.ndarray:
    # period 1: taking off the nearest integer (exactly) keeps pi z from
    # rounding away the distance to a pole
    z = z - np.round(z.real)
    out = np.empty_like(z)
    up = z.imag > 0.5
    dn = z.imag < -0.5
    mid = ~(up | dn)
    if up.any():
        q = np.exp(2j * np.pi * z[up])
        out[up] = -1j * (1.0 + q) / (1.0 - q)
    if dn.any():
        q = np.exp(-2j * np.pi * z[dn])
        out[dn] = 1j * (1.0 + q) / (1.0 - q)
    if mid.any():
        w = z[mid]
        out[mid] = np.cos(np.pi * w) / np.sin(np.pi * w)
    return out


def _digamma_kernel(z: np.ndarray) -> np.ndarray:
    w, neg = _reflected(z)
    small, steps = _shift(w)
    ps = _stirling_digamma(w)
    if small.size:
        recip = 1.0 / steps[0]
        for u in steps[1:]:
            recip = recip + 1.0 / u
        ps[small] = ps[small] - recip
    if neg.size:
        ps[neg] = ps[neg] - np.pi * _cot_pi(z[neg])
    return ps


def digamma(z):
    """Digamma (logarithmic derivative of gamma), vectorized."""
    return _evaluate(_digamma_kernel, z)
