"""Bessel J of the first kind and the phase breakpoints of its oscillation.

J_eta is computed from its ascending series for small argument and the
Hankel asymptotic expansion for large argument, with the switchover at
|z| = 12 (cross-validated at the seam in the test suite).  The order may
be complex with Re(eta) > -1, which the quadrature chains need and which
rules out deferring to a real-order library routine.
"""

from __future__ import annotations

import math

import numpy as np

from .gammafn import log_gamma

_SEAM = 12.0
_SERIES_TERMS = 42
_ASYM_TERMS = 18


def _series_coeffs(eta: complex) -> np.ndarray:
    """(-1)^j / (j! Gamma(eta + j + 1)) for j < _SERIES_TERMS, by recurrence."""
    c = [complex(np.exp(-log_gamma(eta + 1.0)))]
    for j in range(1, _SERIES_TERMS):
        c.append(-c[-1] / (j * (eta + j)))
    return np.array(c)


def _asym_coeffs(eta: complex) -> np.ndarray:
    mu = 4.0 * eta * eta
    a = np.empty(_ASYM_TERMS, dtype=complex)
    a[0] = 1.0
    for k in range(1, _ASYM_TERMS):
        a[k] = a[k - 1] * (mu - (2 * k - 1) ** 2) / (k * 8.0)
    return a


def bessel_j(eta: complex, z) -> np.ndarray:
    """J_eta(z) for real z >= 0 (vectorized), complex order allowed."""
    eta = complex(eta)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.zeros(z.shape, dtype=complex)
    small = z <= _SEAM
    if small.any():
        zs = z[small]
        half = zs / 2.0
        coeff = _series_coeffs(eta)
        acc = np.zeros(zs.shape, dtype=complex)
        h2 = half * half
        power = np.ones(zs.shape, dtype=complex)
        for c in coeff:
            acc += c * power
            power = power * h2
        with np.errstate(divide="ignore", invalid="ignore"):
            lead = np.where(zs > 0.0, np.exp(eta * np.log(half, where=zs > 0.0,
                                                          out=np.zeros_like(zs))), 0.0)
        if eta == 0:
            lead = np.where(zs > 0.0, lead, 1.0)
        out[small] = lead * acc
    big = ~small
    if big.any():
        zb = z[big]
        a = _asym_coeffs(eta)
        zinv = 1.0 / zb
        p = np.zeros(zb.shape, dtype=complex)
        q = np.zeros(zb.shape, dtype=complex)
        term = np.ones(zb.shape, dtype=complex)
        prev_mag = np.full(zb.shape, np.inf)
        alive = np.ones(zb.shape, dtype=bool)
        for k, ak in enumerate(a):
            tk = ak * term  # a_k / z^k
            mag = np.abs(tk)
            alive &= mag <= prev_mag
            contrib = np.where(alive, tk, 0.0)
            if k % 4 == 0:
                p += contrib
            elif k % 4 == 1:
                q += contrib
            elif k % 4 == 2:
                p -= contrib
            else:
                q -= contrib
            prev_mag = np.where(alive, mag, prev_mag)
            term = term * zinv
        omega = zb - eta * math.pi / 2.0 - math.pi / 4.0
        out[big] = np.sqrt(2.0 / (math.pi * zb)) * (
            np.cos(omega) * p - np.sin(omega) * q
        )
    return out


def phase_breakpoints(eta: complex, count: int) -> np.ndarray:
    """Approximate positive zeros of J_eta (McMahon), used as panel edges."""
    nu = complex(eta).real
    mu = 4.0 * nu * nu
    k = np.arange(1, count + 1, dtype=float)
    b = (k + nu / 2.0 - 0.25) * math.pi
    b = np.maximum(b, 1.0)
    zeros = b - (mu - 1.0) / (8.0 * b) \
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * b) ** 3)
    zeros = zeros[zeros > 0.25]
    return np.maximum.accumulate(zeros)
