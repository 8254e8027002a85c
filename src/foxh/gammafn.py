"""Complex log-gamma and digamma kernels.

Both functions use the asymptotic (Stirling) series once the argument has
been pushed to |z| >= 10 by the recurrence, and the reflection formula for
Re z < 1/2.  The log-sine in the reflection is evaluated on the branch that
keeps log-gamma equal to the analytic continuation from the positive real
axis (real there, continuous off the cut along the non-positive reals).

The recurrence runs on the small arguments only: they are picked once
(``_shift_up``), and each step touches just those still below the radius,
so a vertical contour, where almost no argument is small, costs little
more than one series evaluation per point.  Every operation is elementwise
and in a fixed order, so a batch gives the same bits as its elements
evaluated one at a time.

Accuracy target is 1e-13 relative in the right half plane; products of many
kernel factors amplify per-factor error roughly linearly.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleError

LN_SQRT_2PI = 0.9189385332046727417803297364056176
LN_PI = 1.1447298858494001741434273513530587

# B_{2n} / (2n (2n-1)) for the log-gamma series
_LG_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
    77683.0 / 5796.0,
    -236364091.0 / 1506960.0,
)

# B_{2n} / (2n) for the digamma series
_PSI_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
    43867.0 / 14364.0,
    -174611.0 / 6600.0,
    77683.0 / 276.0,
    -236364091.0 / 65520.0,
)

_SHIFT_RADIUS = 10.0
_POLE_TOL = 1e-12


def _as_flat(z):
    """(z as a flat complex array, z's shape); the caller's array is only read."""
    z = np.asarray(z, dtype=complex)
    return z.reshape(-1), z.shape


def _shaped(out: np.ndarray, shape):
    return out[0] if shape == () else out.reshape(shape)


def _shift_up(w: np.ndarray, term):
    """Push every |w| < _SHIFT_RADIUS past it by unit steps, in place.

    Returns (small, acc): the flat indices of the arguments that moved and,
    for each, the sum of term(w) over the values it stepped through.  The
    moving arguments are kept packed; each leaves once it is past the radius.
    """
    small = np.flatnonzero(np.abs(w) < _SHIFT_RADIUS)
    acc = np.empty_like(w, shape=small.shape)
    pos = np.arange(small.size)
    wk = w[small]
    run = np.zeros_like(wk)
    while pos.size:
        run += term(wk)
        wk += 1.0
        done = np.abs(wk) >= _SHIFT_RADIUS
        if done.any():
            acc[pos[done]] = run[done]
            w[small[pos[done]]] = wk[done]
            keep = ~done
            pos, wk, run = pos[keep], wk[keep], run[keep]
    return small, acc


def _check_poles(z: np.ndarray) -> None:
    near_axis = np.abs(z.imag) < _POLE_TOL
    if not near_axis.any():
        return
    re = z.real[near_axis]
    bad = (re < 0.5) & (np.abs(re - np.round(re)) < _POLE_TOL)
    if bad.any():
        raise PoleError(f"gamma pole at z = {re[bad][0]:.17g}")


def _log_sin_pi_upper(w: np.ndarray) -> np.ndarray:
    # valid for Im w >= 0; |exp(2 i pi w)| <= 1 keeps log1p on its principal branch
    return (
        -1j * np.pi * w
        + np.log1p(-np.exp(2j * np.pi * w))
        + 1j * np.pi / 2.0
        - np.log(2.0)
    )


def log_sin_pi(z):
    """Branch of log(sin(pi z)) continuous off the real integer points."""
    z, shape = _as_flat(z)
    out = np.empty_like(z)
    upper = z.imag >= 0.0
    if upper.any():
        out[upper] = _log_sin_pi_upper(z[upper])
    lower = ~upper
    if lower.any():
        out[lower] = np.conj(_log_sin_pi_upper(np.conj(z[lower])))
    return _shaped(out, shape)


def _stirling_log_gamma(w: np.ndarray) -> np.ndarray:
    rz = 1.0 / w
    rz2 = rz * rz
    ser = np.zeros_like(w)
    for c in reversed(_LG_COEFFS):
        ser = (ser + c) * rz2
    ser = ser * w  # convert even-power sum into odd powers of 1/w
    return (w - 0.5) * np.log(w) - w + LN_SQRT_2PI + ser


def log_gamma(z):
    """Principal (analytic) log-gamma, vectorized over complex arrays.

    Raises PoleError at non-positive integers.
    """
    z, shape = _as_flat(z)
    _check_poles(z)
    neg = z.real < 0.5
    w = np.where(neg, 1.0 - z, z)
    small, shift = _shift_up(w, np.log)
    lg = _stirling_log_gamma(w)
    lg[small] -= shift
    if neg.any():
        lg[neg] = LN_PI - log_sin_pi(z[neg]) - lg[neg]
    return _shaped(lg, shape)


def _stirling_digamma(w: np.ndarray) -> np.ndarray:
    rz = 1.0 / w
    rz2 = rz * rz
    ser = np.zeros_like(w)
    for c in reversed(_PSI_COEFFS):
        ser = (ser + c) * rz2
    return np.log(w) - 0.5 * rz - ser


def _cot_pi(z: np.ndarray) -> np.ndarray:
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


def digamma(z):
    """Digamma (logarithmic derivative of gamma), vectorized."""
    z, shape = _as_flat(z)
    _check_poles(z)
    neg = z.real < 0.5
    w = np.where(neg, 1.0 - z, z)
    small, corr = _shift_up(w, lambda v: 1.0 / v)
    ps = _stirling_digamma(w)
    ps[small] -= corr
    if neg.any():
        ps[neg] = ps[neg] - np.pi * _cot_pi(z[neg])
    return _shaped(ps, shape)
