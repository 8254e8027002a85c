"""Log-gamma and digamma kernels against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import digamma as scipy_digamma, loggamma as scipy_loggamma

from foxh import PoleError, digamma, log_gamma
from foxh import gammafn


def test_log_gamma_at_one_and_small_integers():
    assert abs(log_gamma(1.0)) < 1e-13
    assert abs(log_gamma(2.0)) < 1e-13
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13


def test_log_gamma_half_via_reflection_oracle():
    # Gamma(1/2) = sqrt(pi)
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-13


def test_log_gamma_matches_scipy_on_grid():
    rng = np.random.default_rng(3)
    z = rng.uniform(-8, 8, 3000) + 1j * rng.uniform(-8, 8, 3000)
    z = z[np.abs(z.imag) + np.abs(z.real - np.round(z.real)) > 1e-6]
    ours = log_gamma(z)
    ref = scipy_loggamma(z)
    assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13


def test_log_gamma_right_half_plane_relative_accuracy():
    rng = np.random.default_rng(4)
    z = rng.uniform(0.5, 80, 2000) + 1j * rng.uniform(-300, 300, 2000)
    ours = log_gamma(z)
    ref = scipy_loggamma(z)
    rel = np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))
    assert np.max(rel) < 1e-13


def test_log_gamma_pole_rejection():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0)
    # nearby but off the pole is fine
    log_gamma(-3.0 + 1e-6j)


def test_digamma_matches_scipy():
    # a box, both sides of the shift radius |w| = 10 (w = z and w = 1 - z),
    # and tall lines
    rng = np.random.default_rng(5)
    box = rng.uniform(-8, 8, 2000) + 1j * rng.uniform(-8, 8, 2000)
    ring = rng.uniform(9.0, 11.0, 1000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 1000))
    tall = rng.uniform(-4, 4, 500) + 1j * rng.uniform(-500, 500, 500)
    z = np.concatenate([box, ring, 1.0 - ring, tall])
    z = z[np.abs(z.imag) + np.abs(z.real - np.round(z.real)) > 1e-6]
    assert np.max(np.abs(digamma(z) - scipy_digamma(z))) < 5e-13


def _mp_log_gamma(z):
    with mpmath.workdps(40):
        return np.array([complex(mpmath.loggamma(mpmath.mpc(v.real, v.imag)))
                         for v in np.atleast_1d(z)])


@pytest.mark.parametrize("re", [0.5, 0.6, 3.0, 9.5, -2.3])
def test_log_gamma_along_vertical_lines(re):
    # Shifted arguments (|w| < 10) whose ten-factor product turns past 3 pi
    # (at Re z = 0.5 and Im z near 9.9 the factors turn by 11.3 in all), the
    # |w| = 10 ring and the |Im z| = 6.5 edge of the reflection's log1p all
    # lie on these lines; the branch count must leave no 2 pi jump.
    t = np.arange(-1200, 1201) / 100.0
    z = re + 1j * t
    ours = log_gamma(z)
    ref = _mp_log_gamma(z)
    assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) < 1e-14
    # Im log-gamma is continuous off the cut along the non-positive reals,
    # where z = x + 0j takes the value from above
    pieces = [ours] if re > 0 else [ours[t >= 0], ours[t < 0]]
    for piece in pieces:
        assert np.max(np.abs(np.diff(piece.imag))) < 0.1


@pytest.mark.parametrize("z", [1e200, 1e170j, 3e160 + 2e160j])
def test_log_gamma_finite_at_huge_arguments(z):
    ref = _mp_log_gamma(z)[0]
    assert abs(log_gamma(z) - ref) < 1e-14 * abs(ref)


def test_log_gamma_and_digamma_share_one_shift(monkeypatch):
    calls = []
    shift = gammafn._shift

    def counted(w):
        calls.append(w.size)
        return shift(w)

    monkeypatch.setattr(gammafn, "_shift", counted)
    z = np.array([0.3 + 0.2j, 4.0 - 2.0j, 25.0 + 1.0j])
    log_gamma(z)
    digamma(z)
    assert calls == [3, 3]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.6, max_value=40.0),
    st.floats(min_value=-40.0, max_value=40.0),
)
def test_log_gamma_recurrence_property(re, im):
    z = complex(re, im)
    lhs = log_gamma(z + 1.0)
    rhs = log_gamma(z) + np.log(z)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_conjugate_symmetry():
    z = 1.7 + 2.3j
    assert abs(np.conj(log_gamma(z)) - log_gamma(np.conj(z))) < 1e-13
    assert abs(np.conj(digamma(z)) - digamma(np.conj(z))) < 1e-13


def _fast_path_arguments():
    """Arguments on both sides of the shift radius |w| = 10, reflected ones
    (Re z < 1/2), both half-planes and large |Im z|."""
    rng = np.random.default_rng(11)
    ring = rng.uniform(9.0, 11.0, 300) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300))
    box = rng.uniform(-25, 25, 300) + 1j * rng.uniform(-25, 25, 300)
    tall = rng.uniform(-4, 4, 100) + 1j * rng.uniform(-500, 500, 100)
    return np.concatenate([ring, box, tall, [0.5, 1.0, 9.99, 10.01, -9.5 + 0.2j]])


@pytest.mark.parametrize("fn", [log_gamma, digamma])
def test_batch_equals_elements_bitwise(fn):
    z = _fast_path_arguments()
    assert np.any(np.abs(z) < 10.0) and np.any(np.abs(z) > 10.0)
    assert np.any(z.real < 0.5) and np.any(z.imag < 0) and np.any(z.imag > 0)
    batch = fn(z)
    one_by_one = np.array([fn(complex(v)) for v in z])
    assert batch.tobytes() == one_by_one.tobytes()
    # a 2-d batch gives the same bits in the same places
    assert fn(z.reshape(-1, 5)).tobytes() == batch.tobytes()


@pytest.mark.parametrize("fn", [log_gamma, digamma])
def test_batch_equals_elements_across_a_block_edge(fn):
    # one point more than a block: the last point is a block of its own
    z = np.resize(_fast_path_arguments(), gammafn._BLOCK + 1)
    batch = fn(z)
    one_by_one = np.array([fn(complex(v)) for v in z])
    assert batch.tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("fn", [log_gamma, digamma])
def test_input_array_left_unmodified(fn):
    z = _fast_path_arguments()
    before = z.copy()
    fn(z)
    assert z.tobytes() == before.tobytes()


def test_zero_dimensional_input_returns_scalar():
    for value in (2.5, 0.3 + 4.0j, np.array(-1.5 + 0.5j)):
        out = log_gamma(value)
        assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
        assert np.ndim(digamma(value)) == 0
    assert log_gamma(np.array([2.5])).shape == (1,)


def test_pole_raised_inside_a_batch():
    with pytest.raises(PoleError):
        log_gamma(np.array([1.5 + 2.0j, 30.0, -2.0, 0.25]))
    with pytest.raises(PoleError):
        digamma(np.array([3.0, 0.0]))
