"""Log-gamma and digamma kernels against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import digamma as scipy_digamma, loggamma as scipy_loggamma

from foxh import PoleError, digamma, log_gamma


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
    rng = np.random.default_rng(5)
    z = rng.uniform(-8, 8, 2000) + 1j * rng.uniform(-8, 8, 2000)
    z = z[np.abs(z.imag) + np.abs(z.real - np.round(z.real)) > 1e-6]
    assert np.max(np.abs(digamma(z) - scipy_digamma(z))) < 5e-13


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
