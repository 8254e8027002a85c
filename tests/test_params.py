"""Parameter validation, invariants, nine-case classification, spaces."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from foxh import (
    OutOfTheoryError,
    ParameterError,
    SpaceSpec,
    admissible_range,
    classify_case,
    derive_invariants,
    params_from_json,
    params_to_json,
    transpose_params,
    validate_params,
)
from foxh.gammasym import symbol_from_params

from conftest import canonical_params, random_params


# -- validate_params --------------------------------------------------------

def test_validate_canonical_exp_kernel():
    p = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])
    assert (p.m, p.n, p.p, p.q) == (1, 0, 0, 1)


def test_validate_order_violation():
    with pytest.raises(ParameterError, match="m exceeds q"):
        validate_params(2, 0, 0, 1, [], [(0.0, 1.0)])
    with pytest.raises(ParameterError, match="n exceeds p"):
        validate_params(0, 1, 0, 1, [], [(0.0, 1.0)])


def test_validate_weight_positivity():
    with pytest.raises(ParameterError, match="non-positive weight"):
        validate_params(1, 0, 0, 1, [], [(0.0, 0.0)])


def test_validate_length_mismatch():
    with pytest.raises(ParameterError, match="length mismatch"):
        validate_params(1, 0, 1, 1, [], [(0.0, 1.0)])


# -- derive_invariants ------------------------------------------------------

def test_invariants_exp_kernel_direct_evaluation():
    p = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])
    inv = derive_invariants(p)
    assert inv.a_star == 1.0
    assert inv.delta_cap == 1.0
    assert inv.mu == -0.5
    assert inv.delta == 1.0
    assert inv.a1_star == 1.0
    assert inv.a2_star == 0.0
    assert inv.c_star == 0.5
    assert inv.xi == 0.0
    assert inv.alpha_low == 0.0
    assert inv.beta_high == math.inf
    assert inv.case_label == 6


def test_invariants_bessel_kernel():
    p = validate_params(1, 0, 0, 2, [], [(0.0, 1.0), (0.0, 1.0)])
    inv = derive_invariants(p)
    assert inv.a_star == 0.0
    assert inv.delta_cap == 2.0
    assert inv.mu == -1.0
    assert inv.a1_star == 1.0
    assert inv.a2_star == -1.0
    assert inv.delta == 1.0
    assert inv.alpha_low == 0.0
    assert inv.beta_high == math.inf
    assert inv.case_label == 3


def test_invariants_symmetric_cancellation():
    p = validate_params(1, 1, 2, 2, [(0.0, 1.0), (1.0, 1.0)],
                        [(0.0, 1.0), (1.0, 1.0)])
    inv = derive_invariants(p)
    assert inv.a_star == 0.0
    assert inv.delta_cap == 0.0
    assert inv.delta == 1.0
    assert inv.mu == 0.0
    assert inv.case_label == 1


def test_sum_difference_identity_exact(rng):
    for _ in range(300):
        inv = derive_invariants(random_params(rng))
        assert inv.a_star == inv.a1_star + inv.a2_star
        assert inv.delta_cap == inv.a1_star - inv.a2_star


def test_permutation_invariance():
    base = validate_params(
        2, 2, 4, 4,
        [(0.3 + 0.1j, 0.7), (-0.2, 1.3), (0.9, 0.5), (0.1, 1.1)],
        [(0.5, 0.8), (-0.4 + 0.2j, 1.2), (0.7, 0.9), (0.0, 0.6)],
    )
    swapped = validate_params(
        2, 2, 4, 4,
        [(-0.2, 1.3), (0.3 + 0.1j, 0.7), (0.1, 1.1), (0.9, 0.5)],
        [(-0.4 + 0.2j, 1.2), (0.5, 0.8), (0.0, 0.6), (0.7, 0.9)],
    )
    a = derive_invariants(base)
    b = derive_invariants(swapped)
    for field in ("a_star", "delta_cap", "mu", "delta", "a1_star", "a2_star",
                  "c_star", "xi", "alpha_low", "beta_high"):
        assert getattr(a, field) == getattr(b, field)


def test_delta_log_space_matches_direct_product(rng):
    for _ in range(60):
        p = random_params(rng)
        inv = derive_invariants(p)
        direct = 1.0
        for w in p.upper_weights:
            direct *= w ** (-w)
        for w in p.lower_weights:
            direct *= w ** w
        assert abs(inv.delta - direct) <= 1e-14 * direct


# -- classify_case ----------------------------------------------------------

def test_classify_canonical_cases():
    for case in range(1, 10):
        p, _, _ = canonical_params(case)
        assert derive_invariants(p).case_label == case


def test_classify_exclusive_and_exhaustive(rng):
    hits = 0
    for _ in range(400):
        inv = derive_invariants(random_params(rng))
        preds = _nine_predicates(inv)
        if inv.case_label is None:
            assert sum(preds) == 0
            with pytest.raises(OutOfTheoryError):
                classify_case(inv)
        else:
            assert sum(preds) == 1
            assert preds[inv.case_label - 1]
            hits += 1
    assert hits > 100  # random kernels do land inside the theory


def _nine_predicates(inv):
    a, d, m = inv.a_star, inv.delta_cap, inv.mu.real
    a1, a2 = inv.a1_star, inv.a2_star
    tol = 1e-12
    z = lambda v: abs(v) <= tol
    return [
        z(a) and z(d) and z(m),
        z(a) and z(d) and m < -tol,
        z(a) and d > tol,
        z(a) and d < -tol,
        a1 > tol and a2 > tol,
        a1 > tol and z(a2),
        z(a1) and a2 > tol,
        a > tol and a1 > tol and a2 < -tol,
        a > tol and a1 < -tol and a2 > tol,
    ]


def test_classify_out_of_theory_reason():
    # a* < 0: all weights downstairs
    p = validate_params(0, 0, 1, 1, [(0.0, 1.0)], [(0.0, 1.0)])
    inv = derive_invariants(p)
    assert inv.case_label is None
    with pytest.raises(OutOfTheoryError, match="a"):
        classify_case(inv)


def test_exact_rational_boundary_classification():
    blob = {
        "m": 1, "n": 1, "p": 2, "q": 2,
        "upper": [[0.0, 0.0, "1/3"], [0.5, 0.0, "2/3"]],
        "lower": [[0.0, 0.0, "1/2"], [0.5, 0.0, "1/2"]],
    }
    p = params_from_json(json.dumps(blob))
    inv = derive_invariants(p)
    # exact: a1* = 1/2 - 2/3 = -1/6, a2* = 1/3 - 1/2 = -1/6, a* = -1/3 < 0
    assert inv.a1_exact == Fraction(-1, 6)
    assert inv.a_star_exact == Fraction(-1, 3)
    assert inv.case_label is None


# -- SpaceSpec and admissible_range ----------------------------------------

def test_space_gamma_r():
    assert SpaceSpec(0.5, 2.0).gamma_r == 0.5
    assert SpaceSpec(0.5, 3.0).gamma_r == pytest.approx(2.0 / 3.0)
    assert SpaceSpec(0.5, 1.5).gamma_r == pytest.approx(2.0 / 3.0)
    assert SpaceSpec(0.5, 1.0).gamma_r == 1.0
    with pytest.raises(ParameterError):
        SpaceSpec(0.5, 0.8)


def test_admissible_exp_kernel_definition():
    p = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])
    inv = derive_invariants(p)
    ok, reason = admissible_range(inv, SpaceSpec(0.5, 2.0), "definition")
    assert ok and "a* > 0" in reason


def test_admissible_bessel_direct_fails():
    p = validate_params(1, 0, 0, 2, [], [(0.0, 1.0), (0.0, 1.0)])
    inv = derive_invariants(p)
    ok, reason = admissible_range(inv, SpaceSpec(0.5, 2.0), "direct-integral")
    assert not ok
    assert ">= -1" in reason
    ok2, _ = admissible_range(inv, SpaceSpec(0.5, 2.0), "definition")
    assert ok2


def test_admissible_strip_boundary():
    p = validate_params(1, 0, 0, 1, [], [(0.0, 1.0)])
    inv = derive_invariants(p)
    ok, reason = admissible_range(inv, SpaceSpec(1.0, 2.0), "definition")
    assert not ok and reason == "strip boundary"


# -- JSON schema ------------------------------------------------------------

def test_json_roundtrip_with_rational_weights():
    blob = {"m": 1, "n": 0, "p": 0, "q": 1, "upper": [],
            "lower": [[0.25, -0.5, "3/4"]]}
    p = params_from_json(json.dumps(blob))
    assert p.lower[0] == (0.25 - 0.5j, 0.75)
    assert p.lower_exact[0] == Fraction(3, 4)
    back = params_to_json(p)
    assert back["lower"][0][2] == "3/4"
    p2 = params_from_json(json.dumps(back))
    assert p2 == p


def test_json_malformed():
    with pytest.raises(ParameterError):
        params_from_json('{"m": 1}')


@pytest.mark.parametrize("m", ["1.7", "true", "false", "\"1\"", "null"])
def test_json_rejects_non_integer_orders(m):
    # int() would read 1.7 and true as 1
    blob = '{"m": %s, "n": 0, "p": 0, "q": 1, "upper": [], "lower": [[0, 0, 1]]}' % m
    with pytest.raises(ParameterError, match="orders m, n, p, q must be integers"):
        params_from_json(blob)


def test_json_accepts_integral_float_orders():
    blob = '{"m": 1.0, "n": 0, "p": 0, "q": 1, "upper": [], "lower": [[0, 0, 1]]}'
    assert params_from_json(blob).m == 1


# -- transposition ----------------------------------------------------------

def test_transpose_symbol_reflects_argument(rng):
    for _ in range(25):
        p = random_params(rng)
        tp = transpose_params(p)
        sym = symbol_from_params(p)
        tsym = symbol_from_params(tp)
        for _ in range(3):
            s = complex(rng.uniform(-0.6, 1.4), rng.uniform(-2.0, 2.0))
            try:
                a = tsym.eval_log(s)
                b = sym.eval_log(1.0 - s)
            except Exception:
                continue
            assert abs(np.exp(a - b) - 1.0) < 1e-10


def test_transpose_swaps_case_partners():
    for case, partner in ((3, 4), (6, 7), (8, 9)):
        p, _, _ = canonical_params(case)
        assert derive_invariants(transpose_params(p)).case_label == partner
        assert derive_invariants(
            transpose_params(transpose_params(p))).case_label == case
