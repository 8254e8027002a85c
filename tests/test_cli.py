"""CLI subcommands: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from foxh import (SpaceSpec, TestFunction, derive_invariants, htransform_repr,
                  params_to_json, validate_params)
from foxh.cli import run_cli
from foxh.mellin_barnes import _EVALUATOR_CACHE

from conftest import ZERO_PROBE_CASES, line_in_strip, random_params

EXP_PARAMS = '{"m":1,"n":0,"p":0,"q":1,"upper":[],"lower":[[0,0,1]]}'
BESSEL_PARAMS = ('{"m":1,"n":0,"p":0,"q":2,"upper":[],'
                 '"lower":[[0,0,1],[0,0,1]]}')
RATIO_PARAMS = ('{"m":1,"n":0,"p":1,"q":1,"upper":[[0,0,1]],'
                '"lower":[[1,0,1]]}')


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_exp(capsys):
    code, out, _ = run(capsys, "classify", "--params", EXP_PARAMS,
                       "--nu", "0.5", "--r", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["case"] == 6
    assert blob["a_star"] == 1.0
    assert blob["delta_cap"] == 1.0
    assert blob["admissibility"]["definition"]["admissible"] is True


def test_classify_csv_format(capsys):
    code, out, _ = run(capsys, "classify", "--params", EXP_PARAMS,
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "field,value"
    assert any(line.startswith("case,6") for line in out.splitlines())


def test_eval_csv_row(capsys):
    code, out, _ = run(capsys, "eval", "--params", EXP_PARAMS, "--x", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,re_H,im_H,trunc_bound,quad_err"
    fields = lines[1].split(",")
    assert fields[0] == "1.00000000000e+00"
    assert fields[1].startswith("3.67879441171e-01")


def test_eval_grid_and_determinism(capsys):
    args = ("eval", "--params", EXP_PARAMS, "--x-grid", "0.1:10:7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_transform_routes(capsys):
    code, out, _ = run(capsys, "transform", "--params", EXP_PARAMS,
                       "--nu", "0.5", "--r", "2", "--f", "exp",
                       "--x", "1", "--route", "mellin")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,re,im,err_est,route"
    fields = lines[1].split(",")
    assert fields[1].startswith("5.0000000")
    assert fields[4] == "mellin"


BETA_PARAMS = '{"m":1,"n":1,"p":1,"q":1,"upper":[[0,0,1]],"lower":[[0,0,1]]}'


@pytest.mark.parametrize("lam", ["1", "-1"])
def test_transform_repr_route_json(capsys, lam):
    code, out, _ = run(capsys, "transform", "--params", BETA_PARAMS, "--nu", "0.5",
                       "--r", "2", "--f", "exp", "--x", "0.5", "2", "--route", "repr",
                       "--lambda", lam, "--h", "1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["route"] == "repr"
    ref = htransform_repr(validate_params(1, 1, 1, 1, [(0.0, 1.0)], [(0.0, 1.0)]),
                          TestFunction.builtin("exp"), float(lam), 1.0, [0.5, 2.0],
                          SpaceSpec(0.5, 2.0))
    got = np.array([complex(row["re"], row["im"]) for row in blob["rows"]])
    # the JSON keeps 12 significant digits
    assert np.all(np.abs(got - ref.values) < 1e-11 * np.abs(ref.values))


# the canonical case 2 kernel at nu = 0.5, r = 2: its plan ends in EK
CASE2_PARAMS = ('{"m":2,"n":0,"p":2,"q":2,"upper":[[0.5,0,3],[0.5,0,1]],'
                '"lower":[[0.25,0,2],[0.25,0,2]]}')


def test_transform_numerical_failure_exits_1(capsys):
    # M[tpow:0](1 - s) = 1/(1 - s) does not make the a* = 0 symbol decay
    code, out, err = run(capsys, "transform", "--params", CASE2_PARAMS,
                         "--nu", "0.5", "--r", "2", "--f", "tpow:0",
                         "--x", "1", "--route", "mellin")
    assert code == 1
    assert out == "" and err.startswith("numerical-failure: ")


def test_verify_check_routes_json(capsys):
    code, out, _ = run(capsys, "verify", "--params", CASE2_PARAMS,
                       "--nu", "0.5", "--r", "2", "--check-routes")
    assert code == 0
    blob = json.loads(out)
    assert blob["routes_compared"] == ["mellin", "plan"]
    assert blob["route_agreement"]["mellin-vs-plan"] < 1e-8


def test_eval_json_rows(capsys):
    code, out, _ = run(capsys, "eval", "--params", EXP_PARAMS, "--x", "1", "2",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["x"] for row in rows] == [1.0, 2.0]
    assert set(rows[0]) == {"x", "re", "im", "trunc_bound", "quad_err"}
    assert abs(rows[1]["re"] - np.exp(-2.0)) < 1e-10


def test_eval_json_reports_contour_and_ignores_cache_history(capsys):
    # the batch sizes its own contour: a direct transform that builds the
    # full-span evaluator of the same kernel at the same tolerance first
    # leaves the eval output byte-identical
    args = ("eval", "--params", EXP_PARAMS, "--x", "0.5", "3", "--err", "1e-11",
            "--format", "json")
    _EVALUATOR_CACHE.clear()
    code, cold, _ = run(capsys, *args)
    assert code == 0
    contour = json.loads(cold)["contour"]
    assert set(contour) == {"re_line", "half_height", "nodes_per_unit"}
    assert contour["re_line"] == 1.0 and contour["half_height"] > 4.0
    _EVALUATOR_CACHE.clear()
    code, _, _ = run(capsys, "transform", "--params", EXP_PARAMS, "--nu", "0.5", "--r", "2",
                     "--f", "exp", "--x", "1", "--route", "direct")
    assert code == 0
    code, warm, _ = run(capsys, *args)
    assert code == 0 and warm == cold


def test_transform_json_plan_rows_have_null_estimates(capsys):
    code, out, _ = run(capsys, "transform", "--params", CASE2_PARAMS,
                       "--nu", "0.5", "--r", "2", "--x", "1", "2",
                       "--route", "plan", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["route"] == "plan"
    assert [row["x"] for row in blob["rows"]] == [1.0, 2.0]
    assert all(row["err_est"] is None for row in blob["rows"])


@pytest.mark.parametrize("params, route", [(EXP_PARAMS, "direct"), (CASE2_PARAMS, "mellin")])
def test_transform_auto_route(capsys, params, route):
    code, out, _ = run(capsys, "transform", "--params", params, "--nu", "0.5",
                       "--r", "2", "--x", "1", "--route", "auto")
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == route


def test_transform_inadmissible_route_exits_2(capsys):
    code, _, err = run(capsys, "transform", "--params", BESSEL_PARAMS,
                       "--nu", "0.5", "--r", "2", "--f", "exp",
                       "--x", "1", "--route", "direct")
    assert code == 2
    assert "hypothesis-failure" in err


def test_transform_violating_plan_exits_2(capsys):
    # r = 10 breaks the case-3 sharpening for the oscillatory kernel
    code, _, err = run(capsys, "transform", "--params", BESSEL_PARAMS,
                       "--nu", "0.5", "--r", "10", "--f", "exp",
                       "--x", "1", "--route", "plan")
    assert code == 2
    assert "hypothesis-failure" in err


@pytest.mark.parametrize("route", ["direct", "mellin", "plan"])
@pytest.mark.parametrize("x", ["0", "-2", "nan", "inf", "abc"])
def test_transform_bad_x_exits_64(capsys, route, x):
    code, out, err = run(capsys, "transform", "--params", EXP_PARAMS,
                         "--nu", "0.5", "--r", "2", "--f", "exp",
                         f"--x={x}", "--route", route)
    assert code == 64
    assert out == "" and "usage-error: x must be positive" in err


@pytest.mark.parametrize("lower, f", [
    ("[[0,1]]", "exp"),
    ('[[0,0,"x/y"]]', "exp"),
    ('[[0,0,"1/0"]]', "exp"),
    ("[[NaN,0,1]]", "exp"),
    ("[[0,Infinity,1]]", "exp"),
    ("[[0,0,1]]", "tpow:abc"),
    ("[[0,0,1]]", "tpow:nan"),
    ("[[0,0,1]]", "tpow:inf"),
])
def test_malformed_parameters_and_test_functions_exit_64(capsys, lower, f):
    # a malformed row, weight or offset, or a non-numeric or non-finite c
    params = '{"m":1,"n":0,"p":0,"q":1,"upper":[],"lower":%s}' % lower
    code, out, err = run(capsys, "transform", "--params", params, "--nu", "0.5",
                         "--r", "2", "--f", f, "--x", "1", "--route", "mellin")
    assert code == 64
    assert out == "" and err.startswith("usage-error: ")


def test_zeros_exceptional(capsys):
    code, out, _ = run(capsys, "zeros", "--params", RATIO_PARAMS,
                       "--nu", "1.0", "--window", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["in_exceptional_set"] is True
    assert len(blob["zeros"]) == 1


def test_zeros_none(capsys):
    code, out, _ = run(capsys, "zeros", "--params", EXP_PARAMS,
                       "--nu", "0.5", "--window", "50")
    assert code == 0
    blob = json.loads(out)
    assert blob["zeros"] == []
    assert blob["in_exceptional_set"] is False


def test_factorize_plan_json(capsys):
    code, out, _ = run(capsys, "factorize", "--params", EXP_PARAMS,
                       "--nu", "0.5", "--r", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["case"] == 6
    assert [op["op"] for op in blob["chain"]][0] == "reflect"


def test_verify_residuals(capsys):
    code, out, _ = run(capsys, "verify", "--params", EXP_PARAMS,
                       "--nu", "0.5", "--r", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["max_residual"] <= 1e-10
    assert blob["exact_cancellation"] is True


def test_verify_determinism(capsys):
    args = ("verify", "--params", EXP_PARAMS, "--nu", "0.5", "--r", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_error_exit_64_on_bad_json(capsys):
    code, _, err = run(capsys, "classify", "--params", "{bad json")
    assert code == 64
    assert "usage-error" in err


@pytest.mark.parametrize("m", ["1.7", "true"])
def test_classify_non_integer_order_exits_64(capsys, m):
    params = '{"m":%s,"n":0,"p":0,"q":1,"upper":[],"lower":[[0,0,1]]}' % m
    code, out, err = run(capsys, "classify", "--params", params)
    assert code == 64
    assert out == "" and err.startswith("usage-error: ")


def test_usage_error_exit_64_on_bad_grid(capsys):
    code, _, _ = run(capsys, "eval", "--params", EXP_PARAMS,
                     "--x-grid", "nonsense")
    assert code == 64


def test_usage_error_exit_64_on_unknown_flag(capsys):
    code = run_cli(["classify", "--nope"])
    assert code == 64


def test_params_from_file(tmp_path, capsys):
    path = tmp_path / "exp.json"
    path.write_text(EXP_PARAMS)
    code, out, _ = run(capsys, "classify", "--params", str(path))
    assert code == 0
    assert json.loads(out)["case"] == 6


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "eval", "--params", EXP_PARAMS, "--x", "1",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,re_H")


def _zeros_argv(params, nu, window):
    return ["zeros", "--params", json.dumps(params_to_json(params)),
            "--nu", repr(nu), "--window", repr(window)]


def test_zeros_exit_codes_on_hard_and_random_kernels(capsys):
    # the probe's exit code is 0, 1, 2 or 64 and no exception escapes it
    cases = list(ZERO_PROBE_CASES)
    rng = np.random.default_rng(20240814)
    for _ in range(30):
        p = random_params(rng)
        line = line_in_strip(rng, derive_invariants(p))
        cases.append((p, 1.0 - line, float(rng.choice([5.0, 10.0, 50.0]))))
    codes = []
    for params, nu, window in cases:
        code, out, _ = run(capsys, *_zeros_argv(params, nu, window))
        assert code in (0, 1, 2, 64), (params, nu, window)
        if code == 0:
            assert set(json.loads(out)) == {"line", "window", "zeros",
                                            "in_exceptional_set"}
        codes.append(code)
    assert codes[:3] == [0, 0, 0]
