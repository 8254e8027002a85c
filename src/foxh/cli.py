"""Command-line front end.

Subcommands: classify, eval, transform, zeros, factorize, verify.
Exit codes: 0 success, 2 hypothesis/admissibility failure, 1 internal
numerical failure, 64 unusable configuration.  All emitted numbers use a
fixed 12-significant-digit format so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .classical import TestFunction
from .engine import (
    VERIFY_POINTS,
    apply_plan,
    best_route,
    exact_cancellation,
    htransform_direct,
    htransform_mellin,
    htransform_repr,
    plan_factorization,
    verify_plan_symbol,
)
from .errors import (
    DivergentIntegralError,
    FoxHError,
    HypothesisError,
    NumericalError,
    OutOfTheoryError,
    ParameterError,
    PoleError,
    PoleOnLineError,
)
from .gammasym import find_zeros_on_line, symbol_from_params
from .mellin_barnes import eval_hfunction_batch
from .params import (
    SpaceSpec,
    admissible_range,
    derive_invariants,
    params_from_json,
)

USAGE_EXIT = 64
HYPOTHESIS_EXIT = 2
NUMERICAL_EXIT = 1


def fmt(v: float) -> str:
    if v != v:
        return "nan"
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.11e}"


def _round12(v: float):
    if isinstance(v, float):
        if math.isfinite(v):
            return float(fmt(v))
        return fmt(v)  # inf/nan as strings, keeping strict JSON
    return v


def _canon(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _round12(obj)
    return obj


def emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def dump_json(obj, out_path) -> None:
    emit(json.dumps(_canon(obj), sort_keys=True, separators=(",", ": "),
                    indent=1) + "\n", out_path)


def load_params(spec: str):
    text = spec.strip()
    if not text.startswith("{"):
        try:
            text = Path(spec).read_text()
        except OSError as exc:
            raise ParameterError(f"cannot read parameter file {spec!r}: {exc}")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"parameter JSON malformed: {exc}")
    return params_from_json(payload)


def parse_x_args(args) -> np.ndarray:
    if args.x is not None:
        try:
            return np.asarray([float(v) for v in args.x], dtype=float)
        except ValueError:
            raise ParameterError(f"x must be positive numbers, got {args.x}") from None
    if args.x_grid is not None:
        try:
            lo, hi, count = args.x_grid.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise ParameterError("--x-grid expects min:max:count")
        if lo <= 0 or hi <= lo or count < 1:
            raise ParameterError("--x-grid needs 0 < min < max and count >= 1")
        return np.geomspace(lo, hi, count)
    raise ParameterError("one of --x or --x-grid is required")


def inv_report(params) -> dict:
    inv = derive_invariants(params)
    return {
        "a_star": inv.a_star,
        "delta_cap": inv.delta_cap,
        "mu": [inv.mu.real, inv.mu.imag],
        "delta": inv.delta,
        "a1_star": inv.a1_star,
        "a2_star": inv.a2_star,
        "c_star": inv.c_star,
        "xi": [inv.xi.real, inv.xi.imag],
        "alpha": inv.alpha_low,
        "beta": inv.beta_high,
        "case": inv.case_label,
    }


def cmd_classify(args) -> int:
    params = load_params(args.params)
    report = inv_report(params)
    if args.nu is not None and args.r is not None:
        space = SpaceSpec(args.nu, args.r)
        inv = derive_invariants(params)
        table = {}
        for mode in ("definition", "direct-integral"):
            ok, reason = admissible_range(inv, space, mode)
            table[mode] = {"admissible": ok, "reason": reason}
        report["admissibility"] = table
        report["nu"] = args.nu
        report["r"] = args.r
    if args.format == "csv":
        lines = ["field,value"]
        flat = report.copy()
        for key in sorted(flat):
            val = flat[key]
            if isinstance(val, list):
                val = ";".join(fmt(float(v)) for v in val)
            elif isinstance(val, float):
                val = fmt(val)
            elif isinstance(val, dict):
                val = json.dumps(_canon(val), sort_keys=True)
            lines.append(f"{key},{val}")
        emit("\n".join(lines) + "\n", args.out)
    else:
        dump_json(report, args.out)
    return 0


def cmd_eval(args) -> int:
    params = load_params(args.params)
    xs = parse_x_args(args)
    results = eval_hfunction_batch(params, xs, None, args.err)
    if args.format == "json":
        rows = [
            {
                "x": float(x), "re": r.value.real, "im": r.value.imag,
                "trunc_bound": r.truncation_bound,
                "quad_err": r.quadrature_error_estimate,
            }
            for x, r in zip(xs, results)
        ]
        # the batch sizes its contour, so the caller sees which one it used
        c = results[0].contour_used
        contour = {"re_line": c.re_line, "half_height": c.half_height,
                   "nodes_per_unit": c.nodes_per_unit}
        dump_json({"rows": rows, "contour": contour}, args.out)
    else:
        lines = ["x,re_H,im_H,trunc_bound,quad_err"]
        for x, r in zip(xs, results):
            lines.append(",".join([
                fmt(float(x)), fmt(r.value.real), fmt(r.value.imag),
                fmt(r.truncation_bound), fmt(r.quadrature_error_estimate),
            ]))
        emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_transform(args) -> int:
    params = load_params(args.params)
    xs = parse_x_args(args)
    f = TestFunction.builtin(args.f)
    space = SpaceSpec(args.nu, args.r)
    route = args.route
    if route == "direct":
        res = htransform_direct(params, f, xs, space)
    elif route == "mellin":
        res = htransform_mellin(params, f, xs, space)
    elif route == "repr":
        res = htransform_repr(params, f, args.lam, args.h, xs, space)
    elif route == "plan":
        plan = plan_factorization(params, space.nu, space.r)
        res = apply_plan(plan, f, xs)
    else:
        res = best_route(params, f, xs, space)
    if args.format == "json":
        rows = [
            {"x": float(x), "re": v.real, "im": v.imag,
             "err_est": (None if not np.isfinite(e) else float(e))}
            for x, v, e in zip(res.xs, res.values, res.error_estimates)
        ]
        dump_json({"route": res.route, "rows": rows}, args.out)
    else:
        lines = ["x,re,im,err_est,route"]
        for x, v, e in zip(res.xs, res.values, res.error_estimates):
            lines.append(",".join([
                fmt(float(x)), fmt(v.real), fmt(v.imag),
                fmt(float(e)) if np.isfinite(e) else "nan", res.route,
            ]))
        emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_zeros(args) -> int:
    params = load_params(args.params)
    inv = derive_invariants(params)
    sym = symbol_from_params(params)
    report = find_zeros_on_line(
        sym, args.nu, args.window, strip=(inv.alpha_low, inv.beta_high)
    )
    dump_json(report.to_json(), args.out)
    return 0


def cmd_factorize(args) -> int:
    params = load_params(args.params)
    plan = plan_factorization(params, args.nu, args.r)
    dump_json(plan.to_json(), args.out)
    return 0


def cmd_verify(args) -> int:
    params = load_params(args.params)
    plan = plan_factorization(params, args.nu, args.r)
    residuals = [verify_plan_symbol(plan, points=[t]) for t in VERIFY_POINTS]
    report = {
        "case": plan.case_label,
        "line": 1.0 - args.nu,
        "points": VERIFY_POINTS,
        "residuals": residuals,
        "max_residual": max(residuals),
        "exact_cancellation": exact_cancellation(plan),
    }
    if args.check_routes:
        f = TestFunction.builtin("exp")
        xs = np.array([0.5, 1.0, 2.0])
        space = SpaceSpec(args.nu, args.r)
        values = {}
        for name, runner in (
            ("direct", lambda: htransform_direct(params, f, xs, space)),
            ("mellin", lambda: htransform_mellin(params, f, xs, space)),
            ("plan", lambda: apply_plan(plan, f, xs)),
        ):
            try:
                values[name] = runner().values
            except FoxHError:
                continue
        names = sorted(values)
        agreements = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                scale = np.maximum(np.abs(values[a]), 1e-30)
                agreements[f"{a}-vs-{b}"] = float(
                    np.max(np.abs(values[a] - values[b]) / scale)
                )
        report["routes_compared"] = names
        report["route_agreement"] = agreements
    dump_json(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="foxh",
        description="Kernel classification, evaluation, transforms and "
                    "factorization checks on weighted half-line spaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, need_space=False, need_x=False):
        p.add_argument("--params", required=True,
                       help="parameter JSON (inline or file path)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if need_space:
            p.add_argument("--nu", type=float, required=True)
            p.add_argument("--r", type=float, required=True)
        if need_x:
            p.add_argument("--x", nargs="+", default=None)
            p.add_argument("--x-grid", default=None, help="min:max:count, log spaced")

    p = sub.add_parser("classify", help="invariants, case label, admissibility")
    common(p)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--r", type=float, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="kernel values over a grid")
    common(p, need_x=True)
    p.add_argument("--err", type=float, default=1e-10)
    p.set_defaults(func=cmd_eval)
    p.set_defaults(format="csv")

    p = sub.add_parser("transform", help="transform of a named test function")
    common(p, need_space=True, need_x=True)
    p.add_argument("--f", default="exp",
                   help="test function: exp, texp, gauss, tpow:c")
    p.add_argument("--route", default="auto",
                   choices=("auto", "direct", "mellin", "repr", "plan"))
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--h", type=float, default=1.0)
    p.set_defaults(func=cmd_transform)
    p.set_defaults(format="csv")

    p = sub.add_parser("zeros", help="exceptional-set probe on Re s = 1 - nu")
    common(p)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--window", type=float, default=10.0)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("factorize", help="factorization plan as JSON")
    common(p, need_space=True)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("verify", help="plan symbol residuals and exact cancellation "
                                      "(+ route agreement)")
    common(p, need_space=True)
    p.add_argument("--check-routes", action="store_true")
    p.set_defaults(func=cmd_verify)

    return ap


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ParameterError,) as exc:
        sys.stderr.write(f"usage-error: {exc}\n")
        return USAGE_EXIT
    except (HypothesisError, OutOfTheoryError, PoleOnLineError) as exc:
        sys.stderr.write(f"hypothesis-failure: {exc}\n")
        return HYPOTHESIS_EXIT
    except (NumericalError, DivergentIntegralError, PoleError) as exc:
        sys.stderr.write(f"numerical-failure: {exc}\n")
        return NUMERICAL_EXIT


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
