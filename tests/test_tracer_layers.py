"""Every layer the benchmark tracer wraps must exist in foxh.

perfbench/tracer.py names the functions and methods it times by dotted path
(``LAYERS``).  Installing the tracer resolves each path and fails on one that
no longer exists, so a rename in foxh shows up here, not first in a traced
benchmark run.  The tracer module is loaded from its file, without writing
bytecode next to it, and is uninstalled again before each test returns.
A traced plan run also shows which layers a chain reaches, and that the
tracer's wrappers hand lattice reads on.
"""

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import foxh
from foxh.quadrature import LineRule

from conftest import canonical_params

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    prev, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = prev
    return module


def test_every_traced_layer_resolves():
    tracer = _load_tracer()
    t = tracer.Tracer(time.perf_counter)
    try:
        t.install()
    finally:
        t.uninstall()
    assert sorted(t.layers) == sorted(tracer.LAYERS)


def test_plan_route_tabulates_and_skips_the_pointwise_laplace():
    # case 5 chains two Laplace steps: both sum on their input's table's
    # lattice, so the traced run sees samples and no laplace_mod call
    tracer = _load_tracer()
    t = tracer.Tracer(time.perf_counter)
    params, nu, r = canonical_params(5)
    plan = foxh.plan_factorization(params, nu, r)
    try:
        t.install()
        t.active = True
        foxh.apply_plan(plan, foxh.TestFunction.power_exp(1.0, 1.0), np.array([0.5, 1.3, 3.0]))
    finally:
        t.active = False
        t.uninstall()
    assert t.work.get("engine.tabulate.samples", 0) > 0
    assert t.totals()["classical.laplace_mod"]["calls"] == 0


@pytest.mark.parametrize("case", [5, 8])
def test_traced_plan_reads_its_multiplier_on_lattices(case, monkeypatch):
    # the tracer wraps tabulate's input and the multiplier's output in
    # LiveFunctions over plain closures.  The lattice argument passes
    # through them: the multiplier is still summed pointwise only at the
    # caller's xs, and the wrappers still count every lattice point read
    # (the multiplier's output table alone holds over 1,600)
    sizes = []
    pointwise = LineRule.__call__

    def counting(rule, logx):
        sizes.append(np.size(logx))
        return pointwise(rule, logx)

    monkeypatch.setattr(LineRule, "__call__", counting)
    tracer = _load_tracer()
    t = tracer.Tracer(time.perf_counter)
    plan = foxh.plan_factorization(*canonical_params(case))
    xs = np.array([0.5, 1.3, 3.0])
    try:
        t.install()
        t.active = True
        foxh.apply_plan(plan, foxh.TestFunction.power_exp(1.0, 1.0), xs)
    finally:
        t.active = False
        t.uninstall()
    assert max(sizes, default=0) <= xs.size
    points = t.work.get("engine.Multiplier.eval.points", 0)
    assert 1600 < points <= t.work.get("engine.tabulate.samples", 0)
