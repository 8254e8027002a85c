"""Every layer the benchmark tracer wraps must exist in foxh.

perfbench/tracer.py names the functions and methods it times by dotted path
(``LAYERS``).  Installing the tracer resolves each path and fails on one that
no longer exists, so a rename in foxh shows up here, not first in a traced
benchmark run.  The tracer module is loaded from its file, without writing
bytecode next to it, and is uninstalled again before the test returns.
"""

import importlib.util
import sys
import time
from pathlib import Path

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
