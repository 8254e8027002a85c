"""Outside-in tracer: wraps foxh functions from the benchmark's side.

Nothing in the package knows about tracing.  ``Tracer.install`` replaces each
target function in every foxh namespace that holds it (modules import many
functions by name, so patching only the defining module would miss most
calls) and each target method on its class.  ``uninstall`` restores them.

Every wrapped call is a span: layer id, job id, parent span, start, end.
Spans stay in memory in a flat array and are written once, at exit.  Self
time is a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Every traced layer and the counters it reports besides calls and self_s.
# A counter given as (name, i) is the size of positional argument i, summed
# over calls; "integrand_points" and "samples" are counted by hooks in
# install(), "errors" by the exceptions a layer raises.  A layer named
# ``init`` is its class's constructor; ``engine.Multiplier.eval`` is the lazy
# function that Multiplier.apply returns.
LAYERS = {
    # routes and chain primitives
    "engine.apply_plan": (),
    "engine.htransform_direct": (("points", 2),),
    "engine.htransform_repr": (),
    "engine.htransform_mellin": (),
    "engine.plan_factorization": (),
    "engine.verify_plan_symbol": (),
    "engine.tabulate": ("samples",),
    "engine.Multiplier.apply": (),
    "engine.Multiplier.eval": (("points", 0),),
    # classical operators
    "classical.mellin_line_samples": (("nodes", 1),),
    "classical.mellin_inverse_numeric": (),
    "classical.ek_fractional": (("points", 5), "errors"),
    "classical.hankel_mod": (("points", 3),),
    "classical.laplace_mod": (("points", 3),),
    # quadrature
    "quadrature.trapezoid_line": ("integrand_points",),
    "quadrature.wynn_epsilon": (),
    # contour kernel evaluator
    "mellin_barnes.eval_hfunction_batch": (),
    "mellin_barnes.KernelEvaluator.init": (),
    "mellin_barnes.KernelEvaluator.eval": (("points", 1),),
    # symbols, gamma function, parameters
    "gammasym.GammaSymbol.eval_log": (("points", 1),),
    "gammasym.find_zeros_on_line": (),
    "gammafn.log_gamma": (("points", 0),),
    "params.derive_invariants": (),
}
LAZY_LAYER = "engine.Multiplier.eval"


def counter_names(layer: str) -> list[str]:
    """Every counter a layer reports, in order."""
    return ["calls", "self_s"] + [c if isinstance(c, str) else c[0] for c in LAYERS[layer]]


def _work_arg(layer: str):
    """(counter, argument index) of the layer's argument-size counter, or None."""
    return next((c for c in LAYERS[layer] if not isinstance(c, str)), None)


def _size(value) -> int:
    return int(np.size(value))


class Tracer:
    """Span recorder with per-layer aggregates (calls, self time, work)."""

    def __init__(self, now):
        self.now = now  # the span clock
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.work: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.spans = array("d")  # flat records: layer, job, parent, start, end
        self.job = -1
        self.active = False
        self._stack: list[list] = []  # open spans: [index, start, child time]
        self._restore: list[tuple] = []

    def count(self, key: str, n: int) -> None:
        self.work[key] = self.work.get(key, 0) + n

    def _register(self, name: str) -> int:
        self.layers.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.layers) - 1

    def _traced(self, lid: int, fn, on_call=None):
        """fn wrapped so that each call while active records one span."""
        name = self.layers[lid]
        work = _work_arg(name)
        stack, spans, clock = self._stack, self.spans, self.now

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if work is not None and len(args) > work[1]:
                self.count(f"{name}.{work[0]}", _size(args[work[1]]))
            if on_call is not None:
                args = on_call(args)
            idx = len(spans) // 5
            spans.extend((lid, self.job, stack[-1][0] if stack else -1, 0.0, 0.0))
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                spans[5 * idx + 3] = frame[1]
                spans[5 * idx + 4] = end
                self.calls[lid] += 1
                self.self_s[lid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import foxh
        from foxh.engine import LiveFunction, Multiplier

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "foxh" or n.startswith("foxh."))]

        def counting(key, fn):
            def g(x):
                self.count(key, _size(x))
                return fn(x)
            return g

        def count_integrand(args):
            key = "quadrature.trapezoid_line.integrand_points"
            return (counting(key, args[0]), *args[1:])

        def count_samples(args):
            live = args[0]
            proxy = LiveFunction(counting("engine.tabulate.samples", live),
                                 live.nu, getattr(live, "cost", 0))
            return (proxy, *args[1:])

        hooks = {"quadrature.trapezoid_line": count_integrand,
                 "engine.tabulate": count_samples}
        for layer in LAYERS:
            if layer == LAZY_LAYER:
                continue
            mod_name, *path = layer.replace(".init", ".__init__").split(".")
            owner = getattr(foxh, mod_name)
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = vars(owner)[path[-1]]
            wrapped = self._traced(self._register(layer), orig, hooks.get(layer))
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapped)

        # the multiplier step is lazy: its contour sum runs whenever the
        # function it returns is evaluated, so that evaluation is a layer too
        eval_lid = self._register(LAZY_LAYER)
        traced_apply = Multiplier.apply

        def apply(mult, live, *args, **kwargs):
            out = traced_apply(mult, live, *args, **kwargs)
            return LiveFunction(self._traced(eval_lid, out), out.nu,
                                getattr(out, "cost", 0))

        self._patch(Multiplier, "apply", apply)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def totals(self) -> dict:
        """Aggregates keyed by layer name: calls, self_s, work, errors."""
        out = {name: {"calls": c, "self_s": s}
               for name, c, s in zip(self.layers, self.calls, self.self_s)}
        for key, n in self.work.items():
            layer, counter = key.rsplit(".", 1)
            out[layer][counter] = n
        for layer, n in self.errors.items():
            out[layer]["errors"] = n
        return out

    def layer_metrics(self, passes: int, time_scale: float = 1.0) -> dict:
        """Every counter of every layer per pass, as {name: (value, unit)};
        self times are multiplied by time_scale."""
        totals = self.totals()
        return {f"{layer}.{c}": (totals[layer].get(c, 0) / passes * time_scale, "s")
                if c == "self_s" else (totals[layer].get(c, 0) / passes, "count")
                for layer in LAYERS for c in counter_names(layer)}

    def write(self, path) -> None:
        """Write every span and the layer table to one .npz file."""
        spans = np.frombuffer(self.spans, dtype=float).reshape(-1, 5)
        np.savez(path, spans=spans, layers=np.array(self.layers))
