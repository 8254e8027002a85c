"""foxh benchmark: four seeded workloads through the public foxh API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {plan,direct,survey,operators}
        --seed N --seconds S --trace {0,1}

Each invocation is one workload in one process, so peak memory and the
package caches belong to that workload.  The import of foxh and the set-up
(inputs, plans, references, cache warm-up) are each repeated SETUP_REPEATS
times and the sum of their medians reported.  Then whole passes over the workload's fixed job list run until
the next pass would overrun --seconds (at least one pass); checks run after
each pass, outside the timed region.

Every time reported is speed-normalised (see clock.py): the host is shared,
and its speed moves by tens of percent over seconds, so each timed interval
is rescaled by the slowdown that calibration snippets, run every few
milliseconds in the same thread, read during that interval.  The raw times
and the run's slowdown are printed on the first line of output.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced passes for
the first half of the time and traced passes for the second, prints the
per-layer metrics of the traced passes and the tracing overhead, and writes
every span to perfbench/out/.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# A stated, fixed BLAS thread count, set before numpy loads.  One thread was
# about 10% faster than the default on `direct` on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
DIGITS_CAP = 17.0  # a value equal to its reference counts as 17 digits


def import_foxh(clock):
    """Import foxh from this checkout's src/, never from anywhere else.

    The import is timed SETUP_REPEATS times (dropping the package's modules
    in between); returns the (raw, normalised) times.
    """
    if not (SRC / "foxh" / "__init__.py").is_file():
        sys.exit(f"perfbench: no foxh sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "foxh" or n.startswith("foxh.")]:
            del sys.modules[name]
        mark = clock.mark()
        import foxh
        times.append(clock.since(mark))
    if Path(foxh.__file__).resolve().parent != SRC / "foxh":
        sys.exit(f"perfbench: foxh was imported from {foxh.__file__}")
    return times


def digits(err: float) -> float:
    return DIGITS_CAP if err <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


class Pass:
    """Timings (normalised and raw) and outcomes of one pass over the jobs."""

    def __init__(self, jobs, clock, tracer=None):
        self.times, self.raw_times, self.results, self.errors = [], [], [], []
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
                tracer.active = True
            mark = clock.mark()
            try:
                out, err = job.run(), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            raw, norm = clock.since(mark)
            self.times.append(norm)
            self.raw_times.append(raw)
            if tracer is not None:
                tracer.active = False
            self.results.append(out)
            self.errors.append(err)


def run_passes(jobs, workload, seconds, clock, tracer=None):
    """Whole passes until the next one would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        workload.before_pass()
        passes.append(Pass(jobs, clock, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def job_medians(passes, raw=False):
    """Each job's median time over the passes.

    Their sum is the pass wall time with short slowdowns of the machine
    (which hit one pass of a job, not all of them) taken out.
    """
    return [statistics.median(ts)
            for ts in zip(*(p.raw_times if raw else p.times for p in passes))]


def check_passes(jobs, passes):
    """Check every returned value; returns per-job records and the totals."""
    records = []
    attempted = failed = wrong = 0
    worst = math.inf
    for p in passes:
        for job, out, exc, dt in zip(jobs, p.results, p.errors, p.times):
            attempted += 1
            if exc is not None:
                failed += 1
                records.append((job, dt, None, exc))
                continue
            err, ok = job.check(out)
            worst = min(worst, digits(err))
            if not ok:
                failed += 1
                wrong += 1
            records.append((job, dt, digits(err), None if ok else "missed its gate"))
    return records, attempted, failed, wrong, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("plan", "direct", "survey", "operators"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from clock import SpeedClock

    clock = SpeedClock()
    clock.start()
    try:
        import_times = import_foxh(clock)
        import numpy as np
        import workloads
        from tracer import Tracer

        workload = workloads.WORKLOADS[args.workload]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            workloads.clear_caches()
            mark = clock.mark()
            jobs = workload.setup(np.random.default_rng(args.seed))
            setup_times.append(clock.since(mark))

        if args.trace:
            plain = run_passes(jobs, workload, args.seconds / 2, clock)
            # spans leave out the calibration snippets, like the raw times
            tracer = Tracer(now=lambda: time.perf_counter() - clock.spent)
            tracer.install()
            try:
                passes = run_passes(jobs, workload, args.seconds / 2, clock, tracer)
            finally:
                tracer.uninstall()
        else:
            passes = run_passes(jobs, workload, args.seconds, clock)
    finally:
        clock.stop()
    # the median import plus the median set-up, normalised and raw
    setup_s = (statistics.median(norm for _, norm in import_times)
               + statistics.median(norm for _, norm in setup_times))
    raw_setup_s = (statistics.median(raw for raw, _ in import_times)
                   + statistics.median(raw for raw, _ in setup_times))

    records, attempted, failed, wrong, worst = check_passes(jobs, passes)
    job_s = job_medians(passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "blas_threads": BLAS_THREADS, "passes": len(passes),
                      "jobs": len(jobs), "raw_wall_s": sum(job_medians(passes, raw=True)),
                      "raw_setup_s": raw_setup_s,
                      "slowdown": clock.slowdown()}))
    for job, dt, dig, problem in records[: len(jobs)]:
        print(json.dumps({"job": job.name, "s": round(dt, 6),
                          "digits": None if dig is None else round(dig, 2),
                          "reference": job.reference, "problem": problem}))

    if args.trace:
        metrics = layer_metrics(tracer, passes, plain)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = {
            "wall_s": (sum(job_s), "s"),
            "slowest_job_s": (max(job_s), "s"),
            "min_digits": (worst if math.isfinite(worst) else 0.0, "digits"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, traced, plain) -> dict:
    """Per-pass layer aggregates of the traced passes, plus the overhead.

    The tracer's self times are raw; they are rescaled by the traced passes'
    normalised-to-raw ratio so that they add up with wall_s.
    """
    n = len(traced)
    scale = sum(sum(p.times) for p in traced) / sum(sum(p.raw_times) for p in traced)
    out = tracer.layer_metrics(n, scale)
    quad = tracer.totals()["quadrature.trapezoid_line"]
    out["quadrature.points_per_output"] = (
        quad.get("integrand_points", 0) / quad["calls"] if quad["calls"] else 0.0, "count")
    traced_wall = sum(job_medians(traced))
    plain_wall = sum(job_medians(plain))
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.spans"] = (len(tracer.spans) // 5 / n, "count")
    return out


if __name__ == "__main__":
    sys.exit(main())
