#!/usr/bin/env python3
"""The endok benchmark: one workload, one process, one client thread.

    python3 perfbench/run.py --workload fp-tuples --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy, and the benchmark exits
with status 2 when that is not possible.  ``ENDOK_KERNEL`` is read for the
record but never set.

The loop is closed: the next op starts when the previous one returns.
Inputs come from ``--seed`` alone (see ``workloads.py``).  Times are
reported in reference seconds: wall seconds scaled by a calibration task
run before every op (see ``speed.py``).  Every output is
checked after the timed loop by ``check.py``; a failed check or an
exception lowers ``ok_frac`` and never aborts the run.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` the run spends half of ``--seconds`` untraced, half
with span recorders wrapped around the package's layers (``spans.py``),
and the last line holds the per-layer metrics.  Each run also writes its
result and environment to ``perfbench/out/`` as one JSON document, and a
traced run writes its spans there too.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 3  # setup_s is the import plus the median of these
SETUP_TASKS = 5  # calibration runs between set-ups


def metric_units():
    """(end-to-end units, per-layer units) by metric name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


def load_endok():
    """Import endok from ROOT/src; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import endok

    where = Path(endok.__file__).resolve().parent
    if where != src / "endok":
        raise ImportError(f"endok was imported from {where}, not from {src}")
    return endok


def environment(endok, args):
    import numpy

    from endok import _kernels

    return {
        "kernel_backend": _kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "endok_kernel_env": os.environ.get("ENDOK_KERNEL"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "endok": endok.__version__,
    }


class Loop:
    """What one closed loop measured: per-op wall seconds, the calibration
    time taken just before each op, and the outputs as (case, result,
    exception)."""

    def __init__(self):
        self.wall, self.task, self.outputs = [], [], []

    def op_seconds(self):
        """Per-op times in reference seconds."""
        return [w * s for w, s in zip(self.wall, speed.scales(self.task))]


def closed_loop(workload, cases, seconds, run=None):
    """Run ops back to back for ``seconds``."""
    loop = Loop()
    clock = time.perf_counter
    start = clock()
    k = 0
    while True:
        case = cases[k % len(cases)]
        loop.task.append(speed.calibrate())
        t0 = clock()
        try:
            result = run(workload.op, case) if run else workload.op(case)
            error = None
        except Exception as exc:  # an op failure is counted, never fatal
            result, error = None, exc
        loop.wall.append(clock() - t0)
        loop.outputs.append((case, result, error))
        k += 1
        if clock() - start >= seconds:
            return loop


def count_ok(workload, checker, outputs):
    ok = 0
    reported = False
    for case, result, error in outputs:
        if error is None:
            try:
                ok += workload.check(checker, case, result)
            except (ValueError, KeyError, TypeError) as exc:
                error = exc
        if error is not None and not reported:
            reported = True
            print(f"op failed on {case.label}:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
    return ok


def end_to_end(samples, ok, setup_s):
    """End-to-end metrics from per-op reference seconds."""
    return {
        "op_s.p50": statistics.median(samples),
        "ops_per_s": len(samples) / sum(samples),
        "ok_frac": ok / len(samples),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def p90(samples):
    """The p90 of per-op seconds, or None unless ten samples lie beyond it."""
    if len(samples) < 11:
        return None
    value = statistics.quantiles(samples, n=10)[-1]
    return value if sum(x > value for x in samples) >= 10 else None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        endok = load_endok()
    except ImportError as exc:
        print(f"error: cannot import endok from the checkout: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    from check import Checker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # each set-up is scaled by the calibration runs on either side of it
    speed.calibrate()
    before = [speed.calibrate() for _ in range(SETUP_TASKS)]
    import_ref_s = import_s * speed.REFERENCE_S / statistics.median(before)
    reps = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        cases = workload.build(args.seed)
        try:
            workload.op(cases[0])  # untimed warm-up
        except Exception:  # the timed loop counts and reports failures
            pass
        wall = time.perf_counter() - t0
        after = [speed.calibrate() for _ in range(SETUP_TASKS)]
        reps.append(wall * speed.REFERENCE_S / statistics.median(before + after))
        before = after
    setup_s = import_ref_s + statistics.median(reps)

    e2e_units, layer_units = metric_units()
    checker = Checker()
    t_loop = time.perf_counter()
    if args.trace:
        metrics, attempted, ok, spans = traced_run(workload, cases, args, checker)
        units = layer_units
    else:
        loop = closed_loop(workload, cases, args.seconds)
        ok = count_ok(workload, checker, loop.outputs)
        attempted = len(loop.wall)
        metrics = end_to_end(loop.op_seconds(), ok, setup_s)
        units = e2e_units
        spans = None

    phases = {
        "import_wall_s": import_s,
        "setup_reps_s": reps,
        "loop_and_check_wall_s": time.perf_counter() - t_loop,
    }
    if not args.trace:
        samples = loop.op_seconds()
        phases["samples"] = len(samples)
        phases["op_s.p90"] = p90(samples)
        phases["wall_op_s.p50"] = statistics.median(loop.wall)
        phases["scale.p50"] = statistics.median(speed.scales(loop.task))
    env = environment(endok, args)
    result = {
        "correct": ok == attempted,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    write_record(args, env, phases, result, spans)
    print("env " + json.dumps(env, sort_keys=True))
    print("phases " + json.dumps(phases))
    print(json.dumps(result))
    return 0


def traced_run(workload, cases, args, checker):
    from spans import Tracer, layer_metrics

    half = args.seconds / 2
    base = closed_loop(workload, cases, half)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(workload, cases, half, run=tracer.op)
    finally:
        tracer.remove()
    metrics = layer_metrics(tracer.spans, speed.scales(traced.task))
    base_s, traced_s = base.op_seconds(), traced.op_seconds()
    untraced_rate = len(base_s) / sum(base_s)
    traced_rate = len(traced_s) / sum(traced_s)
    metrics["trace.overhead_frac"] = 1 - traced_rate / untraced_rate
    ok = count_ok(workload, checker, base.outputs + traced.outputs)
    return metrics, len(base_s) + len(traced_s), ok, tracer.spans


def write_record(args, env, phases, result, spans):
    """One JSON document per run, appendable to a BENCH_*.json trend."""
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "phases": phases, **result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        names = ("name", "start", "end", "parent", "op")
        with open(OUT / f"spans-{args.workload}.json", "w") as fh:
            json.dump({"fields": names, "spans": [s[:5] for s in spans]}, fh)


if __name__ == "__main__":
    sys.exit(main())
