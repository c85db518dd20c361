#!/usr/bin/env python3
"""gesturelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload (see workloads.py) sets itself up from the
seed three times (reporting the median set-up time), runs one untimed
warm-up operation, then runs operations back to back for S seconds and
checks each output.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation installed.  With ``--trace 1`` the run sets up once with
tracing on, then alternates an untraced and a traced unit of work for S
seconds; it reports per-layer metrics for one set-up plus one unit
(median over the traced units) and the tracing overhead, and writes the
spans of the set-up and the first traced unit to ``.perfbench/traces/``.
``--workload all`` runs every workload in a fresh process and prints a
table.

The BLAS thread count is fixed at 1 before numpy loads.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = 1
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "accuracy": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}
TRACE_UNITS = {
    "trace.untraced_unit_s": "s",
    "trace.traced_unit_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_metrics": "count",
}


def pin_blas_threads():
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(BLAS_THREADS, nproc))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return nproc, threads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc, threads = pin_blas_threads()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import gesturelab from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2

    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = run_traced if args.trace else run_untraced
        results, metrics, info = run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    info.update(environment(args, nproc, threads))
    info["misses"] = [r.note for r in results if not r.ok][:10]
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


class OpRunner:
    """Runs one operation, times it, and records its checked outcome."""

    def __init__(self, workload, state, results):
        import workloads
        from gesturelab.errors import GestureLabError

        self.workload = workload
        self.state = state
        self.results = results
        self.miss = workloads.miss
        self.errors = GestureLabError

    def __call__(self, i):
        """Run operation i; returns its (start, end) times."""
        t0 = time.perf_counter()
        try:
            output = self.workload.run_op(self.state, i)
        except self.errors as exc:
            t1 = time.perf_counter()
            self.results.append(self.miss(f"op {i}: {type(exc).__name__}: {exc}"))
            return t0, t1
        t1 = time.perf_counter()
        try:
            result = self.workload.check(self.state, i, output)
        except self.errors as exc:
            result = self.miss(f"op {i} check: {type(exc).__name__}: {exc}")
        self.results.append(result)
        return t0, t1


def fresh_dir(parent, name):
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics


def run_untraced(workload, args, workdir):
    from speed import SpeedProbe

    speed = SpeedProbe()
    setups = []
    ops = []
    results = []
    state = None
    with speed:
        for _ in range(SETUP_REPEATS):
            state = None
            release_heap()
            setup_dir = fresh_dir(workdir, "setup")
            t0 = time.perf_counter()
            state = workload.setup(args.seed, setup_dir)
            setups.append((t0, time.perf_counter()))
        release_heap()

        op = OpRunner(workload, state, results)
        op(0)  # warm-up: checked, not timed
        deadline = time.perf_counter() + args.seconds
        i = 1
        while True:
            ops.append(op(i))
            i += 1
            if time.perf_counter() >= deadline:
                break
    workload.finish(state, results)

    # Durations at the baseline machine's speed (see speed.py).
    ms = sorted(speed.scaled(t0, t1) * 1e3 for t0, t1 in ops)
    raw_ms = sorted(speed.net(t0, t1) * 1e3 for t0, t1 in ops)
    hits = sum(r.hits for r in results)
    total = sum(r.total for r in results)
    failed = sum(not r.ok for r in results)
    values = {
        "setup_s": statistics.median(speed.scaled(t0, t1) for t0, t1 in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / len(results),
        "accuracy": hits / total if total else 0.0,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": percentile(ms, 90.0),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    info = {
        "workload": workload.name,
        "speed_factor": speed.factor(),
        "speed_probes": len(speed.samples),
        "unscaled": {
            "setup_s": statistics.median(speed.net(t0, t1) for t0, t1 in setups),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p90_ms": percentile(raw_ms, 90.0),
        },
        "timed_ops": len(ms),
        "ops_beyond_p90": sum(x > values["latency_p90_ms"] for x in ms),
        "error_rate": failed / len(results),
    }
    return results, metrics, info


def release_heap():
    """Return freed memory to the OS so that set-up garbage does not
    decide how much of the timed part's memory is fresh pages."""
    import ctypes
    import gc

    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def percentile(sorted_values, q):
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics


def run_traced(workload, args, workdir):
    from tracer import UNITS, Tracer

    tracer = Tracer()
    results = []
    origin = time.perf_counter()
    with tracer:
        tracer.request = "setup"
        start = tracer.mark()
        root = tracer.begin("bench.setup")
        state = workload.setup(args.seed, fresh_dir(workdir, "setup"))
        tracer.end(root)
        setup_phase = (start, tracer.mark())

    op = OpRunner(workload, state, results)
    unit = workload.ops_per_unit(state)
    untraced, traced, phases = [], [], []
    deadline = time.perf_counter() + args.seconds
    # Every unit runs operations 0..unit-1, so the counts of one traced
    # unit repeat exactly.
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for i in range(unit):
            op(i)
        untraced.append(time.perf_counter() - t0)
        with tracer:
            begin = tracer.mark()
            t0 = time.perf_counter()
            for i in range(unit):
                tracer.request = f"unit{len(traced)}.op{i}"
                span = tracer.begin("bench.op")
                op(i)
                tracer.end(span)
            traced.append(time.perf_counter() - t0)
            phases.append((begin, tracer.mark()))
    workload.finish(state, results)

    per_unit = [tracer.metrics([setup_phase, phase]) for phase in phases]
    absent = tracer.absent()
    metrics = {}
    for name, unit_name in UNITS.items():
        value = 0.0 if name in absent else statistics.median(m[name] for m in per_unit)
        metrics[name] = {"value": value, "unit": unit_name}
    trace_values = {
        "trace.untraced_unit_s": statistics.median(untraced),
        "trace.traced_unit_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.absent_metrics": len(absent),
    }
    for name, value in trace_values.items():
        metrics[name] = {"value": value, "unit": TRACE_UNITS[name]}

    info = {
        "workload": workload.name,
        "absent": absent,
        "missing_targets": tracer.missing,
        "units_traced": len(traced),
        "ops_per_unit": unit,
    }
    info["trace_file"] = write_trace(tracer, args, origin, setup_phase, phases[0], per_unit, info)
    return results, metrics, info


def write_trace(tracer, args, origin, setup_phase, first_unit, per_unit, info):
    """Spans of the set-up and the first traced unit, plus per-unit metrics."""
    out_dir = os.path.join(STATE_DIR, "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
    spans = []
    for s0, s1 in ((setup_phase[0][0], setup_phase[1][0]), (first_unit[0][0], first_unit[1][0])):
        for index in range(s0, s1):
            span = tracer.spans[index]
            spans.append({
                "id": index,
                "name": span.name,
                "start_s": span.start - origin,
                "end_s": span.end - origin,
                "parent": span.parent,
                "request": span.request,
            })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"info": info, "per_unit_metrics": per_unit, "spans": spans}, fh)
    return os.path.relpath(path, ROOT)


# ---------------------------------------------------------------------------


def environment(args, nproc, threads):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": nproc,
        "blas_threads": threads,
        "blas_threads_reported": blas_thread_count(),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def blas_thread_count():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


# ---------------------------------------------------------------------------


def run_all(args):
    names = ("extract", "recognize", "sweep", "ablation")
    rows = {}
    status = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        rows[name] = result
        if not result["correct"]:
            status = 1
    for name, result in rows.items():
        error_rate = result["failed"] / result["attempted"]
        print(f"{name}: attempted={result['attempted']} failed={result['failed']} "
              f"error_rate={error_rate:g} correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"workloads": rows}))
    return status


if __name__ == "__main__":
    sys.exit(main())
