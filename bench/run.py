"""Benchmark of alghom's public API on three exact-arithmetic workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; alghom is imported from its src/.  The
load is a closed loop in one process and one thread: passes over the
workload's jobs, one job at a time, each on freshly built inputs, for as
many passes as fit in S seconds (at least one).  Every answer is checked; a job
that raises, exits non-zero or answers wrong counts as failed.

--trace 0 prints the end-to-end metrics: wall_s (one pass: the sum over
jobs of each job's median time across passes), peak_rss_mb and setup_s
(median of SETUP_SAMPLES fresh processes that import alghom and build
the inputs).  --trace 1 runs one untraced pass, then traced passes, and
prints the per-layer metrics of tracing.py.  The last line of standard
output is the JSON result; WORK_DIR receives the full result with its
environment block, and the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
WORKLOADS = ("excision-corpus", "excision-rebased", "homology-presets")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def import_alghom():
    """Import alghom from this checkout's src/, or exit with an error."""
    package = os.path.join(SRC_DIR, "alghom")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit("error: alghom sources not found at %s" % package)
    sys.path.insert(0, SRC_DIR)
    import alghom
    if os.path.dirname(os.path.abspath(alghom.__file__)) != package:
        sys.exit("error: imported alghom from %s, not %s"
                 % (alghom.__file__, package))


def setup(workload: str, seed: int):
    """Import alghom and build the workload's inputs: (jobs, info)."""
    import_alghom()
    import workloads
    return workloads.SETUPS[workload](seed, os.path.join(WORK_DIR, "inputs"),
                                      workloads.load_reference())


def setup_seconds(workload: str, seed: int) -> float:
    """Time of setup() in a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("error: setup failed:\n%s" % proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def environment(loadavg) -> dict:
    from alghom import linalg
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "rational_backend": linalg.Q.__module__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(loadavg),
    }


# -- the closed loop -------------------------------------------------


def run_pass(jobs, recorder=None):
    """Run every job once on fresh inputs.  Returns (times, errors), one
    entry per job; an error is None when the answer was right."""
    times, errors = [], []
    for job in jobs:
        args = job.make()
        gc.collect()
        if recorder is not None:
            recorder.active = True
        start = time.perf_counter()
        try:
            result, error = job.run(*args), None
        except SystemExit as exc:          # argparse inside cli.main
            result, error = None, "exited with %r" % (exc.code,)
        except Exception as exc:           # a failed job is counted, not fatal
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        times.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.active = False
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:
                error = "unreadable answer: %s: %s" % (type(exc).__name__, exc)
        errors.append(None if error is None else "%s: %s" % (job.name, error))
    return times, errors


def typical_pass(passes) -> float:
    """Sum over jobs of each job's median time across passes."""
    return sum(statistics.median(p[0][j] for p in passes)
               for j in range(len(passes[0][0])))


def _time_left(start: float, seconds: float, passes) -> bool:
    """Whether another pass, as long as the longest so far, ends within
    the run's seconds."""
    longest = max(sum(p[0]) for p in passes)
    return time.perf_counter() - start + longest <= seconds


def measure(jobs, seconds: float):
    start = time.perf_counter()
    passes = [run_pass(jobs)]
    while _time_left(start, seconds, passes):
        passes.append(run_pass(jobs))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": (typical_pass(passes), "s"),
               "peak_rss_mb": (rss_mib, "MiB")}
    return passes, metrics, None


def measure_traced(jobs, seconds: float):
    import tracing
    start = time.perf_counter()
    base = run_pass(jobs)
    passes, per_pass = [base], []
    while not per_pass or _time_left(start, seconds, passes[1:]):
        with tracing.Recorder() as recorder:
            done = run_pass(jobs, recorder)
        passes.append(done)
        per_pass.append((tracing.layer_metrics(recorder, sum(done[0])),
                         sum(done[0])))
    counts = [{k: v for k, v in m.items() if k in tracing.COUNT_METRICS}
              for m, _ in per_pass]
    if any(c != counts[0] for c in counts):
        print("warning: counts differ between traced passes", file=sys.stderr)
    metrics = {name: (statistics.median(m[name] for m, _ in per_pass),
                      _unit(name)) for name in per_pass[0][0]}
    traced_wall = statistics.median(w for _, w in per_pass)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / sum(base[0]), "ratio")
    return passes, metrics, recorder.spans


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


# -- entry point -----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        start = time.perf_counter()
        setup(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    loadavg = os.getloadavg()
    import_alghom()
    env = environment(loadavg)
    print("environment %s" % json.dumps(env))
    setup_samples = [] if args.trace else [
        setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    jobs, info = setup(args.workload, args.seed)
    for line in info:
        print(line)

    if args.trace:
        passes, metrics, spans = measure_traced(jobs, args.seconds)
    else:
        passes, metrics, spans = measure(jobs, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_samples), "s")

    errors = [e for p in passes for e in p[1] if e is not None]
    attempted = sum(len(p[1]) for p in passes)
    for error in errors:
        print("FAILED %s" % error, file=sys.stderr)
    print("workload %s seed %d: %d passes, %d jobs each"
          % (args.workload, args.seed, len(passes), len(jobs)))
    for name, (value, unit) in metrics.items():
        print("metric %s %r %s" % (name, value, unit))
    print("failed_ops %r ratio (%d of %d jobs)"
          % (len(errors) / attempted, len(errors), attempted))

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(WORK_DIR, exist_ok=True)
    stem = os.path.join(WORK_DIR, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "environment": env, "inputs": info,
                   "setup_samples_s": setup_samples, "errors": errors,
                   "failed_ops": len(errors) / attempted,
                   "pass_times_s": [p[0] for p in passes]}, fh, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump(spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
