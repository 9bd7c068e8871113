"""Benchmark runner for dstlift: one workload, one process, closed loop.

    python3 bench/run.py --workload lift-solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It builds the workload's inputs
from --seed, warms up, then runs passes over the workload's fixed job list,
one job at a time, until --seconds have passed (at least two passes, so every
job's output is compared across passes).  Every job's output is checked.

stdout ends with two JSON lines: the environment with sample counts and
failures, then the result `{"correct", "attempted", "failed", "metrics"}`.
stderr gets a readable table.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1 passes alternate between untraced and traced, the
metrics are the per-layer ones, and every span is written to
.bench_trace/<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from stats import median, percentile
from tracing import Tracer, layer_metrics, layer_self_times

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("lift-solve", "big-lp", "certify-round")
SETUP_SAMPLES = 3
MIN_PASSES = 2
TRACE_DIR = Path(".bench_trace")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up seconds and exit (one setup_s sample)",
    )
    return parser.parse_args(argv)


def set_up(args, tracer):
    """Import the library, build the inputs and warm up; returns (workload, s).

    Timed from before the first numpy import.  The warm-up runs the
    workload's first ADMM solve, LP or certify outside the timed passes,
    because the first call in a process is markedly slower.
    """
    start = time.perf_counter()
    import workloads

    if Path(workloads.exact.__file__).resolve().parent != SRC / "dstlift":
        raise RuntimeError(f"imported dstlift from {workloads.exact.__file__}")
    if tracer is not None:
        tracer.install(workloads.MODULES)
    workload = workloads.BUILDERS[args.workload](args.seed)
    if tracer is not None:
        tracer.job = "warmup"
    workload.warmup()
    if tracer is not None:
        tracer.uninstall()
    return workload, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    """One more setup_s sample, from a fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable,
            "-B",
            str(HERE / "run.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, pass_no, reference, failures, tracer=None):
    """One pass over the job list; returns (wall s, cpu s, per-job wall s)."""
    if tracer is not None:
        tracer.pass_no = pass_no
    times = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.name
        t0 = time.perf_counter()
        record, problems = job.run()
        times.append(time.perf_counter() - t0)
        if job.name not in reference:
            reference[job.name] = record
        elif record != reference[job.name]:
            problems = problems + ["output differs from the first pass"]
        if problems:
            failures.append({"pass": pass_no, "job": job.name, "problems": problems[:3]})
    return time.perf_counter() - wall0, time.process_time() - cpu0, times


def environment(args, nproc):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "dstlift").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_dstlift_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dstlift" / "__init__.py").is_file():
        print(f"error: no dstlift sources at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))

    tracer = Tracer() if args.trace else None
    workload, own_setup = set_up(args, tracer)
    if args.setup_only:
        print(f"{own_setup!r}")
        return 0
    setups = [own_setup]
    if not args.trace:
        setups += [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    import workloads

    reference: dict = {}
    failures: list = []
    walls, cpus, job_times = [], [], []
    traced_walls = []
    per_job: dict[str, list[float]] = {job.name: [] for job in workload.jobs}
    start = time.perf_counter()
    pass_no = 0
    while True:
        traced = tracer is not None and pass_no % 2 == 1
        if traced:
            tracer.install(workloads.MODULES)
        try:
            wall, cpu, times = run_pass(
                workload, pass_no, reference, failures, tracer if traced else None
            )
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else walls).append(wall)
        cpus.append(cpu)
        job_times.extend(times)
        for job, seconds in zip(workload.jobs, times):
            per_job[job.name].append(seconds)
        pass_no += 1
        if time.perf_counter() - start >= args.seconds and pass_no >= MIN_PASSES:
            break

    attempted = pass_no * len(workload.jobs)
    failed = len({(f["pass"], f["job"]) for f in failures})
    env = environment(args, nproc)
    if tracer is None:
        metrics = {
            "pass_s": (median(walls), "s"),
            "pass_cpu_s": (median(cpus), "s"),
            "job_s.p50": (percentile(job_times, 50), "s"),
            "job_s.p90": (percentile(job_times, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (median(setups), "s"),
        }
        samples = {
            "setup_s": [round(t, 4) for t in setups],
            "pass_s": [round(t, 4) for t in walls],
            "job_s": len(job_times),
        }
    else:
        metrics = layer_metrics(tracer.spans, len(traced_walls))
        traced_pass = median(traced_walls)
        target = sum(metrics[name][0] for name in workload.target_layers)
        metrics["trace.pass_s"] = (traced_pass, "s")
        metrics["trace.overhead_s"] = (traced_pass - median(walls), "s")
        metrics["trace.target_share"] = (target / traced_pass, "ratio")
        samples = {
            "traced_pass_s": [round(t, 4) for t in traced_walls],
            "untraced_pass_s": [round(t, 4) for t in walls],
        }
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(
            TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl",
            env,
            {
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "layer_self_s": layer_self_times(tracer.spans),
                "target_layers": workload.target_layers,
                "failures": failures,
            },
        )

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>13} {name:<28} {value:>14.6g} {unit}", file=sys.stderr)
    print(
        f"{args.workload:>13} {'jobs_failed_frac':<28} {failed / attempted:>14.6g} "
        f"({failed} of {attempted} jobs)",
        file=sys.stderr,
    )
    detail = {
        "env": env,
        "samples": samples,
        "jobs_attempted": attempted,
        "jobs_failed": failed,
        "jobs_failed_frac": failed / attempted,
        "job_median_s": {name: median(times) for name, times in per_job.items()},
        "failures": failures[:10],
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
