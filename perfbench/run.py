"""fedme benchmark: end-to-end metrics per workload, or a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fedme-desk --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30

Each run starts fresh worker processes (`worker.py`) that import fedme from
the checkout's `src`. `setup_s` is timed over several of them, from process
start until the workload's federations are built. The last one then measures
(`--trace 0`) or traces (`--trace 1`) the workload. The time metrics of an
untraced run are scaled to a nominal host speed by a speed probe timed
around every run_experiment call (see worker.py); their unscaled medians are
printed too. The final line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
report sample counts, tail percentiles, output digests and the environment.

The tier-1 test suite's wall time is not a workload: it takes about two
minutes, and a benchmark check runs every workload 22 times.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_WORKLOADS = ("fedme-desk", "baselines-desk", "fedme-many")
# fresh processes timed for setup_s; the last of them also measures
SETUP_SAMPLES = 7
# wall-clock limit for any one worker process
WORKER_TIMEOUT_S = 170.0
# The load is one process on one thread. With two BLAS threads on a 2-vCPU
# Xeon host, fedme-many ran slower (5.5 s against 5.1 s per seed), burnt
# 1.5x its wall time in CPU and varied with the other tenants' load; the
# outputs are the same bytes either way.
BLAS_THREADS = 1

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "train_rows_per_s": "rows/s",
                    "cpu_s": "s", "peak_rss_mb": "MiB", "test_acc": "fraction",
                    "success_ratio": "share"}
TIMINGS = ("run_s", "setup_s", "cpu_s", "train_rows_per_s")
HIGHER_IS_BETTER = ("train_rows_per_s",)


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".errors"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    return {"nn.train_gflop": "GFLOP", "nn.gflops_per_s": "GFLOP/s",
            "trace_overhead_s": "s", "trace_coverage": "fraction"}[name]


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    """Worker environment: the checkout's `src` first on the path, and BLAS
    held to BLAS_THREADS threads."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, out_dir, setup_only):
    """Start one worker; returns (seconds from start to its `ready` line,
    its result dict). The worker is killed if it outlives WORKER_TIMEOUT_S,
    and always waited for."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise WorkerError(f"worker exited with code {code} "
                          f"({'after' if ready else 'before'} set-up)")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(samples, higher_is_better=False):
    """(p, value): the nearest-rank percentile furthest into the bad tail
    that still has at least ten samples beyond it, or None with fewer than
    11 samples. The bad tail of a rate is its low end."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    if higher_is_better:
        return 100 - p, sorted(samples)[n - rank]
    return p, sorted(samples)[rank - 1]


def describe(name, samples, unit):
    text = (f"  {name}: median {statistics.median(samples):.6g} {unit}, "
            f"n={len(samples)}")
    t = tail(samples, name in HIGHER_IS_BETTER)
    if t:
        text += f", p{t[0]} {t[1]:.6g} {unit}"
    elif samples:
        text += ", no tail percentile (fewer than 11 samples)"
    return text


def run_one(args):
    """Runs the workload; prints the report and returns the result object,
    or None when the workload produced no usable measurement."""
    out_dir = os.path.join(ROOT, ".perfbench_out", str(os.getpid()))
    try:
        setup, setup_wall = [], []
        processes = 1 if args.trace else SETUP_SAMPLES
        for i in range(processes):
            last = i == processes - 1
            seconds, result = run_worker(args, out_dir, setup_only=not last)
            setup_wall.append(seconds)
            setup.append(seconds * result["setup_scale"])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems = list(result["problems"])
    env = result["env"]
    if env["blas_threads"] > env["nproc"]:
        problems.append(f"BLAS thread cap {env['blas_threads']} exceeds "
                        f"nproc {env['nproc']}")
    print(f"workload {args.workload}, seed {args.seed}, data seeds "
          f"{result['data_seeds']}, trace {args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = result["metrics"]
        if not metrics:
            print("no traced execution completed", file=sys.stderr)
            return None
        units = {k: per_layer_unit(k) for k in metrics}
        print("  run times below are scaled to nominal host speed by the "
              "speed probe; self times are wall-clock")
        for name in ("untraced_run_s", "traced_run_s"):
            print(describe(name, result[name], "s"))
        print("  nn.train_gflop and nn.gflops_per_s are computed from layer "
              "widths x trained rows, not counted")
        print(f"  digest of the untraced output matches the reference: "
              f"{result['digest_match']}")
        if result["missing_functions"]:
            print(f"  not found in fedme, reported as 0: "
                  f"{result['missing_functions']}")
    else:
        samples = dict(result["samples"], setup_s=setup)
        wall = dict(result["wall"], setup_s=setup_wall)
        if not samples["run_s"]:
            print("no execution completed", file=sys.stderr)
            return None
        print("  time metrics below are scaled to nominal host speed by the "
              "speed probe; unscaled medians: " + ", ".join(
            f"{name} {statistics.median(wall[name]):.6g} {END_TO_END_UNITS[name]}"
            for name in TIMINGS))
        metrics = {name: statistics.median(samples[name]) for name in TIMINGS}
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        metrics["test_acc"] = result["test_acc"]
        metrics["success_ratio"] = 1.0 - result["failed"] / result["attempted"]
        units = END_TO_END_UNITS
        for name in TIMINGS:
            print(describe(name, samples[name], units[name]))
        print(f"  failed_ratio: {result['failed'] / result['attempted']:.6g} "
              f"share ({result['failed']}/{result['attempted']} runs)")
        print(f"  output digests matching the reference: "
              f"{result['digest_matches']}/{result['executions']}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    return {"correct": not problems and result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in sorted(metrics)}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fedme", "__init__.py")):
        print(f"error: no fedme sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result = run_one(argparse.Namespace(**dict(vars(args), workload=name)))
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if result is None:
            return 1
        results[name] = result
        if args.workload == "all":
            print(f"{name}: " + json.dumps(result))
    print(json.dumps(results if args.workload == "all" else results[name]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
