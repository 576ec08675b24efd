"""One benchmark run, in a fresh process started by `run.py`.

It imports fedme from the checkout's `src`, validates the workload's configs
and builds the federation of each data seed, then prints `ready`; the parent
times process start to that line as set-up. Unless `--setup-only` is given, it
then executes the workload through `fedme.harness.run_experiment` for
`--seconds` seconds (at least once per data seed), checks every run's output,
and prints one JSON line of samples for the parent to report.

With `--trace 1` it alternates untraced and traced executions of the run's
first data seed instead, and reports per-function calls and self time.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time

import workloads
from tracer import FUNCTIONS, TARGETS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
# largest tolerated |test_acc - reference| per algorithm run, absolute
TEST_ACC_TOLERANCE = 0.03
# The traced per-layer self times must add up to at least this share of the
# traced run_s (median over traced executions). The rest is run_experiment's
# own file writes: 0.1% of a desk-scale run, 3.5% of a smoke-test run.
TRACE_COVERAGE_MIN = 0.9
# The host's speed drifts by up to 2x within minutes on a shared machine.
# So a fixed probe of numpy work is timed PROBE_CHUNKS times after set-up and
# after every run_experiment call, and each call's times are scaled by
# PROBE_NOMINAL_S / (median probe chunk just before and after it): seconds
# at a nominal host speed, at which one chunk takes PROBE_NOMINAL_S.
# Wall-clock samples are reported beside the scaled ones.
PROBE_CHUNKS = 8
PROBE_NOMINAL_S = 0.025
# functions whose arguments give the architectures that training starts from
ARCH_SOURCES = {"fedme": "engine.run_fedme",
                "local_only": "baselines.run_local_only",
                "centralized": "baselines.run_centralized",
                "fedavg": "baselines.run_fedavg",
                "hypcluster": "baselines.run_hypcluster"}


def _load_fedme():
    import fedme
    from fedme import harness
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(fedme.__file__).startswith(src):
        raise SystemExit(f"fedme was imported from {fedme.__file__}, "
                         f"not from {src}")
    return harness


class Runner:
    """Executes one workload on one data seed and checks its output."""

    def __init__(self, harness, name, seeds, out_root, reference):
        self.harness = harness
        self.probe = None    # speed probe run after each call, when set
        self.probed = []     # its last chunk times
        self.workload = workloads.WORKLOADS[name]
        self.out_root = out_root
        self.reference = reference.get(name, {}) if reference else None
        self.configs = {}
        self.train_sizes = {}
        for seed in seeds:
            for algorithm in self.workload.algorithms:
                config = harness.ExperimentConfig(
                    algorithm=algorithm, repeats=1, seed=seed,
                    **self.workload.config)
                self.configs[algorithm, seed] = harness.validate_config(config)
            shards, _ = harness.build_federation(
                self.configs[self.workload.algorithms[0], seed], seed)
            self.train_sizes[seed] = [s.train.n for s in shards]

    def execute(self, seed, tracer_factory=None):
        """Run every algorithm of the workload on `seed`; returns a dict with
        run_s, cpu_s, rows, per-algorithm test_acc, sha256 and problems."""
        out = {"seed": seed, "run_s": 0.0, "cpu_s": 0.0, "rows": 0,
               "scaled_run_s": 0.0, "scaled_cpu_s": 0.0,
               "test_acc": {}, "attempted": 0, "failed": 0, "problems": [],
               "flops": 0, "tracers": []}
        digest = hashlib.sha256()
        for algorithm in self.workload.algorithms:
            config = self.configs[algorithm, seed]
            out_dir = os.path.join(self.out_root, algorithm)
            shutil.rmtree(out_dir, ignore_errors=True)
            out["attempted"] += 1
            tracer = tracer_factory() if tracer_factory else None
            try:
                if tracer is not None:
                    with tracer:
                        wall, cpu, scale, report = self._timed_run(config,
                                                                   out_dir)
                    out["tracers"].append(tracer)
                else:
                    wall, cpu, scale, report = self._timed_run(config, out_dir)
                problems, exchanges = self._check(config, out_dir, report,
                                                  digest)
            except Exception as exc:
                problems, exchanges = [f"{algorithm}: raised {exc!r}"], None
            shutil.rmtree(out_dir, ignore_errors=True)
            if problems:
                out["failed"] += 1
                out["problems"] += problems
                continue
            out["run_s"] += wall
            out["cpu_s"] += cpu
            out["scaled_run_s"] += wall * scale
            out["scaled_cpu_s"] += cpu * scale
            out["test_acc"][algorithm] = report.mean
            sizes = self.train_sizes[seed]
            out["rows"] += workloads.train_rows(algorithm, config, sizes)
            if tracer is not None:
                out["flops"] += workloads.train_flops(
                    algorithm, config, sizes,
                    self._initial_widths(tracer, algorithm, len(sizes)),
                    exchanges)
        out["sha256"] = digest.hexdigest()
        ref = (self.reference or {}).get(str(seed))
        out["digest_match"] = bool(ref) and ref["sha256"] == out["sha256"]
        return out

    def _timed_run(self, config, out_dir):
        cpu0 = time.process_time()
        start = time.perf_counter()
        report = self.harness.run_experiment(config, out_dir)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        scale = 1.0
        if self.probe is not None:
            after = self.probe()
            scale = PROBE_NOMINAL_S / statistics.median(self.probed + after)
            self.probed = after
        return wall, cpu, scale, report

    @staticmethod
    def _initial_widths(tracer, algorithm, num_clients):
        args = tracer.args[ARCH_SOURCES[algorithm]][0]
        archs = args[1]
        if algorithm in ("centralized", "fedavg", "hypcluster"):
            archs = [archs] * num_clients
        return [a.layer_widths for a in archs]

    def _check(self, config, out_dir, report, digest):
        """Problems found in one algorithm run's artifacts; feeds rounds.csv
        and the checkpoints into `digest`. Also returns the per-round
        (donor, adopted lineage) of each client, for fedme."""
        algorithm = config.algorithm
        run_dir = os.path.join(out_dir, "run_0")
        names = ["rounds.csv"] + [f"client_{i}.model"
                                  for i in range(config.num_clients)]
        missing = [n for n in names
                   if not os.path.isfile(os.path.join(run_dir, n))]
        if missing:
            return [f"{algorithm}: missing {missing}"], None
        problems = []
        for name in names:
            with open(os.path.join(run_dir, name), "rb") as fh:
                digest.update(fh.read())
        with open(os.path.join(run_dir, "rounds.csv"), encoding="utf-8") as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        expected = config.rounds * config.num_clients
        if len(rows) != expected:
            problems.append(f"{algorithm}: rounds.csv has {len(rows)} rows, "
                            f"expected {expected}")
        accs = [float(row[header.index(col)]) for row in rows
                for col in ("val_acc", "test_acc")]
        if not all(math.isfinite(a) for a in accs + [report.mean]):
            problems.append(f"{algorithm}: non-finite accuracy")
        if self.reference is not None:
            ref = self.reference.get(str(config.seed))
            if ref is None:
                problems.append(f"{algorithm}: no reference for seed "
                                f"{config.seed}")
            elif abs(report.mean - ref["test_acc"][algorithm]) > TEST_ACC_TOLERANCE:
                problems.append(
                    f"{algorithm}: test_acc {report.mean:.4f} is off the "
                    f"reference {ref['test_acc'][algorithm]:.4f} by more "
                    f"than {TEST_ACC_TOLERANCE}")
        exchanges = None
        if algorithm == "fedme" and not problems:
            donor, adopted = header.index("donor"), header.index("a")
            exchanges = [[None] * config.num_clients
                         for _ in range(config.rounds)]
            for row in rows:
                exchanges[int(row[0]) - 1][int(row[1])] = (int(row[donor]),
                                                           int(row[adopted]))
        return problems, exchanges


def speed_probe():
    """Returns a function that times PROBE_CHUNKS chunks of fixed work. A
    chunk is 400 forward steps of a 16-8-4 net on a 20-row batch with the
    output gradient, as in fedme-desk, and 6 squared-distance tables of
    48 points x 4000 dims to 8 centroids, as in the k-means of fedme-many.
    It calls no multi-threaded BLAS, whose spinning threads would add to the
    next execution's cpu_s, and no fedme code, so a change to fedme does not
    move it."""
    import numpy as np
    rng = np.random.default_rng(0)
    x, w1, w2 = (rng.standard_normal(s) for s in ((20, 16), (8, 16), (4, 8)))
    points, centroids = (rng.standard_normal(s) for s in ((48, 4000), (8, 4000)))
    # a fixed buffer: a fresh 1.5 MB temporary per step would time the
    # allocator, whose state depends on what the execution before allocated
    diff = np.empty_like(points)

    def chunk():
        start = time.perf_counter()
        for _ in range(400):
            h = np.maximum(x @ w1.T, 0.0)
            z = h @ w2.T
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            (p.T @ h).sum()
        for _ in range(6):
            for c in centroids:
                np.subtract(points, c, out=diff)
                np.einsum("ij,ij->i", diff, diff)
        return time.perf_counter() - start

    return lambda: [chunk() for _ in range(PROBE_CHUNKS)]


def measure(runner, seeds, seconds):
    """Untraced executions, cycling through the seeds, for `seconds`; every
    seed runs at least once."""
    executions, durations = [], []
    start = time.perf_counter()
    while len(executions) < len(seeds) or (
            time.perf_counter() - start + statistics.median(durations)
            <= seconds):
        t0 = time.perf_counter()
        executions.append(runner.execute(seeds[len(executions) % len(seeds)]))
        durations.append(time.perf_counter() - t0)
    first = {}
    for ex in executions:
        first.setdefault(ex["seed"], ex)
    ok = [ex for ex in executions if not ex["failed"]]
    accs = [a for ex in first.values() for a in ex["test_acc"].values()]
    repeat_mismatch = [ex["seed"] for ex in executions
                       if ex["sha256"] != first[ex["seed"]]["sha256"]]
    problems = [p for ex in executions for p in ex["problems"]]
    problems += [f"seed {s}: output differs between repeated executions"
                 for s in repeat_mismatch]
    return {
        "wall": {"run_s": [ex["run_s"] for ex in ok],
                 "cpu_s": [ex["cpu_s"] for ex in ok],
                 "train_rows_per_s": [ex["rows"] / ex["run_s"] for ex in ok]},
        "samples": {"run_s": [ex["scaled_run_s"] for ex in ok],
                    "cpu_s": [ex["scaled_cpu_s"] for ex in ok],
                    "train_rows_per_s": [ex["rows"] / ex["scaled_run_s"]
                                         for ex in ok]},
        "test_acc": statistics.fmean(accs) if accs else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(ex["attempted"] for ex in executions),
        "failed": sum(ex["failed"] for ex in executions),
        "digest_matches": sum(ex["digest_match"] for ex in executions),
        "executions": len(executions),
        "problems": problems,
    }


def trace(runner, seed, seconds):
    """Pairs of untraced and traced executions of one seed, alternating which
    goes first, for `seconds`; at least one pair. Self times are wall-clock;
    run times, and so the tracing overhead, are scaled by the speed probe."""
    pairs, durations, problems = [], [], []
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start
                        + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        pair = {}
        for traced in order:
            factory = (lambda: Tracer(ARCH_SOURCES.values())) if traced else None
            pair[traced] = runner.execute(seed, factory)
        pairs.append(pair)
        durations.append(time.perf_counter() - t0)
        for ex in pair.values():
            problems += ex["problems"]
        if pair[True]["sha256"] != pair[False]["sha256"]:
            problems.append("traced output differs from untraced output")
    ok = [p for p in pairs if not p[True]["failed"] and not p[False]["failed"]]
    if not ok:
        return {"metrics": {}, "problems": problems,
                "attempted": sum(ex["attempted"] for p in pairs for ex in p.values()),
                "failed": sum(ex["failed"] for p in pairs for ex in p.values())}

    per_exec = []   # {metric: value} per traced execution
    for p in ok:
        tracers = p[True]["tracers"]
        row = dict.fromkeys([f"{layer}.self_ms" for layer in TARGETS], 0.0)
        row.update(dict.fromkeys([f"{layer}.errors" for layer in TARGETS], 0))
        for key in FUNCTIONS:
            layer = key.split(".", 1)[0]
            self_ms = sum(t.stats[key].self_s for t in tracers) * 1000.0
            row[f"{key}.calls"] = sum(t.stats[key].calls for t in tracers)
            row[f"{key}.self_ms"] = self_ms
            row[f"{layer}.self_ms"] += self_ms
            row[f"{layer}.errors"] += sum(t.stats[key].errors for t in tracers)
        row["trace_coverage"] = sum(
            row[f"{layer}.self_ms"] for layer in TARGETS) / 1000.0 / p[True]["run_s"]
        per_exec.append(row)
    # counts repeat exactly; times are the median over traced executions
    metrics = {key: (per_exec[0][key] if key.endswith((".calls", ".errors"))
                     else statistics.median(row[key] for row in per_exec))
               for key in per_exec[0]}
    untraced_s = statistics.median(p[False]["scaled_run_s"] for p in ok)
    gflop = ok[0][True]["flops"] / 1e9
    metrics["nn.train_gflop"] = gflop
    metrics["nn.gflops_per_s"] = gflop / untraced_s
    metrics["trace_overhead_s"] = statistics.median(
        p[True]["scaled_run_s"] - p[False]["scaled_run_s"] for p in ok)
    if metrics["trace_coverage"] < TRACE_COVERAGE_MIN:
        problems.append(f"traced self times cover less than "
                        f"{TRACE_COVERAGE_MIN:.0%} of traced run_s")
    missing = sorted({m for p in ok for t in p[True]["tracers"]
                      for m in t.missing})
    return {"metrics": metrics, "problems": problems,
            "missing_functions": missing,
            "untraced_run_s": [p[False]["scaled_run_s"] for p in ok],
            "traced_run_s": [p[True]["scaled_run_s"] for p in ok],
            "attempted": sum(ex["attempted"] for p in pairs for ex in p.values()),
            "failed": sum(ex["failed"] for p in pairs for ex in p.values()),
            "digest_match": ok[0][False]["digest_match"]}


def environment():
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without mode="dicts"
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read without running git; 'unknown' when the
    checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True,
                        help="scratch directory for run artifacts")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    harness = _load_fedme()
    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.data_seeds(workload, args.seed)
    runner = Runner(harness, args.workload, seeds, args.out, load_reference())
    print("ready", flush=True)
    runner.probe = speed_probe()
    runner.probed = runner.probe()
    setup_scale = PROBE_NOMINAL_S / statistics.median(runner.probed)
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return
    result = trace(runner, seeds[0], args.seconds) if args.trace \
        else measure(runner, seeds, args.seconds)
    result["setup_scale"] = setup_scale
    result["data_seeds"] = seeds
    result["env"] = environment()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
