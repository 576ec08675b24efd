"""Smoke test of the benchmark: the full measure, check, trace and report path
on the seconds-long `smoke` workload (the criterion-10 config: 5 clients,
4 rounds), plus the tracer's restore guarantee and the refusal to run
without sources.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracer import FUNCTIONS, TARGETS, Tracer  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "train_rows_per_s": "rows/s",
              "cpu_s": "s", "peak_rss_mb": "MiB", "test_acc": "fraction",
              "success_ratio": "share"}
PER_LAYER = {
    **{f"{f}.calls": "count" for f in FUNCTIONS},
    **{f"{f}.self_ms": "ms" for f in FUNCTIONS},
    **{f"{layer}.self_ms": "ms" for layer in TARGETS},
    **{f"{layer}.errors": "count" for layer in TARGETS},
    "nn.train_gflop": "GFLOP", "nn.gflops_per_s": "GFLOP/s",
    "trace_overhead_s": "s", "trace_coverage": "fraction",
}


def _bench(trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_end_to_end_metrics_with_units():
    proc = _bench(trace=0)
    result = _result(proc)
    assert _units(result) == END_TO_END
    metrics = result["metrics"]
    assert all(metrics[name]["value"] > 0 for name in END_TO_END)
    assert "failed_ratio: 0 share" in proc.stdout
    for name in ("run_s", "setup_s", "cpu_s", "train_rows_per_s"):
        assert f"  {name}: median " in proc.stdout
    assert "output digests matching the reference: " in proc.stdout
    env = json.loads(proc.stdout.split("env: ", 1)[1].splitlines()[0])
    assert set(env) == {"python", "numpy", "blas", "blas_threads", "nproc",
                        "cpu", "commit"}
    assert env["blas_threads"] <= env["nproc"]


def test_per_layer_metrics_with_units():
    result = _result(_bench(trace=1))
    assert _units(result) == PER_LAYER
    metrics = result["metrics"]
    assert metrics["nn.dml_losses_and_grads.calls"]["value"] > 0
    assert metrics["baselines.run_hypcluster.calls"]["value"] == 1
    assert metrics["nn.train_gflop"]["value"] > 0
    assert all(metrics[f"{layer}.errors"]["value"] == 0 for layer in TARGETS)


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_tracer_restores_every_original():
    import fedme
    from fedme import engine, harness, nn

    modules = (fedme, nn, engine, harness)
    before = {(m.__name__, name): value for m in modules
              for name, value in vars(m).items()}
    with Tracer() as tracer:
        assert engine.kmeans is not before["fedme.engine", "kmeans"]
        assert harness.run_fedme is not before["fedme.harness", "run_fedme"]
        assert nn.forward is not before["fedme.nn", "forward"]
        nn.evaluate(nn.init_model(nn.ArchitectureSpec(2, (3,), 2), 0),
                    [[0.0, 1.0]], [1])
    assert tracer.stats["nn.evaluate"].calls == 1
    assert tracer.stats["nn.forward"].calls == 1
    assert not tracer.missing
    assert all(getattr(sys.modules[module], name) is value
               for (module, name), value in before.items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(trace=0, cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
