"""All five algorithms on one small non-IID federation.

Runs the exchange method against Local-Only, Centralized, FedAvg, and
HypCluster on the same 10-client synthetic setup (2 repeats to keep this
quick), then fine-tunes each client's final model on its own data. Under this
much label skew the personalized methods come out ahead of the one-model
baselines, with Local-Only and Centralized trailing the exchange method.
Artifacts land in a fresh temporary directory, whose path is printed.
"""
import os
import tempfile
from dataclasses import replace

from fedme import ExperimentConfig, run_experiment
from fedme.harness import validate_config

base = validate_config(ExperimentConfig(
    algorithm="fedme", num_clients=10, rounds=20, epochs=2,
    num_classes=4, dim=16, per_class_count=150, class_separation=3.0,
    noise_sigma=1.5, alpha_label=0.5, lr=0.05, weight_decay=1e-3,
    model_menu=((8,), (8, 8)), cluster_thresholds=(10, 16),
    fine_tune_epochs=5, repeats=2, seed=0))

out_dir = tempfile.mkdtemp(prefix="fedme-comparison-")
print(f"{'algorithm':<12} {'final':>8} {'pre-FT':>8}")
for algorithm in ("centralized", "fedme", "fedavg", "hypcluster", "local_only"):
    config = replace(base, algorithm=algorithm)
    report = run_experiment(config, os.path.join(out_dir, algorithm))
    print(f"{algorithm:<12} {report.mean:>8.4f} {report.mean_pre_ft:>8.4f}")

print(f"\nper-run logs, checkpoints and summaries: {out_dir}")
