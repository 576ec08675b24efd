"""Workload table and the work each workload does, counted from its config.

This module does not import fedme, so the parent process of a benchmark run
can read the table without loading the package under test. Configs are plain
keyword dicts for `fedme.harness.ExperimentConfig`; the worker adds the
algorithm, the data seed and `repeats = 1`.

A run draws its data seeds from a fixed pool, so that every (workload, seed)
pair has a recorded reference accuracy and output digest in
`reference.json`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

# The trend-reproduction config of acceptance criterion 8.
CRITERION_8 = dict(
    num_clients=20, rounds=50, epochs=2, num_classes=4, dim=16,
    per_class_count=375, class_separation=3.0, noise_sigma=1.5,
    alpha_label=0.5, alpha_size=10.0, lr=0.05, weight_decay=1e-3,
    model_menu=((8,), (8, 8), (8, 8, 8), (8, 8, 8, 8)),
    init_policy="best_local", cluster_thresholds=(25, 38, 46),
    fine_tune_epochs=10)

# Many clients, wide models and 4000-dim prediction vectors for k-means.
MANY = dict(
    num_clients=48, rounds=20, epochs=1, num_classes=8, dim=32,
    per_class_count=600, alpha_label=0.3, unlabeled_count=500,
    model_menu=((64,), (64, 64)), init_policy="round_robin",
    cluster_thresholds=(2, 4, 6, 8, 10, 12, 14), k_max=8,
    fine_tune_epochs=2)

# The determinism config of acceptance criterion 10 (5 clients, 4 rounds).
SMOKE = dict(
    num_clients=5, rounds=4, epochs=1, num_classes=3, dim=4,
    per_class_count=50, noise_sigma=1.0, unlabeled_count=20,
    model_menu=((4,), (4, 4)), init_policy="best_local", probe_epochs=1,
    cluster_thresholds=(2, 3), fine_tune_epochs=2, lr=0.05)

BASELINES = ("local_only", "centralized", "fedavg", "hypcluster")


@dataclass(frozen=True)
class Workload:
    algorithms: tuple[str, ...]
    config: dict
    seeds_per_run: int   # distinct data seeds a run executes at least once
    pool_size: int       # data seeds are drawn from range(pool_size)


WORKLOADS = {
    "fedme-desk": Workload(("fedme",), CRITERION_8, 8, 20),
    "baselines-desk": Workload(BASELINES, CRITERION_8, 5, 20),
    "fedme-many": Workload(("fedme",), MANY, 4, 20),
    # not listed in BENCHMARK.json: the smoke test's seconds-long workload
    "smoke": Workload(("fedme",) + BASELINES, SMOKE, 2, 4),
}


def data_seeds(workload: Workload, seed: int) -> list[int]:
    """The run's data seeds: a seeded sample, without repeats, of the pool."""
    return random.Random(seed).sample(range(workload.pool_size),
                                      workload.seeds_per_run)


def train_rows(algorithm: str, config, train_sizes: list[int]) -> int:
    """Labelled rows pushed through forward, backward and update, counted
    once per model trained on them: best-local probing, the rounds (fedme
    trains the personalized and the exchanged model on every row) and
    fine-tuning. The count follows from the config and shard sizes alone."""
    total = sum(train_sizes)
    probe = (len(config.model_menu) * config.probe_epochs * total
             if config.init_policy == "best_local" else 0)
    models_per_row = 2 if algorithm == "fedme" else 1
    rounds = config.rounds * config.epochs * total * models_per_row
    return probe + rounds + config.fine_tune_epochs * total


def flops_per_row(widths: tuple[int, ...]) -> int:
    """Multiply-adds x 2 of one training row through a dense net with these
    layer widths: forward, weight gradient and, past the first layer, the
    input gradient. Biases and activations are left out."""
    macs = [fi * fo for fi, fo in zip(widths[:-1], widths[1:])]
    return 2 * (2 * sum(macs) + sum(macs[1:]))


def train_flops(algorithm: str, config, train_sizes: list[int],
                initial_widths: list[tuple[int, ...]],
                exchanges: list[list[tuple[int, int]]]) -> int:
    """Training FLOPs computed from layer widths x rows, on the same row
    count as `train_rows`.

    `initial_widths` holds each client's layer widths when the rounds start.
    `exchanges[t]` holds (donor, adopted lineage) per client for round t+1,
    read from `rounds.csv`; fedme clients change architecture by adopting
    another lineage, and train the donor's architecture as exchanged model.
    """
    menu = [(config.dim, *m, config.num_classes) for m in config.model_menu]
    flops = 0
    if config.init_policy == "best_local":
        flops += config.probe_epochs * sum(train_sizes) * sum(
            flops_per_row(w) for w in menu)
    held = list(initial_widths)
    if algorithm == "fedme":
        for round_plan in exchanges:
            for n, w, (donor, _) in zip(train_sizes, held, round_plan):
                flops += config.epochs * n * (flops_per_row(w)
                                              + flops_per_row(held[donor]))
            held = [held[adopted] for _, adopted in round_plan]
    else:
        flops += config.rounds * config.epochs * sum(
            n * flops_per_row(w) for n, w in zip(train_sizes, held))
    flops += config.fine_tune_epochs * sum(
        n * flops_per_row(w) for n, w in zip(train_sizes, held))
    return flops
