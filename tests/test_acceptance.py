"""End-to-end acceptance checks. Each test prints one PASS/FAIL line.

The two trend checks (ordering across algorithms, fine-tuning gain under
heterogeneity) run the full desk-scale protocol and take a couple of minutes
combined; everything else is fast.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from fedme import baselines, engine, nn
from fedme.clustering import kmeans
from fedme.engine import FedMeConfig, assign_exchanges
from fedme.harness import ExperimentConfig, run_experiment, validate_config
from fedme.nn import ArchitectureSpec, Model
from reference import (batch_grads, best_partition_inertia, cross_entropy,
                       dml_loss, fd_gradient, kink_free, kl_divergence,
                       max_rel_err, scripted_rounds, toy_federation)


def _report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for case in range(50):
        layers = tuple(int(w) for w in rng.integers(1, 4, size=rng.integers(1, 3)))
        arch_p = ArchitectureSpec(int(rng.integers(2, 5)), layers,
                                  int(rng.integers(2, 4)))
        arch_ex = ArchitectureSpec(arch_p.input_dim,
                                   tuple(int(w) for w in rng.integers(1, 4, size=1)),
                                   arch_p.num_classes)
        assert arch_p.parameter_count() <= 200
        model_p = nn.init_model(arch_p, case)
        model_ex = nn.init_model(arch_ex, case + 1000)
        while True:
            x = rng.normal(size=(int(rng.integers(2, 7)), arch_p.input_dim))
            if kink_free(model_p, x) and kink_free(model_ex, x):
                break
        y = rng.integers(0, arch_p.num_classes, size=len(x))
        g_p, g_ex = batch_grads(model_p, x, y, model_ex)
        fd_p = fd_gradient(lambda p: dml_loss(Model(arch_p, p), model_ex, x, y),
                           model_p.params)
        fd_ex = fd_gradient(lambda p: dml_loss(Model(arch_ex, p), model_p, x, y),
                            model_ex.params)
        worst = max(worst, float(max_rel_err(g_p, fd_p)), float(max_rel_err(g_ex, fd_ex)))
    elapsed = time.perf_counter() - start
    _report("1 (gradient oracle)", worst < 1e-4 and elapsed < 30.0)


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_loss_identities():
    rng = np.random.default_rng(2)
    ok = True
    for m in (2, 3, 5):
        p = rng.dirichlet(np.ones(m), size=8)
        ok &= abs(kl_divergence(p, p)) <= 1e-12
        uniform = np.full((8, m), 1.0 / m)
        labels = rng.integers(0, m, size=8)
        ok &= abs(cross_entropy(uniform, labels) - np.log(m)) <= 1e-9
    pairs = rng.dirichlet(np.ones(4), size=(10_000, 2))
    for p, q in pairs:
        ok &= kl_divergence(p[None], q[None]) >= -1e-12
    _report("2 (loss identities)", bool(ok))


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_aggregation_exactness():
    arch = ArchitectureSpec(1, (1,), 2)
    rng = np.random.default_rng(3)
    ok = True
    for trial in range(10):
        assignments = rng.integers(0, rng.integers(1, 4), size=10)
        plan = assign_exchanges(assignments, trial + 1, seed=trial, k=3)
        models = [Model(arch, rng.normal(size=6)) for _ in range(10)]
        # a trained exchanged copy of the donor's lineage
        exchanged = {i: Model(arch, rng.normal(size=6)) for i in range(10)}
        agg = engine.aggregate(models, exchanged, plan)
        s = {i: sum(1 for j in range(10) if plan.donor[j] == i) for i in range(10)}
        ok &= sum(s.values()) == 10
        for i in range(10):
            copies = [models[i].params]
            copies += [exchanged[j].params for j in range(10)
                       if plan.donor[j] == i]
            ok &= len(copies) == s[i] + 1
            ok &= bool(np.max(np.abs(agg[i].params -
                                     np.mean(copies, axis=0))) <= 1e-12)
    _report("3 (aggregation exactness)", bool(ok))


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_tuning_rule_conformance():
    shards, pool = toy_federation(5)
    arch = ArchitectureSpec(2, (4,), 2)
    config = FedMeConfig(rounds=6, lr=0.05, seed=5)
    _, records, _ = engine.run_fedme(shards, [arch] * 5, pool, config)
    violations = 0
    for r in records:
        expected = r.client if r.loss_p_val <= r.loss_ex_val else r.donor
        if r.a != expected:
            violations += 1
    tie_ok = engine.model_tuning(0.25, 0.25, client_id=1, exchange_origin=4) == 1
    _report("4 (tuning rule conformance)", violations == 0 and tie_ok)


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_running_example_trace():
    donors = {1: {0: 2, 1: 3, 2: 0, 3: 4, 4: 1},
              2: {0: 2, 1: 3, 2: 0, 3: 1, 4: 3}}
    clusters = {1: np.zeros(5, dtype=int), 2: np.array([0, 1, 0, 1, 1])}
    selections = {1: {0: 2, 1: 1, 2: 2, 3: 3, 4: 1},
                  2: {0: 0, 1: 3, 2: 2, 3: 3, 4: 3}}
    shards, pool = toy_federation(5)
    arch = ArchitectureSpec(2, (4,), 2)
    with scripted_rounds(clusters, donors, selections):
        models, records, _ = engine.run_fedme(shards, [arch] * 5, pool,
                                              FedMeConfig(rounds=2, lr=0.05, seed=9))
    ok = all(r.donor == donors[r.round][r.client] and
             r.a == selections[r.round][r.client] for r in records)
    # round-1 aggregation pairs: lineage 0 gathers {own copy, client 2's
    # exchanged copy}, and every lineage has exactly one borrower
    receivers = {i: [j for j in range(5) if donors[1][j] == i] for i in range(5)}
    ok &= receivers == {0: [2], 1: [4], 2: [0], 3: [1], 4: [3]}
    # round-2 redistribution (0, 3, 2, 3, 3): clients 1, 3 and 4 share a model
    ok &= np.array_equal(models[1].params, models[3].params)
    ok &= np.array_equal(models[3].params, models[4].params)
    _report("5 (running-example trace)", bool(ok))


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_kmeans_oracle():
    rng = np.random.default_rng(6)
    ok = True
    for trial in range(30):
        k = int(rng.integers(2, 4))
        pts = rng.normal(size=(int(rng.integers(k + 1, 9)), 2))
        _, inertia = kmeans(pts, k, seed=trial, restarts=20)
        ok &= abs(inertia - best_partition_inertia(pts, k)) <= 1e-9
    _report("6 (k-means oracle)", bool(ok))


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_degeneracy_equivalences():
    shards, _ = toy_federation(5)
    arch = ArchitectureSpec(2, (4,), 2)
    stub = FedMeConfig(rounds=5, lr=0.05, tuning=False, dml=False,
                       cluster_thresholds=(), seed=3)
    models, _, _ = engine.run_fedme(shards, [arch] * 5, None, stub)
    params = FedMeConfig(rounds=5, epochs=2, lr=0.05, seed=3)
    local_models, _, _ = baselines.run_local_only(shards, [arch] * 5, params)
    a_ok = all(np.array_equal(m.params, local.params)
               for m, local in zip(models, local_models))

    one = [shards[0]]
    (avg_model,), _, _, _ = baselines.run_fedavg(one, arch, params)
    (cent_model,), _, _, _ = baselines.run_centralized(one, arch, params)
    b_ok = np.array_equal(avg_model.params, cent_model.params)
    _report("7 (degeneracy equivalences)", a_ok and b_ok)


# ---------------------------------------------------- desk-scale trend runs

def _trend_config(algorithm):
    return validate_config(ExperimentConfig(
        algorithm=algorithm, num_clients=20, rounds=50, epochs=2,
        num_classes=4, dim=16, per_class_count=375, class_separation=3.0,
        noise_sigma=1.5, alpha_label=0.5, alpha_size=10.0, lr=0.05,
        weight_decay=1e-3, model_menu=((8,), (8, 8), (8, 8, 8), (8, 8, 8, 8)),
        cluster_thresholds=(25, 38, 46), fine_tune_epochs=10, repeats=5,
        seed=0))


@pytest.fixture(scope="module")
def fedme_trend():
    """Criterion 8's fedme experiment, which is also criterion 9's
    alpha_label = 0.5 point: (report, wall seconds)."""
    start = time.perf_counter()
    report = run_experiment(_trend_config("fedme"))
    return report, time.perf_counter() - start


def test_criterion_8_trend_reproduction(fedme_trend):
    start = time.perf_counter()
    cent = run_experiment(_trend_config("centralized")).mean
    fedme_acc = fedme_trend[0].mean
    local = run_experiment(
        replace(_trend_config("local_only"), fine_tune_epochs=0)).mean
    elapsed = time.perf_counter() - start + fedme_trend[1]
    print(f"  centralized+FT {cent:.4f}, fedme+FT {fedme_acc:.4f}, "
          f"local-only {local:.4f} ({elapsed:.0f}s)")
    ok = (cent >= fedme_acc > local
          and fedme_acc - local >= 0.05
          and fedme_acc >= 0.9 * cent
          and elapsed < 600.0)
    _report("8 (trend reproduction)", bool(ok))


def test_criterion_9_heterogeneity_direction(fedme_trend):
    gains = {}
    for algorithm in ("fedme", "fedavg"):
        for alpha in (None, 5.0, 0.5, 0.1):
            config = replace(_trend_config(algorithm), alpha_label=alpha)
            report = (fedme_trend[0] if config == _trend_config("fedme")
                      else run_experiment(config))
            gains[(algorithm, alpha)] = report.mean - report.mean_pre_ft
    for algorithm in ("fedme", "fedavg"):
        print(f"  {algorithm} fine-tuning gain: "
              + ", ".join(f"alpha={a if a is not None else 'iid'} "
                          f"{gains[(algorithm, a)]:+.4f}"
                          for a in (None, 5.0, 0.5, 0.1)))
    ok = (gains[("fedme", 0.1)] > gains[("fedme", None)]
          and gains[("fedavg", 0.1)] > gains[("fedavg", None)])
    _report("9 (heterogeneity direction)", bool(ok))


# --------------------------------------------------------------- criterion 10

def test_criterion_10_determinism(tmp_path):
    config = validate_config(ExperimentConfig(
        algorithm="fedme", num_clients=5, rounds=4, epochs=1, num_classes=3,
        dim=4, per_class_count=50, noise_sigma=1.0, unlabeled_count=20,
        model_menu=((4,), (4, 4)), init_policy="best_local", probe_epochs=1,
        cluster_thresholds=(2, 3), fine_tune_epochs=2, repeats=2, lr=0.05,
        seed=11))
    run_experiment(config, str(tmp_path / "a"))
    run_experiment(config, str(tmp_path / "b"))
    ok = True
    for r in range(2):
        for name in ["rounds.csv"] + [f"client_{i}.model" for i in range(5)]:
            a = (tmp_path / "a" / f"run_{r}" / name).read_bytes()
            b = (tmp_path / "b" / f"run_{r}" / name).read_bytes()
            ok &= a == b
    ok &= ((tmp_path / "a" / "summary.csv").read_bytes()
           == (tmp_path / "b" / "summary.csv").read_bytes())
    _report("10 (determinism)", bool(ok))
