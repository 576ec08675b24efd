import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedme import baselines, engine, nn
from fedme.clustering import cluster_count
from fedme.data import ClientShard, Dataset, split_shard
from fedme.engine import TAG_INIT, FedMeConfig, RoundOverrides, derive_seed
from fedme.nn import ArchitectureSpec, Model
from reference import toy_shards

ARCH = ArchitectureSpec(2, (4,), 2)
TINY = ArchitectureSpec(1, (1,), 2)


def _manual_shard(cid, train_n):
    rng = np.random.default_rng(cid)
    mk = lambda n: Dataset(rng.normal(size=(n, 1)), rng.integers(0, 2, size=n), 2)
    return ClientShard(mk(train_n), mk(2), mk(2))


def test_local_only_no_communication():
    shards = toy_shards(4)
    params = FedMeConfig(rounds=3, lr=0.05, seed=1)
    models, records, _ = baselines.run_local_only(shards, [ARCH] * 4, params)
    assert len(models) == 4 and len(records) == 3 * 4
    for i in range(1, 4):
        assert not np.array_equal(models[0].params, models[i].params)
    again, _, _ = baselines.run_local_only(shards, [ARCH] * 4, params)
    for a, b in zip(models, again):
        assert np.array_equal(a.params, b.params)


def test_local_only_learns():
    shards = toy_shards(4)
    params = FedMeConfig(rounds=5, lr=0.05, seed=0)
    models, records, _ = baselines.run_local_only(shards, [ARCH] * 4, params)
    final = [r.test_acc for r in records if r.round == 5]
    assert np.mean(final) > 0.7


def test_local_only_records_equal_fedme_without_donors():
    # the criterion-7 stub: exchange, tuning, DML and clustering all off
    shards = toy_shards(5)
    stub = FedMeConfig(rounds=5, lr=0.05, tuning=False, dml=False,
                       cluster_thresholds=(), seed=3)
    _, fedme_records, _ = engine.run_fedme(shards, [ARCH] * 5, None, stub,
                                           RoundOverrides(donors=lambda t, a: {}))
    params = FedMeConfig(rounds=5, epochs=2, lr=0.05, seed=3)
    _, local_records, _ = baselines.run_local_only(shards, [ARCH] * 5, params)
    fields = ("round", "client", "loss_p_train", "loss_p_val", "val_acc",
              "test_acc")
    assert ([[getattr(r, f) for f in fields] for r in local_records]
            == [[getattr(r, f) for f in fields] for r in fedme_records])


def test_local_only_single_client():
    models, records, _ = baselines.run_local_only(
        toy_shards(1), [ARCH], FedMeConfig(rounds=2, lr=0.05, seed=0))
    assert len(models) == 1 and [r.round for r in records] == [1, 2]


def test_pool_train_splits():
    shards = toy_shards(4)
    pooled = baselines.pool_train_splits(shards)
    assert pooled.n == sum(s.train.n for s in shards)


def test_centralized_deterministic_and_learns():
    shards = toy_shards(4)
    params = FedMeConfig(rounds=5, lr=0.05, seed=2)
    (model,), _, records, _ = baselines.run_centralized(shards, ARCH, params)
    (model2,), _, _, _ = baselines.run_centralized(shards, ARCH, params)
    assert np.array_equal(model.params, model2.params)
    assert len(records) == 5 * 4
    assert np.mean([r.test_acc for r in records if r.round == 5]) > 0.8


def test_fedavg_weighted_mean_exact(monkeypatch):
    # pin the local updates so the server-side average is checkable by hand
    shards = [_manual_shard(0, 1), _manual_shard(1, 3)]
    outputs = iter([np.array([1.0, 1.0, 0, 0, 0, 0]),
                    np.array([3.0, 5.0, 0, 0, 0, 0])])

    def pinned(jobs, params):
        return [(Model(job.model.arch, next(outputs)), None) for job in jobs]

    monkeypatch.setattr(baselines.nn, "train", pinned)
    params = FedMeConfig(rounds=1, lr=0.05, seed=0)
    (model,), _, _, _ = baselines.run_fedavg(shards, TINY, params)
    assert np.allclose(model.params[:2], [2.5, 4.0])


def test_fedavg_single_client_equals_centralized():
    shard = toy_shards(2, 40)[0]
    params = FedMeConfig(rounds=3, lr=0.05, seed=4)
    (avg_model,), _, _, _ = baselines.run_fedavg([shard], ARCH, params)
    (cent_model,), _, _, _ = baselines.run_centralized([shard], ARCH, params)
    assert np.array_equal(avg_model.params, cent_model.params)


def _tie_every_score(monkeypatch):
    monkeypatch.setattr(baselines.nn, "evaluate_splits",
                        lambda m, x, y, ends: [(1.0, 0.5)] * (len(ends) - 1))


def test_hypcluster_unchosen_models_carried_unchanged(monkeypatch):
    # every score ties, so every client trains global 0 and global 1 is
    # carried over unchanged
    _tie_every_score(monkeypatch)
    params = FedMeConfig(rounds=1, lr=0.05, seed=6)
    globals_, choices, records, _ = baselines.run_hypcluster(
        toy_shards(4), ARCH, params)
    assert len(records) == 4 and all(r.k == 2 for r in records)
    assert 1 not in choices
    for g in range(2):
        init = nn.init_model(ARCH, derive_seed(params.seed, TAG_INIT, g))
        assert np.array_equal(globals_[g].params, init.params) == (g == 1)


def test_hypcluster_ties_resolve_to_lowest_index(monkeypatch):
    _tie_every_score(monkeypatch)
    params = FedMeConfig(rounds=1, lr=0.05, seed=0)
    _, choices, _, _ = baselines.run_hypcluster(toy_shards(4), ARCH, params)
    assert choices == [0, 0, 0, 0]


@pytest.mark.parametrize("algorithm", ["fedavg", "hypcluster"])
def test_server_model_records_score_each_clients_final_global(algorithm):
    shards = toy_shards(5, rows_each=24, seed=11)
    config = FedMeConfig(rounds=3, lr=0.05, seed=11)
    if algorithm == "fedavg":
        globals_, choices, records, _ = baselines.run_fedavg(shards, ARCH, config)
    else:
        globals_, choices, records, _ = baselines.run_hypcluster(shards, ARCH, config)
        assert set(choices) == {0, 1}  # both models score some shard
    last = [r for r in records if r.round == 3]
    assert [r.client for r in last] == list(range(len(shards)))
    for r, shard, c in zip(last, shards, choices):
        model = globals_[c]
        loss_train, _ = nn.evaluate(model, shard.train.features, shard.train.labels)
        loss_val, val_acc = nn.evaluate(model, shard.validation.features,
                                        shard.validation.labels)
        _, test_acc = nn.evaluate(model, shard.test.features, shard.test.labels)
        assert (r.loss_p_train, r.loss_p_val, r.val_acc, r.test_acc) == (
            loss_train, loss_val, val_acc, test_acc)


def test_hypcluster_splits_label_swapped_tasks():
    # two client groups with opposite labelings cannot share one model
    rng = np.random.default_rng(1)
    shards = []
    for cid in range(4):
        feats = rng.normal(size=(40, 2)) + np.array([2.0, 0.0])
        labels = (feats[:, 0] > 2.0).astype(int)
        if cid >= 2:
            labels = 1 - labels
        ds = Dataset(feats, labels, 2)
        shards.append(split_shard(ds, np.arange(40), seed=cid))
    params = FedMeConfig(rounds=20, lr=0.1, seed=0)
    _, choices, records, _ = baselines.run_hypcluster(shards, ARCH, params)
    assert choices[0] == choices[1]
    assert choices[2] == choices[3]
    assert choices[0] != choices[2]
    assert np.mean([r.test_acc for r in records if r.round == 20]) > 0.8


@settings(max_examples=8, deadline=None)
@given(num_clients=st.integers(2, 6), rounds=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_every_algorithm_keeps_the_record_contract(num_clients, rounds, seed):
    shards = toy_shards(num_clients, rows_each=15, seed=seed)
    pool = np.random.default_rng(seed).normal(size=(10, 2))
    config = FedMeConfig(rounds=rounds, lr=0.05, seed=seed,
                         cluster_thresholds=(1, 2), k_max=2)
    archs = [ARCH] * num_clients
    runs = {
        "fedme": lambda: engine.run_fedme(shards, archs, pool, config),
        "local_only": lambda: baselines.run_local_only(shards, archs, config),
        "centralized": lambda: baselines.run_centralized(shards, ARCH, config),
        "fedavg": lambda: baselines.run_fedavg(shards, ARCH, config),
        "hypcluster": lambda: baselines.run_hypcluster(shards, ARCH, config),
    }
    order = [(t, i) for t in range(1, rounds + 1) for i in range(num_clients)]
    for algorithm, run in runs.items():
        *_, records, laps = run()
        assert [(r.round, r.client) for r in records] == order, algorithm
        if algorithm == "fedme":
            # the scheduled count, even where k-means leaves a cluster empty
            assert all(r.k == cluster_count(r.round, (1, 2), 2, num_clients)
                       for r in records)
        else:
            k = 2 if algorithm == "hypcluster" else 1
            assert all(r.k == k for r in records), algorithm
            assert all(r.cluster is None and r.donor is None and r.a is None
                       and r.loss_ex_train is None and r.loss_ex_val is None
                       for r in records), algorithm
            assert all(spans["pool_ms"] == spans["kmeans_ms"] == 0.0
                       for spans in laps.rounds), algorithm
        assert run()[-2] == records, algorithm
