import itertools
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedme import baselines, engine, nn
from fedme.clustering import cluster_count
from fedme.engine import ExchangePlan, FedMeConfig, assign_exchanges, derive_seed
from fedme.harness import write_timings
from fedme.nn import ArchitectureSpec, Model
from reference import scripted_rounds, toy_shards

ARCH = ArchitectureSpec(2, (4,), 2)
TINY = ArchitectureSpec(1, (1,), 2)  # 6 parameters


def _pool(seed=0, n=40):
    return np.random.default_rng(seed).normal(size=(n, 2))


def test_model_outputs_shape_and_content():
    models = [nn.init_model(ARCH, s) for s in range(3)]
    pool = _pool()
    feats = engine.model_outputs_on_unlabeled(models, pool)
    assert feats.shape == (3, len(pool) * 2)
    assert np.array_equal(feats[1], nn.forward(models[1], pool).ravel())
    with pytest.raises(ValueError, match="unlabeled pool is empty"):
        engine.model_outputs_on_unlabeled(models, np.zeros((0, 2)))


def test_model_outputs_forward_each_distinct_model_once(monkeypatch):
    # (3,) and (3, 1) both have 17 parameters at input 2 with 2 classes
    base = [nn.init_model(ArchitectureSpec(2, (3,), 2), s) for s in range(3)]
    twin = Model(ArchitectureSpec(2, (3, 1), 2), base[0].params.copy())
    # models of one lineage share their parameter bytes, in distinct arrays;
    # the twin shares them with base[0] but is another architecture, so
    # another model
    def own(m):
        return Model(m.arch, m.params.copy())

    models = [base[0], own(base[1]), own(base[0]), twin, base[2],
              own(base[1]), own(base[0]), own(twin)]
    pool = _pool()
    want = np.stack([nn.forward(m, pool).ravel() for m in models])
    calls = []
    forward = nn.forward
    monkeypatch.setattr(nn, "forward", lambda m, x: calls.append(m) or forward(m, x))
    feats = engine.model_outputs_on_unlabeled(models, pool)
    assert len(calls) == 4
    assert feats.tobytes() == want.tobytes()
    assert not np.array_equal(feats[0], feats[3])


@pytest.mark.parametrize("algorithm", ["fedme", "local_only", "centralized",
                                       "fedavg", "hypcluster"])
def test_laps_book_every_interval_of_a_round_once(algorithm, monkeypatch,
                                                  tmp_path):
    # a clock that advances 1 s per call makes every lap exactly 1000 ms
    monkeypatch.setattr(engine, "time",
                        SimpleNamespace(perf_counter=itertools.count().__next__))
    lapped = []  # the round of every lap, in call order
    lap = engine.Laps.lap
    monkeypatch.setattr(engine.Laps, "lap", lambda self, t, span:
                        lapped.append(t) or lap(self, t, span))
    thresholds = (3, 5)
    config = FedMeConfig(rounds=6, lr=0.05, cluster_thresholds=thresholds, seed=3)
    shards, archs = toy_shards(5), [ARCH] * 5
    run = {"fedme": lambda: engine.run_fedme(shards, archs, _pool(), config),
           "local_only": lambda: baselines.run_local_only(shards, archs, config),
           "centralized": lambda: baselines.run_centralized(shards, ARCH, config),
           "fedavg": lambda: baselines.run_fedavg(shards, ARCH, config),
           "hypcluster": lambda: baselines.run_hypcluster(shards, ARCH, config)}
    laps = run[algorithm]()[-1]
    assert lapped == sorted(lapped) and set(lapped) == set(range(1, 7))
    write_timings(laps, tmp_path / "timings.csv")
    header, *rows = [line.split(",") for line in
                     (tmp_path / "timings.csv").read_text().splitlines()]
    assert header == ["round", *engine.SPANS]
    assert [int(row[0]) for row in rows] == list(range(1, 7))
    assert sum(sum(spans.values()) for spans in laps.rounds) == 1000.0 * len(lapped)
    for t, spans in enumerate(laps.rounds, start=1):
        assert sum(spans.values()) == 1000.0 * lapped.count(t), t
        clustered = (algorithm == "fedme"
                     and cluster_count(t, thresholds, config.k_max, 5) >= 2)
        assert (spans["pool_ms"] > 0) == clustered, t
        assert (spans["kmeans_ms"] > 0) == clustered, t


@pytest.mark.parametrize("keys", [(0,), (2**32 - 1,), (2**32,), (2**64 + 3,),
                                  (7, 2**32, 0, 2**64 + 3, 1),
                                  (np.int64(5), np.uint32(2**32 - 1), np.uint64(2**63 + 1))])
def test_derive_seed_streams_equal_the_list_forms(keys):
    got = np.random.default_rng(derive_seed(*keys))
    want = np.random.default_rng(np.random.SeedSequence(list(keys)))
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(4).tobytes() == want.random(4).tobytes()


@pytest.mark.parametrize("keys", [(-1,), (3, np.int64(-2))])
def test_derive_seed_rejects_negative_keys(keys):
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(*keys)


def test_exchange_plan_rejects_self_donor():
    with pytest.raises(ValueError):
        ExchangePlan(1, {0: 0, 1: 0}, {0: 0, 1: 0}, 1)


def test_assign_exchanges_respects_clusters():
    assignments = np.array([0, 0, 0, 1, 1, 1, 2])
    for t in range(1, 40):
        plan = assign_exchanges(assignments, t, seed=11, k=3)
        for i, donor in plan.donor.items():
            assert donor != i
            if i < 6:
                assert assignments[donor] == assignments[i]
            else:
                # singleton cluster draws from everyone else
                assert donor in range(6)


def test_assign_exchanges_deterministic_and_round_varying():
    assignments = np.zeros(6, dtype=int)
    p1 = assign_exchanges(assignments, 3, seed=5, k=1)
    p2 = assign_exchanges(assignments, 3, seed=5, k=1)
    assert p1.donor == p2.donor
    others = [assign_exchanges(assignments, t, seed=5, k=1).donor for t in range(1, 30)]
    assert any(d != p1.donor for d in others)


def test_assign_exchanges_duplicates_possible():
    assignments = np.zeros(8, dtype=int)
    seen_duplicate = False
    for t in range(1, 50):
        donors = list(assign_exchanges(assignments, t, seed=2, k=1).donor.values())
        if len(set(donors)) < len(donors):
            seen_duplicate = True
            break
    assert seen_duplicate


def test_assign_exchanges_donor_distribution_uniform():
    assignments = np.zeros(5, dtype=int)
    counts = {j: 0 for j in (1, 2, 3, 4)}
    draws = 4000
    for t in range(1, draws + 1):
        counts[assign_exchanges(assignments, t, seed=7, k=1).donor[0]] += 1
    # Pearson's chi-squared statistic against uniform; the bound is the 0.999
    # quantile of chi-squared with 3 degrees of freedom, so p > 1e-3
    observed = np.array(list(counts.values()))
    stat = float(np.sum((observed - draws / 4) ** 2 / (draws / 4)))
    assert stat < 16.26623619623813


@pytest.mark.parametrize("seed", range(4))
def test_a_round_records_its_scheduled_cluster_count(seed):
    # 4 clients of one model and 2 of another give k-means 2 distinct
    # prediction vectors, so it leaves one of the 3 scheduled clusters empty
    models = [nn.init_model(ARCH, 0)] * 4 + [nn.init_model(ARCH, 1)] * 2
    config = FedMeConfig(cluster_thresholds=(1, 2), k_max=3, seed=seed)
    assert cluster_count(2, config.cluster_thresholds, config.k_max, 6) == 3
    plan = engine._plan_round(models, _pool(), 2, config, engine.Laps())
    assert len(set(plan.cluster_of.values())) == 2
    assert plan.k == 3


def test_a_plan_keeps_the_cluster_count_it_is_given():
    assert assign_exchanges(np.array([0, 0, 1, 1]), 2, seed=0, k=3).k == 3


def test_assign_exchanges_needs_two_clients():
    with pytest.raises(ValueError):
        assign_exchanges(np.zeros(1, dtype=int), 1, seed=0, k=1)


def test_model_tuning_tie_and_strict():
    assert engine.model_tuning(0.5, 0.5, client_id=3, exchange_origin=7) == 3
    assert engine.model_tuning(0.4, 0.5, client_id=3, exchange_origin=7) == 3
    assert engine.model_tuning(0.6, 0.5, client_id=3, exchange_origin=7) == 7


def _tiny(params):
    return Model(TINY, np.asarray(params, dtype=float))


def test_aggregate_per_lineage_means():
    # donors: client 1 and 2 both hold lineage 0; client 0 holds lineage 1
    plan = ExchangePlan(1, {0: 1, 1: 0, 2: 0}, {0: 0, 1: 0, 2: 0}, 1)
    models = [_tiny([1.0] * 6), _tiny([2.0] * 6), _tiny([3.0] * 6)]
    exchanged = {0: _tiny([10.0] * 6), 1: _tiny([4.0] * 6), 2: _tiny([7.0] * 6)}
    agg = engine.aggregate(models, exchanged, plan)
    assert np.allclose(agg[0].params, (1.0 + 4.0 + 7.0) / 3)
    assert np.allclose(agg[1].params, (2.0 + 10.0) / 2)
    assert np.allclose(agg[2].params, 3.0)  # nobody borrowed lineage 2


@st.composite
def _assignments(draw):
    n = draw(st.integers(2, 12))
    return np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


@settings(deadline=None)
@given(assignments=_assignments(), t=st.integers(1, 1000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_plan_to_aggregate_contract(assignments, t, seed):
    n = len(assignments)
    plan = assign_exchanges(assignments, t, seed, k=n)
    assert sorted(plan.donor) == list(range(n))
    for i, donor in plan.donor.items():
        assert donor != i
        singleton = np.count_nonzero(assignments == assignments[i]) == 1
        assert singleton or assignments[donor] == assignments[i]
    # each lineage averages its owner's model (all 0) and its s_i borrowed
    # models (all 1): exactly those objects, so the mean is s_i / (s_i + 1);
    # a lineage nobody borrowed (s_i = 0) is the mean of its owner's alone
    models = [_tiny([0.0] * 6) for _ in range(n)]
    exchanged = {i: _tiny([1.0] * 6) for i in range(n)}
    with mock.patch.object(nn, "average_params", wraps=nn.average_params) as spy:
        agg = engine.aggregate(models, exchanged, plan)
    copies = {i: [models[i]] +
                 [exchanged[j] for j in range(n) if plan.donor[j] == i]
              for i in range(n)}
    assert sorted(sorted(map(id, c.args[0])) for c in spy.call_args_list) == \
        sorted(sorted(map(id, group)) for group in copies.values())
    for i, group in copies.items():
        s_i = len(group) - 1
        assert np.all(agg[i].params == s_i / (s_i + 1))
    # the empty plan (exchange off) hands every owner its own model's bits
    # in a new array, which holds on to no training stack
    rng = np.random.default_rng(seed)
    owners = [_tiny(rng.normal(size=6)) for _ in range(n)]
    alone = engine.aggregate(owners, {}, ExchangePlan(t, {}, {}, 1))
    for i in range(n):
        assert alone[i].params.tobytes() == owners[i].params.tobytes()
        assert not np.shares_memory(alone[i].params, owners[i].params)


def test_aggregate_and_redistribute_leave_their_arguments_unchanged():
    plan = ExchangePlan(1, {0: 1, 2: 1}, {0: 0, 1: 0, 2: 0}, 1)
    models = [_tiny([1.0] * 6), _tiny([2.0] * 6), _tiny([3.0] * 6)]
    exchanged = {0: _tiny([4.0] * 6), 2: _tiny([5.0] * 6)}
    selections = {0: 1, 1: 1, 2: 0}
    inputs = [*models, *exchanged.values()]
    frozen = [m.params.copy() for m in inputs]
    agg = engine.aggregate(models, exchanged, plan)
    frozen_agg = {i: m.params.copy() for i, m in agg.items()}
    new = engine.redistribute(agg, selections)
    assert sorted(exchanged) == [0, 2] and selections == {0: 1, 1: 1, 2: 0}
    assert all(np.array_equal(m.params, p) for m, p in zip(inputs, frozen))
    assert sorted(agg) == [0, 1, 2]
    assert all(np.array_equal(agg[i].params, p) for i, p in frozen_agg.items())
    # each client gets its selected lineage itself
    assert all(new[i] is agg[a] for i, a in selections.items())


def test_redistribute_independent_copies():
    plan = ExchangePlan(1, {0: 1, 1: 0}, {0: 0, 1: 0}, 1)
    models = [_tiny([1.0] * 6), _tiny([2.0] * 6)]
    exchanged = {0: _tiny([2.0] * 6), 1: _tiny([1.0] * 6)}
    agg = engine.aggregate(models, exchanged, plan)
    new = engine.redistribute(agg, {0: 1, 1: 1})
    assert len(new) == 2
    assert np.array_equal(new[0].params, agg[1].params)
    # the two clients share one read-only lineage, so neither can change
    # the other's model
    assert new[0] is new[1]
    with pytest.raises(ValueError, match="read-only"):
        new[0].params[0] = 99.0
    assert new[1].params[0] == 2.0


def test_dml_train_reduces_loss_and_keeps_momentum_within_round():
    shard = toy_shards(1, 60)[0]
    model, peer = nn.init_model(ARCH, 0), nn.init_model(ARCH, 1)
    before_p, _ = nn.evaluate(model, shard.train.features, shard.train.labels)
    config = FedMeConfig(rounds=1, epochs=3, lr=0.05)
    ((trained, borrowed),) = engine.dml_train([model], [peer], [shard], config,
                                              [np.random.default_rng(0)])
    after_p, _ = nn.evaluate(trained, shard.train.features, shard.train.labels)
    after_ex, _ = nn.evaluate(borrowed, shard.train.features, shard.train.labels)
    assert after_p < before_p
    assert after_ex < 0.7  # the borrowed model trains too
    # a step from a zero buffer is a momentum-free step, so only a buffer
    # carried across the round's batches can set the two runs apart
    ((plain, _),) = engine.dml_train([model], [peer], [shard],
                                     replace(config, momentum=0.0),
                                     [np.random.default_rng(0)])
    assert not np.array_equal(plain.params, trained.params)


def test_run_fedme_deterministic():
    shards = toy_shards(5)
    archs = [ARCH] * 5
    config = FedMeConfig(rounds=3, lr=0.05, cluster_thresholds=(2,), seed=4)
    models_a, records_a, _ = engine.run_fedme(shards, archs, _pool(), config)
    models_b, records_b, _ = engine.run_fedme(shards, archs, _pool(), config)
    for ma, mb in zip(models_a, models_b):
        assert np.array_equal(ma.params, mb.params)
    assert records_a == records_b


def test_run_fedme_record_structure_and_schedule():
    shards = toy_shards(5)
    config = FedMeConfig(rounds=4, lr=0.05, cluster_thresholds=(2, 3), seed=1)
    _, records, _ = engine.run_fedme(shards, [ARCH] * 5, _pool(), config)
    assert len(records) == 4 * 5
    by_round = {t: [r for r in records if r.round == t] for t in (1, 2, 3, 4)}
    assert all(r.k == 1 for r in by_round[1])
    assert all(r.k == 2 for r in by_round[2])
    assert all(r.k == 3 for r in by_round[3])
    for r in records:
        assert r.donor is not None and r.donor != r.client
        assert r.a in (r.client, r.donor)
        assert 0 <= r.cluster < r.k
        assert 0.0 <= r.val_acc <= 1.0


def test_run_fedme_heterogeneous_architectures():
    shards = toy_shards(5)
    archs = [ArchitectureSpec(2, w, 2) for w in ((4,), (4, 4), (8,), (4,), (8, 8))]
    config = FedMeConfig(rounds=2, lr=0.05, seed=2)
    models, records, _ = engine.run_fedme(shards, archs, _pool(), config)
    # a lineage keeps the architecture of whoever carried it; a client's final
    # model follows its selection chain back to the original owner
    a1 = {r.client: r.a for r in records if r.round == 1}
    a2 = {r.client: r.a for r in records if r.round == 2}
    for i, model in enumerate(models):
        assert model.arch == archs[a1[a2[i]]]


def test_run_fedme_tuning_off_keeps_own_lineage():
    shards = toy_shards(5)
    config = FedMeConfig(rounds=2, lr=0.05, tuning=False, seed=0)
    _, records, _ = engine.run_fedme(shards, [ARCH] * 5, _pool(), config)
    assert all(r.a == r.client for r in records)


def test_run_fedme_exchange_off_runs_the_empty_plan(monkeypatch):
    # a run with no pool, and so Local-Only, forwards no pool, clusters
    # nothing and draws no donors, whatever the cluster schedule
    def unreachable(*args):
        raise AssertionError("a run with no pool planned an exchange")

    for name in ("model_outputs_on_unlabeled", "kmeans", "assign_exchanges"):
        monkeypatch.setattr(engine, name, unreachable)
    shards = toy_shards(5)
    archs = [ArchitectureSpec(2, w, 2) for w in ((4,), (4, 4), (8,), (4,), (8, 8))]
    config = FedMeConfig(rounds=3, lr=0.05, cluster_thresholds=(1, 2), seed=6)
    _, records, _ = engine.run_fedme(shards, archs, None, config)
    assert len(records) == 3 * 5
    for r in records:
        assert r.k == 1 and r.cluster is None and r.donor is None and r.a is None
        assert r.loss_ex_train is None and r.loss_ex_val is None
    assert baselines.run_local_only(shards, archs, config)[1] == records


def test_local_only_scores_each_round_on_its_redistributed_models(monkeypatch):
    redistributed = []
    redistribute = engine.redistribute

    def recording(aggregated, selections):
        redistributed.append(redistribute(aggregated, selections))
        return redistributed[-1]

    monkeypatch.setattr(engine, "redistribute", recording)
    shards = toy_shards(5)
    _, records, _ = baselines.run_local_only(shards, [ARCH] * 5,
                                             FedMeConfig(rounds=3, lr=0.05, seed=4))
    assert len(records) == 3 * 5
    for r in records:
        model, shard = redistributed[r.round - 1][r.client], shards[r.client]
        assert [r.val_acc, r.test_acc] == [nn.evaluate(model, s.features, s.labels)[1]
                                           for s in (shard.validation, shard.test)]


@pytest.mark.parametrize("algorithm, per_client", [("local_only", 1), ("fedme", 3)])
def test_evaluate_splits_calls_per_client_and_round(algorithm, per_client, monkeypatch):
    # a Local-Only client scores train | val | test in one pass; a FedMe
    # client scores its model and its peer, then its redistributed model
    calls = []
    evaluate_splits = nn.evaluate_splits
    monkeypatch.setattr(nn, "evaluate_splits",
                        lambda *args: calls.append(args) or evaluate_splits(*args))
    config = FedMeConfig(rounds=3, lr=0.05, seed=2)
    if algorithm == "fedme":
        engine.run_fedme(toy_shards(5), [ARCH] * 5, _pool(), config)
    else:
        baselines.run_local_only(toy_shards(5), [ARCH] * 5, config)
    assert len(calls) == per_client * 5 * 3


def test_run_fedme_scripted_trace():
    # a fully pinned two-round walk through exchange, tuning and redistribution
    donors = {1: {0: 2, 1: 3, 2: 0, 3: 4, 4: 1},
              2: {0: 2, 1: 3, 2: 0, 3: 1, 4: 3}}
    clusters = {1: np.zeros(5, dtype=int),
                2: np.array([0, 1, 0, 1, 1])}
    selections = {1: {0: 2, 1: 1, 2: 2, 3: 3, 4: 1},
                  2: {0: 0, 1: 3, 2: 2, 3: 3, 4: 3}}
    shards = toy_shards(5)
    config = FedMeConfig(rounds=2, lr=0.05, seed=9)
    with scripted_rounds(clusters, donors, selections):
        models, records, _ = engine.run_fedme(shards, [ARCH] * 5, _pool(), config)
    for r in records:
        assert r.donor == donors[r.round][r.client]
        assert r.a == selections[r.round][r.client]
        assert r.cluster == clusters[r.round][r.client]
    # round 2: donors stay within the forced clusters
    for i, donor in donors[2].items():
        assert clusters[2][i] == clusters[2][donor]
    # clients that selected the same lineage in round 2 hold identical params
    assert np.array_equal(models[1].params, models[3].params)
    assert np.array_equal(models[3].params, models[4].params)
    # clients 0 and 2 entered round 2 holding identical models (both picked
    # lineage 2 in round 1) and then swapped, so their lineages coincide too
    assert np.array_equal(models[0].params, models[2].params)
    assert not np.array_equal(models[0].params, models[1].params)


def test_fine_tune_deterministic_and_nondestructive():
    shard = toy_shards(1, 60)[0]
    model = nn.init_model(ARCH, 0)
    frozen = model.params.copy()
    params = FedMeConfig(rounds=1, epochs=3, lr=0.05, seed=5)
    (t1,), (acc1,) = engine.fine_tune([model], [shard], params)
    (t2,), (acc2,) = engine.fine_tune([model], [shard], params)
    assert np.array_equal(t1.params, t2.params) and acc1 == acc2
    assert np.array_equal(model.params, frozen)
    before, _ = nn.evaluate(model, shard.train.features, shard.train.labels)
    after, _ = nn.evaluate(t1, shard.train.features, shard.train.labels)
    assert after < before
    assert acc1 == nn.evaluate(t1, shard.test.features, shard.test.labels)[1]
