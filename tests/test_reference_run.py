"""All five runners equal the reference runs of `reference.py`, bit for bit,
on drawn desk-scale federations: every record field, every final model's
bytes and the server-model runners' choices. On the same draws, the runs
keep the run-level properties that no single round shows: a shorter run is
a prefix of a longer one, every record's donor and adoption are ones the
round allows, each client's architecture is its root lineage's, and FedMe
with no donors is Local-Only.

Every split has at least 2 rows: BLAS scores a one-row split by
matrix-vector code, which rounds differently from the stacked pass (see
`tests/test_nn.py`)."""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedme import baselines, engine
from fedme.data import ClientShard, Dataset
from fedme.engine import FedMeConfig
from fedme.nn import ArchitectureSpec
from reference import reference_fedme, reference_server_models

# fan-in at most 16 into every layer, and no layer one unit wide
WIDTHS = st.lists(st.integers(2, 16), min_size=1, max_size=3).map(tuple)


@st.composite
def _runs(draw):
    """(shards, per-client architectures, pool, config)."""
    n = draw(st.integers(3, 7), label="clients")
    dim = draw(st.integers(1, 16), label="dim")
    classes = draw(st.integers(2, 4), label="classes")
    menu = draw(st.lists(WIDTHS, min_size=1, max_size=3), label="menu")
    archs = [ArchitectureSpec(dim, menu[draw(st.integers(0, len(menu) - 1))], classes)
             for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="data_seed"))

    def split(rows):
        return Dataset(rng.normal(size=(rows, dim)) + 2.0 * rng.normal(size=(1, dim)),
                       rng.integers(0, classes, size=rows), classes)

    shards = [ClientShard(split(draw(st.integers(2, 24), label="train")),
                          split(draw(st.integers(2, 8), label="val")),
                          split(draw(st.integers(2, 8), label="test")))
              for _ in range(n)]
    pool = rng.normal(size=(draw(st.integers(1, 12), label="pool"), dim))
    thresholds = draw(st.lists(st.integers(1, 5), max_size=3, unique=True),
                      label="thresholds")
    config = FedMeConfig(
        rounds=draw(st.integers(1, 5), label="rounds"),
        epochs=draw(st.integers(1, 2), label="epochs"),
        lr=draw(st.sampled_from((0.02, 0.05, 0.2)), label="lr"),
        batch_size=draw(st.integers(1, 12), label="batch_size"),
        seed=draw(st.integers(0, 2 ** 16), label="seed"),
        cluster_thresholds=tuple(sorted(thresholds)),
        k_max=draw(st.integers(1, 4), label="k_max"),
        tuning=draw(st.booleans(), label="tuning"),
        dml=draw(st.booleans(), label="dml"))
    return shards, archs, pool, config


def _bytes(models):
    return [(m.arch, m.params.tobytes()) for m in models]


@settings(max_examples=40, deadline=None)
@given(run=_runs())
def test_every_runner_equals_its_reference_run(run):
    shards, archs, pool, config = run
    models, records, _ = engine.run_fedme(shards, archs, pool, config)
    want_models, want_records = reference_fedme(shards, archs, pool, config)
    assert records == want_records
    assert _bytes(models) == _bytes(want_models)

    models, records, _ = baselines.run_local_only(shards, archs, config)
    want_models, want_records = reference_fedme(shards, archs, None, config, exchange=False)
    assert records == want_records
    assert _bytes(models) == _bytes(want_models)

    arch = archs[0]
    pooled = [baselines.pool_train_splits(shards)]
    trains = [s.train for s in shards]
    for runner, train_sets, q in ((baselines.run_centralized, pooled, 1),
                                  (baselines.run_fedavg, trains, 1),
                                  (baselines.run_hypcluster, trains, 2)):
        globals_, choices, records, _ = runner(shards, arch, config)
        want_globals, want_choices, want_records = reference_server_models(
            train_sets, shards, arch, config, q)
        assert records == want_records, runner.__name__
        assert choices == want_choices, runner.__name__
        assert _bytes(globals_) == _bytes(want_globals), runner.__name__


def _roots(records, n):
    """Each round's root lineage of every client: client i adopts lineage
    `a` in round t, so its root is the root of `a` after round t - 1."""
    roots, by_round = [list(range(n))], {}
    for r in records:
        by_round.setdefault(r.round, {})[r.client] = r.a
    for t in sorted(by_round):
        roots.append([roots[-1][by_round[t][i]] for i in range(n)])
    return roots[1:]


@settings(max_examples=40, deadline=None)
@given(run=_runs(), data=st.data())
def test_runs_keep_their_run_level_properties(run, data):
    shards, archs, pool, config = run
    n = len(shards)
    models, records, _ = engine.run_fedme(shards, archs, pool, config)

    # records: a donor from the client's cluster (from anyone else when the
    # cluster is a singleton), and the adopted lineage is one of the two
    for t in range(1, config.rounds + 1):
        round_records = [r for r in records if r.round == t]
        cluster_of = [r.cluster for r in round_records]
        for r in round_records:
            assert r.donor is not None and r.donor != r.client
            assert cluster_of.count(r.cluster) == 1 or cluster_of[r.donor] == r.cluster
            assert r.a in (r.client, r.donor)
            assert config.tuning or r.a == r.client

    # ancestry: a client keeps its root's architecture, and roots only die out
    roots = _roots(records, n)
    assert [m.arch for m in models] == [archs[root] for root in roots[-1]]
    alive = [len(set(round_roots)) for round_roots in roots]
    assert alive == sorted(alive, reverse=True)

    # prefix: a t-round run is the first t rounds of the longer run
    if config.rounds > 1:
        t = data.draw(st.integers(1, config.rounds - 1), label="prefix")
        short = replace(config, rounds=t)
        assert engine.run_fedme(shards, archs, pool, short)[1] == [
            r for r in records if r.round <= t]
        arch = archs[0]
        longer = baselines.run_hypcluster(shards, arch, config)[2]
        assert baselines.run_hypcluster(shards, arch, short)[2] == [
            r for r in longer if r.round <= t]


def _scores(records):
    return [(r.round, r.client, r.donor, r.loss_p_train, r.loss_ex_train, r.loss_p_val,
             r.loss_ex_val, r.val_acc, r.test_acc) for r in records]


@settings(max_examples=40, deadline=None)
@given(run=_runs())
def test_fedme_without_donors_is_local_only(run):
    # mixing: with no exchange there is nothing to mix, whatever the clusters
    shards, archs, pool, config = run
    models, records, _ = engine.run_fedme(shards, archs, pool, config,
                                          engine.RoundOverrides(donors=lambda t, a: {}))
    local_models, local_records, _ = baselines.run_local_only(shards, archs, config)
    assert _bytes(models) == _bytes(local_models)
    assert _scores(records) == _scores(local_records)
