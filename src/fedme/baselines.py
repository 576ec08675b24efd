"""Reference algorithms: Local-Only, Centralized, FedAvg, and HypCluster, on
two loops. Local-Only is the FedMe round path (`engine.run_fedme`) with no
pool; the other three share the server-model loop `_run_server_models`. Both
use the engine's RNG streams and evaluation, so accuracy comparisons are
apples-to-apples; every training call starts from zero momentum.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .data import ClientShard, Dataset
from .engine import (TAG_BATCH, TAG_INIT, FedMeConfig, Laps, RoundRecord,
                     check_outputs, derive_seed, locate_divergence, run_fedme)
from .nn import ArchitectureSpec, Model


def _run_server_models(train_sets: list[Dataset], shards: list[ClientShard],
                       arch: ArchitectureSpec, config: FedMeConfig, q: int = 1):
    """The server keeps q global models. Every round training unit i trains
    one on `train_sets[i]` (when q > 1, the one that best fits `shards[i]`'s
    validation split by loss), and each model becomes the mean of the models
    trained from it weighted by their units' train rows, or is carried over
    if none came back. All units train in one lockstep `nn.train` call a
    round. Returns (global models, per-shard choice, round records, laps)."""
    globals_ = [nn.init_model(arch, derive_seed(config.seed, TAG_INIT, g))
                for g in range(q)]
    # every shard's train | validation | test rows stacked once, so each
    # global model is scored on the whole federation by one forward pass;
    # split s of shard i is rows ends[3 * i + s]:ends[3 * i + s + 1]
    features = np.concatenate([s.features for s in shards])
    labels = np.concatenate([s.labels for s in shards])
    ends = [0]
    for shard in shards:
        ends += [ends[-1] + e for e in shard.ends[1:]]

    def score():  # scores[g][3 * i + s]: (loss, acc) of model g on that split
        return [nn.evaluate_splits(g, features, labels, ends) for g in globals_]

    def who(jobs):  # Centralized's one unit trains on every client's rows
        return f"clients {jobs if len(train_sets) > 1 else list(range(len(shards)))}"

    # a round's choices read the scores of the models it starts from, which
    # are the previous round's record scores
    scores = score() if q > 1 else None
    choices = [0] * len(shards)
    records = []
    laps = Laps()
    for t in range(1, config.rounds + 1):
        if q > 1:  # ties resolve to the lowest index
            choices = [int(np.argmin([scores[g][3 * i + 1][0] for g in range(q)]))
                       for i in range(len(shards))]
        laps.lap(t, "server_ms")
        with locate_divergence(f"round {t}", who):
            trained = [model for model, _ in nn.train(
                [nn.Job(globals_[choices[i]], None, train.features, train.labels,
                        np.random.default_rng(derive_seed(config.seed, TAG_BATCH, t, i)))
                 for i, train in enumerate(train_sets)], config)]
        laps.lap(t, "train_ms")
        for g in range(q):
            units = [i for i in range(len(trained)) if choices[i] == g]
            if units:  # train rows as weights, normalised within the group
                w = np.array([float(train_sets[i].n) for i in units])
                globals_[g] = Model(arch, np.einsum(
                    "i,ij->j", w / w.sum(), np.stack([trained[i].params for i in units])))
        laps.lap(t, "server_ms")
        with locate_divergence(f"round {t}"):
            scores = score()
            check_outputs([scores[choices[i]][3 * i + 1][0] for i in range(len(shards))],
                          config.lr)
        for i in range(len(shards)):
            (loss_p_train, _), (loss_p_val, val_acc), (_, test_acc) = (
                scores[choices[i]][3 * i:3 * i + 3])
            records.append(RoundRecord(
                round=t, client=i, k=q, cluster=None, donor=None,
                a=None, loss_p_train=loss_p_train, loss_ex_train=None,
                loss_p_val=loss_p_val, loss_ex_val=None, val_acc=val_acc,
                test_acc=test_acc))
        laps.lap(t, "score_ms")
    return globals_, choices, records, laps


def run_local_only(shards: list[ClientShard], archs: list[ArchitectureSpec],
                   config: FedMeConfig):
    """Each client trains its own model for rounds*epochs epochs, no
    communication: the FedMe round path with no pool, and so with no
    clusters and no donors. Returns (per-client models, round records, laps)."""
    return run_fedme(shards, archs, None, config)


def pool_train_splits(shards: list[ClientShard]) -> Dataset:
    features = np.concatenate([s.train.features for s in shards])
    labels = np.concatenate([s.train.labels for s in shards])
    return Dataset(features, labels, shards[0].train.num_classes)


def run_centralized(shards: list[ClientShard], arch: ArchitectureSpec,
                    config: FedMeConfig):
    """Pool all train splits and train a single model on the server.
    Returns (global models, per-client choice, round records, laps)."""
    return _run_server_models([pool_train_splits(shards)], shards, arch, config)


def run_fedavg(shards: list[ClientShard], arch: ArchitectureSpec,
               config: FedMeConfig):
    """Each round every client trains the global model; the server replaces it
    with the train-size-weighted average of client models. Returns (global
    models, per-client choice, round records, laps)."""
    return _run_server_models([s.train for s in shards], shards, arch, config)


def run_hypcluster(shards: list[ClientShard], arch: ArchitectureSpec,
                   config: FedMeConfig):
    """The server keeps q = 2 global models; every round each client trains
    only its best-fitting one (by validation loss) and the server averages
    the models trained from each, train-size-weighted. Returns (global
    models, per-client final choice, round records, laps)."""
    return _run_server_models([s.train for s in shards], shards, arch, config, 2)
