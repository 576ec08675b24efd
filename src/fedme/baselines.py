"""Reference algorithms: Local-Only, Centralized, FedAvg, and HypCluster.

All baselines share the round/epoch structure, RNG stream derivation, and
evaluation operation of the exchange engine so accuracy comparisons are
apples-to-apples; as everywhere, every training call starts from zero momentum.
"""
from __future__ import annotations

import numpy as np

from . import nn
from .data import ClientShard, Dataset
from .engine import (TAG_BATCH, TAG_INIT, RoundRecord, TrainingParams,
                     derive_seed)
from .nn import ArchitectureSpec, Model


def _train_ce(model: Model, data: Dataset, params: TrainingParams,
              rng: np.random.Generator) -> Model:
    """One round's worth of cross-entropy epochs over the given split, applied
    to `model` in place; returns it."""
    nn._train(model, data.features, data.labels, params, rng)
    return model


def _eval_record(model: Model, shard: ClientShard, t: int,
                 k: int | None = None) -> RoundRecord:
    loss_p_train, _ = nn.evaluate(model, shard.train.features, shard.train.labels)
    loss_p_val, val_acc = nn.evaluate(model, shard.validation.features,
                                      shard.validation.labels)
    _, test_acc = nn.evaluate(model, shard.test.features, shard.test.labels)
    return RoundRecord(round=t, client=shard.client_id, k=k if k is not None else 1,
                       cluster=None, donor=None, a=None,
                       loss_p_train=loss_p_train, loss_ex_train=None,
                       loss_p_val=loss_p_val, loss_ex_val=None,
                       val_acc=val_acc, test_acc=test_acc,
                       client_ms=0.0, server_ms=0.0)


def run_local_only(shards: list[ClientShard], archs: list[ArchitectureSpec],
                   params: TrainingParams):
    """Each client trains its own model for rounds*epochs epochs, no
    communication. Returns (per-client models, round records)."""
    models = [nn.init_model(arch, derive_seed(params.seed, TAG_INIT, i))
              for i, arch in enumerate(archs)]
    records = []
    for t in range(1, params.rounds + 1):
        for i, shard in enumerate(shards):
            rng = np.random.default_rng(derive_seed(params.seed, TAG_BATCH, t, i))
            models[i] = _train_ce(models[i], shard.train, params, rng)
            records.append(_eval_record(models[i], shard, t))
    return models, records


def pool_train_splits(shards: list[ClientShard]) -> Dataset:
    features = np.concatenate([s.train.features for s in shards])
    labels = np.concatenate([s.train.labels for s in shards])
    return Dataset(features, labels, shards[0].train.num_classes)


def run_centralized(shards: list[ClientShard], arch: ArchitectureSpec,
                    params: TrainingParams):
    """Pool all train splits and train a single model on the server."""
    pooled = pool_train_splits(shards)
    model = nn.init_model(arch, derive_seed(params.seed, TAG_INIT, 0))
    records = []
    for t in range(1, params.rounds + 1):
        rng = np.random.default_rng(derive_seed(params.seed, TAG_BATCH, t, 0))
        model = _train_ce(model, pooled, params, rng)
        for shard in shards:
            records.append(_eval_record(model, shard, t))
    return model, records


def run_fedavg(shards: list[ClientShard], arch: ArchitectureSpec,
               params: TrainingParams, weighting: str = "size"):
    """Each round every client trains the global model; the server replaces it
    with the (train-size-weighted) average of client models."""
    if weighting not in ("size", "uniform"):
        raise ValueError(f"weighting must be 'size' or 'uniform', got {weighting!r}")
    global_model = nn.init_model(arch, derive_seed(params.seed, TAG_INIT, 0))
    weights = np.array([float(s.train.n) for s in shards]) if weighting == "size" \
        else np.ones(len(shards))
    weights = weights / weights.sum()
    records = []
    for t in range(1, params.rounds + 1):
        locals_ = []
        for i, shard in enumerate(shards):
            model = global_model.copy()
            rng = np.random.default_rng(derive_seed(params.seed, TAG_BATCH, t, i))
            locals_.append(_train_ce(model, shard.train, params, rng))
        mean = np.einsum("i,ij->j", weights, np.stack([m.params for m in locals_]))
        global_model = Model(arch, mean)
        for shard in shards:
            records.append(_eval_record(global_model, shard, t))
    return global_model, records


def run_hypcluster(shards: list[ClientShard], arch: ArchitectureSpec,
                   params: TrainingParams, q: int = 2, criterion: str = "loss"):
    """The server keeps q global models; every round each client trains only
    its best-fitting one (by validation loss, or accuracy when configured) and
    the server averages the returned copies per model, train-size-weighted.
    Returns (global models, per-client final choice, round records)."""
    if q < 2:
        raise ValueError(f"hypcluster needs q >= 2 global models, got {q}")
    if criterion not in ("loss", "accuracy"):
        raise ValueError(f"criterion must be 'loss' or 'accuracy', got {criterion!r}")
    globals_ = [nn.init_model(arch, derive_seed(params.seed, TAG_INIT, g))
                for g in range(q)]
    choices = [0] * len(shards)
    records = []
    for t in range(1, params.rounds + 1):
        returned: list[list[tuple[Model, float]]] = [[] for _ in range(q)]
        for i, shard in enumerate(shards):
            scores = []
            for g in range(q):
                loss, acc = nn.evaluate(globals_[g], shard.validation.features,
                                        shard.validation.labels)
                scores.append(loss if criterion == "loss" else -acc)
            choice = int(np.argmin(scores))  # ties resolve to the lowest index
            choices[i] = choice
            model = globals_[choice].copy()
            rng = np.random.default_rng(derive_seed(params.seed, TAG_BATCH, t, i))
            model = _train_ce(model, shard.train, params, rng)
            returned[choice].append((model, float(shard.train.n)))
        for g in range(q):
            if not returned[g]:
                continue  # no adherents: carried over unchanged
            weights = np.array([w for _, w in returned[g]])
            weights /= weights.sum()
            mean = np.einsum("i,ij->j", weights,
                             np.stack([m.params for m, _ in returned[g]]))
            globals_[g] = Model(arch, mean)
        for i, shard in enumerate(shards):
            records.append(_eval_record(globals_[choices[i]], shard, t, k=q))
    return globals_, choices, records
