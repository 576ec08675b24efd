"""The round engine: clustering on unlabeled-data outputs, exchange
assignment, deep-mutual-learning client training, loss-based model tuning,
per-lineage aggregation, and redistribution.

Determinism: every random choice draws from a stream derived from
(master seed, purpose tag, round, client), so results do not depend on the
order in which client work is executed. Wall time is kept out of
`RoundRecord`: each runner returns it as `Laps`, one row of spans per round.
"""
from __future__ import annotations

import contextlib
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import nn
from .clustering import cluster_count, distinct_rows, kmeans
from .data import ClientShard
from .nn import Model

# purpose tags for deriving independent RNG streams from one master seed
TAG_INIT = 1
TAG_KMEANS = 2
TAG_EXCHANGE = 3
TAG_BATCH = 4
TAG_FINE_TUNE = 5
TAG_SPLIT = 6
TAG_PROBE = 7


def derive_seed(*keys: int) -> np.random.SeedSequence:
    """`SeedSequence(list(keys))`, given the uint32 words numpy derives from
    that list (each key's 32-bit words, low word first, key after key) as an
    array, which numpy takes as it is instead of converting each key."""
    words = []
    for key in keys:
        key = operator.index(key)
        if key < 0:
            raise ValueError(f"expected non-negative integer keys, got {key}")
        words.append(key & 0xFFFFFFFF)
        while key > 0xFFFFFFFF:
            key >>= 32
            words.append(key & 0xFFFFFFFF)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


@dataclass
class ExchangePlan:
    """Who borrows whose model this round; a client missing from `donor`
    borrows nothing, one missing from `cluster_of` is in no cluster, and with
    no donors every lineage is its owner's model alone."""

    round: int
    donor: dict[int, int]
    cluster_of: dict[int, int]
    k: int

    def __post_init__(self):
        for i, j in self.donor.items():
            if i == j:
                raise ValueError(f"client {i} cannot be its own donor")


@dataclass
class RoundRecord:
    round: int
    client: int
    k: int
    cluster: int | None
    donor: int | None
    a: int | None
    loss_p_train: float
    loss_ex_train: float | None
    loss_p_val: float
    loss_ex_val: float | None
    val_acc: float
    test_acc: float


SPANS = ("pool_ms", "kmeans_ms", "train_ms", "score_ms", "server_ms")


class Laps:
    """A lap clock over the rounds of a run, lapped in order: `lap(t, span)`
    books the milliseconds since the previous lap (or since the clock
    started) to round t's span, which `rounds` gains at the round's first
    lap, so each round's spans add up to its wall time."""

    def __init__(self):
        self.rounds: list[dict[str, float]] = []
        self._last = time.perf_counter()

    def lap(self, t: int, span: str) -> None:
        now = time.perf_counter()
        while len(self.rounds) < t:
            self.rounds.append(dict.fromkeys(SPANS, 0.0))
        self.rounds[t - 1][span] += (now - self._last) * 1000.0
        self._last = now


@dataclass
class FedMeConfig:
    """The settings of a FedMe run. The first seven are the training
    hyperparameters every algorithm shares; the training loop reads epochs,
    batch_size, lr, momentum and weight_decay from them."""

    rounds: int = 50
    epochs: int = 2
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 20
    seed: int = 0
    cluster_thresholds: tuple[int, ...] = (25, 38, 46)
    k_max: int = 4
    tuning: bool = True
    dml: bool = True


@contextlib.contextmanager
def locate_divergence(where: str, name=lambda jobs: f"clients {jobs}"):
    """Train, or forward the pool, at `where` (a round, say) with numpy's
    overflow warnings silenced (no bits change): a `nn.DivergenceError` reports
    them, and names `where` and, by `name`, the jobs that diverged."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except nn.DivergenceError as exc:
        exc.args = (f"{where}: {exc.reason} for {name(exc.jobs)}",)
        raise


def check_outputs(outputs, lr: float) -> None:
    """Raise `nn.DivergenceError` naming the clients whose row of `outputs`
    (pool predictions, or validation losses) holds a non-finite value."""
    bad = (~np.isfinite(outputs).reshape(len(outputs), -1).all(axis=1)).nonzero()[0]
    if len(bad):
        raise nn.DivergenceError(f"non-finite model outputs at lr={lr:g}: training "
                                 f"diverged", bad.tolist())


def model_outputs_on_unlabeled(models: list[Model], pool: np.ndarray) -> np.ndarray:
    """Row i is the flattened probability matrix of model i on the pool. Models
    of one architecture with bit-identical parameters (the clients of one
    lineage) are forwarded once and share the row."""
    if len(pool) == 0:
        raise ValueError("unlabeled pool is empty")
    bits = [m.params.view(np.int64) for m in models]
    first, inverse = distinct_rows(
        bits, [(m.arch, int(np.add.reduce(b))) for m, b in zip(models, bits)])
    return np.stack([nn.forward(models[i], pool).ravel() for i in first])[inverse]


def assign_exchanges(assignments: np.ndarray, t: int, seed: int,
                     k: int) -> ExchangePlan:
    """Donor per receiver, uniform within the receiver's cluster (excluding
    itself); a singleton falls back to a uniform draw over all other clients.
    Draws are independent per receiver, so duplicate donors are allowed.
    The plan's `k` is the cluster count the round scheduled, which k-means
    may leave without some labels."""
    assignments = np.asarray(assignments).tolist()  # compared as Python ints
    n = len(assignments)
    if n < 2:
        raise ValueError("need at least 2 clients to exchange models")
    donors = {}
    for i in range(n):
        peers = ([j for j in range(n) if j != i and assignments[j] == assignments[i]]
                 or [j for j in range(n) if j != i])
        rng = np.random.default_rng(derive_seed(seed, TAG_EXCHANGE, t, i))
        donors[i] = peers[rng.integers(len(peers))]
    return ExchangePlan(t, donors, dict(enumerate(assignments)), k)


def dml_train(models: list[Model], peers: list[Model | None],
              shards: list[ClientShard], config: FedMeConfig,
              rngs: list[np.random.Generator]) -> list[tuple[Model, Model | None]]:
    """Each client's trained (model, borrowed peer or None), trained on
    identical batches of the client's train split, drawn by the client's rng;
    with DML off each model gets plain cross-entropy updates. All clients
    train in one lockstep `nn.train` call."""
    return nn.train([nn.Job(model, peer, shard.train.features, shard.train.labels, rng)
                     for model, peer, shard, rng in zip(models, peers, shards, rngs,
                                                         strict=True)], config)


def model_tuning(loss_p_val: float, loss_ex_val: float, client_id: int,
                 exchange_origin: int) -> int:
    """Keep the own lineage on a tie; adopt the donor's only on strictly
    smaller validation loss."""
    return client_id if loss_p_val <= loss_ex_val else exchange_origin


def aggregate(models: list[Model], exchanged: dict[int, Model],
              plan: ExchangePlan) -> dict[int, Model]:
    """Per-lineage mean of owner i's trained `models[i]` plus every trained
    model `exchanged[j]` borrowed from i (`plan.donor[j] == i`), in receiver
    order. A lineage nobody borrowed is the mean of its owner's model alone:
    its bits in a new array, which holds on to no training stack."""
    lineages = {owner: [model] for owner, model in enumerate(models)}
    for receiver in sorted(plan.donor):
        lineages[plan.donor[receiver]].append(exchanged[receiver])
    return {owner: nn.average_params(group) for owner, group in lineages.items()}


def redistribute(aggregated: dict[int, Model],
                 selections: dict[int, int]) -> list[Model]:
    """Client i's next model: its selected lineage `aggregated[selections[i]]`
    itself, which clients that select one lineage share."""
    return [aggregated[selections[i]] for i in range(len(selections))]


def _plan_round(models: list[Model], pool: np.ndarray | None, t: int,
                config: FedMeConfig, laps: Laps) -> ExchangePlan:
    """Cluster the clients on their pool predictions and draw one donor each.
    A round with no pool, as every Local-Only round, plans no clusters and no
    donors. A round with several clusters laps the pool forward and k-means."""
    n = len(models)
    if pool is None:
        return ExchangePlan(t, {}, {}, 1)
    k = cluster_count(t, config.cluster_thresholds, config.k_max, n)
    assignments = np.zeros(n, dtype=np.int64)
    if k > 1:
        with locate_divergence(f"round {t}"):
            feats = model_outputs_on_unlabeled(models, pool)
            check_outputs(feats, config.lr)
        laps.lap(t, "pool_ms")
        assignments, _ = kmeans(
            feats, k, derive_seed(config.seed, TAG_KMEANS, t).generate_state(1)[0])
        laps.lap(t, "kmeans_ms")
    return assign_exchanges(assignments, t, config.seed, k)


def _select(cid: int, model: Model, peer: Model | None, shard: ClientShard,
            plan: ExchangePlan, config: FedMeConfig) -> RoundRecord:
    """Score client `cid`'s trained model and borrowed `peer`, then pick the
    lineage it keeps. A client that borrows nothing keeps its own lineage
    and records no adoption (`a` None); if it also lends nothing, as every
    client of a Local-Only run, its next model has its trained model's bits,
    so one pass also scores its test split and the record takes its
    accuracies from it; every other record's are filled in later."""
    t, donor = plan.round, plan.donor.get(cid)
    alone = donor is None and cid not in plan.donor.values()
    scores = nn.evaluate_splits(model, shard.features, shard.labels,
                                shard.ends if alone else shard.ends[:3])
    (loss_p_train, _), (loss_p_val, _) = scores[:2]
    loss_ex_train = loss_ex_val = a = None
    if donor is not None:
        (loss_ex_train, _), (loss_ex_val, _) = nn.evaluate_splits(
            peer, shard.features, shard.labels, shard.ends[:3])
        a = model_tuning(loss_p_val, loss_ex_val, cid, donor) if config.tuning else cid
    val_acc = test_acc = float("nan")
    if alone:  # its trained model is its next model
        (_, val_acc), (_, test_acc) = scores[1:]
    return RoundRecord(
        round=t, client=cid, k=plan.k, cluster=plan.cluster_of.get(cid),
        donor=donor, a=a, loss_p_train=loss_p_train, loss_ex_train=loss_ex_train,
        loss_p_val=loss_p_val, loss_ex_val=loss_ex_val,
        val_acc=val_acc, test_acc=test_acc)


def run_fedme(shards: list[ClientShard], archs: list[nn.ArchitectureSpec],
              pool: np.ndarray | None, config: FedMeConfig):
    """Run the full exchange/train/tune/aggregate/redistribute loop; returns
    (final per-client models, round records, laps). Local-Only is the run
    with no pool, and so with no clusters and no donors every round."""
    if len(archs) != len(shards):
        raise ValueError("need one architecture per client")
    models = [nn.init_model(arch, derive_seed(config.seed, TAG_INIT, i))
              for i, arch in enumerate(archs)]
    records: list[RoundRecord] = []
    laps = Laps()

    for t in range(1, config.rounds + 1):
        plan = _plan_round(models, pool, t, config, laps)
        peers = [models[plan.donor[i]] if i in plan.donor else None
                 for i in range(len(models))]
        laps.lap(t, "server_ms")

        with locate_divergence(f"round {t}"):
            # rebinding `models` frees the lineages they trained from
            models, peers = zip(*dml_train(
                models, peers, shards, config,
                [np.random.default_rng(derive_seed(config.seed, TAG_BATCH, t, i))
                 for i in range(len(models))]))
            laps.lap(t, "train_ms")
            # finite parameters can still overflow when scored
            round_records = [_select(i, model, peer, shard, plan, config)
                             for i, (model, peer, shard)
                             in enumerate(zip(models, peers, shards))]
            check_outputs([(r.loss_p_val, 0.0 if r.donor is None else r.loss_ex_val)
                           for r in round_records], config.lr)
        laps.lap(t, "score_ms")

        models = redistribute(aggregate(models, {i: peers[i] for i in plan.donor}, plan),
                              {r.client: r.client if r.a is None else r.a
                               for r in round_records})
        # the trained peers, and the training stacks their parameters are
        # rows of, are dead weight through the next round's k-means
        del peers
        laps.lap(t, "server_ms")

        for model, shard, record in zip(models, shards, round_records):
            if math.isnan(record.test_acc):  # not scored by `_select`
                (_, record.val_acc), (_, record.test_acc) = nn.evaluate_splits(
                    model, shard.features, shard.labels, shard.ends[1:])
        records.extend(round_records)
        laps.lap(t, "score_ms")

    return models, records, laps


def fine_tune(models: list[Model], shards: list[ClientShard],
              config: FedMeConfig) -> tuple[list[Model], list[float]]:
    """Each client's model retrained by plain cross-entropy on its own train
    split, for `config.epochs` epochs, in one lockstep call, then scored on
    its test split. Returns (tuned models, test accuracies)."""
    jobs = [nn.Job(model, None, shard.train.features, shard.train.labels,
                   np.random.default_rng(derive_seed(config.seed, TAG_FINE_TUNE, i)))
            for i, (model, shard) in enumerate(zip(models, shards, strict=True))]
    with locate_divergence("fine-tuning"):
        tuned = [model for model, _ in nn.train(jobs, config)]
        # finite parameters can still overflow when scored
        scores = [nn.evaluate(model, shard.test.features, shard.test.labels)
                  for model, shard in zip(tuned, shards)]
        check_outputs([loss for loss, _ in scores], config.lr)
    return tuned, [acc for _, acc in scores]
