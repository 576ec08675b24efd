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
    borrows nothing, and with no donors every lineage is its owner's model
    alone."""

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


@dataclass
class RoundOverrides:
    """Deterministic stand-ins for the engine's random choices, for scripted
    traces and tests. Each hook may return None to fall back to the default."""

    clusters: "callable | None" = None   # (t, num_clients) -> assignments
    donors: "callable | None" = None     # (t, assignments) -> {client: donor}
    selections: "callable | None" = None  # (t, client, loss_p, loss_ex) -> a


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
                     donors_override: dict[int, int] | None = None,
                     k: int | None = None) -> ExchangePlan:
    """Donor per receiver, uniform within the receiver's cluster (excluding
    itself); a singleton falls back to a uniform draw over all other clients.
    Draws are independent per receiver, so duplicate donors are allowed. An
    override is the whole donor map: a client it leaves out borrows nothing.
    The plan's `k` is the cluster count the round scheduled, which k-means
    may leave without some labels; by default, the largest label plus one."""
    assignments = np.asarray(assignments)
    n = len(assignments)
    k = int(assignments.max()) + 1 if k is None else k
    cluster_of = {i: int(assignments[i]) for i in range(n)}
    if donors_override is not None:
        return ExchangePlan(t, dict(donors_override), cluster_of, k)
    if n < 2:
        raise ValueError("need at least 2 clients to exchange models")
    donors = {}
    for i in range(n):
        peers = [j for j in range(n) if j != i and assignments[j] == assignments[i]]
        if not peers:
            peers = [j for j in range(n) if j != i]
        rng = np.random.default_rng(derive_seed(seed, TAG_EXCHANGE, t, i))
        donors[i] = peers[rng.integers(len(peers))]
    return ExchangePlan(t, donors, cluster_of, k)


def dml_train(models: list[Model], peers: list[Model | None],
              shards: list[ClientShard], config: FedMeConfig,
              rngs: list[np.random.Generator]) -> None:
    """Train each client's model and its borrowed peer (if any) in place on
    identical batches of the client's train split, drawn by the client's rng;
    with DML off each model gets plain cross-entropy updates. All clients
    train in one lockstep `nn.train` call."""
    nn.train([nn.Job(model, peer, shard.train.features, shard.train.labels, rng)
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
    copy `exchanged[j]` borrowed from i (`plan.donor[j] == i`), in receiver
    order. A lineage nobody borrowed is its owner's model itself, not a copy.
    Changes none of its arguments."""
    copies = {owner: [model] for owner, model in enumerate(models)}
    for receiver in sorted(plan.donor):
        copies[plan.donor[receiver]].append(exchanged[receiver])
    return {owner: group[0] if len(group) == 1 else nn.average_params(group)
            for owner, group in copies.items()}


def redistribute(aggregated: dict[int, Model],
                 selections: dict[int, int]) -> list[Model]:
    """Client i's next model: an independent copy of its selected lineage
    `aggregated[selections[i]]`. Changes none of its arguments."""
    return [aggregated[selections[i]].copy() for i in range(len(selections))]


def _plan_round(models: list[Model], pool: np.ndarray, t: int,
                config: FedMeConfig, overrides: RoundOverrides,
                laps: Laps) -> ExchangePlan:
    """Cluster the clients on their pool predictions and draw one donor each.
    A round with several clusters and no scripted ones laps the pool forward
    and k-means."""
    n = len(models)
    k = None
    assignments = overrides.clusters(t, n) if overrides.clusters else None
    if assignments is None:
        k = cluster_count(t, config.cluster_thresholds, config.k_max, n)
        if k == 1:
            assignments = np.zeros(n, dtype=np.int64)
        else:
            with locate_divergence(f"round {t}"):
                feats = model_outputs_on_unlabeled(models, pool)
                check_outputs(feats, config.lr)
            laps.lap(t, "pool_ms")
            assignments, _ = kmeans(
                feats, k, derive_seed(config.seed, TAG_KMEANS, t).generate_state(1)[0])
            laps.lap(t, "kmeans_ms")
    donors_override = overrides.donors(t, assignments) if overrides.donors else None
    return assign_exchanges(assignments, t, config.seed, donors_override, k)


def _select(cid: int, model: Model, peer: Model | None, shard: ClientShard,
            plan: ExchangePlan, config: FedMeConfig,
            overrides: RoundOverrides) -> RoundRecord:
    """Score client `cid`'s trained model and borrowed `peer`, then pick the
    lineage it keeps. A client that borrows nothing and lends nothing, as
    every Local-Only client, gets its trained model back if it keeps its
    lineage, so one pass also scores its test split and the record takes its
    accuracies from it; every other record's are filled in later."""
    t, donor = plan.round, plan.donor.get(cid)
    alone = donor is None and cid not in plan.donor.values()
    scores = nn.evaluate_splits(model, shard.features, shard.labels,
                                shard.ends if alone else shard.ends[:3])
    (loss_p_train, _), (loss_p_val, _) = scores[:2]
    loss_ex_train = loss_ex_val = None
    if donor is not None:
        (loss_ex_train, _), (loss_ex_val, _) = nn.evaluate_splits(
            peer, shard.features, shard.labels, shard.ends[:3])
    a = (overrides.selections(t, cid, loss_p_val, loss_ex_val)
         if overrides.selections else None)
    if a is None:
        a = (model_tuning(loss_p_val, loss_ex_val, cid, donor)
             if config.tuning and donor is not None else cid)
    val_acc = test_acc = float("nan")
    if alone and a == cid:  # its trained model is its next model
        (_, val_acc), (_, test_acc) = scores[1:]
    return RoundRecord(
        round=t, client=cid, k=plan.k, cluster=plan.cluster_of.get(cid),
        donor=donor, a=a, loss_p_train=loss_p_train, loss_ex_train=loss_ex_train,
        loss_p_val=loss_p_val, loss_ex_val=loss_ex_val,
        val_acc=val_acc, test_acc=test_acc)


def run_fedme(shards: list[ClientShard], archs: list[nn.ArchitectureSpec],
              pool: np.ndarray | None, config: FedMeConfig,
              overrides: RoundOverrides | None = None):
    """Run the full exchange/train/tune/aggregate/redistribute loop; returns
    (final per-client models, round records, laps). Local-Only runs it with
    no donors and an empty cluster schedule, and so with no pool."""
    if len(archs) != len(shards):
        raise ValueError("need one architecture per client")
    overrides = overrides or RoundOverrides()
    models = [nn.init_model(arch, derive_seed(config.seed, TAG_INIT, i))
              for i, arch in enumerate(archs)]
    records: list[RoundRecord] = []
    laps = Laps()

    for t in range(1, config.rounds + 1):
        plan = _plan_round(models, pool, t, config, overrides, laps)
        exchanged = {i: models[d].copy() for i, d in plan.donor.items()}
        peers = [exchanged.get(i) for i in range(len(models))]
        laps.lap(t, "server_ms")

        with locate_divergence(f"round {t}"):
            dml_train(models, peers, shards, config,
                      [np.random.default_rng(derive_seed(config.seed, TAG_BATCH, t, i))
                       for i in range(len(models))])
            laps.lap(t, "train_ms")
            # finite parameters can still overflow when scored
            round_records = [_select(i, model, peer, shard, plan, config, overrides)
                             for i, (model, peer, shard)
                             in enumerate(zip(models, peers, shards))]
            check_outputs([(r.loss_p_val, 0.0 if r.donor is None else r.loss_ex_val)
                           for r in round_records], config.lr)
        laps.lap(t, "score_ms")

        models = redistribute(aggregate(models, exchanged, plan),
                              {r.client: r.a for r in round_records})
        # the borrowed copies, and the training stacks their parameters are
        # rows of, are dead weight through the next round's k-means
        del exchanged, peers
        laps.lap(t, "server_ms")

        for model, shard, record in zip(models, shards, round_records):
            if math.isnan(record.test_acc):  # not scored by `_select`
                (_, record.val_acc), (_, record.test_acc) = nn.evaluate_splits(
                    model, shard.features, shard.labels, shard.ends[1:])
        records.extend(round_records)
        laps.lap(t, "score_ms")

    return models, records, laps


def fine_tune(models: list[Model], shards: list[ClientShard],
              config: FedMeConfig) -> list[Model]:
    """Plain cross-entropy retraining of a copy of each client's model on its
    own train split, for `config.epochs` epochs, in one lockstep call."""
    tuned = [model.copy() for model in models]
    with locate_divergence("fine-tuning"):
        nn.train([nn.Job(model, None, shard.train.features, shard.train.labels,
                         np.random.default_rng(derive_seed(config.seed, TAG_FINE_TUNE, i)))
                  for i, (model, shard) in enumerate(zip(tuned, shards, strict=True))],
                 config)
    return tuned
