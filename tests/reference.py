"""The tests' references: slow, direct forms of what the package computes
fast, each written once.

- One-model pieces: `batch_grads` (one batch's gradients from the stacked
  kernels on one-model stacks), `cross_entropy`, `kl_divergence`,
  `dml_loss` (the loss the DML kernel differentiates), `fd_gradient`
  (central differences), `one_model_pass` (the training forward pass on
  a stack of one) and `softmax_oracle` (the row max and row sum both taken
  along each row).
- Layer oracles: `reference_train` (the epoch/batch loop over `batch_grads`
  and `nn.sgd_step`), `splits_oracle` (consecutive splits scored from one
  forward pass over their rows), `evaluate_oracle` (one split scored alone),
  `oracle_kmeans` (Lloyd in the Gram form, each rule written out from its
  definition) and `best_partition_inertia` (the exhaustive optimum).
- Run references built from those oracles with plain loops:
  `reference_fedme` (FedMe, or Local-Only with exchange off) and
  `reference_server_models` (Centralized, FedAvg and HypCluster).
- `toy_federation` and `toy_shards`, the small two-class federation many
  tests run on, `stacked_shard`, a shard built from three given splits, and
  `scripted_rounds`, which pins a run's choices.
"""
from __future__ import annotations

import contextlib
import itertools
from unittest import mock

import numpy as np

from fedme import clustering, engine, nn
from fedme.clustering import cluster_count
from fedme.data import ClientShard, Dataset, split_shard
from fedme.engine import (TAG_BATCH, TAG_EXCHANGE, TAG_INIT, TAG_KMEANS,
                          TAG_SPLIT, ExchangePlan, RoundRecord, derive_seed)
from fedme.nn import Model

# ------------------------------------------------------- one-model pieces


def batch_grads(model: Model, features, labels,
                peer: Model | None = None) -> list[np.ndarray]:
    """One batch's gradients for `model` and, when given, `peer`: by mutual
    learning between the two, or by cross-entropy alone with no peer. The
    stacked kernels run on one-model stacks. Returns one gradient per model."""
    models = [model] if peer is None else [model, peer]
    if peer is not None and not model.arch.compatible_with(peer.arch):
        raise nn.DimensionError("models do not share input_dim / num_classes")
    X = nn._checked_features(model.arch, features)
    y = nn._checked_labels(labels, len(X), model.arch.num_classes)
    stacks = [nn._bind(m.arch, m.params[None], np.empty((1, len(m.params))))
              for m in models]
    cached = [nn._forward_cached(stack.forward, X[None]) for stack in stacks]
    hits = np.arange(len(y)) * model.arch.num_classes + y
    counts = np.full((1, 1, 1), float(len(y)))
    if peer is None:
        return [nn.ce_loss_and_grad(stacks[0], cached[0], hits, counts)[0]]
    return [nn.dml_losses_and_grads(stacks[i], cached[i], hits, counts,
                                    cached[1 - i][0])[0]
            for i in (0, 1)]


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, log clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise nn.DimensionError(f"expected a 2-D probability matrix, got shape "
                                f"{probs.shape}")
    labels = nn._checked_labels(labels, len(probs), probs.shape[1])
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, nn.LOG_CLAMP))))


def kl_divergence(target: np.ndarray, model_probs: np.ndarray) -> float:
    """Mean over rows of sum_m target * log(target / model_probs)."""
    target = np.asarray(target, dtype=np.float64)
    model_probs = np.asarray(model_probs, dtype=np.float64)
    if target.shape != model_probs.shape:
        raise nn.DimensionError(f"shape mismatch {target.shape} vs {model_probs.shape}")
    t = np.maximum(target, 0.0)
    ratio = (np.log(np.maximum(t, nn.LOG_CLAMP))
             - np.log(np.maximum(model_probs, nn.LOG_CLAMP)))
    per_row = np.where(t > 0.0, t * ratio, 0.0).sum(axis=1)
    return float(per_row.mean())


def dml_loss(model: Model, peer: Model, x, y) -> float:
    """`model`'s mutual-learning loss: its cross-entropy plus the KL pull
    toward `peer`'s predictions, whose gradient `batch_grads` gives it."""
    probs = nn.forward(model, x)
    return cross_entropy(probs, y) + kl_divergence(nn.forward(peer, x), probs)


def fd_gradient(loss_fn, params, eps=1e-5):
    """Central-difference gradient of `loss_fn` at `params`."""
    grad = np.zeros_like(params)
    for i in range(len(params)):
        up, down = params.copy(), params.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2 * eps)
    return grad


def max_rel_err(analytic, numeric):
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return np.max(np.abs(analytic - numeric) / scale)


def one_model_pass(model: Model, features):
    """The training forward pass on a one-model stack: `_forward_cached`'s
    probabilities and layer inputs, each stacked over one model."""
    views = nn._forward_views(model.arch, model.params[None])
    return nn._forward_cached(views, features[None])


def softmax_oracle(logits):
    """Softmax over the last axis, its row max taken along each row."""
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def cached_probs(model: Model, features):
    """The training forward pass's probabilities, on a one-model stack."""
    return one_model_pass(model, features)[0][0]


def kink_free(model: Model, x, margin=1e-3):
    """Central differences are invalid where a relu unit sits at its kink, so
    sampled cases must keep every hidden pre-activation away from zero."""
    h = x[None]
    for weights, bias in nn._forward_views(model.arch, model.params[None])[:-1]:
        z = np.matmul(h, weights) + bias  # the training pass's bits
        if np.min(np.abs(z)) <= margin:
            return False
        h = np.maximum(z, 0.0)
    return True


# ----------------------------------------------------------- layer oracles


def reference_train(model, peer, mutual, x, y, params, rng):
    """Epoch/batch loop over the pure public step, as a bitwise oracle; each
    model's momentum buffer starts at zero."""
    hyper = (params.lr, params.momentum, params.weight_decay)
    buf = np.zeros_like(model.params)
    peer_buf = None if peer is None else np.zeros_like(peer.params)
    for _ in range(params.epochs):
        perm = rng.permutation(len(y))
        for start in range(0, len(y), params.batch_size):
            batch = perm[start:start + params.batch_size]
            xb, yb = x[batch], y[batch]
            if peer is not None and mutual:
                g, g_peer = batch_grads(model, xb, yb, peer)
                model, buf = nn.sgd_step(model, buf, g, *hyper)
                peer, peer_buf = nn.sgd_step(peer, peer_buf, g_peer, *hyper)
                continue
            (g,) = batch_grads(model, xb, yb)
            model, buf = nn.sgd_step(model, buf, g, *hyper)
            if peer is not None:
                (g_peer,) = batch_grads(peer, xb, yb)
                peer, peer_buf = nn.sgd_step(peer, peer_buf, g_peer, *hyper)
    return model, peer


def splits_oracle(model, features, labels, ends):
    """(loss, accuracy) of each split `ends[s]:ends[s + 1]`: one cached
    forward pass over rows `ends[0]:ends[-1]`, then `cross_entropy` and the
    mean of argmax hits on each split's rows of it. BLAS may round a row by
    the rows it is computed with, so this scores the rows `evaluate_splits`
    forwards together, together."""
    start = ends[0]
    probs = cached_probs(model, features[start:ends[-1]])
    scores = []
    for a, b in zip(ends, ends[1:]):
        split, y = probs[a - start:b - start], labels[a:b]
        scores.append((cross_entropy(split, y),
                       float(np.mean(np.argmax(split, axis=1) == y))))
    return scores


def evaluate_oracle(model, features, labels):
    """The scoring path before `evaluate_splits`: `splits_oracle` on this
    split alone."""
    return splits_oracle(model, features, labels, (0, len(labels)))[0]


def best_partition_inertia(points, k):
    """Exhaustive optimum over all assignments of points to k groups."""
    best = np.inf
    for labels in itertools.product(range(k), repeat=len(points)):
        if len(set(labels)) < k:
            continue
        labels = np.array(labels)
        total = 0.0
        for j in range(k):
            members = points[labels == j]
            total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best


# k-means in the Gram form, each rule written out from its definition (see
# `clustering`'s module docstring). Only the (v, k) distance expression is
# the package's, so the distances have its bits.
def _gram_distances(gram, weights):
    dots = gram @ weights.T
    return np.diagonal(gram)[:, None] - 2.0 * dots + np.einsum("jq,qj->j", weights, dots)


def _distances_to_point(gram, ids, p):
    """Each point's distance to point p, clamped at 0."""
    weights = np.zeros((1, len(gram)))
    weights[0, ids[p]] = 1.0
    dist = _gram_distances(gram, weights)
    return np.array([max(dist[q, 0], 0.0) for q in ids])


def _kmeans_pp_picks(gram, ids, k, rng):
    n = len(ids)
    picks = [rng.integers(n)]
    for j in range(1, k):
        dist = _distances_to_point(gram, ids, picks[-1])
        d2 = dist if j == 1 else np.minimum(d2, dist)
        total = d2.sum()
        picks.append(rng.integers(n) if total <= 0.0 else rng.choice(n, p=d2 / total))
    return picks


def _member_weights(assignments, ids, k, v):
    """Row j: the share of cluster j's members that are copies of each
    distinct row (zeros for an empty cluster)."""
    counts = np.zeros((k, v), dtype=np.int64)
    for i, j in enumerate(assignments):
        counts[j, ids[i]] += 1
    weights = np.zeros((k, v))
    for j in range(k):
        size = int(counts[j].sum())
        for q in range(v):
            weights[j, q] = counts[j, q] / size if size else 0.0
    return weights


def _lloyd(gram, ids, k, rng):
    n, v = len(ids), len(gram)
    weights = np.zeros((k, v))
    for j, p in enumerate(_kmeans_pp_picks(gram, ids, k, rng)):
        weights[j, ids[p]] = 1.0
    seen = []
    for _ in range(clustering.MAX_ITER):
        dist = _gram_distances(gram, weights)
        assignments = [min(range(k), key=lambda j: dist[ids[i], j]) for i in range(n)]
        if assignments in seen:
            break
        seen.append(list(assignments))
        weights = _member_weights(assignments, ids, k, v)
        for j in range(k):  # repairs one by one, after the others' weights
            if j not in assignments:
                far = max(range(n), key=lambda i: dist[ids[i], assignments[i]])
                assignments[far] = j
                weights[j] = 0.0
                weights[j, ids[far]] = 1.0
    dist = _gram_distances(gram, weights)
    assignments = [min(range(k), key=lambda j: dist[ids[i], j]) for i in range(n)]
    # the inertia is numpy's sum of the n distances, as the package takes it
    inertia = np.array([dist[ids[i], a] for i, a in enumerate(assignments)]).sum()
    return assignments, float(inertia)


def relabeled(assignments):
    """The labels renumbered in order of first appearance: equal for two
    labelings exactly when they group the points alike."""
    order = {}
    return [order.setdefault(a, len(order)) for a in assignments]


def oracle_kmeans(points, k, seed, restarts):
    """Best-of-restarts Lloyd in the Gram form; returns (assignments, inertia)."""
    points = np.asarray(points, dtype=np.float64)
    distinct = {}
    ids = [distinct.setdefault(row.tobytes(), len(distinct)) for row in points]
    x = points[[ids.index(q) for q in range(len(distinct))]]
    gram = x @ x.T
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        assignments, inertia = _lloyd(gram, ids, k, rng)
        if best is None or (inertia < best[1]
                            and relabeled(assignments) != relabeled(best[0])):
            best = (assignments, inertia)
    return np.array(best[0]), best[1]


# --------------------------------------------------------- run references


def _scores(model, shard, first, stop):
    """`shard`'s splits `first` to `stop - 1`, scored from one pass."""
    return splits_oracle(model, shard.features, shard.labels, shard.ends[first:stop + 1])


def reference_fedme(shards, archs, pool, config, exchange=True):
    """FedMe's rounds as the paper states them, one client and one model at a
    time; with `exchange` off, Local-Only's. Returns (final models, records).

    The random streams are the engine's: the same `derive_seed` tags and
    keys. Where the order of a sum sets the bits, the arithmetic is the
    engine's: a lineage is the `np.mean` of its owner's trained model, then
    the copies borrowed from it in receiver order. So are the rows scored
    together: a model's train and validation splits, and its next model's
    validation and test splits; a Local-Only client's next model has its
    trained model's bits, and both are scored on all three splits at once."""
    n = len(shards)
    models = [nn.init_model(arch, derive_seed(config.seed, TAG_INIT, i))
              for i, arch in enumerate(archs)]
    records = []
    for t in range(1, config.rounds + 1):
        k = cluster_count(t, config.cluster_thresholds, config.k_max, n) if exchange else 1
        cluster = [0] * n
        if k > 1:
            feats = np.stack([nn.forward(m, pool).ravel() for m in models])
            seed = derive_seed(config.seed, TAG_KMEANS, t).generate_state(1)[0]
            cluster = oracle_kmeans(feats, k, seed, 8)[0].tolist()
        donor = {}
        if exchange:  # uniform within the cluster, or over all others for a singleton
            for i in range(n):
                peers = [j for j in range(n) if j != i and cluster[j] == cluster[i]]
                peers = peers or [j for j in range(n) if j != i]
                rng = np.random.default_rng(derive_seed(config.seed, TAG_EXCHANGE, t, i))
                donor[i] = peers[rng.integers(len(peers))]

        trained, borrowed = [], {}
        for i, shard in enumerate(shards):
            rng = np.random.default_rng(derive_seed(config.seed, TAG_BATCH, t, i))
            model, peer = reference_train(
                models[i], models[donor[i]] if i in donor else None, config.dml,
                shard.train.features, shard.train.labels, config, rng)
            trained.append(model)
            if peer is not None:
                borrowed[i] = peer

        losses, selected = [], []
        for i, shard in enumerate(shards):
            (loss_p_train, _), (loss_p_val, _) = _scores(
                trained[i], shard, 0, 2 if exchange else 3)[:2]
            loss_ex_train = loss_ex_val = None
            a = i
            if i in borrowed:
                (loss_ex_train, _), (loss_ex_val, _) = _scores(borrowed[i], shard, 0, 2)
                if config.tuning and not loss_p_val <= loss_ex_val:  # a tie keeps its own
                    a = donor[i]
            losses.append((loss_p_train, loss_ex_train, loss_p_val, loss_ex_val))
            selected.append(a)

        lineages = []
        for owner in range(n):
            copies = [trained[owner].params]
            copies += [borrowed[r].params for r in sorted(borrowed) if donor[r] == owner]
            lineages.append(Model(trained[owner].arch, np.mean(copies, axis=0)))
        models = [lineages[a] for a in selected]

        for i, shard in enumerate(shards):
            first = 1 if exchange else 0  # Local-Only's three splits at once
            (_, val_acc), (_, test_acc) = _scores(models[i], shard, first, 3)[-2:]
            loss_p_train, loss_ex_train, loss_p_val, loss_ex_val = losses[i]
            records.append(RoundRecord(
                round=t, client=i, k=k, cluster=cluster[i] if exchange else None,
                donor=donor.get(i), a=selected[i] if exchange else None,
                loss_p_train=loss_p_train, loss_ex_train=loss_ex_train,
                loss_p_val=loss_p_val, loss_ex_val=loss_ex_val,
                val_acc=val_acc, test_acc=test_acc))
    return models, records


def reference_server_models(train_sets, shards, arch, config, q):
    """The server-model loop of Centralized (one pooled training set, q = 1),
    FedAvg (q = 1) and HypCluster (q = 2), one training unit at a time.
    Returns (global models, per-shard choice, records).

    Each round, unit i trains a copy of the global model whose validation
    loss on shard i is least (the first on ties), and each global model
    becomes the train-row-weighted mean of the copies trained from it, as
    the engine sums it: `np.einsum("i,ij->j", w / w.sum(), ...)`. As the
    engine does, a global model's scores come from one pass over every
    shard's rows, in shard order: split s of shard i is split 3 * i + s."""
    globals_ = [nn.init_model(arch, derive_seed(config.seed, TAG_INIT, g))
                for g in range(q)]
    features = np.concatenate([s.features for s in shards])
    labels = np.concatenate([s.labels for s in shards])
    ends = np.cumsum([0] + [len(split.labels) for s in shards
                            for split in (s.train, s.validation, s.test)])
    choices = [0] * len(shards)
    records = []
    for t in range(1, config.rounds + 1):
        if q > 1:
            scores = [splits_oracle(g, features, labels, ends) for g in globals_]
            choices = [min(range(q), key=lambda g: scores[g][3 * i + 1][0])
                       for i in range(len(shards))]
        trained = []
        for i, train in enumerate(train_sets):
            rng = np.random.default_rng(derive_seed(config.seed, TAG_BATCH, t, i))
            trained.append(reference_train(globals_[choices[i]], None, False,
                                           train.features, train.labels, config, rng)[0])
        for g in range(q):
            units = [i for i in range(len(trained)) if choices[i] == g]
            if units:
                w = np.array([float(train_sets[i].n) for i in units])
                globals_[g] = Model(arch, np.einsum(
                    "i,ij->j", w / w.sum(), np.stack([trained[i].params for i in units])))
        scores = [splits_oracle(g, features, labels, ends) for g in globals_]
        for i in range(len(shards)):
            (loss_train, _), (loss_val, val_acc), (_, test_acc) = (
                scores[choices[i]][3 * i:3 * i + 3])
            records.append(RoundRecord(
                round=t, client=i, k=q, cluster=None, donor=None, a=None,
                loss_p_train=loss_train, loss_ex_train=None, loss_p_val=loss_val,
                loss_ex_val=None, val_acc=val_acc, test_acc=test_acc))
    return globals_, choices, records


# ---------------------------------------------------------------- fixtures


def toy_federation(num_clients, rows_each=30, seed=0):
    """`num_clients` shards of `rows_each` rows of two Gaussian classes in
    2-D, split by the engine's split seeds, and a 40-row pool drawn after
    them from the same stream: (shards, pool)."""
    rng = np.random.default_rng(seed)
    n = num_clients * rows_each
    centers = np.array([[2.0, 0.0], [-2.0, 0.0]])
    labels = rng.integers(0, 2, size=n)
    ds = Dataset(centers[labels] + rng.normal(size=(n, 2)), labels, 2)
    shards = [split_shard(ds, np.arange(i * rows_each, (i + 1) * rows_each),
                          seed=derive_seed(seed, TAG_SPLIT, i))
              for i in range(num_clients)]
    return shards, rng.normal(size=(40, 2))


def toy_shards(num_clients, rows_each=30, seed=0):
    """`toy_federation`'s shards."""
    return toy_federation(num_clients, rows_each, seed)[0]


def stacked_shard(train: Dataset, validation: Dataset, test: Dataset) -> ClientShard:
    """The shard whose train, validation and test splits hold these rows."""
    splits = (train, validation, test)
    return ClientShard(np.concatenate([s.features for s in splits]),
                       np.concatenate([s.labels for s in splits]),
                       np.cumsum([0] + [s.n for s in splits]), train.num_classes)


@contextlib.contextmanager
def scripted_rounds(clusters, donors, selections):
    """Patch the engine's choices: round t clusters client i as
    `clusters[t][i]`, lends it `donors[t][i]`'s model, and, where tuning
    picks between the two, has it adopt lineage `selections[t][i]`."""
    rounds = []

    def plan(assignments, t, seed, k=None):
        rounds.append(t)
        labels = [int(c) for c in clusters[t]]
        return ExchangePlan(t, dict(donors[t]), dict(enumerate(labels)), max(labels) + 1)

    def tune(loss_p_val, loss_ex_val, client_id, exchange_origin):
        return selections[rounds[-1]][client_id]

    with mock.patch.object(engine, "assign_exchanges", plan), \
            mock.patch.object(engine, "model_tuning", tune):
        yield
