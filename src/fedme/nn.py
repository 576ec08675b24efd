"""Minimal feed-forward classifier engine on flat parameter vectors.

A model is its parameters: an architecture and a flat float64 vector, exactly
what a checkpoint stores. Momentum exists only inside `train`, the one
training loop, which gives each model it steps a zero buffer and updates
parameters in place, so callers copy a model first when the original must
survive. `train` runs many models in lockstep: at each tick, the models of
one architecture and loss share one stacked step, short batches padded, with
the bits of stepping each model alone. Every other operation is pure; the
public `sgd_step` takes the momentum buffer as an argument and returns
stepped copies of the model and the buffer.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ACTIVATIONS = ("relu", "tanh")

CHECKPOINT_MAGIC = b"FEDM"
CHECKPOINT_VERSION = 1

LOG_CLAMP = 1e-12

# Parameter bytes of the jobs `train` steps together. The stacks, momentum
# buffers and gradients of a cohort scale with it, so it bounds the memory
# lockstep training adds over training one model at a time.
COHORT_BYTES = 512 * 1024


class DimensionError(ValueError):
    """Input shape does not match the model architecture."""


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer-shape descriptor for a fully connected softmax classifier."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    num_classes: int
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 1 <= len(self.hidden_widths) <= 4:
            raise ValueError(f"expected 1..4 hidden layers, got {len(self.hidden_widths)}")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"hidden widths must be positive, got {self.hidden_widths}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")

    @property
    def layer_widths(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, self.num_classes)

    def parameter_count(self) -> int:
        widths = self.layer_widths
        return sum((fi + 1) * fo for fi, fo in zip(widths[:-1], widths[1:]))

    def compatible_with(self, other: "ArchitectureSpec") -> bool:
        """Exchange compatibility: only the input/output interface must match."""
        return self.input_dim == other.input_dim and self.num_classes == other.num_classes


@dataclass
class Model:
    arch: ArchitectureSpec
    params: np.ndarray

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        n = self.arch.parameter_count()
        if self.params.shape != (n,):
            raise ValueError(f"expected {n} parameters, got shape {self.params.shape}")

    def copy(self) -> "Model":
        return Model(self.arch, self.params.copy())


@functools.lru_cache(maxsize=256)
def _layer_slices(arch: ArchitectureSpec):
    """(weight_slice, bias_slice, fan_in, fan_out) per layer in storage order."""
    widths = arch.layer_widths
    layers = []
    offset = 0
    for fi, fo in zip(widths[:-1], widths[1:]):
        w_end = offset + fi * fo
        layers.append((slice(offset, w_end), slice(w_end, w_end + fo), fi, fo))
        offset = w_end + fo
    return tuple(layers)


def init_model(arch: ArchitectureSpec, seed: int) -> Model:
    """Glorot-uniform weights and zero biases; deterministic by seed."""
    rng = np.random.default_rng(seed)
    params = np.zeros(arch.parameter_count())
    for w_sl, _b_sl, fi, fo in _layer_slices(arch):
        limit = np.sqrt(6.0 / (fi + fo))
        params[w_sl] = rng.uniform(-limit, limit, fi * fo)
    return Model(arch, params)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return z > 0.0  # multiplies like the 0/1 float mask
    return 1.0 - a * a


def _softmax(logits: np.ndarray) -> np.ndarray:
    # the reductions of `.max` and `.sum`, without their Python wrappers
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _checked_features(arch: ArchitectureSpec, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise DimensionError(
            f"expected features of width {arch.input_dim}, got shape {X.shape}"
        )
    return X


def _checked_labels(labels, rows: int, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise DimensionError(f"{rows} rows and labels of shape {labels.shape} "
                             f"do not align")
    if rows and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels


def _checked_rows(arch: ArchitectureSpec, features, labels):
    X = _checked_features(arch, features)
    return X, _checked_labels(labels, len(X), arch.num_classes)


def _forward_cached(arch: ArchitectureSpec, params: np.ndarray,
                    features: np.ndarray, shorts=()):
    """Forward pass of a stack of C models of one architecture, each on its
    own batch: `params` is (C, P) and `features` (C, b, d). Returns the
    (C, b, M) probabilities and the pre/post-activation values backprop
    needs. Model c's slice has the bits of `forward` on its batch alone.

    `shorts` lists (rows slice, row count r) of each run of models whose
    batch has r < b real rows, padded to b. BLAS rounds a product
    differently at another row count, so their products are redone on their
    first r rows; the rest of the pass works row by row."""
    layers = _layer_slices(arch)
    stack = len(params)
    acts = [features]
    zs = []
    h = features
    for li, (w_sl, b_sl, fi, fo) in enumerate(layers):
        weights = params[:, w_sl].reshape(stack, fo, fi).transpose(0, 2, 1)
        z = np.matmul(h, weights)
        for sel, r in shorts:
            np.matmul(h[sel, :r], weights[sel], out=z[sel, :r])
        z += params[:, None, b_sl]
        zs.append(z)
        if li < len(layers) - 1:
            h = _activate(z, arch.activation)
            acts.append(h)
    return _softmax(zs[-1]), acts, zs


def forward(model: Model, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix; each row a softmax distribution. The same
    arithmetic as `_forward_cached`, keeping no activations."""
    h = _checked_features(model.arch, features)
    layers = _layer_slices(model.arch)
    params = model.params
    last = len(layers) - 1
    for li, (w_sl, b_sl, fi, fo) in enumerate(layers):
        z = h @ params[w_sl].reshape(fo, fi).T
        z += params[b_sl]
        h = _activate(z, model.arch.activation) if li < last else z
    return _softmax(h)


def _backprop(arch: ArchitectureSpec, params: np.ndarray, acts, zs,
              dlogits: np.ndarray, shorts=()) -> np.ndarray:
    """(C, P) gradients of a stack given the gradients of its losses w.r.t.
    the (C, b, M) output logits. Each short run of `_forward_cached`'s
    `shorts` has its weight gradient, bias sum and backprop delta redone on
    its real rows."""
    layers = _layer_slices(arch)
    stack = len(params)
    grad = np.empty_like(params)
    delta = dlogits
    for li in range(len(layers) - 1, -1, -1):
        w_sl, b_sl, fi, fo = layers[li]
        grad_w = grad[:, w_sl].reshape(stack, fo, fi)
        grad_b = grad[:, b_sl]
        np.matmul(delta.transpose(0, 2, 1), acts[li], out=grad_w)
        np.add.reduce(delta, axis=1, out=grad_b)  # np.sum, minus its dispatch
        for sel, r in shorts:
            d = delta[sel, :r]
            np.matmul(d.transpose(0, 2, 1), acts[li][sel, :r], out=grad_w[sel])
            np.add.reduce(d, axis=1, out=grad_b[sel])
        if li > 0:
            weights = params[:, w_sl].reshape(stack, fo, fi)
            below = np.matmul(delta, weights)
            for sel, r in shorts:
                np.matmul(delta[sel, :r], weights[sel], out=below[sel, :r])
            delta = below
            delta *= _activate_grad(zs[li - 1], acts[li], arch.activation)
    return grad


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, log clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise DimensionError(f"expected a 2-D probability matrix, got shape "
                             f"{probs.shape}")
    labels = _checked_labels(labels, len(probs), probs.shape[1])
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, LOG_CLAMP))))


def kl_divergence(target: np.ndarray, model_probs: np.ndarray) -> float:
    """Mean over rows of sum_m target * log(target / model_probs)."""
    target = np.asarray(target, dtype=np.float64)
    model_probs = np.asarray(model_probs, dtype=np.float64)
    if target.shape != model_probs.shape:
        raise DimensionError(f"shape mismatch {target.shape} vs {model_probs.shape}")
    t = np.maximum(target, 0.0)
    ratio = np.log(np.maximum(t, LOG_CLAMP)) - np.log(np.maximum(model_probs, LOG_CLAMP))
    per_row = np.where(t > 0.0, t * ratio, 0.0).sum(axis=1)
    return float(per_row.mean())


def _label_hits(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Flat positions of each row's true class in a (C, b, M) array."""
    stack, rows = labels.shape
    return np.arange(0, stack * rows * num_classes, num_classes).reshape(
        stack, rows) + labels


def _row_counts(labels: np.ndarray, shorts) -> np.ndarray:
    """Each model's count of real rows, as (C,) floats."""
    n = np.full(len(labels), float(labels.shape[1]))
    for sel, r in shorts:
        n[sel] = r
    return n


def dml_losses_and_grads(arch: ArchitectureSpec, params: np.ndarray, cached,
                         labels: np.ndarray, peer_probs: np.ndarray, shorts=()):
    """Mutual-learning losses and gradients of a stack of C models of one
    architecture, each on its own batch with a peer that saw the same batch.

    `cached` is the stack's forward pass on its (C, b, d) features as
    `_forward_cached` returns it: the (C, b, M) probabilities and the values
    backprop needs. `labels` is (C, b) and `peer_probs` (C, b, M) holds each
    peer's predictions. `shorts` are the padded batches, as
    `_forward_cached` takes them: their padding rows count in no loss, and
    `_backprop` sums no gradient over them. A model's loss is cross-entropy
    plus the KL pull toward its peer's predictions, which are constants when
    differentiating, so a pair's two gradients decouple. Returns the (C,)
    losses and (C, P) gradients.
    """
    probs, acts, zs = cached
    n = _row_counts(labels, shorts)
    hits = _label_hits(labels, arch.num_classes)
    log_p = np.log(np.maximum(probs, LOG_CLAMP))
    log_peer = np.log(np.maximum(peer_probs, LOG_CLAMP))
    row_losses = ((peer_probs * (log_peer - log_p)).sum(axis=2)
                  - log_p.reshape(-1)[hits])
    # d/dlogits of mean CE is (p - y)/n; of mean KL(t || p) it is (p - t)/n.
    dlogits = 2.0 * probs
    dlogits.reshape(-1)[hits] -= 1.0
    dlogits -= peer_probs
    dlogits /= n[:, None, None]
    for sel, r in shorts:
        row_losses[sel, r:] = 0.0
    losses = row_losses.sum(axis=1) / n
    return losses, _backprop(arch, params, acts, zs, dlogits, shorts)


def ce_loss_and_grad(arch: ArchitectureSpec, params: np.ndarray, cached,
                     labels: np.ndarray, shorts=()):
    """Plain cross-entropy losses and gradients (no mutual-learning term) of
    a stack of C models of one architecture, each on its own batch; the
    arguments are those of `dml_losses_and_grads` without peers. Overwrites
    the cached probabilities. Returns the (C,) losses and (C, P) gradients."""
    probs, acts, zs = cached
    n = _row_counts(labels, shorts)
    flat = probs.reshape(-1)
    hits = _label_hits(labels, arch.num_classes)
    row_losses = -np.log(np.maximum(flat[hits], LOG_CLAMP))
    # probs becomes d/dlogits of mean CE, (p - y)/n
    flat[hits] -= 1.0
    probs /= n[:, None, None]
    for sel, r in shorts:
        row_losses[sel, r:] = 0.0
    losses = row_losses.sum(axis=1) / n
    return losses, _backprop(arch, params, acts, zs, probs, shorts)


def batch_losses_and_grads(model: Model, features, labels,
                           peer: Model | None = None):
    """One batch's losses and gradients for `model` and, when given, `peer`:
    by mutual learning between the two, or by cross-entropy alone with no
    peer. The stacked kernels run on one-model stacks. Returns a list of
    float losses and a list of gradients, one entry per model."""
    models = [model] if peer is None else [model, peer]
    if peer is not None and not model.arch.compatible_with(peer.arch):
        raise DimensionError("models do not share input_dim / num_classes")
    X, y = _checked_rows(model.arch, features, labels)
    stacks = [(m.arch, m.params[None]) for m in models]
    cached = [_forward_cached(arch, params, X[None]) for arch, params in stacks]
    if peer is None:
        out = [ce_loss_and_grad(*stacks[0], cached[0], y[None])]
    else:
        out = [dml_losses_and_grads(*stacks[i], cached[i], y[None],
                                    cached[1 - i][0]) for i in (0, 1)]
    return [float(loss[0]) for loss, _ in out], [grad[0] for _, grad in out]


def _sgd_update(params: np.ndarray, buf: np.ndarray, grad: np.ndarray,
                lr: float, momentum: float, weight_decay: float) -> None:
    """Momentum step of `params` and `buf` in place; `grad` is used as scratch."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if not np.isfinite(grad).all():
        raise ValueError(f"non-finite gradient at lr={lr:g}: training diverged")
    # buf = momentum * buf + (grad + weight_decay * params); params -= lr * buf
    grad += weight_decay * params
    buf *= momentum
    buf += grad
    np.multiply(buf, lr, out=grad)
    params -= grad


def sgd_step(model: Model, buf: np.ndarray, grad: np.ndarray, lr: float,
             momentum: float = 0.0,
             weight_decay: float = 0.0) -> tuple[Model, np.ndarray]:
    """Classical momentum SGD; weight decay is added to the gradient first.
    Returns the stepped (model, momentum buffer) copies and leaves `model`,
    `buf` and `grad` unchanged."""
    grad = np.array(grad, dtype=np.float64)
    buf = np.array(buf, dtype=np.float64)
    if grad.shape != model.params.shape:
        raise DimensionError("gradient length does not match parameters")
    if buf.shape != model.params.shape:
        raise DimensionError("momentum buffer length does not match parameters")
    stepped = model.copy()
    _sgd_update(stepped.params, buf, grad, lr, momentum, weight_decay)
    return stepped, buf


class Job(NamedTuple):
    """One model's training run for `train`: `model`, and `peer` when given,
    on the rows `features` and `labels`, shuffled by `rng`."""

    model: Model
    peer: Model | None
    features: np.ndarray
    labels: np.ndarray
    rng: np.random.Generator


def train(jobs: list[Job], params) -> None:
    """Train every job's models in place with momentum SGD from zero buffers
    for `params.epochs` epochs of mini-batches, each job shuffled afresh each
    epoch by its own `rng` (one `permutation` per epoch, drawn up front).

    `params` supplies epochs, batch_size, lr, momentum, weight_decay and dml.
    A job's `peer` trains on the same batches as its model: jointly by deep
    mutual learning when `params.dml`, otherwise by its own cross-entropy.

    Every model ends with the bits of training its job alone, batch by batch.
    The jobs run in lockstep, in cohorts of at most `COHORT_BYTES` of
    parameters: at each tick, the models stepping a batch of the same
    architecture and loss form one stack for the kernels and the update.
    Its batches are padded to the longest one's row count (the longest of
    all the tick's DML stacks, for DML), and every matrix product and row
    sum of a shorter batch is redone at its own row count
    (`_forward_cached`, `_backprop`), which keeps the bits. Each model's
    `params` is rebound to a row of its cohort's stack.
    Every job is checked before any trains.
    """
    checked, seen = [], set()
    for job in jobs:
        for model in (job.model, job.peer):
            if id(model) in seen:  # its stack row would be bound twice
                raise ValueError("a model can train in one job only")
            if model is not None:
                seen.add(id(model))
        if job.peer is not None and not job.model.arch.compatible_with(job.peer.arch):
            raise DimensionError("models do not share input_dim / num_classes")
        X, y = _checked_rows(job.model.arch, job.features, job.labels)
        checked.append(job._replace(features=X, labels=y))
    if params.epochs == 0:
        return
    for cohort in _cohorts(checked):
        _train_cohort(cohort, params)


def _cohorts(jobs: list[Job]):
    """Consecutive runs of jobs whose parameters total at most
    `COHORT_BYTES`, or one job alone; a job and its peer stay together."""
    cohort, nbytes = [], 0
    for job in jobs:
        size = job.model.params.nbytes + (0 if job.peer is None else job.peer.params.nbytes)
        if cohort and nbytes + size > COHORT_BYTES:
            yield cohort
            cohort, nbytes = [], 0
        cohort.append(job)
        nbytes += size
    if cohort:
        yield cohort


class _Block(NamedTuple):
    """The models of one architecture and loss in a cohort: rows
    `lo:lo + len(entries)` of the architecture's stack, largest jobs first,
    so that the models stepping at a tick are a prefix and the models of
    one job's size are consecutive."""

    arch: ArchitectureSpec
    params: np.ndarray   # the architecture's (N, P) stack
    buf: np.ndarray      # its momentum buffers
    lo: int
    dml: bool
    entries: np.ndarray  # model index per row, into the cohort's models
    ticks: np.ndarray    # batches to step per row, non-increasing
    n: np.ndarray        # train rows of each row's job
    batches: np.ndarray  # batches per epoch of each row's job
    first: np.ndarray    # where each row's job's batch order starts

    def batch(self, t: int, size: int):
        """The rows of the stack that step at tick `t`, a prefix of the
        block's, as a slice; where each one's batch starts in the cohort's
        batch order, and its row count."""
        active = np.count_nonzero(self.ticks > t)
        per_epoch = self.batches[:active]
        k = t % per_epoch
        at = self.first[:active] + (t // per_epoch) * self.n[:active] + k * size
        counts = np.minimum(self.n[:active] - k * size, size)
        return slice(self.lo, self.lo + active), at, counts


def _short_runs(counts: np.ndarray, padded: int) -> list:
    """(rows slice, row count) of each run of consecutive models in a stack
    whose batches have the same count of fewer than `padded` rows."""
    edges = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), len(counts)]
    return [(slice(a, b), int(counts[a])) for a, b in zip(edges[:-1], edges[1:])
            if counts[a] < padded]


def _train_cohort(jobs: list[Job], params) -> None:
    """`train` on one cohort: each architecture's models as rows of one
    stack, stepped tick by tick."""
    size = params.batch_size
    hyper = (params.lr, params.momentum, params.weight_decay)
    # every job's batches, drawn up front: one permutation per epoch, kept
    # with all the others as one array of positions in the rows of its
    # input width, stacked
    parts, stacked, order = {}, {}, []
    for job in jobs:
        dim = job.model.arch.input_dim
        features, labels = parts.setdefault(dim, ([], []))
        order += [job.rng.permutation(len(job.labels)) + stacked.get(dim, 0)
                  for _ in range(params.epochs)]
        stacked[dim] = stacked.get(dim, 0) + len(job.labels)
        features.append(job.features)
        labels.append(job.labels)
    data = {dim: (np.concatenate(features), np.concatenate(labels))
            for dim, (features, labels) in parts.items()}
    order = np.concatenate(order)
    n = np.array([len(job.labels) for job in jobs])
    first = np.concatenate(([0], np.cumsum(n * params.epochs)[:-1]))
    batches = -(-n // size)
    ticks = params.epochs * batches

    # the cohort's models, a job's model before its peer; DML partners
    # point at each other
    models, job_of, dml_of, partner = [], [], [], []
    for j, job in enumerate(jobs):
        dml = job.peer is not None and params.dml
        pair = [job.model] if job.peer is None else [job.model, job.peer]
        partner += [len(models) + 1, len(models)] if dml else [-1] * len(pair)
        models += pair
        job_of += [j] * len(pair)
        dml_of += [dml] * len(pair)
    partner = np.array(partner)
    by_arch = {}
    for e, m in enumerate(models):
        by_arch.setdefault(m.arch, []).append(e)
    blocks = []
    for arch, members in by_arch.items():
        members.sort(key=lambda e: (dml_of[e], -n[job_of[e]]))
        stack = np.empty((len(members), arch.parameter_count()))
        for row, e in enumerate(members):  # frees each original as it goes
            stack[row] = models[e].params
            models[e].params = stack[row]
        buf = np.zeros_like(stack)
        for dml in (False, True):
            rows = [row for row, e in enumerate(members) if dml_of[e] == dml]
            if rows:
                entries = np.array(members[rows[0]:rows[-1] + 1])
                jb = np.array([job_of[e] for e in entries])
                blocks.append(_Block(arch, stack, buf, rows[0], dml, entries,
                                     ticks[jb], n[jb], batches[jb], first[jb]))

    def padded_pass(blk, sel, at, counts, padded):
        """The block's stacked forward pass at the tick, each batch padded
        to `padded` rows by repeating its last one."""
        pad = np.minimum(np.arange(padded), counts[:, None] - 1)
        picked = order[at[:, None] + pad]
        X, y = data[blk.arch.input_dim]
        shorts = _short_runs(counts, padded)
        W = blk.params[sel]
        return W, _forward_cached(blk.arch, W, X[picked], shorts), y[picked], shorts

    slot = np.empty(len(models), dtype=np.int64)
    for t in range(int(ticks.max())):
        steps = [(blk, *blk.batch(t, size)) for blk in blocks if blk.ticks[0] > t]
        # a DML model reads its partner's probabilities from the stack of
        # the partner's architecture, so the DML stacks share one padded
        # row count and all run their forward passes before any steps
        mutual = [step for step in steps if step[0].dml]
        padded = max((int(counts.max()) for *_, counts in mutual), default=0)
        forwards, probs = [], []
        for blk, sel, at, counts in mutual:
            forwards.append(padded_pass(blk, sel, at, counts, padded))
            pooled = sum(map(len, probs))
            slot[blk.entries[:len(counts)]] = np.arange(pooled, pooled + len(counts))
            probs.append(forwards[-1][1][0])
        if len(probs) > 1:
            probs = [np.concatenate(probs)]
        for (blk, sel, _, _), (W, cache, y, shorts) in zip(mutual, forwards):
            peers = probs[0][slot[partner[blk.entries[:len(W)]]]]
            _, grads = dml_losses_and_grads(blk.arch, W, cache, y, peers, shorts)
            _sgd_update(W, blk.buf[sel], grads, *hyper)
        del forwards, probs
        for blk, sel, at, counts in steps:
            if not blk.dml:
                W, cache, y, shorts = padded_pass(blk, sel, at, counts, int(counts.max()))
                _, grads = ce_loss_and_grad(blk.arch, W, cache, y, shorts)
                _sgd_update(W, blk.buf[sel], grads, *hyper)


def average_params(models: list[Model]) -> Model:
    """Element-wise mean of parameters."""
    if not models:
        raise ValueError("cannot average an empty list of models")
    arch = models[0].arch
    if any(m.arch != arch for m in models):
        raise ValueError("cannot average models with different architectures")
    mean = np.mean([m.params for m in models], axis=0)
    return Model(arch, mean)


def evaluate_splits(model: Model, features: np.ndarray, labels: np.ndarray,
                    ends) -> list[tuple[float, float]]:
    """(mean CE loss, accuracy) of each split `ends[s]:ends[s + 1]` of the
    rows, from one forward pass over rows `ends[0]:ends[-1]`. Each split's
    loss and accuracy have the bits of `cross_entropy` and of
    `mean(argmax == labels)` on that split alone; argmax ties break toward
    the smallest class."""
    labels = np.asarray(labels)
    if len(labels) != len(features):
        raise DimensionError(f"{len(features)} feature rows and {len(labels)} "
                             f"labels do not align")
    start, stop = ends[0], ends[-1]
    if start < 0 or stop > len(labels):
        raise ValueError(f"split ends {tuple(ends)} run outside {len(labels)} rows")
    if any(b <= a for a, b in zip(ends[:-1], ends[1:])):
        raise ValueError("cannot evaluate on an empty split")
    probs = forward(model, features[start:stop])
    labels = _checked_labels(labels[start:stop], len(probs), probs.shape[1])
    picked = probs[np.arange(len(labels)), labels]
    logp = np.log(np.maximum(picked, LOG_CLAMP))
    hit = probs.argmax(axis=1) == labels
    return [(float(-(np.add.reduce(logp[a - start:b - start]) / (b - a))),
             int(np.count_nonzero(hit[a - start:b - start])) / (b - a))
            for a, b in zip(ends[:-1], ends[1:])]


def evaluate(model: Model, features: np.ndarray, labels: np.ndarray):
    """(mean CE loss, accuracy) on one split; `evaluate_splits` of one."""
    return evaluate_splits(model, features, labels, (0, len(labels)))[0]


def serialize_model(model: Model) -> bytes:
    """Binary checkpoint: magic | version u16 | activation u8 | layer count u8 |
    widths u32 LE | params f64 LE."""
    widths = model.arch.layer_widths
    header = CHECKPOINT_MAGIC
    header += struct.pack("<H", CHECKPOINT_VERSION)
    header += struct.pack("<B", ACTIVATIONS.index(model.arch.activation))
    header += struct.pack("<B", len(widths))
    header += struct.pack(f"<{len(widths)}I", *widths)
    return header + model.params.astype("<f8").tobytes()


def deserialize_model(data: bytes) -> Model:
    if len(data) < 8 or data[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint: bad magic bytes")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    act_code, n_widths = struct.unpack_from("<BB", data, 6)
    if act_code >= len(ACTIVATIONS):
        raise ValueError(f"unknown activation code {act_code}")
    if n_widths < 3:
        raise ValueError(f"checkpoint declares {n_widths} layer widths, need >= 3")
    header_len = 8 + 4 * n_widths
    if len(data) < header_len:
        raise ValueError("truncated checkpoint header")
    widths = struct.unpack_from(f"<{n_widths}I", data, 8)
    arch = ArchitectureSpec(widths[0], tuple(widths[1:-1]), widths[-1],
                            ACTIVATIONS[act_code])
    expected = header_len + 8 * arch.parameter_count()
    if len(data) != expected:
        raise ValueError(f"checkpoint size {len(data)} does not match "
                         f"expected {expected} bytes")
    params = np.frombuffer(data, dtype="<f8", offset=header_len).copy()
    return Model(arch, params)
