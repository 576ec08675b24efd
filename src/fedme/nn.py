"""Minimal feed-forward classifier engine on flat parameter vectors.

A model is its parameters: an architecture and a flat float64 vector, exactly
what a checkpoint stores. Hidden layers are ReLU, so a checkpoint's activation
code (byte 6) is always 0. Momentum exists only inside `train`, the one
training loop, which gives each model it steps a zero buffer and updates
parameters in place, so callers copy a model first when the original must
survive. `train` runs many models of one input width and class count in
lockstep: at each tick, the models of one architecture and loss share one
stacked step on the rows of one data stack, short batches padded, with the
bits of stepping each model alone. `_plan` schedules every step of a cohort
before the first, with the positions of its labels, and binds the views a
block's steps read once per prefix height (`_bind`): each layer's transposed
weights and biases for the forward pass, its weights for backprop, and its
weight- and bias-gradient views into the cohort's one gradient buffer, so a
step makes none. Its kernels return gradients only; losses are computed
where they are reported (`evaluate_splits`). There is one forward pass,
`_forward_cached`, on the layer views of a stack of models, keeping only
each layer's input, which is all backprop reads; `forward` builds the views
for a stack of one. Every other operation is pure; the public `sgd_step`
takes the momentum buffer as an argument and returns stepped copies of the
model and the buffer.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CHECKPOINT_MAGIC = b"FEDM"
CHECKPOINT_VERSION = 1

LOG_CLAMP = 1e-12

# Parameter bytes of the jobs `train` steps together. The stacks, momentum
# buffers and gradients of a cohort scale with it, so it bounds the memory
# lockstep training adds over training one model at a time.
COHORT_BYTES = 512 * 1024


class DimensionError(ValueError):
    """Input shape does not match the model architecture."""


class DivergenceError(ValueError):
    """Training went non-finite, as `reason` says, in the jobs at positions
    `jobs` of a `train` call; callers that know those jobs name them."""

    def __init__(self, reason: str, jobs: list[int]):
        super().__init__(f"{reason} in the jobs at positions {jobs}")
        self.reason, self.jobs = reason, jobs


@dataclass(frozen=True)
class ArchitectureSpec:
    """Layer-shape descriptor for a fully connected ReLU softmax classifier."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    num_classes: int

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


def _forward_views(arch: ArchitectureSpec, params: np.ndarray) -> list[tuple]:
    """The forward pass's views of each layer of a (C, P) parameter stack:
    its (C, fi, fo) transposed weights and (C, 1, fo) biases."""
    stack = len(params)
    return [(params[:, w_sl].reshape(stack, fo, fi).transpose(0, 2, 1),
             params[:, None, b_sl]) for w_sl, b_sl, fi, fo in _layer_slices(arch)]


class _Stack(NamedTuple):
    """A (C, P) parameter stack and its (C, P) gradient stack, with the
    views of them that every step reads, made once: per layer, the forward
    pass's views (`_forward_views`), and the (C, fo, fi) weights backprop
    multiplies by with the (C, fo, fi) weight- and (C, fo) bias-gradient
    views into `grad` that it writes."""

    params: np.ndarray
    forward: list
    backward: list
    grad: np.ndarray


def _bind(arch: ArchitectureSpec, params: np.ndarray, grad: np.ndarray) -> _Stack:
    """The `_Stack` of the (C, P) stacks `params` and `grad`."""
    stack = len(params)
    backward = [(params[:, w_sl].reshape(stack, fo, fi),
                 grad[:, w_sl].reshape(stack, fo, fi), grad[:, b_sl])
                for w_sl, b_sl, fi, fo in _layer_slices(arch)]
    return _Stack(params, _forward_views(arch, params), backward, grad)


def _forward_cached(layers: list[tuple], features: np.ndarray, shorts=()):
    """Forward pass of a stack of C models of one architecture, each on its
    own batch: `layers` are the (C, P) stack's `_forward_views` and
    `features` is (C, b, d). Returns the (C, b, M) probabilities and each
    layer's input, the features then the ReLU outputs, which backprop reads.
    Model c's slice has the bits of the pass on model c alone: `forward`.

    `shorts` lists (rows slice, row count r) of each run of models whose
    batch has r < b real rows, padded to b. BLAS rounds a product
    differently at another row count, so their products are redone on their
    first r rows; the rest of the pass works row by row."""
    acts, z = [], features
    for li, (weights, bias) in enumerate(layers):
        h = np.maximum(z, 0.0, out=z) if li else features  # ReLU in place
        acts.append(h)
        z = np.matmul(h, weights)
        for sel, r in shorts:
            np.matmul(h[sel, :r], weights[sel], out=z[sel, :r])
        z += bias
    return _softmax(z), acts


def forward(model: Model, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix; each row a softmax distribution. The
    training forward pass on a stack of one model."""
    X = _checked_features(model.arch, features)
    return _forward_cached(_forward_views(model.arch, model.params[None]), X[None])[0][0]


def _backprop(stack: _Stack, acts, dlogits: np.ndarray, shorts=()) -> np.ndarray:
    """Gradients of a stack, given the gradients of its losses w.r.t. the
    (C, b, M) output logits, written into and returned as `stack.grad`; a
    ReLU passes gradient where its output, like its input, is positive. Each
    short run of `_forward_cached`'s `shorts` has its weight gradient, bias
    sum and backprop delta redone on its real rows."""
    delta = dlogits
    for li in range(len(stack.backward) - 1, -1, -1):
        weights, grad_w, grad_b = stack.backward[li]
        np.matmul(delta.transpose(0, 2, 1), acts[li], out=grad_w)
        np.add.reduce(delta, axis=1, out=grad_b)  # np.sum, minus its dispatch
        for sel, r in shorts:
            d = delta[sel, :r]
            np.matmul(d.transpose(0, 2, 1), acts[li][sel, :r], out=grad_w[sel])
            np.add.reduce(d, axis=1, out=grad_b[sel])
        if li > 0:
            below = np.matmul(delta, weights)
            for sel, r in shorts:
                np.matmul(delta[sel, :r], weights[sel], out=below[sel, :r])
            delta = below
            delta *= acts[li] > 0.0  # multiplies like the 0/1 float mask
    return stack.grad


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, log clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise DimensionError(f"expected a 2-D probability matrix, got shape "
                             f"{probs.shape}")
    labels = _checked_labels(labels, len(probs), probs.shape[1])
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, LOG_CLAMP))))


def dml_losses_and_grads(stack: _Stack, cached, hits: np.ndarray, counts: np.ndarray,
                         peer_probs: np.ndarray, shorts=()):
    """Gradients of the mutual-learning loss of a stack of C models of one
    architecture, each on its own batch with a peer that saw the same batch.

    `stack` binds the (C, P) parameters and a gradient stack. `cached` is its
    forward pass on its (C, b, d) features as `_forward_cached` returns it:
    the (C, b, M) probabilities and each layer's input. `hits` holds the
    (C, b) flat positions of each row's true class among the probabilities,
    `counts` the (C, 1, 1) float count of each model's real rows, and
    `peer_probs` (C, b, M) each peer's predictions. `shorts` are
    the padded batches, as `_forward_cached` takes them: their padding rows
    carry no gradient. A model's loss is the mean over its real rows of
    cross-entropy plus the KL pull toward its peer's predictions, which are
    constants when differentiating, so a pair's two gradients decouple.
    Returns the (C, P) gradients, `stack.grad`.
    """
    probs, acts = cached
    # d/dlogits of mean CE is (p - y)/n; of mean KL(t || p) it is (p - t)/n.
    dlogits = 2.0 * probs
    dlogits.reshape(-1)[hits] -= 1.0
    dlogits -= peer_probs
    dlogits /= counts
    return _backprop(stack, acts, dlogits, shorts)


def ce_loss_and_grad(stack: _Stack, cached, hits: np.ndarray, counts: np.ndarray,
                     shorts=()):
    """Gradients of the mean cross-entropy loss (no mutual-learning term) of
    a stack of C models of one architecture, each on its own batch; the
    arguments are those of `dml_losses_and_grads` without peers. Overwrites
    the cached probabilities. Returns the (C, P) gradients, `stack.grad`."""
    probs, acts = cached
    # probs becomes d/dlogits of mean CE, (p - y)/n
    probs.reshape(-1)[hits] -= 1.0
    probs /= counts
    return _backprop(stack, acts, probs, shorts)


def _sgd_update(params: np.ndarray, buf: np.ndarray, grad: np.ndarray,
                lr: float, momentum: float, weight_decay: float) -> None:
    """Momentum step of `params` and `buf` in place; `grad` is used as scratch."""
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
    `buf` and `grad` unchanged. A non-finite gradient raises `ValueError`."""
    if not lr > 0:
        raise ValueError(f"lr must be positive, got {lr}")
    grad = np.array(grad, dtype=np.float64)
    if not np.isfinite(grad).all():
        raise ValueError(f"non-finite gradient at lr={lr:g}: training diverged")
    buf = np.array(buf, dtype=np.float64)
    if grad.shape != model.params.shape or buf.shape != model.params.shape:
        raise DimensionError("gradient or momentum buffer length does not match parameters")
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
    The jobs of one call share one input width and one class count, as the
    clients of one federation do. They run in lockstep, in cohorts of at most
    `COHORT_BYTES` of parameters: each cohort stacks its rows once, and the
    models of one architecture and loss once, so at each tick the models
    stepping a batch form a prefix of their stack for the kernels and the
    update. Its batches are padded to the longest one's row count (the
    longest of all the tick's DML stacks, for DML), and every matrix product
    and row sum of a shorter batch is redone at its own row count
    (`_forward_cached`, `_backprop`), which keeps the bits. Each model's
    `params` is rebound to a row of its stack. The steps of a block that
    step its first c models share one binding of their views (`_bind`), and
    every block's gradients go to one buffer that the cohort's steps share.
    Every job and hyperparameter is checked before any job trains. After a
    cohort's last step, `DivergenceError` names the positions in `jobs` of
    the jobs whose model or peer parameters are not finite: a value that
    goes non-finite stays so through every later step.
    """
    if params.batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {params.batch_size}")
    if params.epochs < 0:
        raise ValueError(f"epochs must be non-negative, got {params.epochs}")
    if not params.lr > 0:
        raise ValueError(f"lr must be positive, got {params.lr}")
    checked, seen = [], set()
    for job in jobs:
        for model in (job.model, job.peer):
            if id(model) in seen:  # its stack row would be bound twice
                raise ValueError("a model can train in one job only")
            if model is not None:
                seen.add(id(model))
        if job.peer is not None and not job.model.arch.compatible_with(job.peer.arch):
            raise DimensionError("models do not share input_dim / num_classes")
        if not job.model.arch.compatible_with(jobs[0].model.arch):
            raise DimensionError(f"the jobs of one call share one input width and class "
                                 f"count: {job.model.arch} after {jobs[0].model.arch}")
        X = _checked_features(job.model.arch, job.features)
        y = _checked_labels(job.labels, len(X), job.model.arch.num_classes)
        checked.append(job._replace(features=X, labels=y))
    if params.epochs == 0:
        return
    start = 0
    for cohort in _cohorts(checked):
        _train_cohort(cohort, params, start)
        start += len(cohort)


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
    """The models of one architecture and loss in a cohort as the rows of one
    stack, largest jobs first, so that the models stepping at a tick are a
    prefix and the models of one job's size are consecutive."""

    arch: ArchitectureSpec
    params: np.ndarray   # the block's (N, P) stack
    buf: np.ndarray      # its momentum buffers
    grad: np.ndarray     # its gradients, a view of the cohort's one buffer
    dml: bool
    jobs: np.ndarray     # each row's job, as its position in the `train` call


def _plan(blocks: list[_Block], n: np.ndarray, first: np.ndarray, mate: np.ndarray,
          order: np.ndarray, labels: np.ndarray, size: int,
          epochs: int) -> list[list[tuple]]:
    """Every step of a cohort, planned before the first by array operations
    over all its (block, tick, row) triples at once.

    The blocks' rows are taken block after block: row i's job has `n[i]`
    train rows, its `epochs` batch orders follow one another in `order` from
    `first[i]`, and `mate[i]` is the row of its DML partner, or i itself;
    `labels` are the labels of the cohort's rows, of one class count M.
    Returns one list per tick of the steps of the blocks stepping at it, in
    block order, each (block, stack, buf, picks, hits, counts, shorts, peers):

    - `stack` and `buf`, the `_bind` of the block's first c rows and their
      momentum rows, made once per (block, c): c of its rows step, as each
      row's job steps `epochs * ceil(n / size)` batches;
    - `picks`, the (c, b) rows of the cohort's data that form each model's
      batch, the positions `order` holds for it, padded to `b` rows by
      repeating its last one. `b` is the longest batch of the block at the
      tick, or of all the tick's DML blocks for a DML block;
    - `hits`, the (c, b) flat positions `(m * b + r) * M + label` of the true
      classes of the rows r of model m's batch in the (c, b, M) probabilities;
    - `counts`, each model's count of real rows, as (c, 1, 1) floats;
    - `shorts`, (rows slice, row count r) of each run of consecutive models
      whose batches have the same r < b real rows;
    - `peers`, for a DML block, the position of each model's partner in the
      probabilities of the tick's DML blocks, stacked in block order; None
      otherwise.
    """
    sizes = np.array([len(blk.params) for blk in blocks])
    top = np.cumsum(sizes) - sizes
    block_of = np.repeat(np.arange(len(blocks)), sizes)
    batches = -(-n // size)
    ticks = epochs * batches
    # one segment per (block, tick) that steps the block, block by block; a
    # block's rows step non-increasing tick counts, so its rows that step at
    # a tick are a prefix, `active` of them
    span = ticks[top]
    seg_first = np.cumsum(span) - span
    segments = int(span.sum())
    active = np.cumsum(np.bincount(seg_first[block_of], minlength=segments + 1)
                       - np.bincount(seg_first[block_of] + ticks,
                                     minlength=segments + 1))[:segments]
    seg_block = np.repeat(np.arange(len(blocks)), span)
    seg_tick = np.arange(segments) - seg_first[seg_block]
    dml = np.array([blk.dml for blk in blocks])[seg_block]
    # each (block, tick, row) triple, segment by segment: where its batch
    # starts in `order`, and its count of real rows
    start = np.cumsum(active) - active
    seg = np.repeat(np.arange(segments), active)
    within = np.arange(len(seg)) - start[seg]
    row = top[seg_block[seg]] + within
    tick = seg_tick[seg]
    k = tick % batches[row]
    at = first[row] + tick // batches[row] * n[row] + k * size
    counts = np.minimum(n[row] - k * size, size)
    padded = np.maximum.reduceat(counts, start)
    shared = np.zeros(int(span.max(initial=0)), dtype=np.int64)
    np.maximum.at(shared, seg_tick[dml], padded[dml])
    padded[dml] = shared[seg_tick[dml]]
    picks = np.minimum(np.arange(padded.max(initial=0)), counts[:, None] - 1)
    picks += at[:, None]
    picks = order[picks]
    # built in place: a temporary the size of `picks` raises the peak memory
    hits = labels[picks].astype(np.int64, copy=False)
    classes = blocks[0].arch.num_classes
    hits += (within * padded[seg] * classes)[:, None]
    hits += np.arange(picks.shape[1]) * classes
    reals = counts.astype(np.float64).reshape(-1, 1, 1)
    # where each DML block's models begin among its tick's DML models
    stacked = np.zeros((len(blocks), len(shared)), dtype=np.int64)
    stacked[seg_block[dml], seg_tick[dml]] = active[dml]
    offset = np.cumsum(stacked, axis=0) - stacked
    mates = mate[row]
    peers = offset[block_of[mates], tick] + mates - top[block_of[mates]]
    # runs of one short row count, broken at every segment
    edge = np.ones(len(seg) + 1, dtype=bool)
    edge[1:-1] = (seg[1:] != seg[:-1]) | (counts[1:] != counts[:-1])
    bounds = np.flatnonzero(edge)
    heads, tails = bounds[:-1], bounds[1:]
    short = counts[heads] < padded[seg[heads]]
    heads, tails = heads[short], tails[short]
    shorts = [[] for _ in range(segments)]
    for g, a, b, r in zip(seg[heads].tolist(), within[heads].tolist(),
                          (tails - heads + within[heads]).tolist(),
                          counts[heads].tolist()):
        shorts[g].append((slice(a, b), r))

    steps, bound = [[] for _ in range(len(shared))], {}
    for g, (b, t, s, c, p) in enumerate(zip(
            seg_block.tolist(), seg_tick.tolist(), start.tolist(),
            active.tolist(), padded.tolist())):
        blk, rows = blocks[b], slice(s, s + c)
        if (b, c) not in bound:
            bound[b, c] = _bind(blk.arch, blk.params[:c], blk.grad[:c]), blk.buf[:c]
        steps[t].append((blk, *bound[b, c], picks[rows, :p], hits[rows, :p], reals[rows],
                         shorts[g], peers[rows] if blk.dml else None))
    return steps


def _train_cohort(jobs: list[Job], params, start: int) -> None:
    """`train` on one cohort, the jobs at positions `start` on of its call:
    the models of each architecture and loss as the rows of one stack,
    stepped tick by tick as `_plan` schedules them."""
    hyper = (params.lr, params.momentum, params.weight_decay)
    # every job's batches, drawn up front: one permutation per epoch, kept
    # with all the others as one array of positions in the cohort's rows,
    # where the rows of jobs that share them are stacked once
    features, labels, order, base, top = [], [], [], {}, 0
    for job in jobs:
        key = (id(job.features), id(job.labels))
        if key not in base:
            base[key], top = top, top + len(job.labels)
            features.append(job.features)
            labels.append(job.labels)
        order += [job.rng.permutation(len(job.labels)) + base[key]
                  for _ in range(params.epochs)]
    X, Y = np.concatenate(features), np.concatenate(labels)
    order = np.concatenate(order)
    n = np.array([len(job.labels) for job in jobs])
    first = np.concatenate(([0], np.cumsum(n * params.epochs)[:-1]))

    # the cohort's models, a job's model before its peer; DML partners
    # point at each other, and every other model at itself
    models, job_of, partner, by_block = [], [], [], {}
    for j, job in enumerate(jobs):
        dml = job.peer is not None and params.dml
        pair = [job.model] if job.peer is None else [job.model, job.peer]
        own = list(range(len(models), len(models) + len(pair)))
        partner += own[::-1] if dml else own
        for e, m in zip(own, pair):
            by_block.setdefault((m.arch, dml), []).append(e)
        models += pair
        job_of += [j] * len(pair)
    # one gradient buffer for all blocks: a step's update spends its
    # gradients before the next step's kernel writes any
    grads = np.empty(max(len(members) * arch.parameter_count()
                         for (arch, _), members in by_block.items()))
    blocks, ordered = [], []  # and each block's models, block after block
    for (arch, dml), members in by_block.items():
        members.sort(key=lambda e: -n[job_of[e]])
        stack = np.empty((len(members), arch.parameter_count()))
        for row, e in enumerate(members):  # frees each original as it goes
            stack[row] = models[e].params
            models[e].params = stack[row]
        blocks.append(_Block(arch, stack, np.zeros_like(stack),
                             grads[:stack.size].reshape(stack.shape), dml,
                             np.array([start + job_of[e] for e in members])))
        ordered += members
    place = np.empty(len(models), dtype=np.int64)
    place[ordered] = np.arange(len(ordered))
    jb = np.array(job_of)[ordered]
    plan = _plan(blocks, n[jb], first[jb], place[np.array(partner)[ordered]], order,
                 Y, params.batch_size, params.epochs)
    del order, Y

    for steps in plan:
        # a DML model reads its partner's probabilities, so every DML stack
        # runs its forward pass before any steps
        mutual = [(step, _forward_cached(step[1].forward, X[step[3]], step[6]))
                  for step in steps if step[0].dml]
        probs = [cache[0] for _, cache in mutual]
        if len(probs) > 1:
            probs = [np.concatenate(probs)]
        for (_, stack, buf, _, hits, counts, shorts, peers), cache in mutual:
            _sgd_update(stack.params, buf, dml_losses_and_grads(
                stack, cache, hits, counts, probs[0][peers], shorts), *hyper)
        del mutual, probs
        for blk, stack, buf, picks, hits, counts, shorts, _ in steps:
            if not blk.dml:
                cache = _forward_cached(stack.forward, X[picks], shorts)
                _sgd_update(stack.params, buf,
                            ce_loss_and_grad(stack, cache, hits, counts, shorts), *hyper)
    # not np.unique, whose first call imports numpy.ma: 1 MiB of peak memory
    bad = sorted({j for blk in blocks
                  for j in blk.jobs[~np.isfinite(blk.params).all(axis=1)].tolist()})
    if bad:
        raise DivergenceError(f"non-finite parameters at lr={params.lr:g}: training "
                              f"diverged", bad)


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
    """Binary checkpoint: magic | version u16 | activation u8 (byte 6, always
    0, for ReLU) | layer count u8 | widths u32 LE | params f64 LE."""
    widths = model.arch.layer_widths
    header = CHECKPOINT_MAGIC
    header += struct.pack("<H", CHECKPOINT_VERSION)
    header += struct.pack("<B", 0)
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
    if act_code != 0:
        raise ValueError(f"unknown activation code {act_code}")
    if n_widths < 3:
        raise ValueError(f"checkpoint declares {n_widths} layer widths, need >= 3")
    header_len = 8 + 4 * n_widths
    if len(data) < header_len:
        raise ValueError("truncated checkpoint header")
    widths = struct.unpack_from(f"<{n_widths}I", data, 8)
    arch = ArchitectureSpec(widths[0], tuple(widths[1:-1]), widths[-1])
    expected = header_len + 8 * arch.parameter_count()
    if len(data) != expected:
        raise ValueError(f"checkpoint size {len(data)} does not match "
                         f"expected {expected} bytes")
    params = np.frombuffer(data, dtype="<f8", offset=header_len).copy()
    return Model(arch, params)
