"""Minimal feed-forward classifier engine on flat parameter vectors.

A model is its parameters: an architecture and a flat float64 vector, exactly
what a checkpoint stores. Momentum exists only inside the private `_train`
loop, which gives each model it steps a zero buffer and updates parameters in
place, so callers copy a model first when the original must survive. Every
other operation is pure; the public `sgd_step` takes the momentum buffer as an
argument and returns stepped copies of the model and the buffer.
"""
from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh")

CHECKPOINT_MAGIC = b"FEDM"
CHECKPOINT_VERSION = 1

LOG_CLAMP = 1e-12


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
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return e


def _checked_features(model: Model, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.arch.input_dim:
        raise DimensionError(
            f"expected features of width {model.arch.input_dim}, got shape {X.shape}"
        )
    return X


def _forward_cached(model: Model, features: np.ndarray):
    """Forward pass keeping pre/post-activation values for backprop."""
    X = _checked_features(model, features)
    layers = _layer_slices(model.arch)
    params = model.params
    acts = [X]
    zs = []
    h = X
    for li, (w_sl, b_sl, fi, fo) in enumerate(layers):
        z = h @ params[w_sl].reshape(fo, fi).T
        z += params[b_sl]
        zs.append(z)
        if li < len(layers) - 1:
            h = _activate(z, model.arch.activation)
            acts.append(h)
    probs = _softmax(zs[-1])
    return probs, acts, zs


def forward(model: Model, features: np.ndarray) -> np.ndarray:
    """Class-probability matrix; each row a softmax distribution. The same
    arithmetic as `_forward_cached`, keeping no activations."""
    h = _checked_features(model, features)
    layers = _layer_slices(model.arch)
    params = model.params
    last = len(layers) - 1
    for li, (w_sl, b_sl, fi, fo) in enumerate(layers):
        z = h @ params[w_sl].reshape(fo, fi).T
        z += params[b_sl]
        h = _activate(z, model.arch.activation) if li < last else z
    return _softmax(h)


def _backprop(model: Model, acts, zs, dlogits: np.ndarray) -> np.ndarray:
    """Flat gradient given the gradient of the loss w.r.t. output logits."""
    layers = _layer_slices(model.arch)
    params = model.params
    grad = np.empty_like(params)
    delta = dlogits
    for li in range(len(layers) - 1, -1, -1):
        w_sl, b_sl, fi, fo = layers[li]
        np.matmul(delta.T, acts[li], out=grad[w_sl].reshape(fo, fi))
        np.add.reduce(delta, axis=0, out=grad[b_sl])  # np.sum, minus its dispatch
        if li > 0:
            delta = delta @ params[w_sl].reshape(fo, fi)
            delta *= _activate_grad(zs[li - 1], acts[li], model.arch.activation)
    return grad


def _checked_labels(probs: np.ndarray, labels) -> np.ndarray:
    labels = np.asarray(labels)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise DimensionError(f"probs {probs.shape} and labels {labels.shape} do not align")
    m = probs.shape[1]
    if labels.min() < 0 or labels.max() >= m:
        raise ValueError(f"labels must lie in [0, {m}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    return labels


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class, log clamped at 1e-12."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = _checked_labels(probs, labels)
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


def dml_losses_and_grads(model_p: Model, model_ex: Model, features: np.ndarray,
                         labels: np.ndarray):
    """Mutual-learning losses and gradients for a pair of models on one batch.

    Each model's loss is cross-entropy plus the KL pull toward the peer's
    predictions; the peer's outputs are treated as constants when
    differentiating, so the two gradients decouple.
    """
    if not model_p.arch.compatible_with(model_ex.arch):
        raise DimensionError("models do not share input_dim / num_classes")
    probs_p, acts_p, zs_p = _forward_cached(model_p, features)
    probs_ex, acts_ex, zs_ex = _forward_cached(model_ex, features)
    labels = _checked_labels(probs_p, labels)
    n = len(labels)
    rows = np.arange(n)

    # one clamped log per probability serves both the CE and the KL terms
    log_p = np.log(np.maximum(probs_p, LOG_CLAMP))
    log_ex = np.log(np.maximum(probs_ex, LOG_CLAMP))
    log_ratio = log_ex - log_p
    loss_p = float((probs_ex * log_ratio).sum() - log_p[rows, labels].sum()) / n
    loss_ex = float(-(probs_p * log_ratio).sum() - log_ex[rows, labels].sum()) / n

    # d/dlogits of mean CE is (p - y)/n; of mean KL(t || p) it is (p - t)/n.
    dlogits_p = 2.0 * probs_p
    dlogits_p[rows, labels] -= 1.0
    dlogits_p -= probs_ex
    dlogits_p /= n
    dlogits_ex = 2.0 * probs_ex
    dlogits_ex[rows, labels] -= 1.0
    dlogits_ex -= probs_p
    dlogits_ex /= n
    grad_p = _backprop(model_p, acts_p, zs_p, dlogits_p)
    grad_ex = _backprop(model_ex, acts_ex, zs_ex, dlogits_ex)
    return loss_p, loss_ex, grad_p, grad_ex


def ce_loss_and_grad(model: Model, features: np.ndarray, labels: np.ndarray):
    """Plain cross-entropy loss and gradient (no mutual-learning term)."""
    probs, acts, zs = _forward_cached(model, features)
    labels = _checked_labels(probs, labels)
    n = len(labels)
    rows = np.arange(n)
    loss = float(-np.log(np.maximum(probs[rows, labels], LOG_CLAMP)).sum()) / n
    # probs becomes d/dlogits of mean CE, (p - y)/n
    probs[rows, labels] -= 1.0
    probs /= n
    return loss, _backprop(model, acts, zs, probs)


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


def _train(model: Model, features: np.ndarray, labels: np.ndarray, params,
           rng: np.random.Generator, peer: Model | None = None) -> None:
    """Train `model` in place with momentum SGD from a zero buffer for
    `params.epochs` epochs of mini-batches, shuffled afresh each epoch by `rng`.

    `params` supplies epochs, batch_size, lr, momentum, weight_decay and dml.
    A `peer` trains on the same batches: jointly by deep mutual learning when
    `params.dml`, otherwise by its own cross-entropy, after `model` (the two
    updates do not interact, so the order does not matter).
    """
    n, size = len(labels), params.batch_size
    perms = [rng.permutation(n) for _ in range(params.epochs)]
    batches = [perm[start:start + size] for perm in perms
               for start in range(0, n, size)]
    if peer is not None and params.dml:
        runs = [(model, peer)]
    else:
        runs = [(m, None) for m in (model, peer) if m is not None]
    hyper = (params.lr, params.momentum, params.weight_decay)
    for own, other in runs:
        own_buf = np.zeros_like(own.params)
        other_buf = None if other is None else np.zeros_like(other.params)
        for batch in batches:
            x, y = features[batch], labels[batch]
            if other is None:
                _, grad = ce_loss_and_grad(own, x, y)
                _sgd_update(own.params, own_buf, grad, *hyper)
            else:
                _, _, grad, other_grad = dml_losses_and_grads(own, other, x, y)
                _sgd_update(own.params, own_buf, grad, *hyper)
                _sgd_update(other.params, other_buf, other_grad, *hyper)


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
    labels = _checked_labels(probs, labels[start:stop])
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
