"""Datasets, synthetic non-IID generation, Dirichlet partitioning, and splits."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Dataset:
    features: np.ndarray  # (N, d)
    labels: np.ndarray    # (N,) ints in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("feature and label row counts differ")
        if len(self.labels) < 1:
            raise ValueError("dataset must contain at least one row")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


@dataclass
class ClientShard:
    """A client's train, validation and test splits, held as row views of one
    stacked `features`/`labels` pair: split s is rows `ends[s]:ends[s + 1]`,
    so one forward pass can score any run of consecutive splits. A client is
    known by its index in the federation's shard list."""

    train: Dataset
    validation: Dataset
    test: Dataset
    features: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)
    ends: tuple[int, int, int, int] = field(init=False)

    def __post_init__(self):
        splits = (self.train, self.validation, self.test)
        self.features = np.concatenate([s.features for s in splits])
        self.labels = np.concatenate([s.labels for s in splits])
        self.ends = (0, self.train.n, self.train.n + self.validation.n, self.n)
        self.train, self.validation, self.test = (
            Dataset(self.features[a:b], self.labels[a:b], s.num_classes)
            for s, a, b in zip(splits, self.ends, self.ends[1:]))

    @property
    def n(self) -> int:
        return self.train.n + self.validation.n + self.test.n


@dataclass(frozen=True)
class PartitionSpec:
    num_clients: int
    alpha_label: float | None = 0.5  # None means IID; alpha_size is then unused
    alpha_size: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 2:
            raise ValueError(f"need at least 2 clients, got {self.num_clients}")
        if self.alpha_label is not None and not all(
                0 < a < np.inf for a in (self.alpha_label, self.alpha_size)):
            raise ValueError("Dirichlet alphas must be finite and strictly positive")


def generate_synthetic(num_classes: int, dim: int, per_class_count: int,
                       class_separation: float, noise_sigma: float,
                       seed: int) -> Dataset:
    """Gaussian class blobs with seeded random mean directions."""
    if num_classes < 2 or dim < 2:
        raise ValueError("need num_classes >= 2 and dim >= 2")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(num_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = class_separation * directions
    features = np.concatenate([
        means[c] + noise_sigma * rng.normal(size=(per_class_count, dim))
        for c in range(num_classes)
    ])
    labels = np.repeat(np.arange(num_classes), per_class_count)
    return Dataset(features, labels, num_classes)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas proportional to weights, summing exactly to total."""
    raw = weights / weights.sum() * total
    quotas = np.floor(raw).astype(np.int64)
    remainder = total - quotas.sum()
    # hand the leftover units to the largest fractional parts, ties by index
    order = np.lexsort((np.arange(len(raw)), -(raw - quotas)))
    quotas[order[:remainder]] += 1
    return quotas


def dirichlet_partition(dataset: Dataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Row-index sets per client, sorted: an equal-size random split when
    `spec.alpha_label` is None (IID), else by size and label Dirichlet draws.

    Client sizes come from Dirichlet(alpha_size); per-class proportions from
    Dirichlet(alpha_label). Label assignments are then repaired against the
    size quotas so the result is an exact partition with every client holding
    at least num_classes rows.
    """
    n, m, k = dataset.n, dataset.num_classes, spec.num_clients
    if n < k * m:
        raise ValueError(f"infeasible partition: {n} rows < {k} clients x {m} classes")
    rng = np.random.default_rng(spec.seed)
    owner = np.empty(n, dtype=np.int64)

    if spec.alpha_label is None:
        owner[rng.permutation(n)] = np.repeat(np.arange(k),
                                              _largest_remainder(np.ones(k), n))
        return [np.flatnonzero(owner == i) for i in range(k)]

    quotas = _largest_remainder(rng.dirichlet(np.full(k, spec.alpha_size)), n)
    # every client must end with at least m rows
    while quotas.min() < m:
        quotas[int(np.argmin(quotas))] += 1
        quotas[int(np.argmax(quotas))] -= 1

    # per class, deal shuffled rows to clients by a label-skew Dirichlet draw
    dealt = []  # each class's rows in dealing order
    for c in range(m):
        rows = np.flatnonzero(dataset.labels == c)
        rows = rows[rng.permutation(len(rows))]
        counts = _largest_remainder(rng.dirichlet(np.full(k, spec.alpha_label)),
                                    len(rows))
        owner[rows] = np.repeat(np.arange(k), counts)
        dealt.append(rows)

    # repair: most-overfull client donates the rows of its most-represented
    # class it was dealt last; a client only ever gives or only ever takes
    while True:
        held = np.bincount(owner * m + dataset.labels, minlength=k * m).reshape(k, m)
        excess = held.sum(axis=1) - quotas
        donor = int(np.argmax(excess))
        if excess[donor] <= 0:
            break
        receiver = int(np.argmin(excess))
        cls = int(np.argmax(held[donor]))
        move = min(excess[donor], -excess[receiver], held[donor, cls])
        rows = dealt[cls][owner[dealt[cls]] == donor]
        owner[rows[len(rows) - move:]] = receiver

    return [np.flatnonzero(owner == i) for i in range(k)]


def split_shard(dataset: Dataset, indices, seed: int = 0) -> ClientShard:
    """Seeded shuffle then contiguous train/validation/test cut."""
    ratios = (0.6, 0.2, 0.2)
    idx = np.asarray(indices, dtype=np.int64)
    rng = np.random.default_rng(seed)
    idx = idx[rng.permutation(len(idx))]
    sizes = _largest_remainder(np.asarray(ratios, dtype=np.float64), len(idx))
    if sizes.min() < 1:
        raise ValueError(
            f"split of {len(idx)} rows at ratios {ratios} "
            f"leaves an empty partition")
    bounds = np.cumsum(sizes)[:-1]
    tr, va, te = np.split(idx, bounds)
    return ClientShard(dataset.subset(tr), dataset.subset(va),
                       dataset.subset(te))


def extract_unlabeled(dataset: Dataset, count: int, seed: int):
    """Seeded sample without replacement: (pool features, labelled rest)."""
    if count >= dataset.n:
        raise ValueError(f"cannot extract {count} unlabeled rows from {dataset.n}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(dataset.n, size=count, replace=False)
    mask = np.ones(dataset.n, dtype=bool)
    mask[chosen] = False
    return dataset.features[chosen], dataset.subset(np.flatnonzero(mask))


def label_skew(shards_labels: list[np.ndarray], num_classes: int) -> float:
    """Mean per-client total-variation distance from the global label histogram."""
    all_labels = np.concatenate(shards_labels)
    global_hist = np.bincount(all_labels, minlength=num_classes) / len(all_labels)
    tvs = []
    for labels in shards_labels:
        hist = np.bincount(labels, minlength=num_classes) / len(labels)
        tvs.append(0.5 * np.abs(hist - global_hist).sum())
    return float(np.mean(tvs))
