"""Lloyd's k-means with k-means++ seeding and restarts, plus the cluster-count
schedule that opens up clustering gradually over communication rounds.

A `kmeans` call works on the v distinct rows x of its n points (clients that
share a model give bit-identical prediction vectors) and their Gram matrix
G = x x^T. A centroid is the mean of its m members, c = sum_q w_q x_q, with
w_q the share of its members that are copies of x_q; a seed or a repaired
cluster is one point, with weight 1 on its row. Every squared distance is
taken in the Gram form, for all rows and centroids at once:

    |x - c|^2 = (|x|^2 - 2 (G w)_x) + w.G w,  with |x|^2 = G_xx.

So a row's distance to itself, and so the inertia of a cluster of copies,
is exactly 0.
- Ties. A point goes to its nearest centroid, the first one on ties.
  k-means++ seeding clamps the distances at 0 and picks uniformly when they
  sum to 0.
- Repair. Each empty cluster takes the point farthest from its
  previous-step centroid (the first on ties) as its one member, and the
  other clusters' weights are taken before the repair. That is the same as
  repairing the empty clusters one by one, in label order, each with the
  farthest point at the time: moving that point off its nearest centroid
  moves it no nearer to its new one, so it stays the first farthest, and a
  cluster it empties had it as its one member.
- Stop. A restart stops when a Lloyd step gives an assignment it has
  reached before (a fixed point, or a cycle that rounding makes), or after
  MAX_ITER steps. It compares assignments, not coordinates, and scaling the
  points by a power of two scales every distance exactly, so it changes no
  assignment.
- Restarts. A restart's inertia is the sum of its n points' distances. A
  later restart replaces the best only when its inertia is lower and its
  partition differs: the same partition under other labels can round to
  other inertia bits.
"""
from __future__ import annotations

import numpy as np

MAX_ITER = 100


def cluster_count(t: int, thresholds: tuple[int, ...], k_max: int,
                  num_clients: int) -> int:
    """Cluster count starts at 1 and grows by one at each threshold round,
    capped by k_max and the client count."""
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    k = 1 + sum(1 for th in thresholds if th <= t)
    return min(k, k_max, num_clients)


def distinct_rows(bits, keys) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct row's first copy, and each row's distinct
    id. `bits` holds the rows as 64-bit integer views, so rows match on their
    bits, not on float equality; `keys` holds a hashable per row that copies
    share (a checksum, say), which proposes the matches a compare confirms."""
    first, inverse, seen = [], [], {}
    for i, key in enumerate(keys):
        for q in seen.get(key, ()):
            if memoryview(bits[first[q]]) == memoryview(bits[i]):
                break
        else:
            q = len(first)
            seen.setdefault(key, []).append(q)
            first.append(i)
        inverse.append(q)
    return np.array(first, dtype=np.intp), np.array(inverse, dtype=np.intp)




def _distances(gram: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (v, k) squared distances of the distinct rows to the centroids of
    the (k, v) `weights`, in the Gram form (see the module docstring)."""
    dots = gram @ weights.T
    return np.diagonal(gram)[:, None] - 2.0 * dots + np.einsum("jq,qj->j", weights, dots)


def _kmeans_pp(gram: np.ndarray, inverse: np.ndarray, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding over the n points; returns the seeds' weights."""
    n, weights = len(inverse), np.zeros((k, len(gram)))
    d2 = None
    for j in range(k):
        total = 0.0 if d2 is None else d2.sum()  # the first pick is uniform
        pick = rng.integers(n) if total <= 0.0 else rng.choice(n, p=d2 / total)
        weights[j, inverse[pick]] = 1.0
        if j < k - 1:  # the last pick's distances are never read
            dist = np.maximum(_distances(gram, weights[j:j + 1])[inverse, 0], 0.0)
            d2 = dist if d2 is None else np.minimum(d2, dist)
    return weights


def _lloyd(gram: np.ndarray, inverse: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One restart; returns each distinct row's nearest centroid and the
    rows' distances to the final centroids."""
    v = len(gram)
    dist = _distances(gram, _kmeans_pp(gram, inverse, k, rng))
    nearest = dist.argmin(axis=1)
    seen = {nearest.tobytes()}
    for _ in range(MAX_ITER):
        counts = np.bincount(nearest[inverse] * v + inverse, minlength=k * v).reshape(k, v)
        sizes = counts.sum(axis=1)
        weights = counts / np.maximum(sizes, 1)[:, None]
        if not sizes.all():
            # rows are in order of their first point, so this is the first
            # point farthest from its centroid
            weights[sizes == 0] = np.arange(v) == dist.min(axis=1).argmax()
        dist = _distances(gram, weights)
        nearest = dist.argmin(axis=1)
        key = nearest.tobytes()
        if key in seen:
            break  # a fixed point, or a cycle
        seen.add(key)
    return nearest, dist


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two labelings group the points alike, labels aside."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def kmeans(points: np.ndarray, k: int, seed: int, restarts: int = 8):
    """Best-of-restarts Lloyd clustering; returns (assignments, inertia).
    A restart stops when its assignment repeats one it reached before."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    if k < 1 or k > len(points):
        raise ValueError(f"k={k} is outside [1, {len(points)}]")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    sq_norms = np.einsum("ij,ij->i", points, points)
    # NaN and inf reach the norms; n distances, each <= 4 max|x|^2, sum finite
    if not np.isfinite(4.0 * len(points) * sq_norms.max()):
        raise ValueError("points must be finite, with distance sums that cannot overflow")
    bits = np.ascontiguousarray(points).view(np.int64)
    # a wrapping integer sum of each row's words proposes the copies
    first, inverse = distinct_rows(bits, np.add.reduce(bits, axis=1).tolist())
    x = points[first]
    gram = x @ x.T
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        nearest, dist = _lloyd(gram, inverse, k, rng)
        assignments = nearest[inverse]
        inertia = float(dist[inverse, assignments].sum())
        if best is None or (inertia < best[1]
                            and not _same_partition(assignments, best[0])):
            best = assignments, inertia
    return best
