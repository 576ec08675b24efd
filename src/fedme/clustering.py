"""Lloyd's k-means with k-means++ seeding and restarts, plus the cluster-count
schedule that opens up clustering gradually over communication rounds."""
from __future__ import annotations

import numpy as np

MAX_ITER = 100
SHIFT_TOL = 1e-9


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


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centroids[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    diff = points - centroids[0]
    d2 = np.einsum("ij,ij->i", diff, diff)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=d2 / total)
        centroids[j] = points[idx]
        diff = points - centroids[j]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return centroids


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator):
    centroids = _kmeans_pp_init(points, k, rng)
    assignments = np.zeros(len(points), dtype=np.int64)
    for _ in range(MAX_ITER):
        d2 = _squared_distances(points, centroids)
        assignments = d2.argmin(axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = assignments == j
            if members.any():
                new_centroids[j] = points[members].mean(axis=0)
        # repair empty clusters with the point farthest from its own centroid
        for j in range(k):
            if not (assignments == j).any():
                farthest = int(d2[np.arange(len(points)), assignments].argmax())
                assignments[farthest] = j
                new_centroids[j] = points[farthest]
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        if shift < SHIFT_TOL:
            break
    d2 = _squared_distances(points, centroids)
    assignments = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(points)), assignments].sum())
    return assignments, inertia


def kmeans(points: np.ndarray, k: int, seed: int, restarts: int = 8):
    """Best-of-restarts Lloyd clustering; returns (assignments, inertia)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {points.shape}")
    if k < 1 or k > len(points):
        raise ValueError(f"k={k} is outside [1, {len(points)}]")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if k == 1:
        centroid = points.mean(axis=0)
        inertia = float(((points - centroid) ** 2).sum())
        return np.zeros(len(points), dtype=np.int64), inertia
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        assignments, inertia = _lloyd(points, k, rng)
        if best is None or inertia < best[1]:
            best = (assignments, inertia)
    return best
