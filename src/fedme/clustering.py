"""Lloyd's k-means with k-means++ seeding and restarts, plus the cluster-count
schedule that opens up clustering gradually over communication rounds.

Lloyd steps give each point the centroid of least direct squared distance E,
first on ties. One matmul ranks them by |c|^2 - 2 x.c (|x|^2 is common to the
row). Both forms round off by at most gamma_(d+2) (|x| + |c|)^2, and |c| <=
max |x| as c is a mean of points; so b = 2 (d + 3) eps (|x| + max |x|)^2 is
twice their largest gap. A centroid ranked beyond tol = 2b of the row's best
has a larger E than that best, so E decides among the others: exact argmin.
"""
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


def _sq_dist(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> np.ndarray:
    diff = np.subtract(a, b, out=buf[:len(a)])
    return np.einsum("ij,ij->i", diff, diff)


def _nearest(points, tol, centroids, buf) -> np.ndarray:
    """Each point's nearest centroid by direct distance (see the module docstring)."""
    ranks = np.einsum("ij,ij->i", centroids, centroids) - 2.0 * (points @ centroids.T)
    near = ranks <= (ranks.min(axis=1) + tol)[:, None]
    assignments = near.argmax(axis=1)
    for i in np.flatnonzero(near.sum(axis=1) > 1):
        cand = np.flatnonzero(near[i])
        assignments[i] = cand[_sq_dist(centroids[cand], points[i], buf).argmin()]
    return assignments


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator,
                    buf: np.ndarray, dist: dict) -> np.ndarray:
    """k-means++ seeding. Every centre it picks is a point, so `dist` keeps
    each picked point's distances to all points by its index, for reuse by
    the later restarts of one `kmeans` call."""
    def dist_to(idx) -> np.ndarray:
        if idx not in dist:
            dist[idx] = _sq_dist(points, points[idx], buf)
        return dist[idx]

    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    idx = rng.integers(n)
    centroids[0] = points[idx]
    d2 = dist_to(idx)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = points[rng.integers(n)]
            continue
        idx = rng.choice(n, p=d2 / total)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, dist_to(idx))
    return centroids


def _lloyd(points: np.ndarray, tol: np.ndarray, k: int, rng: np.random.Generator,
           buf: np.ndarray, dist: dict):
    centroids = _kmeans_pp_init(points, k, rng, buf, dist)
    for _ in range(MAX_ITER):
        assignments = _nearest(points, tol, centroids, buf)
        new_centroids = centroids.copy()
        for j in range(k):
            members = assignments == j
            if members.any():
                new_centroids[j] = points[members].mean(axis=0)
        # repair empty clusters with the point farthest from its own centroid
        for j in range(k):
            if not (assignments == j).any():
                gathered = np.take(centroids, assignments, axis=0, out=buf, mode="clip")
                farthest = int(_sq_dist(points, gathered, buf).argmax())
                assignments[farthest] = j
                new_centroids[j] = points[farthest]
        shift = np.abs(new_centroids - centroids).max()
        centroids = new_centroids
        if shift < SHIFT_TOL:
            break
    assignments = _nearest(points, tol, centroids, buf)
    gathered = np.take(centroids, assignments, axis=0, out=buf, mode="clip")
    return assignments, float(_sq_dist(points, gathered, buf).sum())


def kmeans(points: np.ndarray, k: int, seed: int, restarts: int = 8):
    """Best-of-restarts Lloyd clustering; returns (assignments, inertia)."""
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
    norms, fp = np.sqrt(sq_norms), np.finfo(np.float64)
    tol = 4 * (points.shape[1] + 3) * (fp.eps * (norms + norms.max()) ** 2 + fp.tiny)
    buf = np.empty_like(points)
    dist = {}
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        assignments, inertia = _lloyd(points, tol, k, rng, buf, dist)
        if best is None or inertia < best[1]:
            best = (assignments, inertia)
    return best
