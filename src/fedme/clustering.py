"""Lloyd's k-means with k-means++ seeding and restarts, plus the cluster-count
schedule that opens up clustering gradually over communication rounds.

A `kmeans` call works on the v distinct rows of its n points (clients that
share a model give bit-identical prediction vectors) and gathers each
result back to all n points. That is exact because of two bit facts about
the direct squared distance E: E(x, y) and E(y, x) have the same bits, as
x - y is -(y - x) exactly; and a row's E has the same bits whichever other
rows it is computed with, as each row is reduced on its own. k-means++
seeding reads its distances from a table of distinct pairs, each filled in
once, on first use.

Lloyd steps give each point the centroid of least E, first on ties. A
centroid is the mean of its m members, so its exact value is c = sum_q w_q x_q
over the distinct rows, with w_q the share of the members that are copies of
x_q (sum 1). Its ranks |c|^2 - 2 x.c (|x|^2 is common to the row) come from
the rows' Gram matrix G: x.c = (G w)_x and |c|^2 = w.G w. With u the unit
roundoff, gamma_j = j u / (1 - j u) and M = max |x|:
- G's entries round off by gamma_d |x| |y|, the weights by u each, and the
  two length-v sums by gamma_v, so the rank is within gamma_(d+2v+3)
  (|x| + M)^2 of the exact |c|^2 - 2 x.c.
- The stored centroid is the rounded mean of its members' rows (or a point),
  within gamma_m M of c, which moves E by at most 2 gamma_(m+1) (|x| + M)^2.
- E itself rounds off by at most gamma_(d+3) (|x| + M)^2.
With v, m <= n, b = 2 (d + 2n + 4) eps (|x| + M)^2 (eps = 2u) is twice the
largest gap between a rank plus |x|^2 and E. A centroid ranked beyond
tol = 2b of the row's best has a larger E than that best, so E decides among
the others: exact argmin. The tiny term covers products that underflow. As
the weights sum to 1, every intermediate stays below 3 M^2, within the
4 n M^2 that `kmeans` checks is finite.
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


class _Rows:
    """The distinct rows of one `kmeans` call's points, shared by its restarts:
    each point's distinct id, the rows' Gram matrix and rank tolerances, and
    the table of their pair distances (see the module docstring)."""

    def __init__(self, points: np.ndarray, sq_norms: np.ndarray):
        self.points = points
        bits = points.view(np.int64)
        # a wrapping integer sum of each row's words proposes the copies
        self.first, self.inverse = distinct_rows(bits, np.add.reduce(bits, axis=1).tolist())
        self.buf = np.empty_like(points)
        v = len(self.first)
        x = np.take(points, self.first, axis=0, out=self.buf[:v], mode="clip")
        self.gram = x @ x.T
        n, d = points.shape
        norms, fp = np.sqrt(sq_norms[self.first]), np.finfo(np.float64)
        self.tol = 4 * (d + 2 * n + 4) * (fp.eps * (norms + norms.max()) ** 2 + fp.tiny)
        self._table = np.zeros((v, v))
        self._done = np.zeros(v, dtype=bool)

    def dist_to(self, i: int) -> np.ndarray:
        """Direct squared distances of all points to point i. The first call
        for a distinct row fills in its pairs that are not in the table yet."""
        q = self.inverse[i]
        if not self._done[q]:
            self._done[q] = True
            todo = (~self._done).nonzero()[0]
            rows = np.take(self.points, self.first[todo], axis=0,
                           out=self.buf[:len(todo)], mode="clip")
            self._table[q, todo] = self._table[todo, q] = _sq_dist(
                rows, self.points[self.first[q]], self.buf)
        return self._table[q, self.inverse]


def _nearest(rows: _Rows, centroids: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each distinct row's nearest centroid by direct distance, ranked in the
    Gram form (see the module docstring)."""
    dots = rows.gram @ weights.T
    ranks = np.einsum("jq,qj->j", weights, dots) - 2.0 * dots
    near = ranks <= (ranks.min(axis=1) + rows.tol)[:, None]
    assignments = near.argmax(axis=1)
    for i in (near.sum(axis=1) > 1).nonzero()[0]:
        cand = near[i].nonzero()[0]
        point = rows.points[rows.first[i]]
        assignments[i] = cand[_sq_dist(centroids[cand], point, rows.buf).argmin()]
    return assignments


def _kmeans_pp_init(rows: _Rows, k: int, rng: np.random.Generator):
    """k-means++ seeding. Every centre it picks is a point; returns the
    centres and their weights over the distinct rows."""
    n = len(rows.points)
    picks = [rng.integers(n)]
    d2 = rows.dist_to(picks[0])
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            picks.append(rng.integers(n))
            continue
        picks.append(rng.choice(n, p=d2 / total))
        d2 = np.minimum(d2, rows.dist_to(picks[-1]))
    weights = np.zeros((k, len(rows.first)))
    weights[np.arange(k), rows.inverse[picks]] = 1.0
    return rows.points[picks], weights


def _lloyd(rows: _Rows, k: int, rng: np.random.Generator):
    points, inverse, buf = rows.points, rows.inverse, rows.buf
    centroids, weights = _kmeans_pp_init(rows, k, rng)
    assignments = _nearest(rows, centroids, weights)[inverse]
    # the centroids that may not be the mean of their members in `assignments`
    stale = np.ones(k, dtype=bool)
    for _ in range(MAX_ITER):
        counts = np.bincount(assignments, minlength=k)
        if not stale.any() and counts.all():
            break  # the means would not move: a shift of 0
        new_centroids, new_weights = centroids.copy(), weights.copy()
        for j in (stale & (counts > 0)).nonzero()[0]:
            members = (assignments == j).nonzero()[0]
            # points[members].mean(axis=0), with the copy made in `buf`
            new_centroids[j] = np.take(points, members, axis=0, out=buf[:len(members)],
                                       mode="clip").mean(axis=0)
            new_weights[j] = np.bincount(inverse[members],
                                         minlength=weights.shape[1]) / len(members)
        means_of, stale = assignments, counts == 0
        if stale.any():
            # repair empty clusters with the point farthest from its own centroid
            assignments = assignments.copy()
            for j in range(k):
                if not (assignments == j).any():
                    gathered = np.take(centroids, assignments, axis=0, out=buf, mode="clip")
                    farthest = int(_sq_dist(points, gathered, buf).argmax())
                    assignments[farthest] = j
                    new_centroids[j] = points[farthest]
                    new_weights[j] = 0.0
                    new_weights[j, inverse[farthest]] = 1.0
                    stale[j] = True
        shift = np.abs(new_centroids - centroids).max()
        centroids, weights = new_centroids, new_weights
        assignments = _nearest(rows, centroids, weights)[inverse]
        if shift < SHIFT_TOL:
            break
        # the same members give the same mean, bit for bit
        moved = assignments != means_of
        stale[assignments[moved]] = stale[means_of[moved]] = True
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
    rows = _Rows(np.ascontiguousarray(points), sq_norms)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        assignments, inertia = _lloyd(rows, k, rng)
        if best is None or inertia < best[1]:
            best = (assignments, inertia)
    return best
