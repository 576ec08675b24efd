"""Lloyd's k-means with k-means++ seeding and restarts, plus the cluster-count
schedule that opens up clustering gradually over communication rounds.

A `kmeans` call works on the v distinct rows of its n points (clients that
share a model give bit-identical prediction vectors) and gathers each
result back to all n points. That is exact because of two bit facts about
the direct squared distance E: E(x, y) and E(y, x) have the same bits, as
x - y is -(y - x) exactly; and a row's E has the same bits whichever other
rows it is computed with, as each row is reduced on its own. k-means++
seeding reads its distances from a table of distinct pairs, each filled in
once, on first use, and its picks are held as point indices.

Lloyd steps give each point the centroid of least E, first on ties. A
centroid is the mean of its m members, so its exact value is c = sum_q w_q x_q
over the distinct rows, with w_q the share of the members that are copies of
x_q (sum 1). Its ranks |c|^2 - 2 x.c (|x|^2 is common to the row) come from
the rows' Gram matrix G: x.c = (G w)_x and |c|^2 = w.G w. With u the unit
roundoff, gamma_j = j u / (1 - j u) and M = max |x|:
- G's entries round off by gamma_d |x| |y|, the weights by u each, and the
  two length-v sums by gamma_v, so the rank is within gamma_(d+2v+3)
  (|x| + M)^2 of the exact |c|^2 - 2 x.c.
- The computed centroid is the rounded mean of its members' rows (or a point),
  within gamma_m M of c, which moves E by at most 2 gamma_(m+1) (|x| + M)^2.
- E itself rounds off by at most gamma_(d+3) (|x| + M)^2.
With v, m <= n, b = 2 (d + 2n + 4) eps (|x| + M)^2 (eps = 2u) is twice the
largest gap between a rank plus |x|^2 and E. A centroid ranked beyond
tol = 2b of the row's best has a larger E than that best, so E decides among
the others: exact argmin. The tiny term covers products that underflow. As
the weights sum to 1, every intermediate stays below 3 M^2, within the
4 n M^2 that `kmeans` checks is finite.

So Lloyd holds each centroid as its weights and its member list. Its
value, `points[members].mean(axis=0)` (`_mean`; a seed's or a repair's is
its point), is computed each time a direct distance needs it: to settle a
near-tie, to repair an empty cluster, and where the inertia certificate
below does not decide. The certificate counts each rounding term twice;
underflowing products move it by far less than that.
- Stop. A restart remembers every assignment it reaches and stops when a
  step gives one of them again, or after MAX_ITER steps. A repeat is a
  fixed point, or a cycle that rounding makes among duplicated rows. The
  rule compares assignments, not coordinates, so scaling the points by a
  power of two changes no assignment.
- Inertia. A restart's inertia is the rounded sum of its n points' E. Each
  E is within tol / 4 of its final rank plus the exact |x|^2, and the
  computed |x|^2 and the sum rank + |x|^2 round off by far less than another
  tol / 4; an n-term sum rounds off by at most gamma_n times the sum of its
  terms' magnitudes. So with R_i the computed rank plus |x_i|^2, the inertia
  lies within sum_i tol_i / 2 + 2 gamma_n (sum_i |R_i| + tol_i / 2) of
  sum_i R_i.
  A restart replaces the best so far when its interval lies below the
  best's, and not when it lies at or above it. Where the intervals overlap
  and each point's centroid has the same members in both runs, the inertias
  have the same bits, so the best stays; otherwise both are taken exactly.
  The returned inertia is the best's exact one.
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
    each point's distinct id, the rows' Gram matrix, rank tolerances and
    inertia constants, and the table of their pair distances (see the
    module docstring)."""

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
        fp = np.finfo(np.float64)
        self.sq_norms = sq_norms[self.first]
        norms = np.sqrt(self.sq_norms)
        self.tol = 4 * (d + 2 * n + 4) * (fp.eps * (norms + norms.max()) ** 2 + fp.tiny)
        # inertia: the interval's radius is spread_base + spread_coef sum |R_i|,
        # with spread_coef = 4 gamma_(n+1)
        g = (n + 1) * fp.epsneg
        self.spread_coef = 4 * g / (1 - g)
        self.spread_base = self.tol[self.inverse].sum() * (1 + self.spread_coef)
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


def _mean(rows: _Rows, members: np.ndarray) -> np.ndarray:
    """points[members].mean(axis=0), with the copy made in the rows' buffer."""
    return np.take(rows.points, members, axis=0, out=rows.buf[:len(members)],
                   mode="clip").mean(axis=0)


class _Centroids:
    """Lloyd's k centroids, each held as its weights over the distinct rows
    and its member points; a seed or a repair has its point as its one
    member. A value is computed each time it is used."""

    def __init__(self, rows: _Rows, k: int):
        self.rows, self.members = rows, [None] * k
        self.weights = np.zeros((k, len(rows.first)))

    def set(self, j: int, members: np.ndarray) -> None:
        self.members[j] = members
        self.weights[j] = np.bincount(self.rows.inverse[members],
                                      minlength=self.weights.shape[1]) / len(members)

    def value(self, j: int) -> np.ndarray:
        m = self.members[j]
        # a one-row mean has the row's bits
        return self.rows.points[m[0]] if len(m) == 1 else _mean(self.rows, m)

    def gather(self, assignments: np.ndarray) -> np.ndarray:
        """Each point's centroid value, gathered into the rows' buffer."""
        values = np.empty((len(self.members), self.rows.points.shape[1]))
        for j in set(assignments.tolist()):
            values[j] = self.value(j)
        return np.take(values, assignments, axis=0, out=self.rows.buf, mode="clip")


def _nearest(rows: _Rows, cents: _Centroids):
    """Each distinct row's nearest centroid by direct distance, ranked in the
    Gram form (see the module docstring); returns it and the ranks."""
    weights = cents.weights
    dots = rows.gram @ weights.T
    ranks = np.einsum("jq,qj->j", weights, dots) - 2.0 * dots
    near = ranks <= (ranks.min(axis=1) + rows.tol)[:, None]
    assignments = near.argmax(axis=1)
    for i in (near.sum(axis=1) > 1).nonzero()[0]:
        cand = near[i].nonzero()[0]
        values = np.array([cents.value(j) for j in cand])
        point = rows.points[rows.first[i]]
        assignments[i] = cand[_sq_dist(values, point, rows.buf).argmin()]
    return assignments, ranks


def _kmeans_pp_init(rows: _Rows, k: int, rng: np.random.Generator) -> list:
    """k-means++ seeding; returns the indices of the points it picks. The
    last pick's distances are never read, so they are not computed."""
    n = len(rows.points)
    picks = [rng.integers(n)]
    d2 = rows.dist_to(picks[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            picks.append(rng.integers(n))
            continue
        picks.append(rng.choice(n, p=d2 / total))
        if j < k - 1:
            d2 = np.minimum(d2, rows.dist_to(picks[-1]))
    return picks


def _inertia(rows: _Rows, cents: _Centroids, assignments: np.ndarray) -> float:
    gathered = cents.gather(assignments)
    return float(_sq_dist(rows.points, gathered, rows.buf).sum())


class _Run:
    """One restart's assignments and centroids, and an interval [lo, hi] that
    holds its inertia."""

    def __init__(self, rows: _Rows, cents: _Centroids, nearest: np.ndarray,
                 ranks: np.ndarray):
        self.rows, self.cents = rows, cents
        self.assignments = nearest[rows.inverse]
        dists = (ranks[np.arange(len(nearest)), nearest] + rows.sq_norms)[rows.inverse]
        radius = rows.spread_base + rows.spread_coef * np.abs(dists).sum()
        centre = dists.sum()
        self.lo, self.hi = centre - radius, centre + radius

    def inertia(self) -> float:
        return _inertia(self.rows, self.cents, self.assignments)

    def below(self, other: _Run) -> bool:
        """Whether this run's inertia is less than the other's."""
        if self.hi < other.lo:
            return True
        if self.lo >= other.hi:
            return False
        pairs = set(zip(self.assignments.tolist(), other.assignments.tolist()))
        if all(self.cents.members[j].tobytes() == other.cents.members[l].tobytes()
               for j, l in pairs):
            return False  # each point's centroid has the same members: equal inertias
        return self.inertia() < other.inertia()


def _lloyd(rows: _Rows, k: int, rng: np.random.Generator) -> _Run:
    points, inverse, buf = rows.points, rows.inverse, rows.buf
    cents = _Centroids(rows, k)
    for j, pick in enumerate(_kmeans_pp_init(rows, k, rng)):
        cents.set(j, np.array([pick]))
    nearest, ranks = _nearest(rows, cents)
    seen = {nearest.tobytes()}
    for _ in range(MAX_ITER):
        assignments = nearest[inverse]
        counts = np.bincount(assignments, minlength=k)
        new = _Centroids(rows, k)
        for j in counts.nonzero()[0]:
            new.set(j, (assignments == j).nonzero()[0])
        if not counts.all():
            # repair empty clusters with the point farthest from its own
            # centroid; a repair can empty a later cluster
            for j in range(k):
                if not (assignments == j).any():
                    gathered = cents.gather(assignments)
                    farthest = int(_sq_dist(points, gathered, buf).argmax())
                    assignments[farthest] = j
                    new.set(j, np.array([farthest]))
        cents = new
        nearest, ranks = _nearest(rows, cents)
        key = nearest.tobytes()
        if key in seen:
            break  # a fixed point, or a cycle among duplicated rows
        seen.add(key)
    return _Run(rows, cents, nearest, ranks)


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
    rows = _Rows(np.ascontiguousarray(points), sq_norms)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        run = _lloyd(rows, k, rng)
        if best is None or run.below(best):
            best = run
    return best.assignments, best.inertia()
