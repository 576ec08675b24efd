import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedme import clustering
from fedme.clustering import cluster_count, kmeans
from reference import best_partition_inertia, oracle_kmeans


def test_schedule_validation():
    with pytest.raises(ValueError):
        cluster_count(1, (), 0, 10)
    # the count does not depend on the thresholds' order, so descending
    # thresholds are rejected by the config check, not here
    assert cluster_count(7, (10, 5), 4, 10) == 2


def test_cluster_count_growth_and_caps():
    thresholds = (150, 225, 275)
    assert cluster_count(1, thresholds, 4, 100) == 1
    assert cluster_count(149, thresholds, 4, 100) == 1
    assert cluster_count(150, thresholds, 4, 100) == 2
    assert cluster_count(225, thresholds, 4, 100) == 3
    assert cluster_count(275, thresholds, 4, 100) == 4
    assert cluster_count(300, thresholds, 4, 100) == 4
    # capped by client count
    assert cluster_count(300, thresholds, 4, 3) == 3
    with pytest.raises(ValueError):
        cluster_count(0, thresholds, 4, 100)


def test_cluster_count_empty_schedule_stays_one():
    assert cluster_count(999, (), 4, 50) == 1


def test_kmeans_k1_mean_inertia():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    assignments, inertia = kmeans(pts, 1, seed=0)
    assert np.all(assignments == 0)
    assert inertia == pytest.approx(8.0)


def test_kmeans_obvious_two_blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(20, 3)) * 0.1
    b = rng.normal(size=(20, 3)) * 0.1 + 10.0
    assignments, _ = kmeans(np.concatenate([a, b]), 2, seed=1)
    assert len(set(assignments[:20])) == 1
    assert len(set(assignments[20:])) == 1
    assert assignments[0] != assignments[20]


def test_kmeans_deterministic():
    pts = np.random.default_rng(5).normal(size=(30, 4))
    a1, i1 = kmeans(pts, 3, seed=7)
    a2, i2 = kmeans(pts, 3, seed=7)
    assert np.array_equal(a1, a2) and i1 == i2


def test_kmeans_duplicate_points():
    pts = np.zeros((6, 2))
    assignments, inertia = kmeans(pts, 2, seed=0)
    assert inertia == pytest.approx(0.0)
    assert set(assignments) <= {0, 1}


def test_kmeans_k_equals_n_zero_inertia():
    pts = np.arange(8, dtype=float).reshape(4, 2)
    _, inertia = kmeans(pts, 4, seed=0, restarts=20)
    assert inertia == pytest.approx(0.0, abs=1e-18)


def test_kmeans_bounds():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(pts, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(pts, 4, seed=0)
    with pytest.raises(ValueError):
        kmeans(np.zeros(3), 1, seed=0)
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts"):
            kmeans(pts, 2, seed=0, restarts=restarts)
    for bad in (np.nan, np.inf, -np.inf):
        for k in (1, 2):
            with pytest.raises(ValueError, match="finite"):
                kmeans(np.array([[0.0, 1.0], [bad, 0.0], [2.0, 2.0]]), k, seed=0)
    for k in (1, 2):
        with pytest.raises(ValueError, match="overflow"):
            kmeans(np.array([[0.0, 1.0], [1e200, 0.0], [2.0, 2.0]]), k, seed=0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(3, 12), dim=st.integers(1, 4), k=st.integers(2, 4),
       data_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 32 - 1))
def test_kmeans_inertia_never_rises_with_more_restarts(n, dim, k, data_seed, seed):
    pts = np.random.default_rng(data_seed).normal(size=(n, dim))
    k = min(k, n)
    inertias = [kmeans(pts, k, seed, restarts)[1] for restarts in range(1, 7)]
    assert all(b <= a for a, b in zip(inertias, inertias[1:]))


@pytest.mark.parametrize("k", [2, 3])
def test_kmeans_matches_exhaustive_optimum_on_small_instances(k):
    rng = np.random.default_rng(2024 + k)
    for trial in range(10):
        pts = rng.normal(size=(rng.integers(k + 1, 8), 2))
        _, inertia = kmeans(pts, k, seed=trial, restarts=20)
        assert inertia == pytest.approx(best_partition_inertia(pts, k),
                                        rel=1e-9, abs=1e-12)


def _assert_matches_oracle(points, k, seed, restarts):
    assignments, inertia = kmeans(points, k, seed, restarts)
    want_assignments, want_inertia = oracle_kmeans(points, k, seed, restarts)
    assert np.array_equal(assignments, want_assignments)
    assert inertia == want_inertia


def _points(kind, n, dim, rng):
    if kind == "normal":
        return rng.normal(size=(n, dim))
    if kind == "duplicates":
        return rng.normal(size=(max(1, n // 3), dim))[rng.integers(0, max(1, n // 3), n)]
    if kind == "jitter":
        return rng.normal(size=(1, dim)) + 1e-13 * rng.normal(size=(n, dim))
    if kind == "grid":  # small integers: many exact ties
        return rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    if kind == "rounded":
        return np.round(rng.normal(size=(n, dim)), 1)
    return rng.dirichlet(np.ones(dim), size=n)  # rows of class probabilities


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 40), dim=st.integers(1, 300), k=st.integers(2, 8),
       kind=st.sampled_from(["normal", "duplicates", "jitter", "grid", "rounded",
                             "probabilities"]),
       scale=st.sampled_from([0] + list(range(-100, 101, 10))),
       data_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 32 - 1),
       restarts=st.integers(1, 3))
def test_kmeans_matches_the_direct_distance_oracle_bit_for_bit(
        n, dim, k, kind, scale, data_seed, seed, restarts):
    points = _points(kind, n, dim, np.random.default_rng(data_seed)) * 10.0 ** scale
    _assert_matches_oracle(points, min(k, n), seed, restarts)


def _fedme_many_points():
    # 48 clients' prediction vectors over a 1000-row pool of 4 classes; the
    # clients of one lineage share a model, so some vectors repeat
    rng = np.random.default_rng(48)
    distinct = rng.dirichlet(np.full(4, 0.5), size=(30, 1000)).reshape(30, 4000)
    return distinct[rng.integers(0, 30, size=48)]


def test_kmeans_matches_the_oracle_at_fedme_many_size():
    _assert_matches_oracle(_fedme_many_points(), 8, seed=3, restarts=8)


def _counter(monkeypatch, owner, name, within=None):
    """Count the calls of owner.name; with `within`, the name of a clustering
    function, only the calls made while that function runs."""
    calls, active = [0], [within is None]
    wrapped = getattr(owner, name)

    def counted(*args):
        calls[0] += active[0]
        return wrapped(*args)

    monkeypatch.setattr(owner, name, counted)
    if within is not None:
        outer = getattr(clustering, within)

        def flagged(*args):
            active[0] = True
            try:
                return outer(*args)
            finally:
                active[0] = False

        monkeypatch.setattr(clustering, within, flagged)
    return calls


def _trails(monkeypatch):
    """Each restart's assignments of the distinct rows, as bytes, in the order
    its Lloyd steps reach them."""
    trails = []
    nearest, lloyd = clustering._nearest, clustering._lloyd

    def recorded(*args):
        result = nearest(*args)
        trails[-1].append(result[0].tobytes())
        return result

    def started(*args):
        trails.append([])
        return lloyd(*args)

    monkeypatch.setattr(clustering, "_nearest", recorded)
    monkeypatch.setattr(clustering, "_lloyd", started)
    return trails


def test_kmeans_takes_at_most_k_member_means_per_restart(monkeypatch):
    # a centroid's mean is taken only where a direct distance needs it. Here
    # no near-tie or repair needs one, and no two restarts' inertia
    # intervals overlap: only the best restart's k are taken
    means = _counter(monkeypatch, clustering, "_mean")
    ties = _counter(monkeypatch, clustering, "_sq_dist", within="_nearest")
    repairs = _counter(monkeypatch, clustering._Centroids, "gather", within="_lloyd")
    kmeans(_fedme_many_points(), 8, seed=3, restarts=8)
    assert ties[0] == repairs[0] == 0
    assert 0 < means[0] <= 8


_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("points, k, seed, restarts, counted, within", [
    # a corner's two nearest corners tie, as do opposite corners' centroids
    pytest.param(_SQUARE, 2, 0, 4, "_sq_dist", "_nearest", id="near-tie"),
    # three distinct rows for five clusters: seeding repeats a point
    pytest.param(np.random.default_rng(3).normal(size=(3, 5))[[0, 1, 2, 0, 1, 2, 0, 0]],
                 5, 2, 4, "gather", "_lloyd", id="repair"),
    # no fallback is counted below: each restart ends at a fixed point.
    # Rows 1e-13 apart:
    pytest.param(np.random.default_rng(1).normal(size=(1, 5))
                 + 1e-13 * np.random.default_rng(2).normal(size=(12, 5)),
                 3, 0, 2, None, None, id="shift-jitter"),
    # three copies of a row: their mean is an ulp off the row, weights equal
    pytest.param(np.array([[0.1] * 3] * 3 + [[5.0] * 3]), 2, 0, 1, None, None,
                 id="shift-one-ulp"),
    # left-right and top-bottom halves: other members, the same inertia
    pytest.param(_SQUARE, 2, 1, 4, "_inertia", None, id="overlapping-inertias"),
])
def test_kmeans_fallbacks_match_the_oracle(monkeypatch, points, k, seed, restarts,
                                           counted, within):
    owner = clustering._Centroids if counted == "gather" else clustering
    calls = _counter(monkeypatch, owner, counted, within) if counted else None
    trails = _trails(monkeypatch)
    assignments, inertia = kmeans(points, k, seed, restarts)
    if counted is None:
        assert all(trail[-1] == trail[-2] for trail in trails)
    else:
        # the best restart's inertia is always taken once; a second is an overlap
        assert calls[0] >= (2 if counted == "_inertia" else 1)
    want_assignments, want_inertia = oracle_kmeans(points, k, seed, restarts)
    assert np.array_equal(assignments, want_assignments) and inertia == want_inertia


def test_kmeans_stops_on_a_cycle_among_duplicated_rows(monkeypatch):
    # the mean of 8 copies of 0.1 is an ulp off 0.1, so each step the
    # repaired clusters, each a copy of the row, beat the mean's cluster:
    # the assignment swings between two clusters and repeats an earlier one
    points = np.full((8, 3), 0.1)
    trails = _trails(monkeypatch)
    kmeans(points, 4, seed=0, restarts=1)
    (trail,) = trails
    assert trail[-1] in trail[:-2] and trail[-1] != trail[-2]
    monkeypatch.undo()
    _assert_matches_oracle(points, 4, seed=0, restarts=1)


@pytest.mark.parametrize("restarts", [1, 8])
def test_kmeans_is_invariant_to_power_of_two_scaling(restarts):
    # scaling by 2^-40 is exact, so the stop rule must not see it
    points = np.random.default_rng(0).normal(size=(30, 4))
    assignments, inertia = kmeans(points, 4, seed=0, restarts=restarts)
    scaled_assignments, scaled_inertia = kmeans(points * 2.0 ** -40, 4, seed=0,
                                                restarts=restarts)
    assert np.array_equal(scaled_assignments, assignments)
    assert scaled_inertia == inertia * 2.0 ** -80


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 12), dim=st.integers(1, 6), k_share=st.floats(0.0, 1.0),
       kind=st.sampled_from(["duplicates", "grid", "normal"]),
       data_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 2 ** 32 - 1),
       restarts=st.integers(2, 8))
def test_kmeans_seeding_reuses_distances_with_the_oracles_bits(
        n, dim, k_share, kind, data_seed, seed, restarts):
    # k runs up to n and restarts pick the same points again, so the seeding
    # reads distances it kept from an earlier pick of the same point
    points = _points(kind, n, dim, np.random.default_rng(data_seed))
    _assert_matches_oracle(points, 1 + round(k_share * (n - 1)), seed, restarts)


def test_kmeans_matches_the_oracle_near_the_overflow_bound():
    # kmeans admits points whose 4 n max|x|^2 is finite; the Gram-form ranks
    # must stay finite there too, which sums over raw member counts would not
    rng = np.random.default_rng(7)
    direction = np.array([1.0, 2.0, 2.0]) / 3.0
    points = direction + 1e-3 * rng.normal(size=(48, 3))
    points[0] = -direction
    points *= 0.9 * np.sqrt(np.finfo(np.float64).max / (4 * 48))
    assignments, inertia = kmeans(points, 2, seed=1, restarts=8)
    assert np.isfinite(inertia)
    assert set(assignments[1:]) == {1 - assignments[0]}
    _assert_matches_oracle(points, 2, seed=1, restarts=8)


def test_kmeans_seeding_computes_each_distinct_pair_at_most_once(monkeypatch):
    rng = np.random.default_rng(30)
    distinct = rng.normal(size=(30, 50))
    points = distinct[np.concatenate([np.arange(30), rng.integers(0, 30, size=18)])]
    seeding, rows = [False], [0]
    sq_dist, init = clustering._sq_dist, clustering._kmeans_pp_init

    def counted_sq_dist(a, b, buf):
        rows[0] += len(a) if seeding[0] else 0
        return sq_dist(a, b, buf)

    def flagged_init(*args):
        seeding[0] = True
        try:
            return init(*args)
        finally:
            seeding[0] = False

    monkeypatch.setattr(clustering, "_sq_dist", counted_sq_dist)
    monkeypatch.setattr(clustering, "_kmeans_pp_init", flagged_init)
    assignments, inertia = kmeans(points, 8, seed=5, restarts=8)
    assert 0 < rows[0] <= 30 * 29 // 2
    monkeypatch.undo()
    want_assignments, want_inertia = oracle_kmeans(points, 8, 5, 8)
    assert np.array_equal(assignments, want_assignments) and inertia == want_inertia


def test_kmeans_matches_the_oracle_when_the_repair_moves_one_copy(monkeypatch):
    # 3 distinct rows and k = 5: seeding runs out of distinct points and
    # repeats one, so a cluster starts empty and the repair moves one copy of
    # a duplicated row (every point is then 0 from its centroid: point 0)
    rng = np.random.default_rng(3)
    points = rng.normal(size=(3, 5))[[0, 1, 2, 0, 1, 2, 0, 0]]
    full_rows = []
    sq_dist = clustering._sq_dist
    monkeypatch.setattr(clustering, "_sq_dist", lambda a, b, buf: full_rows.append(
        len(a) == len(points)) or sq_dist(a, b, buf))
    _assert_matches_oracle(points, 5, seed=2, restarts=4)
    # every restart's inertia takes one full-length distance; the rest repair
    assert sum(full_rows) > 4


def test_kmeans_matches_the_oracle_with_odd_width_rows():
    # with an odd d, the distinct rows gathered for a distance sit at other
    # buffer alignments than the same rows among all points
    rng = np.random.default_rng(11)
    distinct = rng.dirichlet(np.ones(3), size=(20, 333)).reshape(20, 999)
    points = distinct[rng.integers(0, 20, size=40)]
    _assert_matches_oracle(points, 6, seed=9, restarts=8)
