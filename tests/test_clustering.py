import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedme import clustering
from fedme.clustering import cluster_count, distinct_rows, kmeans
from reference import best_partition_inertia, oracle_kmeans, relabeled


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


def _distinct_rows_both_ways(points):
    """`distinct_rows` of the points with `kmeans`' keys and with one key
    that every row shares; the two must agree."""
    bits = points.view(np.int64)
    first, inverse = distinct_rows(bits, np.add.reduce(bits, axis=1).tolist())
    collided = distinct_rows(bits, [0] * len(points))
    assert np.array_equal(first, collided[0]) and np.array_equal(inverse, collided[1])
    return first, inverse


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_distinct_rows_matches_rows_by_their_bits(dim, data):
    first, inverse = _distinct_rows_both_ways(np.array([[0.0], [-0.0], [np.nan], [np.nan]]))
    assert first.tolist() == [0, 1, 2] and inverse.tolist() == [0, 1, 2, 2]
    n = data.draw(st.integers(1, 12))
    values = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.1, 1.0, np.inf, np.nan]),
                                min_size=n * dim, max_size=n * dim))
    points = np.array(values).reshape(n, dim)
    first, inverse = _distinct_rows_both_ways(points)
    rows = [row.tobytes() for row in points]
    assert first.tolist() == sorted({rows.index(row) for row in rows})
    assert [first[q] for q in inverse] == [rows.index(row) for row in rows]
    assert inverse[first].tolist() == list(range(len(first)))


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
def test_kmeans_matches_the_gram_form_oracle_bit_for_bit(
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


_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("points, k, seed, restarts", [
    # a corner's two nearest corners tie, as do opposite corners' centroids
    pytest.param(_SQUARE, 2, 0, 4, id="near-tie"),
    # three distinct rows for five clusters: seeding repeats a point
    pytest.param(np.random.default_rng(3).normal(size=(3, 5))[[0, 1, 2, 0, 1, 2, 0, 0]],
                 5, 2, 4, id="repair"),
    # rows 1e-13 apart
    pytest.param(np.random.default_rng(1).normal(size=(1, 5))
                 + 1e-13 * np.random.default_rng(2).normal(size=(12, 5)),
                 3, 0, 2, id="shift-jitter"),
    # three copies of a row whose mean is an ulp off the row
    pytest.param(np.array([[0.1] * 3] * 3 + [[5.0] * 3]), 2, 0, 1, id="shift-one-ulp"),
    # left-right and top-bottom halves: other members, the same inertia
    pytest.param(_SQUARE, 2, 1, 4, id="overlapping-inertias"),
    # three rows 1e-13 apart at 1e80: repairing the empty clusters one by
    # one, as the oracle does, empties a later cluster and repairs it in turn
    pytest.param(_points("jitter", 3, 2, np.random.default_rng(2321961540)) * 10.0 ** 80,
                 3, 3505749933, 5, id="repair-cascade"),
    # rows 1e-13 apart at 1e50: every restart puts all points in cluster 0,
    # and rounding gives each a lower inertia than the one before; the
    # first restart's stays
    pytest.param(_points("jitter", 39, 2, np.random.default_rng(429565484)) * 10.0 ** 50,
                 2, 1334913322, 3, id="same-partition"),
])
def test_kmeans_fallbacks_match_the_oracle(points, k, seed, restarts):
    _assert_matches_oracle(points, k, seed, restarts)


@pytest.mark.parametrize("points, k, want", [
    # eight copies of 0.1, whose float mean is an ulp off 0.1; weight 1 is exact
    pytest.param(np.full((8, 3), 0.1), 4, [0] * 8, id="one-row"),
    # three rows and their copies, one cluster each
    pytest.param(np.random.default_rng(3).normal(size=(3, 5))[[0, 1, 2, 0, 1, 2, 1, 1]],
                 3, [0, 1, 2, 0, 1, 2, 1, 1], id="three-rows"),
])
def test_kmeans_puts_copies_in_one_cluster_at_zero_inertia(points, k, want):
    # copies share their row's distances, and a cluster of copies has
    # weight 1 on its row, whose distance to itself is G_xx - 2 G_xx + G_xx
    for seed in range(10):
        assignments, inertia = kmeans(points, k, seed, restarts=1 + seed % 3)
        assert relabeled(assignments) == want and inertia == 0.0


def test_kmeans_stops_on_a_cycle_between_rows_an_ulp_apart(monkeypatch):
    # 1 and the float below it are 0 apart in the Gram form, so one-row
    # centroids tie them and both go to cluster 0. The repair's one-row
    # cluster and the two-row mean split them, and the next step's one-row
    # centroids tie them again
    points = np.array([[1.0], [np.nextafter(1.0, 0.0)]])
    trail, distances = [], clustering._distances

    def recorded(gram, weights):
        dist = distances(gram, weights)
        if len(weights) == 2:  # Lloyd's, not a seed's
            trail.append(dist.argmin(axis=1).tolist())
        return dist

    monkeypatch.setattr(clustering, "_distances", recorded)
    assert kmeans(points, 2, seed=0, restarts=1)[0].tolist() == [0, 0]
    assert trail == [[0, 0], [0, 1], [0, 0]]
    monkeypatch.undo()
    _assert_matches_oracle(points, 2, seed=0, restarts=1)


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
    # k runs up to n and restarts pick the same points again, so seeding
    # runs out of distinct points and repairs fill the clusters it leaves empty
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


def test_kmeans_matches_the_oracle_when_the_repair_moves_one_copy():
    # 3 distinct rows and k = 5: seeding runs out of distinct points and
    # repeats one, so a cluster starts empty and the repair moves one copy of
    # a duplicated row (every point is then 0 from its centroid: point 0)
    rng = np.random.default_rng(3)
    points = rng.normal(size=(3, 5))[[0, 1, 2, 0, 1, 2, 0, 0]]
    _assert_matches_oracle(points, 5, seed=2, restarts=4)


def test_kmeans_matches_the_oracle_with_odd_width_rows():
    # with an odd d, a row's words sit at other alignments than with an even d
    rng = np.random.default_rng(11)
    distinct = rng.dirichlet(np.ones(3), size=(20, 333)).reshape(20, 999)
    points = distinct[rng.integers(0, 20, size=40)]
    _assert_matches_oracle(points, 6, seed=9, restarts=8)
