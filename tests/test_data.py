import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedme import data
from fedme.data import Dataset


def _toy(n=120, m=4, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.integers(0, m, size=n), m)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)


def test_generate_synthetic_shape_and_balance():
    ds = data.generate_synthetic(4, 16, 50, 3.0, 1.5, 0)
    assert ds.n == 200 and ds.dim == 16
    assert np.all(np.bincount(ds.labels) == 50)


def test_generate_synthetic_deterministic():
    a = data.generate_synthetic(3, 5, 10, 2.0, 1.0, 42)
    b = data.generate_synthetic(3, 5, 10, 2.0, 1.0, 42)
    assert np.array_equal(a.features, b.features)
    c = data.generate_synthetic(3, 5, 10, 2.0, 1.0, 43)
    assert not np.array_equal(a.features, c.features)


def test_generate_synthetic_class_means_at_separation():
    ds = data.generate_synthetic(3, 8, 4000, 5.0, 0.05, 7)
    for c in range(3):
        mean = ds.features[ds.labels == c].mean(axis=0)
        assert np.linalg.norm(mean) == pytest.approx(5.0, abs=0.05)


def test_generate_synthetic_separable_by_linear_probe():
    # least-squares fit of one-hot targets on [features, 1]; argmax classifies
    ds = data.generate_synthetic(4, 16, 100, 8.0, 0.5, 3)
    design = np.hstack([ds.features, np.ones((ds.n, 1))])
    weights, *_ = np.linalg.lstsq(design, np.eye(4)[ds.labels], rcond=None)
    accuracy = np.mean(np.argmax(design @ weights, axis=1) == ds.labels)
    assert accuracy >= 0.99


def test_generate_synthetic_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        data.generate_synthetic(1, 4, 10, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        data.generate_synthetic(2, 1, 10, 1.0, 1.0, 0)


def test_partition_spec_validation():
    ds = _toy(60, 4)

    def partition(k, alpha_label=0.5, alpha_size=10.0):
        return data.dirichlet_partition(ds, k, alpha_label=alpha_label,
                                        alpha_size=alpha_size, seed=0)

    with pytest.raises(ValueError, match="need at least 2 clients, got 1"):
        partition(1)
    alphas = "Dirichlet alphas must be finite and strictly positive"
    with pytest.raises(ValueError, match=alphas):
        partition(3, alpha_label=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=alphas):
            partition(3, alpha_label=bad)
        with pytest.raises(ValueError, match=alphas):
            partition(3, alpha_size=bad)
    assert len(partition(3, alpha_label=None, alpha_size=0.0)) == 3  # unused under IID


@pytest.mark.parametrize("iid", [False, True])
def test_partition_is_exact(iid):
    ds = _toy(200, 4)
    parts = data.dirichlet_partition(ds, 7, alpha_label=None if iid else 0.5,
                                     alpha_size=10.0, seed=5)
    assert len(parts) == 7
    merged = np.sort(np.concatenate(parts))
    assert np.array_equal(merged, np.arange(200))
    for part in parts:
        assert len(part) >= ds.num_classes


@settings(max_examples=100, deadline=None)
@given(data_=st.data(), n=st.integers(4, 300), m=st.integers(2, 6),
       iid=st.booleans(), alpha_label=st.floats(0.01, 100.0),
       alpha_size=st.floats(0.01, 100.0), seed=st.integers(0, 2 ** 32 - 1))
def test_partition_uses_every_row_once_and_gives_each_client_num_classes(
        data_, n, m, iid, alpha_label, alpha_size, seed):
    n = max(n, 2 * m)
    # up to the feasibility limit: n rows cover k clients x m classes
    k = data_.draw(st.integers(2, n // m), label="num_clients")
    labels = np.random.default_rng(seed).integers(0, m, size=n)
    ds = Dataset(np.zeros((n, 1)), labels, m)
    parts = data.dirichlet_partition(ds, k, alpha_label=None if iid else alpha_label,
                                     alpha_size=alpha_size, seed=seed)
    assert len(parts) == k
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n))
    assert min(len(part) for part in parts) >= m


def _bucket_partition(dataset, k, *, alpha_label, alpha_size, seed):
    """The per-client, per-class bucket-list partition that the owner-vector
    `dirichlet_partition` replaced, kept as its oracle; None means IID."""
    n, m = dataset.n, dataset.num_classes
    rng = np.random.default_rng(seed)
    if alpha_label is None:
        perm = rng.permutation(n)
        quotas = data._largest_remainder(np.ones(k), n)
        return [np.sort(part) for part in np.split(perm, np.cumsum(quotas)[:-1])]
    quotas = data._largest_remainder(rng.dirichlet(np.full(k, alpha_size)), n)
    while quotas.min() < m:
        quotas[int(np.argmin(quotas))] += 1
        quotas[int(np.argmax(quotas))] -= 1
    buckets = [[[] for _ in range(m)] for _ in range(k)]
    for c in range(m):
        idx_c = np.flatnonzero(dataset.labels == c)
        idx_c = idx_c[rng.permutation(len(idx_c))]
        counts = data._largest_remainder(
            rng.dirichlet(np.full(k, alpha_label)), len(idx_c))
        for i, part in enumerate(np.split(idx_c, np.cumsum(counts)[:-1])):
            buckets[i][c] = list(part)
    sizes = np.array([sum(len(b) for b in bucket) for bucket in buckets])
    while True:
        excess = sizes - quotas
        donor = int(np.argmax(excess))
        if excess[donor] <= 0:
            break
        receiver = int(np.argmin(excess))
        cls = int(np.argmax([len(b) for b in buckets[donor]]))
        move = int(min(excess[donor], -excess[receiver], len(buckets[donor][cls])))
        for _ in range(move):
            buckets[receiver][cls].append(buckets[donor][cls].pop())
        sizes[donor] -= move
        sizes[receiver] += move
    return [np.sort(np.array([i for b in bucket for i in b], dtype=np.int64))
            for bucket in buckets]


def _assert_same_parts(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(max_examples=300, deadline=None)
@given(data_=st.data(), n=st.integers(4, 400), m=st.integers(2, 6),
       iid=st.booleans(), alpha_label=st.floats(0.01, 100.0),
       alpha_size=st.floats(0.01, 100.0), empty_class=st.booleans(),
       sorted_labels=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_partition_matches_the_bucket_list_oracle(
        data_, n, m, iid, alpha_label, alpha_size, empty_class, sorted_labels,
        seed):
    n = max(n, 2 * m)
    k = data_.draw(st.integers(2, n // m), label="num_clients")
    labels = np.random.default_rng(seed).integers(0, m, size=n)
    if empty_class:
        labels[labels == m - 1] = 0
    if sorted_labels:
        labels = np.sort(labels)
    ds = Dataset(np.zeros((n, 1)), labels, m)
    spec = dict(alpha_label=None if iid else alpha_label, alpha_size=alpha_size,
                seed=seed)
    _assert_same_parts(data.dirichlet_partition(ds, k, **spec),
                       _bucket_partition(ds, k, **spec))


def test_partition_matches_the_oracle_on_the_desk_scale_federation():
    # the criterion-8 shape: 4 classes x 375 rows, 100 unlabeled, 20 clients
    for seed in range(20):
        ds = data.generate_synthetic(4, 16, 375, 3.0, 1.5, seed)
        _, rest = data.extract_unlabeled(ds, 100, seed)
        spec = dict(alpha_label=0.5, alpha_size=10.0, seed=seed)
        _assert_same_parts(data.dirichlet_partition(rest, 20, **spec),
                           _bucket_partition(rest, 20, **spec))


def test_partition_iid_sizes_balanced():
    ds = _toy(103, 3)
    parts = data.dirichlet_partition(ds, 10, alpha_label=None, alpha_size=10.0, seed=1)
    sizes = [len(p) for p in parts]
    assert max(sizes) - min(sizes) <= 1


def test_partition_deterministic():
    ds = _toy(150, 4)
    a, b = (data.dirichlet_partition(ds, 5, alpha_label=0.5, alpha_size=10.0, seed=9)
            for _ in range(2))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_partition_infeasible():
    ds = _toy(10, 4)
    with pytest.raises(ValueError):
        data.dirichlet_partition(ds, 5, alpha_label=0.5, alpha_size=10.0, seed=0)


def test_label_skew_bounds_and_uniform_case():
    labels = [np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])]
    assert data.label_skew(labels, 2) == pytest.approx(0.0)
    disjoint = [np.zeros(10, dtype=int), np.ones(10, dtype=int)]
    assert data.label_skew(disjoint, 2) == pytest.approx(0.5)


def test_label_skew_monotone_in_alpha():
    ds = _toy(600, 4, seed=2)
    means = {}
    for alpha in (0.1, 0.5, 5.0, None):
        skews = []
        for seed in range(20):
            parts = data.dirichlet_partition(ds, 8, alpha_label=alpha,
                                             alpha_size=10.0, seed=seed)
            skews.append(data.label_skew([ds.labels[p] for p in parts], 4))
        means[alpha] = np.mean(skews)
    assert means[0.1] > means[0.5] > means[5.0] > means[None]


def test_split_shard_partitions_and_ratio():
    ds = _toy(100, 4)
    shard = data.split_shard(ds, np.arange(50), seed=8)
    assert (shard.train.n, shard.validation.n, shard.test.n) == (30, 10, 10)
    got = np.sort(np.concatenate([
        shard.train.features[:, 0], shard.validation.features[:, 0],
        shard.test.features[:, 0]]))
    assert np.array_equal(got, np.sort(ds.features[:50, 0]))


def _assert_views_of_stack(shard):
    splits = (shard.train, shard.validation, shard.test)
    assert shard.ends == (0, shard.train.n, shard.train.n + shard.validation.n,
                          len(shard.labels))
    for split, a, b in zip(splits, shard.ends, shard.ends[1:]):
        assert np.shares_memory(split.features, shard.features)
        assert np.shares_memory(split.labels, shard.labels)
        assert np.array_equal(split.features, shard.features[a:b])
        assert np.array_equal(split.labels, shard.labels[a:b])


def test_split_shard_splits_are_views_of_one_stack():
    ds = _toy(100, 4)
    shard = data.split_shard(ds, np.arange(7, 60), seed=8)
    _assert_views_of_stack(shard)
    assert shard.ends == (0, 32, 43, 53)
    assert np.array_equal(np.sort(shard.features[:, 0]), np.sort(ds.features[7:60, 0]))


@settings(max_examples=100, deadline=None)
@given(data_=st.data(), n=st.integers(4, 60), d=st.integers(1, 4),
       m=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_split_shard_gathers_the_seeded_permutation_into_a_read_only_block(
        data_, n, d, m, seed):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(n, d)), rng.integers(0, m, size=n), m)
    indices = np.array(data_.draw(
        st.lists(st.integers(0, n - 1), min_size=4, max_size=n, unique=True),
        label="indices"))
    split_seed = data_.draw(st.integers(0, 2 ** 32 - 1), label="split_seed")
    shard = data.split_shard(ds, indices, seed=split_seed)
    rows = indices[np.random.default_rng(split_seed).permutation(len(indices))]
    assert np.array_equal(shard.features, ds.features[rows])
    assert np.array_equal(shard.labels, ds.labels[rows])
    sizes = data._largest_remainder(np.array([0.6, 0.2, 0.2]), len(indices))
    assert shard.ends == (0, *np.cumsum(sizes).tolist())
    _assert_views_of_stack(shard)
    for split in (shard.train, shard.validation, shard.test):
        for block in (split.features, split.labels):
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0
    assert ds.features.flags.writeable and ds.labels.flags.writeable


def test_client_shard_checks_its_ends_against_its_rows():
    rng = np.random.default_rng(2)
    features, labels = rng.normal(size=(11, 3)), rng.integers(0, 2, size=11)
    shard = data.ClientShard(features, labels, (0, 5, 7, 11), 2)
    _assert_views_of_stack(shard)
    assert shard.ends == (0, 5, 7, 11) and len(shard.labels) == 11
    for ends in [(1, 5, 7, 11), (0, 5, 7, 10), (0, 5, 7, 12)]:
        with pytest.raises(ValueError, match="do not run from 0"):
            data.ClientShard(features, labels, ends, 2)
    with pytest.raises(ValueError, match="do not run from 0"):
        data.ClientShard(features[:10], labels, (0, 5, 7, 11), 2)


def test_split_shard_rounding_keeps_total():
    ds = _toy(100, 4)
    shard = data.split_shard(ds, np.arange(23), seed=1)
    assert len(shard.labels) == 23
    assert min(shard.train.n, shard.validation.n, shard.test.n) >= 1


def test_split_shard_rejects_empty_piece():
    ds = _toy(100, 4)
    with pytest.raises(ValueError):
        data.split_shard(ds, np.arange(2), seed=0)


def test_extract_unlabeled():
    ds = _toy(80, 4)
    pool, rest = data.extract_unlabeled(ds, 30, seed=4)
    assert pool.shape == (30, 3) and pool.dtype == np.float64 and rest.n == 50
    combined = np.sort(np.concatenate([pool[:, 0], rest.features[:, 0]]))
    assert np.array_equal(combined, np.sort(ds.features[:, 0]))
    with pytest.raises(ValueError):
        data.extract_unlabeled(ds, 80, seed=4)
