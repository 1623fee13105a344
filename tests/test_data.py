"""Synthetic blobs and federated partitioners."""

import hashlib

import numpy as np
import pytest

from splitmark.data import (
    Dataset,
    PartitionSpec,
    label_entropy,
    make_blobs,
    partition,
    split_per_class,
)
from splitmark.linalg import NumericalError, RngStream, StreamLabel


def _blobs(seed=0, n=100, classes=4, dim=8, spread=0.5):
    return make_blobs(RngStream(seed, StreamLabel.DATA), n, classes, dim, spread)


def test_blobs_shapes_and_grouping():
    ds = _blobs(n=20, classes=3, dim=5)
    assert ds.inputs.shape == (60, 5)
    assert ds.labels.shape == (60,)
    assert np.array_equal(ds.labels, np.repeat([0, 1, 2], 20))


def test_blobs_zero_spread_collapses_to_means():
    ds = _blobs(n=10, classes=2, dim=4, spread=0.0)
    for c in range(2):
        rows = ds.inputs[ds.labels == c]
        assert np.allclose(rows, rows[0])


def test_blobs_same_seed_identical():
    a = _blobs(seed=3)
    b = _blobs(seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_linearly_separable_when_tight():
    # Tiny spread relative to the class separation: a least-squares linear
    # classifier (closed form, no iterative training) must reach 100%.
    ds = _blobs(n=50, classes=2, dim=6, spread=0.01)
    x = np.hstack([ds.inputs, np.ones((len(ds.inputs), 1))])
    targets = np.where(ds.labels == 0, -1.0, 1.0)
    w, *_ = np.linalg.lstsq(x, targets, rcond=None)
    preds = (x @ w > 0).astype(int)
    assert np.array_equal(preds, ds.labels)


def test_blobs_validation():
    rng = RngStream(0, StreamLabel.DATA)
    with pytest.raises(ValueError):
        make_blobs(rng, 10, 1, 4, 0.5)
    with pytest.raises(ValueError):
        make_blobs(rng, 10, 2, 4, -0.1)


def test_split_per_class_counts_and_disjointness():
    ds = _blobs(n=30, classes=3)
    train, test = split_per_class(ds, 5)
    assert len(test.labels) == 15
    assert len(train.labels) == 75
    for c in range(3):
        assert (test.labels == c).sum() == 5
    # no shared rows
    seen = {tuple(row) for row in train.inputs}
    assert all(tuple(row) not in seen for row in test.inputs)


def test_single_client_gets_everything():
    ds = _blobs()
    shards = partition(ds, PartitionSpec(1, "iid", seed=0))
    assert len(shards) == 1
    assert np.array_equal(np.sort(shards[0]), np.arange(len(ds.labels)))


def test_iid_partition_is_balanced():
    # 1000 samples over 10 clients: shard size 100, per-class counts
    # within +-20% of the 25-per-class ideal.
    ds = _blobs(n=250, classes=4)
    shards = partition(ds, PartitionSpec(10, "iid", seed=1))
    for idx in shards:
        assert len(idx) == 100
        for c in range(4):
            count = (ds.labels[idx] == c).sum()
            assert 20 <= count <= 30


def test_partition_disjoint_cover_every_mode():
    ds = _blobs(n=100, classes=4)
    for mode, kw in (
        ("iid", {}),
        ("dirichlet", {"beta": 0.5}),
        ("unbalanced", {"sigma": 1.0}),
    ):
        for seed in range(3):
            shards = partition(ds, PartitionSpec(7, mode, seed=seed, **kw))
            allidx = np.concatenate(shards)
            assert len(allidx) == len(ds.labels)
            assert len(np.unique(allidx)) == len(ds.labels)


def test_dirichlet_low_beta_concentrates():
    # At beta=0.1 with 10 clients / 10 classes, the fixed-seed draw puts
    # >= 80% of some client's samples into at most 2 classes.
    ds = make_blobs(RngStream(0, StreamLabel.DATA), 100, 10, 4, 0.5)
    shards = partition(ds, PartitionSpec(10, "dirichlet", beta=0.1, seed=0))
    found = False
    for idx in shards:
        if len(idx) == 0:
            continue
        counts = np.bincount(ds.labels[idx], minlength=10)
        top2 = np.sort(counts)[-2:].sum()
        if top2 >= 0.8 * len(idx):
            found = True
    assert found


def test_entropy_ordering_over_seeds():
    # Average per-client label entropy: beta=0.1 < beta=1.0 < iid.
    ds = _blobs(n=100, classes=4)

    def mean_entropy(mode, **kw):
        vals = []
        for seed in range(20):
            shards = partition(ds, PartitionSpec(8, mode, seed=seed, **kw))
            vals.extend(label_entropy(ds, idx) for idx in shards if len(idx))
        return float(np.mean(vals))

    sharp = mean_entropy("dirichlet", beta=0.1)
    middle = mean_entropy("dirichlet", beta=1.0)
    flat = mean_entropy("iid")
    assert sharp < middle < flat


def test_unbalanced_sizes_vary():
    ds = _blobs(n=250, classes=4)
    shards = partition(ds, PartitionSpec(10, "unbalanced", sigma=1.0, seed=2))
    sizes = sorted(len(idx) for idx in shards)
    assert sizes[0] < sizes[-1]
    assert sum(sizes) == len(ds.labels)


def test_unbalanced_overflowing_draw_is_a_numerical_error():
    # exp(sigma * z) overflows for z > 0.71, and inf / inf proportions must
    # fail instead of sending the leftover loop round about 1e19 times
    ds = _blobs(n=20, classes=2, dim=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            partition(ds, PartitionSpec(2, "unbalanced", sigma=1000.0))


def test_partition_same_seed_identical():
    ds = _blobs()
    a = partition(ds, PartitionSpec(5, "dirichlet", beta=0.3, seed=9))
    b = partition(ds, PartitionSpec(5, "dirichlet", beta=0.3, seed=9))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("iid", "4fab575cfc8b2f411f9304a70e5be4f930aea502b93a3796697a07f3272efde9"),
        ("dirichlet", "911180e1baa3847c4a62a4cf8df3f4f8318b8c965a4c64f630db6e217b398b92"),
        ("unbalanced", "37d3c9add3b325749c896ef048abde7ee3ab5de21c3f174571fc38c4838cfd3e"),
    ],
)
def test_partition_output_is_frozen(mode, digest):
    # sha256 over every shard's int64 indices, for seeds 0-5 and 1 / 3 / 7 /
    # 10 clients: a rewrite of partition must reproduce its exact output.
    ds = _blobs(n=30, classes=4, dim=3)
    h = hashlib.sha256()
    for seed in range(6):
        for n_clients in (1, 3, 7, 10):
            for idx in partition(ds, PartitionSpec(n_clients, mode, seed=seed)):
                h.update(idx.astype(np.int64).tobytes() + b"|")
    assert h.hexdigest() == digest


def test_subset_makes_copies():
    ds = _blobs(n=10, classes=2, dim=3)
    sub = ds.subset(np.array([0, 1]))
    sub.inputs[0, 0] = 123.0
    assert ds.inputs[0, 0] != 123.0


def test_dataset_rejects_labels_outside_the_classes():
    # the one label range check: the loss indexes logits by label unchecked
    x = np.zeros((2, 1))
    for labels in ([0, -1], np.array([-1, 0], dtype=np.int32), [2, 3], [5, 0]):
        with pytest.raises(ValueError, match="label outside"):
            Dataset(x, np.asarray(labels), 3)
    assert len(Dataset(x, np.array([0, 2]), 3)) == 2
