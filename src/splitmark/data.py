"""Synthetic classification data and federated partitioning.

Blob datasets place one Gaussian cluster per class, with class means drawn
on a hypersphere of fixed radius so class separation is controlled by the
spread/radius ratio. Partitioners split a dataset into per-client shards
three ways, each by per-class proportions after a seeded shuffle: IID
(equal proportions), Dirichlet label skew, and log-normal size imbalance
with class-stratified content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, RngStream, StreamLabel

PARTITION_MODES = ("iid", "dirichlet", "unbalanced")


@dataclass
class Dataset:
    """Feature matrix plus integer labels in [0, n_classes)."""

    inputs: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels length does not match inputs")
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if len(self) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("label outside [0, n_classes)")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.inputs[idx], self.labels[idx], self.n_classes)


def check_blobs(n_per_class: int, n_classes: int, input_dim: int, spread: float) -> None:
    """make_blobs' bounds on its sizes and spread."""
    if n_per_class < 1 or n_classes < 2 or input_dim < 1 or not 0 <= spread < math.inf:
        raise ValueError(
            f"need n_per_class >= 1, n_classes >= 2, input_dim >= 1, finite spread >= 0; "
            f"got {n_per_class}, {n_classes}, {input_dim}, {spread}"
        )


# Radius of the hypersphere that make_blobs puts the class means on.
RADIUS = 1.5


def make_blobs(
    rng: RngStream,
    n_per_class: int,
    n_classes: int,
    input_dim: int,
    spread: float,
) -> Dataset:
    """Gaussian blobs with class means on a RADIUS-scaled hypersphere.

    Each class mean is a random direction (normalized Gaussian) scaled by
    RADIUS; samples are mean + spread * N(0, I). Rows come back grouped by
    class, so index i * n_per_class + j is sample j of class i.
    """
    check_blobs(n_per_class, n_classes, input_dim, spread)
    means = rng.normal(n_classes * input_dim).reshape(n_classes, input_dim)
    means /= np.sqrt((means**2).sum(axis=1, keepdims=True))
    means *= RADIUS
    xs = []
    ys = []
    for c in range(n_classes):
        noise = rng.normal(n_per_class * input_dim).reshape(n_per_class, input_dim)
        xs.append(means[c] + spread * noise)
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    return Dataset(np.concatenate(xs), np.concatenate(ys), n_classes)


def check_holdout(n_per_class: int, n_test_per_class: int) -> None:
    """split_per_class' bound: a class keeps at least one training sample."""
    if not 0 <= n_test_per_class < n_per_class:
        raise ValueError(f"cannot hold out {n_test_per_class} of {n_per_class} samples")


def split_per_class(ds: Dataset, n_test_per_class: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split taking the tail of each class block."""
    train_idx = []
    test_idx = []
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        check_holdout(len(members), n_test_per_class)
        cut = len(members) - n_test_per_class
        train_idx.append(members[:cut])
        test_idx.append(members[cut:])
    return ds.subset(np.concatenate(train_idx)), ds.subset(np.concatenate(test_idx))


@dataclass(frozen=True)
class PartitionSpec:
    """How to split a dataset across clients.

    beta is the Dirichlet concentration (dirichlet mode), sigma the
    log-normal scale (unbalanced mode); each is ignored by other modes but
    bounded in all of them.
    """

    n_clients: int
    mode: str = "iid"
    beta: float = 0.5
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.mode not in PARTITION_MODES:
            raise ValueError(
                f"unknown partition mode {self.mode!r}, expected one of {PARTITION_MODES}"
            )
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be finite and positive")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")


_MAX_DRAWS = 100


def _allocate_by_proportion(
    class_members: np.ndarray, proportions: np.ndarray, totals: np.ndarray
) -> list[np.ndarray]:
    """Split one class's (pre-shuffled) indices by target proportions.

    Integer counts are floors of the targets; leftover samples go one at a
    time to the client with the smallest running shard (lowest index on
    ties), tracked through totals.
    """
    n_clients = len(proportions)
    counts = np.floor(proportions * len(class_members)).astype(np.int64)
    leftover = len(class_members) - int(counts.sum())
    for _ in range(leftover):
        target = int(np.argmin(totals + counts))
        counts[target] += 1
    out = []
    start = 0
    for i in range(n_clients):
        out.append(class_members[start : start + counts[i]])
        start += counts[i]
    totals += counts
    return out


def partition(ds: Dataset, spec: PartitionSpec) -> list[np.ndarray]:
    """Split a dataset into per-client index arrays.

    The returned arrays are pairwise disjoint and cover the dataset. Skew
    modes redraw (up to 100 times) when a draw leaves some client empty;
    a spec that cannot produce non-empty shards raises ValueError, and a
    draw whose proportions are not finite raises NumericalError.
    """
    if len(ds) < spec.n_clients:
        raise ValueError(
            f"cannot split {len(ds)} samples across {spec.n_clients} clients"
        )
    rng = RngStream(spec.seed, StreamLabel.DATA, (1,))
    class_members = [np.flatnonzero(ds.labels == c) for c in range(ds.n_classes)]
    for _ in range(_MAX_DRAWS):
        if spec.mode == "iid":
            # Stratified: every client receives an equal (+-1) cut of every
            # class, so shard label distributions match the global one.
            uniform = np.full(spec.n_clients, 1.0 / spec.n_clients)
            per_class_props = [uniform for _ in class_members]
        elif spec.mode == "dirichlet":
            per_class_props = [
                rng.dirichlet(spec.beta, spec.n_clients) for _ in class_members
            ]
        else:  # unbalanced: one shared size profile, class-stratified content
            weights = rng.lognormal(spec.sigma, spec.n_clients)
            shared = weights / weights.sum()
            per_class_props = [shared for _ in class_members]
        if not np.isfinite(per_class_props).all():
            raise NumericalError(f"partition draw gave non-finite proportions ({spec})")
        shards: list[list[np.ndarray]] = [[] for _ in range(spec.n_clients)]
        totals = np.zeros(spec.n_clients, dtype=np.int64)
        for members, props in zip(class_members, per_class_props):
            if len(members) == 0:
                continue
            shuffled = members[rng.permutation(len(members))]
            for i, part in enumerate(_allocate_by_proportion(shuffled, props, totals)):
                shards[i].append(part)
        result = [
            np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
            for parts in shards
        ]
        if all(len(r) > 0 for r in result):
            return result
    raise ValueError(
        f"partition spec {spec} kept producing empty shards after {_MAX_DRAWS} draws"
    )


def label_entropy(ds: Dataset, shard_idx: np.ndarray) -> float:
    """Shannon entropy (nats) of the label distribution within one shard."""
    labels = ds.labels[np.asarray(shard_idx, dtype=np.int64)]
    if len(labels) == 0:
        return 0.0
    counts = np.bincount(labels, minlength=ds.n_classes).astype(np.float64)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())
