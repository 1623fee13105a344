"""Assertions and builders shared by the unit suites."""

import numpy as np

from splitmark.nn import Segment

# Settings that took one value in every run and are now library constants;
# a config that still sets one is rejected like any unknown key.
RETIRED_KEYS = (
    "data.radius",
    "optimizer.weight_decay",
    "embed.epsilon",
    "detector.fraction",
    "detector.k_nn",
    "detector.quantile",
    "calibrate.keys",
)


def segments_equal(a, b) -> bool:
    """Exact (bitwise) parameter equality between two segments."""
    return a.specs() == b.specs() and np.array_equal(a.params, b.params)


def segment_of(*layers) -> Segment:
    """A segment holding per-layer (spec, w, b) values, copied into its
    flat buffer in the params layout."""
    for spec, w, b in layers:
        assert np.shape(w) == (spec.in_dim, spec.out_dim) and np.shape(b) == (spec.out_dim,)
    params = np.concatenate([np.concatenate([np.ravel(w), b]) for _, w, b in layers])
    return Segment([spec for spec, _, _ in layers], params.astype(np.float64))


def draw_labels(rng, n_classes: int, n: int) -> np.ndarray:
    """n class labels in [0, n_classes), from an RngStream's next n
    uniform doubles."""
    return (rng.uniform(n) * n_classes).astype(np.int64)
