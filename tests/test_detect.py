"""kNN outlier detection of tampered gradients at the split point."""

import math

import numpy as np
import pytest

from splitmark.data import make_blobs
from splitmark.detect import (
    MEMORY_ROUNDS,
    DetectorState,
    build_reference,
    is_alert,
    score_round,
)
from splitmark.linalg import RngStream, StreamLabel
from splitmark.nn import LayerSpec, SplitSpec


def _spec(in_dim=6, width=10, classes=3):
    return SplitSpec(
        bottom=(LayerSpec(in_dim, width, "relu"),),
        middle=(LayerSpec(width, width, "relu"),),
        head=(LayerSpec(width, classes, "identity"),),
    )


def _shard(seed=0, per_class=40):
    rng = RngStream(seed, StreamLabel.DATA, (3,))
    return make_blobs(rng, per_class, 3, 6, 0.4, 1.5)


def _state(seed=0):
    return build_reference(
        _shard(seed), _spec(), RngStream(seed, StreamLabel.MODEL_INIT, (5,))
    )


def test_reference_rows_score_under_the_quantile_budget():
    # Scoring the reference against itself includes each row's own zero
    # distance, so at most the calibration tail can exceed the threshold.
    state = _state()
    m = state.reference.shape[0]
    count = score_round(state, state.reference)
    assert count <= math.ceil((1.0 - state.quantile) * m)


def test_scaled_gradients_all_flagged():
    state = _state()
    count = score_round(state, state.reference * 1000.0)
    assert count == state.reference.shape[0]


def test_scaled_down_rows_within_budget():
    # Live gradients shrink as training converges, to 30x-1000x below a
    # briefly trained shadow's; scaled-down honest rows are not outliers.
    for factor in (0.01, 0.001):
        state = _state()
        m = state.reference.shape[0]
        count = score_round(state, state.reference * factor)
        assert count <= math.ceil((1.0 - state.quantile) * m)


def _rotated(state, scale):
    # Honest traffic from a server segment the shadow never saw: the same
    # gradient geometry in other directions.
    d = state.reference.shape[1]
    rng = RngStream(7, StreamLabel.DATA, (4,))
    rotation, _ = np.linalg.qr(rng.normal(d * d).reshape(d, d))
    return state.reference @ rotation * scale


def test_rotated_honest_traffic_within_budget():
    # Novel to the shadow, but neither overlong nor sharing a direction
    # beyond the calibration tail of each of the two kinds.
    state = _state()
    budget = math.ceil((1.0 - state.quantile) * state.reference.shape[0])
    assert score_round(state, _rotated(state, 3.0)) <= 2 * budget


def test_shared_injection_flagged():
    # One term, twice as long as a typical row, added to every row of the
    # same honest traffic.
    state = _state()
    live = _rotated(state, 3.0)
    m, d = live.shape
    term = np.ones(d) * 2.0 / math.sqrt(d) * np.sqrt((live**2).sum(axis=1)).mean()
    assert score_round(state, live + term) > m // 2


def test_recent_rounds_extend_the_reference():
    # A misclassified sample seen in both local epochs gives two long,
    # nearly equal rows. They are novel and share a direction, so they count
    # on first sight, and not while that round is among the last
    # MEMORY_ROUNDS.
    state = _state()
    live = _rotated(state, 0.01)
    live[0] = live[0] * 5000.0
    live[1] = live[0] * 1.01
    assert score_round(state, live) == 2
    assert score_round(state, live) == 0
    for _ in range(MEMORY_ROUNDS):
        score_round(state, state.reference)
    assert score_round(state, live) == 2


def test_state_rebuilds_from_its_calibration():
    state = _state()
    fresh = DetectorState(state.reference, state.k_nn, state.quantile)
    assert fresh.threshold == state.threshold
    assert fresh.relative_threshold == state.relative_threshold
    assert fresh.coherence_threshold == state.coherence_threshold
    assert 0.0 < fresh.relative_threshold <= 1.0
    rows = state.reference * 3.0
    assert score_round(fresh, rows) == score_round(state, rows)


def test_shifted_rows_flagged():
    state = _state()
    spread = np.abs(state.reference).max()
    rows = state.reference[:10] + 50.0 * spread
    assert score_round(state, rows) == 10


def test_build_reference_deterministic():
    a = _state(seed=4)
    b = _state(seed=4)
    assert np.array_equal(a.reference, b.reference)
    assert a.threshold == b.threshold


def test_threshold_positive_and_state_shape():
    state = _state()
    assert state.threshold > 0.0
    assert state.reference.ndim == 2
    assert state.reference.shape[1] == _spec().split_dim
    assert state.k_nn == 5 and state.recent == []


def test_build_reference_validation():
    shard, spec = _shard(), _spec()
    rng = RngStream(0, StreamLabel.MODEL_INIT, (5,))
    with pytest.raises(ValueError):
        # one epoch on a single row cannot feed a 5-NN calibration
        build_reference(shard.subset(np.array([0])), spec, rng, epochs=1)
    with pytest.raises(ValueError, match="head"):
        # 3-class shard on a 2-output head
        build_reference(shard, _spec(classes=2), rng)


def test_score_round_rejects_bad_shapes():
    state = _state()
    with pytest.raises(ValueError):
        score_round(state, state.reference[:, :-1])
    with pytest.raises(ValueError):
        score_round(state, state.reference[0])


def test_is_alert_majority_rule():
    assert is_alert(3, 5)
    assert not is_alert(2, 5)
    assert not is_alert(3, 6)
    assert is_alert(4, 6)
    assert not is_alert(0, 0)
