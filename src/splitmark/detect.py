"""Client-side anomaly detection on the gradients returned by the server.

Before federated training starts, the client trains a small shadow copy of
the full model on a fraction of its own shard and records the per-sample
gradients that appear at the split point. Those rows are the client's
picture of honest gradient geometry. Honest gradients shrink as the loss
falls, so each reference row r stands for the whole segment [0, r], and a
received row is novel when its mean distance to the K_NN nearest segments
exceeds the calibrated threshold, both in absolute terms and relative to
the row's own norm. Rows scaled down from honest ones are never novel.

The shadow cannot know the server's segment, so honest live gradients
point elsewhere than the shadow's and, for confidently misclassified
samples, grow longer than any shadow row. Scored against the shadow alone,
clean desk traffic is 12-16 % novel against a 1 % design budget. Two
things keep honest novelty from counting:

- the rows received in the previous MEMORY_ROUNDS rounds join the
  reference, so traffic that recurs (the same samples' gradients round
  after round) is not novel twice;
- a novel row counts as an outlier only if it is one of two kinds of
  tampering. Overlong: its direction is as familiar as honest rows are to
  each other (mean distance to the K_NN nearest rays through the same
  rows within relative_threshold of its norm) and only its length is not,
  as when a server scales honest gradients up. Shared: its cosine with the
  sum of the round's other rows exceeds what honest rows show
  (coherence_threshold, calibrated on the reference), as when a server adds
  one term to every sample's gradient; a watermark gradient points into the
  same cone for every sample, because the key bits fix the sign of each
  key column's coefficient. Honest per-sample gradients point by each
  sample's own error.

All three thresholds are derived from the reference with K_NN and
QUANTILE, so a state is rebuilt from its reference alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset
from .linalg import RngStream
from .nn import SplitSpec, init_split_model, sgd_step

if TYPE_CHECKING:
    from .protocol import ProtocolConfig

__all__ = [
    "MEMORY_ROUNDS",
    "REFERENCE_FRACTION",
    "K_NN",
    "QUANTILE",
    "DetectorState",
    "build_reference",
    "score_round",
    "is_alert",
]

# Rounds of received traffic kept as extra reference for the next round.
MEMORY_ROUNDS = 2

# Share of the detector client's shard that shadow training runs over.
REFERENCE_FRACTION = 0.25

# Neighbours in each score, and the reference quantile that sets the thresholds.
K_NN = 5
QUANTILE = 0.99


@dataclass
class DetectorState:
    """Calibrated reference cloud, thresholds and recent traffic.

    Each threshold is the QUANTILE of a statistic of the reference rows
    against the other reference rows: threshold of the segment score,
    relative_threshold of the segment score over the row's norm,
    coherence_threshold of the cosine with the sum of the other rows.
    """

    reference: np.ndarray
    recent: list[np.ndarray] = field(default_factory=list)
    threshold: float = field(init=False)
    relative_threshold: float = field(init=False)
    coherence_threshold: float = field(init=False)

    def __post_init__(self):
        scores = _knn_distances(self.reference, self.reference, K_NN, skip_self=True)
        self.threshold = float(np.quantile(scores, QUANTILE))
        norms = np.sqrt((self.reference**2).sum(axis=1))
        ratios = np.divide(scores, norms, out=np.zeros_like(scores), where=norms > 0.0)
        self.relative_threshold = float(np.quantile(ratios, QUANTILE))
        self.coherence_threshold = float(
            np.quantile(_coherence(self.reference), QUANTILE)
        )


# Rows scored per block. Against the reference plus two rounds of traffic
# a whole round's distance matrix would be 400 x 900 floats per temporary,
# which lifts a desk run's peak memory by about 10 MB.
_BLOCK = 64


def _knn_distances(
    rows: np.ndarray,
    anchors: np.ndarray,
    k: int,
    skip_self: bool = False,
    rays: bool = False,
) -> np.ndarray:
    """Mean distance from each row to its k nearest segments [0, a], or
    with rays to its k nearest rays {s a : s >= 0}.

    With skip_self, rows are the anchors themselves and each row's own
    segment is left out.
    """
    aa = (anchors**2).sum(axis=1)
    inv_aa = np.divide(1.0, aa, out=np.zeros_like(aa), where=aa > 0.0)
    out = np.empty(len(rows))
    for start in range(0, len(rows), _BLOCK):
        x = rows[start : start + _BLOCK]
        dots = x @ anchors.T
        # The nearest point of ray j is t a_j with t = max(x.a_j / |a_j|^2, 0),
        # at squared distance |x|^2 - t x.a_j; on segment j, t is also capped
        # at 1 and the squared distance is |x|^2 - 2 t x.a_j + t^2 |a_j|^2.
        t = dots * inv_aa
        np.maximum(t, 0.0, out=t)
        if rays:
            d2 = t * dots
            np.negative(d2, out=d2)
        else:
            np.minimum(t, 1.0, out=t)
            d2 = t * aa
            d2 -= dots
            d2 -= dots
            d2 *= t
        d2 += (x**2).sum(axis=1)[:, None]
        if skip_self:
            idx = np.arange(len(x))
            d2[idx, start + idx] = np.inf
        nearest = np.partition(d2, k - 1, axis=1)[:, :k]
        out[start : start + len(x)] = np.sqrt(np.maximum(nearest, 0.0)).mean(axis=1)
    return out


def _coherence(rows: np.ndarray) -> np.ndarray:
    """Cosine of each row with the sum of all the other rows."""
    others = rows.sum(axis=0) - rows
    den = np.sqrt((rows**2).sum(axis=1) * (others**2).sum(axis=1))
    dots = (rows * others).sum(axis=1)
    return np.divide(dots, den, out=np.zeros_like(dots), where=den > 0.0)


def build_reference(
    shard: Dataset, spec: SplitSpec, rng: RngStream, cfg: ProtocolConfig
) -> DetectorState:
    """Shadow-train a local full model and calibrate the outlier threshold.

    The shadow model is freshly initialized from the detector's stream and
    trained as the clients train (cfg's optimizer, local epochs and batch
    size) over a REFERENCE_FRACTION subset of the client's data; every
    batch contributes its per-sample split-point gradient rows to the
    reference. The threshold is the QUANTILE of each reference row's mean
    distance to the segments of its K_NN nearest other rows, so scoring
    the reference against itself flags at most a (1 - QUANTILE) fraction.
    """
    if shard.n_classes > spec.n_classes:
        raise ValueError(
            f"shard has {shard.n_classes} classes, more than the head's "
            f"{spec.n_classes}"
        )
    n_sub = max(1, int(round(REFERENCE_FRACTION * len(shard))))
    sel = rng.permutation(len(shard))[:n_sub]
    sub = shard.subset(sel)
    if cfg.local_epochs * n_sub < K_NN + 1:
        raise ValueError(
            f"shadow training would yield {cfg.local_epochs * n_sub} reference rows, "
            f"need at least {K_NN + 1}"
        )
    model = init_split_model(spec, rng)
    segments = [model.bottom, model.middle, model.head]
    optimizer = cfg.opt.build()
    rows = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(sub))
        for start in range(0, len(sub), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            g_a = sgd_step(optimizer, segments, sub.inputs[idx], sub.labels[idx])
            rows.append(g_a.copy())
    state = DetectorState(np.vstack(rows))
    if state.threshold <= 0.0:
        raise ValueError("degenerate reference: calibrated threshold is zero")
    return state


def score_round(state: DetectorState, received: np.ndarray) -> int:
    """Count outlier rows in one round's received gradients.

    A row is novel when its mean distance to its K_NN nearest segments,
    over the reference and the last MEMORY_ROUNDS rounds of received rows,
    exceeds both the threshold and relative_threshold times its own norm.
    A novel row is an outlier when it is overlong (its ray distance is
    within relative_threshold times its norm) or shared (its cosine with
    the sum of the round's other rows exceeds coherence_threshold). The
    rows join state.recent.
    """
    rows = np.asarray(received, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != state.reference.shape[1]:
        raise ValueError(
            f"received gradients must be 2-D with width {state.reference.shape[1]}"
        )
    anchors = np.vstack([state.reference, *state.recent])
    seg = _knn_distances(rows, anchors, K_NN)
    bound = state.relative_threshold * np.sqrt((rows**2).sum(axis=1))
    novel = (seg > state.threshold) & (seg > bound)
    ray = _knn_distances(rows[novel], anchors, K_NN, rays=True)
    overlong = ray <= bound[novel]
    shared = _coherence(rows)[novel] > state.coherence_threshold
    state.recent = [*state.recent, rows][-MEMORY_ROUNDS:]
    return int((overlong | shared).sum())


def is_alert(count: int, n_received: int) -> bool:
    """Raise the flag when more than half of a round's rows are outliers."""
    return count > n_received // 2
