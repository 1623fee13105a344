"""Dense feed-forward networks with hand-written forward and backward passes.

A model is three segments (bottom, middle, head) so it can be cut across
the client/server boundary: the client owns bottom and head, the server
owns middle, and the split activation is the bottom's output. Each
segment is an ordered list of affine layers with relu or identity
activations. Forward passes record a tape (layer inputs plus
pre-activations) and backward passes replay it in reverse, so gradients
are exact up to float64 rounding.

A segment may also hold G replicas of its parameters, one per client of
a group that trains in lockstep. Every array then gains the same leading
replica axis: parameters (G, P), batches (G, batch, width), labels
(G, batch). The same functions serve both layouts, and replica i of a
stacked call equals, bit for bit, the unstacked call on replica i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import NumericalError, RngStream

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dimensions must be positive, got {self}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}"
            )


class Layer(NamedTuple):
    """Affine map y = act(x @ w + b) with w of shape (in_dim, out_dim).

    w and b are views into the owning segment's flat parameter buffer;
    write through them (layer.w[...] = ...) to change the segment. For a
    stacked segment they carry the replica axis: w (G, in, out), b (G, out).
    """

    spec: LayerSpec
    w: np.ndarray
    b: np.ndarray


class Segment:
    """An ordered stack of layers; consecutive dimensions must chain.

    All parameters live in one flat float64 buffer, `params`, laid out
    layer by layer as w (row major) then b, the order of the checkpoint
    body. Each layer's w and b are views into it, and gradients from
    backward_segment use the same layout, so optimizer steps, averaging
    and copies are whole-buffer vector operations. The buffer is used as
    given, not copied. A (G, P) buffer holds G replicas, one per row.
    """

    def __init__(self, specs: list[LayerSpec], params: np.ndarray):
        if not specs:
            raise ValueError("a segment needs at least one layer")
        for prev, nxt in zip(specs, specs[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(f"layer chain breaks: {prev.out_dim} -> {nxt.in_dim}")
        offsets = []
        pos = 0
        for spec in specs:
            n_w = spec.in_dim * spec.out_dim
            offsets.append((pos, pos + n_w, pos + n_w + spec.out_dim))
            pos += n_w + spec.out_dim
        if params.dtype != np.float64 or params.ndim > 2 or params.shape[-1:] != (pos,):
            raise ValueError(
                f"flat parameters must be float64 of shape ({pos},) or (G, {pos}), "
                f"got {params.dtype} {params.shape}"
            )
        self.params = params
        # (w_start, b_start, end) per layer, shared with gradient vectors.
        self.offsets = offsets
        lead = params.shape[:-1]
        self.layers = [
            Layer(
                spec,
                params[..., w0:b0].reshape(lead + (spec.in_dim, spec.out_dim)),
                params[..., b0:end],
            )
            for spec, (w0, b0, end) in zip(specs, offsets)
        ]

    @property
    def in_dim(self) -> int:
        return self.layers[0].spec.in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].spec.out_dim

    def specs(self) -> list[LayerSpec]:
        return [layer.spec for layer in self.layers]

    def copy(self) -> "Segment":
        return Segment(self.specs(), self.params.copy())

    def replicate(self, n: int) -> "Segment":
        """n copies of a (P,) segment, stacked as one (n, P) segment."""
        return Segment(self.specs(), np.tile(self.params, (n, 1)))

    def replica(self, i: int) -> "Segment":
        """Replica i of a stacked segment, as a (P,) segment viewing its row."""
        return Segment(self.specs(), self.params[i])


@dataclass
class ForwardTape:
    """Per-layer inputs and pre-activations captured during a forward pass."""

    inputs: list[np.ndarray]
    pre: list[np.ndarray]


def init_segment(specs: list[LayerSpec], rng: RngStream) -> Segment:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero."""
    parts = []
    for spec in specs:
        parts.append(rng.normal(spec.in_dim * spec.out_dim) / np.sqrt(spec.in_dim))
        parts.append(np.zeros(spec.out_dim))
    return Segment(specs, np.concatenate(parts))


def forward_segment(seg: Segment, x: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """Forward pass of a float64 (batch, seg.in_dim) array, taped for
    backward; a stacked segment takes (G, batch, seg.in_dim)."""
    tape = ForwardTape(inputs=[], pre=[])
    out = x
    for layer in seg.layers:
        tape.inputs.append(out)
        z = out @ layer.w
        z += layer.b[..., None, :]
        tape.pre.append(z)
        out = np.maximum(z, 0.0) if layer.spec.activation == "relu" else z
    return out, tape


def backward_segment(
    seg: Segment,
    tape: ForwardTape,
    upstream: np.ndarray,
    *,
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Reverse-mode pass through a taped forward.

    tape comes from forward_segment on the same segment, and upstream is
    dLoss/dOutput, a float64 array of the output's shape. Returns
    (input_gradient, grad), where grad is one float64 buffer shaped and
    laid out like seg.params; Segment(seg.specs(), grad).layers views it
    per layer. The loss reduction convention (e.g. batch mean) is whatever
    the upstream gradient already encodes. With need_input_grad=False (a bottom
    segment, whose input is data) the last product is skipped and
    input_gradient is None.
    """
    layers = seg.layers
    g = upstream
    grad = np.empty(seg.params.shape)
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        w0, b0, end = seg.offsets[i]
        if layer.spec.activation == "relu":
            dz = g * (tape.pre[i] > 0.0)
        else:
            dz = g
        np.matmul(
            tape.inputs[i].swapaxes(-1, -2),
            dz,
            out=grad[..., w0:b0].reshape(layer.w.shape),
        )
        dz.sum(axis=-2, out=grad[..., b0:end])
        g = dz @ layer.w.swapaxes(-1, -2) if i or need_input_grad else None
    return g, grad


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, dLoss/dlogits); the gradient is (softmax - onehot) / batch.
    Shifted by the row max before exponentiation so large logits stay finite.
    labels is an integer array with one entry in [0, n_classes) per row;
    one outside would index another row's logit. Stacked (G, batch,
    n_classes) logits with (G, batch) labels give one loss per replica, as
    a (G,) array; a single batch gives a float.
    """
    batch, n_classes = logits.shape[-2:]
    # flat positions of the label entries, shared by the loss and the gradient
    picks = np.arange(0, logits.size, n_classes) + labels.ravel()
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    sums = expz.sum(axis=-1, keepdims=True)
    picked = shifted.ravel()[picks] - np.log(sums.ravel())
    # x / -batch is -(x / batch) exactly: rounding is symmetric in sign.
    loss = picked.reshape(logits.shape[:-1]).sum(axis=-1)
    loss /= -batch
    grad = expz / sums
    grad.ravel()[picks] -= 1.0
    grad /= batch
    return (loss if logits.ndim > 2 else float(loss)), grad


def accuracy(logits: np.ndarray, labels: np.ndarray):
    """Fraction of rows whose argmax is the label; one per replica, as a
    (G,) array, for stacked logits."""
    hits = np.asarray(logits).argmax(axis=-1) == np.asarray(labels)
    acc = hits.sum(axis=-1) / hits.shape[-1]
    return acc if hits.ndim > 1 else float(acc)


@dataclass(frozen=True)
class SplitSpec:
    """Layer specs for the three segments of a split model."""

    bottom: tuple[LayerSpec, ...]
    middle: tuple[LayerSpec, ...]
    head: tuple[LayerSpec, ...]

    def __post_init__(self):
        chain = list(self.bottom) + list(self.middle) + list(self.head)
        if not (self.bottom and self.middle and self.head):
            raise ValueError("bottom, middle and head each need at least one layer")
        for prev, nxt in zip(chain, chain[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"segment chain breaks: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def split_dim(self) -> int:
        return self.bottom[-1].out_dim

    @property
    def in_dim(self) -> int:
        return self.bottom[0].in_dim

    @property
    def n_classes(self) -> int:
        return self.head[-1].out_dim


class SplitModel:
    """Container for the three segments of one model replica."""

    def __init__(self, bottom: Segment, middle: Segment, head: Segment):
        if bottom.out_dim != middle.in_dim or middle.out_dim != head.in_dim:
            raise ValueError("segments do not chain at the split points")
        self.bottom = bottom
        self.middle = middle
        self.head = head


def init_split_model(spec: SplitSpec, rng: RngStream) -> SplitModel:
    return SplitModel(
        init_segment(list(spec.bottom), rng),
        init_segment(list(spec.middle), rng),
        init_segment(list(spec.head), rng),
    )


def forward_full(model: SplitModel, x: np.ndarray) -> np.ndarray:
    """Inference pass through all three segments; no tape kept."""
    a, _ = forward_segment(model.bottom, x)
    s, _ = forward_segment(model.middle, a)
    out, _ = forward_segment(model.head, s)
    return out


class SgdOptimizer:
    """SGD with classical momentum.

    Update rule per parameter:
        v <- momentum * v + g
        theta <- theta - lr * v
    Each segment is updated as one flat buffer (Segment.params), which is
    elementwise the same arithmetic as a per-tensor loop, and for a
    stacked segment the same as one step per replica. Velocities start
    at zero and are keyed by position, so one optimizer instance must keep
    seeing the same segments in the same order.
    """

    def __init__(self, lr: float, momentum: float = 0.0):
        if not (lr >= 0.0 and 0.0 <= momentum < 1.0):
            raise ValueError("optimizer needs lr >= 0 and momentum in [0, 1)")
        self.lr = lr
        self.momentum = momentum
        # slot -> (velocity, scratch). The scratch vector takes lr * v in
        # place: a fresh temporary of a wide segment's size (0.5 MB at width
        # 256) is often handed back to the OS and page-faulted in again on
        # every step.
        self._buffers: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, segments: list[Segment], grads: list[np.ndarray]) -> None:
        """Apply one update; grads[i] is segments[i]'s gradient, one buffer
        shaped like its params, as backward_segment returns it. No
        segment is touched unless every gradient is finite. A parameter
        that leaves the float range in the update raises NumericalError
        after it."""
        for grad in grads:
            if not np.isfinite(grad).all():
                raise NumericalError("non-finite gradient in optimizer step")
        for slot, (seg, grad) in enumerate(zip(segments, grads)):
            param = seg.params
            v, scratch = self._buffers.get(slot, (None, None))
            if v is None:
                v, scratch = np.zeros_like(param), np.empty_like(param)
                self._buffers[slot] = v, scratch
            v *= self.momentum
            v += grad
            param -= np.multiply(v, self.lr, out=scratch)
            if not np.isfinite(param).all():
                raise NumericalError("non-finite parameter after optimizer step")


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 0.05
    momentum: float = 0.9

    def build(self) -> SgdOptimizer:
        return SgdOptimizer(self.lr, self.momentum)


# Checkpoint format: a line-oriented text file. The header lists each
# segment's layer specs; the body carries parameters in layer order as
# float hex, one weight row or bias vector per line. Hex round-trips
# exactly, so saving the same model twice produces identical bytes.

_MAGIC = "splitmodel v1"
_SEGMENTS = ("bottom", "middle", "head")


def _fmt_vec(values: np.ndarray) -> str:
    return " ".join(float(v).hex() for v in values)


def save_model(model: SplitModel, path: str) -> None:
    lines = [_MAGIC]
    for name in _SEGMENTS:
        seg: Segment = getattr(model, name)
        lines.append(f"segment {name} {len(seg.layers)}")
        for layer in seg.layers:
            s = layer.spec
            lines.append(f"layer {s.in_dim} {s.out_dim} {s.activation}")
    for name in _SEGMENTS:
        seg = getattr(model, name)
        for layer in seg.layers:
            for row in layer.w:
                lines.append("w " + _fmt_vec(row))
            lines.append("b " + _fmt_vec(layer.b))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> SplitModel:
    """Read a checkpoint written by save_model; any other file, including
    one that ends early, goes on after the last segment or holds a
    non-finite value, raises ValueError naming the line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"not a {_MAGIC} checkpoint")

    def fields(pos: int) -> list[str]:
        if pos >= len(lines):
            raise ValueError(f"checkpoint ends early, before line {pos + 1}")
        return lines[pos].split()

    pos = 1
    seg_specs = []
    for name in _SEGMENTS:
        head = fields(pos)
        if len(head) != 3 or head[:2] != ["segment", name]:
            raise ValueError(f"expected 'segment {name} <layers>' at line {pos + 1}")
        pos += 1
        specs = []
        for _ in range(int(head[2])):
            layer = fields(pos)
            if len(layer) != 4 or layer[0] != "layer":
                raise ValueError(f"malformed layer spec at line {pos + 1}")
            specs.append(LayerSpec(int(layer[1]), int(layer[2]), layer[3]))
            pos += 1
        seg_specs.append(specs)
    # The body holds each segment's params in order: per layer, in_dim w
    # rows then one b row, each out_dim values wide.
    segments = []
    for specs in seg_specs:
        rows = []
        for spec in specs:
            for tag in "w" * spec.in_dim + "b":
                row = fields(pos)
                if row[:1] != [tag] or len(row) != spec.out_dim + 1:
                    raise ValueError(
                        f"expected a {tag} row of {spec.out_dim} values at line {pos + 1}"
                    )
                rows.append(np.array([float.fromhex(t) for t in row[1:]]))
                if not np.isfinite(rows[-1]).all():
                    raise ValueError(f"non-finite value at line {pos + 1}")
                pos += 1
        segments.append(Segment(specs, np.concatenate(rows)))
    if pos < len(lines):
        raise ValueError(f"unexpected line {pos + 1} after the last segment")
    return SplitModel(*segments)
