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

import binascii
import itertools
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


def sgd_step(opt: SgdOptimizer, segments: list[Segment], x, y, penalty=None) -> np.ndarray:
    """One softmax cross-entropy SGD step of opt on a chain of segments,
    with inputs x and integer labels y. penalty, when given, maps the first
    segment's output to (loss, dLoss/dOutput), and its gradient is added
    there. Returns the gradient that reached the first segment's output."""
    a, tape = forward_segment(segments[0], x)
    out, tapes = a, [tape]
    for seg in segments[1:]:
        out, tape = forward_segment(seg, out)
        tapes.append(tape)
    _, g = softmax_xent(out, y)
    grads = [None] * len(segments)
    for i in range(len(segments) - 1, 0, -1):
        g, grads[i] = backward_segment(segments[i], tapes[i], g)
    if penalty is not None:
        g = g + penalty(a)[1]
    _, grads[0] = backward_segment(segments[0], tapes[0], g, need_input_grad=False)
    opt.step(segments, grads)
    return g


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 0.05
    momentum: float = 0.9

    def build(self) -> SgdOptimizer:
        return SgdOptimizer(self.lr, self.momentum)


# Hex text of float64 values, as float.hex writes them, built from the
# IEEE bit fields with no per-value Python call. Each value gets a slot of
# _SLOT bytes: [0] the sign, [1:5] "0x1." or "0x0.", [5:18] the 13
# mantissa digits, [18:24] "p%+d", [24] the separator. Short fields are
# padded with zero bytes, which are dropped in one pass at the end.
_SLOT = 25


def _padded(texts, width: int) -> np.ndarray:
    """texts as rows of width bytes, zero-padded on the right."""
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


# Slot bytes 0:8 and 17:25 as 8-byte words, indexed by a value's top 12
# bits (its sign, then its biased exponent e). _HEAD holds the sign, the
# lead and 3 spare bytes; _TAIL a spare byte, the exponent and a space.
# Subnormals (e = 0) read "0x0." and p-1022, like the smallest normals;
# e = 2047 (inf, nan) is overwritten by a special form.
_HEAD = _padded(
    [(b"-" if top >> 11 else b"\0") + (b"0x1." if top & 0x7FF else b"0x0.")
     for top in range(4096)],
    8,
).view(np.uint64)[:, 0]
_TAIL = _padded(
    [b"\0" + (b"p%+d" % (max(top & 0x7FF, 1) - 1023)).ljust(6, b"\0") + b" "
     for top in range(4096)],
    8,
).view(np.uint64)[:, 0]
# The special forms, for slot bytes 1:24 (after the sign) or 0:24 (nan
# has no sign).
(_ZERO, _INF), (_NAN,) = _padded([b"0x0.0p+0", b"inf"], 23), _padded([b"nan"], 24)


def _word(a: np.ndarray, start: int) -> np.ndarray:
    """Bytes start:start + 8 of a's last axis, as one native uint64 each."""
    return a[..., start : start + 8].view(np.uint64)[..., 0]


def hex_lines(tag: str, rows: np.ndarray) -> bytes:
    """The ASCII lines "tag v0 v1 ...\\n" of a (R, C) float64 array, one
    per row, each value written as float(v).hex() writes it."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n_rows, n_cols = rows.shape
    bits = rows.view(np.uint64)
    top = bits >> np.uint64(52)
    # 16 hex digits per value, big-endian: 3 for the top 12 bits, then the
    # 13 of the mantissa.
    digits = np.frombuffer(binascii.hexlify(bits.astype(">u8")), np.uint8)
    digits = digits.reshape(n_rows, n_cols, 16)
    lines = np.empty((n_rows, 2 + n_cols * _SLOT), np.uint8)
    lines[:, 0] = ord(tag)
    lines[:, 1] = ord(" ")
    slots = lines[:, 2:].reshape(n_rows, n_cols, _SLOT)
    _word(slots, 0)[...] = _HEAD[top]
    _word(slots, 17)[...] = _TAIL[top]
    # The mantissa digits as two overlapping words (5:13 and 10:18), written
    # last so that they cover the spare bytes 5:8 and 17.
    _word(slots, 5)[...] = _word(digits, 3)
    _word(slots, 10)[...] = _word(digits, 8)
    slots[:, -1, 24] = ord("\n")
    slots[(bits << np.uint64(1)) == 0, 1:24] = _ZERO
    special = (top & np.uint64(0x7FF)) == 0x7FF
    slots[special, 1:24] = _INF
    slots[special & ((bits << np.uint64(12)) != 0), :24] = _NAN
    return lines[lines != 0].tobytes()


def hex_rows(block: list[str], line_no: int, tag: str, n_rows: int, n_cols: int) -> np.ndarray:
    """The (n_rows, n_cols) float64 array of the lines "tag v0 v1 ..." in
    block, whose first line is file line line_no: the inverse of hex_lines
    for one block. A block shorter than n_rows (the file ended), a line
    with another tag or width, or a non-finite value raises ValueError
    naming the file line."""
    values: list[str] = []
    for i, line in enumerate(block, line_no):
        row = line.split()
        if row[:1] != [tag] or len(row) != n_cols + 1:
            raise ValueError(f"expected a {tag} row of {n_cols} values at line {i}")
        values += row[1:]
    if len(block) < n_rows:
        raise ValueError(f"file ends early, before line {line_no + len(block)}")
    out = np.fromiter(map(float.fromhex, values), np.float64, len(values))
    out = out.reshape(n_rows, n_cols)
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite value at line {line_no + int(finite.argmin())}")
    return out


# Checkpoint format: a line-oriented text file. The header lists each
# segment's layer specs; the body carries parameters in layer order as
# float hex, one weight row or bias vector per line. Hex round-trips
# exactly, so saving the same model twice produces identical bytes.

_MAGIC = "splitmodel v1"
_SEGMENTS = ("bottom", "middle", "head")
# Weight rows formatted per write: the formatter's buffers stay well under
# a megabyte at width 256 instead of holding the whole file's text.
_ROW_BLOCK = 32


def save_model(model: SplitModel, path: str) -> None:
    header = [_MAGIC]
    for name in _SEGMENTS:
        seg: Segment = getattr(model, name)
        header.append(f"segment {name} {len(seg.layers)}")
        for layer in seg.layers:
            s = layer.spec
            header.append(f"layer {s.in_dim} {s.out_dim} {s.activation}")
    with open(path, "wb") as fh:
        fh.write("\n".join(header).encode("ascii") + b"\n")
        for name in _SEGMENTS:
            for layer in getattr(model, name).layers:
                for start in range(0, layer.spec.in_dim, _ROW_BLOCK):
                    fh.write(hex_lines("w", layer.w[start : start + _ROW_BLOCK]))
                fh.write(hex_lines("b", layer.b[None]))


def _body_blocks(specs: list[LayerSpec]):
    """(tag, rows, width) of each block of a segment's checkpoint body, in
    file order: per layer, its w rows in blocks of _ROW_BLOCK, then its b row."""
    for spec in specs:
        for start in range(0, spec.in_dim, _ROW_BLOCK):
            yield "w", min(_ROW_BLOCK, spec.in_dim - start), spec.out_dim
        yield "b", 1, spec.out_dim


def load_model(path: str) -> SplitModel:
    """Read a checkpoint written by save_model; any other file, including
    one that ends early, goes on after the last segment or holds a
    non-finite value, raises ValueError naming the line. The body is read
    _ROW_BLOCK rows at a time into one buffer per segment, so the file's
    text is never held whole."""
    with open(path, "r", encoding="ascii") as fh:
        if fh.readline().rstrip("\n") != _MAGIC:
            raise ValueError(f"not a {_MAGIC} checkpoint")
        line_no = 1

        def fields() -> list[str]:
            nonlocal line_no
            line_no += 1
            line = fh.readline()
            if not line:
                raise ValueError(f"checkpoint ends early, before line {line_no}")
            return line.split()

        segments = []  # (name, line number, specs) per segment
        chain = []  # (line number, spec) of every layer, across segments
        for name in _SEGMENTS:
            head = fields()
            if len(head) != 3 or head[:2] != ["segment", name] or not head[2].isdigit():
                raise ValueError(f"expected 'segment {name} <layers>' at line {line_no}")
            if int(head[2]) < 1:
                raise ValueError(f"segment {name} needs at least one layer, at line {line_no}")
            segments.append((name, line_no, []))
            for _ in range(int(head[2])):
                layer = fields()
                if len(layer) != 4 or layer[0] != "layer":
                    raise ValueError(f"malformed layer spec at line {line_no}")
                try:
                    spec = LayerSpec(int(layer[1]), int(layer[2]), layer[3])
                except ValueError as exc:
                    raise ValueError(f"malformed layer spec at line {line_no}: {exc}") from None
                segments[-1][2].append(spec)
                chain.append((line_no, spec))
        for (_, prev), (spec_line, spec) in zip(chain, chain[1:]):
            if prev.out_dim != spec.in_dim:
                raise ValueError(
                    f"layer chain breaks: {prev.out_dim} -> {spec.in_dim} at line {spec_line}"
                )
        # The body holds each segment's params in the order of its buffer.
        loaded = []
        for name, seg_line, specs in segments:
            size = sum(s.in_dim * s.out_dim + s.out_dim for s in specs)
            try:
                params = np.empty(size)
            except (MemoryError, ValueError):
                raise ValueError(
                    f"segment {name} at line {seg_line} holds {size} parameters, "
                    "too many to load"
                ) from None
            pos = 0
            for tag, n_rows, n_cols in _body_blocks(specs):
                block = list(itertools.islice(fh, n_rows))
                rows = hex_rows(block, line_no + 1, tag, n_rows, n_cols)
                params[pos : pos + rows.size] = rows.ravel()
                pos += rows.size
                line_no += n_rows
            loaded.append(Segment(specs, params))
        if fh.readline():
            raise ValueError(f"unexpected line {line_no + 1} after the last segment")
    return SplitModel(*loaded)
