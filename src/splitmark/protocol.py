"""U-shaped split federated learning with server-side watermark injection.

The client party owns the bottom and head segments plus its data and
labels; the server party owns the middle segment and, when embedding is
enabled, the watermark secret. One training step exchanges exactly four
messages, always in this order:

    Activation       client -> server   A = bottom(x)
    Logits           server -> client   S = middle(A)
    InitialGradient  client -> server   dL/dS after the client's head step
    FinalGradient    server -> client   dL/dA, plus the clipped watermark
                                        term when a key is loaded

Labels, raw inputs, and client parameters never cross to the server;
the key, bit string, and embedding strength never cross to the client.
The two party classes below have no interface that could carry them, and
the message log records every payload kind so tests can audit the
boundary after a run.

Rounds follow the federated pattern: every client trains locally for a
fixed number of epochs against its own replica of the server segment,
then both sides are aggregated by shard-size-weighted averaging. The
clients of a round are independent, so clients with equally long shards,
which share one batch schedule, train in lockstep as a group: each step
stacks batch j of every client in the group along a leading replica axis
and runs the four messages once for all of them, against G replicas of
the bottom, middle and head segments (see nn), and logs each message once
per step. Each client keeps its own shuffle and noise streams and its own
BatchStats per batch; a run stores them as one float64 table in
client-major order within each round, and FedAvg sums in client order, so
a run gives the same bits as training the clients one after another. IID
shards of equal size form one group, a skewed partition several, a single
client a group of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterable, Iterator, NamedTuple, NoReturn

import numpy as np

from .attacks import NoiseSpec, inject_noise
from .data import Dataset
from .detect import DetectorState, score_round
from .linalg import NumericalError, RngStream, StreamLabel, cosine
from .nn import (
    OptimizerConfig,
    Segment,
    SplitModel,
    SplitSpec,
    accuracy,
    backward_segment,
    forward_full,
    forward_segment,
    init_split_model,
    softmax_xent,
)
from .watermark import (
    EmbedConfig,
    WatermarkKey,
    adaptive_clip,
    check_probes,
    compose,
    project,
    verify,
    wm_gradient,
    wm_loss,
)


class ProtocolError(RuntimeError):
    """A message arrived out of order or a party was driven out of sequence."""


class MessageKind(Enum):
    """The four boundary messages, in the order one step exchanges them."""

    ACTIVATION = "activation"
    LOGITS = "logits"
    INITIAL_GRADIENT = "initial_gradient"
    FINAL_GRADIENT = "final_gradient"


_BATCH_SEQUENCE = tuple(MessageKind)


class Message(NamedTuple):
    """One boundary tensor: its kind, where it was sent, and its shape."""

    kind: MessageKind
    round_idx: int
    client: int
    batch: int
    shape: tuple[int, ...]


class Messages:
    """Read-only view of a MessageLog's entries as one Message per client, in
    group order. Its length comes from the entries' client tuples, and each
    Message is built only as iteration reaches it."""

    def __init__(self, entries: list[tuple]):
        self._entries = entries

    def __len__(self) -> int:
        return sum(len(clients) for _, _, clients, _, _ in self._entries)

    def __iter__(self) -> Iterator[Message]:
        for kind, round_idx, clients, batch, shape in self._entries:
            for ci in clients:
                yield Message(kind, round_idx, ci, batch, shape)


class MessageLog:
    """Append-only record of every tensor that crossed the split boundary:
    one entry (kind, round_idx, clients, batch, shape) per kind per lockstep
    step, with the group's client tuple and each client's own shape."""

    def __init__(self):
        self.entries: list[tuple] = []

    def append(self, kind, round_idx, clients, batch, shape: tuple[int, ...]) -> None:
        self.entries.append((kind, round_idx, clients, batch, shape))

    @property
    def messages(self) -> Messages:
        """The entries read back as one Message per client, in group order."""
        return Messages(self.entries)

    def verify_ordering(self) -> None:
        """Each step's four entries must carry the four kinds in order under
        one (round, clients, batch), and no client may be in two steps of one
        (round, batch). Then every (round, client, batch) triple shows the
        exact four-message sequence; anything else raises ProtocolError
        naming a triple."""
        entries = self.entries
        seen: dict[tuple[int, int], set[int]] = {}
        # The entries four at a time, one step each; a short tail is checked last.
        for a, b, c, d in zip(*[iter(entries)] * 4):
            where = a[1:4]
            if (a[0], b[0], c[0], d[0]) != _BATCH_SEQUENCE or not (
                where == b[1:4] == c[1:4] == d[1:4]
            ):
                _reject_step((a, b, c, d))
            _, round_idx, clients, batch, _ = a
            done = seen.setdefault((round_idx, batch), set())
            for ci in clients:
                if ci in done:
                    raise ProtocolError(
                        f"batch {(round_idx, ci, batch)}: client {ci} is in two "
                        "steps of one round and batch"
                    )
                done.add(ci)
        if len(entries) % 4:
            _reject_step(entries[-(len(entries) % 4) :])


def _reject_step(step: Sequence[tuple]) -> NoReturn:
    """Raise for a step whose entries are not the four kinds in order under
    one (round, clients, batch), naming its first entry's first client."""
    _, round_idx, clients, batch, _ = step[0]
    logged = ", ".join(f"{e[0].value} {e[2]}" for e in step)
    expected = ", ".join(kind.value for kind in _BATCH_SEQUENCE)
    raise ProtocolError(
        f"batch {(round_idx, clients[0] if clients else None, batch)}: its step "
        f"logged {logged}; expected {expected} under one client tuple"
    )


class BatchStats(NamedTuple):
    """Scalars observed while processing one client's batch.

    The server observes the first five in grad_reply; the four watermark
    fields are None without a key. The client's loss and accuracy come
    last, since the server never sees labels; train_batch joins the two.
    """

    g_main_norm: float
    wm_loss: float | None
    g_wm_raw_norm: float | None
    g_wm_clipped_norm: float | None
    cos_main_wm: float | None
    main_loss: float
    train_acc: float


# BatchStats positions of the four watermark fields, None without a key.
_WM_FIELDS = slice(1, 5)


class BatchStatsTable(Sequence):
    """Read-only sequence of BatchStats over a float64 table with one row per
    field and one column per client-batch. Its length is the column count,
    and each BatchStats is built only when read; a table of a run without a
    key reads None in the four watermark fields."""

    # Columns converted to rows at a time while iterating.
    _BLOCK = 256

    def __init__(self, table: np.ndarray, keyed: bool):
        self._table = table
        self._keyed = keyed

    def _stats(self, values: list) -> BatchStats:
        if not self._keyed:
            values[_WM_FIELDS] = [None] * 4
        return BatchStats(*values)

    def __len__(self) -> int:
        return self._table.shape[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return BatchStatsTable(self._table[:, i], self._keyed)
        return self._stats(self._table[:, i].tolist())

    def __iter__(self) -> Iterator[BatchStats]:
        for start in range(0, len(self), self._BLOCK):
            for values in self._table[:, start : start + self._BLOCK].T.tolist():
                yield self._stats(values)

    def mean(self) -> BatchStats:
        """Each field's mean over the columns, as np.mean of its values gives."""
        return self._stats(self._table.mean(axis=1).tolist())


def _norms(g: np.ndarray) -> list[float]:
    """Frobenius norm of each replica of a (G, batch, d) stack; each sum of
    squares runs over one contiguous replica, as (g[i]**2).sum() does."""
    return list(map(math.sqrt, (g**2).sum(axis=(1, 2)).tolist()))


class ClientWorker:
    """Client party for a group of clients that train in lockstep: their
    bottom + head replicas, label access, local updates.

    clients lists the group's client indices; replica i of every stacked
    array belongs to clients[i]. Holds no watermark state of any kind. The
    optional noise spec models malicious clients perturbing the gradient
    they apply, each from its own stream in noise_rngs (the received
    message itself is left untouched).
    """

    def __init__(
        self,
        clients: Sequence[int],
        noise: NoiseSpec | None = None,
        noise_rngs: Sequence[RngStream] | None = None,
    ):
        self.clients = tuple(clients)
        self.noise = noise
        self.noise_rngs = noise_rngs
        if noise is not None and (
            noise_rngs is None or len(noise_rngs) != len(self.clients)
        ):
            raise ValueError("noise injection needs one noise stream per client")
        self.bottom: Segment | None = None
        self.head: Segment | None = None
        self._opt = None
        self._tape_bottom = None
        self._head_grads = None

    def start_round(self, bottom: Segment, head: Segment, opt_cfg: OptimizerConfig):
        self.bottom = bottom.replicate(len(self.clients))
        self.head = head.replicate(len(self.clients))
        self._opt = opt_cfg.build()
        self._tape_bottom = None

    def bottom_forward(self, x: np.ndarray) -> np.ndarray:
        """Activations of a (G, batch, in_dim) stack of the group's batches."""
        if self._tape_bottom is not None:
            raise ProtocolError("previous batch was never completed")
        a, self._tape_bottom = forward_segment(self.bottom, x)
        return a

    def head_step(self, s: np.ndarray, labels: np.ndarray):
        """Run the head on the returned activations and start backprop.

        Returns (losses, batch accuracies, dLoss/dS), the first two as (G,)
        arrays. The head's own parameter gradients are held back and
        applied together with the bottom's in apply_final.
        """
        logits, tape = forward_segment(self.head, s)
        loss, g_logits = softmax_xent(logits, labels)
        g_initial, self._head_grads = backward_segment(self.head, tape, g_logits)
        return loss, accuracy(logits, labels), g_initial

    def apply_final(self, g_final: np.ndarray) -> None:
        if self._tape_bottom is None or self._head_grads is None:
            raise ProtocolError("apply_final called before the batch exchange")
        g = g_final
        if self.noise is not None:
            g = np.empty_like(g_final)
            for i, rng in enumerate(self.noise_rngs):
                g[i] = inject_noise(g_final[i], self.noise, rng)
        _, bottom_grads = backward_segment(
            self.bottom, self._tape_bottom, g, need_input_grad=False
        )
        self._opt.step([self.bottom, self.head], [bottom_grads, self._head_grads])
        self._tape_bottom = None
        self._head_grads = None


class ServerWorker:
    """Server party: middle parameters plus (optionally) the watermark secret.

    Keeps one replica of the middle segment per client of the group it
    serves. Sees only activations and gradients; there is no code path
    through which labels, inputs, or client parameters could reach it.
    """

    def __init__(
        self, key: WatermarkKey | None = None, embed: EmbedConfig | None = None
    ):
        if (key is None) != (embed is None):
            raise ValueError("key and embed config must be provided together")
        self.key = key
        self.embed = embed
        self.middle: Segment | None = None
        self._opt = None
        self._tape = None
        self._activation = None

    def start_round(self, middle: Segment, opt_cfg: OptimizerConfig, n_clients: int):
        self.middle = middle.replicate(n_clients)
        self._opt = opt_cfg.build()
        self._tape = None

    def middle_forward(self, a: np.ndarray) -> np.ndarray:
        if self._tape is not None:
            raise ProtocolError("previous batch was never completed")
        self._activation = a
        s, self._tape = forward_segment(self.middle, a)
        return s

    def grad_reply(self, g_initial: np.ndarray):
        """Update the middle replicas and build the gradients sent back.

        The task gradient at the split point is computed from the forward
        tape before the update is applied. When a key is loaded the
        watermark gradient is derived from the stored activations, clipped
        against each replica's task gradient, and added; with strength
        exactly zero the reply is the task gradient object itself, so a
        disabled embedding is bit-identical to the vanilla protocol. The
        activations are projected onto the key once, and each gradient norm
        is taken once; loss, gradient, clip and diagnostics all reuse them.

        Returns the reply and, per replica, the server's five BatchStats
        fields as a tuple of floats (the watermark ones None without a
        key). A non-finite activation or gradient in any replica raises
        NumericalError before anything is sent.
        """
        if self._tape is None:
            raise ProtocolError("grad_reply called before middle_forward")
        g_main, middle_grads = backward_segment(self.middle, self._tape, g_initial)
        self._opt.step([self.middle], [middle_grads])
        self._tape = None
        a, self._activation = self._activation, None
        main_norms = _norms(g_main)
        # A sum of norms is finite only if every norm is: a finite norm is
        # below 1.4e154, so a few of them cannot overflow.
        if self.key is None:
            if not math.isfinite(sum(main_norms)):
                raise NumericalError("non-finite task gradient in the server's reply")
            return g_main, [(n, None, None, None, None) for n in main_norms]
        p = project(a, self.key)
        g_wm = wm_gradient(p, self.key)
        wm_norms = _norms(g_wm)
        # One test covers g_main and g_wm, and so the clipped term, which is
        # g_wm scaled by a factor in [0, 1].
        if not math.isfinite(sum(main_norms) + sum(wm_norms)):
            raise NumericalError("non-finite gradient in the server's reply")
        g_clipped = adaptive_clip(g_wm, self.embed, wm_norms, main_norms)
        stats = list(
            zip(
                main_norms,
                wm_loss(p, self.key).tolist(),
                wm_norms,
                _norms(g_clipped),
                cosine(g_main, g_wm),
            )
        )
        g_final = g_main
        if self.embed.strength > 0.0:
            g_final = compose(g_main, g_clipped)
        return g_final, stats


def train_batch(
    client: ClientWorker,
    server: ServerWorker,
    x: np.ndarray,
    y: np.ndarray,
    log: MessageLog,
    round_idx: int,
    batch_idx: int,
) -> tuple[list[BatchStats], np.ndarray]:
    """One full exchange over batch batch_idx of every client in the group.

    x is the (G, batch, in_dim) stack of the group's inputs and y the
    (G, batch) labels. Each message is logged once for the group, with each
    client's own (batch, width) shape. Returns one BatchStats per client,
    in the group's order, and the (G, batch, split) final gradients as
    sent by the server (before any client-side noise).
    """
    clients = client.clients
    a = client.bottom_forward(x)
    log.append(MessageKind.ACTIVATION, round_idx, clients, batch_idx, a.shape[1:])
    s = server.middle_forward(a)
    log.append(MessageKind.LOGITS, round_idx, clients, batch_idx, s.shape[1:])
    losses, accs, g_initial = client.head_step(s, y)
    log.append(
        MessageKind.INITIAL_GRADIENT, round_idx, clients, batch_idx, g_initial.shape[1:]
    )
    g_final, replies = server.grad_reply(g_initial)
    log.append(MessageKind.FINAL_GRADIENT, round_idx, clients, batch_idx, g_final.shape[1:])
    client.apply_final(g_final)
    stats = [
        BatchStats(*reply, loss, acc)
        for reply, loss, acc in zip(replies, losses.tolist(), accs.tolist())
    ]
    return stats, g_final


def fedavg_segments(segments: list[Segment], weights) -> Segment:
    """Parameter-wise weighted average of structurally identical segments."""
    if not segments:
        raise ValueError("nothing to aggregate")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(segments),):
        raise ValueError("one weight per segment is required")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if np.any(w < 0.0) or w.sum() <= 0.0:
        raise ValueError("weights must be non-negative and not all zero")
    w = w / w.sum()
    ref = segments[0].specs()
    for seg in segments[1:]:
        if seg.specs() != ref:
            raise ValueError("segments must share layer specs to aggregate")
    # Same accumulation order as sum(wi * p for ...): ((0 + w0 p0) + w1 p1) + ...
    avg = np.zeros_like(segments[0].params)
    for wi, seg in zip(w, segments):
        avg += wi * seg.params
    return Segment(ref, avg)


@dataclass(frozen=True)
class ProtocolConfig:
    n_rounds: int
    local_epochs: int = 2
    batch_size: int = 25
    opt: OptimizerConfig = OptimizerConfig()
    probe_samples: int = 64
    # The client whose received rows the detector scores and
    # RunResult.grad_rounds keeps; it is the detecting client and the
    # adaptive attacker in every run.
    detector_client: ClassVar[int] = 0

    def __post_init__(self):
        lows = {"n_rounds": 0, "local_epochs": 1, "batch_size": 1}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        check_probes(self.probe_samples)


@dataclass
class RoundMetrics:
    """Per-round aggregates; watermark and detector fields stay None when
    the corresponding feature is disabled."""

    round_idx: int
    main_loss: float
    g_main_norm: float
    train_acc: float
    test_acc: float | None
    wm_loss: float | None = None
    g_wm_norm: float | None = None
    cos_main_wm: float | None = None
    wsr_probe: float | None = None
    outliers: int | None = None


@dataclass
class RunResult:
    """Everything a run leaves behind.

    batch_stats holds every client-batch's BatchStats, round by round and
    client-major within a round. grad_rounds maps each kept round
    (run_experiment's keep_rounds) to the final gradients that client
    cfg.detector_client received that round, stacked per sample; the
    adaptive attack estimates its subspace from them.
    """

    metrics: list[RoundMetrics]
    model: SplitModel
    message_log: MessageLog
    batch_stats: BatchStatsTable
    grad_rounds: dict[int, np.ndarray]


def run_experiment(
    spec: SplitSpec,
    cfg: ProtocolConfig,
    shards: list[Dataset],
    test: Dataset | None,
    seed: int,
    key: WatermarkKey | None = None,
    embed: EmbedConfig | None = None,
    noise: NoiseSpec | None = None,
    detector: DetectorState | None = None,
    keep_rounds: Iterable[int] = (),
) -> RunResult:
    """Train for cfg.n_rounds federated rounds and return the aggregate.

    Determinism contract: every random draw comes from streams derived
    from (seed, purpose label, indices), so two calls with equal arguments
    produce bit-identical models, metrics, and logs. Per round, each
    client trains local_epochs passes over its shard against a private
    replica of the server segment; afterwards client and server sides are
    both averaged with shard-size weights. Clients whose shards are equally
    long train in lockstep as one group (see the module docstring); the
    result is the same, bit for bit, as training them one by one. When a
    key is given, the
    aggregated bottom is probed after every round with fresh random inputs
    and the match rate is recorded. When a detector state is given, the
    per-sample final gradients received by the detector client are scored
    once per round. RunResult.grad_rounds keeps those rows only for the
    rounds in keep_rounds (the detector remembers its own recent rounds).
    ServerWorker rejects a key without an embed config and the reverse
    before training starts.
    """
    if not shards:
        raise ValueError("at least one client shard is required")
    for i, shard in enumerate(shards):
        if len(shard) < 1:
            raise ValueError(f"client {i} has an empty shard")
        if shard.inputs.shape[1] != spec.in_dim:
            raise ValueError("shard input width does not match the model spec")
        if shard.n_classes > spec.n_classes:
            raise ValueError(
                f"client {i} has {shard.n_classes} classes, more than the "
                f"head's {spec.n_classes}"
            )
    if test is not None and test.inputs.shape[1] != spec.in_dim:
        raise ValueError("test set input width does not match the model spec")
    if key is not None and key.d != spec.split_dim:
        raise ValueError(
            f"key dimension {key.d} does not match split width {spec.split_dim}"
        )

    init_rng = RngStream(seed, StreamLabel.MODEL_INIT)
    probe_rng = RngStream(seed, StreamLabel.VERIFICATION, (1,))
    n_clients = len(shards)
    shuffle_rngs = [
        RngStream(seed, StreamLabel.DATA, (2, ci)) for ci in range(n_clients)
    ]
    noise_rngs = [
        RngStream(seed, StreamLabel.NOISE, (ci,)) if noise is not None else None
        for ci in range(n_clients)
    ]

    model = init_split_model(spec, init_rng)
    # Equal shard lengths give equal batch schedules: one lockstep group
    # per length, in order of each group's first client. A group's shards
    # are concatenated, so one (G, batch) index array gathers a step's
    # batches; offsets[i] is where replica i's shard starts.
    groups: dict[int, list[int]] = {}
    for ci, shard in enumerate(shards):
        groups.setdefault(len(shard), []).append(ci)
    lanes = [
        (
            ClientWorker(group, noise, [noise_rngs[ci] for ci in group]),
            np.concatenate([shards[ci].inputs for ci in group]),
            np.concatenate([shards[ci].labels for ci in group]),
            np.arange(0, n * len(group), n)[:, None],
        )
        for n, group in groups.items()
    ]
    server = ServerWorker(key=key, embed=embed)
    log = MessageLog()
    weights = np.array([len(s) for s in shards], dtype=np.float64)
    # One column per client-batch. A round's columns are client-major, and
    # client ci's run of them starts at starts[ci] within the round's block.
    batches = [cfg.local_epochs * -(-len(s) // cfg.batch_size) for s in shards]
    per_round = sum(batches)
    starts = np.cumsum([0, *batches[:-1]])
    table = np.empty((len(BatchStats._fields), cfg.n_rounds * per_round))
    stats = BatchStatsTable(table, keyed=key is not None)

    metrics: list[RoundMetrics] = []
    keep = frozenset(keep_rounds)
    grad_rounds: dict[int, np.ndarray] = {}

    for t in range(cfg.n_rounds):
        # The detector client's received rows, when this round is scored or kept.
        rows = None
        # client -> its (bottom, middle, head) replicas
        trained: list = [None] * n_clients
        for client, inputs, labels, offsets in lanes:
            group = client.clients
            client.start_round(model.bottom, model.head, cfg.opt)
            server.start_round(model.middle, cfg.opt, len(group))
            n = len(shards[group[0]])
            # The detector client's rows are copied out as they arrive, so no
            # step's stacked reply outlives the step.
            received = None
            if cfg.detector_client in group and (detector is not None or t in keep):
                watched = group.index(cfg.detector_client)
                received = rows = np.empty((cfg.local_epochs * n, spec.split_dim))
            steps: list[list[BatchStats]] = []
            for epoch in range(cfg.local_epochs):
                order = np.stack([shuffle_rngs[ci].permutation(n) for ci in group])
                order += offsets
                for start in range(0, n, cfg.batch_size):
                    sel = order[:, start : start + cfg.batch_size]
                    step, g_final = train_batch(
                        client, server, inputs[sel], labels[sel], log, t, len(steps)
                    )
                    steps.append(step)
                    if received is not None:
                        row = epoch * n + start
                        received[row : row + sel.shape[1]] = g_final[watched]
            # (step, replica, field) -> (field, replica, step); a None reads NaN
            cols = t * per_round + starts[list(group)][:, None] + np.arange(len(steps))
            table[:, cols] = np.array(steps, dtype=np.float64).transpose(2, 1, 0)
            for i, ci in enumerate(group):
                trained[ci] = tuple(
                    seg.replica(i) for seg in (client.bottom, server.middle, client.head)
                )
        model = SplitModel(*(fedavg_segments(segs, weights) for segs in zip(*trained)))

        test_acc = None
        if test is not None and len(test) > 0:
            test_acc = accuracy(forward_full(model, test.inputs), test.labels)
        wsr = None
        if key is not None:
            wsr = verify(
                model.bottom, key, probe_rng.child(t), n_samples=cfg.probe_samples
            ).wsr
        outliers = None
        if detector is not None:
            outliers = score_round(detector, rows)
        if t in keep:
            grad_rounds[t] = rows
        mean = stats[t * per_round : (t + 1) * per_round].mean()
        metrics.append(
            RoundMetrics(
                round_idx=t,
                main_loss=mean.main_loss,
                g_main_norm=mean.g_main_norm,
                train_acc=mean.train_acc,
                test_acc=test_acc,
                wm_loss=mean.wm_loss,
                g_wm_norm=mean.g_wm_clipped_norm,
                cos_main_wm=mean.cos_main_wm,
                wsr_probe=wsr,
                outliers=outliers,
            )
        )

    log.verify_ordering()
    return RunResult(
        metrics=metrics,
        model=model,
        message_log=log,
        batch_stats=stats,
        grad_rounds=grad_rounds,
    )
