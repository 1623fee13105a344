"""The four-message split protocol, FedAvg, and the experiment loop."""

import math
from collections import Counter

import numpy as np
import pytest

from splitmark.config import parse_config
from splitmark.data import PartitionSpec, make_blobs, partition, split_per_class
from splitmark import protocol
from splitmark.linalg import NumericalError, RngStream, StreamLabel, cosine
from splitmark.nn import (
    LayerSpec,
    OptimizerConfig,
    SplitModel,
    SplitSpec,
    backward_segment,
    forward_segment,
    init_split_model,
)
from splitmark.protocol import (
    ClientWorker,
    MessageKind,
    MessageLog,
    ProtocolConfig,
    ProtocolError,
    ServerWorker,
    fedavg_segments,
    run_experiment,
    train_batch,
)
from splitmark.watermark import (
    EmbedConfig,
    adaptive_clip,
    compose,
    keygen,
    project,
    wm_gradient,
    wm_loss,
)
from splitmark.attacks import NoiseSpec
from splitmark.detect import DetectorState, score_round
from splitmark.runner import build_data, build_detector, train_run

from helpers import segment_of, segments_equal


def _spec(width=8, classes=3, in_dim=4):
    return SplitSpec(
        bottom=(LayerSpec(in_dim, width), LayerSpec(width, width)),
        middle=(LayerSpec(width, width),),
        head=(LayerSpec(width, classes, "identity"),),
    )


def _shards(seed=0, n=30, classes=3, in_dim=4, clients=3):
    rng = RngStream(seed, StreamLabel.DATA, (0,))
    full = make_blobs(rng, n, classes, in_dim, 0.5)
    train, test = split_per_class(full, 5)
    idx = partition(train, PartitionSpec(clients, "iid", seed=seed))
    return [train.subset(i) for i in idx], test


def _run(seed=0, lam=None, rounds=3, **kw):
    shards, test = _shards(seed)
    spec = _spec()
    cfg = ProtocolConfig(n_rounds=rounds, local_epochs=1, batch_size=5)
    key = embed = None
    if lam is not None:
        key = keygen(RngStream(seed, StreamLabel.WATERMARK_KEY), spec.split_dim, 4)
        embed = EmbedConfig(strength=lam)
    return run_experiment(spec, cfg, shards, test, seed, key=key, embed=embed, **kw)


def test_zero_strength_is_bitwise_vanilla():
    plain = _run(seed=1, lam=None)
    zeroed = _run(seed=1, lam=0.0)
    for a, b in zip(
        (plain.model.bottom, plain.model.middle, plain.model.head),
        (zeroed.model.bottom, zeroed.model.middle, zeroed.model.head),
    ):
        assert segments_equal(a, b)
    for ma, mb in zip(plain.metrics, zeroed.metrics):
        assert ma.main_loss == mb.main_loss
        assert ma.test_acc == mb.test_acc


def _norm(g):
    return math.sqrt((g**2).sum())


def test_final_gradient_decomposes():
    # Drive a keyed and an unkeyed server over the same batch from
    # identical states; the keyed reply must equal task gradient plus the
    # independently recomputed clipped watermark term.
    spec = _spec()
    seed = 3
    model = init_split_model(spec, RngStream(seed, StreamLabel.MODEL_INIT))
    key = keygen(RngStream(seed, StreamLabel.WATERMARK_KEY), spec.split_dim, 4)
    embed = EmbedConfig(strength=0.5)
    shards, _ = _shards(seed)
    x, y = shards[0].inputs[:5], shards[0].labels[:5]
    opt = OptimizerConfig()

    outs = {}
    for tag, srv in (
        ("plain", ServerWorker()),
        ("keyed", ServerWorker(key=key, embed=embed)),
    ):
        client = ClientWorker([0])
        client.start_round(model.bottom, model.head, opt)
        srv.start_round(model.middle, opt, 1)
        log = MessageLog()
        stats, g_final = train_batch(client, srv, x[None], y[None], log, 0, 0)
        a, _ = forward_segment(model.bottom, x)
        outs[tag] = (g_final[0], a)

    g_main, a = outs["plain"]
    g_keyed, _ = outs["keyed"]
    g_wm = wm_gradient(project(a[None], key), key)
    expected = g_main + adaptive_clip(g_wm, embed, [_norm(g_wm)], [_norm(g_main)])[0]
    assert np.allclose(g_keyed, expected, atol=1e-12)


def _server(key=None, embed=None, seed=3):
    """A server whose round has started from a fresh model, and that model."""
    model = init_split_model(_spec(), RngStream(seed, StreamLabel.MODEL_INIT))
    server = ServerWorker(key=key, embed=embed)
    server.start_round(model.middle, OptimizerConfig(), 1)
    return server, model


def _key(seed=3):
    return keygen(RngStream(seed, StreamLabel.WATERMARK_KEY), _spec().split_dim, 4)


@pytest.mark.parametrize(
    "embed, binds",
    [
        (EmbedConfig(strength=0.01), True),
        (EmbedConfig(strength=1e6), False),
        (EmbedConfig(strength=0.0), True),
    ],
    ids=["clip-binds", "clip-passes", "strength-0"],
)
def test_grad_reply_is_bitwise_the_public_composition(embed, binds, monkeypatch):
    # The reply and the five server stats equal, bit for bit, what the
    # public watermark functions give when each is called on its own.
    key = _key()
    server, model = _server(key, embed)
    d = _spec().split_dim
    rng = RngStream(3, StreamLabel.DATA, (7,))
    a = rng.normal(5 * d).reshape(5, d)
    g_initial = rng.normal(5 * d).reshape(5, d)
    sent = []

    def recording_backward(*args, **kw):
        out = backward_segment(*args, **kw)
        sent.append(out[0])
        return out

    monkeypatch.setattr(protocol, "backward_segment", recording_backward)
    server.middle_forward(a[None])
    g_final, (stats,) = server.grad_reply(g_initial[None])

    _, tape = forward_segment(model.middle, a)
    g_main, _ = backward_segment(model.middle, tape, g_initial)
    p = project(a[None], key)
    g_wm = wm_gradient(p, key)[0]
    g_clipped = adaptive_clip(g_wm[None], embed, [_norm(g_wm)], [_norm(g_main)])[0]
    assert stats == (
        _norm(g_main),
        wm_loss(p, key)[0],
        _norm(g_wm),
        _norm(g_clipped),
        cosine(g_main[None], g_wm[None])[0],
    )
    assert all(type(v) is float for v in stats[:5])
    assert len(stats) == 5  # no loss or accuracy: no labels here
    assert (stats[3] < stats[2]) == binds  # clipped vs raw watermark norm
    assert np.array_equal(sent[0][0], g_main)
    if embed.strength == 0.0:
        assert g_final is sent[0]
    else:
        assert np.array_equal(g_final[0], compose(g_main, g_clipped))


def test_train_batch_adds_the_client_fields_to_the_reply(monkeypatch):
    # The batch record is the server's, with only the client's loss and
    # accuracy filled in.
    server, model = _server(_key(), EmbedConfig(strength=0.1))
    reply = (1.0, 2.0, 3.0, 4.0, 5.0)
    real_reply = server.grad_reply
    monkeypatch.setattr(server, "grad_reply", lambda g: (real_reply(g)[0], [reply]))
    client = ClientWorker([0])
    client.start_round(model.bottom, model.head, OptimizerConfig())
    shards, _ = _shards(3)
    x, y = shards[0].inputs[:5], shards[0].labels[:5]
    (stats,), _ = train_batch(client, server, x[None], y[None], MessageLog(), 0, 0)
    assert stats[:5] == reply[:5]
    assert type(stats.main_loss) is float and 0.0 <= stats.train_acc <= 1.0


_BENCH_SPANS = ("project", "wm_loss", "wm_gradient", "adaptive_clip", "compose", "cosine")


@pytest.mark.parametrize("keyed", [True, False])
def test_each_watermark_span_runs_once_per_keyed_batch(keyed, monkeypatch):
    # The benchmark traces these names where protocol binds them; a keyed
    # batch must call each exactly once and an unkeyed batch none of them.
    counts = dict.fromkeys(_BENCH_SPANS, 0)
    for name in _BENCH_SPANS:

        def counted(*args, _name=name, _original=getattr(protocol, name), **kw):
            counts[_name] += 1
            return _original(*args, **kw)

        monkeypatch.setattr(protocol, name, counted)
    server, model = _server(*((_key(), EmbedConfig(strength=0.1)) if keyed else ()))
    client = ClientWorker([0])
    client.start_round(model.bottom, model.head, OptimizerConfig())
    shards, _ = _shards(3)
    x, y = shards[0].inputs[:5], shards[0].labels[:5]
    (stats,), _ = train_batch(client, server, x[None], y[None], MessageLog(), 0, 0)
    assert counts == dict.fromkeys(_BENCH_SPANS, 1 if keyed else 0)
    assert (stats.wm_loss is not None) == keyed


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_keyed_server_rejects_non_finite_activations(bad):
    key = _key()
    server, _ = _server(key, EmbedConfig(strength=0.1))
    d = _spec().split_dim
    a = np.ones((5, d))
    a[2, 3] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        server.middle_forward(a[None])
        with pytest.raises(NumericalError):
            server.grad_reply(np.ones((1, 5, d)))
    with pytest.raises(NumericalError):
        project(a, key)


@pytest.mark.parametrize("keyed", [True, False])
def test_server_rejects_non_finite_task_gradient(keyed):
    # A huge finite middle weight stays finite through the middle's own
    # update, but the task gradient at the cut (twice that weight)
    # overflows; the reply must stop there, keyed or not.
    server, _ = _server(*((_key(), EmbedConfig(strength=0.1)) if keyed else ()))
    server.middle.layers[0].w[0, 1, 2] = 1e308
    d = _spec().split_dim
    a = np.abs(RngStream(3, StreamLabel.DATA, (8,)).normal(5 * d)).reshape(1, 5, d)
    with np.errstate(invalid="ignore", over="ignore"):
        server.middle_forward(a)
        with pytest.raises(NumericalError, match="server's reply"):
            server.grad_reply(np.full((1, 5, d), 2.0))
    assert np.isfinite(server.middle.params).all()


def test_server_rejects_task_gradient_whose_norm_overflows(monkeypatch):
    # A finite task gradient with an entry of 1e200 squares past the float
    # range; the unkeyed reply stops there instead of reaching the client.
    server, _ = _server()
    d = _spec().split_dim
    sent = []

    def huge_backward(*args, **kw):
        g_main, grads = backward_segment(*args, **kw)
        g_main = g_main.copy()
        g_main[0, 1, 2] = 1e200
        sent.append(g_main)
        return g_main, grads

    monkeypatch.setattr(protocol, "backward_segment", huge_backward)
    server.middle_forward(np.ones((1, 5, d)))
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="server's reply"):
        server.grad_reply(np.ones((1, 5, d)))
    assert np.isfinite(sent[0]).all()


def test_client_step_rejects_a_weight_that_overflows():
    # Inputs scaled by 100 keep the softmax and every gradient finite, and
    # labels moved one class on keep the head's error term large, but
    # lr = 1e308 sends the head weights past the float range in the
    # client's update. The batch must stop there: otherwise the inf stays
    # in the head and, on a round's last batch, is averaged into the model.
    model = init_split_model(_spec(), RngStream(3, StreamLabel.MODEL_INIT))
    client = ClientWorker([0])
    client.start_round(model.bottom, model.head, OptimizerConfig(lr=1e308, momentum=0.0))
    server = ServerWorker()
    server.start_round(model.middle, OptimizerConfig(), 1)
    shards, _ = _shards(3)
    x, y = shards[0].inputs[:5] * 100.0, (shards[0].labels[:5] + 1) % 3
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="parameter"):
        train_batch(client, server, x[None], y[None], MessageLog(), 0, 0)


def test_fedavg_single_model_unchanged():
    seg = segment_of((LayerSpec(2, 2, "identity"), np.eye(2) * 3, np.ones(2)))
    out = fedavg_segments([seg], [7.0])
    assert segments_equal(out, seg)


def test_fedavg_equal_weights_mean():
    a = segment_of((LayerSpec(1, 1, "identity"), np.array([[0.0]]), np.zeros(1)))
    b = segment_of((LayerSpec(1, 1, "identity"), np.array([[2.0]]), np.zeros(1)))
    out = fedavg_segments([a, b], [1.0, 1.0])
    assert out.layers[0].w[0, 0] == 1.0


def test_fedavg_weighted_mean():
    a = segment_of((LayerSpec(1, 1, "identity"), np.array([[0.0]]), np.zeros(1)))
    b = segment_of((LayerSpec(1, 1, "identity"), np.array([[4.0]]), np.zeros(1)))
    out = fedavg_segments([a, b], [1.0, 3.0])
    assert out.layers[0].w[0, 0] == 3.0


def test_fedavg_validation():
    a = segment_of((LayerSpec(1, 1, "identity"), np.array([[0.0]]), np.zeros(1)))
    with pytest.raises(ValueError):
        fedavg_segments([], [])
    with pytest.raises(ValueError):
        fedavg_segments([a, a.copy()], [1.0])
    with pytest.raises(ValueError):
        fedavg_segments([a, a.copy()], [0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fedavg_rejects_non_finite_weights(bad):
    a = segment_of((LayerSpec(1, 1, "identity"), np.array([[0.0]]), np.zeros(1)))
    with pytest.raises(ValueError, match="finite"):
        fedavg_segments([a, a.copy()], [bad, 1.0])


def test_fedavg_is_bitwise_the_per_layer_weighted_sum():
    rng = RngStream(11, StreamLabel.MODEL_INIT)
    spec = _spec()
    segments = [init_split_model(spec, rng.child(i)).bottom for i in range(4)]
    raw = np.array([3.0, 7.0, 1.0, 5.0])
    out = fedavg_segments(segments, raw)
    w = raw / raw.sum()
    for li, layer in enumerate(out.layers):
        expect_w = sum(wi * seg.layers[li].w for wi, seg in zip(w, segments))
        expect_b = sum(wi * seg.layers[li].b for wi, seg in zip(w, segments))
        assert np.array_equal(layer.w, expect_w)
        assert np.array_equal(layer.b, expect_b)
    assert all(not np.shares_memory(out.params, s.params) for s in segments)


def test_zero_rounds_returns_initial_model():
    res = _run(seed=5, rounds=0)
    reference = init_split_model(_spec(), RngStream(5, StreamLabel.MODEL_INIT))
    assert res.metrics == []
    assert segments_equal(res.model.bottom, reference.bottom)
    assert segments_equal(res.model.middle, reference.middle)
    assert segments_equal(res.model.head, reference.head)


def test_run_determinism():
    a = _run(seed=2, lam=0.1)
    b = _run(seed=2, lam=0.1)
    assert len(a.metrics) == len(b.metrics)
    for ma, mb in zip(a.metrics, b.metrics):
        assert ma == mb
    assert segments_equal(a.model.bottom, b.model.bottom)
    assert [m.kind for m in a.message_log.messages] == [
        m.kind for m in b.message_log.messages
    ]


def test_message_log_ordering_and_kinds():
    res = _run(seed=0, lam=0.1)
    res.message_log.verify_ordering()
    assert {m.kind for m in res.message_log.messages} == {
        MessageKind.ACTIVATION,
        MessageKind.LOGITS,
        MessageKind.INITIAL_GRADIENT,
        MessageKind.FINAL_GRADIENT,
    }


def test_message_log_rejects_bad_order():
    log = MessageLog()
    log.append(MessageKind.ACTIVATION, 0, (0,), 0, (1, 2))
    log.append(MessageKind.INITIAL_GRADIENT, 0, (0,), 0, (1, 2))
    with pytest.raises(ProtocolError):
        log.verify_ordering()


def test_message_log_rejects_a_client_in_two_steps_of_one_batch():
    # Each step's entries alone are a full sequence; client 0 is in both,
    # so its (round, batch) shows the four kinds twice.
    log = MessageLog()
    for clients in ((0, 1), (2, 0)):
        for kind in protocol._BATCH_SEQUENCE:
            log.append(kind, 0, clients, 0, (1, 2))
    with pytest.raises(ProtocolError, match=r"\(0, 0, 0\)"):
        log.verify_ordering()


def test_message_log_rejects_a_step_whose_entries_differ_in_clients():
    # Per client, each triple shows the four kinds in order, but the step's
    # initial gradient was logged once per client instead of once for the
    # group, so the step does not carry one client tuple.
    log = MessageLog()
    log.append(MessageKind.ACTIVATION, 0, (0, 1), 0, (1, 2))
    log.append(MessageKind.LOGITS, 0, (0, 1), 0, (1, 2))
    log.append(MessageKind.INITIAL_GRADIENT, 0, (0,), 0, (1, 2))
    log.append(MessageKind.INITIAL_GRADIENT, 0, (1,), 0, (1, 2))
    log.append(MessageKind.FINAL_GRADIENT, 0, (0, 1), 0, (1, 2))
    with pytest.raises(ProtocolError, match=r"\(0, 0, 0\)"):
        log.verify_ordering()


def test_message_log_reads_entries_back_per_client():
    log = MessageLog()
    for batch in (0, 1):
        for kind in protocol._BATCH_SEQUENCE:
            log.append(kind, 2, (3, 1), batch, (5, 4))
    log.verify_ordering()
    assert len(log.entries) == 8
    assert len(log.messages) == 16
    assert list(log.messages) == [
        protocol.Message(kind, 2, ci, batch, (5, 4))
        for batch in (0, 1)
        for kind in protocol._BATCH_SEQUENCE
        for ci in (3, 1)
    ]


def test_clip_invariant_on_batch_stats():
    lam = 0.1
    res = _run(seed=4, lam=lam, rounds=2)
    checked = 0
    for st in res.batch_stats:
        if st.g_wm_clipped_norm is None:
            continue
        assert st.g_wm_clipped_norm <= lam * st.g_main_norm * (1 + 1e-9)
        checked += 1
    assert checked > 0


def test_wsr_probe_trend_over_seeds():
    # In expectation the embedding makes the probe match rate climb:
    # final-round probe >= first-round probe on a 5-seed average.
    firsts, finals = [], []
    for seed in range(5):
        res = _run(seed=seed, lam=1.0, rounds=4)
        firsts.append(res.metrics[0].wsr_probe)
        finals.append(res.metrics[-1].wsr_probe)
    assert np.mean(finals) >= np.mean(firsts)


def test_watermark_fields_none_without_key():
    res = _run(seed=0, lam=None)
    for m in res.metrics:
        assert m.wm_loss is None and m.g_wm_norm is None and m.wsr_probe is None


def test_grad_rounds_logged_per_sample():
    res = _run(seed=0, lam=0.1, rounds=2, keep_rounds=range(2))
    shards, _ = _shards(0)
    assert set(res.grad_rounds) == {0, 1}
    rows = res.grad_rounds[0]
    # attacker client 0 sees one row per sample per local epoch
    assert rows.shape == (len(shards[0]), _spec().split_dim)


def test_run_keeps_only_the_rounds_asked_for():
    # Keeping rows is bookkeeping: the model is the same whatever is kept.
    kept = _run(seed=0, lam=0.1, rounds=3, keep_rounds={0, 2})
    assert sorted(kept.grad_rounds) == [0, 2]
    plain = _run(seed=0, lam=0.1, rounds=3)
    assert plain.grad_rounds == {}
    for name in ("bottom", "middle", "head"):
        assert segments_equal(getattr(kept.model, name), getattr(plain.model, name))


def test_in_run_outliers_match_a_fresh_detector_on_the_kept_rows():
    # The detector scores each round's rows as the round ends; a state
    # rebuilt from the same reference, fed the kept rows afterwards, counts
    # the same. Dropping the rows after scoring changes no count. Two desk
    # rounds at strength 1.0, seed 1, flag rows in both rounds.
    cfg = parse_config("run.seed = 1\nrun.rounds = 2\nembed.enabled = true\nembed.strength = 1.0")
    shards, test = build_data(cfg)
    spec, pcfg = cfg.split_spec(), cfg.protocol()
    key = keygen(RngStream(1, StreamLabel.WATERMARK_KEY), spec.split_dim, cfg["embed.bits"])
    reference = build_detector(cfg, shards).reference

    def run(keep_rounds):
        return run_experiment(
            spec, pcfg, shards, test, 1, key=key, embed=cfg.embed(),
            detector=DetectorState(reference), keep_rounds=keep_rounds,
        )

    kept = run(range(pcfg.n_rounds))
    fresh = DetectorState(reference)
    recounted = [score_round(fresh, kept.grad_rounds[t]) for t in range(pcfg.n_rounds)]
    in_run = [m.outliers for m in kept.metrics]
    assert recounted == in_run
    assert all(count > 0 for count in in_run)
    dropped = run(())
    assert dropped.grad_rounds == {}
    assert [m.outliers for m in dropped.metrics] == in_run


# Two clients with 45-sample shards, four rounds, a keyed 8-wide split.
_TINY_RUN = """
run.rounds = 4
run.local_epochs = 1
run.batch_size = 10
data.classes = 3
data.input_dim = 4
data.train_per_class = 30
data.test_per_class = 5
partition.clients = 2
model.widths = 8,8
model.split = 1
embed.enabled = true
embed.bits = 4
"""


@pytest.mark.parametrize("detector", [False, True], ids=["plain", "detector"])
def test_train_run_keeps_no_rounds_without_the_adaptive_attack(detector):
    cfg = parse_config(_TINY_RUN + f"detector.enabled = {detector}\nattack.kinds = prune\n")
    res = train_run(cfg).result
    assert res.grad_rounds == {}
    assert all((m.outliers is not None) == detector for m in res.metrics)


def test_train_run_keeps_the_adaptive_attack_windows():
    cfg = parse_config(
        _TINY_RUN
        + "attack.kinds = adaptive, prune\n"
        + "attack.rounds_early = 0, 1\nattack.rounds_late = 2, 4\n"
        + "attack.n_main = 1\nattack.k_prime = 2\n"
    )
    res = train_run(cfg).result
    assert sorted(res.grad_rounds) == [0, 2, 3]
    assert all(rows.shape == (45, 8) for rows in res.grad_rounds.values())


def test_noise_config_changes_training():
    base = _run(seed=6, lam=0.1)
    noisy = _run(seed=6, lam=0.1, noise=NoiseSpec(snr=1.0))
    assert not segments_equal(base.model.bottom, noisy.model.bottom)


def test_server_worker_requires_key_and_embed_together():
    key = keygen(RngStream(0, StreamLabel.WATERMARK_KEY), 8, 4)
    with pytest.raises(ValueError):
        ServerWorker(key=key)
    with pytest.raises(ValueError):
        ServerWorker(embed=EmbedConfig(strength=0.1))


def test_client_sequencing_errors():
    client = ClientWorker([0])
    spec = _spec()
    model = init_split_model(spec, RngStream(0, StreamLabel.MODEL_INIT))
    client.start_round(model.bottom, model.head, OptimizerConfig())
    with pytest.raises(ProtocolError):
        client.apply_final(np.zeros((1, 5, spec.split_dim)))
    client.bottom_forward(np.zeros((1, 5, 4)))
    with pytest.raises(ProtocolError):
        client.bottom_forward(np.zeros((1, 5, 4)))


def test_run_experiment_validation():
    spec = _spec()
    shards, test = _shards(0)
    cfg = ProtocolConfig(n_rounds=1)
    with pytest.raises(ValueError):
        run_experiment(spec, cfg, [], test, 0)
    bad_key = keygen(RngStream(0, StreamLabel.WATERMARK_KEY), 99, 4)
    with pytest.raises(ValueError):
        run_experiment(
            spec, cfg, shards, test, 0, key=bad_key, embed=EmbedConfig(strength=0.1)
        )
    with pytest.raises(ValueError):
        run_experiment(spec, cfg, shards, test, 0, key=None, embed=EmbedConfig(0.1))
    with pytest.raises(ValueError, match="head"):
        # 3-class shards on a 2-output head
        run_experiment(_spec(classes=2), cfg, shards, test, 0)
    _, wide_test = _shards(in_dim=5)
    with pytest.raises(ValueError, match="test set"):
        run_experiment(spec, cfg, shards, wide_test, 0)


def test_capability_boundary_interfaces():
    # The server type carries no label/input/parameter state beyond its
    # middle segment; the client type carries no watermark state.
    server_attrs = set(vars(ServerWorker()).keys())
    assert {"key", "embed", "middle"} <= server_attrs
    assert not {"labels", "inputs", "bottom", "head"} & server_attrs
    client_attrs = set(vars(ClientWorker([0])).keys())
    assert not {"key", "embed", "bits", "strength"} & client_attrs


# An unbalanced split whose shards are 3,3,3,3,39,3,3,3,27,3: client 0
# trains in a non-contiguous lockstep group of eight, beside two singletons.
_SKEWED = """
run.seed = 1
run.rounds = 2
run.local_epochs = 2
run.batch_size = 10
data.classes = 3
data.input_dim = 4
data.train_per_class = 30
data.test_per_class = 5
partition.clients = 10
partition.mode = unbalanced
model.widths = 8,8
model.split = 1
"""


@pytest.mark.parametrize(
    "noise, keyed",
    [(None, True), (NoiseSpec(snr=1.0), True), (None, False)],
    ids=["quiet", "noisy", "quiet-keyless"],
)
def test_lockstep_groups_match_clients_trained_one_by_one(noise, keyed):
    cfg = parse_config(_SKEWED)
    shards, test = build_data(cfg)
    assert [len(s) for s in shards] == [3, 3, 3, 3, 39, 3, 3, 3, 27, 3]
    spec, pcfg, seed = cfg.split_spec(), cfg.protocol(), 1
    key = embed = None
    if keyed:
        key = keygen(RngStream(seed, StreamLabel.WATERMARK_KEY), spec.split_dim, 4)
        embed = EmbedConfig(strength=0.5)
    res = run_experiment(
        spec, pcfg, shards, test, seed, key=key, embed=embed, noise=noise,
        keep_rounds=range(pcfg.n_rounds),
    )

    # The reference drives the party classes one client at a time, in
    # client order, each client a group of one with its own streams.
    shuffles = [RngStream(seed, StreamLabel.DATA, (2, ci)) for ci in range(len(shards))]
    clients = [
        ClientWorker([ci], noise, [RngStream(seed, StreamLabel.NOISE, (ci,))])
        for ci in range(len(shards))
    ]
    server = ServerWorker(key=key, embed=embed)
    model = init_split_model(spec, RngStream(seed, StreamLabel.MODEL_INIT))
    log = MessageLog()
    stats, rows = [], {}
    for t in range(pcfg.n_rounds):
        trained = []
        for ci, (client, shard) in enumerate(zip(clients, shards)):
            client.start_round(model.bottom, model.head, pcfg.opt)
            server.start_round(model.middle, pcfg.opt, 1)
            batch_idx = 0
            for _ in range(pcfg.local_epochs):
                order = shuffles[ci].permutation(len(shard))
                for start in range(0, len(shard), pcfg.batch_size):
                    sel = order[start : start + pcfg.batch_size]
                    x, y = shard.inputs[sel][None], shard.labels[sel][None]
                    (st,), g_final = train_batch(client, server, x, y, log, t, batch_idx)
                    batch_idx += 1
                    stats.append(st)
                    if ci == pcfg.detector_client:
                        rows.setdefault(t, []).append(g_final[0])
            trained.append(
                [seg.replica(0) for seg in (client.bottom, server.middle, client.head)]
            )
        weights = [len(s) for s in shards]
        model = SplitModel(*(fedavg_segments(list(s), weights) for s in zip(*trained)))

    assert list(res.batch_stats) == stats  # client-major, bit for bit
    assert all((st.wm_loss is None) != keyed for st in stats)
    assert sorted(res.grad_rounds) == sorted(rows)
    for t, got in rows.items():
        assert np.array_equal(res.grad_rounds[t], np.vstack(got))
    for name in ("bottom", "middle", "head"):
        assert segments_equal(getattr(res.model, name), getattr(model, name))
    res.message_log.verify_ordering()
    assert len(res.message_log.messages) == 4 * len(stats)
    assert Counter(res.message_log.messages) == Counter(log.messages)
    # One entry per kind per lockstep step: each shard length is one group.
    steps = pcfg.n_rounds * sum(
        pcfg.local_epochs * math.ceil(n / pcfg.batch_size) for n in {len(s) for s in shards}
    )
    assert len(res.message_log.entries) == 4 * steps


def test_run_record_counts_on_the_skewed_split():
    # Two rounds of two local epochs: eight clients of 3 samples take one
    # batch of 10 per epoch, the 39- and 27-sample clients four and three.
    cfg = parse_config(_SKEWED)
    res = train_run(cfg).result
    assert len(res.batch_stats) == 2 * 2 * (8 * 1 + 4 + 3) == 60
    assert len(res.message_log.messages) == 4 * 60
    assert sum(1 for _ in res.message_log.messages) == 4 * 60
    rows = list(res.batch_stats)
    assert len(rows) == 60 and res.batch_stats[-1] == rows[-1]
    # Round 1's metrics row is the mean of its block of 30 client-batches.
    assert res.batch_stats[30:].mean().main_loss == res.metrics[1].main_loss
    assert res.metrics[1].main_loss == float(np.mean([st.main_loss for st in rows[30:]]))
