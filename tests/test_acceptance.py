"""Acceptance gate: one test per shipped guarantee, end to end.

Run `pytest -v tests/test_acceptance.py` to get exactly one PASS/FAIL line
per numbered guarantee. Every test trains real models through the public
entry points (no mocks); the desk and preset runs go through the shipped
recipe, `runner.train_run`. The whole gate takes about a minute and a
half on 2 vCPUs; the per-test docstrings state the individual budgets
where one is part of the guarantee.

Shared fixtures hold the five-seed desk runs (64-wide split model, ten IID
clients, thirty rounds) that several guarantees read from different angles:
the clip bound inspects per-batch norms, fidelity compares accuracies,
calibration borrows the clean models, the removal attacks start from the
seed-0 watermarked bottom, and the detector scores each round's gradient
traffic while the run trains.
"""

import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from splitmark.attacks import finetune, prune, quantize, subspace_penalty
from splitmark.cli import main as cli_main
from splitmark.config import Config, load_config, parse_config
from splitmark.data import Dataset
from splitmark.linalg import RngStream, StreamLabel, orthonormal_columns
from splitmark.nn import (
    LayerSpec,
    SplitSpec,
    backward_segment,
    forward_segment,
    init_split_model,
    softmax_xent,
)
from splitmark.protocol import (
    ClientWorker,
    MessageKind,
    MessageLog,
    ServerWorker,
    train_batch,
)
from splitmark.runner import build_detector, run_attacks, train_run
from splitmark.watermark import (
    EmbedConfig,
    calibrate_threshold,
    keygen,
    project,
    verify,
    wm_gradient,
    wm_loss,
)

from helpers import draw_labels

SEEDS = (0, 1, 2, 3, 4)
TAU = 0.7
PRESET_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "splitmark", "presets")

pytestmark = pytest.mark.slow


# --------------------------------------------------------------------------
# shared run machinery


@dataclass
class RunBundle:
    """One finished training run plus everything needed to re-derive it."""

    cfg: Config
    res: object
    key: object
    shards: list
    test: Dataset
    elapsed: float


def _desk_cfg(seed: int, strength: float | None) -> Config:
    """A desk config with the detector scoring every round in-run."""
    lines = [f"run.seed = {seed}", "detector.enabled = true"]
    if strength is not None:
        lines += ["embed.enabled = true", f"embed.strength = {strength}"]
    return parse_config("\n".join(lines))


def _execute(cfg: Config) -> RunBundle:
    """Train through the shipped recipe, runner.train_run, timing the call."""
    t0 = time.perf_counter()
    res, key, shards, test = train_run(cfg)
    return RunBundle(cfg, res, key, shards, test, time.perf_counter() - t0)


def _final_wsr(bundle: RunBundle, marker: tuple[int, ...] = (2,)) -> float:
    probe = RngStream(bundle.cfg["run.seed"], StreamLabel.VERIFICATION, marker)
    return verify(
        bundle.res.model.bottom,
        bundle.key,
        probe,
        n_samples=bundle.cfg["verify.probes"],
        tau=bundle.cfg["verify.tau"],
    ).wsr


@pytest.fixture(scope="module")
def wm_runs() -> list[RunBundle]:
    """Five-seed desk runs at embedding strength 0.1."""
    return [_execute(_desk_cfg(s, 0.1)) for s in SEEDS]


@pytest.fixture(scope="module")
def clean_runs() -> list[RunBundle]:
    """Five-seed unwatermarked desk controls."""
    return [_execute(_desk_cfg(s, None)) for s in SEEDS]


@pytest.fixture(scope="module")
def heavy_runs() -> list[RunBundle]:
    """Five-seed desk runs at strength 1.0."""
    return [_execute(_desk_cfg(s, 1.0)) for s in SEEDS]


@pytest.fixture(scope="module")
def stealth_runs() -> list[RunBundle]:
    """Five-seed desk runs at strength 0.01."""
    return [_execute(_desk_cfg(s, 0.01)) for s in SEEDS]


# --------------------------------------------------------------------------
# 1. gradient correctness


def _fd_over_params(segments, loss_fn, h: float = 1e-6) -> np.ndarray:
    out = []
    for seg in segments:
        for layer in seg.layers:
            for arr in (layer.w, layer.b):
                flat = arr.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = loss_fn()
                    flat[i] = orig - h
                    down = loss_fn()
                    flat[i] = orig
                    out.append((up - down) / (2.0 * h))
    return np.asarray(out)


def _fd_over_rows(a: np.ndarray, loss_fn, h: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(a)
    flat_a = a.ravel()
    flat_g = grad.ravel()
    for i in range(flat_a.size):
        orig = flat_a[i]
        flat_a[i] = orig + h
        up = loss_fn()
        flat_a[i] = orig - h
        down = loss_fn()
        flat_a[i] = orig
        flat_g[i] = (up - down) / (2.0 * h)
    return grad


def _relative_gap(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(fd)), 1e-12)
    return float(np.linalg.norm(analytic - fd)) / denom


def _network_instance(seed: int):
    """A tiny split model whose pre-activations sit away from the relu
    kink, so central differences are valid at h = 1e-6."""
    spec = SplitSpec(
        bottom=(LayerSpec(4, 5),),
        middle=(LayerSpec(5, 4),),
        head=(LayerSpec(4, 3, "identity"),),
    )
    for attempt in range(50):
        rng = RngStream(1000 * seed + attempt, StreamLabel.MODEL_INIT, (11,))
        model = init_split_model(spec, rng)
        x = rng.normal(5 * 4).reshape(5, 4)
        y = draw_labels(rng, 3, 5)
        a, tb = forward_segment(model.bottom, x)
        s, tm = forward_segment(model.middle, a)
        margin = min(float(np.abs(tb.pre[0]).min()), float(np.abs(tm.pre[0]).min()))
        if margin > 1e-4:
            return model, x, y
    raise AssertionError("no kink-free instance found")


def test_01_analytic_gradients_match_finite_differences():
    """Backprop, watermark-loss, and removal-penalty gradients all agree
    with central finite differences to 1e-5 relative, 20 instances each,
    in under ten seconds."""
    t0 = time.perf_counter()
    for seed in range(20):
        model, x, y = _network_instance(seed)
        segments = [model.bottom, model.middle, model.head]

        def net_loss():
            a, _ = forward_segment(model.bottom, x)
            s, _ = forward_segment(model.middle, a)
            logits, _ = forward_segment(model.head, s)
            return softmax_xent(logits, y)[0]

        a, tb = forward_segment(model.bottom, x)
        s, tm = forward_segment(model.middle, a)
        logits, th = forward_segment(model.head, s)
        _, g_logits = softmax_xent(logits, y)
        g_s, head_grads = backward_segment(model.head, th, g_logits)
        g_a, middle_grads = backward_segment(model.middle, tm, g_s)
        _, bottom_grads = backward_segment(model.bottom, tb, g_a)
        analytic = np.concatenate([bottom_grads, middle_grads, head_grads])
        fd = _fd_over_params(segments, net_loss)
        assert _relative_gap(analytic, fd) < 1e-5

        rng = RngStream(seed, StreamLabel.WATERMARK_KEY, (21,))
        key = keygen(rng, 6, 3)
        act = rng.normal(5 * 6).reshape(5, 6)
        fd = _fd_over_rows(act, lambda: wm_loss(project(act[None], key), key)[0])
        assert _relative_gap(wm_gradient(project(act[None], key), key)[0], fd) < 1e-5

        basis = orthonormal_columns(rng.normal(6 * 2).reshape(6, 2))
        weights = 1.0 + rng.uniform(2)
        _, pen_grad = subspace_penalty(act, basis, weights)
        fd = _fd_over_rows(act, lambda: subspace_penalty(act, basis, weights)[0])
        assert _relative_gap(pen_grad, fd) < 1e-5
    assert time.perf_counter() - t0 < 10.0


# --------------------------------------------------------------------------
# 2. clip invariant


def test_02_clip_bound_holds_on_every_batch(wm_runs):
    """Across a whole 30-round embedding run, every batch keeps the
    injected gradient at or below strength times the task gradient norm;
    the run itself stays under a minute."""
    bundle = wm_runs[0]
    strength = bundle.cfg["embed.strength"]
    checked = 0
    for st in bundle.res.batch_stats:
        if st.g_wm_clipped_norm is None:
            continue
        assert st.g_wm_clipped_norm <= strength * st.g_main_norm * (1.0 + 1e-9)
        checked += 1
    cfg = bundle.cfg
    batches_per_client = math.ceil(
        cfg["data.classes"] * cfg["data.train_per_class"]
        / cfg["partition.clients"]
        / cfg["run.batch_size"]
    )
    expected = (
        cfg["run.rounds"]
        * cfg["partition.clients"]
        * cfg["run.local_epochs"]
        * batches_per_client
    )
    assert checked == expected
    assert bundle.elapsed < 60.0


# --------------------------------------------------------------------------
# 3. subspace confinement


def test_03_watermark_gradient_rows_stay_in_key_span(wm_runs):
    """Every watermark gradient row lies in the span of the key columns to
    1e-10 relative, on training activations, probe activations, and raw
    random activations."""
    bundle = wm_runs[0]
    key = bundle.key
    basis = orthonormal_columns(key.m)
    rng = RngStream(0, StreamLabel.VERIFICATION, (31,))
    bottom = bundle.res.model.bottom
    train_acts, _ = forward_segment(bottom, bundle.shards[0].inputs[:200])
    probes = rng.normal(200 * bottom.in_dim).reshape(200, bottom.in_dim)
    probe_acts, _ = forward_segment(bottom, probes)
    raw = rng.normal(200 * key.d).reshape(200, key.d)
    for acts in (train_acts, probe_acts, raw):
        g = wm_gradient(project(acts[None], key), key)[0]
        residual = g - (g @ basis) @ basis.T
        row_norms = np.linalg.norm(g, axis=1)
        keep = row_norms > 0.0
        assert keep.any()
        rel = np.linalg.norm(residual[keep], axis=1) / row_norms[keep]
        assert float(rel.max()) < 1e-10


# --------------------------------------------------------------------------
# 4. orthogonality


def test_04_task_and_watermark_gradients_are_near_orthogonal(wm_runs):
    """Random unit vectors have mean squared cosine within [0.5/d, 2/d]
    for d in {64, 256, 1024}, and over a real embedding run the mean
    cosine between task and watermark gradients stays under 10/sqrt(d)."""
    rng = RngStream(0, StreamLabel.VERIFICATION, (41,))
    for d in (64, 256, 1024):
        u = rng.normal(4000 * d).reshape(4000, d)
        v = rng.normal(4000 * d).reshape(4000, d)
        cos = (u * v).sum(axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        mean_sq = float((cos**2).mean())
        assert 0.5 / d <= mean_sq <= 2.0 / d

    d = wm_runs[0].key.d
    cosines = [
        st.cos_main_wm for st in wm_runs[0].res.batch_stats if st.cos_main_wm is not None
    ]
    assert cosines
    assert abs(float(np.mean(cosines))) < 10.0 / math.sqrt(d)


# --------------------------------------------------------------------------
# 5. effectiveness / fidelity


def test_05_watermark_reads_back_without_hurting_accuracy(wm_runs, clean_runs):
    """Five-seed desk mean: WSR at least 0.99 and test accuracy within two
    points of the unwatermarked control, all runs inside five minutes."""
    wsrs = [_final_wsr(b) for b in wm_runs]
    acc_wm = [b.res.metrics[-1].test_acc for b in wm_runs]
    acc_clean = [b.res.metrics[-1].test_acc for b in clean_runs]
    assert float(np.mean(wsrs)) >= 0.99
    assert abs(float(np.mean(acc_wm)) - float(np.mean(acc_clean))) <= 0.02
    assert sum(b.elapsed for b in wm_runs) + sum(b.elapsed for b in clean_runs) < 300.0


# --------------------------------------------------------------------------
# 6. null calibration


def test_06_null_calibration_separates_populations(wm_runs, clean_runs):
    """The 5-sigma threshold fit on 20 keys x 5 clean models sits above
    every null WSR and below every watermarked WSR; the null mean is a
    coin flip."""
    calib = calibrate_threshold(
        [b.res.model.bottom for b in clean_runs],
        wm_runs[0].cfg["embed.bits"],
        RngStream(0, StreamLabel.WATERMARK_KEY, (1,)),
        RngStream(0, StreamLabel.VERIFICATION, (4,)),
        n_samples=256,
    )
    assert 0.4 <= calib.mean <= 0.6
    assert float(calib.null_wsrs.max()) < calib.tau_5sigma
    for bundle in wm_runs:
        assert _final_wsr(bundle) > calib.tau_5sigma


# --------------------------------------------------------------------------
# 7. removal robustness


def test_07_watermark_survives_compression_and_finetuning(wm_runs):
    """On the watermarked desk model: int8 quantization moves WSR by less
    than one point, a 100-step fine-tune keeps it at 0.9+, and pruning
    degrades it monotonically while staying above tau at ratio 0.6."""
    bundle = wm_runs[0]
    bottom = bundle.res.model.bottom

    def probe(seg) -> float:
        return verify(
            seg, bundle.key, RngStream(0, StreamLabel.VERIFICATION, (3,)), n_samples=256
        ).wsr

    pre = probe(bottom)
    assert abs(probe(quantize(bottom, "int8")) - pre) < 0.01

    tuned, _ = finetune(
        bottom,
        bundle.shards[0],
        steps=bundle.cfg["attack.finetune_steps"],
        lr=bundle.cfg["attack.finetune_lr"],
        rng=RngStream(0, StreamLabel.ATTACK, (1,)),
        batch_size=bundle.cfg["attack.batch_size"],
        momentum=bundle.cfg["attack.momentum"],
    )
    assert probe(tuned) >= 0.9

    ratios = bundle.cfg["attack.prune_ratios"]
    wsrs = [pre] + [probe(prune(bottom, r)) for r in ratios]
    for earlier, later in zip(wsrs, wsrs[1:]):
        assert later <= earlier + 1e-12
    assert wsrs[ratios.index(0.6) + 1] > TAU


# --------------------------------------------------------------------------
# 8. noise robustness


def test_08_watermark_outlives_accuracy_under_gradient_noise():
    """At gradient SNR 1/100 the watermark still reads back at 0.95+ while
    test accuracy gives up at least ten points against the noise-free
    twin."""
    noisy = _execute(load_config(os.path.join(PRESET_DIR, "noise", "noisy.cfg")))
    clean = _execute(load_config(os.path.join(PRESET_DIR, "noise", "clean.cfg")))
    assert _final_wsr(noisy) >= 0.95
    acc_gap = clean.res.metrics[-1].test_acc - noisy.res.metrics[-1].test_acc
    assert acc_gap >= 0.10


# --------------------------------------------------------------------------
# 9. adaptive removal contrast


def _adaptive_arm(member: str, seed: int) -> dict:
    cfg = load_config(
        os.path.join(PRESET_DIR, "adaptive", member + ".cfg"),
        overrides={"run.seed": seed},
    )
    bundle = _execute(cfg)
    entries = run_attacks(
        cfg, bundle.res.model, bundle.res.grad_rounds, bundle.key, bundle.shards, bundle.test
    )
    (entry,) = [e for e in entries if e["name"] == "adaptive"]
    return entry


def test_09_subspace_attack_separates_loud_from_stealthy():
    """The same logged-gradient subspace attack (16 estimated directions,
    unit penalty) pushes the strength-1.0 watermark below tau while the
    strength-0.01 watermark holds 0.9+, with a 20-point drop gap
    (five-seed means)."""
    hi = [_adaptive_arm("hi", s) for s in SEEDS]
    lo = [_adaptive_arm("lo", s) for s in SEEDS]
    for entry in hi + lo:
        assert entry["k_prime"] == 16
        assert entry["gamma"] == 1.0
    hi_pre = float(np.mean([e["pre_wsr"] for e in hi]))
    hi_post = float(np.mean([e["post_wsr"] for e in hi]))
    lo_pre = float(np.mean([e["pre_wsr"] for e in lo]))
    lo_post = float(np.mean([e["post_wsr"] for e in lo]))
    assert hi_post < TAU
    assert lo_post >= 0.9
    assert (hi_pre - hi_post) - (lo_pre - lo_post) >= 0.2


# --------------------------------------------------------------------------
# 10. detector ordering


def _count_means(bundles: list[RunBundle]) -> list[float]:
    """Each run's mean in-run outlier count per round."""
    return [float(np.mean([m.outliers for m in b.res.metrics])) for b in bundles]


def test_10_detector_flags_only_the_loud_embedding(
    clean_runs, stealth_runs, wm_runs, heavy_runs
):
    """Mean outlier counts order as clean ~ 0.01 ~ 0.1 < 1.0, the loud arm
    at least doubles the clean mean, and both quiet arms sit inside the
    clean runs' min-max band."""
    # Every arm's detector is the clean run's: its reference depends on the
    # seed's shard alone, never on the embedding.
    references = {
        b.cfg["run.seed"]: build_detector(b.cfg, b.shards).reference for b in clean_runs
    }
    for bundle in stealth_runs + wm_runs + heavy_runs:
        reference = build_detector(bundle.cfg, bundle.shards).reference
        assert np.array_equal(reference, references[bundle.cfg["run.seed"]])

    m_clean = _count_means(clean_runs)
    m_stealth = _count_means(stealth_runs)
    m_default = _count_means(wm_runs)
    m_heavy = _count_means(heavy_runs)

    clean_mean = float(np.mean(m_clean))
    heavy_mean = float(np.mean(m_heavy))
    band = (min(m_clean), max(m_clean))

    assert clean_mean < heavy_mean
    assert float(np.mean(m_stealth)) < heavy_mean
    assert float(np.mean(m_default)) < heavy_mean
    assert heavy_mean >= 2.0 * clean_mean
    assert band[0] <= float(np.mean(m_stealth)) <= band[1]
    assert band[0] <= float(np.mean(m_default)) <= band[1]


# --------------------------------------------------------------------------
# 11. determinism


def test_11_preset_reruns_are_byte_identical(tmp_path):
    """Running the same preset twice with the same seed writes byte-equal
    metrics, checkpoint, and key files."""
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli_main(
            ["run", "--preset", "fidelity/lam01", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
    for name in ("metrics.csv", "model.ckpt", "key.txt"):
        first = (outs[0] / name).read_bytes()
        second = (outs[1] / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


# --------------------------------------------------------------------------
# 12. capability boundary


def test_12_parties_exchange_only_boundary_tensors(wm_runs):
    """The message log of a full run shows exactly the four boundary
    tensor kinds in order, and neither party object ever holds the other
    side's secrets: no labels/inputs/segments on the server, no key
    material on the client."""
    bundle = wm_runs[0]
    log = bundle.res.message_log
    log.verify_ordering()
    assert {m.kind for m in log.messages} == {
        MessageKind.ACTIVATION,
        MessageKind.LOGITS,
        MessageKind.INITIAL_GRADIENT,
        MessageKind.FINAL_GRADIENT,
    }
    cfg = bundle.cfg
    batches_per_client = math.ceil(
        cfg["data.classes"] * cfg["data.train_per_class"]
        / cfg["partition.clients"]
        / cfg["run.batch_size"]
    )
    expected = (
        4
        * cfg["run.rounds"]
        * cfg["partition.clients"]
        * cfg["run.local_epochs"]
        * batches_per_client
    )
    assert len(log.messages) == expected
    split_dim = cfg.split_spec().split_dim
    for msg in log.messages:
        assert len(msg.shape) == 2
        assert msg.shape[1] == split_dim

    key = keygen(RngStream(9, StreamLabel.WATERMARK_KEY), 64, 4)
    spec = SplitSpec(
        bottom=(LayerSpec(8, 64),),
        middle=(LayerSpec(64, 64),),
        head=(LayerSpec(64, 4, "identity"),),
    )
    model = init_split_model(spec, RngStream(9, StreamLabel.MODEL_INIT))
    client = ClientWorker([0])
    server = ServerWorker(key, EmbedConfig(strength=0.5))
    client.start_round(model.bottom, model.head, parse_config("").optimizer())
    server.start_round(model.middle, parse_config("").optimizer(), 1)
    rng = RngStream(9, StreamLabel.DATA)
    x = rng.normal(6 * 8).reshape(1, 6, 8)
    y = draw_labels(rng, 4, 6).reshape(1, 6)
    train_batch(client, server, x, y, MessageLog(), 0, 0)

    server_attrs = vars(server)
    for banned in ("labels", "inputs", "bottom", "head", "x", "y"):
        assert banned not in server_attrs
    for value in server_attrs.values():
        assert value is not client.bottom and value is not client.head

    client_attrs = vars(client)
    for banned in ("key", "embed", "m", "bits", "strength"):
        assert banned not in client_attrs
    assert not any(
        isinstance(v, (type(key), EmbedConfig)) for v in client_attrs.values()
    )
