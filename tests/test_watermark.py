"""Key generation, the watermark loss/gradient, clipping, verification."""

import math

import numpy as np
import pytest

from splitmark.linalg import RngStream, StreamLabel, gaussian_matrix, orthonormal_columns
from splitmark.nn import LayerSpec, init_segment
from splitmark.watermark import (
    CALIBRATION_KEYS,
    EmbedConfig,
    WatermarkKey,
    adaptive_clip,
    calibrate_threshold,
    compose,
    keygen,
    load_key,
    project,
    save_key,
    summarize_null,
    verify,
    wm_gradient,
    wm_loss,
)

from helpers import segment_of

LN2 = 0.6931471805599453


def _clip(g_wm, g_main, cfg):
    """adaptive_clip on a stack of one, given the two Frobenius norms, as
    grad_reply calls it; returns replica 0."""
    return adaptive_clip(
        g_wm[None], cfg, [math.sqrt((g_wm**2).sum())], [math.sqrt((g_main**2).sum())]
    )[0]


def _loss(a, key):
    """wm_loss of one batch, as replica 0 of a stack of one."""
    return wm_loss(project(a[None], key), key)[0]


def _key(seed=0, d=32, k=8):
    return keygen(RngStream(seed, StreamLabel.WATERMARK_KEY), d, k)


def test_keygen_deterministic():
    a = _key(5)
    b = _key(5)
    assert np.array_equal(a.m, b.m)
    assert np.array_equal(a.bits, b.bits)


def test_keygen_bit_balance():
    with pytest.warns(UserWarning, match="exceeds carrier dimension"):
        key = _key(1, d=4, k=1000)  # wide key purely for bit statistics
    # binomial 3 sigma around 0.5 is about +-0.047
    assert 0.45 < key.bits.mean() < 0.55


def test_keygen_span_overlap_scales_as_one_over_d():
    # Monte-Carlo oracle for the orthogonality statistic: columns of
    # independent keys are random directions, mean squared cosine about 1/d.
    d, k = 256, 16
    vals = []
    for trial in range(8):
        a = _key(100 + trial, d, k).m
        b = _key(200 + trial, d, k).m
        an = a / np.linalg.norm(a, axis=0)
        bn = b / np.linalg.norm(b, axis=0)
        vals.append(((an.T @ bn) ** 2).mean())
    mean = float(np.mean(vals))
    assert 0.2 / d < mean < 5.0 / d


def test_keygen_warns_when_k_exceeds_d():
    with pytest.warns(UserWarning):
        keygen(RngStream(0, StreamLabel.WATERMARK_KEY), 4, 8)


def test_key_validation():
    with pytest.raises(ValueError):
        WatermarkKey(np.eye(3), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        WatermarkKey(np.eye(3), np.array([1.0, 0.5, 0.0]))


def test_wm_loss_at_zero_projection_is_ln2():
    key = _key(2)
    a = np.zeros((4, key.d))
    assert np.isclose(_loss(a, key), LN2, atol=1e-12)


def test_wm_loss_single_bit_closed_form():
    # projection 2.0 toward bit 1: BCE = ln(1 + e^-2)
    key = WatermarkKey(np.array([[1.0]]), np.array([1.0]))
    a = np.array([[2.0]])
    assert np.isclose(_loss(a, key), 0.1269280110429726, atol=1e-12)


def test_wm_loss_saturates_to_zero():
    key = WatermarkKey(np.array([[1.0]]), np.array([1.0]))
    assert _loss(np.array([[40.0]]), key) < 1e-12


def test_wm_gradient_matches_finite_differences():
    rng = RngStream(3, StreamLabel.WATERMARK_KEY)
    key = _key(3, d=32, k=8)
    a = gaussian_matrix(rng.child(1), 4, 32)
    g = wm_gradient(project(a[None], key), key)[0]
    h = 1e-6
    worst = 0.0
    for idx in range(0, a.size, 7):
        orig = a.ravel()[idx]
        a.ravel()[idx] = orig + h
        up = _loss(a, key)
        a.ravel()[idx] = orig - h
        down = _loss(a, key)
        a.ravel()[idx] = orig
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - g.ravel()[idx]) / max(1e-8, abs(g.ravel()[idx])))
    assert worst < 1e-6


def test_wm_gradient_vanishes_when_converged():
    key = _key(4, d=16, k=4)
    # saturate projections toward the target bits
    signs = np.where(key.bits > 0.5, 1.0, -1.0)
    a = 20.0 * (np.linalg.pinv(key.m.T) @ signs)[None, :]
    g = wm_gradient(project(a[None], key), key)[0]
    assert np.linalg.norm(g) < 1e-6


def test_wm_gradient_lives_in_key_span():
    key = _key(5, d=24, k=6)
    a = gaussian_matrix(RngStream(9, StreamLabel.DATA), 5, 24)
    g = wm_gradient(project(a[None], key), key)[0]
    q = orthonormal_columns(key.m)
    residual = g - (g @ q) @ q.T
    rows = np.linalg.norm(residual, axis=1)
    norms = np.linalg.norm(g, axis=1)
    assert np.all(rows < 1e-10 * np.maximum(norms, 1e-300))


def test_adaptive_clip_min_branch():
    cfg = EmbedConfig(strength=0.1)
    g_wm = np.zeros((1, 4))
    g_wm[0, 0] = 10.0
    g_main = np.zeros((1, 4))
    g_main[0, 1] = 2.0
    out = _clip(g_wm, g_main, cfg)
    assert np.isclose(np.linalg.norm(out), 0.2)


def test_adaptive_clip_pass_through():
    cfg = EmbedConfig(strength=0.1)
    g_wm = np.zeros((1, 4))
    g_wm[0, 0] = 0.1
    g_main = np.zeros((1, 4))
    g_main[0, 1] = 2.0
    out = _clip(g_wm, g_main, cfg)
    assert np.array_equal(out, g_wm)


def test_adaptive_clip_zero_watermark_gradient():
    cfg = EmbedConfig(strength=0.5)
    out = _clip(np.zeros((2, 3)), np.ones((2, 3)), cfg)
    assert np.array_equal(out, np.zeros((2, 3)))


def test_clip_bound_randomized():
    rng = np.random.default_rng(11)
    for trial in range(50):
        lam = float(rng.uniform(0.01, 2.0))
        cfg = EmbedConfig(strength=lam)
        g_wm = rng.normal(size=(8, 16)) * rng.uniform(0.01, 100)
        g_main = rng.normal(size=(8, 16)) * rng.uniform(0.01, 100)
        out = _clip(g_wm, g_main, cfg)
        assert np.linalg.norm(out) <= lam * np.linalg.norm(g_main) * (1 + 1e-9)
        # never amplified
        assert np.linalg.norm(out) <= np.linalg.norm(g_wm) * (1 + 1e-12)


def test_compose_identity_when_clipped_to_zero():
    g = np.array([[1.0, 2.0]])
    assert np.array_equal(compose(g, np.zeros_like(g)), g)


def test_compose_hand_case():
    assert np.allclose(
        compose(np.array([[1.0, 0.0]]), np.array([[0.0, 0.5]])), [[1.0, 0.5]]
    )


def _planted_bottom(key, gain=30.0):
    """A linear bottom whose activations saturate the key projections, so
    every probe recovers the planted bits exactly."""
    signs = np.where(key.bits > 0.5, 1.0, -1.0)
    target = gain * (np.linalg.pinv(key.m.T) @ signs)
    w = np.zeros((4, key.d))
    spec = LayerSpec(4, key.d, "identity")
    return segment_of((spec, w, target))


def test_verify_perfect_match():
    key = _key(6, d=16, k=4)
    bottom = _planted_bottom(key)
    report = verify(bottom, key, RngStream(0, StreamLabel.VERIFICATION), n_samples=64)
    assert report.wsr == 1.0
    assert report.passed
    assert np.array_equal(report.per_bit, np.ones(4))


def test_verify_anti_match():
    key = _key(6, d=16, k=4)
    flipped = WatermarkKey(key.m, 1.0 - key.bits)
    bottom = _planted_bottom(key)
    report = verify(bottom, flipped, RngStream(0, StreamLabel.VERIFICATION), n_samples=64)
    assert report.wsr == 0.0
    assert not report.passed


def test_verify_null_mean_near_half():
    # Clean (never-watermarked) model scored against 50 random keys.
    bottom = init_segment(
        [LayerSpec(8, 32), LayerSpec(32, 32)], RngStream(7, StreamLabel.MODEL_INIT)
    )
    wsrs = [
        verify(
            bottom,
            _key(1000 + j, d=32, k=8),
            RngStream(j, StreamLabel.VERIFICATION),
            n_samples=64,
        ).wsr
        for j in range(50)
    ]
    assert 0.4 < float(np.mean(wsrs)) < 0.6


def test_verify_threshold_is_strict():
    key = _key(6, d=16, k=4)
    bottom = _planted_bottom(key)
    report = verify(bottom, key, RngStream(0, StreamLabel.VERIFICATION), tau=1.0)
    assert not report.passed


def test_verify_dimension_mismatch():
    key = _key(0, d=8, k=2)
    bottom = init_segment([LayerSpec(4, 16)], RngStream(0, StreamLabel.MODEL_INIT))
    with pytest.raises(ValueError):
        verify(bottom, key, RngStream(0, StreamLabel.VERIFICATION))


def test_summarize_null_floors_zero_spread():
    calib = summarize_null([0.5, 0.5, 0.5])
    assert calib.degenerate
    assert np.isclose(calib.tau_5sigma, 0.5 + 5e-6)


def test_summarize_null_clamps_to_one():
    calib = summarize_null([0.9, 1.0, 0.95, 0.99, 1.0, 0.9])
    assert calib.tau_5sigma <= 1.0


def test_calibrate_threshold_separates_populations():
    rng = RngStream(0, StreamLabel.MODEL_INIT)
    cleans = [
        init_segment([LayerSpec(6, 24), LayerSpec(24, 24)], rng.child(i))
        for i in range(3)
    ]
    calib = calibrate_threshold(
        cleans,
        k=8,
        key_rng=RngStream(0, StreamLabel.WATERMARK_KEY, (1,)),
        probe_rng=RngStream(0, StreamLabel.VERIFICATION, (4,)),
        n_samples=64,
    )
    assert 0.4 < calib.mean < 0.6
    assert calib.tau_5sigma > float(calib.null_wsrs.max()) or calib.degenerate
    assert len(calib.null_wsrs) == 3 * CALIBRATION_KEYS


def test_calibrate_threshold_validation():
    seg = init_segment([LayerSpec(4, 8)], RngStream(0, StreamLabel.MODEL_INIT))
    with pytest.raises(ValueError):
        calibrate_threshold(
            [seg],
            k=4,
            key_rng=RngStream(0, StreamLabel.WATERMARK_KEY),
            probe_rng=RngStream(0, StreamLabel.VERIFICATION),
        )


def test_key_file_roundtrip(tmp_path):
    key = _key(8, d=12, k=5)
    path = tmp_path / "key.txt"
    save_key(key, str(path))
    clone = load_key(str(path))
    assert np.array_equal(clone.m, key.m)
    assert np.array_equal(clone.bits, key.bits)
    assert clone.seed == key.seed


def test_key_file_detects_corruption(tmp_path):
    key = _key(8, d=6, k=3)
    path = tmp_path / "key.txt"
    save_key(key, str(path))
    text = path.read_text()
    path.write_text(text.replace("bits", "bats", 1))
    with pytest.raises(ValueError):
        load_key(str(path))
