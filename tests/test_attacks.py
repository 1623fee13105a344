"""Noise injection, fine-tuning, pruning, quantization, subspace removal."""

from dataclasses import replace

import numpy as np
import pytest

from splitmark.attacks import (
    QUANT_SCHEMES,
    NoiseSpec,
    SubspaceEstimate,
    adaptive_remove,
    estimate_subspace,
    finetune,
    inject_noise,
    prune,
    quantize,
    subspace_affinity,
    subspace_penalty,
)
from splitmark.config import parse_config
from splitmark.data import make_blobs
from splitmark.linalg import RngStream, StreamLabel, orthonormal_columns, pca
from splitmark.nn import LayerSpec, forward_segment, init_segment

INT4_STEP = 0.5714285714285714  # 4 / 7: max 4.0 over 7 positive levels

# The adaptive attack at the attack.* schema defaults.
ADAPTIVE = parse_config("").adaptive_attack()


def _rng(seed=0, path=(0,)):
    return RngStream(seed, StreamLabel.ATTACK, path)


def _shard(seed=0, per_class=30, classes=3, dim=6):
    rng = RngStream(seed, StreamLabel.DATA, (7,))
    return make_blobs(rng, per_class, classes, dim, 0.4)


def _bottom(seed=0, in_dim=6, width=10):
    specs = [LayerSpec(in_dim, width, "relu"), LayerSpec(width, width, "relu")]
    return init_segment(specs, RngStream(seed, StreamLabel.MODEL_INIT, (0,)))


def _params(segment):
    return [(layer.w.copy(), layer.b.copy()) for layer in segment.layers]


def _same_params(a, b):
    return all(
        np.array_equal(wa, lb.w) and np.array_equal(ba, lb.b)
        for (wa, ba), lb in zip(a, b.layers)
    )


# ---------------------------------------------------------------- noise


def test_noise_spec_rejects_nonpositive_snr():
    with pytest.raises(ValueError):
        NoiseSpec(0.0)
    with pytest.raises(ValueError):
        NoiseSpec(-1.0)
    NoiseSpec(float("inf"))  # disabled but valid


def test_inject_noise_snr_is_exact():
    g = _rng(1).normal(80).reshape(8, 10)
    for snr in (0.01, 1.0, 100.0):
        noisy = inject_noise(g, NoiseSpec(snr), _rng(2))
        n = noisy - g
        ratio = (g**2).sum() / (n**2).sum()
        assert abs(ratio - snr) / snr < 1e-12


def test_inject_noise_unit_snr_matches_signal_norm():
    g = _rng(3).normal(40).reshape(4, 10)
    n = inject_noise(g, NoiseSpec(1.0), _rng(4)) - g
    assert np.isclose(np.linalg.norm(n), np.linalg.norm(g), rtol=1e-12)


def test_inject_noise_passthrough_cases():
    g = _rng(5).normal(20).reshape(2, 10)
    out = inject_noise(g, NoiseSpec(float("inf")), _rng(6))
    assert np.array_equal(out, g) and out is not g
    zero = np.zeros((2, 10))
    assert np.array_equal(inject_noise(zero, NoiseSpec(0.01), _rng(6)), zero)


def test_inject_noise_deterministic():
    g = _rng(7).normal(30).reshape(3, 10)
    a = inject_noise(g, NoiseSpec(0.5), _rng(8))
    b = inject_noise(g, NoiseSpec(0.5), _rng(8))
    assert np.array_equal(a, b)


# ------------------------------------------------------------- finetune


def test_finetune_zero_steps_keeps_bottom():
    bottom = _bottom()
    before = _params(bottom)
    out, head = finetune(bottom, _shard(), 0, 0.01, _rng(9))
    assert _same_params(before, out)
    assert _same_params(before, bottom)  # input never mutated
    assert head.layers[-1].w.shape == (bottom.out_dim, 3)


def test_finetune_zero_lr_keeps_bottom():
    bottom = _bottom()
    before = _params(bottom)
    out, _ = finetune(bottom, _shard(), 10, 0.0, _rng(10))
    assert _same_params(before, out)


def test_finetune_updates_copy_not_input():
    bottom = _bottom()
    before = _params(bottom)
    out, _ = finetune(bottom, _shard(), 25, 0.05, _rng(11))
    assert _same_params(before, bottom)
    assert not _same_params(before, out)


def test_finetune_learns_the_shard():
    # The surrogate head starts untrained; after a few hundred steps the
    # bottom+head pair should beat chance by a wide margin on blob data.
    from splitmark.nn import accuracy

    shard = _shard(seed=2, per_class=60)
    bottom, head = finetune(_bottom(seed=3), shard, 300, 0.05, _rng(12))
    a, _ = forward_segment(bottom, shard.inputs)
    logits, _ = forward_segment(head, a)
    assert accuracy(logits, shard.labels) > 0.8


def test_finetune_rejects_bad_arguments():
    with pytest.raises(ValueError):
        finetune(_bottom(), _shard(), -1, 0.01, _rng())
    with pytest.raises(ValueError):
        finetune(_bottom(), _shard(), 1, -0.01, _rng())
    with pytest.raises(ValueError):
        finetune(_bottom(), _shard(), 1, 0.01, _rng(), batch_size=0)


# ---------------------------------------------------------------- prune


def test_prune_hand_case():
    bottom = _bottom(in_dim=4, width=2)
    bottom.layers[0].w[...] = np.array(
        [[3.0, -3.0], [1.0, -1.0], [0.1, -0.1], [0.01, -0.01]]
    )
    bottom.layers[1].w[...] = np.array([[5.0, 5.0], [5.0, 5.0]])
    pruned = prune(bottom, 4 / 12)  # the four smallest of twelve weights
    expect = np.array([[3.0, -3.0], [1.0, -1.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(pruned.layers[0].w, expect)
    assert np.array_equal(pruned.layers[1].w, bottom.layers[1].w)


def test_prune_ratio_zero_and_one():
    bottom = _bottom()
    same = prune(bottom, 0.0)
    assert _same_params(_params(bottom), same)
    dead = prune(bottom, 1.0)
    for layer, orig in zip(dead.layers, bottom.layers):
        assert np.all(layer.w == 0.0)
        assert np.array_equal(layer.b, orig.b)  # biases survive


def test_prune_count_is_rounded():
    bottom = _bottom(in_dim=5, width=2)  # 5*2 + 2*2 = 14 weights
    pruned = prune(bottom, 0.3)  # round(4.2) = 4
    zeros = sum(int((layer.w == 0.0).sum()) for layer in pruned.layers)
    assert zeros == 4


def test_prune_idempotent():
    bottom = _bottom(seed=4)
    once = prune(bottom, 0.5)
    twice = prune(once, 0.5)
    assert _same_params(_params(once), twice)


def test_prune_monotone_in_ratio():
    bottom = _bottom(seed=5)
    counts = [
        int(sum((layer.w != 0.0).sum() for layer in prune(bottom, r).layers))
        for r in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    ]
    assert counts == sorted(counts, reverse=True)


def test_prune_rejects_bad_ratio():
    with pytest.raises(ValueError):
        prune(_bottom(), -0.1)
    with pytest.raises(ValueError):
        prune(_bottom(), 1.5)


# ------------------------------------------------------------- quantize


def test_quantize_zero_segment_stays_zero():
    bottom = _bottom()
    for layer in bottom.layers:
        layer.w[...] = 0.0
    for scheme in QUANT_SCHEMES:
        q = quantize(bottom, scheme)
        for layer in q.layers:
            assert np.all(layer.w == 0.0) and np.all(np.isfinite(layer.b))


def test_quantize_fp16_matches_half_roundtrip():
    bottom = _bottom(seed=6)
    q = quantize(bottom, "fp16")
    for layer, orig in zip(q.layers, bottom.layers):
        assert np.array_equal(
            layer.w, orig.w.astype(np.float16).astype(np.float64)
        )


def test_quantize_int8_error_bound():
    bottom = _bottom(seed=7)
    q = quantize(bottom, "int8")
    for layer, orig in zip(q.layers, bottom.layers):
        step = np.abs(orig.w).max() / 127.0
        assert np.abs(layer.w - orig.w).max() <= step / 2 + 1e-15


def test_quantize_int4_levels_enumerated():
    bottom = _bottom(in_dim=4, width=1)
    bottom.layers[0].w[...] = np.array([[4.0], [2.0], [0.3], [-4.0]])
    q = quantize(bottom, "int4")
    got = q.layers[0].w.ravel()
    # 2.0 / step = 3.5 rounds half-to-even onto the 4th tick
    assert np.allclose(
        got, [4.0, 4.0 * INT4_STEP, INT4_STEP, -4.0], rtol=0, atol=1e-15
    )
    # every output sits on the 15-level grid k * step, |k| <= 7
    ticks = got / INT4_STEP
    assert np.allclose(ticks, np.round(ticks), atol=1e-12)
    assert np.abs(np.round(ticks)).max() <= 7


def test_prune_and_quantize_results_drive_the_forward_pass():
    bottom = _bottom(seed=8)
    x = RngStream(8, StreamLabel.DATA, (1,)).normal(30).reshape(5, 6)
    attacked = [prune(bottom, 0.5)] + [quantize(bottom, s) for s in QUANT_SCHEMES]
    for seg in attacked:
        h = x
        for layer in seg.layers:
            h = np.maximum(h @ layer.w + layer.b, 0.0)
        out, _ = forward_segment(seg, x)
        assert np.array_equal(out, h)
        assert np.array_equal(
            seg.params,
            np.concatenate([np.ravel(t) for layer in seg.layers for t in (layer.w, layer.b)]),
        )
        assert not np.array_equal(out, forward_segment(bottom, x)[0])


def test_quantize_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        quantize(_bottom(), "int2")


# ----------------------------------------------------- subspace estimate


def _planted_logs(seed, d=16, n_main=2, k_wm=3, rows=200, wm_scale=1.0):
    """Gradient logs with known task and watermark spans.

    Late rows live in span(U); early rows carry the same task part plus a
    watermark component in span(W), with U and W mutually orthogonal.
    """
    rng = _rng(seed, (20,))
    basis = orthonormal_columns(rng.normal(d * (n_main + k_wm)).reshape(d, -1))
    u, w = basis[:, :n_main], basis[:, n_main:]
    late = rng.normal(rows * n_main).reshape(rows, n_main) @ u.T
    early = (
        rng.normal(rows * n_main).reshape(rows, n_main) @ u.T
        + wm_scale * rng.normal(rows * k_wm).reshape(rows, k_wm) @ w.T
    )
    return early, late, u, w


def test_estimate_recovers_planted_watermark_span():
    early, late, u, w = _planted_logs(0)
    est = estimate_subspace(early, late, 2, 3)
    assert subspace_affinity(est.wm_basis, w) > 0.99
    assert subspace_affinity(est.main_basis, u) > 0.99


def test_estimate_zero_residual_gives_zero_variances():
    early, late, _, _ = _planted_logs(1, wm_scale=0.0)
    est = estimate_subspace(early, late, 2, 3)
    assert np.all(np.abs(est.variances) < 1e-18)


def test_estimate_bases_are_orthonormal():
    early, late, _, _ = _planted_logs(2)
    est = estimate_subspace(early, late, 2, 3)
    for basis in (est.main_basis, est.wm_basis):
        gram = basis.T @ basis
        assert np.abs(gram - np.eye(basis.shape[1])).max() < 1e-8


def test_estimate_rejects_mismatched_logs():
    early, late, _, _ = _planted_logs(3)
    with pytest.raises(ValueError):
        estimate_subspace(early[:, :-1], late, 2, 3)
    with pytest.raises(ValueError):
        estimate_subspace(early[:1], late, 2, 3)  # too few rows for pca


# ------------------------------------------------------ subspace penalty


def test_subspace_penalty_hand_case():
    a = np.zeros((1, 5))
    a[0, 0] = 2.0
    basis = np.zeros((5, 1))
    basis[0, 0] = 1.0
    loss, grad = subspace_penalty(a, basis, np.array([3.0]))
    assert loss == 12.0  # 3 * (2)^2
    expect = np.zeros((1, 5))
    expect[0, 0] = 12.0  # 2/batch * proj * w * v = 2 * 2 * 3
    assert np.array_equal(grad, expect)


def test_subspace_penalty_gradient_matches_fd():
    rng = _rng(21)
    a = rng.normal(24).reshape(3, 8)
    basis = orthonormal_columns(rng.normal(16).reshape(8, 2))
    weights = np.abs(rng.normal(2)) + 0.1
    _, grad = subspace_penalty(a, basis, weights)
    h = 1e-6
    worst = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            ap, am = a.copy(), a.copy()
            ap[i, j] += h
            am[i, j] -= h
            fd = (
                subspace_penalty(ap, basis, weights)[0]
                - subspace_penalty(am, basis, weights)[0]
            ) / (2 * h)
            denom = max(1.0, abs(fd))
            worst = max(worst, abs(fd - grad[i, j]) / denom)
    assert worst < 1e-6


def test_subspace_penalty_gradient_stays_in_span():
    rng = _rng(22)
    a = rng.normal(40).reshape(5, 8)
    basis = orthonormal_columns(rng.normal(24).reshape(8, 3))
    _, grad = subspace_penalty(a, basis, np.ones(3))
    residual = grad - (grad @ basis) @ basis.T
    assert np.abs(residual).max() < 1e-12


def test_subspace_penalty_rejects_shape_mismatch():
    a = np.ones((2, 6))
    basis = np.eye(6)[:, :2]
    with pytest.raises(ValueError):
        subspace_penalty(a, basis, np.ones(3))
    with pytest.raises(ValueError):
        subspace_penalty(a, np.eye(5)[:, :2], np.ones(2))


# ----------------------------------------------------- subspace affinity


def test_affinity_extremes():
    q = np.eye(8)[:, :3]
    assert subspace_affinity(q, q) == pytest.approx(1.0)
    other = np.eye(8)[:, 3:6]
    assert subspace_affinity(q, other) == pytest.approx(0.0)


def test_affinity_of_random_subspaces_near_ratio():
    # two random k-dim subspaces of R^d overlap about k/d on average
    d, k = 64, 16
    rng = _rng(23)
    vals = []
    for _ in range(20):
        a = orthonormal_columns(rng.normal(d * k).reshape(d, k))
        b = orthonormal_columns(rng.normal(d * k).reshape(d, k))
        vals.append(subspace_affinity(a, b))
    assert 0.5 * k / d < float(np.mean(vals)) < 2.0 * k / d


# -------------------------------------------------------- attack config


def test_adaptive_config_validation():
    replace(ADAPTIVE)  # the schema defaults are valid
    with pytest.raises(ValueError):
        replace(ADAPTIVE, rounds_early=(3, 3))
    with pytest.raises(ValueError):
        replace(ADAPTIVE, rounds_late=(-1, 5))
    with pytest.raises(ValueError):
        replace(ADAPTIVE, n_main=0)
    with pytest.raises(ValueError):
        replace(ADAPTIVE, gamma=-0.5)
    with pytest.raises(ValueError):
        replace(ADAPTIVE, ft_lr=-1e-4)
    # the fine-tune schedule is bounded by finetune's check and the optimizer
    for field, bad in (("ft_steps", -1), ("batch_size", 0), ("momentum", 1.0)):
        with pytest.raises(ValueError):
            replace(ADAPTIVE, **{field: bad})


def test_adaptive_remove_with_zero_gamma_is_plain_finetune():
    early, late, _, _ = _planted_logs(4, d=10)
    est = estimate_subspace(early, late, 2, 3)
    cfg = replace(
        ADAPTIVE, gamma=0.0, ft_steps=40, ft_lr=0.02, batch_size=16, momentum=0.9
    )
    shard = _shard(seed=8)
    a, _ = adaptive_remove(_bottom(seed=9), shard, est, cfg, _rng(24))
    b, _ = finetune(_bottom(seed=9), shard, 40, 0.02, _rng(24), 16, 0.9)
    assert _same_params(_params(a), b)


def test_adaptive_remove_drains_penalized_direction():
    # Plant the penalty on the dominant activation direction and check the
    # attack pulls energy out of it while plain fine-tuning does not.
    shard = _shard(seed=10, per_class=50)
    bottom = _bottom(seed=11)
    acts, _ = forward_segment(bottom, shard.inputs)
    basis, variances = pca(acts, 2)
    est = SubspaceEstimate(np.zeros((bottom.out_dim, 0)), basis, variances)
    cfg = replace(ADAPTIVE, gamma=30.0, ft_steps=150, ft_lr=0.02)

    def energy(seg):
        a, _ = forward_segment(seg, shard.inputs)
        return float(((a @ basis) ** 2).sum(axis=1).mean())

    attacked, _ = adaptive_remove(bottom, shard, est, cfg, _rng(25))
    plain, _ = finetune(bottom, shard, 150, 0.02, _rng(25))
    assert energy(attacked) < 0.2 * energy(bottom)
    assert energy(attacked) < 0.2 * energy(plain)
