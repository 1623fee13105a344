"""Watermark removal and evasion attacks against the client's bottom segment.

The attacker operates with realistic access: it owns the bottom segment it
received through training, its own data shard, and the gradient messages
it was sent. It never sees the key. Post-hoc attacks (fine-tuning,
pruning, quantization) perturb the trained bottom; noise injection runs
during training; the adaptive attack mines the received gradients for the
watermark subspace and fine-tunes with a penalty that drains activation
energy out of it.

Since the attacker holds only the bottom, fine-tuning style attacks
attach a freshly initialized linear head at the split point and train
bottom plus surrogate head jointly on the attacker's shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .linalg import RngStream, as_matrix, orthonormal_columns, pca
from .nn import (
    LayerSpec,
    OptimizerConfig,
    Segment,
    backward_segment,
    forward_segment,
    init_segment,
    softmax_xent,
)

__all__ = [
    "NoiseSpec",
    "inject_noise",
    "finetune",
    "prune",
    "quantize",
    "SubspaceEstimate",
    "AdaptiveAttackConfig",
    "estimate_subspace",
    "subspace_penalty",
    "subspace_affinity",
    "adaptive_remove",
    "QUANT_SCHEMES",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Gradient noise level as a signal-to-noise ratio; inf disables it."""

    snr: float

    def __post_init__(self):
        if not (self.snr > 0.0):
            raise ValueError(f"snr must be positive (or inf), got {self.snr}")


def inject_noise(g: np.ndarray, spec: NoiseSpec, rng: RngStream) -> np.ndarray:
    """Add Gaussian noise scaled so ||g||^2 / ||n||^2 equals spec.snr exactly.

    n = z * ||g|| / (sqrt(snr) * ||z||) for z drawn IID standard normal.
    Infinite snr, a zero gradient, or a (measure-zero) zero noise draw all
    return the gradient unchanged. g is a finite float64 array, as the
    server's reply is once grad_reply has checked it.
    """
    if math.isinf(spec.snr):
        return g.copy()
    g_norm = float(np.sqrt((g**2).sum()))
    if g_norm == 0.0:
        return g.copy()
    z = rng.normal(g.size).reshape(g.shape)
    z_norm = float(np.sqrt((z**2).sum()))
    if z_norm == 0.0:
        return g.copy()
    return g + z * (g_norm / (math.sqrt(spec.snr) * z_norm))


def check_finetune(steps: int, batch_size: int) -> None:
    """finetune's bounds on its schedule; lr and momentum are the optimizer's."""
    if steps < 0 or batch_size < 1:
        raise ValueError(f"need steps >= 0 and batch_size >= 1, got {steps}, {batch_size}")


def finetune(
    bottom: Segment,
    shard: Dataset,
    steps: int,
    lr: float,
    rng: RngStream,
    batch_size: int = 32,
    momentum: float = 0.9,
    penalty=None,
) -> tuple[Segment, Segment]:
    """Fine-tune the stolen bottom on attacker data with a surrogate head.

    Trains a copy of the bottom with a fresh linear head for `steps`
    batches and returns (attacked bottom, surrogate head); the pair forms
    the attacker's standalone model. penalty, when given, maps the split
    activations to (loss, dLoss/dA) with its weight already applied; the
    gradient is added to the task gradient at the split point. steps == 0
    or lr == 0 leaves the bottom's parameters exactly unchanged.
    """
    check_finetune(steps, batch_size)
    if len(shard) < 1:
        raise ValueError("attacker shard is empty")
    work = bottom.copy()
    head = init_segment(
        [LayerSpec(bottom.out_dim, shard.n_classes, "identity")], rng
    )
    opt = OptimizerConfig(lr=lr, momentum=momentum).build()
    order = np.empty(0, dtype=np.int64)
    pos = 0
    for _ in range(steps):
        if pos + batch_size > len(order):
            order = rng.permutation(len(shard))
            pos = 0
        sel = order[pos : pos + batch_size]
        pos += batch_size
        x, y = shard.inputs[sel], shard.labels[sel]
        a, tape_b = forward_segment(work, x)
        logits, tape_h = forward_segment(head, a)
        _, g_logits = softmax_xent(logits, y)
        g_split, head_grads = backward_segment(head, tape_h, g_logits)
        if penalty is not None:
            _, g_pen = penalty(a)
            g_split = g_split + g_pen
        _, bottom_grads = backward_segment(work, tape_b, g_split, need_input_grad=False)
        opt.step([work, head], [bottom_grads, head_grads])
    return work, head


def check_prune_ratios(ratios) -> None:
    bad = [r for r in ratios if not 0.0 <= r <= 1.0]
    if bad:
        raise ValueError(f"prune ratios must lie in [0, 1], got {bad}")


def prune(segment: Segment, ratio: float) -> Segment:
    """Zero the globally smallest-magnitude fraction of weights.

    Biases are untouched. The count is round(ratio * n_weights); magnitude
    ties resolve by stable flattening order (layer by layer, row major),
    which also makes the operation idempotent at a fixed ratio.
    """
    check_prune_ratios([ratio])
    out = segment.copy()
    flats = [layer.w.ravel() for layer in out.layers]
    mags = np.concatenate([np.abs(f) for f in flats])
    n_zero = int(round(ratio * mags.size))
    if n_zero == 0:
        return out
    victims = np.argsort(mags, kind="stable")[:n_zero]
    mask = np.zeros(mags.size, dtype=bool)
    mask[victims] = True
    offset = 0
    for flat in flats:
        flat[mask[offset : offset + flat.size]] = 0.0
        offset += flat.size
    return out


QUANT_SCHEMES = ("fp16", "int8", "int4")


def _uniform_quantize(t: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric per-tensor grid: 2^bits - 1 levels over [-max|t|, max|t|]."""
    mx = float(np.max(np.abs(t)))
    if mx == 0.0:
        return t.copy()
    half_levels = (2**bits - 2) // 2  # e.g. 127 for int8, 7 for int4
    step = mx / half_levels
    return np.round(t / step) * step


def check_quant_schemes(schemes) -> None:
    bad = [s for s in schemes if s not in QUANT_SCHEMES]
    if bad:
        raise ValueError(f"unknown schemes {bad}, expected one of {QUANT_SCHEMES}")


def quantize(segment: Segment, scheme: str) -> Segment:
    """Simulate weight quantization; values are dequantized back to float64.

    fp16 rounds every parameter to the nearest half-precision value (10-bit
    mantissa); int8/int4 use a symmetric uniform grid per parameter tensor.
    """
    check_quant_schemes([scheme])
    out = segment.copy()
    for layer in out.layers:
        for t in (layer.w, layer.b):
            if scheme == "fp16":
                t[...] = t.astype(np.float16)
            else:
                t[...] = _uniform_quantize(t, 8 if scheme == "int8" else 4)
    return out


@dataclass(frozen=True)
class SubspaceEstimate:
    """Attacker's reconstruction of the watermark carrier directions.

    main_basis spans the task-gradient directions mined from late
    training; wm_basis spans what is left of the early gradients after
    that span is projected out, with its PCA variances as weights.
    """

    main_basis: np.ndarray
    wm_basis: np.ndarray
    variances: np.ndarray


@dataclass(frozen=True)
class AdaptiveAttackConfig:
    """Subspace-removal attack schedule.

    rounds_early / rounds_late are half-open [start, stop) round ranges
    whose logged gradients feed the two PCA passes. n_main and k_prime are
    the retained component counts. Config.adaptive_attack fills every
    field from the attack.* keys, whose schema holds the defaults.
    """

    rounds_early: tuple[int, int]
    rounds_late: tuple[int, int]
    n_main: int
    k_prime: int
    gamma: float
    ft_steps: int
    ft_lr: float
    batch_size: int
    momentum: float

    def __post_init__(self):
        for name in ("rounds_early", "rounds_late"):
            window = getattr(self, name)
            if len(window) != 2 or window[0] < 0 or window[1] <= window[0]:
                raise ValueError(f"{name} must be two ints forming a non-empty [start, stop)")
        if self.n_main < 1 or self.k_prime < 1:
            raise ValueError("n_main and k_prime must be >= 1")
        if not (self.gamma >= 0.0 and self.ft_steps >= 0 and self.ft_lr >= 0.0):
            raise ValueError("gamma, ft_steps, ft_lr must be >= 0")


def estimate_subspace(
    early: np.ndarray, late: np.ndarray, n_main: int, k_prime: int
) -> SubspaceEstimate:
    """Split gradient history into task directions and a watermark residue.

    PCA of the late-phase gradients yields the task basis (top n_main
    components). Early-phase gradients are projected onto its orthogonal
    complement and the residuals are PCA'd again; the top k_prime
    components and their variances form the watermark estimate. Rows are
    individual received gradient rows (one per sample). Raises ValueError
    when either log has fewer rows than the requested component count.
    """
    early = as_matrix(early, "early gradient log")
    late = as_matrix(late, "late gradient log")
    if early.shape[1] != late.shape[1]:
        raise ValueError("gradient logs must share the carrier dimension")
    main_basis, _ = pca(late, n_main)
    residual = early - (early @ main_basis) @ main_basis.T
    wm_basis, variances = pca(residual, k_prime)
    return SubspaceEstimate(main_basis, wm_basis, variances)


def subspace_penalty(
    a_flat: np.ndarray, basis: np.ndarray, weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Energy of the activations inside a weighted subspace.

    loss = mean_i sum_j weights_j * (a_i . v_j)^2 over the batch; the
    gradient with respect to the activations is
    (2 / batch) * ((A @ V) * weights) @ V^T. Non-finite activations give a
    non-finite gradient, which finetune's optimizer rejects.
    """
    proj = a_flat @ basis
    loss = float((weights * proj**2).sum(axis=1).mean())
    grad = (2.0 / a_flat.shape[0]) * (proj * weights) @ basis.T
    return loss, grad


def subspace_affinity(basis: np.ndarray, reference: np.ndarray) -> float:
    """Mean squared singular value of the overlap between two subspaces.

    Both inputs are orthonormalized first; 1.0 means identical spans, and
    two random subspaces of a high-dimensional space score near k/d.
    """
    qa = orthonormal_columns(basis)
    qr = orthonormal_columns(reference)
    overlap = qr.T @ qa
    return float((overlap**2).sum()) / min(qa.shape[1], qr.shape[1])


def _penalty_weights(est: SubspaceEstimate) -> np.ndarray:
    # Raw PCA variances inherit the (tiny) squared gradient scale, so they
    # are divided by the largest variance: only their relative importance
    # matters, and gamma then acts on a unit-scale penalty.
    top = float(est.variances.max()) if est.variances.size else 0.0
    if top <= 0.0:
        return np.zeros_like(est.variances)
    return est.variances / top


def adaptive_remove(
    bottom: Segment,
    shard: Dataset,
    est: SubspaceEstimate,
    cfg: AdaptiveAttackConfig,
    rng: RngStream,
) -> tuple[Segment, Segment]:
    """Fine-tune with a penalty on activation energy in the estimated
    watermark subspace; returns (attacked bottom, surrogate head).

    gamma == 0 passes no penalty, so the result is bit-identical to plain
    fine-tuning under the same stream.
    """
    weights = _penalty_weights(est)

    def penalty(a_flat):
        loss, grad = subspace_penalty(a_flat, est.wm_basis, weights)
        return cfg.gamma * loss, cfg.gamma * grad

    return finetune(
        bottom,
        shard,
        cfg.ft_steps,
        cfg.ft_lr,
        rng,
        cfg.batch_size,
        cfg.momentum,
        penalty=penalty if cfg.gamma != 0.0 else None,
    )
