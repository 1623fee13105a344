"""Activation-space watermarking: key generation, embedding gradients,
data-free verification, and null-model threshold calibration.

A key is a random projection matrix M (one column per payload bit) plus a
bit string b. Embedding treats the split activations as the carrier: the
server adds the gradient of a binary cross-entropy between sigmoid(A @ M)
and b to the task gradient it returns, after clipping that extra term to a
fixed fraction of the task gradient's norm. Verification needs no task
data: random probe inputs are pushed through the client's bottom segment
and the recovered bits are compared against b.

The embedding gradient has closed form. With P = A @ M and
C = (sigmoid(P) - b) / (batch * k), the gradient of the mean BCE with
respect to A is C @ M^T, so every row lies in the span of M's columns.
Loss and gradient are both computed from P, which project() forms once.
The server's activations come as a (G, batch, d) stack, one batch per
client of a lockstep group, and give one loss, gradient and clip factor
per replica.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, RngStream, as_matrix, gaussian_matrix
from .nn import Segment, forward_segment, hex_lines, hex_rows

__all__ = [
    "CALIBRATION_KEYS",
    "WatermarkKey",
    "EmbedConfig",
    "VerificationReport",
    "NullCalibration",
    "keygen",
    "project",
    "wm_loss",
    "wm_gradient",
    "adaptive_clip",
    "compose",
    "predict_bits",
    "verify",
    "summarize_null",
    "calibrate_threshold",
    "save_key",
    "load_key",
]


@dataclass(frozen=True)
class WatermarkKey:
    """Secret key: projection matrix m (d x k) and target bits (k,)."""

    m: np.ndarray
    bits: np.ndarray
    seed: int = 0

    def __post_init__(self):
        m = as_matrix(self.m, "key matrix")
        bits = np.asarray(self.bits, dtype=np.float64)
        if bits.ndim != 1 or bits.shape[0] != m.shape[1]:
            raise ValueError(
                f"bits shape {bits.shape} does not match key width {m.shape[1]}"
            )
        if not np.all((bits == 0.0) | (bits == 1.0)):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bits", bits)

    @property
    def d(self) -> int:
        return self.m.shape[0]

    @property
    def k(self) -> int:
        return self.m.shape[1]


@dataclass(frozen=True)
class EmbedConfig:
    """Embedding strength and clipping behavior.

    strength is the ratio cap: the injected gradient is clipped so its norm
    never exceeds strength times the task gradient's norm. Norms are taken
    over the whole batch tensor.
    """

    strength: float

    def __post_init__(self):
        if not self.strength >= 0.0:
            raise ValueError(f"strength must be >= 0, got {self.strength}")


@dataclass(frozen=True)
class VerificationReport:
    wsr: float
    per_bit: np.ndarray
    n_samples: int
    threshold: float
    passed: bool


@dataclass(frozen=True)
class NullCalibration:
    """Null WSR statistics over (key, clean model) pairs.

    tau_5sigma = mean + 5 * std, clamped to [0, 1]. degenerate flags a null
    sample whose spread collapsed below the 1e-6 floor (the floor is used
    in that case, so tau stays strictly above the mean).
    """

    null_wsrs: np.ndarray
    mean: float
    std: float
    tau_5sigma: float
    degenerate: bool


def check_key_dims(d: int, k: int) -> None:
    """keygen's bound: a key needs a carrier dimension and at least one bit."""
    if d < 1 or k < 1:
        raise ValueError(f"key dimensions must be positive, got d={d}, k={k}")


def keygen(rng: RngStream, d: int, k: int) -> WatermarkKey:
    """Draw a fresh key: M is d x k IID standard normal, bits fair coins."""
    check_key_dims(d, k)
    if k > d:
        warnings.warn(
            f"key width k={k} exceeds carrier dimension d={d}; key columns "
            "cannot be linearly independent",
            stacklevel=2,
        )
    m = gaussian_matrix(rng, d, k)
    bits = (rng.uniform(k) < 0.5).astype(np.float64)
    return WatermarkKey(m, bits, seed=rng.seed)


def _sigmoid(p: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-p) for p >= 0 and e^p / (1 + e^p) below, from one exp(-|p|),
    # so neither branch can overflow.
    e = np.exp(-np.abs(p))
    return np.where(p >= 0.0, 1.0, e) / (1.0 + e)


def project(a_flat: np.ndarray, key: WatermarkKey) -> np.ndarray:
    """Return the projections A @ M of a float64 (G, batch, key.d)
    activation stack.

    wm_loss and wm_gradient both take this matrix, so a caller that needs
    the loss and the gradient checks A and multiplies by M once. Non-finite
    activations raise NumericalError: training has diverged before the cut.
    """
    if not np.isfinite(a_flat).all():
        raise NumericalError("activations contain non-finite entries")
    return a_flat @ key.m


def wm_loss(p: np.ndarray, key: WatermarkKey):
    """Mean binary cross-entropy between sigmoid(P) and the key bits, where
    P = project(A, key).

    Uses the standard overflow-safe form
    max(p, 0) - p * b + log(1 + exp(-|p|)), averaged over batch and bits:
    a (G,) array with one mean per replica of the stack.
    """
    losses = np.maximum(p, 0.0) - p * key.bits + np.log1p(np.exp(-np.abs(p)))
    return losses.sum(axis=(-2, -1)) / (p.shape[-2] * p.shape[-1])


def wm_gradient(p: np.ndarray, key: WatermarkKey) -> np.ndarray:
    """Analytic gradient of wm_loss with respect to the activations A, from
    their projections P = project(A, key).

    Returns (sigmoid(P) - b) / (batch * k) @ M^T; each row is a linear
    combination of key columns, so the whole tensor lies in span(M).
    """
    coeff = (_sigmoid(p) - key.bits) / (p.shape[-2] * key.k)
    return coeff @ key.m.T


# Added to ||g_wm|| in adaptive_clip's denominator, so a zero watermark
# gradient gives a finite factor.
CLIP_EPSILON = 1e-12


def adaptive_clip(g_wm: np.ndarray, cfg: EmbedConfig, wm_norm, main_norm) -> np.ndarray:
    """Scale each replica of a (G, batch, d) watermark gradient to at most
    strength * ||its task gradient||.

    factor = min(1, strength * ||g_main|| / (||g_wm|| + CLIP_EPSILON)); the
    gradient is only ever shrunk, never amplified. wm_norm and main_norm are
    the per-replica Frobenius norms of g_wm and of the task gradient g_main,
    which the caller already holds.
    """
    pairs = zip(wm_norm, main_norm)
    factors = np.array([min(1.0, cfg.strength * m / (w + CLIP_EPSILON)) for w, m in pairs])
    return g_wm * factors.reshape(g_wm.shape[:-2] + (1, 1))


def compose(g_main: np.ndarray, g_wm_clipped: np.ndarray) -> np.ndarray:
    """Task gradient plus the clipped watermark term, both shaped like A."""
    return g_main + g_wm_clipped


def predict_bits(bottom: Segment, key: WatermarkKey, probes: np.ndarray) -> np.ndarray:
    """Recover one bit row per probe: sigmoid(A' @ M) rounded, ties to 1."""
    a, _ = forward_segment(bottom, probes)
    p = a @ key.m
    # sigmoid(p) >= 0.5 exactly when p >= 0, so rounding needs no sigmoid.
    return (p >= 0.0).astype(np.float64)


def check_probes(n_samples: int) -> None:
    """verify's bound on its probe count."""
    if not n_samples >= 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")


def check_verify(n_samples: int, tau: float) -> None:
    """verify's bounds on its probe count and threshold."""
    check_probes(n_samples)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"need tau in [0, 1], got {tau}")


def verify(
    bottom: Segment,
    key: WatermarkKey,
    rng: RngStream,
    n_samples: int = 256,
    tau: float = 0.7,
) -> VerificationReport:
    """Data-free watermark check against standard-normal probe inputs.

    WSR is the fraction of matching (sample, bit) cells over n_samples
    probes; ownership is asserted when WSR strictly exceeds tau.
    """
    check_verify(n_samples, tau)
    if key.d != bottom.out_dim:
        raise ValueError(
            f"key dimension {key.d} does not match bottom output {bottom.out_dim}"
        )
    probes = rng.normal(n_samples * bottom.in_dim).reshape(n_samples, bottom.in_dim)
    pred = predict_bits(bottom, key, probes)
    matches = pred == key.bits
    wsr = float(matches.mean())
    return VerificationReport(
        wsr=wsr,
        per_bit=matches.mean(axis=0),
        n_samples=n_samples,
        threshold=tau,
        passed=wsr > tau,
    )


# tau_5sigma's multiplier, and the floor under a degenerate null std.
SIGMA_MULTIPLIER = 5.0
STD_FLOOR = 1e-6


def summarize_null(null_wsrs) -> NullCalibration:
    """Fit mean/std to null WSRs and place the threshold 5 sigma above."""
    wsrs = np.asarray(null_wsrs, dtype=np.float64).ravel()
    if wsrs.size < 2:
        raise ValueError("need at least 2 null WSR values")
    mean = float(wsrs.mean())
    std = float(wsrs.std(ddof=1))
    degenerate = std < STD_FLOOR
    if degenerate:
        std = STD_FLOOR
    tau = min(1.0, max(0.0, mean + SIGMA_MULTIPLIER * std))
    return NullCalibration(wsrs, mean, std, tau, degenerate)


# Fresh keys per clean model in a null calibration.
CALIBRATION_KEYS = 20


def check_calibration(n_models: int) -> None:
    """calibrate_threshold's bound: the null std needs two clean models."""
    if n_models < 2:
        raise ValueError("need at least 2 clean models to calibrate")


def calibrate_threshold(
    clean_bottoms: list[Segment],
    k: int,
    key_rng: RngStream,
    probe_rng: RngStream,
    n_samples: int = 256,
) -> NullCalibration:
    """Null WSRs of CALIBRATION_KEYS fresh keys crossed with clean models.

    Every (model, key) pair contributes one WSR measured exactly like
    verify(), with per-pair probe sub-streams.
    """
    check_calibration(len(clean_bottoms))
    d = clean_bottoms[0].out_dim
    for seg in clean_bottoms:
        if seg.out_dim != d or seg.in_dim != clean_bottoms[0].in_dim:
            raise ValueError("clean models must share input and split dimensions")
    keys = [keygen(key_rng.child(j), d, k) for j in range(CALIBRATION_KEYS)]
    wsrs = np.empty((len(clean_bottoms), CALIBRATION_KEYS))
    for i, seg in enumerate(clean_bottoms):
        for j, key in enumerate(keys):
            report = verify(seg, key, probe_rng.child(i, j), n_samples=n_samples, tau=1.0)
            wsrs[i, j] = report.wsr
    return summarize_null(wsrs.ravel())


# Key file format: ascii text, one field per line. The checksum line holds
# the sha256 of everything above it, so corruption is detected on load.

_KEY_MAGIC = "wmkey v1"


def save_key(key: WatermarkKey, path: str) -> None:
    body = (
        f"{_KEY_MAGIC}\nd {key.d}\nk {key.k}\nseed {key.seed}\n".encode("ascii")
        + hex_lines("m", key.m)
        + ("bits " + "".join(str(int(b)) for b in key.bits)).encode("ascii")
    )
    digest = hashlib.sha256(body).hexdigest()
    with open(path, "wb") as fh:
        fh.write(body + f"\nchecksum {digest}\n".encode("ascii"))


def load_key(path: str) -> WatermarkKey:
    """Read a key written by save_key. The checksum covers the exact bytes
    above the checksum line, and a blank line anywhere is rejected, so any
    edit fails here; errors name file lines (line 1 is the magic line)."""
    with open(path, "rb") as fh:
        lines = fh.read().decode("ascii").split("\n")
    if lines[-1] == "":
        lines.pop()  # the newline that ends the checksum line
    if not lines or lines[0] != _KEY_MAGIC:
        raise ValueError(f"not a {_KEY_MAGIC} file")
    for line_no, line in enumerate(lines, 1):
        if not line.strip():
            raise ValueError(f"blank line {line_no} in key file")
    if not lines[-1].startswith("checksum "):
        raise ValueError("key file is missing its checksum line")
    body = "\n".join(lines[:-1])
    expected = lines[-1].split(" ", 1)[1]
    actual = hashlib.sha256(body.encode("ascii")).hexdigest()
    if actual != expected:
        raise ValueError("key file checksum mismatch; file is corrupt")
    fields = dict(ln.partition(" ")[::2] for ln in lines[1:4])
    missing = [name for name in ("d", "k", "seed") if name not in fields]
    if missing:
        raise ValueError(f"key file header lacks {', '.join(missing)}")
    d, k, seed = int(fields["d"]), int(fields["k"]), int(fields["seed"])
    m = hex_rows(lines[:-1][4 : 4 + d], 5, "m", d, k)
    bits_line = lines[4 + d]
    if not bits_line.startswith("bits "):
        raise ValueError("malformed bits line")
    if len(lines) > 6 + d:
        raise ValueError(f"unexpected line {6 + d} after the bits line")
    bits = np.array([float(ch) for ch in bits_line.split(" ", 1)[1]])
    return WatermarkKey(m, bits, seed=seed)
