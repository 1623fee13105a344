"""Deterministic linear algebra and seeded sampling primitives.

Everything downstream (model init, watermark keys, verification probes,
partition draws, attack analysis) draws randomness through RngStream, so a
run is a pure function of its seed and the stream labels it touches.
Matrices are plain 2-D float64 numpy arrays in row-major order.

The samplers are implemented on top of raw uniform doubles from a PCG64
bit generator: Gaussians via the Box-Muller transform, gamma variates via
Marsaglia-Tsang, shuffles via Fisher-Yates. This keeps every draw a
documented function of the bit stream instead of relying on numpy's
distribution internals, which are not guaranteed stable across releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "NumericalError",
    "StreamLabel",
    "RngStream",
    "as_matrix",
    "gaussian_matrix",
    "Spectrum",
    "sym_eig",
    "pca",
    "orthonormal_columns",
    "cosine",
]


class NumericalError(RuntimeError):
    """An iterative routine failed to converge or produced non-finite values."""


class StreamLabel(IntEnum):
    """Purpose tag for a random stream. Distinct labels never share draws."""

    DATA = 0
    MODEL_INIT = 1
    WATERMARK_KEY = 2
    VERIFICATION = 3
    NOISE = 4
    ATTACK = 5


class RngStream:
    """Seeded random stream keyed by (seed, label, path).

    Two streams built with the same key produce identical draw sequences;
    any difference in seed, label, or path yields a statistically
    independent stream (the key is hashed into the PCG64 state through
    numpy's SeedSequence). ``child(*path)`` derives a sub-stream without
    disturbing the parent, which is how per-client and per-round streams
    are split off a single experiment seed.
    """

    def __init__(self, seed: int, label: StreamLabel, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.label = StreamLabel(label)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(int(self.label),) + self.path
        )
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, label={self.label.name}, path={self.path})"

    def child(self, *path: int) -> "RngStream":
        return RngStream(self.seed, self.label, self.path + tuple(path))

    def uniform(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1)."""
        return self._gen.random(int(n))

    def normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller on uniform pairs."""
        m = (int(n) + 1) // 2
        # 1 - u maps [0,1) onto (0,1] so the log is always finite.
        u1 = 1.0 - self._gen.random(m)
        u2 = self._gen.random(m)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return z[: int(n)]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n).

        For i = n-1 down to 1, swaps position i with j = floor(u_i * (i + 1)),
        u_i being the stream's next uniform double. The n-1 doubles are drawn
        in one call, which yields the same values in the same order.
        """
        n = int(n)
        idx = list(range(n))
        if n > 1:
            spans = np.arange(n, 1, -1, dtype=np.float64)
            picks = (self._gen.random(n - 1) * spans).astype(np.int64).tolist()
            for i, j in zip(range(n - 1, 0, -1), picks):
                idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)

    def gamma(self, shape: float) -> float:
        """One gamma(shape, 1) variate via Marsaglia-Tsang squeeze."""
        if shape <= 0.0:
            raise ValueError(f"gamma shape must be positive, got {shape}")
        if shape < 1.0:
            # Boost: gamma(a) = gamma(a + 1) * U^(1/a).
            u = 1.0 - self._gen.random()
            return self.gamma(shape + 1.0) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = float(self.normal(1)[0])
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = 1.0 - self._gen.random()
            if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
                return d * v

    def dirichlet(self, alpha: float, n: int) -> np.ndarray:
        """A point on the n-simplex from a symmetric Dirichlet(alpha)."""
        g = np.array([self.gamma(alpha) for _ in range(int(n))])
        total = g.sum()
        if total <= 0.0 or not np.isfinite(total):
            raise NumericalError("dirichlet draw degenerated to a zero vector")
        return g / total

    def lognormal(self, sigma: float, n: int) -> np.ndarray:
        """n draws of exp(sigma * Z) with Z standard normal."""
        return np.exp(sigma * self.normal(n))


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def gaussian_matrix(rng: RngStream, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix of IID standard normals from the given stream."""
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    out = rng.normal(rows * cols).reshape(rows, cols)
    if not np.isfinite(out).all():
        raise NumericalError("gaussian sample produced non-finite values")
    return out


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition result: descending eigenvalues, orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(a) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK (np.linalg.eigh).

    Eigenvalues come back sorted descending (stable order on ties) and each
    eigenvector is sign normalized so its largest-magnitude entry is
    positive.

    Raises NumericalError if LAPACK does not converge.
    """
    a = as_matrix(a, "sym_eig input")
    n, m = a.shape
    if n != m:
        raise ValueError(f"sym_eig needs a square matrix, got {n}x{m}")
    asym = float(np.max(np.abs(a - a.T))) if n > 1 else 0.0
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if asym > 1e-10 * scale:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")

    try:
        vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver did not converge: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    if n:
        peaks = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
        vecs[:, peaks < 0.0] *= -1.0
    return Spectrum(vals, vecs)


def pca(samples, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Principal components of a sample matrix (rows are observations).

    Centers by the column mean, forms the unbiased covariance
    X_c^T X_c / (n - 1), and eigendecomposes it with sym_eig.

    Returns (basis, variances): basis is d x n_components with orthonormal
    columns ordered by descending variance, variances the matching
    eigenvalues.
    """
    x = as_matrix(samples, "pca samples")
    n, d = x.shape
    if n < 2:
        raise ValueError(f"pca needs at least 2 samples, got {n}")
    if not 1 <= n_components <= min(n, d):
        raise ValueError(
            f"n_components must lie in [1, {min(n, d)}], got {n_components}"
        )
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    spec = sym_eig(cov)
    return spec.eigenvectors[:, :n_components].copy(), spec.eigenvalues[:n_components].copy()


def orthonormal_columns(a) -> np.ndarray:
    """Orthonormal basis for the column span via modified Gram-Schmidt.

    Columns that are (numerically) dependent on earlier ones are dropped,
    so the result can be narrower than the input.
    """
    a = as_matrix(a, "orthonormal_columns input")
    cols = []
    for j in range(a.shape[1]):
        w = a[:, j].copy()
        for u in cols:
            w -= (u @ w) * u
        # second pass guards against cancellation in near-dependent columns
        for u in cols:
            w -= (u @ w) * u
        norm = float(np.sqrt(w @ w))
        if norm > 1e-10 * max(1.0, float(np.max(np.abs(a[:, j])))):
            cols.append(w / norm)
    if not cols:
        raise ValueError("input has no independent columns")
    return np.stack(cols, axis=1)


def cosine(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cosine of the angle between u[i] and v[i], each flattened, for every
    i of two (G, ...) stacks, as a (G,) float64 array; 0.0 where either is
    zero. Each dot product is one (1, n) @ (n, 1) product of a stack, equal
    bit for bit to u[i].ravel() @ v[i].ravel()."""
    a = np.asarray(u, dtype=np.float64).reshape(len(u), 1, -1)
    b = np.asarray(v, dtype=np.float64).reshape(len(v), 1, -1)
    at, bt = a.transpose(0, 2, 1), b.transpose(0, 2, 1)
    dots = np.matmul(a, bt).ravel()
    nu = np.sqrt(np.matmul(a, at)).ravel()
    nv = np.sqrt(np.matmul(b, bt)).ravel()
    return np.divide(dots, nu * nv, out=np.zeros_like(dots), where=(nu != 0) & (nv != 0))
