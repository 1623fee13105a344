"""Deterministic RNG streams, the symmetric eigensolver, and PCA."""

import numpy as np
import pytest

from splitmark.linalg import (
    NumericalError,
    RngStream,
    Spectrum,
    StreamLabel,
    cosine,
    gaussian_matrix,
    orthonormal_columns,
    pca,
    sym_eig,
)


def test_gaussian_same_seed_identical():
    a = gaussian_matrix(RngStream(7, StreamLabel.MODEL_INIT), 4, 4)
    b = gaussian_matrix(RngStream(7, StreamLabel.MODEL_INIT), 4, 4)
    assert np.array_equal(a, b)


def test_gaussian_seed_sensitivity():
    a = gaussian_matrix(RngStream(7, StreamLabel.MODEL_INIT), 2, 3)
    b = gaussian_matrix(RngStream(8, StreamLabel.MODEL_INIT), 2, 3)
    assert not np.array_equal(a, b)


def test_gaussian_label_and_path_sensitivity():
    base = gaussian_matrix(RngStream(7, StreamLabel.MODEL_INIT), 2, 3)
    other_label = gaussian_matrix(RngStream(7, StreamLabel.DATA), 2, 3)
    other_path = gaussian_matrix(RngStream(7, StreamLabel.MODEL_INIT, (1,)), 2, 3)
    assert not np.array_equal(base, other_label)
    assert not np.array_equal(base, other_path)


def test_gaussian_moments():
    # 5-sigma bounds for n = 10000 standard normals.
    sample = gaussian_matrix(RngStream(3, StreamLabel.DATA), 10000, 1).ravel()
    assert -0.05 < sample.mean() < 0.05
    assert 0.9 < sample.var() < 1.1


def test_gaussian_rejects_bad_shape():
    with pytest.raises(ValueError):
        gaussian_matrix(RngStream(0, StreamLabel.DATA), 0, 3)


def test_child_streams_are_reproducible_and_distinct():
    parent = RngStream(11, StreamLabel.ATTACK)
    a = parent.child(2).normal(8)
    b = RngStream(11, StreamLabel.ATTACK).child(2).normal(8)
    c = parent.child(3).normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sym_eig_identity():
    spec = sym_eig(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(spec.eigenvectors @ spec.eigenvectors.T, np.eye(3), atol=1e-12)


def test_sym_eig_diagonal():
    spec = sym_eig(np.diag([5.0, 2.0, -1.0]))
    assert np.allclose(spec.eigenvalues, [5.0, 2.0, -1.0])
    # axis eigenvectors up to sign; descending order keeps the diag order here
    for j in range(3):
        col = np.abs(spec.eigenvectors[:, j])
        assert np.allclose(col, np.eye(3)[:, j], atol=1e-12)


def test_sym_eig_2x2_closed_form():
    # [[2,1],[1,2]]: trace 4, det 3 -> eigenvalues 3 and 1, eigenvectors
    # along [1,1]/sqrt(2) and [1,-1]/sqrt(2).
    spec = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)
    s = 0.7071067811865475
    assert np.allclose(np.abs(spec.eigenvectors[:, 0]), [s, s], atol=1e-12)
    assert np.allclose(np.abs(spec.eigenvectors[:, 1]), [s, s], atol=1e-12)
    assert np.isclose(spec.eigenvectors[:, 0] @ spec.eigenvectors[:, 1], 0.0, atol=1e-12)


def test_sym_eig_random_property():
    # Orthonormal basis and exact reconstruction on random symmetric input.
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(2, 65))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        spec = sym_eig(a)
        q, lam = spec.eigenvectors, spec.eigenvalues
        assert np.all(np.diff(lam) <= 1e-10)
        assert np.allclose(q.T @ q, np.eye(n), atol=1e-8)
        assert np.linalg.norm(q @ np.diag(lam) @ q.T - a) <= 1e-8 * max(
            1.0, np.linalg.norm(a)
        )


def test_sym_eig_sign_rule_on_random_input():
    # The inputs of test_sym_eig_random_property: every eigenvector's
    # largest-magnitude entry comes back positive.
    rng = np.random.default_rng(0)
    for trial in range(10):
        n = int(rng.integers(2, 65))
        a = rng.normal(size=(n, n))
        a = (a + a.T) / 2
        q = sym_eig(a).eigenvectors
        peaks = q[np.argmax(np.abs(q), axis=0), np.arange(n)]
        assert np.all(peaks > 0.0)


def test_sym_eig_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_rejects_nan():
    with pytest.raises(ValueError):
        sym_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_sym_eig_lapack_failure_is_numerical_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError):
        sym_eig(np.eye(3))


def test_pca_rank_one_line():
    t = np.linspace(-2, 2, 40)
    direction = np.array([3.0, 4.0]) / 5.0
    samples = np.outer(t, direction)
    basis, weights = pca(samples, 2)
    assert abs(abs(basis[:, 0] @ direction) - 1.0) < 1e-10
    assert weights[1] < 1e-20


def test_pca_dominant_axis():
    # 16 zero-mean points: unbiased covariance diag(8/15, 0.08/15), so the
    # x-axis must come out first with variance 0.5333...
    samples = np.array([[1.0, 0.0], [-1.0, 0.0]] * 4 + [[0.0, 0.1], [0.0, -0.1]] * 4)
    basis, weights = pca(samples, 1)
    assert abs(abs(basis[:, 0] @ np.array([1.0, 0.0])) - 1.0) < 1e-12
    assert np.isclose(weights[0], 8.0 / 15.0, atol=1e-12)


def test_pca_reconstructs_covariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 6))
    basis, weights = pca(x, 6)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    assert np.allclose(basis @ np.diag(weights) @ basis.T, cov, atol=1e-8)


def test_pca_matches_svd_on_rank_deficient_gradient_rows():
    # Attacker-shaped input: 200 received rows of a 64-wide cut with four
    # directions projected out, top 16 components.
    rng = np.random.default_rng(9)
    n, d, k = 200, 64, 16
    x = rng.normal(size=(n, d)) * np.geomspace(10.0, 0.1, d)
    q, _ = np.linalg.qr(rng.normal(size=(d, 4)))
    x -= (x @ q) @ q.T
    centered = x - x.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    assert np.all(s[d - 4 :] < 1e-12 * s[0])
    # separated singular values, so each component is defined up to sign
    assert np.min(s[:k] - s[1 : k + 1]) > 1e-3 * s[0]
    basis, variances = pca(x, k)
    assert basis.shape == (d, k)
    assert np.allclose(variances, s[:k] ** 2 / (n - 1), rtol=1e-10, atol=0.0)
    cos = np.abs(np.sum(basis * vt[:k].T, axis=0))
    assert np.all(cos >= 1.0 - 1e-10)


def test_pca_rejects_too_many_components():
    with pytest.raises(ValueError):
        pca(np.zeros((5, 3)) + np.eye(5, 3), 4)


def test_random_unit_cosine_squared_scaling():
    # Mean squared cosine between independent random unit vectors is 1/d.
    for d in (64, 256, 1024):
        rng = RngStream(17, StreamLabel.VERIFICATION, (d,))
        u = rng.normal(1000 * d).reshape(1000, d)
        v = rng.normal(1000 * d).reshape(1000, d)
        cos = (u * v).sum(axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        assert 0.5 / d < (cos**2).mean() < 2.0 / d


def test_orthonormal_columns_drops_dependent():
    a = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    q = orthonormal_columns(a)
    assert q.shape == (3, 2)
    assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)


def test_cosine_zero_safe():
    assert cosine(np.zeros((1, 3)), np.ones((1, 3))) == [0.0]
    assert np.isclose(cosine(np.ones((1, 3)), np.ones((1, 3)))[0], 1.0)


def test_stacked_cosine_is_bitwise_the_per_pair_formula():
    # One call per stack gives, for each replica, what one scalar cosine of
    # the flattened pair gives, zero replicas included.
    def scalar(u, v):
        uf, vf = u.ravel(), v.ravel()
        nu, nv = float(np.sqrt(uf @ uf)), float(np.sqrt(vf @ vf))
        return 0.0 if nu == 0.0 or nv == 0.0 else float(uf @ vf) / (nu * nv)

    rng = RngStream(5, StreamLabel.VERIFICATION)
    for g, batch, d in [(1, 1, 1), (1, 64, 256), (10, 64, 64), (3, 7, 33)]:
        u = rng.normal(g * batch * d).reshape(g, batch, d) * 1e-3
        v = rng.normal(g * batch * d).reshape(g, batch, d) * 1e4
        u[-1] *= 0.0 if g > 1 else 1.0
        got = cosine(u, v)
        assert all(type(c) is float for c in got)
        assert got == [scalar(a, b) for a, b in zip(u, v)]


def test_spectrum_is_frozen():
    spec = sym_eig(np.eye(2))
    assert isinstance(spec, Spectrum)
    with pytest.raises(AttributeError):
        spec.eigenvalues = None


def _sequential_fisher_yates(rng: RngStream, n: int) -> np.ndarray:
    """The one-draw-per-swap reference the batched permutation must match."""
    idx = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(rng._gen.random() * (i + 1))
        idx[i], idx[j] = idx[j], idx[i]
    return idx


@pytest.mark.parametrize("n", [0, 1, 2, 7, 200])
def test_permutation_matches_sequential_fisher_yates(n):
    fast = RngStream(12, StreamLabel.DATA, (3,))
    slow = RngStream(12, StreamLabel.DATA, (3,))
    got = fast.permutation(n)
    assert got.dtype == np.int64
    assert np.array_equal(got, _sequential_fisher_yates(slow, n))
    assert sorted(got.tolist()) == list(range(n))
    # both consumed the same draws, so the streams continue identically
    assert np.array_equal(fast.uniform(3), slow.uniform(3))
