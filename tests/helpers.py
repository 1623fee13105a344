"""Assertions and builders shared by the unit suites."""

import ctypes
import glob
import os

import numpy as np

from splitmark.nn import Segment

# Settings that took one value in every run and are now library constants;
# a config that still sets one is rejected like any unknown key.
RETIRED_KEYS = (
    "data.radius",
    "optimizer.weight_decay",
    "embed.epsilon",
    "detector.fraction",
    "detector.k_nn",
    "detector.quantile",
    "calibrate.keys",
)


def segments_equal(a, b) -> bool:
    """Exact (bitwise) parameter equality between two segments."""
    return a.specs() == b.specs() and np.array_equal(a.params, b.params)


def segment_of(*layers) -> Segment:
    """A segment holding per-layer (spec, w, b) values, copied into its
    flat buffer in the params layout."""
    for spec, w, b in layers:
        assert np.shape(w) == (spec.in_dim, spec.out_dim) and np.shape(b) == (spec.out_dim,)
    params = np.concatenate([np.concatenate([np.ravel(w), b]) for _, w, b in layers])
    return Segment([spec for spec, _, _ in layers], params.astype(np.float64))


def draw_labels(rng, n_classes: int, n: int) -> np.ndarray:
    """n class labels in [0, n_classes), from an RngStream's next n
    uniform doubles."""
    return (rng.uniform(n) * n_classes).astype(np.int64)


def _bundled_openblas():
    """The OpenBLAS library bundled in NumPy's wheel, or None."""
    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas*", ".dylibs/*openblas*"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            return ctypes.CDLL(path)
    return None


def blas_environment() -> str:
    """One line naming what pinned digests depend on besides the program:
    the NumPy version, the bundled OpenBLAS version and kernel, and the BLAS
    thread setting. A field the library does not report reads unknown."""
    lib = _bundled_openblas()

    def ask(name, restype):
        fn = getattr(lib, f"scipy_openblas_{name}64_", None)
        if fn is None:
            return None
        fn.argtypes, fn.restype = [], restype
        return fn()

    config = ask("get_config", ctypes.c_char_p)
    version = config.split()[1].decode() if config else "unknown"
    kernel = ask("get_corename", ctypes.c_char_p)
    threads = ask("get_num_threads", ctypes.c_int)
    return (
        f"NumPy {np.__version__}, OpenBLAS {version}, "
        f"kernel {kernel.decode() if kernel else 'unknown'}, "
        f"BLAS threads {threads if threads is not None else 'unknown'} "
        f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})"
    )
