"""Assertions shared by the unit suites."""

import numpy as np


def segments_equal(a, b) -> bool:
    """Exact (bitwise) parameter equality between two segments."""
    return a.specs() == b.specs() and np.array_equal(a.params, b.params)
