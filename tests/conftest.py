import tracemalloc

import numpy as np
import pytest

from prehyp.geometry import Chart1p1, DiagonalMetric
from prehyp.grids import build_grid


@pytest.fixture
def chart():
    return Chart1p1(-0.3, 0.3, -1.0, 1.0)


@pytest.fixture
def mink(chart):
    return DiagonalMetric("1", "1", chart)


@pytest.fixture
def grid_small(chart, mink):
    return build_grid(chart, mink, 128)


@pytest.fixture
def grid_medium(chart, mink):
    return build_grid(chart, mink, 256)


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traces while fn runs)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
