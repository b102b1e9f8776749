"""Helpers shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak(fn, *args):
    """Run fn(*args) under tracemalloc: (the peak traced bytes over the
    baseline at the start, fn's result)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """`traced_peak(fn, *args)` -> (peak bytes over the baseline, result)."""
    return _traced_peak
