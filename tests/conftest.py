"""Shared fixtures."""

import tracemalloc

import numpy as np
import pytest


def _traced_peak(run, grid) -> int:
    """The tracemalloc peak of run() above the traced size at its start, in bytes.

    scipy.fft keeps about 9 KiB of small objects over its first ~80 calls with
    overwrite_x in a process, more than a 1D state of 4 KiB: 100 in-place
    transforms of a state array of `grid` make them before tracing starts.
    """
    scratch = np.zeros(grid.shape, dtype=complex)
    for _ in range(100):
        grid.fftn(scratch, overwrite_x=True)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


@pytest.fixture
def traced_peak():
    """traced_peak(run, grid): the traced peak of run() in bytes, above the
    traced size at its start, with the FFT seam of `grid` warmed first."""
    return _traced_peak
