"""Reference formulas and measurements shared by the tests."""

import tracemalloc


def skew_factor(point, grad):
    """``A = G X^T - X G^T``, the ``n x n`` skew factor the library never forms."""
    x = point.x
    return grad @ x.T - x @ grad.T


def traced_peak(fn):
    """``(fn(), peak)``: ``peak`` is the most memory, in bytes, that tracemalloc
    saw allocated during the call beyond what was allocated when it began
    (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak
