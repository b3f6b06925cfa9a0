"""Reference formulas and measurements shared by the tests."""

import tracemalloc

import numpy as np


def skew_factor(point, grad):
    """``A = G X^T - X G^T``, the ``n x n`` skew factor the library never forms."""
    x = point.x
    return grad @ x.T - x @ grad.T


def tangent_parts(point, grad):
    """``(C, P)``: the canonical part ``G - X G^T X`` and the complement
    ``(I - X X^T) G`` by their textbook formulas, ``n x n`` products included.
    The library forms only their mix ``alpha*C + beta*P``."""
    x = point.x
    return grad - x @ grad.T @ x, (np.eye(point.n) - x @ x.T) @ grad


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
