"""Reference formulas shared by the tests."""


def skew_factor(point, grad):
    """``A = G X^T - X G^T``, the ``n x n`` skew factor the library never forms."""
    x = point.x
    return grad @ x.T - x @ grad.T
