"""Float-range predicates shared by the power-of-two equivariance tests."""
import numpy as np


def stays_normal(a, k):
    """Every nonzero element of a, scaled by 2**k, is a normal float64."""
    a = np.asarray(a, dtype=np.float64)
    return bool(np.all(np.abs(np.ldexp(a[a != 0.0], k)) >= np.finfo(np.float64).tiny))
