"""The cyclic square of an exponent vector by sliding windows, kept as the
tests' reference for `cyclotomic.gauss_square`, which takes tau^2 from the
cyclic autocorrelation of the character instead."""
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _cyclic_square(vec: np.ndarray) -> np.ndarray:
    """vec * vec on int64 exponent vectors, out[s] = sum_k vec[s + k] vec[-k]:
    the windows of vec twice over against that doubled vector read backwards
    from slot p, exact while sum_k vec[k]^2 fits."""
    p = len(vec)
    twice = np.concatenate((vec, vec))
    return sliding_window_view(twice[:-1], p) @ twice[p:0:-1]
