"""The evaluation-interpolation route to det(xI - T) for a Toeplitz T on
the multimodular lanes, kept as the tests' reference for the
characteristic polynomial of C_p from 3 to 131 (and for any Toeplitz T).
It reaches the lanes through the `legdet.exactlinalg` module, so that a
test can patch `toeplitz_det_mod` under it."""
import numpy as np

from legdet import exactlinalg
from legdet.errors import DiscrepancyError
from bigint_toeplitz import _exact_div
from int_polynomial import IntPolynomial


def toeplitz_charpoly(t, m: int, *, even: bool = False) -> IntPolynomial:
    """Characteristic polynomial det(xI - T) of the m x m Toeplitz matrix
    T = [t(i - j)], 0 <= i, j < m.

    xI - T is Toeplitz with t'(0) = x - t(0) and t'(k) = -t(k).  Its
    determinant is evaluated at the d + 2 points x = 0, 1, ..., d + 1 by
    toeplitz_det_mod, one point per call, d being the degree interpolated:
    m, or m/2 when even.

    even is the caller's contract that T is similar to -T and m is even.
    Then f(x) = det(xI - T) = det(xI + T) = (-1)^m f(-x) = f(-x), so f(x)
    = g(x^2) with g an integer polynomial of degree m/2, and only x =
    0..m/2 + 1 are evaluated.  The caller must have checked the
    similarity; the values here need not show it.

    Newton's divided differences interpolate through every point, on the
    nodes x (on the nodes x^2 for g when even).  At integer nodes the
    divided differences of an integer polynomial are integers, so every
    division is exact, and an inexact one raises DiscrepancyError.  The
    polynomial interpolated has degree d, so the divided difference of
    order d + 1 must be exactly 0, else DiscrepancyError: with d + 1
    correct values fixing it, one wrong value can never pass.  A Horner
    loop expands the Newton form of order d into monomials, and g is
    spread to the even degrees; the monic leading term is computed, not
    assumed.
    """
    if even and m % 2:
        raise ValueError("an even characteristic polynomial needs an even dimension")
    degree = m // 2 if even else m
    nodes = [x * x if even else x for x in range(degree + 2)]
    symbol = np.array([-t(k) for k in range(m - 1, -m, -1)], dtype=np.int64)
    centre = np.arange(2 * m - 1) == m - 1
    values = [exactlinalg.toeplitz_det_mod(symbol + x * centre) for x in range(degree + 2)]
    # in place: newton[i] becomes the divided difference over nodes[0..i]
    newton = values
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            newton[i] = _exact_div(newton[i] - newton[i - 1], nodes[i] - nodes[i - k])
    if any(newton[degree + 1:]):
        raise DiscrepancyError("a divided difference of order above the degree is nonzero")
    coeffs = [newton[degree]]
    for k in range(degree - 1, -1, -1):  # coeffs = coeffs * (y - nodes[k]) + newton[k]
        yk = nodes[k]
        coeffs = [a - yk * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    if even:
        coeffs = [c for g in coeffs for c in (g, 0)][:-1]
    return IntPolynomial(tuple(coeffs))

