"""The evaluation-interpolation route to det(xI - T) for a Toeplitz T on
the batched multimodular lanes, kept as the tests' reference for the
characteristic polynomial of C_p from 3 to 131 (and for any Toeplitz T).
It reaches the lanes through the `legdet.exactlinalg` module, so that a
test can patch `_toeplitz_dets_crt` under it."""
import numpy as np

from legdet import exactlinalg
from legdet.errors import DiscrepancyError
from int_polynomial import IntPolynomial


# Points evaluated beyond the d + 2 that toeplitz_charpoly needs, d = m, or
# m/2 when even.  They stand in for points whose PRS leaves the batch, so
# that one batch nearly always suffices: for C_p, p <= 131, on the even path,
# at most 5 of the m/2 + 8 points leave (x = 0, 1, 2, 3, 5 at p = 89), all
# at x <= 11 (x = 11 at p = 79).
_SPARE_POINTS = 6


def toeplitz_charpoly(t, m: int, *, even: bool = False) -> IntPolynomial:
    """Characteristic polynomial det(xI - T) of the m x m Toeplitz matrix
    T = [t(i - j)], 0 <= i, j < m.

    xI - T is Toeplitz with t'(0) = x - t(0) and t'(k) = -t(k): its F1s
    differ only in the coefficient of t'(0).  The values at x = 0, 1, 2, ...
    are one batch of _toeplitz_dets_crt, on the multimodular lanes.  A
    point whose PRS leaves the batch's degree sequence is dropped there;
    further points are evaluated until at least d + 2 values are known,
    d being the degree interpolated: m, or m/2 when even.

    even is the caller's contract that T is similar to -T and m is even.
    Then f(x) = det(xI - T) = det(xI + T) = (-1)^m f(-x) = f(-x), so f(x)
    = g(x^2) with g an integer polynomial of degree m/2, and only x =
    0..m/2 + 1 (plus the spares) are evaluated.  The caller must have
    checked the similarity; the values here need not show it.

    Newton's divided differences interpolate through every known point,
    on the nodes x (on the nodes x^2 for g when even).  At integer nodes
    the divided differences of an integer polynomial are integers, so every
    division is exact, and an inexact one raises DiscrepancyError.  The
    polynomial interpolated has degree d, so every divided difference of
    order above d must be exactly 0, else DiscrepancyError: with d + 1
    correct values fixing it, one wrong value can never pass.  A Horner
    loop expands the Newton form of order d into monomials, and g is
    spread to the even degrees; the monic leading term is computed, not
    assumed.
    """
    if even and m % 2:
        raise ValueError("an even characteristic polynomial needs an even dimension")
    degree = m // 2 if even else m
    row = np.array([-t(m - 1 - k) for k in range(2 * m - 1)], dtype=np.int64)
    nodes, values = [], []
    start = 0
    while len(nodes) < degree + 2:
        xs = np.arange(start, start + degree + 2 + _SPARE_POINTS - len(nodes), dtype=np.int64)
        rows = np.tile(row, (len(xs), 1))
        rows[:, m - 1] += xs
        for x, value in zip(xs.tolist(), exactlinalg._toeplitz_dets_crt(rows, m, exactlinalg._lane_primes())):
            if value is not None:
                nodes.append(x * x if even else x)
                values.append(value)
        start += len(xs)
    # in place: newton[i] becomes the divided difference over nodes[0..i]
    newton = values
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            newton[i] = exactlinalg._exact_div(newton[i] - newton[i - 1], nodes[i] - nodes[i - k])
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

