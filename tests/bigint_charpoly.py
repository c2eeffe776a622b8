"""The bigint evaluation route to det(xI - T) for a Toeplitz T, kept as the
tests' reference for `charpoly_cp` and for the lane route of
`lane_charpoly.toeplitz_charpoly`.

Each value at x = 0..m is one bigint `toeplitz_det`.  The k-th forward
difference at 0 is k! times the integer coefficient of x(x-1)...(x-k+1)
(Newton's form), so an inexact division by k! raises DiscrepancyError; a
Horner loop expands that form into monomials.
"""
import math

from bigint_toeplitz import _exact_div, toeplitz_det
from int_polynomial import IntPolynomial


def bigint_charpoly(t, m: int) -> IntPolynomial:
    t0 = t(0)
    values = [
        toeplitz_det(lambda k: x - t0 if k == 0 else -t(k), m) for x in range(m + 1)
    ]
    newton = []
    for k in range(m + 1):
        newton.append(_exact_div(values[0], math.factorial(k)))
        values = [b - a for a, b in zip(values, values[1:])]
    coeffs = [newton[m]]
    for k in range(m - 1, -1, -1):  # coeffs = coeffs * (x - k) + newton[k]
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    return IntPolynomial(tuple(coeffs))
