"""Euclid's algorithm with cofactors on Fractions, and the bordered Hankel
determinants S_K(x) by Bareiss: the references for the lemma by which
`_lane_dets` reads S_K(x) off its cofactors, and for the split identities
of `toeplitz_det_mod` in their S form."""
from fractions import Fraction
from math import comb

from legdet.exactlinalg import _bareiss


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _sub_mul(a: list, c: list, b: list) -> list:
    """a - c b, polynomials as coefficient lists, lowest degree first."""
    out = a + [Fraction(0)] * max(len(c) + len(b) - 1 - len(a), 0)
    for i, x in enumerate(c):
        for j, y in enumerate(b):
            out[i + j] -= x * y
    return _trim(out)


def euclid_cofactors(h: list) -> list:
    """[(R_i, V_i, Q_i)] for i = 1, 2, ... of Euclid's algorithm over Q on
    R_0 = X^(2N-1) and R_1 = sum_n h_n X^(2N-2-n), N = (len(h) + 1) / 2:
    R_(i+1) = R_(i-1) - Q_i R_i and V_(i+1) = V_(i-1) - Q_i V_i, V_0 = 0 and
    V_1 = 1, so that R_i = V_i R_1 mod R_0.  Polynomials are lists of
    Fractions, lowest degree first, [] being 0; the last R_i is 0, with
    Q_i = None."""
    r0 = [Fraction(0)] * (len(h)) + [Fraction(1)]
    r1 = _trim([Fraction(x) for x in reversed(h)])
    v0, v1 = [], [Fraction(1)]
    steps = []
    while r1:
        rem, quo = list(r0), [Fraction(0)] * (len(r0) - len(r1) + 1)
        while len(rem) >= len(r1):
            shift, c = len(rem) - len(r1), rem[-1] / r1[-1]
            quo[shift] = c
            rem = _sub_mul(rem, [Fraction(0)] * shift + [c], r1)
        steps.append((r1, v1, quo))
        v0, v1 = v1, _sub_mul(v0, quo, v1)
        r0, r1 = r1, rem
    return steps + [(r1, v1, None)]


def hankel(h: list, size: int) -> int:
    """H_size[h] = det [h_(i+j)], 0 <= i, j < size; H_0 = 1."""
    return _bareiss([[h[i + j] for j in range(size)] for i in range(size)]) if size else 1


def bordered(h: list, size: int) -> list:
    """The coefficients, lowest degree first, of S_size(x), the determinant
    of the size rows [h_(i+j)], 0 <= j <= size, over the row (1, x, ...,
    x^size): coefficient s is the cofactor of column s in that row."""
    rows = [[h[i + j] for j in range(size + 1)] for i in range(size)]
    return [(-1) ** (size + s) * (_bareiss([r[:s] + r[s + 1:] for r in rows]) if rows else 1)
            for s in range(size + 1)]


def evaluate(coefficients: list, x) -> int:
    return sum(c * x**s for s, c in enumerate(coefficients))


def moments(values: list, m: int, shift: int) -> list:
    """c_n (shift 0) or d_n (shift 1) = sum_r C(n, r) t(n + shift - 2r) for
    n < m - shift, of the symbol values = t(-(m-1)), ..., t(m-1)."""
    return [sum(comb(n, r) * values[n + shift - 2 * r + m - 1] for r in range(n + 1))
            for n in range(m - shift)]
