"""The Pell route to the fundamental unit of Q(sqrt(p)), kept as the tests'
reference for the continued fraction of the maximal order's generator in
`fundamental_unit`.

The continued fraction of sqrt(p) yields the smallest unit u of Z[sqrt(p)].
For p = 1 (mod 4) the maximal order can be larger by index 3 only, in which
case u is the cube of a half-integer unit (a + b*sqrt(p))/2 with a, b odd;
a then satisfies a^3 - 3Na = 2x with N = norm(u), which an integer cube root
locates exactly.
"""
from math import isqrt


def _pell_unit(p: int) -> tuple[int, int]:
    """Minimal (x, y) with x^2 - p*y^2 = +-1, from the continued fraction
    of sqrt(p).  Every solution is a convergent, and convergents grow, so
    the first hit is the fundamental one."""
    a0 = isqrt(p)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    steps = 0
    while h * h - p * k * k not in (1, -1):
        m = d * a - m
        d = (p - m * m) // d
        a = (a0 + m) // d
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        steps += 1
        if steps > 10 * p + 100:
            raise ArithmeticError(f"continued fraction of sqrt({p}) did not close")
    return h, k


def _icbrt(v: int) -> int:
    """Floor cube root by integer Newton iteration."""
    if v <= 0:
        raise ValueError("positive argument required")
    x = 1 << ((v.bit_length() + 2) // 3)
    while True:
        y = (2 * x + v // (x * x)) // 3
        if y >= x:
            return x
        x = y


def pell_unit(p: int) -> tuple[int, int]:
    """(a, b) of the fundamental unit (a + b*sqrt(p))/2 > 1, for an odd prime p."""
    x1, y1 = _pell_unit(p)
    if p % 4 == 1:
        nrm = x1 * x1 - p * y1 * y1
        root = _icbrt(2 * x1)
        for cand in range(max(1, root - 2), root + 3):
            if cand ** 3 - 3 * nrm * cand != 2 * x1:
                continue
            bb, r = divmod(cand * cand - 4 * nrm, p)
            if r != 0:
                continue
            b = isqrt(bb)
            if b * b == bb and b > 0 and (cand - b) % 2 == 0:
                return cand, b
    return 2 * x1, 2 * y1
