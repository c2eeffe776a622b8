"""The windowed subresultant PRS for a Toeplitz determinant on Python
integers, kept as the tests' reference for `toeplitz_det_mod` (and for the
evaluation routes of `bigint_charpoly` and `lane_charpoly`)."""
from legdet.errors import DiscrepancyError


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise DiscrepancyError("exact division left a remainder")
    return q


def _lstrip0(c: list) -> list:
    k = 0
    while k < len(c) and not c[k]:
        k += 1
    return c[k:]


def _prem_window(a: list, b: list, steps: int, beta) -> list:
    """The top coefficients of the pseudo-remainder lc(b)^steps * a mod b,
    divided exactly by beta.

    a and b are coefficient windows of equal length, leading coefficient
    first: a starts at degree deg b + steps - 1, b at its leading
    coefficient.  Each step eliminates a's current leading term, so the
    result is the window steps shorter that starts at degree deg b - 1.
    Its coefficient of degree e reads a at degree e and up and b at degree
    e - steps + 1 and up, all inside the windows, so it equals the full
    pseudo-remainder's.  Every coefficient computed is divided by beta, and
    a nonzero remainder raises DiscrepancyError.

    Two steps, the normal case, are one expression per coefficient: with
    l = lc(b) and r1 = l a_1 - a_0 b_1 the first step's leading coefficient,
    coefficient k is l^2 a_(k+2) - (l a_0) b_(k+2) - r1 b_(k+1).

    One check covers every division: floor division leaves remainders that
    all share beta's sign, so they all vanish exactly when their sum does,
    and that sum is the numerators' sum minus beta times the quotients'.
    In the two-step case the numerators' sum is l^2 sum a_(k+2) - (l a_0)
    sum b_(k+2) - r1 sum b_(k+1), three sums of the inputs.
    """
    lb, tail_b = b[0], b[1:]
    if steps == 2:
        l2, la0, r1 = lb * lb, lb * a[0], lb * a[1] - a[0] * b[1]
        q = [(l2 * x - la0 * y - r1 * z) // beta for x, y, z in zip(a[2:], b[2:], tail_b)]
        total = l2 * sum(a[2:]) - la0 * sum(b[2:]) - r1 * sum(b[1:-1])
    else:
        r = a
        for _ in range(steps):
            c = r[0]
            if c:
                r = [lb * x - c * y for x, y in zip(r[1:], tail_b)]
            else:
                r = [lb * x for x in r[1:]]
        q = [x // beta for x in r]
        total = sum(r)
    if total != beta * sum(q):
        raise DiscrepancyError("subresultant step did not divide exactly")
    return q


def toeplitz_det(t, m: int) -> int:
    """Exact determinant of the integer m x m Toeplitz matrix [t(i - j)], 0 <= i, j < m.

    Reversing the rows gives a Hankel matrix, whose determinant is the
    principal subresultant coefficient of index m - 1 of F0 = X^(2m-1) and
    F1 = sum_k t(m-1-k) X^(2m-2-k); the two sign changes cancel.  The
    Brown-Collins subresultant PRS reaches it (Brown & Traub 1971) as the
    scaled leading coefficient of the remainder of degree m - 1.

    Each step keeps only the window of coefficients that this answer reads.
    In prem(A, B), the coefficient of degree e reads A at degree e and at
    degrees >= deg B, and B at degrees >= e - (deg A - deg B).  Working back
    from degree m - 1, the step whose divisor has degree d needs its
    remainder only at degrees >= 2m - 1 - d.  So the dividend is cut to
    that floor, and the divisor's own window (its floor was set one step
    earlier, by the dividend's degree) is exactly what the step reads: the
    two windows have equal length, and each step's is 2 shorter than the
    last when the degrees fall by 1.  Coefficients below a window are never
    computed.  The divisor has degree >= m, so every floor is <= m - 1: the
    remainder's true degree is known whenever it is >= m - 1, and an
    all-zero window means degree < m - 1, hence determinant 0.

    Every division is exact in theory, so a nonzero remainder of any
    computed coefficient raises DiscrepancyError.
    """
    if m < 1:
        raise ValueError("Toeplitz dimension must be at least 1")
    f1 = _lstrip0([t(m - 1 - k) for k in range(2 * m - 1)])
    d = len(f1) - 1
    delta = 2 * m - 1 - d
    if d < m - 1:
        return 0
    if d == m - 1:
        return f1[0] ** delta
    # X^(2m-1) down to the first floor, 2m - 1 - d
    f0 = [1] + [0] * d
    beta, psi = (-1) ** (delta + 1), -1
    while True:
        lc = f1[0]
        window = _prem_window(f0[: len(f1)], f1, delta + 1, beta)
        psi = _exact_div((-lc) ** delta, psi ** (delta - 1))
        r = _lstrip0(window)
        # deg f1 - deg r; an all-zero window gives d - gap = floor - 1
        gap = len(window) - len(r) + 1
        if d - gap < m - 1:
            return 0
        if d - gap == m - 1:
            return _exact_div((-1) ** (gap - 1) * r[0] ** gap, psi ** (gap - 1))
        beta = -lc * psi**gap
        f0, f1, d, delta = f1, r, d - gap, gap
