"""Exact dense linear algebra over arbitrary-precision integers."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DiscrepancyError


class IntMatrix:
    """Square matrix of Python integers, immutable by convention."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("matrix must be non-empty")
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        self.rows = rows
        self.dim = len(rows)

    @classmethod
    def identity(cls, dim: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other.rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * x for x in row] for row in self.rows])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows)))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.dim))


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple

    def __post_init__(self) -> None:
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0 and self.degree > 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            if not terms:
                terms.append(("-" if c < 0 else "") + body)
            else:
                terms.append(("- " if c < 0 else "+ ") + body)
        return " ".join(terms)


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(tuple(out))


def poly_pow(a: IntPolynomial, k: int) -> IntPolynomial:
    if k < 0:
        raise ValueError("negative power")
    acc = IntPolynomial((1,))
    base = a
    while k:
        if k & 1:
            acc = poly_mul(acc, base)
        base = poly_mul(base, base)
        k >>= 1
    return acc


def _bareiss(a: list, one):
    """Determinant of the square list-of-rows a by fraction-free (Bareiss)
    elimination, overwriting a.

    Exact over any integral domain whose elements support *, -, truthiness
    and a divmod whose remainder is falsy exactly when the division is
    exact; one is the domain's unit.  Every interior division is exact in
    theory, so a nonzero remainder means a broken invariant and raises
    DiscrepancyError.  A zero column with no pivot available means the
    matrix is singular, and that column's zero is returned.
    """
    n = len(a)
    negate = False
    prev = one
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    negate = not negate
                    break
            else:
                return a[k][k]
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row_i[j] - aik * row_k[j], prev)
                if r:
                    raise DiscrepancyError("fraction-free step did not divide exactly")
                row_i[j] = q
        prev = pivot
    return -a[n - 1][n - 1] if negate else a[n - 1][n - 1]


def det(m: IntMatrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    return _bareiss([list(r) for r in m.rows], 1)


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


def _prem_div(a: list, b: list, beta) -> list:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, divided
    exactly by beta.  Polynomials are coefficient lists, leading coefficient
    first, with no leading zeros."""
    lb, nb = b[0], len(b)
    tail_b = b[1:]
    r = a
    for _ in range(len(a) - nb + 1):
        c = r[0]
        if c:
            r = [lb * x - c * y for x, y in zip(r[1:nb], tail_b)] + [
                lb * x for x in r[nb:]
            ]
        else:
            r = [lb * x for x in r[1:]]
    qr = [divmod(x, beta) for x in _lstrip0(r)]
    if any(rem for _, rem in qr):
        raise DiscrepancyError("subresultant step did not divide exactly")
    return [q for q, _ in qr]


def toeplitz_det(t, m: int, one=1):
    """Exact determinant of the m x m Toeplitz matrix [t(i - j)], 0 <= i, j < m.

    Reversing the rows gives a Hankel matrix, whose determinant is the
    principal subresultant coefficient of index m - 1 of F0 = X^(2m-1) and
    F1 = sum_k t(m-1-k) X^(2m-2-k); the two sign changes cancel.  The
    Brown-Collins subresultant PRS reaches it in O(m^2) ring operations
    (Brown & Traub 1971).  The ring and its unit one are as for _bareiss;
    its elements also need ** by a non-negative int.  Every division is
    exact in theory, so a nonzero remainder raises DiscrepancyError.
    """
    if m < 1:
        raise ValueError("Toeplitz dimension must be at least 1")
    zero = one - one
    f0 = [one] + [zero] * (2 * m - 1)
    f1 = _lstrip0([t(m - 1 - k) for k in range(2 * m - 1)])
    delta = len(f0) - len(f1)
    if len(f1) < m:
        return zero
    if len(f1) == m:
        return f1[0] ** delta
    beta, psi = (-one) ** (delta + 1), -one
    while True:
        r = _prem_div(f0, f1, beta)
        lc = f1[0]
        psi = _exact_div((-lc) ** delta, psi ** (delta - 1))
        gap = len(f1) - len(r)
        if len(r) < m:
            return zero
        if len(r) == m:
            return _exact_div((-one) ** (gap - 1) * r[0] ** gap, psi ** (gap - 1))
        beta = -lc * psi**gap
        f0, f1, delta = f1, r, gap


def toeplitz_charpoly(t, m: int) -> IntPolynomial:
    """Characteristic polynomial det(xI - T) of the m x m Toeplitz matrix
    T = [t(i - j)], 0 <= i, j < m.

    xI - T is Toeplitz with t'(0) = x - t(0) and t'(k) = -t(k), so each value
    at x = 0..m is one toeplitz_det.  The k-th forward difference at 0 is k!
    times the integer coefficient of x(x-1)...(x-k+1) (Newton's form), so an
    inexact division by k! raises DiscrepancyError; a Horner loop expands
    that form into monomials.  m + 1 points fix a polynomial of degree at
    most m, so the monic leading term is computed, not assumed.
    """
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


def charpoly(m: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(tI - M), Faddeev-LeVerrier.

    Works entirely over the integers: the division by the step index k
    is exact (Newton's identities); an inexact one raises DiscrepancyError.
    """
    n = m.dim
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = IntMatrix.identity(n)
    for k in range(1, n + 1):
        if k > 1:
            mk = am + IntMatrix.identity(n).scale(coeffs[n - k + 1])
        am = m @ mk
        tr = am.trace()
        q, r = divmod(tr, k)
        if r:
            raise DiscrepancyError("Faddeev-LeVerrier trace division not exact")
        coeffs[n - k] = -q
    return IntPolynomial(tuple(coeffs))


def _minor(rows, drop_i: int, drop_j: int) -> IntMatrix:
    return IntMatrix(
        [
            [x for j, x in enumerate(row) if j != drop_j]
            for i, row in enumerate(rows)
            if i != drop_i
        ]
    )


def adjugate(m: IntMatrix) -> IntMatrix:
    """Adjugate via cofactors: adj(M)[i][j] = (-1)^(i+j) det(minor_ji)."""
    n = m.dim
    if n == 1:
        return IntMatrix([[1]])
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = det(_minor(m.rows, j, i))
            out[i][j] = c if (i + j) % 2 == 0 else -c
    return IntMatrix(out)


def rank_one_update_det(h: IntMatrix, u: list, v: list) -> int:
    """det(H + u v^T) by direct elimination and by the rank-one update
    formula det(H) + v^T adj(H) u; the two routes must agree exactly."""
    n = h.dim
    if len(u) != n or len(v) != n:
        raise ValueError("vector length must match matrix dimension")
    updated = IntMatrix(
        [[h.rows[i][j] + u[i] * v[j] for j in range(n)] for i in range(n)]
    )
    direct = det(updated)
    adj = adjugate(h)
    via_adjugate = det(h) + sum(
        v[i] * sum(adj.rows[i][j] * u[j] for j in range(n)) for i in range(n)
    )
    if direct != via_adjugate:
        raise DiscrepancyError(
            f"rank-one update mismatch: elimination {direct}, adjugate {via_adjugate}"
        )
    return direct
