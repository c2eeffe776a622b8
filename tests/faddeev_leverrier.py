"""The Faddeev-LeVerrier characteristic polynomial of a dense integer matrix,
kept as the tests' reference for `toeplitz_charpoly` and criterion 4, with
the dense matrix products it runs on."""
from legdet.errors import DiscrepancyError
from legdet.exactlinalg import IntMatrix, IntPolynomial


def identity(dim: int) -> IntMatrix:
    return IntMatrix([[int(i == j) for j in range(dim)] for i in range(dim)])


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b.rows))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in cols]
                      for row in a.rows])


def charpoly(m: IntMatrix) -> IntPolynomial:
    """Monic characteristic polynomial det(tI - M), Faddeev-LeVerrier.

    Works entirely over the integers: the division by the step index k
    is exact (Newton's identities); an inexact one raises DiscrepancyError.
    """
    n = m.dim
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = identity(n)
    for k in range(1, n + 1):
        if k > 1:  # mk = am + coeffs[n - k + 1] * I
            c = coeffs[n - k + 1]
            mk = IntMatrix([[x + c * (i == j) for j, x in enumerate(row)]
                            for i, row in enumerate(am.rows)])
        am = matmul(m, mk)
        q, r = divmod(sum(am.rows[i][i] for i in range(n)), k)
        if r:
            raise DiscrepancyError("Faddeev-LeVerrier trace division not exact")
        coeffs[n - k] = -q
    return IntPolynomial(tuple(coeffs))
