"""Ring-generic fraction-free (Bareiss) elimination, the tests' reference
for determinants over rings other than Z (here Z[tau])."""
from legdet.errors import DiscrepancyError


def bareiss(a: list, one):
    """Determinant of the square list-of-rows a by Bareiss elimination,
    overwriting a.

    Exact over any integral domain whose elements support *, -, truthiness
    and a divmod whose remainder is falsy exactly when the division is
    exact; one is the domain's unit.  Every interior division is exact in
    theory, so a nonzero remainder raises DiscrepancyError.  A zero column
    with no pivot available means the matrix is singular, and that
    column's zero is returned.
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
