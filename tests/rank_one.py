"""The rank-one update determinant, kept as the tests' cross-check of the
dense `det` (criterion 9), on the same Bareiss kernel."""
from legdet.errors import DiscrepancyError
from legdet.exactlinalg import IntMatrix, det


def rank_one_update_det(h: IntMatrix, u: list, v: list) -> int:
    """det(H + u v^T) by direct elimination and by the rank-one update
    formula det(H) + v^T adj(H) u; the two routes must agree exactly.

    Entry i of adj(H) u is det(H with column i replaced by u) (Cramer's
    rule, which holds for singular H too), so both routes are Bareiss
    determinants."""
    n = h.dim
    if len(u) != n or len(v) != n:
        raise ValueError("vector length must match matrix dimension")
    direct = det(IntMatrix([[x + ui * vj for x, vj in zip(row, v)]
                            for row, ui in zip(h.rows, u)]))
    via_cramer = det(h) + sum(
        vi * det(IntMatrix([row[:i] + (ui,) + row[i + 1:] for row, ui in zip(h.rows, u)]))
        for i, vi in enumerate(v)
    )
    if direct != via_cramer:
        raise DiscrepancyError(
            f"rank-one update mismatch: elimination {direct}, Cramer {via_cramer}"
        )
    return direct
