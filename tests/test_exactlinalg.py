import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legdet.arith import OddPrime, primes_in_range
from legdet.errors import DiscrepancyError
from legdet.exactlinalg import (
    IntMatrix,
    IntPolynomial,
    _bareiss,
    _exact_div,
    _prem_div,
    adjugate,
    charpoly,
    det,
    poly_mul,
    poly_pow,
    rank_one_update_det,
    toeplitz_det,
)
from legdet.matrices import build_cp, build_ep, build_mp, det_cp, det_ep, det_mp


def perm_det(rows):
    """Permutation-expansion determinant, the slow but obviously right way."""
    dim = len(rows)
    total = 0
    for perm in itertools.permutations(range(dim)):
        sign = 1
        seen = list(perm)
        for i in range(dim):
            for j in range(i + 1, dim):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(dim):
            term *= rows[i][perm[i]]
        total += term
    return total


def random_matrix(rng, dim, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(dim)] for _ in range(dim)])


def test_det_matches_permanent_expansion():
    rng = random.Random(7)
    for _ in range(500):
        dim = rng.randint(1, 5)
        m = random_matrix(rng, dim)
        assert det(m) == perm_det(m.rows)


def test_det_zero_pivots_and_singular():
    rng = random.Random(67)
    for _ in range(300):
        dim = rng.randint(1, 4)
        # zero-heavy entries, so zero pivots and singular matrices occur
        rows = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(dim)]
                for _ in range(dim)]
        assert det(IntMatrix(rows)) == perm_det(rows)
    # zero leading pivot; zero second pivot (rows 0, 1 agree on two columns)
    for rows in ([[0, 2], [3, 1]], [[1, 2, 3], [1, 2, 5], [4, 1, 1]]):
        assert det(IntMatrix(rows)) == perm_det(rows) != 0
    for rows in ([[1, 2, 3], [2, 4, 6], [1, 1, 1]], [[0, 1], [0, 5]]):
        assert det(IntMatrix(rows)) == 0


def test_bareiss_inexact_division_raises():
    # a false unit makes the first division inexact: -1 is not a multiple of 2
    with pytest.raises(DiscrepancyError):
        _bareiss([[1, 2], [3, 5]], 2)


def test_det_frozen_values():
    assert det(IntMatrix.identity(3)) == 1
    assert det(IntMatrix([[1, 1], [1, 0]])) == -1
    assert det(IntMatrix.zero(4)) == 0
    assert det(build_mp(OddPrime(7))) == 1
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        a = random_matrix(rng, 4, -5, 5)
        b = random_matrix(rng, 4, -5, 5)
        assert det(a @ b) == det(a) * det(b)


def test_det_row_scaling():
    rng = random.Random(13)
    for _ in range(100):
        m = random_matrix(rng, 3)
        c = rng.randint(-6, 6)
        scaled = IntMatrix([[c * x for x in m.rows[0]]] + [list(r) for r in m.rows[1:]])
        assert det(scaled) == c * det(m)


def test_charpoly_frozen():
    rot = IntMatrix([[0, 1], [-1, 0]])
    assert charpoly(rot).coeffs == (1, 0, 1)
    assert charpoly(IntMatrix.identity(2)).coeffs == (1, -2, 1)
    assert charpoly(build_cp(OddPrime(5))).coeffs == (5, 0, -6, 0, 1)
    assert charpoly(build_cp(OddPrime(7))).coeffs == (49, 0, 63, 0, 15, 0, 1)


def test_charpoly_constant_term_is_signed_det():
    rng = random.Random(17)
    for _ in range(200):
        dim = rng.randint(1, 5)
        m = random_matrix(rng, dim)
        f = charpoly(m)
        assert f.coeffs[0] == (-1) ** dim * det(m)
        assert f.coeffs[-1] == 1
        assert f.coeffs[dim - 1] == -m.trace()


def test_cayley_hamilton():
    rng = random.Random(19)
    for _ in range(50):
        dim = rng.randint(1, 4)
        m = random_matrix(rng, dim, -4, 4)
        f = charpoly(m)
        acc = IntMatrix.zero(dim)
        power = IntMatrix.identity(dim)
        for c in f.coeffs:
            acc = acc + power.scale(c)
            power = power @ m
        assert acc == IntMatrix.zero(dim)


def test_adjugate_frozen_and_identity():
    m = IntMatrix([[1, 2], [3, 4]])
    assert adjugate(m).rows == ((4, -2), (-3, 1))
    rng = random.Random(23)
    for _ in range(100):
        dim = rng.randint(1, 4)
        a = random_matrix(rng, dim)
        d = det(a)
        assert a @ adjugate(a) == IntMatrix.identity(dim).scale(d)
        assert adjugate(a) @ a == IntMatrix.identity(dim).scale(d)


def test_rank_one_update_frozen():
    h = IntMatrix([[2, 0], [0, 3]])
    assert rank_one_update_det(h, (1, 1), (1, 1)) == 11
    assert rank_one_update_det(IntMatrix.identity(3), (1, 2, 3), (1, 1, 1)) == 7


def test_rank_one_update_random():
    rng = random.Random(29)
    for _ in range(500):
        dim = rng.randint(1, 6)
        h = random_matrix(rng, dim, -6, 6)
        u = tuple(rng.randint(-6, 6) for _ in range(dim))
        v = tuple(rng.randint(-6, 6) for _ in range(dim))
        updated = IntMatrix(
            [
                [h.rows[i][j] + u[i] * v[j] for j in range(dim)]
                for i in range(dim)
            ]
        )
        assert rank_one_update_det(h, u, v) == det(updated)


def test_rank_one_update_dimension_check():
    with pytest.raises(ValueError):
        rank_one_update_det(IntMatrix.identity(2), (1,), (1, 2))


def test_int_matrix_ops():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.transpose().rows == ((1, 3), (2, 4))
    assert m.trace() == 5
    assert (m @ IntMatrix.identity(2)) == m
    assert (m + m).rows == ((2, 4), (6, 8))
    assert m.scale(-1).rows == ((-1, -2), (-3, -4))
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])


def test_int_polynomial_behaviour():
    f = IntPolynomial((5, 0, -6, 0, 1))
    assert f.degree == 4
    assert f(0) == 5
    assert f(1) == 0
    assert f(2) == 5 - 24 + 16
    assert str(f) == "t^4 - 6*t^2 + 5"
    assert str(IntPolynomial((0,))) == "0"
    assert str(IntPolynomial((-1, 1))) == "t - 1"
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)


def test_poly_mul_and_pow():
    f = IntPolynomial((-1, 1))
    g = IntPolynomial((1, 1))
    assert poly_mul(f, g).coeffs == (-1, 0, 1)
    assert poly_pow(f, 0).coeffs == (1,)
    assert poly_pow(f, 2).coeffs == (1, -2, 1)
    assert poly_pow(g, 3).coeffs == (1, 3, 3, 1)
    rng = random.Random(31)
    for _ in range(100):
        a = IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4))))
        b = IntPolynomial(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 4))))
        x = rng.randint(-3, 3)
        assert poly_mul(a, b)(x) == a(x) * b(x)


def _toeplitz_bareiss(values, m):
    """Reference: Bareiss on the dense m x m matrix [t(i - j)], where
    values lists t(-(m-1)), ..., t(m-1)."""
    return _bareiss([[values[i - j + m - 1] for j in range(m)] for i in range(m)], 1)


@st.composite
def toeplitz_inputs(draw):
    m = draw(st.integers(1, 14))
    # zero-heavy small entries, so the PRS meets degree gaps of every size
    entry = st.sampled_from((-2, -1, 0, 0, 0, 1, 1, 3))
    return draw(st.lists(entry, min_size=2 * m - 1, max_size=2 * m - 1)), m


@settings(max_examples=500, deadline=None)
@given(toeplitz_inputs())
def test_toeplitz_det_matches_bareiss(args):
    values, m = args
    assert toeplitz_det(lambda k: values[k + m - 1], m) == _toeplitz_bareiss(values, m)


def test_toeplitz_det_even_final_gap_sign():
    # the PRS ends on a degree gap of 2 here; dropping the (-1)^(gap-1)
    # factor of the final step flips the sign
    values = [1, 0, -1, 0, 0, -1, 0, 1, -1]  # t(-4), ..., t(4)
    assert toeplitz_det(lambda k: values[k + 4], 5) == -1
    assert _toeplitz_bareiss(values, 5) == -1


def test_toeplitz_det_singular_and_triangular():
    # rows 0 and 2 of [t(i - j)] agree: t(0) = t(2), t(-1) = t(1), t(-2) = t(0)
    values = [1, 2, 1, 2, 1]
    assert toeplitz_det(lambda k: values[k + 2], 3) == 0 == _toeplitz_bareiss(values, 3)
    assert toeplitz_det(lambda k: 0, 4) == 0
    # upper triangular (t(k) = 0 for k > 0): product of the diagonal
    assert toeplitz_det(lambda k: 0 if k > 0 else k - 3, 4) == 81
    # strictly upper triangular: zero diagonal
    assert toeplitz_det(lambda k: 0 if k >= 0 else 1, 4) == 0
    with pytest.raises(ValueError):
        toeplitz_det(lambda k: 1, 0)


def test_toeplitz_inexact_division_raises():
    # prem(X^2, X + 1) = 1, which a false beta of 2 cannot divide
    with pytest.raises(DiscrepancyError):
        _prem_div([1, 0, 0], [1, 1], 2)
    with pytest.raises(DiscrepancyError):
        _exact_div(3, 2)


def test_symbol_matrix_dets_match_bareiss():
    for q in primes_in_range(3, 131):
        assert det_ep(q) == det(build_ep(q)), q.p
        assert det_mp(q) == det(build_mp(q)), q.p
        if q.p <= 61:
            assert det_cp(q) == det(build_cp(q)), q.p
