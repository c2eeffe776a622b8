import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legdet import exactlinalg, matrices
from legdet.arith import OddPrime, is_prime, legendre_array, primes_in_range
from legdet.errors import DiscrepancyError
from legdet.exactlinalg import (
    IntMatrix,
    _bareiss,
    _lane_primes,
    det,
    toeplitz_det_mod,
    toeplitz_det_ztau,
)
from legdet.matrices import (
    build_cp,
    build_ep,
    build_mp,
    charpoly_cp,
    charpoly_cp_text,
    det_cp,
    det_ep,
    det_mp,
)
from legdet.verify import FAIL, PASS, run_sweep
from bigint_charpoly import bigint_charpoly
from bigint_toeplitz import _exact_div, _prem_window, toeplitz_det
from faddeev_leverrier import charpoly, identity, matmul
from hankel_cofactors import bordered, euclid_cofactors, evaluate, hankel, moments
from int_polynomial import IntPolynomial, expand_factored, poly_mul, poly_pow
from lane_charpoly import toeplitz_charpoly
import rank_one
from rank_one import rank_one_update_det
from ring_bareiss import bareiss


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


def zero_matrix(dim):
    return IntMatrix([[0] * dim for _ in range(dim)])


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
        bareiss([[1, 2], [3, 5]], 2)


def test_det_frozen_values():
    assert det(identity(3)) == 1
    assert det(IntMatrix([[1, 1], [1, 0]])) == -1
    assert det(zero_matrix(4)) == 0
    assert det(build_mp(OddPrime(7))) == 1
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1


def test_det_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        a = random_matrix(rng, 4, -5, 5)
        b = random_matrix(rng, 4, -5, 5)
        assert det(matmul(a, b)) == det(a) * det(b)


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
    assert charpoly(identity(2)).coeffs == (1, -2, 1)
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
        assert f.coeffs[dim - 1] == -sum(m.rows[i][i] for i in range(dim))


def test_cayley_hamilton():
    rng = random.Random(19)
    for _ in range(50):
        dim = rng.randint(1, 4)
        m = random_matrix(rng, dim, -4, 4)
        f = charpoly(m)
        acc = zero_matrix(dim).rows
        power = identity(dim)
        for c in f.coeffs:
            acc = [[a + c * x for a, x in zip(ra, rp)] for ra, rp in zip(acc, power.rows)]
            power = matmul(power, m)
        assert IntMatrix(acc) == zero_matrix(dim)


def test_rank_one_update_cramer_identity():
    # v^T adj(H) u = sum_i v_i det(H with column i replaced by u), checked
    # against permutation expansion, singular H included
    rng = random.Random(23)
    singular = 0
    for _ in range(300):
        dim = rng.randint(1, 4)
        rows = [[rng.choice((0, rng.randint(-4, 4))) for _ in range(dim)]
                for _ in range(dim)]
        u = [rng.randint(-4, 4) for _ in range(dim)]
        v = [rng.randint(-4, 4) for _ in range(dim)]
        updated = [[x + ui * vj for x, vj in zip(row, v)] for row, ui in zip(rows, u)]
        cramer = perm_det(rows) + sum(
            vi * perm_det([row[:i] + [ui] + row[i + 1:] for row, ui in zip(rows, u)])
            for i, vi in enumerate(v))
        assert perm_det(updated) == cramer
        assert rank_one_update_det(IntMatrix(rows), u, v) == cramer
        singular += perm_det(rows) == 0
    assert singular > 30


def test_rank_one_update_frozen():
    h = IntMatrix([[2, 0], [0, 3]])
    assert rank_one_update_det(h, (1, 1), (1, 1)) == 11
    assert rank_one_update_det(identity(3), (1, 2, 3), (1, 1, 1)) == 7


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
        rank_one_update_det(identity(2), (1,), (1, 2))


def test_rank_one_update_mismatch_raises(monkeypatch):
    # every determinant off by one: the direct route reads 7 + 1, while the
    # update formula adds one per determinant it takes, so the two disagree
    monkeypatch.setattr(rank_one, "det", lambda m: det(m) + 1)
    with pytest.raises(DiscrepancyError, match=r"^rank-one update mismatch: elimination 8, "):
        rank_one_update_det(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                            (1, 2, 3), (1, 1, 1))


def test_int_matrix_ops():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.dim == 2 and m.rows == ((1, 2), (3, 4))
    assert m == IntMatrix([(1, 2), (3, 4)]) and m != IntMatrix([[1, 2], [3, 5]])
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


def _toeplitz_rows(values, m):
    """The dense m x m matrix [t(i - j)], where values lists t(-(m-1)), ...,
    t(m-1)."""
    return [[values[i - j + m - 1] for j in range(m)] for i in range(m)]


def _toeplitz_bareiss(values, m):
    """Reference: Bareiss on the dense Toeplitz matrix."""
    return _bareiss(_toeplitz_rows(values, m))


@st.composite
def toeplitz_inputs(draw, max_m=14):
    m = draw(st.integers(1, max_m))
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
    # prem(X^2, X + 1) = 1, which a false beta of 2 cannot divide; the
    # divisor's window reaches as deep as the dividend's, one degree below
    # its constant term
    with pytest.raises(DiscrepancyError):
        _prem_window([1, 0, 0], [1, 1, 0], 2, 2)
    with pytest.raises(DiscrepancyError):
        _exact_div(3, 2)
    # longer windows whose first quotient is exact and a later one is not,
    # by a negative beta, on both the two-step and the looped path
    b = [2, 1, -1, 3, 0]
    for a, steps, window in (([1, 0, 3, 1, 1], 2, [15, -3, 7]),
                             ([1, 0, 1, 0, 0], 3, [-21, 13])):
        assert _prem_window(a, b, steps, -1) == [-x for x in window]
        with pytest.raises(DiscrepancyError, match="subresultant step did not divide exactly"):
            _prem_window(a, b, steps, -3)


def test_prem_window_remainders_cannot_cancel():
    # numerators 1 and -1 over beta = +-2: truncated remainders (1, -1)
    # would cancel in a sum, floor remainders (1, 1) or (-1, -1) cannot;
    # b = X^3 makes the numerators a's tail, on the two-step and the
    # looped path
    message = "subresultant step did not divide exactly"
    for a, steps in (([0, 0, 1, -1], 2), ([0, 1, -1, 0], 1)):
        assert _prem_window(a, [1, 0, 0, 0], steps, 1)[:2] == [1, -1]
        for beta in (2, -2):
            with pytest.raises(DiscrepancyError, match=message):
                _prem_window(a, [1, 0, 0, 0], steps, beta)


def test_prem_window_two_steps_match_single_steps():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(3, 9)
        a = [rng.randint(-50, 50) for _ in range(n)]
        b = [rng.choice([-3, -1, 1, 2, 5])] + [rng.randint(-50, 50) for _ in range(n - 1)]
        single = _prem_window(_prem_window(a, b, 1, 1), b, 1, 1)
        assert _prem_window(a, b, 2, 1) == single
        beta = rng.choice([-7, -2, 3, 6])
        if all(x % beta == 0 for x in single):
            assert _prem_window(a, b, 2, beta) == [x // beta for x in single]
        else:
            with pytest.raises(DiscrepancyError):
                _prem_window(a, b, 2, beta)


def test_toeplitz_det_zero_window_over_nonzero_remainder():
    # the all -1 matrix has rank 1: X^(2m-1) = 1 mod F1, so the first
    # remainder is a nonzero constant, below the window's floor of degree 1
    assert toeplitz_det(lambda k: -1, 4) == 0 == _toeplitz_bareiss([-1] * 7, 4)
    # rows 0 and 2 are proportional: prem(X^5, 2X^3 + X) is a nonzero multiple
    # of X, below the window's floor of degree 2
    values = [0, 1, 0, 2, 0]
    assert toeplitz_det(lambda k: values[k + 2], 3) == 0 == _toeplitz_bareiss(values, 3)


def test_symbol_matrix_dets_match_bareiss():
    for q in primes_in_range(3, 131):
        assert det_ep(q) == det(build_ep(q)), q.p
        assert det_mp(q) == det(build_mp(q)), q.p
        if q.p <= 61:
            assert det_cp(q) == det(build_cp(q)), q.p


def test_det_band_sweeps_match_the_closed_forms():
    # the windowed PRS at 389, 397 and 401 against the paper's closed forms
    for target in ("sun", "chapman"):
        report = run_sweep(target, 389, 401)
        assert [(r.p, r.status) for r in report.records] == [
            (389, PASS), (397, PASS), (401, PASS)
        ], target


def _random_values(rng, m):
    """Zero-heavy t(-(m-1)), ..., t(m-1); a quarter of the draws are all
    zero or have t(k) = 0 for k >= 0 (a zero diagonal and above)."""
    values = [rng.choice((-2, -1, 0, 0, 0, 1, 1, 3)) for _ in range(2 * m - 1)]
    shape = rng.randrange(8)
    if shape == 0:
        values = [0] * (2 * m - 1)
    elif shape == 1:
        values[m - 1:] = [0] * m
    return values


def _random_toeplitz(rng, max_m=14):
    """_random_values for a random m, and m."""
    m = rng.randint(1, max_m)
    return _random_values(rng, m), m


def _f1(values):
    """The symbol t(m-1), ..., t(-(m-1)) of values, F1's coefficients, as
    toeplitz_det_mod takes it."""
    return np.array(values[::-1], dtype=np.int64)


# symbols t(m - 1), ..., t(1 - m) with an entry -2^63, and their
# determinants: symmetric, general, and two that would read as skew if
# -(-2^63) were taken in int64
_INT64_EDGE = [([0, -2**63, 0], 2**126), ([3, -2**63, 5], 2**126 - 15),
               ([1, -2**63, -1], 2**126 + 1), ([-2**63, 1, 0, -1, -2**63], -2**64)]


def test_toeplitz_det_mod_matches_toeplitz_det():
    rng = random.Random(12)
    zero = 0
    for _ in range(2500):
        values, m = _random_toeplitz(rng)
        exact = toeplitz_det(lambda k: values[k + m - 1], m)
        assert toeplitz_det_mod(_f1(values)) == exact, (values, m)
        zero += exact == 0
    assert zero > 500  # singular matrices are well represented
    # the fixed cases of the bigint kernel's tests
    assert toeplitz_det_mod(_f1([1, 0, -1, 0, 0, -1, 0, 1, -1])) == -1
    assert toeplitz_det_mod(_f1([1, 2, 1, 2, 1])) == 0
    assert toeplitz_det_mod(_f1([0, 1, 0, 2, 0])) == 0
    assert toeplitz_det_mod(_f1([-1] * 7)) == 0
    assert toeplitz_det_mod(_f1([0] * 7)) == 0
    assert toeplitz_det_mod(_f1([-6, -5, -4, -3, 0, 0, 0])) == 81
    assert toeplitz_det_mod(_f1([7])) == 7
    # symbols at the edge of int64: |-2^63| = 2^63 in the bound, and -2^63
    # makes no symbol skew, as -(-2^63) wraps to itself
    for symbol, exact in _INT64_EDGE:
        assert toeplitz_det_mod(np.array(symbol)) == exact, symbol
    with pytest.raises(ValueError, match="fit in int64"):
        toeplitz_det_mod(np.array([2**63], dtype=np.uint64))
    assert toeplitz_det_mod(np.array([2**63 - 1], dtype=np.uint64)) == 2**63 - 1
    # a symbol is a 1-D integer array of odd length 2m - 1, m >= 1
    malformed = [np.array(x, dtype=np.int64) for x in ([], [1, 2], [[1], [2], [3]], 5)]
    for symbol in malformed + [np.array([0.5, 1.0, 2.0])]:
        with pytest.raises(ValueError, match="odd length"):
            toeplitz_det_mod(symbol)


def _centrosymmetric_values(rng, m, skew):
    """_random_values for m folded into a symmetric symbol, t(-k) = t(k),
    or a skew one, t(-k) = -t(k) and t(0) = 0: t(k) and t(-k) take the
    draw's t(-k), so an all-zero draw stays all zero, and a draw with a
    zero diagonal keeps t(0) = 0."""
    half = _random_values(rng, m)[m - 1::-1]  # the draw's t(0), ..., t(-(m-1))
    if skew:
        half[0] = 0
    return [-x if skew else x for x in half[:0:-1]] + half


def test_symmetric_and_skew_symbols_match_toeplitz_det(monkeypatch):
    # the split into half-size Hankel determinants, in all four parity
    # cases, against the bigint PRS, on the lane primes and on primes 3, 5,
    # 7, ..., where unlucky primes drop and rerun: the Hankel run takes
    # its zero tests on det T's bound, and every lane kept still gives its
    # readings mod q
    reruns = _count_reruns(monkeypatch)
    rng = random.Random(31)
    cases, zero_symbols, zero_diagonals = {}, 0, 0
    for _ in range(1000):
        m, skew = rng.randint(1, 40), rng.random() < 0.5
        values = _centrosymmetric_values(rng, m, skew)
        exact = toeplitz_det(lambda k: values[k + m - 1], m)
        monkeypatch.setattr(exactlinalg, "_lane_primes", _lane_primes)
        assert toeplitz_det_mod(_f1(values)) == exact, (values, m)
        _patch_lane_primes(monkeypatch, _SMALL_PRIMES)
        assert toeplitz_det_mod(_f1(values)) == exact, (values, m)
        kind = ("skew" if skew else "symmetric", m % 2, exact == 0)
        cases[kind] = cases.get(kind, 0) + 1
        zero_symbols += not any(values)
        zero_diagonals += not skew and values[m - 1] == 0 and any(values)
    for symmetry in ("symmetric", "skew"):
        for odd in (0, 1):
            assert cases.get((symmetry, odd, True), 0) > 20, (symmetry, odd)
            regular = cases.get((symmetry, odd, False), 0)
            # a skew symbol of odd dimension is always singular
            assert regular == 0 if symmetry == "skew" and odd else regular > 50, (symmetry, odd)
    assert zero_symbols > 50 and zero_diagonals > 50 and sum(reruns) > 50


def test_the_cofactor_lemma_reads_every_bordered_hankel_determinant():
    # the lemma _lane_dets reads S_K(x) by, on Fractions against Bareiss:
    # with K_i = deg V_i, (a) S_K = H_K V_i / lc(V_i) at K = K_i, (b) S_K =
    # H_(K+1) V_i / lc(R_i) at K = K_i + deg Q_i - 1, and (c) S_K = 0
    # strictly between, for every K <= N - 1, on zero-heavy sequences, so
    # that Euclid's degrees fall by more than 1 at many steps
    rng = random.Random(41)
    seen = dict.fromkeys(("a", "b", "gap top", "gap interior"), 0)
    for _ in range(2000):
        n = rng.randint(1, 8)
        h = [rng.choice((-2, -1, 0, 0, 0, 1, 1, 3)) for _ in range(2 * n - 1)]
        for r, v, quo in euclid_cofactors(h):
            low = len(v) - 1
            top = n - 1 if quo is None else low + len(quo) - 2
            for size in range(low, min(top, n - 1) + 1):
                got = bordered(h, size)
                scaled = []
                if size == low:
                    scaled.append([hankel(h, size) * c / v[-1] for c in v])
                    seen["a"] += 1
                if size == top and quo is not None:
                    scaled.append([hankel(h, size + 1) * c / r[-1] for c in v])
                    seen["b"] += 1
                    seen["gap top"] += size > low
                if not scaled:
                    scaled.append([])
                    seen["gap interior"] += 1
                for want in scaled:
                    want = want + [0] * (size + 1 - len(want))
                    assert got == want, (h, size)
    assert min(seen.values()) > 400, seen


def test_the_split_identities_in_s_form_match_bareiss():
    # the identities toeplitz_det_mod reads off its one run, S_K being
    # bordered by (1, x, ..., x^K) on c, c'_n = 2 c_n - c_(n+1) or d, against
    # Bareiss on T or M, in all parity cases, singular ones included, and
    # with row 0 replaced by r, ..., r:
    # symmetric T, m = 2k + 1: (-1)^(k+1) (S_k(2) S_(k+1)(-2) - S_k(-2)
    #   S_(k+1)(2)) / 4^(k+1), for any c_(2k+1), which cancels;
    # symmetric T, m = 2k: (-1)^k S_k(2) S_k(-2) / 4^k;
    # symmetric M, m = 2k + 1: (-1)^k r H_k[c'] S'_k(-2) / 4^k;
    # symmetric M, m = 2k: (-1)^(k-1) 2 r H_k[c'] S'_(k-1)(-2) / 4^k;
    # skew M: -r H_k[d] S_(k-1)(2) (m = 2k) or r H_k[d] S_k(2) (m = 2k + 1)
    rng = random.Random(43)
    cases = {}
    for _ in range(800):
        m, skew, r = rng.randint(1, 10), rng.random() < 0.5, rng.choice((1, -1, 2, -3))
        values = _centrosymmetric_values(rng, m, skew)
        rows = _toeplitz_rows(values, m)
        k = m // 2

        def s(h, size, x):
            return evaluate(bordered(h, size), x)

        if skew:
            d = moments(values, m, 1)
            top = k - 1 + m % 2
            formula = (-1) ** (m + 1) * r * hankel(d, k) * s(d, top, 2)
        else:
            c = moments(values, m, 0)
            cprime = [2 * x - y for x, y in zip(c, c[1:])]
            if m % 2:
                c.append(rng.randint(-9, 9))  # c_(2k+1)
                exact = (-1) ** (k + 1) * Fraction(
                    s(c, k, 2) * s(c, k + 1, -2) - s(c, k, -2) * s(c, k + 1, 2), 4 ** (k + 1))
            else:
                exact = (-1) ** k * Fraction(s(c, k, 2) * s(c, k, -2), 4**k)
            assert exact == _bareiss([list(row) for row in rows]), (values, m)
            top = k - 1 + m % 2
            formula = (-1) ** top * (2 - m % 2) * r * Fraction(
                hankel(cprime, k) * s(cprime, top, -2), 4**k)
        rows[0] = [r] * m
        exact = _bareiss(rows)
        assert formula == exact, (values, m, r)
        kind = (skew, m % 2, exact == 0)
        cases[kind] = cases.get(kind, 0) + 1
    assert len(cases) == 8 and min(cases.values()) > 20, cases


def test_a_skew_symbol_rebuilds_its_square_root_on_half_the_bits(monkeypatch):
    # det_ep at p = 3 (mod 4) is H_k[d]^2: the primes multiply past
    # 2 (isqrt(H) + 1), not 2H, and one spare follows them; at p = 1 (mod 4)
    # its one Hankel run takes the primes of 2H.  det_mp's one run takes the
    # primes of 2 (isqrt(m^m) + 1), m = n + 1, Hadamard's bound on the rows
    # of M with S = m and r = 1, at every p
    lane_dets = exactlinalg._lane_dets
    runs = []

    def recording(f1, q, m, points=()):
        runs.append(q.tolist())
        return lane_dets(f1, q, m, points)

    monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
    for p in (199, 397, 599):
        q = OddPrime(p)
        chi = legendre_array(q).tolist()
        m = q.n + 1
        h = exactlinalg._hadamard_bound(np.array([chi[k] for k in range(-q.n, q.n + 1)]), m)
        ep_limit = 2 * h if p % 4 == 1 else 2 * (math.isqrt(h) + 1)
        for target, limit in ((det_ep, ep_limit), (det_mp, 2 * (math.isqrt(m**m) + 1))):
            runs.clear()
            target(q)
            [primes] = runs
            chosen = primes[:-1]
            assert math.prod(chosen[:-1]) <= limit < math.prod(chosen), (p, target)


def test_an_odd_skew_symbol_takes_no_prime(monkeypatch):
    _patch_lane_primes(monkeypatch, [])
    values = [-2, 1, 0, -1, 2]  # t(-2), ..., t(2)
    assert toeplitz_det(lambda k: values[k + 2], 3) == 0
    assert toeplitz_det_mod(_f1(values)) == 0
    # an even one needs primes
    with pytest.raises(DiscrepancyError, match="lane primes ran out"):
        toeplitz_det_mod(_f1(values[1:-1]))


_SMALL_PRIMES = [q.p for q in primes_in_range(3, 2000)]


def _patch_lane_primes(monkeypatch, primes):
    """Let the lanes take their primes from the list primes."""
    monkeypatch.setattr(exactlinalg, "_lane_primes", lambda: iter(primes))


def _count_reruns(monkeypatch):
    """Let _lane_dets append to the returned list, on each call, whether
    some of its lanes were unlucky."""
    lane_dets = exactlinalg._lane_dets
    reruns = []

    def recording(f1, q, m, points=()):
        residues, unlucky = lane_dets(f1, q, m, points)
        reruns.append(unlucky is not None)
        return residues, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
    return reruns


def test_a_constant_row_0_matches_bareiss(monkeypatch):
    # the bordered split: T with row 0 replaced by r, ..., r, in all four
    # parity cases, against Bareiss on the explicit matrix, on the lane
    # primes and on primes 3, 5, 7, ..., where unlucky primes drop and rerun
    reruns = _count_reruns(monkeypatch)
    rng = random.Random(37)
    cases, zero_symbols, zero_diagonals = {}, 0, 0
    for _ in range(600):
        m, skew, r = rng.randint(1, 40), rng.random() < 0.5, rng.choice((1, 1, -1, 2, -3))
        values = _centrosymmetric_values(rng, m, skew)
        rows = _toeplitz_rows(values, m)
        rows[0] = [r] * m
        exact = _bareiss(rows)
        monkeypatch.setattr(exactlinalg, "_lane_primes", _lane_primes)
        assert toeplitz_det_mod(_f1(values), row0=r) == exact, (values, m, r)
        _patch_lane_primes(monkeypatch, _SMALL_PRIMES)
        assert toeplitz_det_mod(_f1(values), row0=r) == exact, (values, m, r)
        kind = ("skew" if skew else "symmetric", m % 2, exact == 0)
        cases[kind] = cases.get(kind, 0) + 1
        zero_symbols += not any(values)
        zero_diagonals += not skew and values[m - 1] == 0 and any(values)
    for symmetry in ("symmetric", "skew"):
        for odd in (0, 1):
            assert cases.get((symmetry, odd, True), 0) > 10, (symmetry, odd)
            assert cases.get((symmetry, odd, False), 0) > 30, (symmetry, odd)
    assert zero_symbols > 20 and zero_diagonals > 20 and sum(reruns) > 50
    # a constant row 0 needs a symmetric or skew symbol
    with pytest.raises(ValueError, match="symmetric or skew"):
        toeplitz_det_mod(_f1([1, 2, 3]), row0=1)


def test_lanes_drop_unlucky_primes_and_rerun(monkeypatch):
    # with primes 3, 5, 7, ... many columns vanish mod some lane primes
    # only; those lanes are dropped and the run repeats with later primes
    runs = _count_reruns(monkeypatch)
    _patch_lane_primes(monkeypatch, _SMALL_PRIMES)
    rng = random.Random(13)
    reruns = 0
    for _ in range(400):
        values, m = _random_toeplitz(rng)
        runs.clear()
        got = toeplitz_det_mod(_f1(values))
        assert got == toeplitz_det(lambda k: values[k + m - 1], m), (values, m)
        assert runs[-1] is False
        reruns += sum(runs)
    assert reruns > 50


def test_a_refill_keeps_the_survivors_first_and_in_order(monkeypatch):
    # after unlucky primes are dropped, the next run's primes are the
    # surviving chosen primes in their order, then the stream's next primes,
    # the old spare first if it survived; so every run is the stream's
    # first primes less those dropped so far.  The chosen primes multiply
    # past 2H and no earlier, and one spare prime follows them.
    runs = []
    lane_dets = exactlinalg._lane_dets

    def recording(f1, q, m, points=()):
        residues, unlucky = lane_dets(f1, q, m, points)
        runs.append((q.tolist(), None if unlucky is None else unlucky.tolist()))
        return residues, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
    _patch_lane_primes(monkeypatch, _SMALL_PRIMES)
    rng = random.Random(23)
    refills = 0
    for _ in range(200):
        values, m = _random_toeplitz(rng)
        h = exactlinalg._hadamard_bound(np.array(values), m)
        runs.clear()
        toeplitz_det_mod(_f1(values))
        dropped = set()
        for primes, unlucky in runs:
            left = [q for q in _SMALL_PRIMES if q not in dropped]
            assert primes == left[:len(primes)]
            chosen = primes[:-1]
            assert math.prod(chosen[:-1]) <= 2 * h < math.prod(chosen)
            if unlucky is not None:
                dropped |= {q for q, bad in zip(primes, unlucky) if bad}
                refills += 1
    assert refills > 50


def test_a_batch_of_one_never_drops_its_row(monkeypatch):
    # every run of one matrix ends in its determinant, on primes 3, 5,
    # 7, ... (unlucky primes and reruns) or on the lane primes
    rng = random.Random(15)
    for trial in range(500):
        values, m = _random_toeplitz(rng, 12)
        primes = _SMALL_PRIMES if trial % 2 else list(itertools.islice(_lane_primes(), 60))
        _patch_lane_primes(monkeypatch, primes)
        assert toeplitz_det_mod(_f1(values)) == toeplitz_det(
            lambda k: values[k + m - 1], m), (values, m)


def _tamper_lane(monkeypatch, position, run=None, row=0):
    """Add 1 mod its prime to lane position of every run, or, when run is
    given, of the run-th call of _lane_dets from now on: to its residue,
    or, on a run that reads points, to its value at points[row]."""
    lane_dets = exactlinalg._lane_dets
    calls = itertools.count()

    def tampered(f1, q, m, points=()):
        values, unlucky = lane_dets(f1, q, m, points)
        if values is not None and (run is None or next(calls) == run):
            line = values[row] if points else values
            line[position] = (line[position] + 1) % int(q[position])
        return values, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", tampered)


def test_lanes_reject_too_few_primes_and_a_tampered_lane(monkeypatch):
    symbol = _f1([1, 0, -1, 0, 0, -1, 0, 1, -1])
    # S = 5 (the five largest squares), H = isqrt(5^5) + 1 = 56: primes must
    # multiply past 112, and 3 * 5 * 7 = 105 does not; 3 * 5 * 11 does, but
    # leaves no spare prime
    for primes in ([3, 5, 7, 11], [3, 5, 11]):
        _patch_lane_primes(monkeypatch, primes)
        with pytest.raises(DiscrepancyError, match="lane primes ran out"):
            toeplitz_det_mod(symbol)
    _patch_lane_primes(monkeypatch, [3, 5, 11, 13])
    assert toeplitz_det_mod(symbol) == -1
    monkeypatch.undo()
    _tamper_lane(monkeypatch, 0)
    # det E_101 = -a_101 takes 5 lanes and a spare; one residue off by 1
    # moves the CRT value far outside H
    with pytest.raises(DiscrepancyError):
        det_ep(OddPrime(101))
    # det_mp at 151 takes 8 lanes and a spare on Hadamard's bound on the
    # rows of M; one residue off by 1 moves the CRT value outside it
    with pytest.raises(DiscrepancyError, match="exceeds its Hadamard bound"):
        det_mp(OddPrime(151))


def test_det_mp_matches_the_dense_det():
    # det_mp on the lanes, on the bordered split, from p = 3 (N = 2, where
    # the second Hankel factor is H_0 = 1) up
    for q in primes_in_range(3, 199):
        assert det_mp(q) == det(build_mp(q)), q.p
    assert all(abs(det_mp(q)) == 1 for q in primes_in_range(97, 601))


def test_a_wrong_residue_on_any_lane_is_caught(monkeypatch):
    # the CRT of det_mp (on Hadamard's bound on M's rows) and det_ep (on H
    # or, at p = 3 mod 4, isqrt(H) + 1) at every p in 5..601, fed a +1 on
    # each single lane, chosen or spare: on a chosen lane the bound alone
    # let it through at 27 primes of det_mp (5..23, 67, 103, ..., 571) and
    # 26 of det_ep (5..23, 31, 43, ..., 557); the spare prime catches every
    # one.  Every dimension runs on the lanes, the small ones included
    crt = exactlinalg._crt
    calls = []

    def recording(residues, run, bound):
        calls.append((residues, run, bound))
        return crt(residues, run, bound)

    monkeypatch.setattr(exactlinalg, "_crt", recording)
    through = {det_mp: set(), det_ep: set()}
    for q in primes_in_range(5, 601):
        for target in (det_mp, det_ep):
            calls.clear()
            target(q)
            [(residues, run, bound)] = calls
            for i, qk in enumerate(run):
                wrong = residues[:i] + [(residues[i] + 1) % qk] + residues[i + 1:]
                with pytest.raises(DiscrepancyError) as caught:
                    crt(wrong, run, bound)
                if i < len(run) - 1 and "spare" in str(caught.value):
                    through[target].add(q.p)
    assert (len(through[det_mp]), len(through[det_ep])) == (27, 26)


def test_a_wrong_last_lane_passes_the_bound_but_not_the_spare(monkeypatch):
    # at p = 167 a +1 on the last chosen lane of det_mp rebuilds to a value
    # inside Hadamard's bound on the rows of M
    _tamper_lane(monkeypatch, -2)
    with pytest.raises(DiscrepancyError, match="disagrees with the spare prime"):
        det_mp(OddPrime(167))


def test_a_wrong_residue_on_any_lane_of_each_hankel_run_is_caught(monkeypatch):
    # every determinant is one _lane_dets run: det_ep at 101 and 397 (p = 1
    # mod 4) reads S_k and S_(k+1) of c at +-2, and at 103 (p = 3 mod 4)
    # takes the plain run of D; det_mp reads H_k and one S at every p, the
    # bordered split of its constant row 0; of the int64 edge symbols the
    # symmetric one (m = 2) reads S_1 of c at +-2, the others take one
    # general run.  A +1 on any single lane, chosen or spare, of a plain
    # run's residues or of any value a run reads at its points raises
    lane_dets = exactlinalg._lane_dets

    def readings_of(compute):
        runs = []

        def recording(f1, qs, m, points=()):
            runs.append((len(qs), len(points)))
            return lane_dets(f1, qs, m, points)

        monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
        expected = compute()
        monkeypatch.undo()
        [(width, readings)] = runs
        for row in range(max(readings, 1)):
            for position in range(width):
                _tamper_lane(monkeypatch, position, 0, row)
                with pytest.raises(DiscrepancyError):
                    compute()
                monkeypatch.undo()
        assert compute() == expected
        return readings

    for target, p in ((det_ep, 101), (det_ep, 103), (det_ep, 397),
                      (det_mp, 101), (det_mp, 103), (det_mp, 397), (det_mp, 599)):
        readings = readings_of(lambda: target(OddPrime(p)))
        assert readings == (2 if target is det_mp else 4 if p % 4 == 1 else 0), (target, p)
    for symbol, _ in _INT64_EDGE:
        readings = readings_of(lambda: toeplitz_det_mod(np.array(symbol)))
        assert readings == (2 if symbol == [0, -2**63, 0] else 0), symbol


def test_lane_reductions_are_sign_free(monkeypatch):
    # every array the lanes reduce, the windows and the quotient and
    # cofactor values that a run with points carries beside them, is
    # nonnegative and fits int64 with room; a mixed-sign array would still
    # reduce right, only twice as slowly.  The last step of a run with
    # points leaves an empty window, which has no entry to check
    lane_mod = exactlinalg._lane_mod
    calls = []

    def checked(w, q):
        calls.append(w.size)
        assert w.size == 0 or (w.min() >= 0 and w.max() < 2**62)
        return lane_mod(w, q)

    monkeypatch.setattr(exactlinalg, "_lane_mod", checked)
    # det_ep, det_mp and mtilde_det, each on the lanes; det_mp's runs read
    # the windows 2 c_n - c_(n+1) (p = 389) and 2 d_n - d_(n+1) (p = 151)
    for target, p in (("chapman", 151), ("chapman", 389), ("unit", 151), ("unit", 389),
                      ("sun", 151), ("sun", 389), ("mtilde", 31)):
        calls.clear()
        assert run_sweep(target, p, p).records[0].status == PASS, (target, p)
        assert calls, (target, p)
    # the quotient and cofactor values pass through _lane_mod: on moments
    # with no degree gap, a run with points makes at least three calls a
    # step, its window's and two more, where the plain run makes one
    rng = random.Random(5)
    q = np.array(list(itertools.islice(_lane_primes(), 3)))
    h = np.array([rng.randint(1, 1000) for _ in range(40)])[:, None] % q
    counts = []
    for args in ((h[:-1], q, 20), (h, q, 20, ((19, 2), (20, -2)))):
        calls.clear()
        exactlinalg._lane_dets(*args)
        counts.append(len(calls))
    assert counts[1] >= 3 * counts[0] > 0


def _mtilde_toeplitz(p):
    """mtilde's Z[tau] Toeplitz matrix at p as toeplitz_det_ztau's
    arguments: a from f(0) = p, b(k) = chi(k+1) - chi(k)."""
    q = OddPrime(p)
    chi = legendre_array(q).tolist()
    ks = range(q.n - 1, -q.n, -1)
    return (np.array([p * (((k + 1) % p == 0) - (k % p == 0)) for k in ks]),
            np.array([chi[k + 1] - chi[k] for k in ks]), (-1) ** q.n * p)


def _ztau_primes(pstar):
    return (q for q in _lane_primes() if q % 4 == 3 and pow(pstar, q // 2, q) == 1)


def _ztau_bound(a, b, pstar):
    m = (len(a) + 1) // 2
    return exactlinalg._hadamard_bound(np.abs(a) + (math.isqrt(abs(pstar)) + 1) * np.abs(b), m)


def test_toeplitz_det_ztau_takes_primes_past_twice_h(monkeypatch):
    a, b, pstar = _mtilde_toeplitz(23)
    assert toeplitz_det_ztau(a, b, pstar) == (0, -13181630464)
    h = _ztau_bound(a, b, pstar)
    # three primes multiply past 2h, the value bound, but not past 2h^2;
    # with a spare they give the value, and with none they run out
    four = list(itertools.islice(_ztau_primes(pstar), 4))
    assert 2 * h < math.prod(four[:3]) <= 2 * h * h
    _patch_lane_primes(monkeypatch, four)
    assert toeplitz_det_ztau(a, b, pstar) == (0, -13181630464)
    _patch_lane_primes(monkeypatch, four[:3])
    with pytest.raises(DiscrepancyError, match="lane primes ran out below the CRT bound"):
        toeplitz_det_ztau(a, b, pstar)
    # on the lane primes, mtilde's chosen primes multiply past 2h and no
    # earlier, and one spare follows them
    monkeypatch.undo()
    runs = []
    lane_dets = exactlinalg._lane_dets

    def recording(f1, q, m):
        runs.append(q.tolist()[:len(q) // 2])
        return lane_dets(f1, q, m)

    monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
    for p, count in ((23, 3), (43, 5), (199, 29), (311, 49)):
        args = _mtilde_toeplitz(p)
        h = _ztau_bound(*args)
        runs.clear()
        toeplitz_det_ztau(*args)
        [run] = runs
        chosen = run[:-1]
        assert math.prod(chosen[:-1]) <= 2 * h < math.prod(chosen), p
        assert len(chosen) == count, p


def test_toeplitz_det_ztau_rejects_a_tampered_plus_residue(monkeypatch):
    lane_dets = exactlinalg._lane_dets
    lanes = []

    def tampered(f1, q, m):
        residues, unlucky = lane_dets(f1, q, m)
        residues[0] = (residues[0] + 1) % int(q[0])
        lanes.append(len(q))
        return residues, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", tampered)
    # d != 0 at p = 23, and its 2h takes 3 primes, each with a + and a -
    # lane, and a spare prime
    with pytest.raises(DiscrepancyError, match="exceeds its Hadamard bound"):
        toeplitz_det_ztau(*_mtilde_toeplitz(23))
    assert lanes[-1] >= 2 * (3 + 1)


# Z[tau] determinants at the edge of int64, where a + s*b and the bound
# row |a| + r|b| would wrap in int64: (2^63 - 1) + tau and (2^63 - 1) - tau
_ZTAU_INT64_EDGE = [(([2**63 - 1], [1], 2), (2**63 - 1, 1)),
                    (([2**63 - 1], [-1], -7), (2**63 - 1, -1))]


def test_toeplitz_det_ztau_at_the_edge_of_int64():
    for (a, b, pstar), expected in _ZTAU_INT64_EDGE:
        assert toeplitz_det_ztau(np.array(a), np.array(b), pstar) == expected, (a, b, pstar)


def test_toeplitz_det_ztau_catches_a_wrong_residue_on_any_lane(monkeypatch):
    # a +1 on each single lane, + or -, chosen or spare, of mtilde's run and
    # of the int64 edge cases
    edge = [tuple(np.array(x) for x in (a, b)) + (pstar,) for (a, b, pstar), _ in _ZTAU_INT64_EDGE]
    for args in [_mtilde_toeplitz(23), _mtilde_toeplitz(43)] + edge:
        expected = toeplitz_det_ztau(*args)
        lanes = []
        lane_dets = exactlinalg._lane_dets

        def recording(f1, q, m):
            lanes.append(len(q))
            return lane_dets(f1, q, m)

        monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
        assert toeplitz_det_ztau(*args) == expected
        for position in range(lanes[-1]):
            monkeypatch.undo()
            _tamper_lane(monkeypatch, position)
            with pytest.raises(DiscrepancyError):
                toeplitz_det_ztau(*args)
        monkeypatch.undo()


def test_toeplitz_det_ztau_on_small_primes_matches_the_lane_primes(monkeypatch):
    # the inputs of the Z[tau] property test, zero-heavy (c, d) entries, on
    # primes 3, 5, 7, ..., where many lanes are unlucky and the run repeats:
    # every lane kept runs the PRS over F_q, and every value equals the one
    # on the lane primes
    reruns = _count_reruns(monkeypatch)
    rng = random.Random(43)
    for _ in range(600):
        pstar, m = rng.choice((-3, 5, -7, 13)), rng.randint(1, 8)
        a, b = (np.array(x) for x in zip(*[(rng.choice((-2, -1, 0, 0, 0, 1, 3)),
                                            rng.choice((-1, 0, 0, 0, 1, 2)))
                                           for _ in range(2 * m - 1)]))
        monkeypatch.setattr(exactlinalg, "_lane_primes", _lane_primes)
        expected = toeplitz_det_ztau(a, b, pstar)
        _patch_lane_primes(monkeypatch, _SMALL_PRIMES)
        assert toeplitz_det_ztau(a, b, pstar) == expected, (a, b, pstar)
    assert sum(reruns) > 50


def test_toeplitz_det_ztau_rejects_rows_off_each_others_degrees(monkeypatch):
    # zeroing the - lanes' leading column at every prime makes every prime
    # unlucky, so the run drops them all until the primes run out
    lane_dets = exactlinalg._lane_dets

    def minus_lane_leading_zero(f1, q, m):
        f1[0, f1.shape[1] // 2:] = 0  # tau -> -s no longer mirrors tau -> s
        return lane_dets(f1, q, m)

    a, b = _f1([3, -1, 2, 5, 0, 1, -2]), _f1([1, 0, -1, 2, 1, 0, 1])
    assert toeplitz_det_ztau(a, b, -7) == (-1940, -232)
    _patch_lane_primes(monkeypatch, list(itertools.islice(_lane_primes(), 200)))
    assert toeplitz_det_ztau(a, b, -7) == (-1940, -232)
    monkeypatch.setattr(exactlinalg, "_lane_dets", minus_lane_leading_zero)
    with pytest.raises(DiscrepancyError, match="lane primes ran out below the CRT bound"):
        toeplitz_det_ztau(a, b, -7)


def test_toeplitz_det_ztau_domain():
    a, b = _f1([1] * 5), _f1([-2, -1, 0, 1, 2])
    for pstar in (4, -9, 0, -1):
        with pytest.raises(ValueError, match="not a square"):
            toeplitz_det_ztau(a, b, pstar)
    # malformed symbols: empty, of even length, not 1-D, or of two lengths
    for a, b in ((a[:0], b[:0]), (a[:4], b[:4]), (a[:, None], b[:, None]), (a, b[1:-1])):
        with pytest.raises(ValueError):
            toeplitz_det_ztau(a, b, -7)


def test_lane_primes_are_distinct_primes_below_2_30():
    primes = list(itertools.islice(_lane_primes(), 300))
    assert primes == sorted(set(primes), reverse=True)
    assert primes[0] == (1 << 30) - 35
    assert all(is_prime(q) and q < 1 << 30 for q in primes)
    # the sieved stream skips no prime: a plain walk down the odd numbers
    walk = (q for q in range((1 << 30) - 1, 0, -2) if is_prime(q))
    assert primes == list(itertools.islice(walk, 300))
    # and a second iterator reads the same cached primes
    assert list(itertools.islice(_lane_primes(), 300)) == primes


def test_symbol_matrix_dets_match_the_bigint_route():
    # each of the three symbols on toeplitz_det_mod, and det_cp, det_ep and
    # det_mp, against the bigint PRS of tests/bigint_toeplitz.py, at small
    # dimensions and in the det band.  det_mp takes the bordered split of
    # its ones row, so its column-differenced symbol chi(k+1) - chi(k), of
    # dimension n and determinant (-1)^n det_mp, is a reference only (on
    # toeplitz_det_mod it takes the single run, being neither symmetric nor
    # skew)
    for q in primes_in_range(3, 199) + primes_in_range(389, 401):
        chi = legendre_array(q).tolist()
        for det_x, t, m in (
            (det_cp, lambda k: chi[-k], q.p - 1),
            (det_ep, lambda k: chi[-k], q.n + 1),
            (det_mp, lambda k: chi[k + 1] - chi[k], q.n),
        ):
            exact = toeplitz_det(t, m)
            symbol = np.array([t(k) for k in range(m - 1, -m, -1)])
            assert toeplitz_det_mod(symbol) == exact, (q.p, det_x.__name__)
            sign = (-1) ** q.n if det_x is det_mp else 1
            assert det_x(q) == sign * exact, (q.p, det_x.__name__)


def test_sweeps_pass_beyond_the_bigint_reach():
    # p = 1201: dimension 600/601, about 0.6 s per determinant on the lanes
    for target in ("sun", "unit", "chapman"):
        report = run_sweep(target, 1201, 1201)
        assert [(r.p, r.status) for r in report.records] == [(1201, PASS)], target


@settings(max_examples=300, deadline=None)
@given(toeplitz_inputs(max_m=10))
def test_toeplitz_charpoly_matches_faddeev_leverrier(args):
    values, m = args
    dense = IntMatrix(_toeplitz_rows(values, m))
    assert toeplitz_charpoly(lambda k: values[k + m - 1], m) == charpoly(dense)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.data())
def test_even_charpoly_of_a_skew_toeplitz_matrix(half, data):
    # a skew-symmetric T is similar to T^T = -T, the even path's contract
    m = 2 * half
    entry = st.sampled_from((-2, -1, 0, 0, 1, 1, 3))
    upper = data.draw(st.lists(entry, min_size=m - 1, max_size=m - 1))
    values = [-x for x in reversed(upper)] + [0] + upper
    dense = charpoly(IntMatrix(_toeplitz_rows(values, m)))
    t = lambda k: values[k + m - 1]
    assert toeplitz_charpoly(t, m, even=True) == dense == toeplitz_charpoly(t, m)


def test_even_charpoly_needs_an_even_dimension():
    with pytest.raises(ValueError, match="even dimension"):
        toeplitz_charpoly(lambda k: 0, 3, even=True)


def _cp_text(q):
    return charpoly_cp_text(q, *charpoly_cp(q))


def _cp_reference(q):
    """det(xI - C_p) on the lanes, interpolated in x^2 (tests/lane_charpoly.py)."""
    chi = legendre_array(q).tolist()
    return toeplitz_charpoly(lambda k: chi[-k], q.p - 1, even=True)


def _carlitz_error(monkeypatch, name, tampered):
    """Patch matrices.<name> with tampered, then return the error that
    charpoly_cp raises at p = 13 and check that the sweep's record is a
    FAIL carrying it."""
    monkeypatch.setattr(matrices, name, tampered)
    with pytest.raises(DiscrepancyError) as caught:
        charpoly_cp(OddPrime(13))
    record = run_sweep("carlitz", 13, 13).records[0]
    assert (record.status, record.aux) == (FAIL, {"error": str(caught.value)})
    return str(caught.value)


def test_charpoly_cp_checks_that_c_p_is_similar_to_minus_c_p(monkeypatch):
    # the table with the squares 4 and 9 = -4 made nonresidues: C_13 stays
    # symmetric, but chi(2 * 2) = -chi(2) fails at the least nonresidue 2
    table = matrices.legendre_array

    def two_squares_flipped(p):
        chi = table(p)
        chi[4], chi[9] = -chi[4], -chi[9]
        return chi

    assert _carlitz_error(monkeypatch, "legendre_array", two_squares_flipped) == (
        "step 1: chi(g k) = -chi(k) fails for the least nonresidue g = 2: "
        "C_13 is not shown similar to -C_13"
    )


def test_charpoly_cp_rejects_one_flipped_symbol(monkeypatch):
    # k and g k differ mod p, so one flip always breaks chi(g k) = -chi(k)
    table = matrices.legendre_array
    for k in range(1, 13):
        def one_flipped(p):
            chi = table(p)
            chi[k] = -chi[k]
            return chi

        message = _carlitz_error(monkeypatch, "legendre_array", one_flipped)
        assert message.startswith("step 1: chi(g k) = -chi(k) fails"), (k, message)


def test_charpoly_cp_rejects_a_chi_of_minus_one_against_s(monkeypatch):
    # 4 has order 6 mod 13, and its cosets are <4> and 2<4>; the table
    # chi(c 4^i) = (-1)^i, c = 1, 2, has its least -1 at g = 4 and passes
    # step 1, but chi(-1) = chi(4^3) = -1 while s = +1 at p = 13
    fake = np.zeros(13, dtype=np.int64)
    for c in (1, 2):
        for i in range(6):
            fake[c * 4**i % 13] = (-1) ** i
    assert fake[12] == -1
    message = _carlitz_error(monkeypatch, "legendre_array", lambda p: fake.copy())
    assert message == "step 3: chi(-k) = s chi(k) fails at k = 1 for s = 1: C_13^T is not s C_13"


def test_charpoly_cp_rejects_a_wrong_row_of_c_p_squared(monkeypatch):
    autocorrelation = matrices._cyclic_autocorrelation

    def lag_off_by_one(lag):
        def tampered(chi):
            r = autocorrelation(chi)
            r[lag] += 1
            return r
        return tampered

    message = _carlitz_error(monkeypatch, "_cyclic_autocorrelation", lag_off_by_one(3))
    assert message == ("step 3: row 1 of C_13^2 leaves the closed form "
                       "a I - s (J + chi chi^T) at column 4")
    # lag 0 is the diagonal, from which a is read: the closed form still
    # holds, and the record shows the measured a = 14, b = a - 12
    monkeypatch.setattr(matrices, "_cyclic_autocorrelation", lag_off_by_one(0))
    record = run_sweep("carlitz", 13, 13).records[0]
    assert (record.status, record.computed, record.predicted) == (
        FAIL, "(t^2 - 14)^5*(t^2 - 2)", "(t^2 - 13)^5*(t^2 - 1)"
    )


def test_charpoly_cp_rejects_a_sum_of_chi_off_zero(monkeypatch):
    # no table that passes step 1 has sum chi != 0 (the signs alternate
    # along each orbit k -> g k), so the tamper goes into X^T X itself
    gram = matrices._gram
    message = _carlitz_error(monkeypatch, "_gram", lambda x: gram(x) + [[0, 1], [1, 0]])
    assert message == ("step 4: X^T X = [[12, 1], [1, 12]] for X = [1 | chi] is not "
                       "12 I_2: det(uI - C_13^2) is no square")


def test_c_p_squared_matches_the_closed_form():
    # C_p^2 = s p I - s (J + chi chi^T), by the dense product, for every p < 200
    for q in primes_in_range(3, 199):
        c = np.array(build_cp(q).rows, dtype=np.int64)
        chi = legendre_array(q)[1:]
        s = (-1) ** q.n
        closed = s * q.p * np.eye(q.p - 1, dtype=np.int64) - s * (1 + np.outer(chi, chi))
        assert np.array_equal(c @ c, closed), q.p


def test_charpoly_cp_matches_faddeev_leverrier():
    for q in primes_in_range(3, 31):
        assert expand_factored(_cp_text(q)) == charpoly(build_cp(q)), q.p


def test_charpoly_cp_matches_the_bigint_route():
    # every carlitz prime up to 109, against the evaluation route on the
    # bigint toeplitz_det, the slowest reference of the suite
    for q in primes_in_range(3, 109):
        chi = legendre_array(q).tolist()
        assert expand_factored(_cp_text(q)) == bigint_charpoly(lambda k: chi[-k], q.p - 1), q.p


def test_charpoly_cp_matches_the_lane_route():
    # every carlitz prime up to 131, the cap of the interpolation route
    # that tests/lane_charpoly.py keeps
    for q in primes_in_range(3, 131):
        assert expand_factored(_cp_text(q)) == _cp_reference(q), q.p


def _altering_points(monkeypatch, alter):
    """Count the points toeplitz_charpoly evaluates, and let alter(x, value)
    change the value at the point x, the node x^2 of the even
    interpolation; the points are x = 0, 1, 2, ... in call order."""
    exact = exactlinalg.toeplitz_det_mod
    points = []

    def altering(symbol):
        points.append(len(points))
        return alter(points[-1], exact(symbol))

    monkeypatch.setattr(exactlinalg, "toeplitz_det_mod", altering)
    return points


def test_one_wrong_determinant_value_cannot_pass(monkeypatch):
    # the lane value at x = 3 of det(xI - C_13) is off by one; x = 3 is the
    # node 9 of the interpolation in x^2, so the divided difference over the
    # nodes (4, 9) moves by 1/5 off an integer
    points = _altering_points(monkeypatch, lambda x, value: value + (x == 3))
    with pytest.raises(DiscrepancyError, match="exact division left a remainder"):
        _cp_reference(OddPrime(13))
    assert len(points) == 8


def test_a_wrong_value_every_division_passes_is_caught_by_the_spares(monkeypatch):
    # adding prod_{j != r} (y_r - y_j) at the node y_r = 3^2 adds the values
    # of an integer polynomial of degree N - 1 at the N = m/2 + 2 nodes
    # y = x^2, so every divided difference stays an integer; only the
    # order m/2 + 1, the one above the degree, shows the error
    error = math.prod(9 - x * x for x in range(8) if x != 3)
    points = _altering_points(monkeypatch, lambda x, value: value + error * (x == 3))
    message = "a divided difference of order above the degree is nonzero"
    with pytest.raises(DiscrepancyError, match=message):
        _cp_reference(OddPrime(13))
    assert len(points) == 8
