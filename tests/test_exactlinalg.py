import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legdet import exactlinalg, matrices
from legdet.arith import OddPrime, is_prime, legendre_table, primes_in_range
from legdet.errors import DiscrepancyError
from legdet.exactlinalg import (
    IntMatrix,
    IntPolynomial,
    _bareiss,
    _exact_div,
    _lane_primes,
    _prem_window,
    _toeplitz_dets_crt,
    det,
    poly_mul,
    poly_pow,
    toeplitz_charpoly,
    toeplitz_det,
    toeplitz_det_mod,
    toeplitz_det_ztau,
)
from legdet.matrices import (
    build_cp,
    build_ep,
    build_mp,
    charpoly_cp,
    det_cp,
    det_ep,
    det_mp,
)
from legdet.verify import FAIL, PASS, run_sweep
from bigint_charpoly import bigint_charpoly
from faddeev_leverrier import charpoly, identity, matmul
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
    """F1's coefficients t(m-1), ..., t(-(m-1)), as toeplitz_det reads them."""
    return values[::-1]


def test_toeplitz_det_mod_matches_toeplitz_det():
    rng = random.Random(12)
    zero = 0
    for _ in range(2500):
        values, m = _random_toeplitz(rng)
        exact = toeplitz_det(lambda k: values[k + m - 1], m)
        assert toeplitz_det_mod(lambda k: values[k + m - 1], m) == exact, (values, m)
        zero += exact == 0
    assert zero > 500  # singular matrices are well represented
    # the fixed cases of the bigint kernel's tests
    assert toeplitz_det_mod(lambda k: [1, 0, -1, 0, 0, -1, 0, 1, -1][k + 4], 5) == -1
    assert toeplitz_det_mod(lambda k: [1, 2, 1, 2, 1][k + 2], 3) == 0
    assert toeplitz_det_mod(lambda k: [0, 1, 0, 2, 0][k + 2], 3) == 0
    assert toeplitz_det_mod(lambda k: -1, 4) == 0
    assert toeplitz_det_mod(lambda k: 0, 4) == 0
    assert toeplitz_det_mod(lambda k: 0 if k > 0 else k - 3, 4) == 81
    assert toeplitz_det_mod(lambda k: 7, 1) == 7
    with pytest.raises(ValueError):
        toeplitz_det_mod(lambda k: 1, 0)


_SMALL_PRIMES = [q.p for q in primes_in_range(3, 2000)]


def test_lanes_drop_unlucky_primes_and_rerun(monkeypatch):
    # with primes 3, 5, 7, ... many columns vanish mod some lane primes
    # only; those lanes are dropped and the run repeats with later primes
    runs = []
    lane_dets = exactlinalg._lane_dets

    def recording(f1, q, m):
        alive, residues, unlucky = lane_dets(f1, q, m)
        runs.append(unlucky is not None)
        return alive, residues, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
    rng = random.Random(13)
    reruns = 0
    for _ in range(400):
        values, m = _random_toeplitz(rng)
        runs.clear()
        got = _toeplitz_dets_crt(np.array([_f1(values)]), m, _SMALL_PRIMES)
        assert got == [toeplitz_det(lambda k: values[k + m - 1], m)], (values, m)
        assert runs[-1] is False
        reruns += sum(runs)
    assert reruns > 50


def test_a_refill_keeps_the_survivors_first_and_in_order(monkeypatch):
    # after unlucky primes are dropped, the next run's primes are the
    # survivors in their order, then the stream's next primes, until the
    # product passes 2H and no earlier
    runs = []
    lane_dets = exactlinalg._lane_dets

    def recording(f1, q, m):
        alive, residues, unlucky = lane_dets(f1, q, m)
        runs.append((q.tolist(), None if unlucky is None else unlucky.tolist()))
        return alive, residues, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
    rng = random.Random(23)
    refills = 0
    for _ in range(200):
        values, m = _random_toeplitz(rng)
        rows = np.array([_f1(values)])
        [h] = exactlinalg._hadamard_bounds(rows, m)
        runs.clear()
        _toeplitz_dets_crt(rows, m, _SMALL_PRIMES)
        for (before, unlucky), (after, _) in zip(runs, runs[1:]):
            survivors = [q for q, bad in zip(before, unlucky) if not bad]
            start = _SMALL_PRIMES.index(before[-1]) + 1
            assert after[:len(survivors)] == survivors
            assert after[len(survivors):] == _SMALL_PRIMES[start:start + len(after) - len(survivors)]
            refills += 1
        for primes, _ in runs:
            assert math.prod(primes[:-1]) <= 2 * h < math.prod(primes)
    assert refills > 50


def test_batched_lanes_match_toeplitz_det_or_drop():
    # every row of a batch is either its own toeplitz_det or reported
    # dropped; with primes 3, 5, 7, ... unlucky primes and reruns occur too
    rng = random.Random(14)
    kept = dropped = zero = 0
    for trial in range(300):
        m = rng.randint(1, 12)
        batch = [_random_values(rng, m) for _ in range(rng.randint(1, 12))]
        primes = _SMALL_PRIMES if trial % 2 else _lane_primes()
        got = _toeplitz_dets_crt(np.array([_f1(v) for v in batch]), m, primes)
        assert len(got) == len(batch)
        for values, value in zip(batch, got):
            if value is None:
                dropped += 1
            else:
                kept += 1
                zero += value == 0
                assert value == toeplitz_det(lambda k: values[k + m - 1], m), (values, m)
    assert kept > 500 and dropped > 500 and zero > 40


def test_a_batch_of_one_never_drops_its_row():
    rng = random.Random(15)
    for trial in range(500):
        values, m = _random_toeplitz(rng, 12)
        primes = _SMALL_PRIMES if trial % 2 else _lane_primes()
        assert _toeplitz_dets_crt(np.array([_f1(values)]), m, primes) == [
            toeplitz_det(lambda k: values[k + m - 1], m)
        ], (values, m)


def test_lanes_reject_too_few_primes_and_a_tampered_lane(monkeypatch):
    values, m = [1, 0, -1, 0, 0, -1, 0, 1, -1], 5
    # S = 5 (the five largest squares), H = isqrt(5^5) + 1 = 56: primes must
    # multiply past 112, and 3 * 5 * 7 = 105 does not
    with pytest.raises(DiscrepancyError):
        _toeplitz_dets_crt(np.array([_f1(values)]), m, [3, 5, 7])
    assert _toeplitz_dets_crt(np.array([_f1(values)]), m, [3, 5, 11]) == [-1]
    lane_dets = exactlinalg._lane_dets

    def tampered(f1, q, m):
        alive, residues, unlucky = lane_dets(f1, q, m)
        residues[0][0] = (residues[0][0] + 1) % int(q[0])
        return alive, residues, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", tampered)
    # det E_101 = -a_101 takes 5 lanes; one residue off by 1 moves the
    # CRT value far outside H
    chi = legendre_table(OddPrime(101))
    with pytest.raises(DiscrepancyError):
        toeplitz_det_mod(lambda k: chi[-k], 51)


def test_each_row_is_checked_against_its_own_bound(monkeypatch):
    # row 0 is [[0, 1], [1, 0]], H = isqrt(2^2) + 1 = 3; row 1 is
    # [[4, 5], [5, 4]], H = isqrt(50^2) + 1 = 51.  A CRT value of 10 for
    # row 0 lies inside row 1's bound but not its own.
    batch = np.array([[1, 0, 1], [5, 4, 5]])
    assert _toeplitz_dets_crt(batch, 2, _lane_primes()) == [-1, -9]

    def ten_for_row_0(f1, q, m):
        return np.arange(2), [[10 % qk for qk in q.tolist()],
                              [-9 % qk for qk in q.tolist()]], None

    monkeypatch.setattr(exactlinalg, "_lane_dets", ten_for_row_0)
    with pytest.raises(DiscrepancyError):
        _toeplitz_dets_crt(batch, 2, _lane_primes())


def _row_hadamard_bound(values, m):
    """isqrt of the product of the squared row norms of [t(i - j)], plus 1:
    a bound on |det| alone."""
    return math.isqrt(math.prod(sum(x * x for x in row)
                                for row in _toeplitz_rows(values, m))) + 1


def test_value_bound_on_small_primes(monkeypatch):
    # with primes 3, 5, 7, ... a product past twice the matrix's own
    # row-Hadamard bound often stays below 2H, the zero-test bound; the
    # lanes kept still give det mod q, so every value is right
    products = []
    lane_dets = exactlinalg._lane_dets

    def recording(f1, q, m):
        products.append(math.prod(q.tolist()))
        return lane_dets(f1, q, m)

    monkeypatch.setattr(exactlinalg, "_lane_dets", recording)
    rng = random.Random(21)
    below = 0
    for _ in range(3000):
        values, m = _random_toeplitz(rng)
        rows = np.array([_f1(values)])
        got = _toeplitz_dets_crt(rows, m, _SMALL_PRIMES, _row_hadamard_bound(values, m))
        assert got == [toeplitz_det(lambda k: values[k + m - 1], m)], (values, m)
        [h] = exactlinalg._hadamard_bounds(rows, m)
        below += products[-1] < 2 * h
    assert below >= 1000


def test_value_bound_rejects_too_few_primes_and_a_tampered_lane(monkeypatch):
    values, m = [1, 0, -1, 0, 0, -1, 0, 1, -1], 5
    # the rows' squared norms are 2, 2, 2, 2, 3: the bound is
    # isqrt(48) + 1 = 7, so primes must multiply past 14; 7 does not, and
    # 3 * 5 = 15 does, where H = 56 needs a product past 112
    bound = _row_hadamard_bound(values, m)
    assert bound == 7
    with pytest.raises(DiscrepancyError, match="lane primes ran out"):
        _toeplitz_dets_crt(np.array([_f1(values)]), m, [7], bound)
    assert _toeplitz_dets_crt(np.array([_f1(values)]), m, [3, 5], bound) == [-1]
    lane_dets = exactlinalg._lane_dets

    def tampered(f1, q, m):
        alive, residues, unlucky = lane_dets(f1, q, m)
        residues[0][0] = (residues[0][0] + 1) % int(q[0])
        return alive, residues, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", tampered)
    # det_mp at 151 runs on its value bound, 8 lanes; one residue off by 1
    # moves the CRT value outside that bound
    with pytest.raises(DiscrepancyError, match="exceeds its Hadamard bound"):
        det_mp(OddPrime(151))


def test_det_mp_on_its_value_bound():
    # det_mp takes the lanes from p = 131 on
    for q in primes_in_range(131, 199):
        assert det_mp(q) == det(build_mp(q)), q.p
    assert all(abs(det_mp(q)) == 1 for q in primes_in_range(131, 601))


def test_lane_reduce_matches_python_mod():
    # both paths, at one lane per prime below and at _REDUCE_BY_PRIME_FROM,
    # on entries up to 3 q (q - 1), the largest sum a PRS step reduces
    q = np.array(list(itertools.islice(_lane_primes(), 3)), dtype=np.int64)
    ql, q3 = q.tolist(), q[:, None, None]
    rng = np.random.default_rng(22)
    n = exactlinalg._REDUCE_BY_PRIME_FROM
    for shape in ((3, 3, (n - 1) // 3), (3, 2, n // 2)):
        assert shape[1] * shape[2] in (n - 1, n)
        w = np.stack([rng.integers(0, 3 * qk * (qk - 1), shape[1:], endpoint=True)
                      for qk in ql])
        w[:, 0, :2] = [[0, 3 * qk * (qk - 1)] for qk in ql]
        expected = [[[x % qk for x in row] for row in wk] for wk, qk in zip(w.tolist(), ql)]
        assert exactlinalg._lane_reduce(w, q3, ql) is w
        assert w.tolist() == expected


def test_lane_reductions_are_sign_free(monkeypatch):
    # every window the lanes reduce is nonnegative and fits int64 with room;
    # a mixed-sign window would still reduce right, only twice as slowly
    lane_reduce = exactlinalg._lane_reduce
    calls = []

    def checked(w, q3, ql):
        calls.append(w.size)
        assert w.min() >= 0 and w.max() < 2**62
        return lane_reduce(w, q3, ql)

    monkeypatch.setattr(exactlinalg, "_lane_reduce", checked)
    # det_ep, det_mp, charpoly_cp and mtilde_det, each on the lanes
    for target, p in (("chapman", 151), ("chapman", 389), ("unit", 151), ("unit", 389),
                      ("carlitz", 31), ("mtilde", 31)):
        calls.clear()
        assert run_sweep(target, p, p).records[0].status == PASS, (target, p)
        assert calls, (target, p)


def _mtilde_toeplitz(p):
    """mtilde's Z[tau] Toeplitz matrix at p as toeplitz_det_ztau's
    arguments: a from f(0) = p, b(k) = chi(k+1) - chi(k)."""
    q = OddPrime(p)
    chi = legendre_table(q)
    return (lambda k: p * (((k + 1) % p == 0) - (k % p == 0)),
            lambda k: chi[k + 1] - chi[k], q.n, (-1) ** q.n * p)


def _ztau_primes(pstar):
    return (q for q in _lane_primes() if q % 4 == 3 and pow(pstar, q // 2, q) == 1)


def test_toeplitz_det_ztau_rejects_a_product_below_twice_h_squared(monkeypatch):
    a, b, m, pstar = _mtilde_toeplitz(23)
    assert toeplitz_det_ztau(a, b, m, pstar) == (0, -13181630464)
    ks = range(m - 1, -m, -1)
    [h] = exactlinalg._hadamard_bounds(
        [[abs(a(k)) + (math.isqrt(abs(pstar)) + 1) * abs(b(k)) for k in ks]], m)
    # three primes multiply past 2h, the integer kernel's limit, but not 2h^2
    three = list(itertools.islice(_ztau_primes(pstar), 3))
    assert 2 * h < math.prod(three) <= 2 * h * h
    monkeypatch.setattr(exactlinalg, "_lane_primes", lambda: iter(three))
    with pytest.raises(DiscrepancyError, match="lane primes ran out below the CRT bound"):
        toeplitz_det_ztau(a, b, m, pstar)


def test_toeplitz_det_ztau_rejects_a_tampered_plus_residue(monkeypatch):
    lane_dets = exactlinalg._lane_dets
    lanes = []

    def tampered(f1, q, m):
        alive, residues, unlucky = lane_dets(f1, q, m)
        residues[0][0] = (residues[0][0] + 1) % int(q[0])
        lanes.append(len(q))
        return alive, residues, unlucky

    monkeypatch.setattr(exactlinalg, "_lane_dets", tampered)
    # d != 0 at p = 23, and its 2h^2 takes at least 3 primes
    with pytest.raises(DiscrepancyError, match="exceeds its Hadamard bound"):
        toeplitz_det_ztau(*_mtilde_toeplitz(23))
    assert lanes[-1] >= 3


def test_toeplitz_det_ztau_rejects_rows_off_each_others_degrees(monkeypatch):
    lane_dets = exactlinalg._lane_dets

    def minus_row_leading_zero(f1, q, m):
        f1[:, 1, 0] = 0  # tau -> -s no longer mirrors tau -> s
        return lane_dets(f1, q, m)

    av, bv = [3, -1, 2, 5, 0, 1, -2], [1, 0, -1, 2, 1, 0, 1]
    a, b = (lambda k: av[k + 3]), (lambda k: bv[k + 3])
    assert toeplitz_det_ztau(a, b, 4, -7) == (-1940, -232)
    monkeypatch.setattr(exactlinalg, "_lane_dets", minus_row_leading_zero)
    with pytest.raises(DiscrepancyError, match="conjugate rows"):
        toeplitz_det_ztau(a, b, 4, -7)


def test_toeplitz_det_ztau_domain():
    for m, pstar in ((0, -7), (3, 4), (3, -9), (3, 0), (3, -1)):
        with pytest.raises(ValueError):
            toeplitz_det_ztau(lambda k: 1, lambda k: k, m, pstar)


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
    # toeplitz_det_mod on every kind below and above the crossover, and
    # det_cp/det_ep/det_mp, whichever route they take
    for q in primes_in_range(3, 199) + primes_in_range(389, 401):
        chi = legendre_table(q)
        for det_x, t, m in (
            (det_cp, lambda k: chi[-k], q.p - 1),
            (det_ep, lambda k: chi[-k], q.n + 1),
            (det_mp, lambda k: chi[k + 1] - chi[k], q.n),
        ):
            exact = toeplitz_det(t, m)
            assert toeplitz_det_mod(t, m) == exact, (q.p, det_x.__name__)
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


def test_charpoly_cp_checks_that_c_p_is_similar_to_minus_c_p(monkeypatch):
    # the table with the squares 4 and 9 = -4 made nonresidues: C_13 stays
    # symmetric, but chi(2 * 2) = -chi(2) fails at the least nonresidue 2,
    # so the even interpolation is refused before any lane runs
    table = matrices.legendre_table

    def two_squares_flipped(p):
        chi = table(p)
        chi[4], chi[9] = -chi[4], -chi[9]
        return chi

    message = ("chi(g k) = -chi(k) fails for the least nonresidue g = 2: "
               "C_13 is not shown similar to -C_13")
    monkeypatch.setattr(matrices, "legendre_table", two_squares_flipped)
    batches = _recording_batches(monkeypatch)
    with pytest.raises(DiscrepancyError, match=re.escape(message)):
        charpoly_cp(OddPrime(13))
    record = run_sweep("carlitz", 13, 13).records[0]
    assert (record.status, record.aux) == (FAIL, {"error": message})
    assert batches == []


def test_charpoly_cp_matches_faddeev_leverrier():
    for q in primes_in_range(3, 31):
        assert charpoly_cp(q) == charpoly(build_cp(q)), q.p


def test_charpoly_cp_matches_the_bigint_route():
    # every carlitz prime up to 109, against the evaluation route on the
    # bigint toeplitz_det, the slowest reference of the suite; the primes
    # up to the cap pass in test_verify.py's carlitz sweep
    for q in primes_in_range(3, 109):
        chi = legendre_table(q)
        assert charpoly_cp(q) == bigint_charpoly(lambda k: chi[-k], q.p - 1), q.p


def _recording_batches(monkeypatch, alter=None):
    """Record the size of every batch toeplitz_charpoly sends, and let
    alter(values) change the values of the first batch, whose row r is the
    point x = r, the node x^2 of charpoly_cp's even interpolation."""
    exact = exactlinalg._toeplitz_dets_crt
    batches = []

    def recording(rows, m, primes):
        values = exact(rows, m, primes)
        batches.append(len(rows))
        if alter is not None and len(batches) == 1:
            alter(values)
        return values

    monkeypatch.setattr(exactlinalg, "_toeplitz_dets_crt", recording)
    return batches


def test_points_past_the_spares_are_evaluated(monkeypatch):
    # at p = 89, 5 of the points x = 0..45 leave the batch (x = 0, 1, 2, 3
    # and 5); with no spare points, further batches make up the m/2 + 2
    # values of the even interpolation
    q = OddPrime(89)
    chi = legendre_table(q)
    reference = bigint_charpoly(lambda k: chi[-k], q.p - 1)
    monkeypatch.setattr(exactlinalg, "_SPARE_POINTS", 0)
    batches = _recording_batches(monkeypatch)
    assert charpoly_cp(q) == reference
    assert batches[0] == 46 and len(batches) > 1


def test_one_wrong_determinant_value_cannot_pass(monkeypatch):
    # the lane value at x = 3 of det(xI - C_13) is off by one; x = 1, 2 leave
    # the batch, and x = 3 is the node 9 of the interpolation in x^2, so the
    # divided difference over the nodes (0, 9) moves by 1/9 off an integer
    def off_by_one_at_x3(values):
        values[3] += 1

    batches = _recording_batches(monkeypatch, off_by_one_at_x3)
    with pytest.raises(DiscrepancyError, match="exact division left a remainder"):
        charpoly_cp(OddPrime(13))
    assert len(batches) == 1
    batches.clear()
    record = run_sweep("carlitz", 13, 13).records[0]
    assert (record.status, record.aux) == (
        FAIL, {"error": "exact division left a remainder"}
    )
    assert len(batches) == 1


def test_a_wrong_value_every_division_passes_is_caught_by_the_spares(monkeypatch):
    # adding prod_{j != r} (y_r - y_j) at the node y_r = 3^2 adds the values
    # of an integer polynomial of degree N - 1 at the N known nodes y = x^2,
    # so every divided difference stays an integer; only the orders above
    # m/2 show the error
    def polynomial_error_at_x3(values):
        points = [x for x, value in enumerate(values) if value is not None]
        values[3] += math.prod(9 - x * x for x in points if x != 3)

    message = "a divided difference of order above the degree is nonzero"
    batches = _recording_batches(monkeypatch, polynomial_error_at_x3)
    with pytest.raises(DiscrepancyError, match=message):
        charpoly_cp(OddPrime(13))
    assert len(batches) == 1
    batches.clear()
    record = run_sweep("carlitz", 13, 13).records[0]
    assert (record.status, record.aux) == (FAIL, {"error": message})
