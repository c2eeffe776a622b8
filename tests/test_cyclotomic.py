import cmath
import dataclasses
import itertools
import math
import random
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legdet.arith import OddPrime, legendre, legendre_table, primes_in_range
from legdet.cyclotomic import (
    CycElem,
    build_mtilde,
    cauchy_det,
    check_square_sums,
    exact_product_one,
    exact_product_two,
    frakp_residue,
    gauss_sum,
    lemma32_check,
    mtilde_det,
    mtilde_det_check,
    mtilde_structure_check,
    square_sums,
    ztau_to_cyc,
)
from legdet.errors import DiscrepancyError
from legdet.exactlinalg import IntMatrix, _exact_div, det, toeplitz_det_ztau
from legdet.quadfield import _numeric_product_one


def random_elem(rng, q, lo=-4, hi=4):
    return CycElem(q, [rng.randint(lo, hi) for _ in range(q.p - 1)])


def complex_image(x):
    """x under zeta -> exp(2*pi*i/p), in double precision."""
    p = x.prime.p
    return sum(c * cmath.exp(2j * math.pi * i / p) for i, c in enumerate(x.coeffs))


def test_power_basis_relations():
    for q in primes_in_range(3, 20):
        top = CycElem.zeta_pow(q, q.p - 1)
        assert top == CycElem(q, [-1] * (q.p - 1))
        assert CycElem.zeta_pow(q, q.p) == CycElem.const(q, 1)
        total = CycElem.const(q, 0)
        for i in range(1, q.p):
            total = total + CycElem.zeta_pow(q, i)
        assert total == CycElem.const(q, -1)


def test_zeta_pow_multiplication():
    q = OddPrime(11)
    for a in range(11):
        for b in range(11):
            lhs = CycElem.zeta_pow(q, a) * CycElem.zeta_pow(q, b)
            assert lhs == CycElem.zeta_pow(q, a + b)


def test_frozen_products_p3():
    q = OddPrime(3)
    z = CycElem.zeta_pow(q, 1)
    z2 = CycElem.zeta_pow(q, 2)
    diff = z - z2
    assert diff.coeffs == (1, 2)
    assert diff * diff == CycElem.const(q, -3)
    assert (CycElem.const(q, 1) - z) * (CycElem.const(q, 1) - z2) == CycElem.const(q, 3)


def test_all_roots_product_is_p():
    # prod over k=1..p-1 of (1 - zeta^k) is the cyclotomic polynomial at 1
    for q in primes_in_range(3, 19):
        acc = CycElem.const(q, 1)
        for k in range(1, q.p):
            acc = acc * (CycElem.const(q, 1) - CycElem.zeta_pow(q, k))
        assert acc == CycElem.const(q, q.p)


def test_conj_properties():
    rng = random.Random(43)
    q = OddPrime(11)
    for _ in range(50):
        x = random_elem(rng, q)
        y = random_elem(rng, q)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
    z = CycElem.zeta_pow(q, 4)
    assert z.conj() == CycElem.zeta_pow(q, 7)
    w = random_elem(rng, q)
    assert abs(complex_image(w.conj()) - complex_image(w).conjugate()) < 1e-12


def test_gauss_sum_square_exact():
    for q in primes_in_range(3, 61):
        tau = gauss_sum(q)
        sign = (-1) ** ((q.p - 1) // 2)
        assert tau * tau == CycElem.const(q, sign * q.p), q.p


def test_frakp_residue_values():
    q = OddPrime(7)
    assert frakp_residue(CycElem.const(q, 10)) == 3
    assert frakp_residue(CycElem.const(q, 1) - CycElem.zeta_pow(q, 1)) == 0
    for q2 in primes_in_range(3, 31):
        assert frakp_residue(gauss_sum(q2)) == 0
    with pytest.raises(ValueError):
        frakp_residue(CycElem(q, [Fraction(1, 2), 0, 0, 0, 0, 0]))


def test_frakp_residue_is_homomorphism():
    rng = random.Random(47)
    q = OddPrime(13)
    for _ in range(200):
        x = random_elem(rng, q)
        y = random_elem(rng, q)
        assert frakp_residue(x + y) == (frakp_residue(x) + frakp_residue(y)) % q.p
        assert frakp_residue(x * y) == (frakp_residue(x) * frakp_residue(y)) % q.p


def test_quadratic_gauss_identity_all_residues():
    for q in primes_in_range(3, 199):
        check_square_sums(q, square_sums(q))


def test_square_sums_match_cycelem_equality():
    # the constant-difference rule against equality on the power basis
    for q in primes_in_range(3, 61):
        tau = gauss_sum(q)
        sums = square_sums(q)
        assert CycElem.from_exponents(q, sums[0]) == CycElem.const(q, q.p)
        for a in range(1, q.p):
            assert CycElem.from_exponents(q, sums[a]) == tau.scale(legendre(a, q)), (q.p, a)


def test_check_square_sums_rejects_a_moved_exponent():
    q = OddPrime(13)
    sums = square_sums(q)
    shifted = [list(s) for s in sums]
    shifted[4] = [c + 7 for c in shifted[4]]  # adds 7 * (1 + zeta + ... + zeta^12) = 0
    check_square_sums(q, shifted)
    for a in (0, 5):
        moved = [list(s) for s in sums]
        moved[a][0] -= 1
        moved[a][1] += 1
        with pytest.raises(DiscrepancyError, match=f"a={a}"):
            check_square_sums(q, moved)


def test_gauss_sum_complex_images_frozen():
    # Gauss's sign: tau maps to +sqrt(p) or +i*sqrt(p), which is what the
    # closed forms printed as "tau" rely on
    assert complex_image(CycElem.const(OddPrime(5), 1)) == 1
    g5 = complex_image(gauss_sum(OddPrime(5)))
    assert abs(g5.real - 5 ** 0.5) < 1e-9 and abs(g5.imag) < 1e-9
    g7 = complex_image(gauss_sum(OddPrime(7)))
    assert abs(g7.imag - 7 ** 0.5) < 1e-9 and abs(g7.real) < 1e-9


def test_numeric_product_one_values():
    # the numeric product behind class_number_real's second route
    one5 = _numeric_product_one(5)
    assert abs(one5.real - 1.3819660112501051) < 1e-9 and abs(one5.imag) < 1e-9
    one7 = _numeric_product_one(7)
    assert abs(one7.imag - (-7 ** 0.5)) < 1e-9 and abs(one7.real) < 1e-9


def test_sun_product_matches_exact_embedding():
    for q in primes_in_range(5, 23):
        exact = complex_image(exact_product_one(q))
        numeric = _numeric_product_one(q.p)
        assert abs(numeric - exact) <= 1e-9 * abs(exact), q.p


def generic_product(q, pairs):
    acc = CycElem.const(q, 1)
    for a, b in pairs:
        acc = acc * (CycElem.zeta_pow(q, a) - CycElem.zeta_pow(q, b))
    return acc


def test_shift_subtract_products_match_generic_multiplication():
    for q in primes_in_range(3, 31):
        ks = range(1, q.n + 1)
        one = generic_product(q, [(0, k * k) for k in ks])
        two = generic_product(q, [(k * k, j * j) for k in ks for j in range(1, k)])
        assert exact_product_one(q) == one, q.p
        assert exact_product_two(q) == two, q.p


def test_lemma32_check_closed_forms():
    assert lemma32_check(OddPrime(5), 1) == ("tau*eps^-1", "-tau*eps")
    assert lemma32_check(OddPrime(7), 1) == ("-tau", "-7")
    assert lemma32_check(OddPrime(11), 1) == ("-tau", "11^2")
    assert lemma32_check(OddPrime(13), 1) == ("tau*eps^-1", "-13^2*tau*eps")
    # h(-23) = 3 flips the sign of the first product
    assert lemma32_check(OddPrime(23), 3) == ("tau", "-23^5")


def test_lemma32_check_rejects_wrong_class_number():
    # h enters the first closed form only; a wrong h must be caught exactly
    with pytest.raises(DiscrepancyError, match="first identity"):
        lemma32_check(OddPrime(7), 3)
    with pytest.raises(DiscrepancyError, match="first identity"):
        lemma32_check(OddPrime(5), 2)
    with pytest.raises(ValueError):
        lemma32_check(OddPrime(3), 1)


def cauchy_perm_det(u, v):
    m = len(u)
    rows = [[Fraction(1) / (1 + ui * vj) for vj in v] for ui in u]
    total = Fraction(0)
    for perm in itertools.permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(m):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_cauchy_det_frozen():
    assert cauchy_det([2], [3]) == Fraction(1, 7)
    assert cauchy_det([1, 2], [1, 3]) == Fraction(-1, 84)
    assert cauchy_det([1, 1], [2, 3]) == 0
    assert cauchy_det([Fraction(1, 2)], [Fraction(1, 3)]) == Fraction(6, 7)


def test_cauchy_det_errors():
    with pytest.raises(ValueError):
        cauchy_det([1], [-1])
    with pytest.raises(ValueError):
        cauchy_det([1, 2], [3])
    with pytest.raises(ValueError):
        cauchy_det([], [])


def test_cauchy_det_against_permutation_expansion():
    rng = random.Random(59)
    done = 0
    while done < 50:
        m = rng.randint(1, 4)
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        try:
            got = cauchy_det(u, v)
        except ValueError:
            continue
        assert got == cauchy_perm_det(u, v)
        done += 1


def test_mtilde_build_shape():
    for q in primes_in_range(3, 13):
        parts = build_mtilde(q)
        dim = q.n + 1
        assert len(parts.classes) == q.p
        assert len(parts.a_exp) == len(parts.b_exp) == len(parts.nu) == dim
        # row 0 is all -1; the diagonal (class 0) is p
        assert parts.top == CycElem.const(q, -1)
        assert parts.classes[0] == CycElem.const(q, q.p)
        # row 0 of A is zero, row 0 of B is all ones, nu is all ones
        assert parts.a_exp[0] == ()
        assert parts.b_exp[0] == (0,) * dim
        assert parts.nu == (1,) * dim
        for i in range(1, dim):
            for j in range(dim):
                assert parts.a_exp[i][j] == i * j * j % q.p
                assert parts.b_exp[i][j] == -i * j * j % q.p


def test_mtilde_structure_identity():
    for q in primes_in_range(3, 13):
        assert mtilde_structure_check(build_mtilde(q))


def structure_loop(parts):
    """The entrywise exponent count that mtilde_structure_check takes by one
    bincount per row: the first entry (i, j), row by row, whose count is not
    its class's exponent vector up to a constant, or None."""
    p = parts.prime
    top = parts.top.coeffs + (0,)
    classes = [c.coeffs + (0,) for c in parts.classes]
    for i in range(p.n + 1):
        for j in range(p.n + 1):
            vec = [0] * p.p
            vec[0] = -parts.nu[i] * parts.nu[j]
            for e in map(add, parts.a_exp[i], parts.b_exp[j]):
                vec[e % p.p] += 2
            if len(set(map(sub, vec, classes[(i - j) % p.p] if i else top))) != 1:
                return i, j
    return None


def test_structure_check_matches_the_entrywise_loop():
    # random single changes to a witness entry or to nu: the check passes
    # exactly when the loop finds no bad entry, else names the loop's first
    rng = random.Random(71)
    raised = 0
    for q in primes_in_range(3, 31):
        parts = build_mtilde(q)
        assert structure_loop(parts) is None and mtilde_structure_check(parts)
        for _ in range(12):
            field = rng.choice(("a_exp", "b_exp", "nu"))
            if field == "nu":
                nu = list(parts.nu)
                nu[rng.randrange(len(nu))] += rng.choice((-1, 1))
                bad = dataclasses.replace(parts, nu=tuple(nu))
            else:
                rows = [list(r) for r in getattr(parts, field)]
                i = rng.randrange(1 if field == "a_exp" else 0, len(rows))
                rows[i][rng.randrange(len(rows[i]))] += rng.randrange(1, q.p)
                bad = dataclasses.replace(parts, **{field: tuple(map(tuple, rows))})
            where = structure_loop(bad)
            if where is None:
                assert mtilde_structure_check(bad)
            else:
                raised += 1
                with pytest.raises(DiscrepancyError, match=rf"entry \({where[0]},{where[1]}\)"):
                    mtilde_structure_check(bad)
    assert raised > 100


def cofactor_det(p, rows):
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = CycElem.const(p, 0)
    for j in range(len(rows)):
        minor = [
            [x for jj, x in enumerate(row) if jj != j] for row in rows[1:]
        ]
        term = rows[0][j] * cofactor_det(p, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def ztau_cofactor(q, coords):
    return cofactor_det(q, [[ztau_to_cyc(q, c, d) for c, d in row] for row in coords])


def ztau_reference(coords, m, pstar):
    """det [t(i - j)] over Z[tau], tau^2 = pstar, where coords lists
    t(-(m-1)), ..., t(m-1) as (c, d) pairs meaning c + d*tau, as (c, d).

    P(x) = det [c + x*d] has degree at most m: the dense det at x = 0..m,
    forward differences divided exactly by k! (Newton's form), a Horner
    expansion into monomials, and x^2 = pstar folded in."""
    rows = [[coords[i - j + m - 1] for j in range(m)] for i in range(m)]
    values = [det(IntMatrix([[c + x * d for c, d in row] for row in rows]))
              for x in range(m + 1)]
    newton = []
    for k in range(m + 1):
        newton.append(_exact_div(values[0], math.factorial(k)))
        values = [b - a for a, b in zip(values, values[1:])]
    coeffs = [newton[m]]
    for k in range(m - 1, -1, -1):  # coeffs = coeffs * (x - k) + newton[k]
        coeffs = [a - k * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    folded = [0, 0]
    for e, coeff in enumerate(coeffs):
        folded[e % 2] += coeff * pstar ** (e // 2)
    return tuple(folded)


def ztau_toeplitz(q, coords, m):
    """toeplitz_det_ztau of [t(i - j)] and ztau_reference on the same matrix,
    where coords lists t(-(m-1)), ..., t(m-1) as (c, d) pairs; for m <= 4
    the reference must also equal the cofactor expansion in Q(zeta_q)."""
    pstar = (-1) ** q.n * q.p
    got = toeplitz_det_ztau(lambda k: coords[k + m - 1][0],
                            lambda k: coords[k + m - 1][1], m, pstar)
    ref = ztau_reference(coords, m, pstar)
    if m <= 4:
        dense = [[coords[i - j + m - 1] for j in range(m)] for i in range(m)]
        assert ztau_to_cyc(q, *ref) == ztau_cofactor(q, dense)
    return got, ref


@st.composite
def ztau_toeplitz_inputs(draw):
    q = OddPrime(draw(st.sampled_from((3, 5, 7, 13))))
    m = draw(st.integers(1, 8))
    # zero-heavy (c, d) entries, so the PRS meets degree gaps of every size
    entry = st.tuples(st.sampled_from((-2, -1, 0, 0, 0, 1, 3)),
                      st.sampled_from((-1, 0, 0, 0, 1, 2)))
    return q, draw(st.lists(entry, min_size=2 * m - 1, max_size=2 * m - 1)), m


@settings(max_examples=300, deadline=None)
@given(ztau_toeplitz_inputs())
def test_toeplitz_det_over_ztau_matches_bareiss(args):
    q, coords, m = args
    structured, dense = ztau_toeplitz(q, coords, m)
    assert structured == dense


def test_toeplitz_det_over_ztau_even_final_gap_and_singular():
    q = OddPrime(7)
    pstar = -7
    # tau times the integer matrix whose PRS ends on a degree gap of 2:
    # det = tau^5 * (-1) = -pstar^2 * tau
    values = [1, 0, -1, 0, 0, -1, 0, 1, -1]
    got, ref = ztau_toeplitz(q, [(0, v) for v in values], 5)
    assert got == ref == (0, -pstar ** 2)
    # rows 0 and 2 agree; the all-zero matrix; a zero diagonal
    for coords, m in (([(1, 1), (2, 0), (1, 1), (2, 0), (1, 1)], 3),
                      ([(0, 0)] * 7, 4),
                      ([(1, -1)] * 3 + [(0, 0)] * 4, 4)):
        got, ref = ztau_toeplitz(q, coords, m)
        assert got == ref == (0, 0)
    # upper triangular with diagonal 1 + tau: (1 + tau)^3 = 1 + 3 pstar + (3 + pstar) tau
    got, ref = ztau_toeplitz(q, [(0, 0)] * 2 + [(1, 1)] + [(2, -1)] * 2, 3)
    assert got == ref == (-20, -4)


def test_mtilde_det_matches_the_dense_reference():
    # t(k) = f(k+1) - f(k) with f(0) = p, f(d) = (d/p)*tau; det M~ is
    # (-1)^(n+1) times its n x n Toeplitz determinant
    for q in primes_in_range(3, 61):
        f = [(q.p, 0)] + [(0, c) for c in legendre_table(q)[1:]]
        coords = [(f[k + 1][0] - f[k][0], f[k + 1][1] - f[k][1])
                  for k in range(-(q.n - 1), q.n)]
        c, d = ztau_reference(coords, q.n, (-1) ** q.n * q.p)
        sign = (-1) ** (q.n + 1)
        assert mtilde_det(build_mtilde(q)) == (sign * c, sign * d), q.p


def test_mtilde_det_exact_small():
    check5 = mtilde_det_check(build_mtilde(OddPrime(5)))
    assert (check5.c, check5.d) == (-20, 0)
    assert str(check5) == "-20"

    check7 = mtilde_det_check(build_mtilde(OddPrime(7)))
    assert (check7.c, check7.d) == (0, 56)
    assert str(check7) == "56*tau"


def test_mtilde_det_p13_value():
    check = mtilde_det_check(build_mtilde(OddPrime(13)))
    assert (check.c, check.d) == (-140608, 0)


def test_mtilde_det_exact_above_old_cap():
    # p = 23 was decided by a float determinant before the Z[tau] route
    check = mtilde_det_check(build_mtilde(OddPrime(23)))
    assert (check.c, check.d) == (0, -13181630464)


def test_mtilde_det_above_the_dense_route_cap():
    # values of the dense Bareiss route over Z[tau], which stopped at p = 31
    assert mtilde_det(build_mtilde(OddPrime(61))) == (
        -646915258962549275091904510950375424, 0
    )
    assert mtilde_det(build_mtilde(OddPrime(101))) == (
        -144389006372190377129352128848834560623194404530333784790085402624, 0
    )


def test_mtilde_det_domain():
    with pytest.raises(ValueError):
        mtilde_det_check(build_mtilde(OddPrime(3)))


def test_mtilde_det_rejects_entry_off_ztau():
    q = OddPrime(7)
    parts = build_mtilde(q)
    classes = list(parts.classes)
    classes[1] = classes[1] + CycElem.zeta_pow(q, 1)  # entry (2, 1) and its class
    for bad in (
        dataclasses.replace(parts, classes=tuple(classes)),
        dataclasses.replace(parts, top=CycElem.const(q, 1)),
    ):
        with pytest.raises(DiscrepancyError):
            mtilde_det(bad)
        with pytest.raises(DiscrepancyError):
            mtilde_structure_check(bad)


def test_mtilde_structure_check_rejects_a_wrong_witness():
    q = OddPrime(7)
    parts = build_mtilde(q)
    rows = [list(r) for r in parts.a_exp]
    rows[3][2] = (rows[3][2] + 1) % q.p
    bad = dataclasses.replace(parts, a_exp=tuple(tuple(r) for r in rows))
    with pytest.raises(DiscrepancyError, match="entry"):
        mtilde_structure_check(bad)
    # (0, 2) repeats row 0's class, so its count is compared with (0, 0)'s
    bad = dataclasses.replace(parts, nu=(1, 1, 2, 1))
    with pytest.raises(DiscrepancyError, match=r"entry \(0,2\)"):
        mtilde_structure_check(bad)


def test_mtilde_p3_observed_determinant():
    # The closed form needs p >= 5; at p = 3 the structured matrix still
    # has a perfectly well-defined determinant, frozen here by hand:
    # det [[-1, -1], [1 + 2*zeta, 3]] = -3 + 1 + 2*zeta = -2 + 2*zeta,
    # which is -3 + tau with tau = 1 + 2*zeta.
    q = OddPrime(3)
    parts = build_mtilde(q)
    assert mtilde_det(parts) == (-3, 1)
    d = ztau_to_cyc(q, *mtilde_det(parts))
    assert d == CycElem(q, (-2, 2))
    # row 0 is [top, top]; row 1 is [class 1 - 0, class 1 - 1]
    a, b = (parts.top, parts.top), (parts.classes[1], parts.classes[0])
    assert d == a[0] * b[1] - a[1] * b[0]
