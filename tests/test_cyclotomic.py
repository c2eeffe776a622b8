import cmath
import dataclasses
import itertools
import math
import random
from fractions import Fraction
from operator import add, sub

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legdet import cyclotomic
from legdet.arith import OddPrime, legendre, legendre_array, primes_in_range
from legdet.cyclotomic import (
    MtildeCheck,
    build_mtilde,
    cauchy_det,
    check_square_sums,
    frakp_residue,
    gauss_square,
    gauss_sum,
    lemma32_check,
    mtilde_det,
    mtilde_det_check,
    mtilde_structure_check,
    square_sums,
    ztau_text,
)
from legdet.errors import DiscrepancyError
from legdet.exactlinalg import IntMatrix, det, toeplitz_det_ztau
from legdet.quadfield import (
    ClassNumberReport,
    QuadElem,
    class_number_imag,
    class_number_real,
    fundamental_unit,
)
from legdet.verify import FAIL, run_sweep

from exact_products import (
    CycElem,
    all_embeddings,
    conj,
    exact_product_one,
    exact_product_two,
    numeric_product_one,
)
from bigint_toeplitz import _exact_div
from cyclic_square import _cyclic_square


def random_elem(rng, q, lo=-4, hi=4):
    return CycElem(q, [rng.randint(lo, hi) for _ in range(q.p - 1)])


def element(q, vec):
    """The reference element of an exponent vector."""
    return CycElem.from_exponents(q, [int(c) for c in vec])


def vector(x):
    """An exponent vector of a reference element."""
    return [*x.coeffs, 0]


def ztau_to_cyc(q, c, d):
    """c + d*tau in the reference arithmetic."""
    return CycElem.const(q, c) + element(q, gauss_sum(q)).scale(d)


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
        assert conj(conj(x)) == x
        assert conj(x * y) == conj(x) * conj(y)
        assert conj(x + y) == conj(x) + conj(y)
    z = CycElem.zeta_pow(q, 4)
    assert conj(z) == CycElem.zeta_pow(q, 7)
    w = random_elem(rng, q)
    assert abs(complex_image(conj(w)) - complex_image(w).conjugate()) < 1e-12


def test_gauss_sum_square_exact():
    # the cyclic square of the exponent vector against the reference product
    for q in primes_in_range(3, 61):
        tau = element(q, gauss_sum(q))
        want = CycElem.const(q, (-1) ** ((q.p - 1) // 2) * q.p)
        assert tau * tau == want, q.p
        assert gauss_square(q) == (str(tau * tau), want.coeffs[0]), q.p


def test_gauss_square_vector_matches_the_cyclic_square(monkeypatch):
    # the vector gauss_square prints, (-1)^n times the autocorrelation of
    # chi, against the windowed cyclic square of tau, slot by slot
    printed = []
    text = cyclotomic._power_basis_text
    monkeypatch.setattr(cyclotomic, "_power_basis_text",
                        lambda vec: printed.append(vec) or text(vec))
    for q in primes_in_range(3, 601):
        gauss_square(q)
        assert printed[-1] == _cyclic_square(legendre_array(q)).tolist(), q.p


def test_ztau_text_prints_the_exact_multiple():
    # d far past int64: the table's entries are scaled as Python ints, so
    # the text is the reference's, and for p = 5 shows 2d itself
    big = 1 << 80
    for q in (OddPrime(5), OddPrime(7), OddPrime(13), OddPrime(101)):
        for c, d in ((0, big), (3, -big), (-1, big + 12345), (7, 3 ** 60)):
            vec = [c] + [d * legendre(k, q) for k in range(1, q.p)]
            assert ztau_text(q, c, d) == str(CycElem.from_exponents(q, vec)), (q.p, d)
    assert ztau_text(OddPrime(5), 1, big) == f"{1 - big} - {2 * big}*z^2 - {2 * big}*z^3"


def test_power_basis_text_matches_the_reference():
    # random vectors, and constants c shifted by s, whose text is str(c)
    rng = random.Random(73)
    for q in primes_in_range(3, 13):
        vecs = [[rng.randint(-3, 3) for _ in range(q.p)] for _ in range(100)]
        vecs += [[c + s] + [s] * (q.p - 1) for c in range(-3, 4) for s in (-2, 0, 5)]
        for vec in vecs:
            text = cyclotomic._power_basis_text(vec)
            assert text == str(CycElem.from_exponents(q, vec)), (q.p, vec)
        assert cyclotomic._power_basis_text([4] + [1] * (q.p - 1)) == "3"


def test_frakp_residue_values():
    q = OddPrime(7)
    assert frakp_residue(vector(CycElem.const(q, 10))) == 3
    assert frakp_residue(vector(CycElem.const(q, 1) - CycElem.zeta_pow(q, 1))) == 0
    for q2 in primes_in_range(3, 31):
        assert frakp_residue(gauss_sum(q2)) == 0
    with pytest.raises(ValueError):
        frakp_residue([Fraction(1, 2), 0, 0, 0, 0, 0, 0])


def test_frakp_residue_is_homomorphism():
    # the exponent-vector sum mod p is the power-basis coefficient sum mod p,
    # whatever constant the vector is shifted by
    rng = random.Random(47)
    q = OddPrime(13)
    for _ in range(200):
        x = random_elem(rng, q)
        y = random_elem(rng, q)
        rx, ry = frakp_residue(vector(x)), frakp_residue(vector(y))
        assert rx == sum(x.coeffs) % q.p
        shift = rng.randint(-9, 9)
        assert frakp_residue([c + shift for c in vector(x)]) == rx
        assert frakp_residue(vector(x + y)) == (rx + ry) % q.p
        assert frakp_residue(vector(x * y)) == (rx * ry) % q.p


def test_quadratic_gauss_identity_all_residues():
    for q in primes_in_range(3, 199):
        check_square_sums(q, square_sums(q))


def test_square_sums_match_cycelem_equality():
    # the bincount against the loop over k, and the constant-difference rule
    # against equality on the power basis
    for q in primes_in_range(3, 61):
        tau = element(q, gauss_sum(q))
        sums = square_sums(q)
        assert sums.shape == (q.p, q.p)
        for a in range(q.p):
            vec = [1] + [0] * (q.p - 1)
            for k in range(1, q.n + 1):
                vec[a * k * k % q.p] += 2
            assert sums[a].tolist() == vec, (q.p, a)
        assert element(q, sums[0]) == CycElem.const(q, q.p)
        for a in range(1, q.p):
            assert element(q, sums[a]) == tau.scale(legendre(a, q)), (q.p, a)


def test_check_square_sums_rejects_a_moved_exponent():
    q = OddPrime(13)
    sums = square_sums(q)
    shifted = sums.tolist()
    shifted[4] = [c + 7 for c in shifted[4]]  # adds 7 * (1 + zeta + ... + zeta^12) = 0
    check_square_sums(q, shifted)
    # one moved row is named; of two, the lower a.  Row a moves one exponent
    # from zeta^a to zeta^(a+1)
    for rows, a in (((0,), 0), ((5,), 5), ((12,), 12), ((9, 1), 1), ((12, 0), 0)):
        moved = sums.copy()
        for row in rows:
            moved[row, row] -= 1
            moved[row, (row + 1) % 13] += 1
        with pytest.raises(DiscrepancyError, match=rf"a={a}$"):
            check_square_sums(q, moved)
    for rows in (sums[:12], sums.tolist() + [[0] * 13]):
        with pytest.raises(ValueError, match=f"need 13 square sums, got {len(rows)}"):
            check_square_sums(q, rows)


def test_check_square_sums_names_a_row_of_a_later_block():
    # at p = 1031 a block holds 1017 rows, so a = 1020 and a = p - 1 lie in
    # the second block
    q = OddPrime(1031)
    sums = square_sums(q)
    check_square_sums(q, sums)
    for a in (1020, q.p - 1):
        moved = sums.copy()
        moved[a, 0] -= 1
        moved[a, 1] += 1
        with pytest.raises(DiscrepancyError, match=rf"a={a}$"):
            check_square_sums(q, moved)


def test_gauss_sum_complex_images_frozen():
    # Gauss's sign: tau maps to +sqrt(p) or +i*sqrt(p), which is what the
    # closed forms printed as "tau" rely on
    assert complex_image(CycElem.const(OddPrime(5), 1)) == 1
    g5 = complex_image(element(OddPrime(5), gauss_sum(OddPrime(5))))
    assert abs(g5.real - 5 ** 0.5) < 1e-9 and abs(g5.imag) < 1e-9
    g7 = complex_image(element(OddPrime(7), gauss_sum(OddPrime(7))))
    assert abs(g7.imag - 7 ** 0.5) < 1e-9 and abs(g7.real) < 1e-9


def test_numeric_product_one_values():
    # the double-precision P1 that the exact product is checked against
    one5 = numeric_product_one(5)
    assert abs(one5.real - 1.3819660112501051) < 1e-9 and abs(one5.imag) < 1e-9
    one7 = numeric_product_one(7)
    assert abs(one7.imag - (-7 ** 0.5)) < 1e-9 and abs(one7.real) < 1e-9


def test_sun_product_matches_exact_embedding():
    for q in primes_in_range(5, 23):
        exact = complex_image(exact_product_one(q))
        numeric = numeric_product_one(q.p)
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


def report(h, unit=None):
    """A class-number report holding only what lemma32_check reads."""
    return ClassNumberReport(h, {}, unit)


def test_lemma32_check_closed_forms():
    # eps = (1 + sqrt(5))/2 and (3 + sqrt(13))/2
    assert lemma32_check(OddPrime(5), report(1, QuadElem(5, 1, 1))) == ("tau*eps^-1", "-tau*eps")
    assert lemma32_check(OddPrime(7), report(1)) == ("-tau", "-7")
    assert lemma32_check(OddPrime(11), report(1)) == ("-tau", "11^2")
    assert lemma32_check(OddPrime(13), report(1, QuadElem(13, 3, 1))) == (
        "tau*eps^-1", "-13^2*tau*eps")
    # h(-23) = 3 flips the sign of the first product
    assert lemma32_check(OddPrime(23), report(3)) == ("tau", "-23^5")


def test_lemma32_check_rejects_wrong_class_number():
    # h enters the first closed form only; a wrong h must be caught exactly.
    # At p = 3 (mod 4), h + 2 flips the sign of tau; h(-23) = 3, h(-199) = 9
    for p, h in ((7, 3), (5, 2), (23, 5), (199, 11), (197, 3)):
        q = OddPrime(p)
        unit = fundamental_unit(q) if p % 4 == 1 else None
        with pytest.raises(DiscrepancyError, match="first identity failed"):
            lemma32_check(q, report(h, unit))
    # so is a wrong unit: eps^2 in place of eps at p = 13
    with pytest.raises(DiscrepancyError, match="first identity failed"):
        lemma32_check(OddPrime(13), report(1, QuadElem(13, 11, 3)))
    with pytest.raises(ValueError):
        lemma32_check(OddPrime(3), report(1))
    # the report carries the unit exactly when p = 1 (mod 4)
    with pytest.raises(ValueError, match="fundamental unit"):
        lemma32_check(OddPrime(13), report(1))
    with pytest.raises(ValueError, match="fundamental unit"):
        lemma32_check(OddPrime(7), report(1, QuadElem(7, 16, 6)))


def horner_images(x, q, omega):
    """x under every embedding zeta -> omega^j, j = 1..p-1, mod q."""
    p = x.prime.p
    images = []
    for j in range(1, p):
        w, acc = pow(omega, j, q), 0
        for c in reversed(x.coeffs):
            acc = (acc * w + c) % q
        images.append(acc)
    return images


def spy_embeddings(monkeypatch):
    """Patch cyclotomic._embeddings to record every call as
    (bound, products, (q, tau, values))."""
    seen = []
    real = cyclotomic._embeddings

    def spy(p, bound, products):
        out = real(p, bound, products)
        seen.append((bound, products, out))
        return out

    monkeypatch.setattr(cyclotomic, "_embeddings", spy)
    return seen


def class_number(q):
    """The class-number report that lemma32_check takes."""
    return class_number_real(q) if q.p % 4 == 1 else class_number_imag(q)


def test_evaluation_route_matches_the_exact_products(monkeypatch):
    # at the first split prime of each p, the residues both checks test
    # are the exact products' images at j = 1 and the least nonresidue g:
    # tau and P1, P2 for lemma32, and conj(P1) P2 conj(P2) for mtilde,
    # with conj as j -> p - j
    seen = spy_embeddings(monkeypatch)
    for q in primes_in_range(5, 199):
        lemma32_check(q, class_number(q))
        mtilde_det_check(build_mtilde(q))
        (_, _, (mod, tau, (one, two))), (_, _, (_, _, (closed,))) = seen
        seen.clear()
        r = int(mod[0, 0])
        omega = cyclotomic._root_of_order(q.p, r)
        g = legendre_array(q).tolist().index(-1)
        p1 = horner_images(exact_product_one(q), r, omega)
        p2 = horner_images(exact_product_two(q), r, omega)
        both = [a * b * c % r for a, b, c in zip(p1[::-1], p2, p2[::-1])]
        tau_all = horner_images(element(q, gauss_sum(q)), r, omega)
        for got, images in ((tau, tau_all), (one, p1), (two, p2), (closed, both)):
            assert got[0].tolist() == [images[0], images[g - 1]], q.p


def test_each_side_lies_in_the_quadratic_subfield(monkeypatch):
    # under the all-embedding reference, tau, P1, P2^2 and mtilde's
    # conj(P1) P2 conj(P2) each take one value at the residues j and one
    # at the nonresidues, as elements of Q(sqrt(p*)) do; this is what lets
    # _embeddings evaluate only j = 1 and g, and its two columns are the
    # reference's.  At 521, whose P2 factors fill 1040 entries per split
    # prime, only lemma32 is compared: mtilde's reference there would hold
    # hundreds of MB
    seen = spy_embeddings(monkeypatch)
    for q in [*primes_in_range(5, 61), OddPrime(521)]:
        lemma32_check(q, class_number(q))
        if q.p <= 61:
            mtilde_det_check(build_mtilde(q))
        (bound, products, (got_mod, got_tau, got)), *mtilde = seen
        seen.clear()
        mod, tau, (one, two) = all_embeddings(q, bound, products)
        pairs = [(got_tau, tau), (got[0], one), (got[1], two)]
        in_k = [tau, one, two * two % mod]
        for mtilde_bound, mtilde_products, (_, _, (got_closed,)) in mtilde:
            _, _, (closed,) = all_embeddings(q, mtilde_bound, mtilde_products)
            pairs.append((got_closed, closed))
            in_k.append(closed)
        chi = legendre_array(q)[1:]
        for side in in_k:
            for coset in (side[:, chi == 1], side[:, chi == -1]):
                assert (coset == coset[:, :1]).all(), q.p
        columns = [0, legendre_array(q).tolist().index(-1) - 1]
        assert (got_mod == mod).all(), q.p
        for value, reference in pairs:
            assert (value == reference[:, columns]).all(), q.p


def move_one_unit(monkeypatch):
    """Patch cyclotomic._embeddings to move one unit of the last product's
    exponents, at its least d < p - 1 with x[d] > 0, to d + 1."""
    real = cyclotomic._embeddings

    def moved(p, bound, products):
        shift, exponents = products[-1]
        exponents = exponents.copy()
        d = int(np.flatnonzero(exponents[:-1])[0])
        exponents[d] -= 1
        exponents[d + 1] += 1
        return real(p, bound, products[:-1] + [(shift, exponents)])

    monkeypatch.setattr(cyclotomic, "_embeddings", moved)


@pytest.mark.parametrize("p", [13, 29, 31, 61, 449, 521])
def test_lemma32_check_rejects_a_tampered_evaluation(monkeypatch, p):
    q = OddPrime(p)
    right = class_number(q)
    assert lemma32_check(q, right)
    with pytest.raises(DiscrepancyError, match="first identity failed"):
        lemma32_check(q, dataclasses.replace(right, h=right.h + 2))
    move_one_unit(monkeypatch)
    with pytest.raises(DiscrepancyError, match="second identity failed"):
        lemma32_check(q, right)
    monkeypatch.undo()
    real = cyclotomic._embeddings

    def negated(p, bound, products):
        mod, tau, values = real(p, bound, products)
        tau[:, 1] = -tau[:, 1] % mod[:, 0]
        return mod, tau, values

    monkeypatch.setattr(cyclotomic, "_embeddings", negated)
    with pytest.raises(DiscrepancyError, match="first identity failed"):
        lemma32_check(q, right)


@pytest.mark.parametrize("p", [13, 23, 61])
def test_mtilde_det_check_rejects_a_moved_determinant(monkeypatch, p):
    q = OddPrime(p)
    parts = build_mtilde(q)
    c, d = mtilde_det(parts)
    assert mtilde_det_check(parts) == MtildeCheck(c, d)
    for wrong in ((c + 1, d), (c, d - 1)):
        monkeypatch.setattr(cyclotomic, "mtilde_det", lambda parts, wrong=wrong: wrong)
        with pytest.raises(DiscrepancyError, match="exact determinant mismatch"):
            mtilde_det_check(parts)
    monkeypatch.undo()
    move_one_unit(monkeypatch)
    with pytest.raises(DiscrepancyError, match="exact determinant mismatch"):
        mtilde_det_check(parts)


def test_checks_reject_split_primes_below_the_bound(monkeypatch):
    # at p = 23 one split prime exceeds the first identity's bound,
    # 2^11 + 5, but neither lemma32's bound 11^11 + 23^5 nor mtilde's
    q = OddPrime(23)
    one = list(itertools.islice(cyclotomic._modular_primes(23), 1))
    assert 2 ** 11 + 5 < one[0] <= 11 ** 11 + 23 ** 5
    parts = build_mtilde(q)
    monkeypatch.setattr(cyclotomic, "_modular_primes", lambda s: iter(one))
    for check in (lambda: lemma32_check(q, report(3)), lambda: mtilde_det_check(parts)):
        with pytest.raises(DiscrepancyError, match="ran out below the embedding bound"):
            check()


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
        m = rng.randint(1, 6)  # the sizes verify_cauchy draws
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        try:
            got = cauchy_det(u, v)
        except ValueError:
            continue
        assert got == cauchy_perm_det(u, v)
        done += 1


def test_cauchy_det_mismatch_raises_and_fails_the_record(monkeypatch):
    # the elimination's determinant off by one: the cross-multiplied
    # comparison names both values, and a sweep turns it into a FAIL record
    monkeypatch.setattr(cyclotomic, "det", lambda m: det(m) + 1)
    # 1/(1 + 2*3): the row scaled by 7 has det 1, read as 2
    with pytest.raises(DiscrepancyError, match=r"^Cauchy determinant mismatch: "
                       r"elimination 2/7, closed 1/7$"):
        cauchy_det([2], [3])
    report = run_sweep("cauchy", 5, 5)
    assert [r.status for r in report.records] == [FAIL]
    assert report.records[0].aux["error"].startswith("Cauchy determinant mismatch: ")


def test_mtilde_build_shape():
    for q in primes_in_range(3, 13):
        parts = build_mtilde(q)
        dim = q.n + 1
        assert parts.classes.shape == (q.p, q.p)
        assert len(parts.a_exp) == len(parts.b_exp) == len(parts.nu) == dim
        # row 0 is all -1; the diagonal (class 0) is p
        assert element(q, parts.top) == CycElem.const(q, -1)
        assert element(q, parts.classes[0]) == CycElem.const(q, q.p)
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
    top, classes = parts.top.tolist(), parts.classes.tolist()
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
    a, b = np.array(coords[::-1]).T  # t(m-1), ..., t(-(m-1))
    got = toeplitz_det_ztau(a, b, pstar)
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
        f = [(q.p, 0)] + [(0, c) for c in legendre_array(q).tolist()[1:]]
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
    classes = parts.classes.copy()
    classes[1, 1] += 1  # entry (2, 1) and its class gain zeta
    top = parts.top.copy()
    top[3] += 1  # row 0 gains zeta^3
    for bad in (
        dataclasses.replace(parts, classes=classes),
        dataclasses.replace(parts, top=-parts.top),
        dataclasses.replace(parts, top=top),
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
    assert ztau_text(q, *mtilde_det(parts)) == "-2 + 2*z"
    d = ztau_to_cyc(q, *mtilde_det(parts))
    assert d == CycElem(q, (-2, 2))
    # row 0 is [top, top]; row 1 is [class 1 - 0, class 1 - 1]
    top = element(q, parts.top)
    a, b = (top, top), (element(q, parts.classes[1]), element(q, parts.classes[0]))
    assert d == a[0] * b[1] - a[1] * b[0]
