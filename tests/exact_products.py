"""The exact route to the products of Lemma 3.2 and of the mtilde closed
form, kept as the tests' reference for the evaluation route of
`cyclotomic.lemma32_check` and `cyclotomic.mtilde_det_check`.

Each factor zeta^a - zeta^b is one shift-subtract on a length-p exponent
vector, so a product of N factors takes N passes of length p on bigints.
"""
from legdet.arith import OddPrime
from legdet.cyclotomic import CycElem


def times_difference(vec: list, a: int, b: int) -> list:
    """vec * (zeta^a - zeta^b) on length-p exponent vectors, 0 <= a, b < p:
    one shift-subtract, out[i] = vec[i - a] - vec[i - b]."""
    return [vec[i - a] - vec[i - b] for i in range(len(vec))]


def exact_product_one(p: OddPrime) -> CycElem:
    """Exact product over k=1..n of (1 - zeta^(k^2))."""
    vec = [1] + [0] * (p.p - 1)
    for k in range(1, p.n + 1):
        vec = times_difference(vec, 0, k * k % p.p)
    return CycElem.from_exponents(p, vec)


def exact_product_two(p: OddPrime) -> CycElem:
    """Exact product over pairs j < k of (zeta^(k^2) - zeta^(j^2))."""
    vec = [1] + [0] * (p.p - 1)
    for k in range(2, p.n + 1):
        for j in range(1, k):
            vec = times_difference(vec, k * k % p.p, j * j % p.p)
    return CycElem.from_exponents(p, vec)


def conj(x: CycElem) -> CycElem:
    """Complex conjugation, the field automorphism zeta -> zeta^(-1)."""
    p = x.prime.p
    vec = [0] * p
    for i, c in enumerate(x.coeffs):
        vec[(p - i) % p] += c
    return CycElem.from_exponents(x.prime, vec)

