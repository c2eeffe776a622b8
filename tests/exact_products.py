"""The tests' reference arithmetic in Q(zeta_p), against which the
exponent vectors of `legdet.cyclotomic` are checked.

`CycElem` stores an element on the power basis 1, zeta, ..., zeta^(p-2),
with int or Fraction coefficients, and multiplies by schoolbook products:
it is the reference for tau^2, the square sums, the mtilde entries and
the power-basis text.  The exact route to the products of Lemma 3.2 and of
the mtilde closed form is the reference for the evaluation route of
`cyclotomic.lemma32_check` and `cyclotomic.mtilde_det_check`: each factor
zeta^a - zeta^b is one shift-subtract on a length-p exponent vector, so a
product of N factors takes N passes of length p on bigints.
`numeric_product_one` is the same P1 in double precision, the reference
for the exact product's complex image.
"""
import numpy as np

from legdet.arith import OddPrime


class CycElem:
    """Element of Q(zeta_p); its coefficients are ints or Fractions, kept
    as given."""

    __slots__ = ("prime", "coeffs")

    def __init__(self, prime: OddPrime, coeffs) -> None:
        coeffs = tuple(coeffs)
        if len(coeffs) != prime.p - 1:
            raise ValueError(f"need {prime.p - 1} coefficients, got {len(coeffs)}")
        self.prime = prime
        self.coeffs = coeffs

    @classmethod
    def from_exponents(cls, prime: OddPrime, vec) -> "CycElem":
        # vec has length p, one slot per exponent; fold zeta^(p-1) away
        top = vec[prime.p - 1]
        return cls(prime, [vec[i] - top for i in range(prime.p - 1)])

    @classmethod
    def const(cls, prime: OddPrime, c) -> "CycElem":
        return cls(prime, [c] + [0] * (prime.p - 2))

    @classmethod
    def zeta_pow(cls, prime: OddPrime, e: int) -> "CycElem":
        vec = [0] * prime.p
        vec[e % prime.p] = 1
        return cls.from_exponents(prime, vec)

    def _check(self, other: "CycElem") -> None:
        if self.prime.p != other.prime.p:
            raise ValueError("mixed cyclotomic fields")

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycElem)
            and self.prime.p == other.prime.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.prime.p, self.coeffs))

    def __add__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        return CycElem(self.prime, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        return CycElem(self.prime, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycElem":
        return CycElem(self.prime, [-a for a in self.coeffs])

    def __mul__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        p = self.prime.p
        out = [0] * p
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                if cj == 0:
                    continue
                out[(i + j) % p] += ci * cj
        return CycElem.from_exponents(self.prime, out)

    def scale(self, c) -> "CycElem":
        return CycElem(self.prime, [c * a for a in self.coeffs])

    def __str__(self) -> str:
        if all(c == 0 for c in self.coeffs[1:]):
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            body = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i > 0 and mag != 1:
                body = f"{mag}*{body}"
            elif i == 0:
                body = str(mag)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


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


def numeric_product_one(p: int) -> complex:
    """prod over k=1..n of (1 - zeta^(k^2)) at zeta = exp(2*pi*i/p), in
    double precision."""
    k = np.arange(1, (p + 1) // 2, dtype=np.int64)
    return complex(np.prod(1 - np.exp(2j * np.pi * (k * k % p) / p)))


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

