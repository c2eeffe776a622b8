"""Integer polynomials in t, kept as the tests' reference form of a
characteristic polynomial: the expanded coefficients that Faddeev-LeVerrier
and the evaluation routes produce, and the expansion of the factored text
that `legdet.matrices.charpoly_cp_text` writes."""
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple

    def __post_init__(self) -> None:
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0 and self.degree > 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            if not terms:
                terms.append(("-" if c < 0 else "") + body)
            else:
                terms.append(("- " if c < 0 else "+ ") + body)
        return " ".join(terms)


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(tuple(out))


def poly_pow(a: IntPolynomial, k: int) -> IntPolynomial:
    if k < 0:
        raise ValueError("negative power")
    acc = IntPolynomial((1,))
    base = a
    while k:
        if k & 1:
            acc = poly_mul(acc, base)
        base = poly_mul(base, base)
        k >>= 1
    return acc


_FACTOR = re.compile(r"\(t\^2 ([+-]) (\d+)\)(?:\^(\d+))?")


def expand_factored(text: str) -> IntPolynomial:
    """The product of the factors (t^2 +- c)^e of text, such as
    "(t^2 + 131)^64*(t^2 + 1)", expanded; a factor without ^e has e = 1.
    The factors, joined by "*", must make up the whole text."""
    factors = text.split("*")
    acc = IntPolynomial((1,))
    for factor in factors:
        match = _FACTOR.fullmatch(factor)
        if match is None:
            raise ValueError(f"not a factor (t^2 +- c)^e: {factor!r}")
        sign, c, e = match.groups()
        root = int(c) if sign == "-" else -int(c)
        acc = poly_mul(acc, poly_pow(IntPolynomial((-root, 0, 1)), int(e or 1)))
    return acc
