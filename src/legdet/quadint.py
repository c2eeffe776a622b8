"""Integers of a quadratic field Q(sqrt(d)), d a non-square integer.

Elements are written (a + b*sqrt(d))/2 with the integrality convention of
the maximal order: a = b (mod 2) when d = 1 (mod 4), both even otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

from .errors import DiscrepancyError


def _in_order(d: int, a: int, b: int) -> bool:
    if d % 4 == 1:
        return (a - b) % 2 == 0
    return a % 2 == 0 and b % 2 == 0


@dataclass(frozen=True)
class QuadElem:
    """The number (a + b*sqrt(d))/2 in the ring of integers of Q(sqrt(d))."""

    d: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.d == 0 or (self.d > 0 and isqrt(self.d) ** 2 == self.d):
            raise ValueError("d must be a non-square integer")
        if not _in_order(self.d, self.a, self.b):
            raise ValueError(
                "need a = b (mod 2) when d = 1 (mod 4), a and b even otherwise"
            )

    def _check(self, other: "QuadElem") -> None:
        if self.d != other.d:
            raise ValueError("mixed quadratic fields")

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        na, ra = divmod(self.a * other.a + self.b * other.b * self.d, 2)
        nb, rb = divmod(self.a * other.b + self.b * other.a, 2)
        if ra or rb:
            raise DiscrepancyError("product left the order")
        return QuadElem(self.d, na, nb)

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.d, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.d, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.d, -self.a, -self.b)

    def __divmod__(self, other: "QuadElem") -> tuple["QuadElem", "QuadElem"]:
        """(q, r) with self = q*other + r, where r is zero exactly when other
        divides self in the order: q = self*conj(other)/norm(other) then.
        Otherwise q = 0 and r = self."""
        t = self * other.conj()
        n = other.norm()
        qa, ra = divmod(t.a, n)
        qb, rb = divmod(t.b, n)
        if ra or rb or not _in_order(self.d, qa, qb):
            return QuadElem(self.d, 0, 0), self
        return QuadElem(self.d, qa, qb), QuadElem(self.d, 0, 0)

    def conj(self) -> "QuadElem":
        return QuadElem(self.d, self.a, -self.b)

    def norm(self) -> int:
        num, r = divmod(self.a * self.a - self.d * self.b * self.b, 4)
        if r:
            raise DiscrepancyError("norm must be integral on the maximal order")
        return num

    def to_float(self) -> float:
        return (self.a + self.b * math.sqrt(self.d)) / 2

    def __str__(self) -> str:
        return f"({self.a} + {self.b}*sqrt({self.d}))/2"
