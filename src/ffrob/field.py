"""The prime field F_p: its characteristic and inverses.

Coefficients are plain Python ints kept as least nonnegative residues in
[0, p) by `% p`, so equality of coefficients is integer equality.  p is
capped below 2^31: products then fit comfortably in machine words before
reduction, and every ring in practice uses tiny p anyway.  PrimeField is
an immutable namedtuple that checks p, also when built by `_replace`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import FFrobError


def is_prime(n: int) -> bool:
    """Primality by trial division; below 2^31 that is at most about
    46,000 divisors."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class PrimeField(namedtuple("PrimeField", ("p",))):
    """The field F_p, with canonical representatives 0..p-1."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise FFrobError(f"characteristic must be an integer in [2, 2^31), got {p!r}")
        if not is_prime(p):
            raise FFrobError(f"characteristic {p} is not prime")
        return super().__new__(cls, p)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on a = 0."""
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def __repr__(self):
        return f"F_{self.p}"
