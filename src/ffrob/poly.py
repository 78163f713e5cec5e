"""Sparse multivariate polynomials over F_p with pluggable monomial orders.

A monomial is a tuple of nonnegative exponents, one per ring variable.
A polynomial is an immutable tuple of (monomial, coefficient) terms held
in strictly descending monomial order with no zero coefficients; the zero
polynomial has an empty term tuple.  Two polynomials over the same ring
are equal exactly when their term tuples are identical.
"""

from __future__ import annotations

import functools
import itertools
from operator import add, neg

from .errors import ExponentOverflowError, RingMismatchError
from .field import PrimeField

EXP_LIMIT = 2**32

LEX = "lex"
GREVLEX = "grevlex"
BLOCK = "block"


class MonomialOrder:
    """Total monomial order: lex, grevlex, or block(k) elimination.

    block(k) compares the first k exponents lexicographically and breaks
    ties by grevlex on the remaining variables, so it eliminates the
    first k variables.  Keys run the other way from the order: a bigger
    monomial has a smaller key, so an ascending sort or a min-heap of keys
    yields monomials in descending order.
    """

    __slots__ = ("kind", "nblock")

    def __init__(self, kind: str, nblock: int = 0):
        if kind not in (LEX, GREVLEX, BLOCK):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == BLOCK and nblock < 0:
            raise ValueError("block size must be nonnegative")
        self.kind = kind
        self.nblock = nblock if kind == BLOCK else 0

    @classmethod
    def lex(cls):
        return cls(LEX)

    @classmethod
    def grevlex(cls):
        return cls(GREVLEX)

    @classmethod
    def block(cls, k: int):
        return cls(BLOCK, k)

    def key(self, exps):
        if self.kind == LEX:
            return tuple(map(neg, exps))
        if self.kind == GREVLEX:
            return _grevlex_key(exps)
        k = self.nblock
        return (tuple(map(neg, exps[:k])), _grevlex_key(exps[k:]))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.nblock == other.nblock
        )

    def __hash__(self):
        return hash((self.kind, self.nblock))

    def __repr__(self):
        if self.kind == BLOCK:
            return f"block({self.nblock})"
        return self.kind


def _grevlex_key(exps):
    # a > b iff deg a > deg b, or degrees tie and the last nonzero entry
    # of a - b is negative: a has the smaller negated degree, then the
    # smaller reversed tuple.
    return (-sum(exps), exps[::-1])


class PolyRing:
    """F_p[x_1..x_n] together with a monomial order."""

    __slots__ = ("field", "names", "order", "nvars")

    def __init__(self, field: PrimeField, names, order: MonomialOrder | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.field = field
        self.names = names
        self.order = order if order is not None else MonomialOrder.grevlex()
        self.nvars = len(names)

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        return PolyRing(self.field, self.names, order)

    def poly(self, term_map) -> "Polynomial":
        """Canonical polynomial from a {monomial: coefficient} mapping."""
        p = self.field.p
        cleaned = {}
        for exps, c in term_map.items():
            c %= p
            if c:
                cleaned[tuple(exps)] = c
        terms = tuple((m, cleaned[m]) for m in sorted(cleaned, key=self.order.key))
        return Polynomial(self, terms)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return self.poly({(0,) * self.nvars: c})

    def variable(self, i: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[i] = 1
        return self.poly({tuple(exps): 1})

    def variables(self):
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, exps) -> "Polynomial":
        return self.poly({tuple(exps): 1})

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field, self.names, self.order))

    def __repr__(self):
        return f"F_{self.field.p}[{','.join(self.names)}]<{self.order!r}>"


# Monomial pools of the most recent (ring, degree) pairs; a probe asks for
# the same one twice per trial.
_POOL_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_POOL_CACHE_SIZE)
def monomial_pool(S: PolyRing, max_degree: int) -> tuple:
    """Monomials of S of degree at most max_degree in ascending monomial
    order, so the constant monomial comes first."""
    pool = [
        exps
        for exps in itertools.product(range(max_degree + 1), repeat=S.nvars)
        if sum(exps) <= max_degree
    ]
    pool.sort(key=S.order.key, reverse=True)
    return tuple(pool)


def _overflow(exps):
    """Raise for the first exponent of exps at or past EXP_LIMIT."""
    e = next(e for e in exps if e >= EXP_LIMIT)
    raise ExponentOverflowError(f"exponent {e} exceeds 2^32")


class Polynomial:
    """Immutable canonical sparse polynomial; build via PolyRing.poly()."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        self.ring = ring
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading_monomial(self):
        return self.terms[0][0]

    @property
    def leading_coeff(self) -> int:
        return self.terms[0][1]

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self.terms)
        p = self.ring.field.p
        for m, c in other.terms:
            v = (acc.get(m, 0) + c) % p
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
        return self.ring.poly(acc)

    def __neg__(self) -> "Polynomial":
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((m, (-c) % p) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        p = self.ring.field.p
        acc = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = tuple(map(add, ma, mb))
                if m and max(m) >= EXP_LIMIT:
                    _overflow(m)
                v = (acc.get(m, 0) + ca * cb) % p
                if v:
                    acc[m] = v
                else:
                    acc.pop(m, None)
        return self.ring.poly(acc)

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.field.p
        c %= p
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, cc * c % p) for m, cc in self.terms))

    def mul_term(self, c: int, exps) -> "Polynomial":
        """Multiply by the single term c * x^exps."""
        p = self.ring.field.p
        c %= p
        if c == 0:
            return self.ring.zero()
        out = []
        for m, cc in self.terms:
            nm = tuple(map(add, m, exps))
            if nm and max(nm) >= EXP_LIMIT:
                _overflow(nm)
            out.append((nm, cc * c % p))
        return self.ring.poly(dict(out))

    def monic(self) -> "Polynomial":
        if self.is_zero or self.leading_coeff == 1:
            return self
        return self.scale(self.ring.field.inv(self.leading_coeff))

    def frobenius_power(self, e: int) -> "Polynomial":
        """f^(p^e): scale every exponent by p^e, coefficients fixed (c^p = c)."""
        if e < 0:
            raise ValueError("Frobenius exponent must be nonnegative")
        p = self.ring.field.p
        # a nonzero exponent times p^32 is already at least 2^32, so capping
        # e at 32 changes no result and never builds a huge p^e
        q = p ** min(e, 32)
        out = []
        for m, c in self.terms:
            nm = tuple(a * q for a in m)
            for x in nm:
                if x >= EXP_LIMIT:
                    raise ExponentOverflowError(
                        f"exponent {max(m)} * {p}^{e} exceeds 2^32 in Frobenius power"
                    )
            out.append((nm, c))
        return Polynomial(self.ring, tuple(out))

    def derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative in variable i (coefficients mod p)."""
        acc = {}
        p = self.ring.field.p
        for m, c in self.terms:
            if m[i] == 0:
                continue
            nc = c * (m[i] % p) % p
            if nc == 0:
                continue
            nm = m[:i] + (m[i] - 1,) + m[i + 1 :]
            acc[nm] = (acc.get(nm, 0) + nc) % p
        return self.ring.poly(acc)

    def convert(self, ring: PolyRing) -> "Polynomial":
        """Re-canonicalize in a ring with the same field and variables."""
        if ring.field != self.ring.field or ring.names != self.ring.names:
            raise RingMismatchError("convert() only changes the monomial order")
        return ring.poly(dict(self.terms))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<{render(self)}>"


def render(f: Polynomial) -> str:
    """Canonical text form: descending terms, unit coefficients and
    exponents of 1 elided, e.g. ``x^2*y + 2*z``."""
    if f.is_zero:
        return "0"
    names = f.ring.names
    parts = []
    for m, c in f.terms:
        factors = []
        for name, e in zip(names, m):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)
