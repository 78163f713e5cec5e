"""Sparse multivariate polynomials over F_p with pluggable monomial orders.

A monomial is a tuple of nonnegative exponents, one per ring variable.
A polynomial is an immutable tuple of (monomial, coefficient) terms held
in strictly descending monomial order with no zero coefficients; the zero
polynomial has an empty term tuple.  Two polynomials over the same ring
are equal exactly when their term tuples are identical.

Each monomial order is defined once, by its packing (Monagan & Pearce
2007, packed exponent vectors): a monomial packs into one Python int.
The low bits hold the exponents, one 48-bit field per variable: an
exponent below 2^32, the guard bit at bit 32, and room above it to sum
fewer than 2^16 exponents.  The high bits hold the order key, a linear
function of the exponents with one field per variable, most significant
first: x_1..x_n for lex; for grevlex the degree, then the prefix sums
x_1+...+x_{n-1}, x_1+...+x_{n-2}, ..., x_1; for block(k) x_1..x_k, then
grevlex on the rest.  Each key field is wide enough for n * (2^32 - 1).
Both parts are linear, so a product of monomials is one addition,
comparing two packed monomials compares them in the order, and lm
divides m exactly when m - lm has no guard bit set (a field with
m_i < lm_i borrows, which sets bits 32-47); m - lm is then the cofactor.
A sum of two exponents below 2^32 sets its field's guard bit exactly
when it reaches 2^32, so a product's guard bits show an overflow, which
raises ExponentOverflowError.  The packed order is exact only below
2^32, so `_Packing.sort`, the one place a term list is put into
canonical order, refuses any exponent at or past it.  Buchberger's pair
criteria read a lead m as `m & _Packing.mask`, its key stripped: there
the lcm is a field-wise max through the guard bits (SWAR), and a product
with one 1 per field sums the exponents into the top field: the degree.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add, itemgetter, mul

from .errors import ExponentOverflowError, PoolSizeError, RingMismatchError
from .field import PrimeField

EXP_LIMIT = 2**32

LEX = "lex"
GREVLEX = "grevlex"
BLOCK = "block"


class MonomialOrder:
    """Total monomial order: lex, grevlex, or block(k) elimination.

    block(k) compares the first k exponents lexicographically and breaks
    ties by grevlex on the remaining variables, so it eliminates the
    first k variables.  Its `_Packing` is the one definition of the
    order; `key` is a thin entry point over it.
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

    def key(self, exps) -> int:
        """The negated packed monomial: a bigger monomial has a smaller key,
        so an ascending sort of keys yields monomials in descending order."""
        if exps and max(exps) >= EXP_LIMIT:
            _overflow(exps)
        return -_packing(self, len(exps)).pack(exps)

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


_FIELD = 48  # an exponent below 2^32, the guard bit, room to sum < 2^16 exponents
_FIELD_MASK = (1 << _FIELD) - 1


class _Packing:
    """The packed monomials of one monomial order on n variables."""

    __slots__ = ("order", "units", "guard", "shifts", "mask", "wsum", "wtop")

    def __init__(self, order: MonomialOrder, n: int):
        self.order = order
        # the variables each key field sums, most significant field first:
        # x_1..x_k alone (k is n for lex, 0 for grevlex), then grevlex
        k = n if order.kind == LEX else min(order.nblock, n)
        fields = [range(i, i + 1) for i in range(k)]
        fields += [range(k, n - j) for j in range(n - k)]
        base = n * _FIELD
        width = (n * (EXP_LIMIT - 1)).bit_length()
        self.shifts = range(0, base, _FIELD)
        self.guard = sum(EXP_LIMIT << s for s in self.shifts)
        self.mask = (1 << base) - 1
        # units[i] is x_i packed; packing is linear, so it is all we need
        self.units = tuple(
            (1 << self.shifts[i])
            + sum(1 << (base + width * (n - 1 - f)) for f, var in enumerate(fields) if i in var)
            for i in range(n)
        )
        # the top field of (m & mask) * wsum, shifted down by wtop, is m's degree
        self.wsum = sum(1 << s for s in self.shifts)
        self.wtop = _FIELD * max(n - 1, 0)

    def pack(self, exps) -> int:
        return sum(map(mul, exps, self.units))

    def unpack(self, m: int) -> tuple:
        return tuple(map(_FIELD_MASK.__and__, map(m.__rshift__, self.shifts)))

    def narrow(self, w: int) -> int:
        """Re-key a packed monomial whose key was stripped: the m of w = m & mask."""
        return sum([(w >> s & _FIELD_MASK) * u for s, u in zip(self.shifts, self.units)])

    def terms(self, terms) -> list:
        """The (exponent tuple, coefficient) terms, packed, in their order."""
        out = []
        for m, c in terms:
            if m and max(m) >= EXP_LIMIT:
                _overflow(m)
            out.append((self.pack(m), c))
        return out

    def polynomial(self, ring: PolyRing, terms) -> Polynomial:
        """The polynomial of packed terms given in descending order."""
        return Polynomial(ring, tuple([(self.unpack(m), c) for m, c in terms]))

    def sort(self, ring: PolyRing, terms) -> Polynomial:
        """The polynomial of a list of (exponent tuple, coefficient) terms in
        any order, with distinct monomials and nonzero coefficients."""
        flat = itertools.chain.from_iterable
        if max(flat(map(itemgetter(0), terms)), default=0) >= EXP_LIMIT:
            _overflow(flat(map(itemgetter(0), terms)))
        return Polynomial(ring, tuple(sorted(terms, key=lambda t: self.pack(t[0]), reverse=True)))

    def overflow(self, t: int):
        """Raise for a packed monomial with a guard bit set."""
        _overflow(self.unpack(t))


# The packings of the most recent (order, number of variables) pairs.
_packing = functools.lru_cache(maxsize=16)(_Packing)


class PolyRing:
    """F_p[x_1..x_n] together with a monomial order and its packing."""

    __slots__ = ("field", "names", "order", "nvars", "packing")

    def __init__(self, field: PrimeField, names, order: MonomialOrder | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.field = field
        self.names = names
        self.order = order if order is not None else MonomialOrder.grevlex()
        self.nvars = len(names)
        self.packing = _packing(self.order, self.nvars)

    def poly(self, term_map) -> "Polynomial":
        """Canonical polynomial from a {monomial: coefficient} mapping."""
        p, n = self.field.p, self.nvars
        terms = []
        for exps, c in term_map.items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"monomial {exps} does not have the {n} exponents of {self!r}")
            c %= p
            if c:
                terms.append((exps, c))
        return self.packing.sort(self, terms)

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

    def __eq__(self, other):
        return self is other or (
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

# The most monomials a pool may hold; a degree bound past it is refused
# before anything is built.
POOL_LIMIT = 2**20


@functools.lru_cache(maxsize=_POOL_CACHE_SIZE)
def monomial_pool(S: PolyRing, max_degree: int) -> tuple:
    """Monomials of S of degree at most max_degree in ascending monomial
    order, so the constant monomial comes first.  Raises PoolSizeError
    if there are more than POOL_LIMIT of them."""
    n = S.nvars
    size = math.comb(n + max_degree, max_degree)
    if size > POOL_LIMIT:
        raise PoolSizeError(
            f"{n} variables have {size} monomials of degree at most {max_degree},"
            f" more than the {POOL_LIMIT} a pool may hold"
        )
    # a multiset of max_degree indices in 0..n is one such monomial: index
    # i < n counts towards the exponent of x_i, and index n towards none
    pool = [
        tuple(map(picks.count, range(n)))
        for picks in itertools.combinations_with_replacement(range(n + 1), max_degree)
    ]
    pool.sort(key=S.packing.pack)
    return tuple(pool)


def _frobenius_q(p: int, e: int) -> int:
    """p^e for a Frobenius exponent e >= 0, with e capped at 32: every exponent
    is below 2^32 <= p^32, so the cap changes no answer and builds no huge p^e."""
    if e < 0:
        raise ValueError("Frobenius exponent must be nonnegative")
    return p ** min(e, 32)


def _overflow(exps):
    """Raise for the first exponent of exps at or past EXP_LIMIT."""
    e = next(e for e in exps if e >= EXP_LIMIT)
    raise ExponentOverflowError(f"exponent {e} exceeds 2^32")


def _check_rings(ring, items):
    """Raise RingMismatchError unless every one of items lives in ring:
    polynomials against a PolyRing, ideals against a QuotientRing.  An
    item that holds the ring object itself costs one identity test."""
    for g in items:
        if g.ring is not ring and g.ring != ring:
            raise RingMismatchError(f"{ring!r} vs {g.ring!r}")


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

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _check_rings(self.ring, (other,))
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return self.ring.poly(acc)

    def __neg__(self) -> "Polynomial":
        p = self.ring.field.p
        return Polynomial(self.ring, tuple((m, (-c) % p) for m, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        _check_rings(self.ring, (other,))
        acc = {}
        for ma, ca in self.terms:
            for mb, cb in other.terms:
                m = tuple(map(add, ma, mb))
                acc[m] = acc.get(m, 0) + ca * cb
        return self.ring.poly(acc)

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.field.p
        c %= p
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, tuple((m, cc * c % p) for m, cc in self.terms))

    def mul_term(self, c: int, exps) -> "Polynomial":
        """Multiply by the single term c * x^exps."""
        c %= self.ring.field.p
        return self * Polynomial(self.ring, ((tuple(exps), c),) if c else ())

    def frobenius_power(self, e: int) -> "Polynomial":
        """f^(p^e): scale every exponent by p^e, coefficients fixed (c^p = c)."""
        p = self.ring.field.p
        q = _frobenius_q(p, e)
        out = []
        for m, c in self.terms:
            if m and max(m) * q >= EXP_LIMIT:
                raise ExponentOverflowError(
                    f"exponent {max(m)} * {p}^{e} exceeds 2^32 in Frobenius power"
                )
            out.append((tuple([a * q for a in m]), c))
        return Polynomial(self.ring, tuple(out))

    def derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative in variable i (coefficients mod p)."""
        acc = {}
        for m, c in self.terms:
            if m[i]:
                acc[m[:i] + (m[i] - 1,) + m[i + 1 :]] = c * m[i]
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
