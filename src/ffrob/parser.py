"""Recursive-descent parser for polynomial expressions.

Grammar: integer coefficients, declared variable names, ``^`` with
positive integer exponents, ``*``, ``+``, ``-``, parentheses; whitespace
is ignored.  Coefficients are reduced mod p on the fly.
"""

from __future__ import annotations

import math
import re

from .errors import ExponentOverflowError, ParseError
from .poly import EXP_LIMIT, POOL_LIMIT, Polynomial, PolyRing

NAME = r"[A-Za-z_][A-Za-z_0-9]*"  # a variable name, as the tokenizer reads one
_TOKEN = re.compile(rf"\s*(?:(?P<int>\d+)|(?P<name>{NAME})|(?P<op>[()+\-*^])|(?P<stray>\S))")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "stray":
            raise ParseError(f"unexpected character {m['stray']!r} in {text!r}")
        tokens.append((m.lastgroup, m[m.lastgroup]))
    return tokens


# the most digits an integer literal other than a coefficient may have:
# inside the 4,300 digits that int() and str() convert by default, so that
# its product with an exponent below 2^32 still prints
MAX_DIGITS = 4000


def read_int(token: str) -> int:
    """int(token) for a decimal literal, optionally signed, of at most
    MAX_DIGITS digits."""
    digits = len(token.lstrip("-"))
    if digits > MAX_DIGITS:
        raise ParseError(f"an integer may have at most {MAX_DIGITS} digits, got {digits}")
    return int(token)


def _residue(digits: str, p: int) -> int:
    """A run of decimal digits mod p, by Horner's rule on chunks that
    int() reads."""
    r = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        r = (r * pow(10, len(chunk), p) + int(chunk)) % p
    return r


def _refuse_past_limit(bound: int):
    if bound > POOL_LIMIT:
        raise ParseError(
            f"a product could have {bound} terms, more than the {POOL_LIMIT}"
            " a parsed polynomial may hold"
        )


def _degrees(f: Polynomial):
    return map(max, zip(*(m for m, _ in f.terms)))


def _product(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b, refused before multiplying if it could have more than
    POOL_LIMIT terms: it has at most |a|·|b|, and at most one per monomial
    whose exponent of each x_i is at most deg_i a + deg_i b."""
    bound = len(a.terms) * len(b.terms)
    if bound > POOL_LIMIT:
        degrees = zip(_degrees(a), _degrees(b))
        _refuse_past_limit(min(bound, math.prod(d + e + 1 for d, e in degrees)))
    return a * b


def _power_terms(f: Polynomial, n: int, p: int) -> int:
    """A bound on the terms of f^n: at most one per monomial whose exponent
    of each x_i is at most n·deg_i f, and, since f^n is the product over
    the base-p digits d_j of n of (f^d_j)^[p^j] and a Frobenius power keeps
    the term count, at most the product of the C(|f| + d_j - 1, d_j)."""
    by_degree = math.prod(n * d + 1 for d in _degrees(f))
    k, bound = len(f.terms), 1
    while n and k > 1:
        n, d = divmod(n, p)
        lo, hi = sorted((d, k - 1))
        for i in range(1, lo + 1):  # bound * C(hi + i, i) only grows with i
            bound = bound * (hi + i) // i
            if bound >= by_degree:
                return by_degree
    return bound


def _small_power(f: Polynomial, d: int) -> Polynomial:
    """f^d by square-and-multiply, for a base-p digit d."""
    result, acc = f.ring.one(), f
    while d:
        if d & 1:
            result = _product(result, acc)
        d >>= 1
        if d:
            acc = _product(acc, acc)
    return result


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.i = 0
        self.ring = ring
        self.index = {name: i for i, name in enumerate(ring.names)}

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return tok

    def expr(self) -> Polynomial:
        sign = 1
        tok = self.peek()
        if tok == ("op", "-"):
            self.take()
            sign = -1
        elif tok == ("op", "+"):
            self.take()
        result = self.term().scale(sign)
        while True:
            tok = self.peek()
            if tok == ("op", "+"):
                self.take()
                result = result + self.term()
            elif tok == ("op", "-"):
                self.take()
                result = result - self.term()
            else:
                return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            result = _product(result, self.factor())
        return result

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            tok = self.peek()
            if tok is None or tok[0] != "int" or not tok[1].strip("0"):
                raise ParseError("'^' needs a positive integer exponent")
            self.take()
            n = read_int(tok[1])
            # f^n holds x_i^(n*e_i) (F_p[x] is a domain): fail before multiplying
            e = max(_degrees(base), default=0)
            if e and n * e >= EXP_LIMIT:
                raise ExponentOverflowError(f"exponent {n * e} exceeds 2^32")
            p = self.ring.field.p
            _refuse_past_limit(_power_terms(base, n, p))
            # f^n is the product of (f^d_j)^[p^j] over the base-p digits d_j of n
            result, j = self.ring.one(), 0
            while n:
                n, d = divmod(n, p)
                if d:
                    result = _product(result, _small_power(base, d).frobenius_power(j))
                j += 1
            return result
        return base

    def atom(self) -> Polynomial:
        kind, value = self.take()
        if kind == "int":
            return self.ring.constant(_residue(value, self.ring.field.p))
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r}")
            return self.ring.variable(self.index[value])
        if (kind, value) == ("op", "("):
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return inner
        raise ParseError(f"unexpected token {value!r}")


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial expression")
    parser = _Parser(tokens, ring)
    result = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing tokens after expression in {text!r}")
    return result
