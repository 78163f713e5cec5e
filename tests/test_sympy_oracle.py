"""Reduced Groebner bases checked against sympy, which shares no code with
ffrob: random ideals over F_p for p in {2, 3, 5, 7}, up to four variables,
under lex and grevlex.  sympy has no block order, so block(k) is checked
through elimination: the elements of sympy's lex basis free of the first
k variables generate the same ideal as `elimination_ideal(gens, k)`, and
`poly_ideal_intersect` on lex, grevlex and block(1) rings is checked
against the t-free part of sympy's lex basis of t·A + (1-t)·B."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrob import (
    MonomialOrder,
    PolyRing,
    PrimeField,
    buchberger,
    elimination_ideal,
    poly_ideal_intersect,
)

from oracles import order_key

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z", "w")
ORDERS = {"lex": MonomialOrder.lex(), "grevlex": MonomialOrder.grevlex()}


@st.composite
def ideals(draw, primes=(2, 3, 5, 7), min_vars=1):
    p = draw(st.sampled_from(primes))
    nvars = draw(st.integers(min_vars, 4))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), st.integers(1, p - 1))
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=3))
    return p, nvars, [dict(g) for g in gens]


def sympy_reduced_basis(gens, p, nvars, order_name):
    """sympy's reduced basis as a set of monic term tuples with
    coefficients in [0, p)."""
    symbols = sympy.symbols(NAMES[:nvars])
    exprs = [
        sum(c * sympy.Mul(*(s**e for s, e in zip(symbols, m))) for m, c in g.items())
        for g in gens
    ]
    return monic_term_sets(sympy.groebner(exprs, *symbols, modulus=p, order=order_name), p, order_name)


def monic_term_sets(basis, p, order_name, pad=0):
    """A sympy basis as a set of monic term tuples with coefficients in
    [0, p); pad zero exponents go in front of each monomial."""
    out = set()
    for poly in basis.polys:
        terms = {(0,) * pad + m: int(c) % p for m, c in poly.terms() if int(c) % p}
        if not terms:
            continue
        lead = max(terms, key=lambda m: order_key(ORDERS[order_name], m))
        inv = pow(terms[lead], p - 2, p)
        out.add(frozenset((m, c * inv % p) for m, c in terms.items()))
    return out


@pytest.mark.parametrize("order_name", sorted(ORDERS))
# derandomized: a random draw can hit a lex basis that neither ffrob nor
# sympy finishes in minutes, which made the suite's run time a lottery
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=ideals())
def test_buchberger_matches_sympy(order_name, case):
    p, nvars, gens = case
    ring = PolyRing(PrimeField(p), NAMES[:nvars], ORDERS[order_name])
    ours = buchberger([ring.poly(g) for g in gens])
    want = sympy_reduced_basis(gens, p, nvars, order_name)
    assert len(ours) == len(want)
    assert {frozenset(g.terms) for g in ours} == want


@pytest.mark.parametrize("k", [1, 2])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_elimination_matches_sympy_lex_basis(k, data):
    p, nvars, gens = data.draw(ideals(primes=(2, 3, 5), min_vars=k + 1))
    symbols = sympy.symbols(NAMES[:nvars])
    exprs = [
        sum(c * sympy.Mul(*(s**e for s, e in zip(symbols, m))) for m, c in g.items())
        for g in gens
    ]
    lex = sympy.groebner(exprs, *symbols, modulus=p, order="lex")
    # a lex basis, cut to the elements free of x_1..x_k, is a lex basis of
    # the elimination ideal; both sides are compared as reduced grevlex bases
    free = [g.as_expr() for g in lex.polys if not any(any(m[:k]) for m in g.monoms())]
    want = set()
    if free:
        rest = sympy.groebner(free, *symbols[k:], modulus=p, order="grevlex")
        want = monic_term_sets(rest, p, "grevlex", pad=k)
    ring = PolyRing(PrimeField(p), NAMES[:nvars], ORDERS["grevlex"])
    ours = buchberger(elimination_ideal([ring.poly(g) for g in gens], k))
    assert len(ours) == len(want)
    assert {frozenset(g.terms) for g in ours} == want


INTERSECT_ORDERS = {**ORDERS, "block(1)": MonomialOrder.block(1)}


@pytest.mark.parametrize("order_name", sorted(INTERSECT_ORDERS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_intersection_matches_sympy_elimination(order_name, data):
    # sympy's lex basis of t·A + (1-t)·B in t > x > ..., cut to its t-free
    # part, generates A ∩ B; both sides are compared as reduced grevlex
    # bases, since sympy has no block order
    p = data.draw(st.sampled_from((2, 3, 5)))
    nvars = data.draw(st.integers(2, 3))  # the three orders agree on one variable
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), st.integers(1, p - 1))
    side = st.lists(st.lists(term, min_size=1, max_size=2).map(dict), min_size=1, max_size=2)
    gens_a, gens_b = data.draw(side), data.draw(side)
    t, *symbols = sympy.symbols(("t",) + NAMES[:nvars])

    def expr(g):
        return sum(c * sympy.Mul(*(s**e for s, e in zip(symbols, m))) for m, c in g.items())

    mixed = [t * expr(g) for g in gens_a] + [(1 - t) * expr(g) for g in gens_b]
    lex = sympy.groebner(mixed, t, *symbols, modulus=p, order="lex")
    free = [g.as_expr() for g in lex.polys if not any(m[0] for m in g.monoms())]
    want = set()
    if free:
        rest = sympy.groebner(free, *symbols, modulus=p, order="grevlex")
        want = monic_term_sets(rest, p, "grevlex")
    ring = PolyRing(PrimeField(p), NAMES[:nvars], INTERSECT_ORDERS[order_name])
    meet = poly_ideal_intersect(ring, list(map(ring.poly, gens_a)), list(map(ring.poly, gens_b)))
    for g in meet:  # canonical: terms strictly descending in the ring's order
        keys = [order_key(ring.order, m) for m, _ in g.terms]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert all(0 < c < p for _, c in g.terms)
    grevlex = PolyRing(ring.field, ring.names, ORDERS["grevlex"])
    ours = buchberger([g.convert(grevlex) for g in meet])
    assert {frozenset(g.terms) for g in ours} == want
