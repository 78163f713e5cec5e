"""Multivariate division, Buchberger's algorithm, and elimination ideals.

The reduced Groebner basis under a fixed order is the unique canonical
form of an ideal; every ideal-level equality test in the package bottoms
out here.  Pair selection is the normal strategy (minimal lcm degree,
ties by pair creation index) so the computation is fully deterministic.

Division keeps its working terms in a heap ordered by the monomial
order's key (Johnson 1974; Monagan & Pearce 2011), so each term's key is
computed once per division, when the term enters the working set.  A
term that cancels keeps its heap entry, with coefficient 0, and is
skipped when popped; every term a reduction step adds is smaller than
the one being reduced, so a monomial never comes back once popped.  S-pairs wait in a
heap of (lcm degree, creation index), the same order as the normal
strategy above.  Per-exponent monomial operations (divisibility, lcm,
coprimality, shifts) are `map` over `operator` functions, so their loops
over the exponents run in C.

Every elimination (intersections, hence colons, and Frobenius kernel
preimages) runs through `_eliminate`, whose fresh variables are named by
a run of underscores that no name of the caller's ring starts with.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heapify, heappop, heappush
from operator import add, le, mul, sub

from .poly import MonomialOrder, Polynomial, PolyRing

# Reduced bases of the most recent distinct inputs, least recently used
# first.  The probe's repeats are local (two checks on one (I, x, e)
# build the same auxiliary-variable ideals back to back), so a few
# entries catch nearly all of them; an unbounded memo also holds every
# large basis a long run ever computed.  One memo per process, with no
# lock: nothing in the package runs concurrently.
_MEMO_CAPACITY = 8
_memo = OrderedDict()


def _lc_inverse(g: Polynomial) -> int:
    # every Buchberger basis element is monic: most divisors need no inverse
    lc = g.leading_coeff
    return 1 if lc == 1 else g.ring.field.inv(lc)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduced remainder of f on division by the basis.

    No term of the result is divisible by any basis leading monomial;
    for a reduced Groebner basis the result is the unique normal form.
    """
    basis = [g for g in basis if not g.is_zero]
    if f.is_zero or not basis:
        return f
    ring = f.ring
    key = ring.order.key
    p = ring.field.p
    heads = [(g.leading_monomial, _lc_inverse(g), g.terms[1:]) for g in basis]
    # every monomial of work has one heap entry; a cancelled term stays in
    # work with coefficient 0 until it is popped
    work = dict(f.terms)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    out = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        for lm, lcinv, tail in heads:
            if all(map(le, lm, m)):  # lm divides m
                fc = c * lcinv % p
                shift = tuple(map(sub, m, lm))
                for gm, gc in tail:
                    t = tuple(map(add, gm, shift))
                    v = work.get(t)
                    if v is None:
                        heappush(heap, (key(t), t))
                        v = 0
                    work[t] = (v - fc * gc) % p
                break
        else:
            out[m] = c
    # terms left the heap largest first, so out is already in canonical order
    return Polynomial(ring, tuple(out.items()))


def poly_divmod(f: Polynomial, g: Polynomial):
    """Single-divisor division: returns (q, r) with f = q*g + r and no
    term of r divisible by the leading monomial of g."""
    ring = f.ring
    p = ring.field.p
    key = ring.order.key
    lm, lcinv = g.leading_monomial, _lc_inverse(g)
    tail = g.terms[1:]
    work = dict(f.terms)  # as in normal_form: one heap entry per monomial
    heap = [(key(m), m) for m in work]
    heapify(heap)
    quot = []
    rem = []
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        if all(map(le, lm, m)):  # lm divides m
            fc = c * lcinv % p
            shift = tuple(map(sub, m, lm))
            quot.append((shift, fc))
            for gm, gc in tail:
                t = tuple(map(add, gm, shift))
                v = work.get(t)
                if v is None:
                    heappush(heap, (key(t), t))
                    v = 0
                work[t] = (v - fc * gc) % p
        else:
            rem.append((m, c))
    # m runs strictly downwards, and so does m / lm(g): both lists are canonical
    return Polynomial(ring, tuple(quot)), Polynomial(ring, tuple(rem))


def poly_divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    q, r = poly_divmod(f, g)
    if not r.is_zero:
        raise ValueError(f"{f} is not an exact multiple of {g}")
    return q


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lcm = tuple(map(max, f.leading_monomial, g.leading_monomial))
    uf = tuple(map(sub, lcm, f.leading_monomial))
    ug = tuple(map(sub, lcm, g.leading_monomial))
    return f.mul_term(_lc_inverse(f), uf) - g.mul_term(_lc_inverse(g), ug)


def buchberger(gens, order: MonomialOrder | None = None):
    """Reduced Groebner basis of the ideal generated by gens.

    If order is given, generators are first converted to a ring with that
    order.  Output is monic, inter-reduced, and sorted by descending
    leading monomial — the canonical form used for ideal equality.

    The basis of a recent input with the same ring and the same set of
    generators is served from a small memo; the reduced basis is unique,
    so the answer does not depend on whether it was cached.  Every call
    returns a fresh list.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring = gens[0].ring
    if order is not None and order != ring.order:
        ring = ring.with_order(order)
        gens = [g.convert(ring) for g in gens]
    key = (ring, frozenset(g.terms for g in gens))
    basis = _memo.get(key)
    if basis is None:
        basis = _buchberger_core(gens)
        _memo[key] = basis
        if len(_memo) > _MEMO_CAPACITY:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(key)
    return list(basis)


def _buchberger_core(gens):
    """Reduced Groebner basis of nonzero generators of one ring, in the
    order given; no memo."""
    G = []
    for g in gens:
        h = normal_form(g, G)
        if not h.is_zero:
            G.append(h.monic())
    lms = [g.leading_monomial for g in G]  # lms[k] is G[k]'s, as G grows
    # normal strategy: smallest lcm degree first, ties by creation order
    pairs = []
    serial = 0
    treated = set()

    def add_pairs(j):
        nonlocal serial
        lmj = lms[j]
        for i in range(j):
            heappush(pairs, (sum(map(max, lms[i], lmj)), serial, i, j))
            serial += 1

    for j in range(len(G)):
        add_pairs(j)

    while pairs:
        _, _, i, j = heappop(pairs)
        treated.add((i, j))
        lmi, lmj = lms[i], lms[j]
        if not any(map(mul, lmi, lmj)):  # coprime leading monomials
            continue
        lcm = tuple(map(max, lmi, lmj))
        # chain criterion: some k divides the lcm and both chained pairs are done
        for k, lmk in enumerate(lms):
            if k != i and k != j and all(map(le, lmk, lcm)):
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a in treated and b in treated:
                    break
        else:
            h = normal_form(s_polynomial(G[i], G[j]), G)
            if not h.is_zero:
                G.append(h.monic())
                lms.append(G[-1].leading_monomial)
                add_pairs(len(G) - 1)
    return _reduce_basis(G)


def _reduce_basis(G):
    """Minimize and tail-reduce a Groebner basis into the reduced basis."""
    if not G:
        return []
    key = G[0].ring.order.key
    # drop generators whose leading monomial is divisible by another's: in
    # ascending order a divisor, never bigger, is met first, so one pass
    # against the kept ones suffices (of equal ones the first is kept)
    reduced = []
    for g in sorted(G, key=lambda g: key(g.leading_monomial), reverse=True):
        lm = g.leading_monomial
        if not any(all(map(le, h.leading_monomial, lm)) for h in reduced):
            reduced.append(g)
    # tail-reduce each against the rest
    for i in range(len(reduced)):
        reduced[i] = normal_form(reduced[i], reduced[:i] + reduced[i + 1 :]).monic()
    reduced.sort(key=lambda g: key(g.leading_monomial))
    return reduced


def _eliminate(ring: PolyRing, k: int, build):
    """Generators of (ideal ∩ ring) for the ideal that build(aux) generates.

    aux is `ring` with k fresh variables adjoined in front, ordered
    block(k).  Each fresh name is a run of underscores that no name of
    `ring` starts with, then its index, so none can collide with a name
    of `ring`.  The reduced basis elements free of the fresh block are
    projected back into `ring`."""
    run = "_" * (1 + max((len(s) - len(s.lstrip("_")) for s in ring.names), default=0))
    fresh = tuple(f"{run}{i}" for i in range(k))
    aux = PolyRing(ring.field, fresh + ring.names, MonomialOrder.block(k))
    # block(k) ranks any monomial involving the fresh block above every one
    # free of it, so an element is free of it exactly when its lead is
    return [
        ring.poly({m[k:]: c for m, c in g.terms})
        for g in buchberger(build(aux))
        if not any(g.leading_monomial[:k])
    ]


def poly_ideal_intersect(ring: PolyRing, gens_a, gens_b):
    """Intersection of two polynomial ideals of `ring`: eliminates t from
    t·A + (1-t)·B, with t the one fresh variable."""

    def build(aux):
        def lift(f):
            return aux.poly({(0,) + m: c for m, c in f.terms})

        t = aux.variable(0)
        u = aux.one() - t
        mixed = [t * lift(f) for f in gens_a if not f.is_zero]
        return mixed + [u * lift(g) for g in gens_b if not g.is_zero]

    return _eliminate(ring, 1, build)


def elimination_ideal(gens, k: int):
    """Generators of (ideal ∩ F_p[x_{k+1}..x_n]) as polynomials of the
    input ring: the block(k) reduced basis elements free of the first k
    variables, converted back to the input order."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    pad = (0,) * k

    def build(aux):
        # the fresh block stands in for the first k variables, which stay at 0
        return [aux.poly({m[:k] + pad + m[k:]: c for m, c in g.terms}) for g in gens]

    return _eliminate(gens[0].ring, k, build)
