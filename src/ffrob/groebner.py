"""Multivariate division, Buchberger's algorithm, and elimination ideals.

The reduced Groebner basis under a fixed order is the unique canonical
form of an ideal; every ideal-level equality test in the package bottoms
out here.  Nothing here caches a basis: `buchberger` runs on every
call, and `ffrob.ideals.Ideal` keeps the one basis cache.  Pairs are
installed as Gebauer & Möller (1988) describe: as an element joins, the
B criterion drops pending pairs and the M and F criteria drop new ones,
so a pair ruled out is never queued, and neither is one of coprime leads
or of two monomials.  Pair selection is the normal strategy (minimal lcm
degree, ties by creation order), so the computation is fully deterministic.

Inside the kernel a monomial is one Python int and a term is two, the
monomial and its coefficient: the packing of `ffrob.poly`, which defines
the order.

One division loop, `_divide`, serves Buchberger's S-polynomial and
generator reductions, the tail reduction of a basis, the public
`normal_form`, and `_divexact`, which runs it over one divisor, has it
record each reduction step's cofactor, the quotient, and refuses a
nonzero remainder without unpacking it; `poly_divexact` is its
polynomial entry point.  Every divisor is made monic by
one helper, `_head`.  The loop keeps its working terms in a heap of
negated packed monomials, largest first (Johnson 1974; Monagan & Pearce
2011).  A term that cancels keeps its heap entry, with coefficient 0,
and is skipped when popped; every term a reduction step adds is smaller
than the one being reduced, so a monomial never comes back once popped.
Buchberger reduces each S-polynomial and input generator only until its
leading term is irreducible, where `_divide` can stop.  The pair criteria
read leads with their keys stripped (`_Packing.mask`), a few int
operations per lcm, degree or divisibility test.  S-pairs wait in a
separate heap of (lcm degree, j, i, lcm), in the order of the normal
strategy above, and an lcm is re-keyed only when its pair is popped.
Polynomials are packed on the way in (`normal_form`, `poly_divexact`,
`s_polynomial`, `buchberger`), which raise RingMismatchError unless
their inputs share one ring, and unpacked on the way out, in canonical
order, so no result is re-sorted.  `_buchberger_core` sees packed terms
only: it takes work dicts, the field and a packing, and returns the
minimal basis as heads; callers tail-reduce (`_reduce_basis`) only what
they keep.  `buchberger` is its one polynomial entry point.

`_eliminated` is the one elimination: each builder packs its work dicts
under block(k) on k + n variables, and it tail-reduces only the basis
elements free of the first k, returned as packed terms that each caller
projects.  `_intersect` is the one intersection (hence colon); only the
public `poly_ideal_intersect` and `elimination_ideal`, which take rings
of any order, sort what they keep into the caller's ring.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter

from .poly import _FIELD, _FIELD_MASK, MonomialOrder, Polynomial, PolyRing, _Packing, _check_rings, _packing


def _head(terms, field) -> tuple:
    """The divisor of `_divide` for packed terms in descending order:
    (leading monomial, tail / leading coefficient)."""
    lm, lc = terms[0]
    # every Buchberger basis element is monic: most divisors need no inverse
    inv = 1 if lc == 1 else field.inv(lc)
    p = field.p
    return lm, [(m, c * inv % p) for m, c in terms[1:]]


def _divide(work, heads, p: int, pk: _Packing, quot=None, top=False) -> list:
    """Remainder of the polynomial `work` on division by `heads`.

    work maps packed monomials to coefficients, zeros allowed, and is
    consumed.  Each head is (leading monomial, monic tail), as built by
    `_head`; the first head whose lead divides a term reduces it.
    Returns the remainder's packed terms in descending order.  Given a
    list quot, each reduction step appends (cofactor, coefficient) to it:
    with one head, quot is then the quotient, in descending order.
    With top, the division stops at the first term no head reduces and
    returns that term followed by the other nonzero working terms, in
    no particular order."""
    guard = pk.guard
    # every monomial of work has one heap entry; a cancelled term stays in
    # work with coefficient 0 until it is popped
    heap = [-m for m in work]
    heapify(heap)
    out = []
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        for head in heads:
            d = m - head[0]
            if not d & guard:  # lm divides m, and d is the cofactor
                if quot is not None:
                    quot.append((d, c))
                for gm, gc in head[1]:
                    t = gm + d
                    v = work.get(t)
                    if v is None:
                        if t & guard:
                            pk.overflow(t)
                        heappush(heap, -t)
                        v = 0
                    work[t] = (v - c * gc) % p
                break
        else:
            if top:
                return [(m, c)] + [t for t in work.items() if t[1]]
            out.append((m, c))
    return out


def _spair(lcm: int, a, b, p: int, pk: _Packing) -> dict:
    """S-polynomial of the heads a and b, whose leads divide lcm, as the
    work of `_divide`: the leads cancel and are left out."""
    guard = pk.guard
    ua, ub = lcm - a[0], lcm - b[0]
    work = {}
    for m, c in a[1]:
        t = m + ua
        if t & guard:
            pk.overflow(t)
        work[t] = c
    for m, c in b[1]:
        t = m + ub
        v = work.get(t)
        if v is None:
            if t & guard:
                pk.overflow(t)
            v = 0
        work[t] = (v - c) % p
    return work


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduced remainder of f on division by the basis.

    No term of the result is divisible by any basis leading monomial;
    for a reduced Groebner basis the result is the unique normal form.
    """
    ring = f.ring
    _check_rings(ring, basis)
    basis = [g for g in basis if not g.is_zero]
    if f.is_zero or not basis:
        return f
    pk = ring.packing
    heads = [_head(pk.terms(g.terms), ring.field) for g in basis]
    return pk.polynomial(ring, _divide(dict(pk.terms(f.terms)), heads, ring.field.p, pk))


def poly_divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    """The quotient f / g; raises ValueError unless g divides f.  The
    remainder of a division by g is `normal_form(f, [g])`."""
    ring = f.ring
    _check_rings(ring, (g,))
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    pk = ring.packing
    quot = _divexact(pk.terms(f.terms), pk.terms(g.terms), ring.field, pk)
    if quot is None:
        raise ValueError(f"{f} is not an exact multiple of {g}")
    return pk.polynomial(ring, quot)


def _divexact(f, g, field, pk: _Packing):
    """The quotient f / g of packed terms in descending order, in the same
    form, or None unless g divides f; the remainder is never unpacked."""
    quot = []
    if _divide(dict(f), [_head(g, field)], field.p, pk, quot):
        return None
    lc = g[0][1]
    if lc != 1:  # quot is the quotient by the monic head: scale it by 1/lc(g)
        inv, p = field.inv(lc), field.p
        quot = [(d, c * inv % p) for d, c in quot]
    return quot


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    _check_rings(ring, (g,))
    pk = ring.packing
    lcm = pk.pack(map(max, f.leading_monomial, g.leading_monomial))
    a, b = (_head(pk.terms(h.terms), ring.field) for h in (f, g))
    work = _spair(lcm, a, b, ring.field.p, pk)
    return pk.polynomial(ring, sorted([t for t in work.items() if t[1]], reverse=True))


def buchberger(gens):
    """Reduced Groebner basis of the ideal generated by gens, under the
    order of their ring.  Output is monic, inter-reduced, and sorted by
    descending leading monomial — the canonical form used for ideal
    equality.  Every call runs the algorithm and returns a fresh list.
    """
    if gens:
        _check_rings(gens[0].ring, gens)
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring = gens[0].ring
    pk = ring.packing
    basis = _buchberger_core([dict(pk.terms(g.terms)) for g in gens], ring.field, pk)
    return [pk.polynomial(ring, [(lm, 1)] + tail) for lm, tail in _reduce_basis(basis, ring.field.p, pk)]


def _buchberger_core(works, field, pk: _Packing) -> list:
    """Minimal Groebner basis of `works`, dicts of terms packed by pk that
    are consumed in the order given, as heads (lm, tail), tails unreduced."""
    p = field.p
    guard, mask, ws, wtop, narrow = pk.guard, pk.mask, pk.wsum, pk.wtop, pk.narrow
    G = []  # every element as a head of `_divide`: monic, packed, tail unreduced
    leads = []  # leads[k] is G[k]'s lead with its key stripped, as the criteria read it
    basis = []  # the pair-forming set, as indices into G
    # normal strategy: smallest lcm degree first, ties by creation order,
    # which is (j, i) order: pairs (i, j) are made as G[j] joins
    pairs = []  # (lcm degree, j, i, lcm), the lcm of two leads of `leads`

    def lcm(a, b):  # a SWAR max: d is a - b in the fields where a >= b, which g marks
        d = (a | guard) - b
        g = d & guard
        return b + (d & (g - (g >> 32)))

    def adjoin(rem):
        head = _head(rem, field)
        lm = head[0] & mask
        j = len(G)
        G.append(head)
        leads.append(lm)
        if basis:
            cands = []  # (lcm degree, i, lcm) for each i of the pair-forming set
            divided = False  # does lm divide a lead of the pair-forming set?
            for i in basis:
                t = lcm(lm, leads[i])
                cands.append((t * ws >> wtop & _FIELD_MASK, i, t))
                if t == leads[i]:
                    divided = True
            if pairs:
                # B criterion: a pending pair (a, b) whose lcm lm divides is
                # chained through j, unless its lcm is lcm(a, j) or lcm(b, j)
                live = [
                    q
                    for q in pairs
                    if (q[3] - lm) & guard
                    or lcm(lm, leads[q[2]]) == q[3]
                    or lcm(lm, leads[q[1]]) == q[3]
                ]
                if len(live) < len(pairs):
                    pairs[:] = live
                    heapify(pairs)
            # M and F criteria: in ascending (degree, i), a candidate goes when a
            # kept one's lcm divides its lcm; coprime leads (lcm = product) and
            # two monomials are kept but need no S-polynomial
            kept = []
            for d, i, t in sorted(cands):
                for other in kept:
                    if not (t - other) & guard:
                        break
                else:
                    kept.append(t)
                    if t != lm + leads[i] and (head[1] or G[i][1]):
                        heappush(pairs, (d, j, i, t))
            # elements whose lead lm divides leave the pair-forming set;
            # they stay in G as reducers
            if divided:
                basis[:] = [i for i in basis if (leads[i] - lm) & guard]
        basis.append(j)

    for work in works:
        rem = _divide(work, G, p, pk, top=True)
        if rem:
            adjoin(rem)
    while pairs:
        _, j, i, t = heappop(pairs)
        rem = _divide(_spair(narrow(t), G[i], G[j], p, pk), G, p, pk, top=True)
        if rem:
            adjoin(rem)
    return [G[i] for i in basis]


def _reduce_basis(G, p: int, pk: _Packing) -> list:
    """Tail-reduce the heads of a minimal Groebner basis into the reduced
    basis, as heads in descending order of their leads."""
    # each tail is reduced against the elements of smaller lead, in
    # ascending order: a larger lead cannot divide a term below lm, and no
    # other lead divides lm, so the order changes no result
    kept = sorted(G, key=itemgetter(0))
    for i, (lm, tail) in enumerate(kept):
        kept[i] = (lm, _divide(dict(tail), kept[:i], p, pk))
    kept.sort(key=itemgetter(0), reverse=True)
    return kept


def _eliminated(works, field, lift: _Packing) -> list:
    """The reduced basis elements of `works`, packed by lift under block(k),
    that are free of the first k variables, as packed terms."""
    # block(k) ranks any monomial with the first k variables above all free of them: an
    # element, and every smaller lead, is free of them when its lead's k lowest fields are 0
    block = (1 << _FIELD * lift.order.nblock) - 1
    kept = [h for h in _buchberger_core(works, field, lift) if not h[0] & block]
    return [[(lm, 1)] + tail for lm, tail in _reduce_basis(kept, field.p, lift)]


def _intersect(lift: _Packing, a, b, field) -> list:
    """A ∩ B for A and B given as generators of packed terms free of t, the
    first variable of lift: the elements of `_eliminated` for t·A + (1-t)·B."""
    t, p = lift.units[0], field.p
    works = [{m + t: c for m, c in f} for f in a]
    works += [dict(s for m, c in g for s in ((m + t, -c % p), (m, c))) for g in b]
    return _eliminated(works, field, lift)


def poly_ideal_intersect(ring: PolyRing, gens_a, gens_b):
    """Intersection of two polynomial ideals of `ring`: eliminates t from
    t·A + (1-t)·B, with t the one variable put in front."""
    lift = _packing(MonomialOrder.block(1), 1 + ring.nvars)
    a, b = ([lift.terms(((0,) + m, c) for m, c in f.terms) for f in gens] for gens in (gens_a, gens_b))
    meet = _intersect(lift, a, b, ring.field)
    return [ring.packing.sort(ring, [(lift.unpack(m)[1:], c) for m, c in g]) for g in meet]


def elimination_ideal(gens, k: int):
    """Generators of (ideal ∩ F_p[x_{k+1}..x_n]) as polynomials of the
    input ring: the block(k) reduced basis elements free of the first k
    variables, converted back to the input order."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring = gens[0].ring
    lift = _packing(MonomialOrder.block(k), k + ring.nvars)
    # the eliminated block stands in for the first k variables, which stay at 0
    pad = (0,) * k
    works = [dict(lift.terms((m[:k] + pad + m[k:], c) for m, c in g.terms)) for g in gens]
    kept = _eliminated(works, ring.field, lift)
    return [ring.packing.sort(ring, [(lift.unpack(m)[k:], c) for m, c in g]) for g in kept]
