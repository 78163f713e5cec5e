"""Multivariate division, Buchberger's algorithm, and elimination ideals.

The reduced Groebner basis under a fixed order is the unique canonical
form of an ideal; every ideal-level equality test in the package bottoms
out here.  Pair selection is the normal strategy (minimal lcm degree,
ties by pair creation index) so the computation is fully deterministic.
"""

from __future__ import annotations

from collections import OrderedDict

from .poly import MonomialOrder, Polynomial, PolyRing

# Reduced bases of the most recent distinct inputs, least recently used
# first.  The probe's repeats are local (two checks on one (I, x, e)
# build the same auxiliary-variable ideals back to back), so a few
# entries catch nearly all of them; an unbounded memo also holds every
# large basis a long run ever computed.  One memo per process, with no
# lock: nothing in the package runs concurrently.
_MEMO_CAPACITY = 8
_memo = OrderedDict()


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduced remainder of f on division by the basis.

    No term of the result is divisible by any basis leading monomial;
    for a reduced Groebner basis the result is the unique normal form.
    """
    basis = [g for g in basis if not g.is_zero]
    if f.is_zero or not basis:
        return f
    ring = f.ring
    field = ring.field
    key = ring.order.key
    p = field.p
    heads = [(g.leading_monomial, field.inv(g.leading_coeff), g.terms) for g in basis]
    work = dict(f.terms)
    out = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        for lm, lcinv, gterms in heads:
            if _divides(lm, m):
                fc = c * lcinv % p
                shift = tuple(x - y for x, y in zip(m, lm))
                for gm, gc in gterms:
                    t = tuple(x + y for x, y in zip(gm, shift))
                    v = (work.get(t, 0) - fc * gc) % p
                    if v:
                        work[t] = v
                    else:
                        work.pop(t, None)
                break
        else:
            out[m] = c
            del work[m]
    return ring.poly(out)


def poly_divmod(f: Polynomial, g: Polynomial):
    """Single-divisor division: returns (q, r) with f = q*g + r and no
    term of r divisible by the leading monomial of g."""
    ring = f.ring
    field = ring.field
    p = field.p
    key = ring.order.key
    lm, lcinv = g.leading_monomial, field.inv(g.leading_coeff)
    work = dict(f.terms)
    quot = {}
    rem = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if _divides(lm, m):
            fc = c * lcinv % p
            shift = tuple(x - y for x, y in zip(m, lm))
            quot[shift] = (quot.get(shift, 0) + fc) % p
            for gm, gc in g.terms[1:]:
                t = tuple(x + y for x, y in zip(gm, shift))
                v = (work.get(t, 0) - fc * gc) % p
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
        else:
            rem[m] = c
    return ring.poly(quot), ring.poly(rem)


def poly_divexact(f: Polynomial, g: Polynomial) -> Polynomial:
    q, r = poly_divmod(f, g)
    if not r.is_zero:
        raise ValueError(f"{f} is not an exact multiple of {g}")
    return q


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    field = f.ring.field
    lmf, lmg = f.leading_monomial, g.leading_monomial
    lcm = _lcm(lmf, lmg)
    uf = tuple(a - b for a, b in zip(lcm, lmf))
    ug = tuple(a - b for a, b in zip(lcm, lmg))
    return f.mul_term(field.inv(f.leading_coeff), uf) - g.mul_term(
        field.inv(g.leading_coeff), ug
    )


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
    pairs = {}
    serial = 0
    treated = set()

    def add_pairs(j):
        nonlocal serial
        for i in range(j):
            lcm = _lcm(G[i].leading_monomial, G[j].leading_monomial)
            pairs[(i, j)] = (sum(lcm), serial)
            serial += 1

    for j in range(len(G)):
        add_pairs(j)

    while pairs:
        (i, j) = min(pairs, key=lambda ij: pairs[ij])
        del pairs[(i, j)]
        treated.add((i, j))
        lmi, lmj = G[i].leading_monomial, G[j].leading_monomial
        if _coprime(lmi, lmj):
            continue
        lcm = _lcm(lmi, lmj)
        # chain criterion: some k divides the lcm and both chained pairs are done
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(G[k].leading_monomial, lcm):
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a in treated and b in treated:
                    skip = True
                    break
        if skip:
            continue
        h = normal_form(s_polynomial(G[i], G[j]), G)
        if not h.is_zero:
            G.append(h.monic())
            add_pairs(len(G) - 1)
    return _reduce_basis(G)


def _reduce_basis(G):
    """Minimize and tail-reduce a Groebner basis into the reduced basis."""
    if not G:
        return []
    ring = G[0].ring
    key = ring.order.key
    # drop generators whose leading monomial is divisible by another's
    G = sorted(G, key=lambda g: key(g.leading_monomial))
    minimal = []
    for idx, g in enumerate(G):
        lm = g.leading_monomial
        redundant = any(
            _divides(h.leading_monomial, lm) and h.leading_monomial != lm
            for h in G
            if h is not g
        ) or any(h.leading_monomial == lm for h in G[:idx] if h is not g)
        if not redundant:
            minimal.append(g)
    # tail-reduce each against the rest
    reduced = list(minimal)
    for i in range(len(reduced)):
        others = reduced[:i] + reduced[i + 1 :]
        reduced[i] = normal_form(reduced[i], others).monic()
    reduced.sort(key=lambda g: key(g.leading_monomial), reverse=True)
    return reduced


def is_groebner_basis(G) -> bool:
    """Self-check: every pairwise S-polynomial reduces to zero."""
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not normal_form(s_polynomial(G[i], G[j]), G).is_zero:
                return False
    return True


def poly_ideal_intersect(ring: PolyRing, gens_a, gens_b):
    """Intersection of two polynomial ideals of `ring`.

    Adjoins an auxiliary variable t in front (block(1) order, so user
    variable indices are untouched), computes t·A + (1-t)·B, and
    eliminates t."""
    aux = "_t"
    while aux in ring.names:
        aux = "_" + aux
    ring2 = PolyRing(ring.field, (aux,) + ring.names, MonomialOrder.block(1))

    def lift(f):
        return ring2.poly({(0,) + m: c for m, c in f.terms})

    t = ring2.variable(0)
    u = ring2.one() - t
    mixed = [t * lift(f) for f in gens_a if not f.is_zero]
    mixed += [u * lift(g) for g in gens_b if not g.is_zero]
    gb = buchberger(mixed)
    out = []
    for h in gb:
        if all(m[0] == 0 for m, _ in h.terms):
            out.append(ring.poly({m[1:]: c for m, c in h.terms}))
    return out


def elimination_ideal(gens, k: int):
    """Generators of (ideal ∩ F_p[x_{k+1}..x_n]) as polynomials of the
    input ring: the block(k) reduced basis elements free of the first k
    variables, converted back to the input order."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    ring = gens[0].ring
    gb = buchberger(gens, order=MonomialOrder.block(k))
    kept = [
        g
        for g in gb
        if all(all(e == 0 for e in m[:k]) for m, _ in g.terms)
    ]
    return [g.convert(ring) for g in kept]
