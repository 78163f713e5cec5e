"""Independent brute-force oracles used to freeze expected test values.

Nothing here touches Groebner machinery: membership is exhaustive
linear algebra over F_p, the cusp oracle works in the numerical
semigroup <2, 3>, and the Frobenius-root oracle enumerates monomial
staircases.  The point is that these agree with the main code paths
while sharing none of them.
"""

from __future__ import annotations

import itertools


def monomials_up_to(nvars: int, degree: int):
    return [
        e
        for e in itertools.product(range(degree + 1), repeat=nvars)
        if sum(e) <= degree
    ]


def span_membership(f, gens, p: int, degree_bound: int) -> bool:
    """Is f an F_p-combination of monomial multiples of the gens?

    Sound for yes-answers; a no-answer is exact whenever every witness
    combination only needs multipliers of degree <= degree_bound (true
    for the graded cases this oracle is used on, with a generous bound).
    Polynomials are {exponent-tuple: coeff} dicts.
    """
    if not f:
        return True
    nvars = len(next(iter(f)))
    rows = []
    for g in gens:
        if not g:
            continue
        for m in monomials_up_to(nvars, degree_bound):
            prod = {}
            for gm, gc in g.items():
                t = tuple(a + b for a, b in zip(gm, m))
                prod[t] = (prod.get(t, 0) + gc) % p
            rows.append({k: v for k, v in prod.items() if v})
    # Gaussian elimination over F_p on the sparse rows, then reduce f
    basis = []  # list of (pivot monomial, row dict) with unit pivot
    for row in rows:
        row = _reduce_row(row, basis, p)
        if row:
            piv = max(row)
            inv = pow(row[piv], p - 2, p)
            row = {k: v * inv % p for k, v in row.items()}
            basis.append((piv, row))
    return not _reduce_row(dict(f), basis, p)


def _reduce_row(row, basis, p):
    for piv, brow in basis:
        c = row.get(piv)
        if c:
            for k, v in brow.items():
                nv = (row.get(k, 0) - c * v) % p
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return row


class CuspSemigroup:
    """The cuspidal cubic F_2[x,y]/(y^2+x^3) as F_2[t^2, t^3].

    x maps to t^2, y to t^3; the ring is spanned by t^k for k in the
    numerical semigroup {0, 2, 3, 4, ...}.  Monomial ideals downstairs
    are determined by their exponent sets, truncated at `bound`.
    """

    def __init__(self, bound: int = 40):
        self.bound = bound
        self.semigroup = {0} | set(range(2, bound + 1))

    def ideal(self, t_exponents):
        out = set()
        for a in t_exponents:
            out |= {a + s for s in self.semigroup if a + s <= self.bound}
        return out

    def xy_exponent(self, i: int, j: int) -> int:
        return 2 * i + 3 * j

    def intersect(self, A, B):
        return A & B

    def colon(self, A, c: int):
        return {k for k in self.semigroup if k + c <= self.bound and k + c in A}

    def bracket(self, t_exponents, q: int):
        return self.ideal([q * a for a in t_exponents])


def monomial_root_expected(exponent_vectors, q: int):
    """Componentwise floor-division oracle for monomial Frobenius roots,
    validated separately by staircase enumeration."""
    return sorted({tuple(a // q for a in v) for v in exponent_vectors})


def monomial_antichains(nvars: int, degree: int):
    """All antichains (minimal generator sets of monomial ideals) among
    the monomials of total degree <= degree."""
    monos = [m for m in monomials_up_to(nvars, degree) if sum(m) > 0] + [
        (0,) * nvars
    ]
    out = []
    for r in range(1, len(monos) + 1):
        for combo in itertools.combinations(monos, r):
            if all(
                not _mono_divides(a, b)
                for a, b in itertools.permutations(combo, 2)
            ):
                out.append(combo)
    return out


def _mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_ideal_contains(gens, m) -> bool:
    return any(_mono_divides(g, m) for g in gens)


def mono_ideal_subset(gens_a, gens_b) -> bool:
    return all(mono_ideal_contains(gens_b, g) for g in gens_a)


def order_key(order, m):
    """Sort key under which a bigger monomial has a bigger key, written
    out from the definitions of lex, grevlex and block(k) rather than
    taken from ffrob.poly."""

    def grevlex(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    if order.kind == "lex":
        return tuple(m)
    if order.kind == "grevlex":
        return grevlex(m)
    k = order.nblock
    return (tuple(m[:k]), grevlex(m[k:]))


def _shifted(m, lm, gm):
    return tuple(a - b + c for a, b, c in zip(m, lm, gm))


def reference_normal_form(f, basis, p: int, order, reappeared=None):
    """Remainder of f on division by the basis, reducing the largest
    remaining term by the first basis element whose leading monomial
    divides it: the plain `max`-driven loop.  Polynomials are
    {exponent-tuple: coeff} dicts.  Monomials that cancel and later come
    back into the working set are added to `reappeared` if one is given.
    """

    def key(m):
        return order_key(order, m)

    heads = []
    for g in basis:
        if g:
            lm = max(g, key=key)
            heads.append((lm, pow(g[lm], p - 2, p), g))
    work = {m: c % p for m, c in f.items() if c % p}
    cancelled = set()
    out = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        for lm, lcinv, g in heads:
            if _mono_divides(lm, m):
                fc = c * lcinv % p
                for gm, gc in g.items():
                    t = _shifted(m, lm, gm)
                    v = (work.get(t, 0) - fc * gc) % p
                    if v:
                        if reappeared is not None and t not in work and t in cancelled:
                            reappeared.add(t)
                        work[t] = v
                    else:
                        work.pop(t, None)
                        if t != m:
                            cancelled.add(t)
                break
        else:
            out[m] = c
            del work[m]
    return out


def reference_groebner(gens, p: int, order):
    """Reduced Groebner basis of the gens by Buchberger's algorithm with
    no pair criterion: every pair's S-polynomial is formed and fully
    reduced by `reference_normal_form`, then the basis is made minimal,
    monic and tail-reduced.  Polynomials are {exponent-tuple: coeff}
    dicts; the result is in descending order of leading monomial."""

    def key(m):
        return order_key(order, m)

    def monic(g):
        inv = pow(g[max(g, key=key)], p - 2, p)
        return {m: c * inv % p for m, c in g.items()}

    def lcm(pair):
        return tuple(map(max, *(max(basis[i], key=key) for i in pair)))

    basis = [g for g in ({m: c % p for m, c in g.items() if c % p} for g in gens) if g]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        # the pair of smallest lcm first: the normal strategy
        i, j = pair = min(pairs, key=lambda pair: key(lcm(pair)))
        pairs.remove(pair)
        f, g = monic(basis[i]), monic(basis[j])
        lf, lg, lfg = max(f, key=key), max(g, key=key), lcm(pair)
        s = {}
        for h, lh, sign in ((f, lf, 1), (g, lg, -1)):
            for m, c in h.items():
                t = _shifted(lfg, lh, m)
                s[t] = (s.get(t, 0) + sign * c) % p
        r = reference_normal_form(s, basis, p, order)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r)
    # minimal: in ascending order of lead, a divisor of a lead comes first
    minimal = []
    for g in sorted(basis, key=lambda g: key(max(g, key=key))):
        if not any(_mono_divides(max(h, key=key), max(g, key=key)) for h in minimal):
            minimal.append(monic(g))
    # no other lead divides a lead, so each reduction keeps its lead
    reduced = [
        reference_normal_form(g, [h for h in minimal if h is not g], p, order) for g in minimal
    ]
    return sorted(reduced, key=lambda g: key(max(g, key=key)), reverse=True)


def reference_divmod(f, g, p: int, order):
    """(quotient, remainder) dicts of f by the single divisor g, by the
    same `max`-driven loop."""

    def key(m):
        return order_key(order, m)

    lm = max(g, key=key)
    lcinv = pow(g[lm], p - 2, p)
    work = {m: c % p for m, c in f.items() if c % p}
    quot, rem = {}, {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if _mono_divides(lm, m):
            fc = c * lcinv % p
            shift = tuple(a - b for a, b in zip(m, lm))
            quot[shift] = (quot.get(shift, 0) + fc) % p
            for gm, gc in g.items():
                if gm == lm:
                    continue
                t = _shifted(m, lm, gm)
                v = (work.get(t, 0) - fc * gc) % p
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
        else:
            rem[m] = c
    return quot, rem
