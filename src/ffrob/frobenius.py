"""Frobenius-specific ideal operations.

Bracket powers, Frobenius roots in polynomial rings, preimages under the
Frobenius endomorphism (hence an exact characteristic-p nilradical and a
reducedness test).

A complete intersection (CI), Q generated by c elements in codimension
c, is decided from its equations instead.  `_is_complete_intersection`
reads the codimension off the leading monomials of Q's reduced basis,
which the ring computes when it is built.  `_singular_locus` is the one
Jacobian ideal: `is_reduced` counts its dimension on a CI (Matsumura,
Thm 23.8: reduced is R0 plus S1, and a CI is Cohen-Macaulay), and
`checks.jacobian_regularity_oracle` asks if it is (1).  On a CI,
`checks.fedder_is_fpure` scans one product (Fedder 1983, section 2).
Every other ring keeps the eliminations.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import UnsupportedOperationError
from .groebner import _eliminated
from .ideals import Ideal, QuotientRing
from .poly import EXP_LIMIT, MonomialOrder, Polynomial, _frobenius_q, _packing


def bracket_power(I: Ideal, e: int) -> Ideal:
    """I^[p^e]: raise each chosen generator to the p^e power.

    Generating-set independence is a theorem in characteristic p (the
    Frobenius is additive), so only the presented generators are raised;
    Q rides along through the lift as usual."""
    _frobenius_q(I.ring.field.p, e)  # refuses e < 0, even for the zero ideal
    return Ideal(I.ring, [g.frobenius_power(e) for g in I.gens])


def frobenius_root(I: Ideal, e: int) -> Ideal:
    """The smallest ideal J with I ⊆ J^[p^e]; polynomial ambient only.

    Each generator decomposes uniquely as f = Σ_μ g_μ^q · μ over the
    monomials μ with all exponents < q, because the polynomial ring is
    free over its subring of q-th powers; the g_μ generate the root.
    Coefficients stay put since the Frobenius fixes F_p."""
    if not I.ring.is_polynomial_ring:
        raise UnsupportedOperationError(
            "Frobenius roots are only defined over a polynomial ambient ring"
        )
    if e < 1:
        raise ValueError("Frobenius root exponent must be at least 1")
    q = _frobenius_q(I.ring.field.p, e)
    pieces = {}
    for f in I.gens:
        per_mu = {}
        for m, c in f.terms:
            # m is determined by (mu, base): no two terms share a bucket entry
            mu = tuple(x % q for x in m)
            per_mu.setdefault(mu, {})[tuple(x // q for x in m)] = c
        for bucket in per_mu.values():
            pieces[I.ring.ambient.poly(bucket)] = None
    return Ideal(I.ring, list(pieces))


def frobenius_kernel_preimage(J: Ideal) -> Ideal:
    """{f : f^p ∈ J} for J in a polynomial ambient ring.

    Puts J's generators in n fresh variables x, adds y_i - x_i^p with the
    ring's own variables as the y, and eliminates the x: what is left is
    the answer in the y."""
    if not J.ring.is_polynomial_ring:
        raise UnsupportedOperationError(
            "Frobenius kernel preimages need a polynomial ambient ring"
        )
    S = J.ring.ambient
    n, p = S.nvars, S.field.p
    lift = _packing(MonomialOrder.block(n), 2 * n)
    works = [dict(lift.terms(g.terms)) for g in J.gens]  # packed in the x, the first n
    for x, y in zip(lift.units, lift.units[n:]):  # y_i - x_i^p
        works.append({y: 1, p * x: p - 1})
    kept = _eliminated(works, S.field, lift)  # free of the x, block(n) is S's grevlex: no sort
    return Ideal(J.ring, [Polynomial(S, tuple([(lift.unpack(m)[n:], c) for m, c in g])) for g in kept])


class NilradicalResult(namedtuple("NilradicalResult", (
    "ideal",
    "steps",
    "q",  # p^steps; the nilradical's bracket power at q lands in Q
))):
    """Radical of Q plus the stabilization data of the kernel iteration."""

    __slots__ = ()


def nilradical_char_p(ring: QuotientRing) -> NilradicalResult:
    """Radical of Q by iterating Frobenius kernel preimages.

    f is nilpotent mod Q iff f^(p^e) ∈ Q for some e, so the ascending
    chain Q ⊆ φ^-1(Q) ⊆ φ^-2(Q) ⊆ ... stabilizes at the nilradical."""
    J = ring.defining_ideal()
    steps = 0
    while True:
        K = frobenius_kernel_preimage(J)
        if K <= J:
            break
        J = K
        steps += 1
    lifted = Ideal(ring, [g for g in J.groebner])
    return NilradicalResult(lifted, steps, ring.field.p**steps)


def _covered(basis, k: int) -> bool:
    """Does some set of k variables (all of them, if k exceeds their
    number) meet every leading monomial of the nonempty basis?  Exactly
    when the ideal, not the unit ideal, has codimension at most k: dim S/I
    is dim S/LT(I), n minus the fewest variables that meet every leading
    monomial (Cox, Little & O'Shea, section 9.3)."""
    leads = [g.leading_monomial for g in basis]
    n = basis[0].ring.nvars
    return any(
        all(any(m[i] for i in chosen) for m in leads)
        for chosen in itertools.combinations(range(n), min(k, n))
    )


def _is_complete_intersection(Q: Ideal) -> bool:
    """Is Q, presented by c nonzero generators, of codimension c?  Krull
    bounds the codimension by c, so it is c exactly when no c - 1
    variables meet every leading monomial of Q's basis.  Q = 0 is one,
    with c = 0."""
    return not Q.gens or not _covered(Q.groebner, len(Q.gens) - 1)


def _det(rows, cols):
    """The determinant of the square matrix of polynomials that the
    columns cols of rows make, by Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][cols[0]]
    det = rows[0][0].ring.zero()
    for k, j in enumerate(cols):
        if not rows[0][j].is_zero:
            term = rows[0][j] * _det(rows[1:], cols[:k] + cols[k + 1 :])
            det = det - term if k % 2 else det + term
    return det


def _singular_locus(cover: QuotientRing, gens) -> Ideal:
    """In the cover, the c = len(gens) ≥ 1 generators and the c×c minors of their Jacobian matrix."""
    n = cover.ambient.nvars
    jac = [[f.derivative(i) for i in range(n)] for f in gens]
    return cover.ideal([*gens, *(_det(jac, cols) for cols in itertools.combinations(range(n), len(gens)))])


def is_reduced(ring: QuotientRing) -> bool:
    """True iff R has no nonzero nilpotents.  A polynomial ring is reduced.

    On a complete intersection Q = (f_1, ..., f_c), R is reduced iff it
    satisfies R0 and S1 (Matsumura, Thm 23.8).  R is Cohen-Macaulay, so
    S1 holds, and Q is unmixed; over the perfect field F_p the Jacobian
    criterion then makes R0 the claim that the c×c minors I_c of
    (∂f_i/∂x_j) lie in no minimal prime of Q: that the singular locus
    L = Q + I_c has dim S/L < dim S/Q = n - c.  Any other ring is reduced
    iff φ^-1(Q) ⊆ Q (Q ⊆ φ^-1(Q) always), one kernel-preimage elimination."""
    if ring.is_polynomial_ring:
        return True
    J = ring.defining_ideal()
    if _is_complete_intersection(J):
        return not _covered(_singular_locus(J.ring, J.gens).groebner, len(J.gens))
    return frobenius_kernel_preimage(J) <= J


def closure_search_bound(x: Polynomial, I: Ideal, e_max: int) -> int:
    """The largest e ≤ e_max at which x^(p^e) and every generator of
    I^[p^e] keep all exponents below 2^32: the last exponent that
    frobenius_closure_test searches.  When x and every generator of I
    are constants, it is 0: every e then asks the same question."""
    if e_max < 0:
        raise ValueError("e_max must be nonnegative")
    top = max(
        (max(m, default=0) for f in (x, *I.gens) for m, _ in f.terms), default=0
    )
    if top == 0:
        return 0
    p = x.ring.field.p
    e = 0
    while e < e_max and top * p ** (e + 1) < EXP_LIMIT:
        e += 1
    return e


def frobenius_closure_test(x: Polynomial, I: Ideal, e_max: int):
    """Least e ≤ e_max with x^(p^e) ∈ I^[p^e], if any.

    Returns (True, e) at the first witness, (False, None) otherwise.
    Exponents past closure_search_bound are not searched.  A miss is
    conclusive only up to that bound: x may still lie in the Frobenius
    closure via some larger exponent."""
    for e in range(closure_search_bound(x, I, e_max) + 1):
        if bracket_power(I, e).contains(x.frobenius_power(e)):
            return True, e
    return False, None
