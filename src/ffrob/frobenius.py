"""Frobenius-specific ideal operations.

Bracket powers, Frobenius roots in polynomial rings, preimages under the
Frobenius endomorphism (hence an exact characteristic-p nilradical and a
reducedness test).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedOperationError
from .groebner import _eliminate
from .ideals import Ideal, QuotientRing
from .poly import EXP_LIMIT, Polynomial


def bracket_power(I: Ideal, e: int) -> Ideal:
    """I^[p^e]: raise each chosen generator to the p^e power.

    Generating-set independence is a theorem in characteristic p (the
    Frobenius is additive), so only the presented generators are raised;
    Q rides along through the lift as usual."""
    if e < 0:
        raise ValueError("Frobenius exponent must be nonnegative")
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
    # every exponent is below 2^32 <= p^32, so for e >= 32 the quotients
    # are 0 and the remainders the exponents: the root no longer depends on e
    q = I.ring.field.p ** min(e, 32)
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
    pad = (0,) * n
    gens = [[(m + pad, c) for m, c in g.terms] for g in J.gens]
    for i in range(n):  # y_i - x_i^p
        x, y = pad[:i] + (p,) + pad[i + 1 :], pad[:i] + (1,) + pad[i + 1 :]
        gens.append([(pad + y, 1), (x + pad, p - 1)])
    return Ideal(J.ring, _eliminate(S, n, gens))


@dataclass(frozen=True)
class NilradicalResult:
    """Radical of Q plus the stabilization data of the kernel iteration."""

    ideal: Ideal
    steps: int
    q: int  # p^steps; the nilradical's bracket power at q lands in Q


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


def is_reduced(ring: QuotientRing) -> bool:
    """True iff R has no nonzero nilpotents, i.e. φ^-1(Q) ⊆ Q (Q ⊆ φ^-1(Q) always)."""
    J = ring.defining_ideal()
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
