"""Ideal arithmetic in polynomial rings and their quotients.

A quotient ring holds Q as an `Ideal` of its one cover, built with the
ring, so Q's reduced basis is computed once.
An ideal of R = S/Q is always handled through its lift: the ideal of the
ambient polynomial ring S generated by the chosen generators together
with Q.  Intersections of lifts correspond exactly to intersections
downstairs, so all the work happens in S via Groebner bases.  I ⊆ J
needs only J's reduced basis, cached per `Ideal`: every generator of I
must reduce to zero by it, and Q lies in both lifts.  Equality compares
the two reduced bases.  An intersection joins Q to one side only, and a
colon is an intersection followed by exact division (Cox, Little &
O'Shea, section 4.4).  A polynomial or an ideal from another ring is
refused by `_check_rings` before any basis is computed.
"""

from __future__ import annotations

from .errors import FFrobError
from .field import PrimeField
from .groebner import buchberger, normal_form, poly_divexact, poly_ideal_intersect
from .poly import Polynomial, PolyRing, _check_rings


class QuotientRing:
    """F_p[vars]/Q, holding Q as an `Ideal` of its one cover F_p[vars];
    Q = 0 makes the ring a polynomial ring, its own cover."""

    def __init__(self, field: PrimeField, names, quotient_gens=()):
        self.ambient = PolyRing(field, names)
        gens = Ideal(self, quotient_gens).gens
        self.Q = Ideal(QuotientRing(field, names) if gens else self, gens)
        if self.Q.is_unit:
            raise FFrobError("quotient ideal is the unit ideal; the ring is trivial")

    @property
    def field(self) -> PrimeField:
        return self.ambient.field

    @property
    def names(self):
        return self.ambient.names

    @property
    def quotient_gens(self):
        return self.Q.gens

    @property
    def is_polynomial_ring(self) -> bool:
        return self.cover() is self

    def cover(self) -> "QuotientRing":
        """F_p[vars]: the ring this one is a quotient of."""
        return self.Q.ring

    def ideal(self, gens) -> "Ideal":
        return Ideal(self, gens)

    def defining_ideal(self) -> "Ideal":
        """Q as an ideal of the cover."""
        return self.Q

    def unit_ideal(self) -> "Ideal":
        return Ideal(self, [self.ambient.one()])

    def describe(self) -> str:
        base = f"F_{self.field.p}[{','.join(self.names)}]"
        if self.is_polynomial_ring:
            return base
        return base + "/(" + ", ".join(str(g) for g in self.quotient_gens) + ")"

    # Q's bases, not Q itself: a polynomial ring is Q's ring, and
    # Ideal.__eq__ compares rings
    def __eq__(self, other):
        return self is other or (
            isinstance(other, QuotientRing)
            and self.ambient == other.ambient
            and self.Q.groebner == other.Q.groebner
        )

    def __hash__(self):
        return hash((self.ambient, tuple(self.Q.groebner)))

    def __repr__(self):
        return self.describe()


class Ideal:
    """An ideal of a QuotientRing, presented by lift generators.

    The canonical form is the reduced Groebner basis of (gens + Q) in
    the ambient ring, computed lazily and cached.
    """

    def __init__(self, ring: QuotientRing, gens):
        self.ring = ring
        gens = tuple(gens)  # read once: gens may be an iterator
        _check_rings(ring.ambient, gens)
        self.gens = tuple(g for g in gens if not g.is_zero)
        self._gb = None

    @property
    def groebner(self):
        """Reduced Groebner basis of the lift (generators plus Q)."""
        if self._gb is None:
            self._gb = buchberger(list(self.gens) + list(self.ring.quotient_gens))
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        # normal_form checks f only against a nonempty basis
        _check_rings(self.ring.ambient, (f,))
        return normal_form(f, self.groebner).is_zero

    @property
    def is_unit(self) -> bool:
        gb = self.groebner
        return bool(gb) and gb[-1].total_degree() == 0

    def __add__(self, other: "Ideal") -> "Ideal":
        _check_rings(self.ring, (other,))
        return Ideal(self.ring, self.gens + other.gens)

    def intersect(self, other: "Ideal") -> "Ideal":
        """I ∩ J via the auxiliary-variable elimination t·I + (1-t)·J.

        Q joins I's side only: Q ⊆ I + Q, so by the modular law
        (I+Q) ∩ (J+Q) = ((I+Q) ∩ J) + Q, and the result's lift adds Q
        back."""
        _check_rings(self.ring, (other,))
        lift = list(self.gens) + list(self.ring.quotient_gens)
        return Ideal(self.ring, poly_ideal_intersect(self.ring.ambient, lift, list(other.gens)))

    def colon(self, x: Polynomial) -> "Ideal":
        """(I : x) = {f : f·x ∈ I} as an ideal of R: each generator of
        I ∩ (x) divided exactly by x.  x = 0 yields the unit ideal; for
        x ∈ Q, x itself is in I ∩ (x)."""
        _check_rings(self.ring.ambient, (x,))
        if x.is_zero:
            return self.ring.unit_ideal()
        meet = self.intersect(self.ring.ideal([x]))
        return Ideal(self.ring, [poly_divexact(g, x) for g in meet.gens])

    def colon_ideal(self, other: "Ideal") -> "Ideal":
        """(I : J) = ∩_j (I : g_j) over the generators of J."""
        _check_rings(self.ring, (other,))
        if not other.gens:
            return self.ring.unit_ideal()
        result = None
        for g in other.gens:
            piece = self.colon(g)
            result = piece if result is None else result.intersect(piece)
        return result

    def __le__(self, other: "Ideal") -> bool:
        """I ⊆ J; one presentation is one ideal, so equal generators need no basis."""
        _check_rings(self.ring, (other,))
        return self.gens == other.gens or all(map(other.contains, self.gens))

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner == other.groebner

    def __hash__(self):
        return hash((self.ring, tuple(self.groebner)))

    def __repr__(self):
        return "(" + ", ".join(str(g) for g in self.groebner) + ")"

