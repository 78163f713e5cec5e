"""Identity checkers and the regularity probe.

For a reduced Noetherian ring of characteristic p, regularity is
equivalent to each of three ideal identities: bracket powers commute
with finite intersections, with intersections against a principal ideal,
and with colons by an element.  The Frobenius is a ring map, so one side
of each identity always contains the other, and the identity holds iff
the larger side lies in the smaller.  A check takes (I, operand, e), the
operand being the element x or the family's other ideals, and runs in the
ring of its ideal I.  `_SIDES` maps each identity to the one function
that builds its two sides and to its larger side; the checkers and
`reverify_witness` both read it.  When the identity fails, a checker
extracts an element of the larger side that the smaller side lacks: a
certificate of non-regularity (for reduced rings).
One left fold, `_fold`, builds the family's sides and the principal
intersection's: the family against (x), with its sides swapped.  A colon
by x is an intersection with (x) divided by x, so both element identities
on one (I, x, e) derive from the principal sides, built once for both.
Every side is a list of packed generators of `ffrob.ideals._Lift`; the
sides of a passing check are equal lists, and only sides that differ are
unpacked into Ideals.  Exact division by x^q commutes with raising to q,
so equal principal sides make equal colon sides: the probe divides neither.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple
from functools import reduce
from operator import add

from .frobenius import _is_complete_intersection, _singular_locus, bracket_power, is_reduced
from .groebner import poly_divexact
from .ideals import Ideal, QuotientRing, _Lift
from .poly import Polynomial, _check_rings, monomial_pool

INTERSECTION_FAMILY = "INTERSECTION_FAMILY"
PRINCIPAL_INTERSECTION = "PRINCIPAL_INTERSECTION"
COLON = "COLON"

REGULAR = "REGULAR"
SINGULAR = "SINGULAR"
UNSUPPORTED = "UNSUPPORTED"


class Witness(namedtuple("Witness", (
    "I",
    "operand",  # the element x, or the family's other ideals
    "e",
    "separator",
    "side",  # "lhs" or "rhs": where the separator lives
))):
    """Violation certificate: the inputs plus an element of the larger
    side of the identity that the smaller side lacks."""

    __slots__ = ()

    def to_dict(self):
        family = isinstance(self.operand, tuple)
        d = {
            "I": [str(g) for g in self.I.gens],
            "x": None if family else str(self.operand),
            "e": self.e,
            "separator": str(self.separator),
            "side": self.side,
        }
        if family:
            d["family"] = [[str(g) for g in J.gens] for J in self.operand]
        return d


class CheckReport(namedtuple("CheckReport", (
    "identity",
    "ring",
    "trials",
    "outcome",  # "PASS" | "FAIL"
    "witness",  # a Witness, or None
), defaults=(None,))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.outcome == "PASS"

    def to_dict(self):
        d = self._asdict()
        if d.pop("witness") is not None:
            d["witness"] = self.witness.to_dict()
        return d


def _fold(L, gens, family):
    """((A ∩ B_1 ∩ ...)^[q], A^[q] ∩ B_1^[q] ∩ ...) for A = gens and the B_i of family,
    packed by L, left to right; each B_i is raised before any core run, to refuse an overflow."""
    powers = [L.power(B) for B in family]
    return L.power(reduce(L.meet, family, gens)), reduce(L.meet, powers, L.power(gens))


def _principal_sides(I: Ideal, x: Polynomial, e: int):
    """The principal intersection's sides (I^[q] ∩ (x^q), (I ∩ (x))^[q]) after
    `_Lift`: the family against (x), swapped; then x, packed."""
    L = _Lift(I.ring, e)
    _check_rings(I.ring.ambient, (x,))
    X = L.pack([] if x.is_zero else [x])
    return L, _fold(L, L.pack(I.gens), [X])[::-1], X


def _colon_sides(L, principal, X):
    """The colon's sides ((A : x)^[q], B : x^q) from the principal's (B, A^[q]):
    exact division by x^q commutes with raising to q."""
    (B, Aq), Xq = principal, L.power(X)
    return L.divide(Aq, Xq), L.divide(B, Xq)


def _element_sides(I: Ideal, x: Polynomial, e: int):
    """Both element identities' sides after their `_Lift`: principal intersection's, colon's."""
    L, principal, X = _principal_sides(I, x, e)
    return L, principal, _colon_sides(L, principal, X)


def _intersection_family_sides(I: Ideal, family, e: int):
    """(I ∩ J_1 ∩ ...)^[q] and I^[q] ∩ J_1^[q] ∩ ..., folding left to right, after `_Lift`."""
    L = _Lift(I.ring, e)
    _check_rings(I.ring, family)
    return L, _fold(L, L.pack(I.gens), [L.pack(J.gens) for J in family])


# identity -> (builder of its `_Lift` and two sides from (I, operand, e),
# the side that always contains the other)
_SIDES = {
    PRINCIPAL_INTERSECTION: (lambda I, x, e: _principal_sides(I, x, e)[:2], "lhs"),
    COLON: (lambda I, x, e: _element_sides(I, x, e)[::2], "rhs"),
    INTERSECTION_FAMILY: (_intersection_family_sides, "rhs"),
}


def _judge(identity, L, sides, I, operand, e) -> CheckReport:
    """PASS iff the larger side lies in the smaller; otherwise the first
    reduced-basis generator of the larger side that the smaller lacks.
    Equal packed generator lists are one ideal and pass without a basis;
    only sides that differ are unpacked into Ideals."""
    side = _SIDES[identity][1]
    big, small = sides if side == "lhs" else sides[::-1]
    if big != small:
        big, small = L.ideal(big), L.ideal(small)
        if not big <= small:
            sep = next(g for g in big.groebner if not small.contains(g))
            return CheckReport(identity, I.ring.describe(), 1, "FAIL", Witness(I, operand, e, sep, side))
    return CheckReport(identity, I.ring.describe(), 1, "PASS")


def _check(identity, I, operand, e) -> CheckReport:
    return _judge(identity, *_SIDES[identity][0](I, operand, e), I, operand, e)


def _element_checks(I, x, e):
    """Principal-intersection, then colon report on one (I, x, e)."""
    L, principal, X = _principal_sides(I, x, e)
    yield _judge(PRINCIPAL_INTERSECTION, L, principal, I, x, e)
    colon = principal if principal[0] == principal[1] else _colon_sides(L, principal, X)
    yield _judge(COLON, L, colon, I, x, e)


def check_principal_intersection(I: Ideal, x: Polynomial, e: int = 1) -> CheckReport:
    """Does I^[q] ∩ (x^q) equal (I ∩ (x))^[q]?  (q = p^e)"""
    return _check(PRINCIPAL_INTERSECTION, I, x, e)


def check_colon(I: Ideal, x: Polynomial, e: int = 1) -> CheckReport:
    """Does (I : x)^[q] equal (I^[q] : x^q)?  (q = p^e)"""
    return _check(COLON, I, x, e)


def check_intersection_family(ideals, e: int = 1) -> CheckReport:
    """Does (∩ᵢ Iᵢ)^[q] equal ∩ᵢ Iᵢ^[q], folding left to right?"""
    ideals = list(ideals)
    if len(ideals) < 2:
        raise ValueError("family checks need at least two ideals")
    return _check(INTERSECTION_FAMILY, ideals[0], tuple(ideals[1:]), e)


def reverify_witness(report: CheckReport, ring: QuotientRing) -> bool:
    """Recompute the failed identity from scratch with the ideal
    re-presented (generators reversed, plus a redundant combination) and
    confirm the separator still lands in exactly one side.  A ring other
    than the witness's raises RingMismatchError."""
    w = report.witness
    if w is None:
        return False
    _check_rings(ring, (w.I,))
    entry = _SIDES.get(report.identity)
    if entry is None:
        raise ValueError(f"unknown identity {report.identity}")
    gens = list(reversed(w.I.gens))
    if len(gens) >= 2:
        gens.append(gens[0] + gens[1])
    elif gens:
        gens.append(gens[0] + gens[0])  # 2g, redundant in any characteristic
    L, sides = entry[0](Ideal(ring, gens), w.operand, w.e)
    lhs, rhs = map(L.ideal, sides)
    return lhs.contains(w.separator) != rhs.contains(w.separator)


def fedder_is_fpure(ring: QuotientRing) -> bool:
    """Fedder's criterion at the origin: S/Q is F-pure there iff
    (Q^[p] : Q) ⊄ m^[p], m = (all variables).  m^[p] is a monomial ideal,
    so that holds iff a generator of the colon has a term with every
    exponent below p.  On a complete intersection Q = (f_1, ..., f_c)
    whose generators all vanish at the origin, (Q^[p] : Q) = Q^[p] +
    ((f_1⋯f_c)^(p-1)) there (Fedder 1983, section 2), and only that
    product can have such a term; the polynomial ring is the CI with
    c = 0.  Any other ring computes the colon by Q."""
    Q = ring.defining_ideal()
    # a generator vanishes at the origin when its smallest term is not constant
    if _is_complete_intersection(Q) and all(any(f.terms[-1][0]) for f in Q.gens):
        return bool(_box_power(ring, Q.gens))
    colon = bracket_power(Q, 1).colon_ideal(Q)
    return any(max(m) < ring.field.p for g in colon.gens for m, _ in g.terms)


def _box_power(ring: QuotientRing, gens) -> dict:
    """The terms of (f_1⋯f_c)^(p-1) with every exponent below p, as
    {monomial: coefficient}.  Each f^(p-1) is f^[p] / f, an exact division,
    since f^p = f^[p] in characteristic p.  A product's exponents only
    grow, so a term past the box, of a factor or of a partial product,
    is dropped as soon as it appears."""
    p = ring.field.p
    acc = {(0,) * ring.ambient.nvars: 1}
    for f in gens:
        power = [(m, c) for m, c in poly_divexact(f.frobenius_power(1), f).terms if max(m) < p]
        nxt = {}
        for m, c in acc.items():
            for fm, fc in power:
                t = tuple(map(add, m, fm))
                if max(t) < p:
                    nxt[t] = (nxt.get(t, 0) + c * fc) % p
        acc = {m: c for m, c in nxt.items() if c}
    return acc


def jacobian_regularity_oracle(ring: QuotientRing) -> str:
    """Independent smoothness check, hypersurface case only.

    Q = 0 is REGULAR.  A principal Q = (f), one element in its reduced basis,
    is REGULAR iff its singular locus (f, all partials) is (1); else UNSUPPORTED."""
    if ring.is_polynomial_ring:
        return REGULAR
    gb = ring.defining_ideal().groebner
    if len(gb) != 1:
        return UNSUPPORTED
    return REGULAR if _singular_locus(ring.cover(), gb).is_unit else SINGULAR


class SamplerConfig(namedtuple(
    "SamplerConfig", ("seed", "max_degree", "max_terms", "max_generators", "count"), defaults=(1, 3, 3, 2, 100)
)):
    """A trial draws 1..max_generators generators of 1..max_terms terms of degree
    <= max_degree.  A setting that cannot draw, or a count < 0, raises ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, least in (("count", 0), ("max_degree", 0), ("max_terms", 1), ("max_generators", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"the sampler needs {name} >= {least}, got {getattr(self, name)}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def _rng(config: SamplerConfig, position: int, tag: str) -> random.Random:
    return random.Random(f"{config.seed}:{position}:{tag}")


def _draw(rng: random.Random, ring: QuotientRing, pool, config: SamplerConfig) -> Polynomial:
    """1..max_terms terms, each a monomial drawn from pool and then a
    coefficient in 1..p-1; never zero, as every coefficient is nonzero."""
    acc = {}
    for _ in range(rng.randint(1, config.max_terms)):
        m = pool[rng.randrange(len(pool))]
        acc[m] = rng.randint(1, ring.field.p - 1)
    return ring.ambient.poly(acc)


def sample_polynomial(ring: QuotientRing, config: SamplerConfig, position: int, tag: str = "elem") -> Polynomial:
    pool = monomial_pool(ring.ambient, config.max_degree)
    return _draw(_rng(config, position, tag), ring, pool, config)


def sample_ideal(ring: QuotientRing, config: SamplerConfig, position: int, tag: str = "ideal") -> Ideal:
    rng = _rng(config, position, tag)
    pool = monomial_pool(ring.ambient, config.max_degree)
    ngens = rng.randint(1, config.max_generators)
    return Ideal(ring, [_draw(rng, ring, pool, config) for _ in range(ngens)])


NOT_REGULAR = "NOT_REGULAR"
NO_WITNESS_FOUND = "NO_WITNESS_FOUND"


class ProbeReport(namedtuple("ProbeReport", (
    "verdict",  # NOT_REGULAR | NO_WITNESS_FOUND
    "ring",
    "reduced",
    "trials",
    "structured_checks",
    "first_failure",  # a CheckReport, or None
    "note",
), defaults=(None, ""))):
    __slots__ = ()

    def to_dict(self):
        d = {
            "identity": "PROBE",
            "ring": self.ring,
            "trials": self.trials,
            "structured_checks": self.structured_checks,
            "outcome": self.verdict,
            "reduced": self.reduced,
            "note": self.note,
        }
        if self.first_failure is not None:
            d["witness"] = self.first_failure.to_dict()
        return d


def _structured_inputs(ring: QuotientRing):
    """Single-variable ideals against other variables, variable sums,
    and the full maximal-ideal generator set; all known hand witnesses
    live at this degree."""
    variables = ring.ambient.variables()
    ideals = [ring.ideal([v]) for v in variables] + [ring.ideal(variables)]
    elems = variables + [a + b for a, b in itertools.combinations(variables, 2)]
    return ideals, elems


def _probe_checks(ring: QuotientRing, config: SamplerConfig, e_list):
    """The probe's reports in order, each with the random trials begun
    before it: the structured element checks, then the structured
    families, for each e; then each position's sampled (I, x) at every e."""
    ideals, elems = _structured_inputs(ring)
    for e in e_list:
        for I, x in itertools.product(ideals, elems):
            for rep in _element_checks(I, x, e):
                yield 0, rep
        for pair in itertools.combinations(ideals, 2):
            yield 0, check_intersection_family(pair, e)
    for pos in range(config.count):
        I = sample_ideal(ring, config, pos)
        x = sample_polynomial(ring, config, pos)
        for e in e_list:
            for rep in _element_checks(I, x, e):
                yield pos + 1, rep


def regularity_probe(ring: QuotientRing, config: SamplerConfig, e_list=(1,)) -> ProbeReport:
    """Searches for a violation of the three identities: a fixed
    structured family first, then seeded random (I, x) trials.

    A FAIL certifies the identity failure outright, and non-regularity
    when the ring is reduced; finding nothing is reported as exactly
    that, never as a regularity proof.  Raises ValueError before any work
    for an e_list that is empty or holds an e < 1, or if no check would
    run; the config has refused its own unusable settings when built."""
    # a huge range is never walked: its least element is one of its ends
    e_list = e_list if isinstance(e_list, range) else tuple(e_list)
    ends = (*e_list[:1], *e_list[-1:]) if isinstance(e_list, range) else e_list
    if min(ends, default=0) < 1:
        raise ValueError(f"the probe needs Frobenius exponents e >= 1, got {e_list!r}")
    if not (ring.ambient.nvars or config.count):  # no structured inputs and no trials
        raise ValueError("the probe would run no check: the ring has no variables and count is 0")
    reduced = is_reduced(ring)
    note = "" if reduced else (
        "ring is not reduced: intersection-type identities may pass on "
        "non-regular rings, so their witnesses only certify the identity "
        "failures; a colon-identity failure certifies non-regularity "
        "regardless (flatness of the Frobenius needs no reducedness)"
    )
    structured = 0
    for trials, rep in _probe_checks(ring, config, e_list):
        structured += trials == 0
        if not rep.passed:
            return ProbeReport(NOT_REGULAR, ring.describe(), reduced, trials, structured, rep, note)
    return ProbeReport(NO_WITNESS_FOUND, ring.describe(), reduced, config.count, structured, None, note)
