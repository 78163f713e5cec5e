"""Identity checkers and the regularity probe.

For a reduced Noetherian ring of characteristic p, regularity is
equivalent to each of three ideal identities: bracket powers commute
with finite intersections, with intersections against a principal ideal,
and with colons by an element.  Each checker computes both sides of one
identity and, on inequality, extracts a separating element that lies in
exactly one side — a certificate of non-regularity (for reduced rings).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .frobenius import bracket_power, is_reduced
from .ideals import Ideal, QuotientRing
from .poly import Polynomial, PolyRing

INTERSECTION_FAMILY = "INTERSECTION_FAMILY"
PRINCIPAL_INTERSECTION = "PRINCIPAL_INTERSECTION"
COLON = "COLON"

REGULAR = "REGULAR"
SINGULAR = "SINGULAR"
UNSUPPORTED = "UNSUPPORTED"


@dataclass(frozen=True)
class Witness:
    """Violation certificate: the inputs plus an element separating the
    two sides of the identity (member of exactly one)."""

    I: Ideal
    x: Polynomial | None  # element operand; None for family checks
    family: tuple | None  # the other ideals for family checks
    e: int
    separator: Polynomial
    side: str  # "lhs" or "rhs": where the separator lives

    def to_dict(self):
        d = {
            "I": [str(g) for g in self.I.gens],
            "x": None if self.x is None else str(self.x),
            "e": self.e,
            "separator": str(self.separator),
            "side": self.side,
        }
        if self.family is not None:
            d["family"] = [[str(g) for g in J.gens] for J in self.family]
        return d


@dataclass(frozen=True)
class CheckReport:
    identity: str
    ring: str
    trials: int
    outcome: str  # "PASS" | "FAIL"
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.outcome == "PASS"

    def to_dict(self):
        d = {
            "identity": self.identity,
            "ring": self.ring,
            "trials": self.trials,
            "outcome": self.outcome,
        }
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        return d


def _separator(lhs: Ideal, rhs: Ideal):
    """First reduced-basis generator of either side missing from the
    other; scans descending generator order, lhs first."""
    for g in lhs.groebner:
        if not rhs.contains(g):
            return g, "lhs"
    for g in rhs.groebner:
        if not lhs.contains(g):
            return g, "rhs"
    raise AssertionError("sides compare unequal but no separator found")


def _report(identity, ring, lhs, rhs, I, x, family, e) -> CheckReport:
    if lhs == rhs:
        return CheckReport(identity, ring.describe(), 1, "PASS")
    sep, side = _separator(lhs, rhs)
    return CheckReport(
        identity,
        ring.describe(),
        1,
        "FAIL",
        Witness(I, x, family, e, sep, side),
    )


def check_principal_intersection(ring: QuotientRing, I: Ideal, x: Polynomial, e: int = 1) -> CheckReport:
    """Does I^[q] ∩ (x^q) equal (I ∩ (x))^[q]?  (q = p^e)"""
    principal = ring.ideal([x])
    lhs = bracket_power(I, e).intersect(bracket_power(principal, e))
    rhs = bracket_power(I.intersect(principal), e)
    return _report(PRINCIPAL_INTERSECTION, ring, lhs, rhs, I, x, None, e)


def check_colon(ring: QuotientRing, I: Ideal, x: Polynomial, e: int = 1) -> CheckReport:
    """Does (I : x)^[q] equal (I^[q] : x^q)?  (q = p^e)"""
    lhs = bracket_power(I.colon(x), e)
    rhs = bracket_power(I, e).colon(x.frobenius_power(e))
    return _report(COLON, ring, lhs, rhs, I, x, None, e)


def check_intersection_family(ring: QuotientRing, ideals, e: int = 1) -> CheckReport:
    """Does (∩ᵢ Iᵢ)^[q] equal ∩ᵢ Iᵢ^[q], folding left to right?"""
    ideals = list(ideals)
    if len(ideals) < 2:
        raise ValueError("family checks need at least two ideals")
    meet = ideals[0]
    for J in ideals[1:]:
        meet = meet.intersect(J)
    lhs = bracket_power(meet, e)
    rhs = bracket_power(ideals[0], e)
    for J in ideals[1:]:
        rhs = rhs.intersect(bracket_power(J, e))
    return _report(
        INTERSECTION_FAMILY, ring, lhs, rhs, ideals[0], None, tuple(ideals[1:]), e
    )


def reverify_witness(report: CheckReport, ring: QuotientRing) -> bool:
    """Recompute the failed identity from scratch with the ideal
    re-presented (generators reversed, plus a redundant combination) and
    confirm the separator still lands in exactly one side."""
    w = report.witness
    if w is None:
        return False
    gens = list(reversed(w.I.gens))
    if len(gens) >= 2:
        gens.append(gens[0] + gens[1])
    elif gens:
        gens.append(gens[0] + gens[0])  # 2g, redundant in any characteristic
    I2 = Ideal(ring, gens)
    e = w.e
    if report.identity == PRINCIPAL_INTERSECTION:
        principal = ring.ideal([w.x])
        lhs = bracket_power(I2, e).intersect(bracket_power(principal, e))
        rhs = bracket_power(I2.intersect(principal), e)
    elif report.identity == COLON:
        lhs = bracket_power(I2.colon(w.x), e)
        rhs = bracket_power(I2, e).colon(w.x.frobenius_power(e))
    elif report.identity == INTERSECTION_FAMILY:
        meet = I2
        rhs = bracket_power(I2, e)
        for J in w.family:
            meet = meet.intersect(J)
            rhs = rhs.intersect(bracket_power(J, e))
        lhs = bracket_power(meet, e)
    else:
        raise ValueError(f"unknown identity {report.identity}")
    return lhs.contains(w.separator) != rhs.contains(w.separator)


def fedder_is_fpure(ring: QuotientRing) -> bool:
    """Fedder's criterion at the origin: S/Q is F-pure there iff
    (Q^[p] : Q) is not contained in m^[p], m = (all variables)."""
    if ring.is_polynomial_ring:
        return True
    p = ring.field.p
    S = QuotientRing(ring.field, ring.names, (), order=ring.ambient.order)
    Q = S.ideal(list(ring.quotient_gens))
    Qp = bracket_power(Q, 1)
    colon = Qp.colon_ideal(Q)
    m_p = S.ideal([v.frobenius_power(1) for v in S.ambient.variables()])
    return any(not m_p.contains(g) for g in colon.groebner)


def jacobian_regularity_oracle(ring: QuotientRing) -> str:
    """Independent smoothness check, hypersurface case only.

    Q = 0 is trivially REGULAR.  For a principal Q = (f) the Jacobian
    ideal (f, all partials) is the unit ideal exactly on smooth
    hypersurfaces; anything else is UNSUPPORTED."""
    if ring.is_polynomial_ring:
        return REGULAR
    gb = ring.quotient_basis
    if len(gb) != 1:
        return UNSUPPORTED
    f = gb[0]
    S = QuotientRing(ring.field, ring.names, (), order=ring.ambient.order)
    gens = [f] + [f.derivative(i) for i in range(ring.ambient.nvars)]
    jac = S.ideal(gens)
    return REGULAR if jac.is_unit else SINGULAR


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 1
    max_degree: int = 3
    max_terms: int = 3
    max_generators: int = 2
    count: int = 100


def _rng(config: SamplerConfig, position: int, tag: str) -> random.Random:
    return random.Random(f"{config.seed}:{position}:{tag}")


# Monomial pools of the most recent (ambient ring, degree) pairs; a probe
# asks for the same one twice per trial.
_POOL_CACHE_SIZE = 4


@functools.lru_cache(maxsize=_POOL_CACHE_SIZE)
def _monomial_pool(S: PolyRing, max_degree: int) -> tuple:
    """Monomials of S of degree at most max_degree in ascending monomial
    order; the sampler draws from them by position."""
    pool = [
        exps
        for exps in itertools.product(range(max_degree + 1), repeat=S.nvars)
        if sum(exps) <= max_degree
    ]
    pool.sort(key=S.order.key, reverse=True)
    return tuple(pool)


def sample_polynomial(ring: QuotientRing, config: SamplerConfig, position: int, tag: str = "elem") -> Polynomial:
    rng = _rng(config, position, tag)
    pool = _monomial_pool(ring.ambient, config.max_degree)
    p = ring.field.p
    nterms = rng.randint(1, config.max_terms)
    acc = {}
    for _ in range(nterms):
        m = pool[rng.randrange(len(pool))]
        acc[m] = rng.randint(1, p - 1)
    return ring.ambient.poly(acc)


def sample_ideal(ring: QuotientRing, config: SamplerConfig, position: int, tag: str = "ideal") -> Ideal:
    rng = _rng(config, position, tag)
    pool = _monomial_pool(ring.ambient, config.max_degree)
    p = ring.field.p
    gens = []
    for g in range(rng.randint(1, config.max_generators)):
        nterms = rng.randint(1, config.max_terms)
        acc = {}
        for _ in range(nterms):
            m = pool[rng.randrange(len(pool))]
            acc[m] = rng.randint(1, p - 1)
        gens.append(ring.ambient.poly(acc))
    return Ideal(ring, gens)


NOT_REGULAR = "NOT_REGULAR"
NO_WITNESS_FOUND = "NO_WITNESS_FOUND"


@dataclass(frozen=True)
class ProbeReport:
    verdict: str  # NOT_REGULAR | NO_WITNESS_FOUND
    ring: str
    reduced: bool
    trials: int
    structured_checks: int
    first_failure: CheckReport | None = None
    note: str = ""

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
    ideals = [ring.ideal([v]) for v in variables]
    ideals.append(ring.ideal(list(variables)))
    elems = list(variables)
    for a, b in itertools.combinations(variables, 2):
        elems.append(a + b)
    return ideals, elems


def regularity_probe(ring: QuotientRing, config: SamplerConfig, e_list=(1,)) -> ProbeReport:
    """Searches for a violation of the three identities: a fixed
    structured family first, then seeded random (I, x) trials.

    A FAIL certifies the identity failure outright, and non-regularity
    when the ring is reduced; finding nothing is reported as exactly
    that, never as a regularity proof."""
    reduced = is_reduced(ring)
    note = "" if reduced else (
        "ring is not reduced: intersection-type identities may pass on "
        "non-regular rings, so their witnesses only certify the identity "
        "failures; a colon-identity failure certifies non-regularity "
        "regardless (flatness of the Frobenius needs no reducedness)"
    )
    structured = 0
    ideals, elems = _structured_inputs(ring)

    def finish(verdict, trials, failure):
        return ProbeReport(
            verdict, ring.describe(), reduced, trials, structured, failure, note
        )

    for e in e_list:
        for I in ideals:
            for x in elems:
                for chk in (check_principal_intersection, check_colon):
                    structured += 1
                    rep = chk(ring, I, x, e)
                    if not rep.passed:
                        return finish(NOT_REGULAR, 0, rep)
        for Ia, Ib in itertools.combinations(ideals, 2):
            structured += 1
            rep = check_intersection_family(ring, [Ia, Ib], e)
            if not rep.passed:
                return finish(NOT_REGULAR, 0, rep)

    for pos in range(config.count):
        I = sample_ideal(ring, config, pos)
        x = sample_polynomial(ring, config, pos)
        if x.is_zero:
            continue
        for e in e_list:
            for chk in (check_principal_intersection, check_colon):
                rep = chk(ring, I, x, e)
                if not rep.passed:
                    return finish(NOT_REGULAR, pos + 1, rep)
    return finish(NO_WITNESS_FOUND, config.count, None)
