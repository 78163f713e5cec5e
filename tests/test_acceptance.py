"""Acceptance suite: one test per criterion, one printed verdict line each.

All algebra is exact; the tolerance everywhere is equality of reduced
Groebner bases.  Each test also enforces its wall-clock budget.
"""

import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ffrob import (
    PrimeField,
    QuotientRing,
    SamplerConfig,
    bracket_power,
    check_colon,
    check_intersection_family,
    check_principal_intersection,
    fedder_is_fpure,
    frobenius_root,
    is_reduced,
    jacobian_regularity_oracle,
    nilradical_char_p,
    parse_polynomial,
    regularity_probe,
    reverify_witness,
    sample_ideal,
    sample_polynomial,
)
from ffrob.checks import NOT_REGULAR, REGULAR, SINGULAR, _structured_inputs

from oracles import mono_ideal_subset, monomial_antichains

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"

F2 = PrimeField(2)
F3 = PrimeField(3)


def P(ring, text):
    return parse_polynomial(text, ring.ambient)


def make_ring(p, names, qtexts=()):
    field = PrimeField(p)
    plain = QuotientRing(field, names)
    return QuotientRing(field, names, [P(plain, s) for s in qtexts])


def verdict(n, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {n} [{label}]: {status} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"


def test_criterion_1_dual_numbers_corpus():
    t0 = time.monotonic()
    D = make_ring(2, ("x",), ("x^2",))
    ideals = [D.ideal([]), D.ideal([P(D, "x")]), D.unit_ideal()]
    ok = True
    for a, b in itertools.combinations(ideals, 2):
        for e in (1, 2):
            ok = ok and check_intersection_family([a, b], e).passed
    ok = ok and not is_reduced(D)
    ok = ok and jacobian_regularity_oracle(D) == SINGULAR
    verdict(1, "dual numbers corpus", ok, time.monotonic() - t0, 1.0)


def test_criterion_2_counterexample_corpus():
    t0 = time.monotonic()
    R = make_ring(2, ("x", "y", "z", "w"), ("x^3", "x^2*z + y^2*w", "x*y", "y^3"))
    I, J = R.ideal([P(R, "x")]), R.ideal([P(R, "y")])
    meet = I.intersect(J)
    ok = meet == R.ideal([P(R, "x^2*z")])
    ok = ok and bracket_power(meet, 1) == R.ideal([])
    both = bracket_power(I, 1).intersect(bracket_power(J, 1))
    ok = ok and both.contains(P(R, "x^2*z"))
    rep = check_intersection_family([I, J], 1)
    ok = ok and not rep.passed and str(rep.witness.separator) == "x^2*z"
    ok = ok and nilradical_char_p(R).ideal == R.ideal([P(R, "x"), P(R, "y")])
    verdict(2, "counterexample corpus", ok, time.monotonic() - t0, 5.0)


def test_criterion_3_regular_ring_property_suite():
    t0 = time.monotonic()
    cfg = SamplerConfig(seed=1, max_degree=3, max_terms=3, max_generators=2, count=200)
    ok = True
    passes = 0
    for ring in (make_ring(2, ("x", "y")), make_ring(3, ("x",))):
        for pos in range(cfg.count):
            I = sample_ideal(ring, cfg, pos)
            J = sample_ideal(ring, cfg, pos, tag="ideal2")
            x = sample_polynomial(ring, cfg, pos)
            if x.is_zero:
                x = ring.ambient.one()
            trio = (
                check_principal_intersection(I, x, 1).passed
                and check_colon(I, x, 1).passed
                and check_intersection_family([I, J], 1).passed
            )
            ok = ok and trio
            passes += trio
    ok = ok and passes == 400
    verdict(3, "regular rings 400/400", ok, time.monotonic() - t0, 60.0)


def test_criterion_4_cusp_witness():
    t0 = time.monotonic()
    cusp = make_ring(2, ("x", "y"), ("y^2+x^3",))
    probe = regularity_probe(cusp, SamplerConfig(seed=1, count=0))
    ok = probe.verdict == NOT_REGULAR

    I = cusp.ideal([P(cusp, "x")])
    y = P(cusp, "y")
    rep4 = check_colon(I, y, 1)
    lhs4 = bracket_power(I.colon(y), 1)
    rhs4 = bracket_power(I, 1).colon(y.frobenius_power(1))
    ok = ok and not rep4.passed
    ok = ok and lhs4 == cusp.ideal([P(cusp, "x^2")]) and rhs4.is_unit

    rep3 = check_principal_intersection(I, y, 1)
    ok = ok and not rep3.passed
    # separator agrees with x^3 modulo the cusp relation (t^6 in the
    # numerical-semigroup picture, pre-verified by the semigroup oracle
    # in test_checks)
    ok = ok and cusp.ideal([]).contains(rep3.witness.separator - P(cusp, "x^3"))
    ok = ok and is_reduced(cusp)
    ok = ok and jacobian_regularity_oracle(cusp) == SINGULAR
    verdict(4, "cusp witness", ok, time.monotonic() - t0, 5.0)


def test_criterion_5_frobenius_root_suite():
    t0 = time.monotonic()
    R = make_ring(2, ("x", "y"))
    cfg = SamplerConfig(seed=1, max_degree=3, max_terms=2, max_generators=2, count=100)
    ok = True
    for pos in range(100):
        I = sample_ideal(R, cfg, pos, tag="rootI")
        J = sample_ideal(R, cfg, pos, tag="rootJ")
        J2 = bracket_power(J, 1)
        adjoint_lhs = I + J2 == J2  # I ⊆ J^[2]
        adjoint_rhs = frobenius_root(I, 1) + J == J
        ok = ok and adjoint_lhs == adjoint_rhs
        ok = ok and frobenius_root(bracket_power(J, 1), 1) == J

    # monomial ideals against the staircase enumeration oracle
    family = monomial_antichains(2, 4)
    mono_cfg = SamplerConfig(seed=7, max_degree=4, max_terms=1, max_generators=2, count=100)
    agreements = 0
    for pos in range(100):
        I = sample_ideal(R, mono_cfg, pos, tag="mono")
        I_gens = [g.leading_monomial for g in I.gens]
        root = frobenius_root(I, 1)
        root_gens = [g.leading_monomial for g in root.groebner]
        admissible = [
            Jg
            for Jg in family
            if mono_ideal_subset(I_gens, [tuple(2 * b for b in m) for m in Jg])
        ]
        minimal = mono_ideal_subset(I_gens, [tuple(2 * b for b in m) for m in root_gens])
        minimal = minimal and all(
            mono_ideal_subset(root_gens, Jg) for Jg in admissible
        )
        agreements += minimal
    ok = ok and agreements == 100
    verdict(5, "Frobenius roots 100%", ok, time.monotonic() - t0, 60.0)


def test_criterion_6_reducedness_kernel_suite():
    t0 = time.monotonic()
    rings = {
        "poly": (make_ring(2, ("x", "y")), True),
        "dual": (make_ring(2, ("x",), ("x^2",)), False),
        "axes": (make_ring(2, ("x", "y"), ("x*y",)), True),
        "counterexample": (
            make_ring(2, ("x", "y", "z", "w"), ("x^3", "x^2*z + y^2*w", "x*y", "y^3")),
            False,
        ),
        "cusp": (make_ring(2, ("x", "y"), ("y^2+x^3",)), True),
    }
    ok = True
    for ring, expect in rings.values():
        ok = ok and is_reduced(ring) == expect
        res = nilradical_char_p(ring)
        radical_ring = QuotientRing(ring.field, ring.names, list(res.ideal.groebner))
        ok = ok and nilradical_char_p(radical_ring).steps == 0
    verdict(6, "reducedness & kernels", ok, time.monotonic() - t0, 5.0)


def test_criterion_7_fpurity_and_proposition():
    t0 = time.monotonic()
    ok = fedder_is_fpure(make_ring(2, ("x", "y"), ("x*y",)))
    ok = ok and not fedder_is_fpure(make_ring(2, ("x", "y"), ("y^2+x^3",)))
    ok = ok and fedder_is_fpure(make_ring(2, ("x", "y")))

    # Proposition pipeline on the dual numbers: the principal-intersection
    # identity passes on the full structured family and R_red is F-pure,
    # so R_red must be regular
    D = make_ring(2, ("x",), ("x^2",))
    ideals, elems = _structured_inputs(D)
    for I in ideals:
        for x in elems:
            ok = ok and check_principal_intersection(I, x, 1).passed
    N = nilradical_char_p(D).ideal
    R_red = QuotientRing(D.field, D.names, list(N.groebner))
    ok = ok and fedder_is_fpure(R_red)
    ok = ok and jacobian_regularity_oracle(R_red) == REGULAR
    verdict(7, "F-purity & Proposition", ok, time.monotonic() - t0, 5.0)


def test_criterion_8_determinism_and_soundness():
    t0 = time.monotonic()
    ok = True
    # every FAIL witness re-verifies under re-presentation
    cusp = make_ring(2, ("x", "y"), ("y^2+x^3",))
    R4 = make_ring(2, ("x", "y", "z", "w"), ("x^3", "x^2*z + y^2*w", "x*y", "y^3"))
    I4, J4 = R4.ideal([P(R4, "x")]), R4.ideal([P(R4, "y")])
    failures = [
        (check_principal_intersection(cusp.ideal([P(cusp, "x")]), P(cusp, "y"), 1), cusp),
        (check_colon(cusp.ideal([P(cusp, "x")]), P(cusp, "y"), 1), cusp),
        (check_intersection_family([I4, J4], 1), R4),
    ]
    for rep, ring in failures:
        ok = ok and not rep.passed and reverify_witness(rep, ring)

    # identical session + seed => byte-identical JSON
    runs = [
        subprocess.run(
            [sys.executable, "-m", "ffrob.cli", str(SESSIONS / "cusp.ffor"), "--json", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    ok = ok and runs[0].stdout == runs[1].stdout and runs[0].stdout
    json.loads(runs[0].stdout)  # must be valid JSON
    verdict(8, "determinism & soundness", ok, time.monotonic() - t0, 30.0)
