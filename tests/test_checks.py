import dataclasses
import importlib
import itertools
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ffrob import (
    ExponentOverflowError,
    FFrobError,
    Ideal,
    PolyRing,
    PrimeField,
    QuotientRing,
    RingMismatchError,
    SamplerConfig,
    bracket_power,
    check_colon,
    check_intersection_family,
    check_principal_intersection,
    fedder_is_fpure,
    frobenius_closure_test,
    frobenius_kernel_preimage,
    is_reduced,
    jacobian_regularity_oracle,
    parse_polynomial,
    regularity_probe,
    reverify_witness,
    sample_ideal,
    sample_polynomial,
)
from ffrob.checks import (
    COLON,
    INTERSECTION_FAMILY,
    NO_WITNESS_FOUND,
    NOT_REGULAR,
    PRINCIPAL_INTERSECTION,
    REGULAR,
    SINGULAR,
    UNSUPPORTED,
    ProbeReport,
    _structured_inputs,
)
from ffrob import checks, groebner, ideals, poly
from ffrob.poly import monomial_pool

from oracles import CuspSemigroup

F2 = PrimeField(2)
F3 = PrimeField(3)


def _as_ideals(build):
    """A builder of `checks._SIDES`, with both packed sides unpacked into Ideals."""

    def sides(I, operand, e):
        L, packed = build(I, operand, e)
        return tuple(map(L.ideal, packed))

    return sides


# identity -> (builder of its two sides as Ideals, the larger side)
_SIDES = {identity: (_as_ideals(build), side) for identity, (build, side) in checks._SIDES.items()}


def P(ring, text):
    return parse_polynomial(text, ring.ambient)


def make_ring(p, names, qtexts=()):
    field = PrimeField(p)
    plain = QuotientRing(field, names)
    return QuotientRing(field, names, [P(plain, s) for s in qtexts])


@pytest.fixture
def cusp():
    return make_ring(2, ("x", "y"), ("y^2+x^3",))


@pytest.fixture
def counterexample():
    return make_ring(2, ("x", "y", "z", "w"), ("x^3", "x^2*z + y^2*w", "x*y", "y^3"))


def test_check3_passes_on_polynomial_ring():
    R = make_ring(2, ("x", "y"))
    rep = check_principal_intersection(R.ideal([P(R, "x^2+y")]), P(R, "x"), 1)
    assert rep.passed


def test_check3_zero_ideal_trivially_passes(cusp):
    rep = check_principal_intersection(cusp.ideal([]), P(cusp, "y"), 1)
    assert rep.passed


def test_cusp_check3_witness_matches_semigroup_oracle(cusp):
    # oracle computation in F_2[t^2, t^3]: LHS = (x^2)∩(y^2) contains t^6
    # but RHS = ((x)∩(y))^[2] starts at t^10
    sg = CuspSemigroup(bound=30)
    x2, y2 = sg.ideal([4]), sg.ideal([6])
    lhs = sg.intersect(x2, y2)
    meet = sg.intersect(sg.ideal([2]), sg.ideal([3]))
    rhs = sg.bracket(sorted(meet), 2)
    assert 6 in lhs and 6 not in rhs

    rep = check_principal_intersection(cusp.ideal([P(cusp, "x")]), P(cusp, "y"), 1)
    assert not rep.passed
    sep = rep.witness.separator
    # the separator is x^3 up to the cusp relation
    assert cusp.ideal([]).contains(sep - P(cusp, "x^3"))


def test_cusp_check4_sides(cusp):
    I = cusp.ideal([P(cusp, "x")])
    y = P(cusp, "y")
    rep = check_colon(I, y, 1)
    assert not rep.passed
    lhs = bracket_power(I.colon(y), 1)
    rhs = bracket_power(I, 1).colon(y.frobenius_power(1))
    assert lhs == cusp.ideal([P(cusp, "x^2")])
    assert rhs.is_unit


def test_check4_by_unit_passes(cusp):
    I = cusp.ideal([P(cusp, "x")])
    rep = check_colon(I, cusp.ambient.one(), 1)
    assert rep.passed


def test_check2_dual_numbers_all_pairs():
    D = make_ring(2, ("x",), ("x^2",))
    ideals = [D.ideal([]), D.ideal([P(D, "x")]), D.unit_ideal()]
    import itertools

    for a, b in itertools.combinations(ideals, 2):
        for e in (1, 2):
            assert check_intersection_family([a, b], e).passed


def test_check2_counterexample_witness(counterexample):
    I = counterexample.ideal([P(counterexample, "x")])
    J = counterexample.ideal([P(counterexample, "y")])
    rep = check_intersection_family([I, J], 1)
    assert not rep.passed
    assert str(rep.witness.separator) == "x^2*z"
    assert reverify_witness(rep, counterexample)


def test_reverify_rejects_a_separator_in_both_sides(cusp, counterexample):
    C = counterexample
    I, y = cusp.ideal([P(cusp, "x")]), P(cusp, "y")
    reports = [
        (check_principal_intersection(I, y, 1), cusp),
        (check_colon(I, y, 1), cusp),
        (check_intersection_family([C.ideal([P(C, "x")]), C.ideal([P(C, "y")])], 1), C),
    ]
    assert [rep.identity for rep, _ in reports] == [PRINCIPAL_INTERSECTION, COLON, INTERSECTION_FAMILY]
    for rep, ring in reports:
        assert not rep.passed and reverify_witness(rep, ring)
        zero = dataclasses.replace(rep.witness, separator=ring.ambient.zero())
        assert not reverify_witness(dataclasses.replace(rep, witness=zero), ring)


def test_reverify_rejects_an_unknown_identity(cusp):
    rep = check_colon(cusp.ideal([P(cusp, "x")]), P(cusp, "y"), 1)
    with pytest.raises(ValueError, match="unknown identity"):
        reverify_witness(dataclasses.replace(rep, identity="NO_SUCH_IDENTITY"), cusp)


def test_check2_degenerate_family(counterexample):
    I = counterexample.ideal([P(counterexample, "x")])
    assert check_intersection_family([I, I], 1).passed


def test_witness_reverifies(cusp):
    I = cusp.ideal([P(cusp, "x")])
    for rep in (
        check_principal_intersection(I, P(cusp, "y"), 1),
        check_colon(I, P(cusp, "y"), 1),
    ):
        assert not rep.passed
        assert reverify_witness(rep, cusp)


def test_a_witness_of_two_generators_reverifies_with_their_sum(cusp):
    # reverify_witness re-presents I = (g_1, g_2) as (g_2, g_1, g_1 + g_2)
    I, y = cusp.ideal([P(cusp, "x^2"), P(cusp, "x*y")]), P(cusp, "y")
    reports = [check_principal_intersection(I, y, 1), check_colon(I, y, 1)]
    assert [(str(rep.witness.separator), rep.witness.side) for rep in reports] == [("x*y^2", "lhs"), ("x", "rhs")]
    assert all(reverify_witness(rep, cusp) for rep in reports)


def test_reverify_rejects_a_passing_report():
    R = make_ring(2, ("x", "y"))
    rep = check_colon(R.ideal([P(R, "x")]), P(R, "y"), 1)
    assert rep.passed and not reverify_witness(rep, R)


def test_a_family_of_three_folds_left_to_right(counterexample):
    C = counterexample
    family = [C.ideal([P(C, "x")]), C.ideal([P(C, "y")]), C.unit_ideal()]
    rep = check_intersection_family(family, 1)
    assert not rep.passed
    assert (str(rep.witness.separator), rep.witness.side) == ("x^2*z", "rhs")
    assert reverify_witness(rep, C)
    R = make_ring(2, ("x", "y"))
    regular = [R.ideal([P(R, s) for s in gens]) for gens in (["x"], ["y"], ["x+y", "y^2"])]
    assert check_intersection_family(regular, 1).passed
    # the unpacked sides are the public left folds ((I ∩ J) ∩ K)^[q] and (I^[q] ∩ J^[q]) ∩ K^[q]
    for I, J, K in (family, regular):
        lhs, rhs = _SIDES[INTERSECTION_FAMILY][0](I, (J, K), 1)
        assert lhs == bracket_power(I.intersect(J).intersect(K), 1)
        assert rhs == bracket_power(I, 1).intersect(bracket_power(J, 1)).intersect(bracket_power(K, 1))


def test_a_family_of_one_ideal_is_refused(counterexample):
    with pytest.raises(ValueError, match="at least two ideals"):
        check_intersection_family([counterexample.ideal([P(counterexample, "x")])])


def test_a_negative_exponent_is_refused_before_any_work(cusp, monkeypatch):
    runs = []
    core = groebner._buchberger_core
    monkeypatch.setattr(groebner, "_buchberger_core", lambda *a: runs.append(a) or core(*a))
    I, y = cusp.ideal([P(cusp, "x")]), P(cusp, "y")
    # the zero ideal has no generator to raise, and a family check raises
    # none before its eliminations: both refuse e = -1 themselves
    for call in (
        lambda: check_colon(I, y, -1),
        lambda: check_principal_intersection(I, y, -1),
        lambda: check_intersection_family([I, cusp.ideal([y])], -1),
        lambda: bracket_power(cusp.ideal([]), -1),
    ):
        with pytest.raises(ValueError, match="^Frobenius exponent must be nonnegative$"):
            call()
    assert runs == []


def test_a_check_runs_in_its_ideals_ring(cusp):
    # the same generators and element: the identities fail in the cusp and
    # hold in F_2[x,y], and each report names the ring its ideal lives in
    R = make_ring(2, ("x", "y"))
    for chk in (check_colon, check_principal_intersection):
        rep = chk(cusp.ideal([P(cusp, "x")]), P(cusp, "y"), 1)
        assert rep.outcome == "FAIL" and rep.ring == "F_2[x,y]/(x^3 + y^2)"
        assert reverify_witness(rep, cusp)
        # a witness reverifies in an equal ring built apart, never in another
        assert reverify_witness(rep, make_ring(2, ("x", "y"), ("y^2+x^3",)))
        with pytest.raises(RingMismatchError):
            reverify_witness(rep, R)
        rep = chk(R.ideal([P(R, "x")]), P(R, "y"), 1)
        assert rep.outcome == "PASS" and rep.ring == "F_2[x,y]"
    with pytest.raises(RingMismatchError):
        check_intersection_family([cusp.ideal([P(cusp, "x")]), R.ideal([P(R, "y")])], 1)


def test_a_foreign_input_is_refused_before_any_work(cusp, monkeypatch):
    # a polynomial over F_3 and an ideal of F_2[x,y], each against the cusp
    R = make_ring(2, ("x", "y"))
    f = P(make_ring(3, ("x", "y")), "x")
    I, J = cusp.ideal([P(cusp, "x")]), R.ideal([P(R, "y")])
    rep = check_colon(I, P(cusp, "y"), 1)
    refused = {
        "Ideal": lambda: Ideal(cusp, [f]),
        "ideal": lambda: cusp.ideal([f]),
        "contains": lambda: I.contains(f),
        "colon": lambda: I.colon(f),
        "intersect": lambda: I.intersect(J),
        "+": lambda: I + J,
        "<=": lambda: I <= J,
        "colon_ideal": lambda: I.colon_ideal(J),
        "frobenius_closure_test": lambda: frobenius_closure_test(f, I, 2),
        "check_colon": lambda: check_colon(I, f, 1),
        "check_principal_intersection": lambda: check_principal_intersection(I, f, 1),
        "check_intersection_family": lambda: check_intersection_family([I, J], 1),
        "reverify_witness": lambda: reverify_witness(rep, R),
    }
    runs = []
    core = groebner._buchberger_core
    monkeypatch.setattr(groebner, "_buchberger_core", lambda *a: runs.append(a) or core(*a))
    for name, call in refused.items():
        with pytest.raises(RingMismatchError):
            call()
        assert (name, len(runs)) == (name, 0)


def test_scaling_invariance():
    R = make_ring(3, ("x", "y"))
    I = R.ideal([P(R, "x^2+y"), P(R, "x*y")])
    I_scaled = R.ideal([P(R, "2*x^2+2*y"), P(R, "2*x*y")])
    x = P(R, "x+y")
    assert (
        check_principal_intersection(I, x, 1).outcome
        == check_principal_intersection(I_scaled, x, 1).outcome
    )
    assert check_colon(I, x, 1).outcome == check_colon(I_scaled, x, 1).outcome


@st.composite
def theorem_case(draw):
    """A quotient of F_p[up to three variables] by one or two random
    generators (p in {2, 3}, never the unit ideal), two ideals of it and an
    element."""
    p = draw(st.sampled_from((2, 3)))
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    S = PolyRing(PrimeField(p), names)
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    poly = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=2).map(S.poly)
    gens = st.lists(poly, min_size=1, max_size=2)
    try:
        R = QuotientRing(S.field, names, draw(gens))
    except FFrobError:
        assume(False)  # the unit ideal: the ring is trivial
    return R, R.ideal(draw(gens)), R.ideal(draw(gens)), draw(poly)


def corpus_case(qtexts, names):
    """A corpus ring with I = (x), J = (y) and the element y."""
    R = make_ring(2, names, qtexts)
    return R, R.ideal([P(R, "x")]), R.ideal([P(R, "y")]), P(R, "y")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(theorem_case())
@example(corpus_case(("y^2+x^3",), ("x", "y")))  # both element identities fail
@example(corpus_case(("x^3", "x^2*z + y^2*w", "x*y", "y^3"), ("x", "y", "z", "w")))  # the family fails
def test_the_larger_side_contains_the_smaller(case):
    # the Frobenius is a ring map, so for every ring each identity's side
    # that `_SIDES` names as larger contains the other, and J ⊆ φ^-1(J);
    # decided here generator by generator, not by `<=`
    R, I, J, x = case
    for identity, operand in ((PRINCIPAL_INTERSECTION, x), (COLON, x), (INTERSECTION_FAMILY, (J,))):
        build, larger = _SIDES[identity]
        lhs, rhs = build(I, operand, 1)
        big, small = (lhs, rhs) if larger == "lhs" else (rhs, lhs)
        assert all(big.contains(g) for g in small.gens), identity
    Q = R.defining_ideal()
    for K in (Q, Ideal(Q.ring, I.gens + Q.gens)):
        preimage = frobenius_kernel_preimage(K)
        assert all(preimage.contains(g) for g in K.gens)


def test_fedder_examples(cusp):
    assert fedder_is_fpure(make_ring(2, ("x", "y"), ("x*y",)))
    assert not fedder_is_fpure(cusp)
    assert fedder_is_fpure(make_ring(2, ("x", "y")))


def test_fpure_implies_frobenius_closed_on_structured_family():
    R = make_ring(2, ("x", "y"), ("x*y",))
    assert fedder_is_fpure(R)
    # every nonzero F_2-combination of x, y, x^2, xy and y^2
    S = R.ambient
    monos = monomial_pool(S, 2)[1:]
    candidates = [
        S.poly(dict(zip(monos, coeffs)))
        for coeffs in itertools.product(range(2), repeat=len(monos))
        if any(coeffs)
    ]
    assert len(candidates) == 31
    for gens in (["x"], ["y"], ["x", "y"]):
        I = R.ideal([P(R, g) for g in gens])
        for f in candidates:
            if not I.contains(f):
                assert frobenius_closure_test(f, I, 2) == (False, None)


def test_jacobian_oracle(cusp):
    assert jacobian_regularity_oracle(cusp) == SINGULAR
    assert jacobian_regularity_oracle(make_ring(2, ("x", "y"), ("y+x^2",))) == REGULAR
    assert jacobian_regularity_oracle(make_ring(2, ("x",), ("x^2",))) == SINGULAR
    assert jacobian_regularity_oracle(make_ring(2, ("x", "y"))) == REGULAR
    two_gen = make_ring(2, ("x", "y", "z"), ("x*y", "x*z"))
    assert jacobian_regularity_oracle(two_gen) == UNSUPPORTED


def test_sampler_determinism():
    R = make_ring(2, ("x", "y"))
    cfg = SamplerConfig(seed=1)
    assert sample_ideal(R, cfg, 0) == sample_ideal(R, cfg, 0)
    assert sample_polynomial(R, cfg, 3) == sample_polynomial(R, cfg, 3)
    other = sample_ideal(R, SamplerConfig(seed=2), 0)
    mine = sample_ideal(R, cfg, 0)
    assert (mine.gens != other.gens) or mine == other  # different seeds may differ


# sample_ideal / sample_polynomial at seed 7, positions 0-4.  Probe inputs
# are reproducible from a seed only while these hold: each term draws its
# monomial before its coefficient, from the pool in ascending order
_PINNED_SAMPLES = {
    (2, ("x", "y")): (
        [["x^2*y"], ["y^2 + y"], ["x^3 + x*y + y^2", "x"], ["x"], ["x^2 + y^2"]],
        ["x^3", "1", "x^2*y + x*y", "x^2*y", "x^2*y + x*y^2 + 1"],
    ),
    (5, ("x", "y", "z")): (
        [["3*x*y^2"], ["x*z + x"], ["3*x^3 + 3*x*y + 4*x*z", "3*z^2"], ["3*y*z"], ["4*z^3 + y^2"]],
        ["2*x^3", "z", "x*y^2 + 4*x*y", "4*x*y^2", "4*x*y^2 + 2*x*y*z + 2*z"],
    ),
}


@pytest.mark.parametrize("p,names", sorted(_PINNED_SAMPLES))
def test_sampler_draw_sequence_is_pinned(p, names):
    R = make_ring(p, names)
    cfg = SamplerConfig(seed=7)
    ideals, elems = _PINNED_SAMPLES[(p, names)]
    assert [[str(g) for g in sample_ideal(R, cfg, i).gens] for i in range(5)] == ideals
    assert [str(sample_polynomial(R, cfg, i)) for i in range(5)] == elems


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(0, 4),
    st.integers(1, 4),
    st.integers(0, 10**6),
    st.integers(0, 50),
)
def test_sample_polynomial_is_never_zero(p, nvars, max_degree, max_terms, seed, pos):
    R = make_ring(p, ("a", "b", "c")[:nvars])
    cfg = SamplerConfig(seed=seed, max_degree=max_degree, max_terms=max_terms)
    f = sample_polynomial(R, cfg, pos)
    assert not f.is_zero
    assert 1 <= len(f.terms) <= max_terms


def test_sampler_shapes():
    R = make_ring(2, ("x", "y"))
    cfg = SamplerConfig(seed=5, max_degree=2, max_terms=1, max_generators=1)
    for pos in range(10):
        I = sample_ideal(R, cfg, pos)
        assert len(I.gens) <= 1
        for g in I.gens:
            assert len(g.terms) == 1
            assert g.total_degree() <= 2


def test_monomial_pool_is_in_ascending_monomial_order():
    # the sampler draws pool entries by position, so this order fixes its inputs
    pool = monomial_pool(make_ring(2, ("x", "y", "z")).ambient, 3)
    assert len(pool) == 20
    assert pool[:6] == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 2), (0, 1, 1))
    assert pool[-6:] == ((1, 1, 1), (2, 0, 1), (0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0))


def test_monomial_pool_enumerates_only_the_monomials_it_keeps():
    # 14 variables at degree 3 keep 680 of 4^14 exponent tuples: filtering
    # all of them overruns the timeout, enumerating the 680 takes a few ms
    script = (
        "from ffrob import PolyRing, PrimeField\n"
        "from ffrob.poly import monomial_pool\n"
        "S = PolyRing(PrimeField(2), [f'x{i}' for i in range(14)])\n"
        "print(len(set(monomial_pool(S, 3))))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=20)
    assert out.stdout == f"{math.comb(17, 3)}\n"


def test_monomial_pool_is_built_once_per_ring_and_degree():
    cfg = SamplerConfig(seed=3, max_degree=6)
    first = sample_ideal(make_ring(7, ("u", "v", "w")), cfg, 0)
    built = monomial_pool.cache_info()
    # an equal ring built again shares the pool
    assert sample_ideal(make_ring(7, ("u", "v", "w")), cfg, 0) == first
    again = monomial_pool.cache_info()
    assert again.misses == built.misses
    assert again.hits == built.hits + 1


def test_probe_polynomial_ring_finds_nothing():
    R = make_ring(3, ("x", "y"))
    rep = regularity_probe(R, SamplerConfig(seed=1, count=20))
    assert rep.verdict == NO_WITNESS_FOUND
    assert rep.reduced
    assert rep.trials == 20


def test_probe_cusp_structured_family_hits(cusp):
    rep = regularity_probe(cusp, SamplerConfig(seed=1, count=5))
    assert rep.verdict == NOT_REGULAR
    assert rep.trials == 0  # found before the random stage
    assert rep.first_failure.identity in (PRINCIPAL_INTERSECTION, COLON)
    assert reverify_witness(rep.first_failure, cusp)


def test_probe_dual_numbers_annotates_nonreduced():
    # the dual numbers satisfy the intersection identities but, being
    # non-regular, must violate the colon identity: (0 : x) = (x) has
    # zero bracket square while (0 : x^2) = (0 : 0) is everything
    D = make_ring(2, ("x",), ("x^2",))
    rep = regularity_probe(D, SamplerConfig(seed=1, count=10))
    assert rep.verdict == NOT_REGULAR
    assert rep.first_failure.identity == COLON
    assert not rep.reduced
    assert "not reduced" in rep.note
    assert reverify_witness(rep.first_failure, D)


def test_proposition_pipeline_dual_numbers():
    # the principal-intersection identity passes on the full structured
    # family and R_red is F-pure, hence R_red must be regular;
    # R_red = F_2[x]/(x) here
    D = make_ring(2, ("x",), ("x^2",))
    from ffrob.checks import _structured_inputs

    ideals, elems = _structured_inputs(D)
    for I in ideals:
        for x in elems:
            assert check_principal_intersection(I, x, 1).passed
    from ffrob import nilradical_char_p

    N = nilradical_char_p(D).ideal
    R_red = QuotientRing(D.field, D.names, list(N.groebner))
    assert fedder_is_fpure(R_red)
    assert jacobian_regularity_oracle(R_red) == REGULAR


def _replay_probe(ring, config, e_list):
    """regularity_probe's checks in its order, each built on its own by a
    public checker: (verdict, trials, structured checks, first failure)."""
    ideals, elems = _structured_inputs(ring)
    structured = 0
    element_checks = (check_principal_intersection, check_colon)
    for e in e_list:
        for I, x, chk in itertools.product(ideals, elems, element_checks):
            structured += 1
            rep = chk(I, x, e)
            if not rep.passed:
                return NOT_REGULAR, 0, structured, rep
        for pair in itertools.combinations(ideals, 2):
            structured += 1
            rep = check_intersection_family(pair, e)
            if not rep.passed:
                return NOT_REGULAR, 0, structured, rep
    for pos in range(config.count):
        I, x = sample_ideal(ring, config, pos), sample_polynomial(ring, config, pos)
        for e, chk in itertools.product(e_list, element_checks):
            rep = chk(I, x, e)
            if not rep.passed:
                return NOT_REGULAR, pos + 1, structured, rep
    return NO_WITNESS_FOUND, config.count, structured, None


_PROBE_RINGS = {
    "F_2[x,y,z]": (2, ("x", "y", "z"), ()),
    "F_3[x,y,z]": (3, ("x", "y", "z"), ()),
    "cusp": (2, ("x", "y"), ("y^2+x^3",)),
    "dual numbers": (2, ("x",), ("x^2",)),
    "counterexample": (2, ("x", "y", "z", "w"), ("x^3", "x^2*z + y^2*w", "x*y", "y^3")),
}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(_PROBE_RINGS)),
    st.integers(1, 10**6),
    st.integers(0, 8),
    st.integers(1, 3),
    st.sampled_from([(1,), (1, 2)]),
)
def test_probe_sharing_changes_no_answer(name, seed, count, max_degree, e_list):
    # the probe builds both element identities of one (I, x, e) from one
    # pair of eliminations; checking each identity on its own must agree
    ring = make_ring(*_PROBE_RINGS[name])
    config = SamplerConfig(seed=seed, count=count, max_degree=max_degree)
    report = regularity_probe(ring, config, e_list)
    verdict, trials, structured, failure = _replay_probe(ring, config, e_list)
    expected = ProbeReport(verdict, ring.describe(), is_reduced(ring), trials, structured, failure, report.note)
    assert report.to_dict() == expected.to_dict()
    if failure is not None:
        assert reverify_witness(report.first_failure, ring)


@pytest.mark.parametrize("e_list", [(), (0,), (1, 0), (-1, 1), range(0, 3)], ids=repr)
def test_probe_refuses_exponents_below_one_before_any_work(e_list, monkeypatch):
    # an empty e_list would run no check; is_reduced is the probe's first
    # piece of work
    calls = []
    monkeypatch.setattr(checks, "is_reduced", calls.append)
    with pytest.raises(ValueError, match="e >= 1"):
        regularity_probe(QuotientRing(PrimeField(2), ("x", "y")), SamplerConfig(count=3), e_list)
    assert calls == []


def test_a_probe_that_would_run_no_check_raises_before_any_work(monkeypatch):
    # no variables means no structured inputs, and count 0 means no trials
    ring = QuotientRing(PrimeField(2), ())
    calls = []
    monkeypatch.setattr(checks, "is_reduced", calls.append)
    with pytest.raises(ValueError, match="would run no check"):
        regularity_probe(ring, SamplerConfig(count=0))
    assert calls == []
    monkeypatch.undo()
    # one trial is one check: its sampled element is a constant
    report = regularity_probe(ring, SamplerConfig(count=1))
    assert (report.verdict, report.trials, report.structured_checks) == (NO_WITNESS_FOUND, 1, 0)


def test_a_one_shot_e_list_serves_every_trial(monkeypatch):
    # F_2[x] has two structured (I, x) inputs and here two trials, each
    # checked at every e of e_list, even when e_list can be iterated once
    seen = []
    element_checks = checks._element_checks

    def recording(I, x, e):
        seen.append(e)
        return element_checks(I, x, e)

    monkeypatch.setattr(checks, "_element_checks", recording)
    report = regularity_probe(QuotientRing(PrimeField(2), ("x",)), SamplerConfig(count=2), iter((1,)))
    assert (report.verdict, seen) == (NO_WITNESS_FOUND, [1] * 4)


@pytest.mark.parametrize("names", [(), ("x", "y")], ids=["no variables", "F_2[x,y]"])
@pytest.mark.parametrize("count", [-1, -3])
def test_a_negative_trial_count_raises_before_any_work(names, count, monkeypatch):
    # -1 is truthy, so on a ring without variables it passed the "would run
    # no check" guard; either way the report claimed trials=count from no trial
    calls = []
    monkeypatch.setattr(checks, "is_reduced", calls.append)
    with pytest.raises(ValueError, match="count >= 0"):
        regularity_probe(QuotientRing(F2, names), SamplerConfig(count=count))
    assert calls == []


@st.composite
def element_case(draw):
    """(I, x, e) over F_p[up to three variables], p in {2, 3, 5}, or over
    its quotient by one or two generators, e in {0, 1, 2}; x is drawn
    among 0, the constants, Q's generators and other polynomials."""
    p = draw(st.sampled_from((2, 3, 5)))
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    S = PolyRing(PrimeField(p), names)
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    poly = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=2).map(S.poly)
    qgens = draw(st.lists(poly, max_size=2))
    try:
        R = QuotientRing(S.field, names, qgens)
    except FFrobError:
        assume(False)  # the unit ideal: the ring is trivial
    special = [S.zero(), S.constant(draw(st.integers(1, p - 1)))] + qgens
    x = draw(st.one_of(poly, st.sampled_from(special)))
    return R.ideal(draw(st.lists(poly, min_size=1, max_size=2))), x, draw(st.integers(0, 2))


def _named_case(names, qtexts, gens, x, e):
    """(I, x, e) over F_2[names]/(qtexts), from the texts of I's generators and x."""
    R = make_ring(2, names, qtexts)
    return R.ideal([P(R, g) for g in gens]), P(R, x), e


_CUSP_CASE = (("x", "y"), ("y^2+x^3",), ("x",), "y")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(element_case())
@example(_named_case(*_CUSP_CASE, 1))  # both identities fail
@example(_named_case(*_CUSP_CASE, 2))
@example(_named_case(("x",), ("x^2",), (), "x", 1))  # the colon fails, one generator a side
@example(_named_case(*_CUSP_CASE[:3], "0", 2))  # (A : 0) is the unit ideal
@example(_named_case(*_CUSP_CASE[:3], "1", 2))
@example(_named_case(*_CUSP_CASE[:3], "y^2+x^3", 1))  # x in Q
def test_packed_element_sides_match_the_public_operations(case):
    # the probe's sides, unpacked, are the public operations' generators, and
    # each element check answers as those operations decide the containment
    I, x, e = case
    R = I.ring
    xq, Iq = x.frobenius_power(e), bracket_power(I, e)
    A, B = I.intersect(R.ideal([x])), Iq.intersect(R.ideal([xq]))
    public = {
        PRINCIPAL_INTERSECTION: (check_principal_intersection, (B, bracket_power(A, e)), "lhs"),
        COLON: (check_colon, (bracket_power(I.colon(x), e), Iq.colon(xq)), "rhs"),
    }
    L, *packed = checks._element_sides(I, x, e)
    for (check, sides, larger), pair in zip(public.values(), packed):
        assert [L.ideal(s).gens for s in pair] == [J.gens for J in sides]
        big, small = sides if larger == "lhs" else sides[::-1]
        sep = next((g for g in big.groebner if not small.contains(g)), None)
        rep = check(I, x, e)
        assert rep.outcome == ("PASS" if sep is None else "FAIL")
        assert (rep.witness and rep.witness.separator) == sep
        assert rep.witness is None or rep.witness.side == larger


@settings(max_examples=60, deadline=None, derandomize=True)
@given(element_case())
@example(_named_case(("x",), ("x^2",), (), "x", 1))  # the principal check passes on unequal sides
def test_element_checks_report_as_the_two_checks(case):
    # the probe's element checks skip the colon's division when the principal
    # sides are equal lists, and report what each check reports alone
    I, x, e = case
    reports = list(checks._element_checks(I, x, e))
    assert reports == [check_principal_intersection(I, x, e), check_colon(I, x, e)]


def test_a_passing_probe_divides_nothing(monkeypatch):
    # equal principal sides give equal colon sides, so a passing probe never
    # divides by x^q; a failing colon check does
    divided = []
    divexact = groebner._divexact

    def counting(*args):
        divided.append(args)
        return divexact(*args)

    for module in (groebner, ideals):
        monkeypatch.setattr(module, "_divexact", counting)
    rep = regularity_probe(QuotientRing(F2, ("x", "y")), SamplerConfig(seed=1, count=20))
    assert (rep.verdict, divided) == (NO_WITNESS_FOUND, [])
    assert not check_colon(*_named_case(*_CUSP_CASE, 1)).passed
    assert divided


def test_the_packed_frobenius_keeps_the_exponent_budget():
    # x^(2^31) and a generator of that degree overflow at q = 2, with the
    # message of Polynomial.frobenius_power; x^(2^31-1)*y^(2^31-1) has degree
    # times q past 2^32 but every exponent below it, so it is unpacked and passes
    R = make_ring(2, ("x", "y"))
    S = R.ambient
    x, y = S.variables()
    big = S.poly({(2**31, 0): 1})
    message = r"^exponent 2147483648 \* 2\^1 exceeds 2\^32 in Frobenius power$"
    with pytest.raises(ExponentOverflowError, match=message):
        check_colon(R.ideal([x]), big, 1)
    with pytest.raises(ExponentOverflowError, match=message):
        check_colon(R.ideal([big]), y, 1)
    edge = S.poly({(2**31 - 1, 2**31 - 1): 1})
    assert check_colon(R.ideal([x]), edge, 1).passed
    assert check_principal_intersection(R.ideal([x]), edge, 1).passed


def test_a_passing_probe_unpacks_nothing(monkeypatch):
    # both sides of a passing check present the same packed generators, so
    # no monomial of the probe is unpacked; a failing check is
    unpacked = []
    unpack = poly._Packing.unpack
    monkeypatch.setattr(poly._Packing, "unpack", lambda pk, m: unpacked.append(m) or unpack(pk, m))
    rep = regularity_probe(QuotientRing(F2, ("x", "y")), SamplerConfig(seed=1, count=20))
    assert (rep.verdict, unpacked) == (NO_WITNESS_FOUND, [])
    assert not check_colon(*_named_case(*_CUSP_CASE, 1)).passed
    assert unpacked


def _load_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    # the benchmark's tracer patches these by module attribute, so a rename
    # in ffrob must fail here rather than only in a traced benchmark run
    tracer = _load_tracer()
    for mod, attr_path in tracer.SPANNED + tracer.COUNTED:
        module = importlib.import_module(f"ffrob.{mod}")
        owner, _, attr = attr_path.rpartition(".")
        if owner:
            assert attr in vars(getattr(module, owner)), f"{mod}.{attr_path}"
        else:
            assert callable(getattr(module, attr)), f"{mod}.{attr_path}"
