import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrob import (
    Ideal,
    FFrobError,
    MonomialOrder,
    PolyRing,
    PrimeField,
    QuotientRing,
    RingMismatchError,
    fedder_is_fpure,
    is_reduced,
    jacobian_regularity_oracle,
    nilradical_char_p,
    parse_polynomial,
    poly_ideal_intersect,
)
from ffrob import groebner
from ffrob.groebner import poly_divexact

from oracles import CuspSemigroup

F2 = PrimeField(2)


def ring2():
    return QuotientRing(F2, ("x", "y"))


def P(ring, text):
    return parse_polynomial(text, ring.ambient)


@pytest.fixture
def cusp():
    plain = QuotientRing(F2, ("x", "y"))
    return QuotientRing(F2, ("x", "y"), [P(plain, "y^2+x^3")])


@pytest.fixture
def counterexample():
    plain = QuotientRing(F2, ("x", "y", "z", "w"))
    qgens = [P(plain, s) for s in ("x^3", "x^2*z + y^2*w", "x*y", "y^3")]
    return QuotientRing(F2, ("x", "y", "z", "w"), qgens)


def test_unit_quotient_rejected():
    plain = QuotientRing(F2, ("x",))
    with pytest.raises(FFrobError):
        QuotientRing(F2, ("x",), [P(plain, "x+1"), P(plain, "x")])


def test_quotient_generator_from_another_ring_rejected():
    lex = PolyRing(F2, ("x", "y"), MonomialOrder.lex())
    with pytest.raises(RingMismatchError):
        QuotientRing(F2, ("x", "y"), [parse_polynomial("y^2+x^3", lex)])


def test_generators_are_read_once(cusp):
    # an iterator of generators is read once, by the ring check and the
    # zero filter alike
    plain = ring2()
    R = QuotientRing(F2, ("x", "y"), (g for g in [P(plain, "y^2+x^3")]))
    assert R == cusp and not R.is_polynomial_ring
    assert R.ideal(g for g in [P(R, "x")]).gens == (P(R, "x"),)


def test_equal_ideals_hash_equal():
    plain = QuotientRing(F2, ("x", "y", "z", "w"))
    R = QuotientRing(F2, ("x", "y", "z", "w"), [P(plain, "x^2")])
    I, J = R.ideal([P(R, "x"), P(R, "y")]), R.ideal([P(R, "y"), P(R, "x+y")])
    assert I == J and hash(I) == hash(J)


def test_membership_examples(cusp):
    R1 = QuotientRing(F2, ("x",))
    assert R1.ideal([P(R1, "x")]).contains(P(R1, "x^2"))
    R = ring2()
    assert not R.ideal([P(R, "x")]).contains(P(R, "y"))
    # x^3 = y^2 mod the cusp relation, and y^2 generates with x^2
    I = cusp.ideal([P(cusp, "x^2")])
    assert I.contains(P(cusp, "x^3"))


def test_membership_ring_mismatch(cusp):
    other = QuotientRing(F2, ("a", "b"))
    with pytest.raises(RingMismatchError):
        cusp.ideal([P(cusp, "x")]).contains(P(other, "a"))


def test_equality_examples(counterexample):
    R = ring2()
    assert R.ideal([P(R, "x"), P(R, "y")]) == R.ideal([P(R, "x+y"), P(R, "y")])
    assert R.ideal([P(R, "x")]) != R.ideal([P(R, "x^2")])
    # ((x) ∩ (y))^[2] = 0 in the counterexample ring
    meet = counterexample.ideal([P(counterexample, "x")]).intersect(
        counterexample.ideal([P(counterexample, "y")])
    )
    squared = Ideal(counterexample, [g.frobenius_power(1) for g in meet.gens])
    assert squared == counterexample.ideal([])


def test_sum_examples():
    R = ring2()
    x, y = P(R, "x"), P(R, "y")
    assert R.ideal([x]) + R.ideal([y]) == R.ideal([x, y])
    I = R.ideal([x])
    assert I + R.ideal([]) == I
    assert R.ideal([x]) + R.ideal([P(R, "x^2")]) == R.ideal([x])


def test_intersect_examples(counterexample):
    R = ring2()
    assert R.ideal([P(R, "x")]).intersect(R.ideal([P(R, "y")])) == R.ideal(
        [P(R, "x*y")]
    )
    I = counterexample.ideal([P(counterexample, "x")])
    J = counterexample.ideal([P(counterexample, "y")])
    assert I.intersect(J) == counterexample.ideal([P(counterexample, "x^2*z")])
    assert I.intersect(I) == I


def test_colon_examples():
    R = ring2()
    assert R.ideal([P(R, "x^2")]).colon(P(R, "x")) == R.ideal([P(R, "x")])
    I = R.ideal([P(R, "x^2"), P(R, "x*y")])
    assert I.colon(R.ambient.one()) == I


def test_colon_on_cusp_matches_semigroup_oracle(cusp):
    # R = F_2[t^2, t^3]; (x)+Q : y computed degree by degree in t
    sg = CuspSemigroup(bound=30)
    ideal_x = sg.ideal([sg.xy_exponent(1, 0)])
    colon_by_y = sg.colon(ideal_x, sg.xy_exponent(0, 1))
    expected_exponents = sg.ideal([sg.xy_exponent(1, 0), sg.xy_exponent(0, 1)])
    # compare below the truncation horizon of the colon computation
    horizon = sg.bound - sg.xy_exponent(0, 1)
    assert {k for k in colon_by_y if k <= horizon} == {
        k for k in expected_exponents if k <= horizon
    }  # (x, y), the maximal ideal
    ours = cusp.ideal([P(cusp, "x")]).colon(P(cusp, "y"))
    assert ours == cusp.ideal([P(cusp, "x"), P(cusp, "y")])


def test_colon_by_zero_divisor_and_zero():
    D = QuotientRing(F2, ("x",), [parse_polynomial("x^2", QuotientRing(F2, ("x",)).ambient)])
    x = P(D, "x")
    # x*x = 0 in D, so (0 : x) = (x) and (I : 0) is everything
    assert D.ideal([]).colon(x) == D.ideal([x])
    assert D.ideal([x]).colon(D.ambient.zero()).is_unit


def test_colon_by_zero_runs_no_elimination(monkeypatch):
    # (I : 0) is the unit ideal whatever I ∩ (0) is, so it is never
    # eliminated; an x of another ring is refused first, zero or not
    R = ring2()
    I = R.ideal([P(R, "x*y"), P(R, "y^2")])
    runs = []
    core = groebner._buchberger_core
    monkeypatch.setattr(groebner, "_buchberger_core", lambda *a: runs.append(a) or core(*a))
    assert I.colon(R.ambient.zero()).gens == (R.ambient.one(),)
    other = PolyRing(F2, ("x", "y", "z"))
    for x in (other.zero(), other.variable(0)):
        with pytest.raises(RingMismatchError):
            I.colon(x)
    assert runs == []


def test_colon_generators_multiply_back(cusp):
    I = cusp.ideal([P(cusp, "x^2"), P(cusp, "x*y")])
    x = P(cusp, "y")
    C = I.colon(x)
    for g in C.groebner:
        assert I.contains(g * x)


def test_representation_invariance(cusp):
    I = cusp.ideal([P(cusp, "x^2"), P(cusp, "x*y")])
    J = cusp.ideal([P(cusp, "x*y"), P(cusp, "x^2"), P(cusp, "x^3 + x*y")])
    assert I == J
    K = cusp.ideal([P(cusp, "y")])
    assert I.intersect(K) == J.intersect(K)
    assert I.colon(P(cusp, "y")) == J.colon(P(cusp, "y"))


def small_ideals(ring, max_gens=2):
    term = st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), st.just(1)
    )
    poly = st.lists(term, min_size=1, max_size=2).map(
        lambda ts: ring.ambient.poly({m: c for m, c in ts})
    )
    return st.lists(poly, min_size=1, max_size=max_gens).map(
        lambda gs: ring.ideal(gs)
    )


R_PROP = ring2()


@settings(max_examples=30, deadline=None)
@given(small_ideals(R_PROP), small_ideals(R_PROP), small_ideals(R_PROP))
def test_intersection_laws_random(I, J, K):
    assert I.intersect(J) == J.intersect(I)
    assert I.intersect(J).intersect(K) == I.intersect(J.intersect(K))
    # modular law: I ⊆ K implies I + (J ∩ K) = (I + J) ∩ K
    IK = I.intersect(K)
    assert IK + (J.intersect(K)) == (IK + J).intersect(K)


@settings(max_examples=30, deadline=None)
@given(small_ideals(R_PROP), small_ideals(R_PROP))
def test_intersection_contained_in_both(I, J):
    meet = I.intersect(J)
    assert meet + I == I
    assert meet + J == J


@st.composite
def quotient_case(draw):
    """F_p[x,y,z]/Q with p in {2, 3}, two ideals of it and an element.

    No polynomial drawn has a constant term, so Q is never the unit ideal."""
    p = draw(st.sampled_from((2, 3)))
    S = PolyRing(PrimeField(p), ("x", "y", "z"))
    exps = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)).filter(any)
    poly = st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=2).map(S.poly)
    gens = st.lists(poly, min_size=1, max_size=2)
    R = QuotientRing(S.field, S.names, draw(gens))
    return R, R.ideal(draw(gens)), R.ideal(draw(gens)), draw(poly)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(quotient_case())
def test_one_sided_quotient_matches_two_sided_formulas(case):
    # Q joins only I's side of an intersection; the lifts must still equal
    # those of the two-sided elimination (I+Q) ∩ (J+Q), and of the colon
    # computed as (I+Q) ∩ (x), divided by x
    R, I, J, x = case
    S, q = R.ambient, list(R.quotient_gens)
    two_sided = Ideal(R, poly_ideal_intersect(S, list(I.gens) + q, list(J.gens) + q))
    assert I.intersect(J) == two_sided
    meet = poly_ideal_intersect(S, list(I.gens) + q, [x])
    assert I.colon(x) == Ideal(R, [poly_divexact(g, x) for g in meet])


def test_containment_across_rings_is_refused(cusp):
    plain = ring2()
    with pytest.raises(RingMismatchError):
        plain.ideal([P(plain, "x")]) <= cusp.ideal([P(cusp, "x")])


def test_containment_examples(cusp):
    I = cusp.ideal([P(cusp, "x^2"), P(cusp, "x*y")])
    assert I <= cusp.ideal([P(cusp, "x")])
    assert not cusp.ideal([P(cusp, "x")]) <= I
    # y^2 = x^3 in the cusp, so (y^2) lies in (x)
    assert cusp.ideal([P(cusp, "y^2")]) <= cusp.ideal([P(cusp, "x")])
    assert cusp.ideal([]) <= I <= cusp.unit_ideal()


@settings(max_examples=15, deadline=None, derandomize=True)
@given(quotient_case())
def test_containment_both_ways_is_equality(case):
    R, I, J, x = case
    assert (I <= J and J <= I) == (I == J)
    assert I <= I + J and J <= I + J
    assert (I + J <= I) == (J <= I)
    again = Ideal(R, list(reversed(I.gens)) + [x * g for g in I.gens])
    assert again <= I and I <= again and again == I


def test_a_quotient_ring_has_one_cover_and_one_q(cusp, monkeypatch):
    assert cusp.cover() is cusp.cover()
    assert cusp.cover().cover() is cusp.cover()
    assert cusp.defining_ideal() is cusp.defining_ideal()
    plain = ring2()
    assert plain.cover() is plain and plain.is_polynomial_ring
    # two polynomial rings built apart are equal, without recursing
    # through Q, whose ring each one is
    assert plain == ring2() and hash(plain) == hash(ring2())
    F3 = PrimeField(3)
    S = PolyRing(F3, ("x", "y"))
    f, twice = parse_polynomial("y^2 - x^3", S), parse_polynomial("2*y^2 - 2*x^3", S)
    R, R2 = QuotientRing(F3, ("x", "y"), [f]), QuotientRing(F3, ("x", "y"), [twice])
    assert R == R2 and hash(R) == hash(R2)
    # Q's basis is computed once, when the ring is built, and every
    # question about Q reads it
    inputs = []
    core = groebner._buchberger_core

    def recording_core(works, field, pk):
        inputs.append([dict(w) for w in works])
        return core(works, field, pk)

    monkeypatch.setattr(groebner, "_buchberger_core", recording_core)
    R = QuotientRing(F3, ("x", "y"), [f])
    answers = is_reduced(R), fedder_is_fpure(R), nilradical_char_p(R).steps, jacobian_regularity_oracle(R)
    assert answers == (True, False, 0, "SINGULAR")
    pk = R.ambient.packing
    assert inputs.count([dict(pk.terms(f.terms))]) == 1
