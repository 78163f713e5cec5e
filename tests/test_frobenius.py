import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrob import (
    PrimeField,
    QuotientRing,
    UnsupportedOperationError,
    bracket_power,
    frobenius_closure_test,
    frobenius_kernel_preimage,
    frobenius_root,
    is_reduced,
    nilradical_char_p,
    parse_polynomial,
)

from oracles import mono_ideal_subset, monomial_antichains

F2 = PrimeField(2)
F3 = PrimeField(3)


def P(ring, text):
    return parse_polynomial(text, ring.ambient)


def make_ring(p, names, qtexts=()):
    field = PrimeField(p)
    plain = QuotientRing(field, names)
    return QuotientRing(field, names, [P(plain, s) for s in qtexts])


@pytest.fixture
def counterexample():
    return make_ring(2, ("x", "y", "z", "w"), ("x^3", "x^2*z + y^2*w", "x*y", "y^3"))


@pytest.fixture
def dual():
    return make_ring(2, ("x",), ("x^2",))


@pytest.fixture
def cusp():
    return make_ring(2, ("x", "y"), ("y^2+x^3",))


def test_bracket_power_examples(counterexample):
    R3 = make_ring(3, ("x", "y", "z"))
    I = R3.ideal([P(R3, "x+y"), P(R3, "z")])
    assert bracket_power(I, 1) == R3.ideal([P(R3, "x^3+y^3"), P(R3, "z^3")])
    assert bracket_power(I, 0) == I
    meet = counterexample.ideal([P(counterexample, "x^2*z")])
    assert bracket_power(meet, 1) == counterexample.ideal([])


def test_bracket_power_generating_set_independence():
    R = make_ring(2, ("x", "y"))
    I = R.ideal([P(R, "x^2+y"), P(R, "x*y")])
    J = R.ideal([P(R, "x*y"), P(R, "x^2+y"), P(R, "x^3+x*y+x^2*y")])
    assert I == J
    for e in (1, 2):
        assert bracket_power(I, e) == bracket_power(J, e)


def test_bracket_power_composes():
    R = make_ring(2, ("x", "y"))
    I = R.ideal([P(R, "x+y^2"), P(R, "y^3")])
    assert bracket_power(bracket_power(I, 1), 2) == bracket_power(I, 3)


def test_frobenius_root_examples():
    R = make_ring(2, ("x", "y"))
    assert frobenius_root(R.ideal([P(R, "x^3")]), 1) == R.ideal([P(R, "x")])
    assert frobenius_root(R.ideal([P(R, "x^2*y^2")]), 1) == R.ideal([P(R, "x*y")])
    assert frobenius_root(R.ideal([P(R, "x^3+y^3")]), 1) == R.ideal(
        [P(R, "x"), P(R, "y")]
    )


def test_frobenius_root_requires_polynomial_ambient(dual):
    with pytest.raises(UnsupportedOperationError):
        frobenius_root(dual.ideal([P(dual, "x")]), 1)


def small_ideals(ring, max_deg=3):
    term = st.tuples(
        st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)), st.just(1)
    )
    poly = st.lists(term, min_size=1, max_size=2).map(
        lambda ts: ring.ambient.poly({m: c for m, c in ts})
    )
    return st.lists(poly, min_size=1, max_size=2).map(lambda gs: ring.ideal(gs))


R2 = make_ring(2, ("x", "y"))


@settings(max_examples=30, deadline=None)
@given(small_ideals(R2), small_ideals(R2))
def test_frobenius_root_adjunction(I, J):
    # I ⊆ J^[2]  ⟺  I^[1/2] ⊆ J
    J2 = bracket_power(J, 1)
    lhs = I + J2 == J2  # A ⊆ B iff A + B == B
    rhs = frobenius_root(I, 1) + J == J
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(small_ideals(R2))
def test_root_undoes_bracket_power(J):
    assert frobenius_root(bracket_power(J, 1), 1) == J


def test_monomial_root_against_staircase_enumeration():
    # full enumeration of monomial ideals with generators of degree <= 2
    family = monomial_antichains(2, 2)
    I_gens = [(3, 0), (1, 2)]
    I = R2.ideal([R2.ambient.poly({m: 1}) for m in I_gens])
    root = frobenius_root(I, 1)
    root_gens = [g.leading_monomial for g in root.groebner]
    admissible = [
        J
        for J in family
        if mono_ideal_subset(
            I_gens, [tuple(2 * b for b in g) for g in J]
        )
    ]
    assert any(set(J) == set(root_gens) for J in admissible)
    for J in admissible:
        assert mono_ideal_subset(root_gens, J)


def test_kernel_preimage_examples():
    R1 = make_ring(2, ("x",))
    assert frobenius_kernel_preimage(R1.ideal([P(R1, "x^2")])) == R1.ideal(
        [P(R1, "x")]
    )
    cusp_poly = R2.ideal([P(R2, "y^2+x^3")])
    assert frobenius_kernel_preimage(cusp_poly) == cusp_poly
    assert frobenius_kernel_preimage(R2.ideal([])) == R2.ideal([])


def test_kernel_preimage_contains_input():
    J = R2.ideal([P(R2, "x^2*y"), P(R2, "y^4")])
    K = frobenius_kernel_preimage(J)
    assert J + K == K
    for g in K.groebner:
        assert J.contains(g.frobenius_power(1))


def test_nilradical_examples(dual, counterexample, cusp):
    assert nilradical_char_p(dual).ideal == dual.ideal([P(dual, "x")])
    res = nilradical_char_p(counterexample)
    assert res.ideal == counterexample.ideal(
        [P(counterexample, "x"), P(counterexample, "y")]
    )
    assert nilradical_char_p(cusp).ideal == cusp.ideal([P(cusp, "y^2+x^3")])


def test_nilradical_idempotent_and_bracket_bound(dual, counterexample):
    for ring in (dual, counterexample):
        res = nilradical_char_p(ring)
        N = res.ideal
        as_quotient = QuotientRing(ring.field, ring.names, list(N.groebner))
        again = nilradical_char_p(as_quotient)
        assert again.steps == 0
        Q = ring.ideal([])
        B = bracket_power(ring.ideal(list(N.groebner)), res.steps)
        assert B + Q == Q


def test_is_reduced_verdicts(dual, cusp):
    assert is_reduced(R2)
    assert not is_reduced(dual)
    assert is_reduced(make_ring(2, ("x", "y"), ("x*y",)))
    assert is_reduced(cusp)


def test_frobenius_closure_examples(dual):
    x = P(dual, "x")
    assert frobenius_closure_test(x, dual.ideal([]), 2) == (True, 1)
    assert frobenius_closure_test(P(R2, "y"), R2.ideal([P(R2, "x")]), 4) == (
        False,
        None,
    )
    I = R2.ideal([P(R2, "x^2+y")])
    assert frobenius_closure_test(P(R2, "x^2+y"), I, 3) == (True, 0)
    # in four variables, x and x + y are nilpotent of order 2 mod (x^2) and
    # (x^2 + y^2): each is in the Frobenius closure of (0) at e = 1
    for q, witness in (("x^2", "x"), ("x^2+y^2", "x+y")):
        R = make_ring(2, ("x", "y", "z", "w"), (q,))
        assert frobenius_closure_test(P(R, witness), R.ideal([]), 1) == (True, 1)


def test_frobenius_closure_monotone_and_shortcut(dual):
    x = P(dual, "x")
    Z = dual.ideal([])
    hit, e = frobenius_closure_test(x, Z, 4)
    assert hit and e == 1
    # once it holds at e it holds at every larger exponent up to the bound
    for ee in range(e, 5):
        assert bracket_power(Z, ee).contains(x.frobenius_power(ee))


