import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ffrob import (
    FFrobError,
    PolyRing,
    PrimeField,
    QuotientRing,
    UnsupportedOperationError,
    bracket_power,
    fedder_is_fpure,
    frobenius,
    frobenius_closure_test,
    frobenius_kernel_preimage,
    frobenius_root,
    groebner,
    ideals,
    is_reduced,
    nilradical_char_p,
    parse_polynomial,
    poly,
)
from ffrob.frobenius import _is_complete_intersection, closure_search_bound

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


def test_frobenius_exponents_out_of_range_are_refused():
    R = make_ring(2, ("x", "y"))
    x = P(R, "x")
    I = R.ideal([x])
    for call in (
        lambda: bracket_power(I, -1),
        lambda: frobenius_root(I, 0),
        lambda: closure_search_bound(x, I, -1),
    ):
        with pytest.raises(ValueError):
            call()


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


def test_kernel_preimage_requires_polynomial_ambient(dual):
    with pytest.raises(UnsupportedOperationError):
        frobenius_kernel_preimage(dual.ideal([P(dual, "x")]))


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


def test_closure_search_bound_of_constants_is_0():
    # every e asks whether c^(p^e) = c lies in I^[p^e]: the same question
    R = make_ring(3, ("x", "y"))
    assert closure_search_bound(P(R, "2"), R.ideal([P(R, "1")]), 5) == 0
    assert closure_search_bound(P(R, "2"), R.ideal([]), 5) == 0
    assert closure_search_bound(P(R, "x"), R.ideal([]), 5) == 5


def test_frobenius_closure_monotone_and_shortcut(dual):
    x = P(dual, "x")
    Z = dual.ideal([])
    hit, e = frobenius_closure_test(x, Z, 4)
    assert hit and e == 1
    # once it holds at e it holds at every larger exponent up to the bound
    for ee in range(e, 5):
        assert bracket_power(Z, ee).contains(x.frobenius_power(ee))


# --- complete intersections, decided from their equations -----------------


def general_answers(R):
    """is_reduced and fedder_is_fpure by their general containments,
    φ^-1(Q) ⊆ Q and (Q^[p] : Q) ⊄ m^[p]."""
    Q = R.defining_ideal()
    reduced = frobenius_kernel_preimage(Q) <= Q
    m_p = Q.ring.ideal([v.frobenius_power(1) for v in R.ambient.variables()])
    return reduced, not bracket_power(Q, 1).colon_ideal(Q) <= m_p


def _record_eliminations(mp):
    """Count every elimination from here on: the kernel preimage's own, and
    the intersections' under the Fedder colon."""
    calls = []
    eliminated = groebner._eliminated

    def counting(*args):
        calls.append(args)
        return eliminated(*args)

    mp.setattr(groebner, "_eliminated", counting)
    mp.setattr(frobenius, "_eliminated", counting)
    return calls


XYZW = ("x", "y", "z", "w")


@pytest.mark.parametrize(
    "p,names,gens,ci",
    [
        (5, XYZW, ("x*y - z*w", "x^2 - y*w"), True),
        (5, XYZW, ("x*z - y^2", "x*w - y*z", "y*w - z^2"), False),  # codim 2
        (5, ("a", "b", "c", "d", "e", "f"), ("a*e - b*d", "a*f - c*d", "b*f - c*e"), False),
        (5, ("x", "y", "z"), ("x^2 - x", "x*y"), False),  # codim 1
        (5, ("x", "y", "z"), ("x^2",), True),
        (5, ("x", "y", "z"), ("(x+y)^2", "z"), True),
        (5, ("x", "y", "z"), (), True),
    ],
    ids=["highp", "twisted-cubic", "2x3-minors", "plane-and-line", "x^2", "(x+y)^2,z", "zero"],
)
def test_complete_intersection_on_named_rings(p, names, gens, ci):
    Q = make_ring(p, names, gens).defining_ideal()
    assert len(Q.gens) == len(gens)
    assert _is_complete_intersection(Q) is ci


def test_a_complete_intersection_runs_no_elimination(monkeypatch, cusp, dual):
    def refuse(*args):
        raise AssertionError("eliminated on a complete intersection")

    monkeypatch.setattr(groebner, "_eliminated", refuse)
    monkeypatch.setattr(frobenius, "_eliminated", refuse)
    rings = [
        (make_ring(5, XYZW, ("x*y - z*w", "x^2 - y*w")), (True, False)),
        (make_ring(5, ("x", "y", "z"), ("x^2",)), (False, False)),
        (make_ring(5, ("x", "y", "z"), ("(x+y)^2", "z")), (False, False)),
        (make_ring(2, ("x", "y"), ("x*y",)), (True, True)),
        (cusp, (True, False)),
        (dual, (False, False)),
        (R2, (True, True)),
    ]
    for R, answers in rings:
        assert (is_reduced(R), fedder_is_fpure(R)) == answers, R


def test_fedder_on_the_fermat_cubic_follows_p_mod_3(monkeypatch):
    # (x^3 + y^3 + z^3)^(p-1) has a term with every exponent below p only
    # at x^(p-1) y^(p-1) z^(p-1), whose multinomial coefficient is a unit:
    # the cone over the Fermat cubic is F-pure exactly when p ≡ 1 mod 3
    calls = _record_eliminations(monkeypatch)
    for p in (2, 3, 5, 7, 11, 13, 31, 37, 101, 103):
        R = make_ring(p, ("x", "y", "z"), ("x^3 + y^3 + z^3",))
        assert fedder_is_fpure(R) is (p % 3 == 1), p
    assert not calls


def test_rings_that_are_not_complete_intersections_take_the_general_path():
    # (x^2 - x, xy) is a plane and a disjoint line: reduced, and regular at
    # the origin, where only the plane passes.  The ideal of its two
    # generators has codimension 1, and on them the shortcuts would answer
    # (False, False): the 2x2 minors vanish on the plane, and every term of
    # ((x^2 - x)xy)^4 has x^8.
    for names, gens in (
        (("x", "y", "z"), ("x^2 - x", "x*y")),
        (XYZW, ("x*z - y^2", "x*w - y*z", "y*w - z^2")),
    ):
        R = make_ring(5, names, gens)
        with pytest.MonkeyPatch.context() as mp:
            calls = _record_eliminations(mp)
            assert (is_reduced(R), fedder_is_fpure(R)) == (True, True)
        assert calls
    # a generator with a constant term: the origin is off the ring's zeros,
    # so Fedder keeps its colon, though Q = (x - 1, y) is a complete intersection
    R = make_ring(5, ("x", "y"), ("x - 1", "y"))
    assert _is_complete_intersection(R.defining_ideal())
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_eliminations(mp)
        assert is_reduced(R) and not calls
        fpure = fedder_is_fpure(R)
        assert calls
    assert fpure == general_answers(R)[1]


def test_fedder_on_the_twisted_cubic_computes_no_basis(monkeypatch):
    # m^[p] is a monomial ideal: the colon lies in it iff every term of
    # every generator has an exponent of at least p, so no basis is needed
    R = make_ring(5, XYZW, ("x*z - y^2", "x*w - y*z", "y*w - z^2"))
    runs = []
    buchberger = ideals.buchberger
    monkeypatch.setattr(ideals, "buchberger", lambda *a: runs.append(a) or buchberger(*a))
    assert fedder_is_fpure(R) is True
    assert runs == []


def test_fedder_and_reducedness_stay_packed_between_steps(monkeypatch):
    # Ideal's intersections and colons meet and divide packed generators and
    # unpack once, unsorted: Fedder's colon on the twisted cubic packs its
    # three generators of Q^[p] and three of Q once each, and neither test
    # sorts a polynomial once the ring is built
    R = make_ring(5, XYZW, ("x*z - y^2", "x*w - y*z", "y*w - z^2"))
    counts = {"sort": 0, "terms": 0}
    for name in counts:

        def counting(*args, _original=getattr(poly._Packing, name), _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(poly._Packing, name, counting)
    assert fedder_is_fpure(R) is True
    assert counts == {"sort": 0, "terms": 6}
    assert is_reduced(R) is True
    assert counts["sort"] == 0


def test_a_ci_that_the_kernel_preimage_did_not_finish():
    # is_reduced took more than a minute on the kernel preimage of this ring
    R = make_ring(
        3,
        ("x", "y", "z"),
        (
            "2*x^2*y^2*z^2 + x^2*y*z^2 + x*z^2",
            "x^4*z^4 + 2*x^3*y*z^3 + x^2*y^2*z^2 + x^2*y*z^2 + x*y^2*z + y^2",
        ),
    )
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_eliminations(mp)
        assert (is_reduced(R), fedder_is_fpure(R)) == (False, False)
    assert not calls
    # a certificate that shares nothing with the dimension count: h is a
    # nonzero nilpotent of R
    h = P(R, "x*z*(2*x*y^2 + x*y + 1)")
    Q = R.defining_ideal()
    assert not Q.contains(h) and Q.contains(h * h)


@st.composite
def _small_quotients(draw):
    """F_p[x..] / (up to 3 generators of degree at most 2 and at most 2
    terms), the first one often the square of a linear form, so that many
    draws are not reduced."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    S = PolyRing(PrimeField(p), XYZW[:n])
    monos = [m for m in itertools.product(range(3), repeat=n) if sum(m) <= 2]

    def poly(pool):
        terms = st.dictionaries(st.sampled_from(pool), st.integers(1, p - 1), min_size=1, max_size=2)
        return S.poly(draw(terms))

    gens = [poly(monos) for _ in range(draw(st.integers(1, min(3, n))))]
    if draw(st.booleans()):
        linear = poly([m for m in monos if sum(m) == 1])
        gens[0] = linear * linear
    return S, gens


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_small_quotients())
def test_complete_intersections_agree_with_the_general_paths(drawn):
    S, gens = drawn
    try:
        R = QuotientRing(S.field, S.names, gens)
    except FFrobError:  # the unit ideal
        assume(False)
    Q = R.defining_ideal()
    ci = _is_complete_intersection(Q)
    at_origin = all(any(f.terms[-1][0]) for f in Q.gens)
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_eliminations(mp)
        reduced = is_reduced(R)
        assert bool(calls) is not ci
        calls.clear()
        fpure = fedder_is_fpure(R)
        assert bool(calls) is not (ci and at_origin)
    assert (reduced, fpure) == general_answers(R)
