import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrob import groebner, poly
from ffrob import (
    ExponentOverflowError,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PrimeField,
    QuotientRing,
    RingMismatchError,
    SamplerConfig,
    bracket_power,
    buchberger,
    elimination_ideal,
    fedder_is_fpure,
    frobenius_kernel_preimage,
    is_reduced,
    normal_form,
    parse_polynomial,
    poly_ideal_intersect,
    regularity_probe,
)
from ffrob.groebner import poly_divexact, s_polynomial

from oracles import (
    order_key,
    reference_divmod,
    reference_groebner,
    reference_normal_form,
    span_membership,
)

F2 = PrimeField(2)
R = PolyRing(F2, ("x", "y"))


def test_normal_form_single_step():
    ring = PolyRing(F2, ("x", "y"), MonomialOrder.lex())
    x, y = ring.variable(0), ring.variable(1)
    G = buchberger([x * x + y])  # x^2 - y in characteristic 2
    assert normal_form(x * x, G) == y


def test_normal_form_membership_and_miss():
    x, y = R.variable(0), R.variable(1)
    G = buchberger([x * x + y, x * y])
    assert normal_form((x * x + y) * y + x * (x * y), G).is_zero
    assert normal_form(y, buchberger([x])) == y


def test_buchberger_interreduction():
    x, y = R.variable(0), R.variable(1)
    gb = buchberger([x + y, y])
    assert gb == [x, y]


def test_buchberger_monomial_pair():
    # the only S-polynomial reduces to 0: frozen by hand division
    x, y = R.variable(0), R.variable(1)
    gb = buchberger([x * x, x * y])
    assert gb == [x * x, x * y]


def test_buchberger_zero_ideal():
    assert buchberger([R.zero()]) == []


def test_buchberger_canonical_under_permutation_and_redundancy():
    x, y = R.variable(0), R.variable(1)
    gens = [x * x + y, x * y + x, y * y]
    reference = buchberger(gens)
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm)) == reference
    redundant = gens + [gens[0] * y + gens[1] * x]
    assert buchberger(redundant) == reference


def test_every_output_is_a_groebner_basis():
    x, y = R.variable(0), R.variable(1)
    for gens in (
        [x * x + y, x * y + x],
        [x * x * x + y * y, x * y],
        [x + y, x * y + y * y],
    ):
        gb = buchberger(gens)
        # every pairwise S-polynomial reduces to zero
        for g, h in itertools.combinations(gb, 2):
            assert normal_form(s_polynomial(g, h), gb).is_zero
        # reduced: no term of one generator divisible by another's lead
        for g in gb:
            assert g.terms[0][1] == 1  # monic
            for h in gb:
                if h is g:
                    continue
                lm = h.leading_monomial
                for m, _ in g.terms:
                    assert not all(a <= b for a, b in zip(lm, m))


def test_membership_agrees_with_linear_algebra_oracle():
    x, y = R.variable(0), R.variable(1)
    gens = [x * x + y, x * y]
    gb = buchberger(gens)
    gen_dicts = [dict(g.terms) for g in gens]
    monos = [
        (i, j) for i in range(4) for j in range(4) if i + j <= 3
    ]
    for picks in itertools.combinations(monos, 2):
        f = R.poly({m: 1 for m in picks})
        ours = normal_form(f, gb).is_zero
        oracle = span_membership(dict(f.terms), gen_dicts, 2, 6)
        assert ours == oracle, f


def test_elimination_examples():
    ring = PolyRing(F2, ("t", "x"))
    t, x = ring.variable(0), ring.variable(1)
    # t*x and t+1 force x into the ideal: frozen by substituting t = 1
    elim = elimination_ideal([t * x, t + ring.one()], 1)
    assert elim == [x]
    assert elimination_ideal([x * x], 0) == [x * x]
    assert elimination_ideal([t], 1) == []
    # k >= n eliminates every variable: only a unit ideal keeps an element
    assert elimination_ideal([x + ring.one(), x], 5) == [ring.one()]
    assert elimination_ideal([t * x], 5) == []


def test_poly_ideal_intersect_coprime_principal():
    x, y = R.variable(0), R.variable(1)
    assert poly_ideal_intersect(R, [x], [y]) == [x * y]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(range(10)), min_size=1, max_size=3))
def test_intersection_contains_products(picks):
    monos = [(i, j) for i in range(4) for j in range(4)][:10]
    x, y = R.variable(0), R.variable(1)
    A = [R.poly({monos[i]: 1, (0, 0): 1}) for i in picks]
    B = [x + y]
    meet = poly_ideal_intersect(R, A, B)
    gb_a, gb_b = buchberger(A), buchberger(B)
    for g in meet:
        assert normal_form(g, gb_a).is_zero
        assert normal_form(g, gb_b).is_zero
    # a visible common element must land in the intersection
    common = A[0] * B[0]
    assert normal_form(common, buchberger(meet)).is_zero


# --- inputs from different rings ------------------------------------------

# In F_2[x,y] and F_2[x,y,z] the same exponent positions name x and y, so
# mixing the rings used to answer silently: normal_form(x*y, [x*z]) was 0,
# poly_divexact(x*y, x*z) was y, and buchberger([x, y]) was [x, y].
XY = PolyRing(F2, ("x", "y"))
XYZ = PolyRing(F2, ("x", "y", "z"))


def test_normal_form_refuses_a_basis_from_another_ring():
    xa, ya = XY.variables()
    xb, _, zb = XYZ.variables()
    with pytest.raises(RingMismatchError):
        normal_form(xa * ya, [xb * zb])
    with pytest.raises(RingMismatchError):
        normal_form(XY.zero(), [xb])
    # an equal ring that is another object is the same ring
    assert normal_form(xa * ya, [PolyRing(F2, ("x", "y")).variable(0)]).is_zero


def test_poly_divexact_refuses_a_divisor_from_another_ring():
    xa, ya = XY.variables()
    xb, _, zb = XYZ.variables()
    with pytest.raises(RingMismatchError):
        poly_divexact(xa * ya, xb * zb)
    with pytest.raises(RingMismatchError):
        poly_divexact(xa * ya, xb)


def test_s_polynomial_refuses_a_pair_from_two_rings():
    xa, ya = XY.variables()
    xb, yb, _ = XYZ.variables()
    with pytest.raises(RingMismatchError):
        s_polynomial(xa * ya + ya, xb * yb)


def test_buchberger_refuses_generators_from_two_rings():
    xa, _ = XY.variables()
    _, yb, _ = XYZ.variables()
    with pytest.raises(RingMismatchError):
        buchberger([xa, yb])
    with pytest.raises(RingMismatchError):
        buchberger([XY.zero(), yb])


# --- one elimination routine: the lead filter and the ring names ----------

_ELIM_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 2), min_size=1, max_size=3
)


@pytest.mark.parametrize("k", [1, 2])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3]), terms=st.lists(_ELIM_TERMS, min_size=1, max_size=3))
def test_block_lead_decides_whether_an_element_is_eliminated(k, p, terms):
    ring = PolyRing(PrimeField(p), ("x", "y", "z"))
    gens = [ring.poly(t) for t in terms]
    block = PolyRing(ring.field, ring.names, MonomialOrder.block(k))
    free = []
    for g in buchberger([g.convert(block) for g in gens]):
        involves = any(any(m[:k]) for m, _ in g.terms)
        assert involves == any(g.leading_monomial[:k])
        if not involves:
            free.append(g.convert(ring))
    assert elimination_ideal(gens, k) == free


_KEPT_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), st.integers(1, 4), min_size=1, max_size=3
)


@pytest.mark.parametrize("k", [1, 2])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5]), terms=st.lists(_KEPT_TERMS, min_size=1, max_size=3))
def test_eliminated_reduces_only_the_elements_it_keeps(k, p, terms):
    # under block(k), every lead smaller than a lead free of the block is free
    # of it too, so tail-reducing the kept elements alone gives the block-free
    # elements of the whole reduced basis
    ring = PolyRing(PrimeField(p), ("s", "t", "x", "y"), MonomialOrder.block(k))
    pk = ring.packing
    gens = [ring.poly(t) for t in terms]

    def works():  # the core consumes its work dicts
        return [dict(pk.terms(g.terms)) for g in gens]

    whole = groebner._reduce_basis(groebner._buchberger_core(works(), ring.field, pk), p, pk)
    free = [[(lm, 1)] + tail for lm, tail in whole if not any(pk.unpack(lm)[:k])]
    assert groebner._eliminated(works(), ring.field, pk) == free


def test_a_pair_of_two_monomials_forms_no_s_polynomial(monkeypatch):
    # the S-polynomial of two monomials is 0: like a coprime pair, their
    # pair keeps its lcm for the M and F criteria but is never queued
    ring = PolyRing(F2, ("x", "y", "z"))
    x, y, z = ring.variables()
    calls = []
    spair = groebner._spair
    monkeypatch.setattr(groebner, "_spair", lambda *a: calls.append(a) or spair(*a))
    gens = [x * x * y, x * y * y, x * y * z]
    assert buchberger(gens) == gens
    assert calls == []


# An elimination works on packed exponents alone, so the names of the
# ring never reach it.  These names once clashed with the names an
# elimination invented for its extra variables (`_t`, `__f_x`, runs of
# underscores); each ring is compared with the same exponents in F_p[x,y,z].
CLASHING_NAMES = [("x", "__f_x", "_t"), ("_", "__", "_0"), ("_0", "__0", "___0")]
_CUSP = {(0, 2, 0): 1, (3, 0, 0): 1}  # y^2 + x^3
_I = [{(1, 0, 0): 1}, {(0, 0, 2): 1}]  # (x, z^2)
_J = [{(0, 1, 0): 1, (0, 0, 1): 1}]  # (y + z)
_F = {(0, 1, 1): 1}  # y*z
_K = [{(2, 1, 0): 1}, {(0, 0, 3): 1, (1, 1, 0): 1}]  # (x^2*y, z^3 + x*y)


def _eliminations(p, names):
    field = PrimeField(p)
    S = PolyRing(field, names)
    R = QuotientRing(field, names, [S.poly(_CUSP)])
    I = R.ideal([S.poly(t) for t in _I])
    J = R.ideal([S.poly(t) for t in _J])
    K = R.cover().ideal([S.poly(t) for t in _K])
    ideals = (I.intersect(J), I.colon(S.poly(_F)), frobenius_kernel_preimage(K))
    out = [[g.terms for g in ideal.gens] for ideal in ideals]
    out += [[g.terms for g in ideal.groebner] for ideal in ideals]
    out.append([g.terms for g in elimination_ideal(list(K.gens), 1)])
    return out


@pytest.mark.parametrize("names", CLASHING_NAMES, ids=",".join)
@pytest.mark.parametrize("p", [2, 3])
def test_ring_names_never_change_an_elimination(p, names):
    assert _eliminations(p, names) == _eliminations(p, ("x", "y", "z"))


def test_eliminations_keep_the_exponent_budget():
    # ring.poly refuses the generator x^(2^32) + z, so it is built raw;
    # every elimination must refuse it too
    S = QuotientRing(PrimeField(3), ("x", "y", "z"))
    y = S.ambient.variable(1)
    over = S.ideal([Polynomial(S.ambient, (((2**32, 0, 0), 1), ((0, 0, 1), 1)))])
    fine = S.ideal([y])
    for run in (
        lambda: over.intersect(fine),
        lambda: fine.intersect(over),
        lambda: over.colon(y),
        lambda: frobenius_kernel_preimage(over),
    ):
        with pytest.raises(ExponentOverflowError, match=r"^exponent 4294967296 exceeds 2\^32$"):
            run()


def _is_canonical(f):
    keys = [order_key(f.ring.order, m) for m, _ in f.terms]
    return all(a > b for a, b in zip(keys, keys[1:])) and all(c for _, c in f.terms)


def test_eliminations_build_generators_without_re_sorting(core_calls):
    # the builders pack their generators once and hand work dicts to
    # _eliminated: no ring, canonicalizing, multiplying or tuple keys on the
    # way, and every polynomial out is in canonical order
    S = QuotientRing(PrimeField(3), ("x", "y", "z"))
    x, y, z = S.ambient.variables()
    I = S.ideal([x * x + y * z, x * y * y + z.scale(2)])
    J = S.ideal([y + z, x * z])
    K = S.ideal([x * x * y, z * z * z + x * y])
    calls = {}
    with pytest.MonkeyPatch.context() as mp:
        for cls, name in (
            (PolyRing, "__init__"),
            (PolyRing, "poly"),
            (Polynomial, "__mul__"),
            (MonomialOrder, "key"),
        ):

            def counting(*args, _original=getattr(cls, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)

            mp.setattr(cls, name, counting)
        meet = I.intersect(J)
        root = frobenius_kernel_preimage(K)
    assert calls == {}
    assert len(core_calls) == 2
    assert all(_is_canonical(g) for g in meet.gens + root.gens)
    assert all(I.contains(g) and J.contains(g) for g in meet.gens)
    assert all(meet.contains(g * h) for g in I.gens for h in J.gens)
    assert all(K.contains(g.frobenius_power(1)) for g in root.gens)
    assert root.gens and root.contains(x * y)  # (x*y)^3 = x^2*y * x*y^2


R3 = PolyRing(PrimeField(3), ("x", "y", "z"))
_TERM = st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.integers(1, 2))
_POLY = st.lists(_TERM, min_size=1, max_size=3).map(lambda ts: R3.poly(dict(ts)))


@pytest.fixture
def core_calls(monkeypatch):
    """The inputs of every Buchberger run during one test, as (packing,
    work dicts); the core consumes its work dicts, so they are copied."""
    calls = []
    core = groebner._buchberger_core

    def counting_core(works, field, pk):
        calls.append((pk, [dict(w) for w in works]))
        return core(works, field, pk)

    monkeypatch.setattr(groebner, "_buchberger_core", counting_core)
    return calls


def _core_basis(gens):
    """The reduced basis of gens straight from the packed core, whose
    minimal basis `_reduce_basis` tail-reduces."""
    ring = gens[0].ring
    pk = ring.packing
    basis = groebner._buchberger_core([dict(pk.terms(g.terms)) for g in gens], ring.field, pk)
    return [pk.polynomial(ring, [(lm, 1)] + tail) for lm, tail in groebner._reduce_basis(basis, ring.field.p, pk)]


@settings(max_examples=40, deadline=None)
@given(st.lists(_POLY, min_size=1, max_size=3), st.data())
def test_memo_matches_core_under_shuffle_and_duplicates(gens, data):
    extra = data.draw(st.lists(st.sampled_from(gens), max_size=2))
    presented = data.draw(st.permutations(gens + extra))
    reference = _core_basis(gens)
    assert buchberger(gens) == reference
    assert buchberger(presented) == reference
    lex = PolyRing(R3.field, R3.names, MonomialOrder.lex())
    lex_reference = _core_basis([g.convert(lex) for g in gens])
    assert buchberger([g.convert(lex) for g in presented]) == lex_reference


def test_a_tail_is_reduced_only_by_smaller_leads(monkeypatch):
    # a lead larger than lm(g) cannot divide a term below lm(g), so each
    # element's tail is divided by the heads of smaller lead alone
    ring = PolyRing(PrimeField(5), ("x", "y", "z"))
    pk = ring.packing
    gens = [parse_polynomial(t, ring) for t in ("x^2 + y^2 + z", "y^2 + z^2", "z^3 + x*z")]
    heads = [groebner._head(pk.terms(g.terms), ring.field) for g in gens]
    expected = buchberger(gens)  # coprime leads: the gens are a Groebner basis
    passed = []
    divide = groebner._divide

    def recording_divide(work, hs, *args):
        passed.append([h[0] for h in hs])
        return divide(work, hs, *args)

    monkeypatch.setattr(groebner, "_divide", recording_divide)
    basis = groebner._reduce_basis(heads, 5, pk)
    leads = sorted(h[0] for h in heads)
    assert passed == [leads[:i] for i in range(len(leads))]
    assert [pk.polynomial(ring, [(lm, 1)] + tail) for lm, tail in basis] == expected
    # y^2 reduced the tail of x^2 + y^2 + z
    assert str(expected[1]) == "x^2 + 4*z^2 + z"


def test_memo_returns_a_fresh_list():
    x, y = R.variable(0), R.variable(1)
    first = buchberger([x * x + y, x * y])
    expected = list(first)
    first.reverse()
    first.append(x)
    assert buchberger([x * x + y, x * y]) == expected


def test_probe_core_run_census_is_pinned(core_calls):
    # each trial eliminates I ∩ (x) and I^[q] ∩ (x^q) once for both of its
    # identities, and the sides of a passing identity present one reduced
    # basis, so comparing them runs nothing; with the two checks building
    # their sides apart, as before, this probe ran 115 times on 98 inputs.
    # A polynomial ring is reduced without the kernel preimage of Q = 0,
    # which was one more run (65 on 61 inputs).
    rep = regularity_probe(QuotientRing(F2, ("x", "y")), SamplerConfig(seed=1, count=20))
    assert rep.verdict == "NO_WITNESS_FOUND"
    distinct = {
        (pk.order, len(pk.units), frozenset(frozenset(w.items()) for w in works))
        for pk, works in core_calls
    }
    assert (len(core_calls), len(distinct)) == (64, 60)


# --- heap-driven division against the plain max-driven loop --------------

DIVISION_ORDERS = [
    MonomialOrder.lex(),
    MonomialOrder.grevlex(),
    MonomialOrder.block(1),
    MonomialOrder.block(2),
]
_DIV_TERMS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 4), min_size=1, max_size=5
)

# In F_2[x,y] under grevlex, dividing x^3*y^2 + x*y^2 by x^2 + x + 1 cancels
# x*y^2 at the first step and brings it back at the second.  Under lex, the
# same happens to x*y^3 when x^3*y^2 + 2*x*y^3 is divided by
# x^2*y + 2*x*y^2 + 2*x*y over F_3.
REAPPEARING = [
    (2, MonomialOrder.grevlex(), {(3, 2): 1, (1, 2): 1}, {(2, 0): 1, (1, 0): 1, (0, 0): 1}),
    (3, MonomialOrder.lex(), {(3, 2): 1, (1, 3): 2}, {(2, 1): 1, (1, 2): 2, (1, 1): 2}),
]


def _check_division(p, order, f, basis):
    ring = PolyRing(PrimeField(p), ("x", "y", "z")[: len(next(iter(f)))], order)
    fp = ring.poly(f)
    gs = [ring.poly(g) for g in basis]
    ref = reference_normal_form(dict(fp.terms), [dict(g.terms) for g in gs], p, order)
    want = ring.poly(ref)
    # equal term tuples: same terms, same coefficients, same canonical order
    assert normal_form(fp, gs).terms == want.terms
    for g in gs:
        if g.is_zero:
            continue
        # the remainder by one divisor is its normal form, and f - r is an
        # exact multiple of g
        r = normal_form(fp, [g])
        ref_q, ref_r = reference_divmod(dict(fp.terms), dict(g.terms), p, order)
        assert r.terms == ring.poly(ref_r).terms
        q = poly_divexact(fp - r, g)
        assert q.terms == ring.poly(ref_q).terms
        assert q * g + r == fp


@pytest.mark.parametrize("p,order,f,g", REAPPEARING, ids=["grevlex", "lex"])
def test_division_when_a_cancelled_term_reappears(p, order, f, g):
    reappeared = set()
    reference_normal_form(f, [g], p, order, reappeared)
    assert reappeared  # the input does exercise the case
    _check_division(p, order, f, [g])


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    f=_DIV_TERMS,
    basis=st.lists(_DIV_TERMS, min_size=1, max_size=3),
)
def test_heap_division_matches_max_driven_reference(order, p, f, basis):
    _check_division(p, order, f, basis)


# --- Buchberger's pair criteria against every pair --------------------------


def _gb_terms(n, p):
    """At most 3 terms of degree at most 3 in n variables."""
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(m) <= 3)
    return st.dictionaries(monomial, st.integers(1, p - 1), min_size=1, max_size=3)


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=repr)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 4), data=st.data())
def test_buchberger_matches_the_every_pair_reference(order, p, n, data):
    if n > 1 and data.draw(st.booleans()):
        # t·A + (1−t)·B with t the first variable, as an intersection builds it
        A = data.draw(st.lists(_gb_terms(n - 1, p), min_size=1, max_size=2))
        B = data.draw(st.lists(_gb_terms(n - 1, p), min_size=1, max_size=2))
        gens = [{(1,) + m: c for m, c in f.items()} for f in A]
        for g in B:
            gens.append({(0,) + m: c for m, c in g.items()})
            gens[-1].update({(1,) + m: -c % p for m, c in g.items()})
    else:
        gens = data.draw(st.lists(_gb_terms(n, p), min_size=1, max_size=4))
    ring = PolyRing(PrimeField(p), ("x", "y", "z", "w")[:n], order)
    want = reference_groebner(gens, p, order)
    assert [dict(g.terms) for g in buchberger([ring.poly(g) for g in gens])] == want


def test_exact_division_refuses_a_remainder():
    x, y = R.variables()
    assert poly_divexact(x * y + x, x) == y + R.one()
    with pytest.raises(ValueError, match="not an exact multiple"):
        poly_divexact(x * y + R.one(), x)


def test_exact_division_by_zero_raises_zero_division():
    x, y = R.variables()
    with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
        poly_divexact(x * y, R.zero())
    with pytest.raises(ZeroDivisionError):
        poly_divexact(R.zero(), R.zero())


# --- the exponent budget in division and S-polynomials -------------------

BUDGET = 2**32 - 1  # the largest exponent a monomial may carry


def test_division_and_s_polynomials_keep_the_exponent_budget():
    ring = PolyRing(F2, ("y", "x"))
    y, x = ring.variables()
    # x^(2^32 - 1) * y reduces by y + x to x^(2^32)
    with pytest.raises(ExponentOverflowError, match=r"^exponent 4294967296 exceeds 2\^32$"):
        normal_form(ring.poly({(1, BUDGET): 1}), [y + x])
    assert normal_form(ring.poly({(1, BUDGET - 1): 1}), [y + x]) == ring.poly({(0, BUDGET): 1})
    # the lcm of y*x^(2^32 - 1) and y^2 is y^2*x^(2^32 - 1); the cofactor of
    # y^2 + x shifts x to x^(2^32)
    for f, g in itertools.permutations([ring.poly({(1, BUDGET): 1}), y * y + x]):
        with pytest.raises(ExponentOverflowError, match="exceeds 2"):
            s_polynomial(f, g)
    with pytest.raises(ExponentOverflowError, match="exceeds 2"):
        buchberger([ring.poly({(1, BUDGET): 1}), y + x])
    # under lex x leads x + y^2: the cofactor y^(2^32 - 1) of x*y^(2^32 - 1)
    # shifts y^2 to y^(2^32 + 1)
    lex = PolyRing(F2, ("x", "y"), MonomialOrder.lex())
    u, v = lex.variables()
    with pytest.raises(ExponentOverflowError, match=r"^exponent 4294967297 exceeds 2\^32$"):
        normal_form(lex.poly({(1, BUDGET): 1}), [u + v * v])
    # a polynomial built past the budget, which only the raw constructor
    # makes, is refused as input too
    with pytest.raises(ExponentOverflowError):
        normal_form(Polynomial(ring, (((0, BUDGET + 1), 1),)), [y])


# --- the packed order against the oracle's order -------------------------


def _orders(n):
    return [MonomialOrder.lex(), MonomialOrder.grevlex()] + [
        MonomialOrder.block(k) for k in range(n + 1)
    ]


# small exponents make ties in degree and in prefix sums likely; the ends
# of the budget exercise the widest fields
_EXPONENT = st.one_of(
    st.integers(0, 3), st.sampled_from([BUDGET - 1, BUDGET]), st.integers(0, BUDGET)
)


@pytest.mark.parametrize("n", range(1, 13))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_monomials_match_the_tuple_form(n, data):
    a = data.draw(st.tuples(*[_EXPONENT] * n))
    shift = data.draw(st.tuples(*[_EXPONENT] * n))
    # b is a multiple of a, so that divisibility holds as often as not, or
    # a with its exponents after position i permuted, so that b ties with a
    # on x_1..x_i and on the degree of the rest, as block(i) and grevlex
    # compare them
    i = data.draw(st.integers(0, n))
    permuted = a[:i] + tuple(data.draw(st.permutations(a[i:])))
    multiple = tuple(min(x + s, BUDGET) for x, s in zip(a, shift))
    b = data.draw(st.sampled_from([shift, multiple, permuted]))
    for order in _orders(n):
        pk = poly._packing(order, n)
        pa, pb = pk.pack(a), pk.pack(b)
        assert pk.unpack(pa) == a and pk.unpack(pb) == b
        ka, kb = order_key(order, a), order_key(order, b)
        # a bigger monomial has a bigger oracle key and a bigger packed one
        assert (pa > pb) == (ka > kb) and (pa == pb) == (ka == kb)
        assert (not (pb - pa) & pk.guard) == all(x <= y for x, y in zip(a, b))
        assert (not (pa - pb) & pk.guard) == all(x >= y for x, y in zip(a, b))


@pytest.mark.parametrize("n", range(1, 13))
def test_packed_key_fields_hold_their_largest_sums(n):
    # each key field sums up to n exponents; if one overflowed into the next,
    # (1, 0, ..., 0) would rank below (0, 2^32 - 1, ..., 2^32 - 1) under block(1)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    monomials = units + [
        (0,) * n,
        (BUDGET,) * n,
        (0,) + (BUDGET,) * (n - 1),
        (BUDGET,) * (n - 1) + (0,),
        (BUDGET - 1,) + (BUDGET,) * (n - 1),
    ] + [tuple(BUDGET * e for e in u) for u in units]
    for order in _orders(n):
        pk = poly._packing(order, n)
        ranked = sorted(monomials, key=pk.pack, reverse=True)
        assert ranked == sorted(monomials, key=lambda m: order_key(order, m), reverse=True)


_LAYOUT_EXPONENTS = (0, 1, 2, 3, BUDGET - 1, BUDGET)


@pytest.mark.parametrize("n", range(1, 13))
def test_the_pair_criteria_read_a_packed_monomial_with_its_key_stripped(n):
    # every value at every position: the six values rotated through the
    # fields, and each value in all of them; copies of the rotations with
    # the small exponents raised, or the last exponent 0, give pairs that
    # divide and pairs that fail in a single field
    k = len(_LAYOUT_EXPONENTS)
    rotations = [tuple(_LAYOUT_EXPONENTS[(i + r) % k] for i in range(n)) for r in range(k)]
    monomials = rotations + [(e,) * n for e in _LAYOUT_EXPONENTS]
    monomials += [tuple(e + 1 if e < 3 else e for e in m) for m in rotations]
    monomials += [m[:-1] + (0,) for m in rotations]
    for order in _orders(n):
        pk = poly._packing(order, n)
        stripped = []
        for e in monomials:
            m = pk.pack(e)
            w = m & pk.mask
            assert pk.unpack(w) == e
            assert pk.narrow(w) == m
            assert w * pk.wsum >> pk.wtop & poly._FIELD_MASK == sum(e)
            stripped.append(w)
        for (a, wa), (b, wb) in itertools.product(zip(monomials, stripped), repeat=2):
            assert (not (wb - wa) & pk.guard) == all(x <= y for x, y in zip(a, b))


# --- edge rings ------------------------------------------------------------


def test_zero_variable_ring():
    F3 = PrimeField(3)
    ring = PolyRing(F3, ())
    one, two = ring.one(), ring.constant(2)
    assert buchberger([two]) == [one]
    assert normal_form(two, [one]).is_zero
    assert normal_form(two, []) == two
    assert s_polynomial(two, one).is_zero
    Q = QuotientRing(F3, ())
    assert Q.unit_ideal().contains(two)
    assert not Q.ideal([]).contains(two)
    assert Q.ideal([]).contains(ring.zero())


def test_twelve_variables_at_the_exponent_budget():
    ring = PolyRing(PrimeField(5), tuple(f"x{i}" for i in range(12)))
    xs = ring.variables()

    def power(i, e=BUDGET):
        exps = [0] * 12
        exps[i] = e
        return ring.poly({tuple(exps): 1})

    # the leads x_i^(2^32 - 1) are pairwise coprime, so the reduced basis is
    # the chain tail-reduced down to x_11^(2^32 - 1)
    chain = [power(i) - power(i + 1) for i in range(11)]
    gb = buchberger(chain)
    assert gb == [power(i) - power(11) for i in range(11)]
    assert normal_form(power(0), gb) == power(11)
    assert QuotientRing(ring.field, ring.names).ideal(chain).contains(power(3) - power(7))
    # x_0^(2^32 - 1) * x_11 reduces to x_11^(2^32)
    with pytest.raises(ExponentOverflowError):
        normal_form(power(0) * xs[11], gb)
    # a lead of degree 12 * (2^32 - 1) fills every key field; its S-pair
    # with x0*x1 has the lead itself as lcm
    top = ring.poly({(BUDGET,) * 12: 1})
    assert buchberger([top + xs[1], xs[0] * xs[1]]) == [xs[1]]
    assert buchberger([top + xs[1]]) == [top + xs[1]]
    assert normal_form(top + power(2, 5), [xs[0] * xs[1]]) == power(2, 5)


# x^(2^32 - 1 - e_1) y^(2^32 - 1 - e_2) z^(2^32 - 1 - e_3) for each (e_1, e_2, e_3):
# every lcm of two of them has degree near 3 * 2^32, past 2^33
EDGE_LEADS = [(0, 1, 2), (2, 0, 1), (1, 2, 0), (3, 1, 1)]


@pytest.mark.parametrize("order", DIVISION_ORDERS, ids=repr)
def test_pair_criteria_at_the_exponent_budget(order, monkeypatch):
    ring = PolyRing(PrimeField(5), ("x", "y", "z", "w"), order)
    pk = ring.packing
    # m·w + c·m for each lead m: an S-polynomial is an lcm of two leads, a
    # monomial, whose pairs with the binomials reduce to zero; a pair of
    # two monomials is never queued
    monomials = [tuple(BUDGET - e for e in m) for m in EDGE_LEADS]
    gens = [{m + (1,): 1, m + (0,): c} for c, m in enumerate(monomials, 1)]
    pushed, calls = [], []
    heappush, spair = groebner.heappush, groebner._spair

    def recording_heappush(heap, item):
        if type(item) is tuple:  # a pair, not a term of a division
            d, j, i, lcm = item
            pushed.append((3 * BUDGET - d, j, i, pk.unpack(pk.narrow(lcm))))
        heappush(heap, item)

    def recording_spair(lcm, a, b, p, pk):
        calls.append((pk.unpack(lcm), pk.unpack(a[0]), pk.unpack(b[0])))
        return spair(lcm, a, b, p, pk)

    monkeypatch.setattr(groebner, "heappush", recording_heappush)
    monkeypatch.setattr(groebner, "_spair", recording_spair)
    gb = buchberger([ring.poly(g) for g in gens])
    # each lcm is the largest exponent of its two leads, variable by variable
    assert len(calls) == 6
    for lcm, a, b in calls:
        assert lcm == tuple(map(max, a, b))
    # each pair (i, j) is queued with its lcm's degree, 3 * (2^32 - 1) - e
    assert [(e, j, i) for e, j, i, _ in pushed] == [
        (0, 1, 0), (0, 2, 0), (0, 2, 1), (2, 3, 1), (1, 3, 0), (1, 3, 2),
        (2, 4, 3), (1, 5, 0), (1, 6, 2),
    ]
    for e, _, _, lcm in pushed:
        assert sum(lcm) == 3 * BUDGET - e
    # the criteria's divisibility tests at the edge decide the basis
    assert [dict(g.terms) for g in gb] == reference_groebner(gens, 5, order)
    # y^(2^32 - 1) in the tail of x^(2^32 - 1) y^(2^32 - 2) z^(2^32 - 3) w, times
    # the cofactor y*z of its pair with the second generator, passes the budget
    gens[0][(0, BUDGET, 0, 0)] = 1
    with pytest.raises(ExponentOverflowError, match=r"^exponent 4294967296 exceeds 2\^32$"):
        buchberger([ring.poly(g) for g in gens])


# --- a pinned run of the frobenius-highp kernel ---------------------------


def _general_answers(R):
    """is_reduced and fedder_is_fpure by their general containments,
    φ^-1(Q) ⊆ Q and (Q^[p] : Q) ⊄ m^[p], which the two functions no longer
    run on a complete intersection such as the highp ring."""
    Q = R.defining_ideal()
    reduced = frobenius_kernel_preimage(Q) <= Q
    m_p = Q.ring.ideal([v.frobenius_power(1) for v in R.ambient.variables()])
    return reduced, not bracket_power(Q, 1).colon_ideal(Q) <= m_p


# sha256 of the reduced bases of every Buchberger run that is_reduced and
# fedder_is_fpure made on F_5[x,y,z,w]/(xy - zw, x^2 - yw) while they
# compared both sides' bases, in call order, each as (order, number of
# variables, term tuples); recorded with the exponent-tuple kernel that the
# packed one replaced.  The ring is a complete intersection, on which the
# two functions now run no elimination; `_general_answers` runs the
# containments they decided by when the digest was recorded.
HIGHP_BASES_SHA256 = "1047b76ab10ba4f2d576c61cc7d2b7f5568d390be6c8b5f01e3b4c8cdf70b71d"


def test_highp_bases_match_the_recorded_digest(monkeypatch):
    field = PrimeField(5)
    names = ("x", "y", "z", "w")
    S = PolyRing(field, names)
    R = QuotientRing(field, names, [parse_polynomial(t, S) for t in ("x*y - z*w", "x^2 - y*w")])
    bases = []
    core = groebner._buchberger_core

    def recording_core(works, field, pk):
        # the core returns a minimal basis; the digest is of the reduced one
        basis = core(works, field, pk)
        reduced = groebner._reduce_basis(basis, field.p, pk)
        terms = [tuple((pk.unpack(m), c) for m, c in [(lm, 1)] + tail) for lm, tail in reduced]
        bases.append((repr(pk.order), len(pk.units), terms))
        return basis

    monkeypatch.setattr(groebner, "_buchberger_core", recording_core)
    # the seven recorded inputs: the kernel preimage and its basis, the
    # Fedder colon and its basis, then m^[p]'s basis for the containment
    K = frobenius_kernel_preimage(R.defining_ideal())
    K.groebner
    Q = R.defining_ideal()
    colon = bracket_power(Q, 1).colon_ideal(Q)
    colon.groebner
    m_p = Q.ring.ideal([v.frobenius_power(1) for v in S.variables()])
    assert colon <= m_p  # so R is not F-pure at the origin
    assert (len(bases), max(len(b[2]) for b in bases)) == (7, 28)
    assert hashlib.sha256(repr(bases).encode()).hexdigest() == HIGHP_BASES_SHA256
    # deciding by containment skips the two bases of the larger sides
    recorded = bases[:]
    bases.clear()
    assert _general_answers(R) == (True, False)
    assert bases == [recorded[i] for i in (0, 2, 3, 4, 6)]


def test_highp_pair_census_is_pinned(monkeypatch):
    # S-polynomials formed by the general containments on the ring of the
    # digest above, ring building left out: 322 with a pair queue that made
    # every pair and tested the coprime and chain criteria on each pop, 319
    # with the Gebauer–Möller installation.  Bringing back the full pair set
    # would not change a basis, only this count.
    field = PrimeField(5)
    names = ("x", "y", "z", "w")
    S = PolyRing(field, names)
    R = QuotientRing(field, names, [parse_polynomial(t, S) for t in ("x*y - z*w", "x^2 - y*w")])
    calls = []
    spair = groebner._spair

    def counting_spair(*args):
        calls.append(args[0])
        return spair(*args)

    monkeypatch.setattr(groebner, "_spair", counting_spair)
    assert _general_answers(R) == (True, False)
    assert len(calls) == 319


def _f5_quotient(*gens):
    field = PrimeField(5)
    names = ("x", "y", "z", "w")
    S = PolyRing(field, names)
    return QuotientRing(field, names, [parse_polynomial(t, S) for t in gens])


HIGHP = ("x*y - z*w", "x^2 - y*w")
TWISTED_CUBIC = ("x*z - y^2", "x*w - y*z", "y*w - z^2")


def test_a_packed_lcm_is_built_only_for_a_popped_pair(monkeypatch):
    # pairs wait with their lcms key-stripped (`_Packing.mask`); the census
    # ring's 319 S-polynomials are the only lcms re-keyed by `narrow`
    R = _f5_quotient(*HIGHP)
    narrowed, calls = [], []
    narrow, spair = poly._Packing.narrow, groebner._spair

    def counting_narrow(pk, w):
        narrowed.append(w)
        return narrow(pk, w)

    def counting_spair(*args):
        calls.append(args[0])
        return spair(*args)

    monkeypatch.setattr(poly._Packing, "narrow", counting_narrow)
    monkeypatch.setattr(groebner, "_spair", counting_spair)
    assert _general_answers(R) == (True, False)
    assert len(narrowed) == len(calls) == 319


# sha256 of every `_spair` call that the general containments make on the
# p = 5 ring of the census above, then is_reduced and fedder_is_fpure on the
# twisted cubic F_5[x,y,z,w]/(xz - y^2, xw - yz, yw - z^2), which is not a
# complete intersection, in call order, each call as the exponent tuples of
# (lcm, lead a, lead b); recorded with the pair handling on exponent tuples
# that the wide lcms replaced
PAIR_SEQUENCE_SHA256 = "6749774876e535a5338a3f545b12fd4c83da952ef96fb3b0cefa0882da2ca7ea"


def test_pair_order_is_pinned(monkeypatch):
    highp, cubic = _f5_quotient(*HIGHP), _f5_quotient(*TWISTED_CUBIC)
    calls = []
    spair = groebner._spair

    def recording_spair(lcm, a, b, p, pk):
        calls.append((pk.unpack(lcm), pk.unpack(a[0]), pk.unpack(b[0])))
        return spair(lcm, a, b, p, pk)

    monkeypatch.setattr(groebner, "_spair", recording_spair)
    assert _general_answers(highp) == (True, False)
    assert len(calls) == 319
    assert (is_reduced(cubic), fedder_is_fpure(cubic)) == (True, True)
    assert len(calls) == 613
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == PAIR_SEQUENCE_SHA256
