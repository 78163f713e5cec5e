import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffrob import (
    ExponentOverflowError,
    MonomialOrder,
    PolyRing,
    Polynomial,
    PrimeField,
    RingMismatchError,
    render,
)

from oracles import order_key

F2 = PrimeField(2)
F3 = PrimeField(3)
R2 = PolyRing(F2, ("x", "y"))
R3 = PolyRing(F3, ("x", "y"))


def xy(ring):
    return ring.variable(0), ring.variable(1)


def test_add_characteristic_two():
    x, y = xy(R2)
    assert (x + x).is_zero
    assert (x * x + y) + y == x * x
    f = x * x + y
    assert f + R2.zero() == f


def test_mul_examples():
    x, y = xy(R2)
    assert (x + y) * (x + y) == x * x + y * y  # freshman's dream, p=2
    x3, _ = xy(R3)
    lhs = (x3 + R3.one()) * (x3 + R3.constant(2))
    assert lhs == x3 * x3 + R3.constant(2)
    assert ((x + y) * R2.zero()).is_zero


def test_frobenius_power_examples():
    x, y = xy(R2)
    assert (x + y).frobenius_power(1) == x * x + y * y
    x3, y3 = xy(R3)
    f = x3 + y3.scale(2)
    cubes = f.frobenius_power(1)
    assert cubes == x3 * x3 * x3 + (y3 * y3 * y3).scale(2)
    assert f.frobenius_power(0) == f


def test_frobenius_power_refuses_a_negative_exponent():
    x, y = xy(R2)
    with pytest.raises(ValueError, match="^Frobenius exponent must be nonnegative$"):
        (x + y).frobenius_power(-1)


def small_polys(ring, max_terms=3, max_deg=3):
    term = st.tuples(
        st.tuples(*[st.integers(0, max_deg)] * ring.nvars),
        st.integers(0, ring.field.p - 1),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: ring.poly({m: c for m, c in ts})
    )


@settings(max_examples=60, deadline=None)
@given(small_polys(R2), small_polys(R2), small_polys(R2))
def test_ring_axioms_random(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * (g * h) == (f * g) * h
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(small_polys(R2, max_deg=2), st.integers(0, 2))
def test_frobenius_power_is_repeated_multiplication_p2(f, e):
    power = R2.one()
    for _ in range(2**e):
        power = power * f
    assert f.frobenius_power(e) == power


@settings(max_examples=30, deadline=None)
@given(small_polys(R3, max_deg=2), st.integers(0, 2))
def test_frobenius_power_is_repeated_multiplication_p3(f, e):
    power = R3.one()
    for _ in range(3**e):
        power = power * f
    assert f.frobenius_power(e) == power


def test_canonicalization_idempotent():
    x, y = xy(R2)
    f = x * x * y + y + x
    again = R2.poly(dict(f.terms))
    assert again.terms == f.terms


def test_ring_mismatch_raises():
    x2, _ = xy(R2)
    x3, _ = xy(R3)
    with pytest.raises(RingMismatchError):
        _ = x2 + x3
    with pytest.raises(RingMismatchError):
        x2.convert(PolyRing(F2, ("x", "z")))


def test_exponent_overflow():
    x, _ = xy(R2)
    big = x.mul_term(1, (2**31, 0))
    with pytest.raises(ExponentOverflowError):
        big.frobenius_power(1)
    with pytest.raises(ExponentOverflowError):
        x.frobenius_power(20000)  # p^e itself has 6,000 digits
    assert R2.constant(1).frobenius_power(20000) == R2.constant(1)


def test_frobenius_budget_boundary():
    # over F_2, x^(2^31) squares to x^(2^32), the first exponent past the
    # budget; x^(2^31 - 1) squares to x^(2^32 - 2), inside it
    half = 2**31
    message = r"^exponent 2147483648 \* 2\^1 exceeds 2\^32 in Frobenius power$"
    with pytest.raises(ExponentOverflowError, match=message):
        R2.poly({(half, 0): 1}).frobenius_power(1)
    assert R2.poly({(half - 1, 0): 1}).frobenius_power(1) == R2.poly({(2**32 - 2, 0): 1})
    # both terms overflow; the error names the largest exponent of the first term
    f = R2.poly({(half + 9, 1): 1, (0, half + 7): 1})
    assert f.leading_monomial == (half + 9, 1)
    with pytest.raises(ExponentOverflowError, match=r"^exponent 2147483657 \* "):
        f.frobenius_power(1)


def test_poly_refuses_a_monomial_of_another_length():
    # a short monomial used to pack as if padded with zeros, and a long one
    # as if truncated, into polynomials that no equality or printout matched
    message = r"^monomial .* does not have the 2 exponents of F_2\[x,y\]<grevlex>$"
    for exps in [(0, 0, 5), (1, 2, 3), (1,), ()]:
        with pytest.raises(ValueError, match=message):
            R2.poly({exps: 1})
    with pytest.raises(ValueError, match="exponents"):
        R2.poly({(1, 0): 1, (0, 0, 1): 0})


def test_product_exponent_limit():
    x, y = xy(R2)
    top = 2**32 - 1
    assert x.mul_term(1, (top - 1, 0)).leading_monomial == (top, 0)
    assert (x * R2.poly({(top - 1, 0): 1})).leading_monomial == (top, 0)
    with pytest.raises(ExponentOverflowError):
        x.mul_term(1, (top, 0))
    with pytest.raises(ExponentOverflowError):
        _ = x * R2.poly({(top, 0): 1})
    # both exponents of the product overflow: the message names the first,
    # not the largest
    first = r"^exponent 4294967297 exceeds 2\^32$"
    with pytest.raises(ExponentOverflowError, match=first):
        (x * y).mul_term(1, (2**32, 2**32 + 6))
    with pytest.raises(ExponentOverflowError, match=first):
        _ = (x * y) * Polynomial(R2, (((2**32, 2**32 + 6), 1),))
    # ring.poly and the order key refuse such an operand, so it is built raw
    for build in (
        lambda: R2.poly({(0, 2**32): 1}),
        lambda: R2.order.key((2**32, 0)),
    ):
        with pytest.raises(ExponentOverflowError, match=r"^exponent 4294967296 exceeds 2\^32$"):
            build()
    # a ring with no variables has only the empty monomial
    R0 = PolyRing(F2, ())
    assert R0.one() * R0.one() == R0.one().mul_term(1, ()) == R0.one()


def test_render_canonical_form():
    x, y = xy(R3)
    f = x * x * y + y.scale(2)
    assert render(f) == "x^2*y + 2*y"
    assert render(R3.zero()) == "0"
    assert render(R3.constant(2)) == "2"
    assert render(x) == "x"


# --- monomial order laws -------------------------------------------------

ORDERS = [MonomialOrder.lex(), MonomialOrder.grevlex(), MonomialOrder.block(1)]
EXPS = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
# small exponents make ties likely; 2^32 - 1, the largest exponent a
# monomial may carry, fills the widest key fields
_WIDE_EXPONENT = st.one_of(st.integers(0, 6), st.sampled_from([2**32 - 2, 2**32 - 1]))


def _greater(order, a, b) -> bool:
    """a > b in the order: a bigger monomial has a smaller key."""
    return order.key(a) < order.key(b)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(a=EXPS, b=EXPS, w=EXPS)
def test_order_total_multiplicative_with_one_minimal(order, a, b, w):
    # total: keys compare iff monomials differ
    assert (order.key(a) == order.key(b)) == (a == b)
    # multiplicative: u > v implies uw > vw
    if _greater(order, a, b):
        aw = tuple(x + y for x, y in zip(a, w))
        bw = tuple(x + y for x, y in zip(b, w))
        assert _greater(order, aw, bw)
    # 1 is minimal
    assert not _greater(order, (0, 0, 0), a)


@pytest.mark.parametrize(
    "order",
    [MonomialOrder.lex(), MonomialOrder.grevlex(), MonomialOrder.block(1), MonomialOrder.block(2)],
    ids=repr,
)
@settings(max_examples=100, deadline=None)
@given(monos=st.lists(st.tuples(*[_WIDE_EXPONENT] * 4), max_size=30))
def test_order_key_sorts_as_the_oracle(order, monos):
    # ascending key is descending monomial, and so are the terms of
    # ring.poly; the oracle's key runs upwards
    want = sorted(monos, key=lambda m: order_key(order, m), reverse=True)
    assert sorted(monos, key=order.key) == want
    ring = PolyRing(F3, ("a", "b", "c", "d"), order)
    assert [m for m, _ in ring.poly(dict.fromkeys(monos, 1)).terms] == list(dict.fromkeys(want))


def test_grevlex_classic_comparison():
    order = MonomialOrder.grevlex()
    # x^2*z > y^2*w in 4 variables: equal degree, last nonzero difference negative
    assert _greater(order, (2, 0, 1, 0), (0, 2, 0, 1))
    # degree dominates
    assert _greater(order, (1, 1, 1, 0), (0, 0, 0, 2))


def test_block_order_eliminates_first_variables():
    order = MonomialOrder.block(1)
    # any monomial containing the first variable beats any without it
    assert _greater(order, (1, 0, 0), (0, 5, 5))


def test_orders_and_rings_refuse_malformed_arguments():
    # `ffor` refuses duplicate names before it builds a ring, so only a
    # library caller reaches the ring's own check
    for build, message in (
        (lambda: MonomialOrder("foo"), "^unknown order kind 'foo'$"),
        (lambda: MonomialOrder.block(-1), "^block size must be nonnegative$"),
        (lambda: PolyRing(F2, ("x", "x")), r"^duplicate variable names in \('x', 'x'\)$"),
    ):
        with pytest.raises(ValueError, match=message):
            build()


def test_scaling_by_zero_is_the_zero_polynomial():
    x, y = xy(R3)
    zero = (x * y + x).scale(0)
    assert zero == R3.zero() and zero.is_zero
    assert zero.total_degree() == -1
