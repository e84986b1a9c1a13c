import copy
import pickle
import random
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ytl.scalars import (Cyclotomic, PoleAtValue, RatFunc, _trace_weights, as_ratfunc,
                         cyclotomic_polynomial, over_one_denominator, value_at_one)

from oracles import FractionCyclotomic, GcdRatFunc, specialize_q, sum_of_products


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_roots_of_unity(d):
    roots = [Cyclotomic.root_power(d, j) for j in range(d)]
    assert roots[0] == Cyclotomic.one(d)
    for z in roots:
        acc = Cyclotomic.one(d)
        for _ in range(d):
            acc = acc * z
        assert acc == Cyclotomic.one(d)
    # all d-th roots are distinct
    assert len({tuple(z.coords) for z in roots}) == d
    total = Cyclotomic.zero(d)
    for z in roots:
        total = total + z
    assert total.is_zero() if d > 1 else total == Cyclotomic.one(1)


def test_cyclotomic_field_ops():
    z = Cyclotomic.root_power(3, 1)
    assert z * z * z == Cyclotomic.one(3)
    assert (z + z * z) == Cyclotomic.from_rational(-1, 3)
    inv = z.inv()
    assert z * inv == Cyclotomic.one(3)
    mixed = Cyclotomic.root_power(2, 1) + Cyclotomic.root_power(3, 1)
    assert mixed.order == 6


def _num(x):
    """The numerator of x, a Laurent polynomial."""
    return RatFunc(x.order, x.terms)


def test_laurent_basics():
    q = RatFunc.q()
    p = q * q + RatFunc.one() - RatFunc.q_power(-1)
    assert p.pretty() == "q^2 + 1 - q^-1" and p.den_exps == ()
    assert p.terms[0][0] == -1 and p.terms[-1][0] == 2
    # a repeated exponent sums its coefficients, and drops the power where
    # they cancel
    r = RatFunc(3, [(1, 2), (0, 1), (1, Cyclotomic.root_power(3, 1)), (1, Fraction(-1, 2))])
    assert r == RatFunc(3, {0: 1, 1: Cyclotomic.root_power(3, 1) + Fraction(3, 2)})
    assert RatFunc(2, [(1, 3), (0, 1), (1, -3)]) == RatFunc.one(2)
    assert RatFunc(2, [(1, 3), (1, -3)]).is_zero() and RatFunc(2, [(1, 3), (1, -3)]).terms == ()


def test_ratfunc_canonical_form():
    q = RatFunc.q()
    one = RatFunc.one()
    x = (q - one) / (q * q - one)
    y = one / (q + one)
    assert x == y
    assert x.den.den_exps == () and dict(x.den.terms)[0] == Cyclotomic.one(1)
    assert ((q ** 3 - one) / (q - one)) == q * q + q + one


def test_ratfunc_field_axioms_random():
    # denominators 1 + 2q and divisions by arbitrary numerators lie outside
    # the Phi-factored RatFunc, so the field laws run in the gcd field
    import random
    rng = random.Random(0)
    def rand():
        num = RatFunc(1, {e: Fraction(rng.randint(-3, 3)) for e in range(3)})
        if num.is_zero():
            num = RatFunc.one(1)
        den = RatFunc(1, {0: Fraction(1), 1: Fraction(rng.randint(0, 2))})
        return GcdRatFunc(num, den)
    for _ in range(50):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a / b) * b == a
        assert a - a == GcdRatFunc.zero()


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=40, deadline=None)
def test_q_power_additivity(a, b):
    assert RatFunc.q_power(a) * RatFunc.q_power(b) == RatFunc.q_power(a + b)


@given(st.fractions(min_value=-5, max_value=5), st.fractions(min_value=-5, max_value=5))
@settings(max_examples=40, deadline=None)
def test_rational_embedding_is_homomorphic(a, b):
    fa, fb = RatFunc.from_scalar(a), RatFunc.from_scalar(b)
    assert fa + fb == RatFunc.from_scalar(a + b)
    assert fa * fb == RatFunc.from_scalar(a * b)


def test_specialization():
    q = RatFunc.q()
    one = RatFunc.one()
    f = (q * q - one) / (q - one)       # = q + 1 after cancellation
    assert specialize_q(f, Cyclotomic.from_rational(1)) == Cyclotomic.from_rational(2)
    g = RatFunc.one(1) / RatFunc(1, {0: Fraction(-1), 1: Fraction(1)})
    with pytest.raises(PoleAtValue):
        specialize_q(g, Cyclotomic.from_rational(1))


@pytest.mark.parametrize("c", [Fraction(-3, 4), Cyclotomic.root_power(3, 1) * 2])
def test_specialize_at_every_power_of_q(c):
    # c q^e at q = 1 is c, at q = 2 it is c 2^e, and at q = zeta_6 it is
    # c zeta_6^(e mod 6); a negative e goes through the inverse of q
    one, two, z6 = Cyclotomic.from_rational(1), Cyclotomic.from_rational(2), \
        Cyclotomic.root_power(6, 1)
    for e in range(-3, 4):
        rf = RatFunc(3, {e: c})
        assert specialize_q(rf, one) == c
        assert specialize_q(rf, two) == c * Fraction(2) ** e
        assert specialize_q(rf, z6) == c * Cyclotomic.root_power(6, e % 6)
        if e < 0:
            with pytest.raises(PoleAtValue):
                specialize_q(rf, Cyclotomic.zero(1))
        else:
            assert specialize_q(rf, Cyclotomic.zero(1)) == (c if e == 0 else 0)


def test_integrality_predicate():
    q = RatFunc.q()
    assert not (q + q * q).den_exps
    assert (RatFunc.one() / (q + RatFunc.one())).den_exps


def test_coercion():
    assert as_ratfunc(3) == RatFunc.from_scalar(3)
    assert as_ratfunc(Fraction(1, 2)) * as_ratfunc(2) == RatFunc.one()


# -- __hash__ agrees with __eq__ ---------------------------------------------

_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8])


@st.composite
def cyclotomics(draw):
    order = draw(_orders)
    coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=4),
                           min_size=order, max_size=order))
    out = Cyclotomic.zero(order)
    for e, c in enumerate(coeffs):
        out = out + Cyclotomic.root_power(order, e) * c
    return out


def test_hash_examples():
    assert Cyclotomic.root_power(4, 1) == Cyclotomic.root_power(8, 2)
    assert len({Cyclotomic.root_power(4, 1), Cyclotomic.root_power(8, 2)}) == 1
    for x in (RatFunc(1, {0: 3}), RatFunc.from_scalar(3)):
        assert x == 3 and hash(x) == hash(3)
    assert RatFunc.from_scalar(3) == RatFunc(1, {0: 3})
    assert hash(RatFunc.from_scalar(3)) == hash(RatFunc(1, {0: 3}))


@pytest.mark.parametrize("order", range(1, 13))
def test_cyclotomic_hash_is_the_trace_fraction_hash(order):
    # the hash of the normalised trace t / den without the Fraction, against
    # hash(Fraction(t, den)); a rational hashes as its int or Fraction, and a
    # promoted value as the original
    rng = random.Random(order)
    weights, wden = _trace_weights(order)
    for _ in range(40):
        nums = [rng.randint(-10 ** 6, 10 ** 6) for _ in weights]
        x = Cyclotomic(order, [Fraction(c, rng.choice((1, 2, 3, 7, 12, 10 ** 20)))
                               for c in nums])
        t = sum(n * w for n, w in zip(x.nums, weights))
        assert hash(x) == hash(Fraction(t, x.den * wden))
        assert hash(x.promote(2 * order)) == hash(x)
        r = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.choice((1, 3, 10 ** 20)))
        assert hash(Cyclotomic.from_rational(r, order)) == hash(r)
    for r in (0, 1, -1, -2, sys.hash_info.modulus, -sys.hash_info.modulus - 1,
              Fraction(1, sys.hash_info.modulus), Fraction(-3, 2 * sys.hash_info.modulus)):
        assert hash(Cyclotomic.from_rational(r, order)) == hash(r)
        assert hash(Cyclotomic.from_rational(r).promote(order)) == hash(r)


@given(st.fractions(-5, 5), _orders)
@settings(max_examples=40, deadline=None)
def test_rational_hash_through_coercions(r, order):
    for x in (Cyclotomic.from_rational(r, order), RatFunc(order, {0: r}),
              RatFunc.from_scalar(r, order)):
        assert x == r and hash(x) == hash(r)


@given(_orders, st.integers(1, 3),
       st.lists(st.fractions(-3, 3, max_denominator=4), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_cyclotomic_hash_across_fields(order, k, coeffs):
    # the same number built natively in Q(zeta_order) and in Q(zeta_(k*order))
    small = Cyclotomic.zero(order)
    big = Cyclotomic.zero(k * order)
    for e, c in enumerate(coeffs[:order]):
        small = small + Cyclotomic.root_power(order, e) * c
        big = big + Cyclotomic.root_power(k * order, k * e) * c
    assert small == big and hash(small) == hash(big)
    assert small == small.promote(2 * k * order)
    assert hash(small) == hash(small.promote(2 * k * order))


@given(cyclotomics(), cyclotomics(), st.integers(-3, 3), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_hash_across_promotion_and_coercion(x, y, e, k):
    p = RatFunc(x.order, {e: x}) + RatFunc(y.order, {0: y})
    den = RatFunc(y.order, {0: y, 2: -y})  # y (1 - q)(1 + q) when y is not 0
    if y.is_zero():
        den = RatFunc(y.order, {0: 1, 1: 1})
    m = p.order * k
    pairs = [
        (RatFunc.from_scalar(x, x.order), x),
        (RatFunc.from_scalar(x, x.order), RatFunc(x.order, {0: x})),
        (RatFunc(x.order, {0: x}), x),
        (x, RatFunc(x.order, {0: x})),
        (RatFunc(p.order, p.terms), p),
        (p, RatFunc(m, p.terms)),
        (RatFunc(p.order, p.terms), RatFunc(m, p.terms)),
        (p / den, RatFunc(m, p.terms) / RatFunc(m, den.terms)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


def test_laurent_rejects_coefficient_outside_its_field():
    zeta3 = Cyclotomic.root_power(3, 1)
    with pytest.raises(ValueError):
        RatFunc(2, {0: zeta3})
    with pytest.raises(ValueError):
        RatFunc(2, {1: Cyclotomic.root_power(4, 1)})
    # a coefficient of a subfield is promoted
    assert RatFunc(6, {0: zeta3}).terms[0][1].order == 6


def test_specialize_uses_the_lcm_of_the_orders():
    q = RatFunc.q(4) * Cyclotomic.root_power(4, 1)
    z6 = Cyclotomic.root_power(6, 1)
    v = specialize_q(q, z6)
    assert v.order == 12 and len(v.coords) == 4
    assert v == Cyclotomic.root_power(12, 5)


def test_times_monomial():
    x = RatFunc(3, {-1: 2, 2: Cyclotomic.root_power(3, 1)}) / RatFunc(3, {0: 1, 1: 1})
    z = Cyclotomic.root_power(3, 2)
    for c, e in ((1, 0), (z, 0), (1, -3), (z, 2), (Fraction(1, 9), 1)):
        got = x.times_monomial(c, e)
        want = x * RatFunc.from_scalar(c, 3) * RatFunc.q_power(e, 3)
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
    # a factor from a larger field than x's is refused, not promoted
    with pytest.raises(ValueError, match="order 12 does not lie in Q\\(zeta_3\\)"):
        x.times_monomial(Cyclotomic.root_power(4, 1))
    # from a subfield it is promoted
    assert x.times_monomial(Cyclotomic.from_rational(-1, 1), 1) == -x * RatFunc.q(3)


# -- int coordinates against the Fraction-coordinate reference -----------------

_coord = st.one_of(st.just(0), st.integers(-5, 5),
                   st.fractions(-4, 4, max_denominator=27))
# pairs of orders in 1..12 whose common field has at most 8 coordinates
_order_pairs = st.sampled_from([(a, b) for a in range(1, 13) for b in range(1, 13)
                                if len(cyclotomic_polynomial(lcm(a, b))) <= 9])


def _both(draw, order):
    coords = draw(st.lists(_coord, min_size=len(cyclotomic_polynomial(order)) - 1,
                           max_size=len(cyclotomic_polynomial(order)) - 1))
    return Cyclotomic(order, coords), FractionCyclotomic(order, coords)


@st.composite
def cyclotomic_with_reference(draw, orders=st.integers(1, 12)):
    return _both(draw, draw(orders))


def _assert_matches(x, ref):
    assert x.order == ref.order
    assert x.coords == ref.coords
    assert all(type(c) is Fraction for c in x.coords)
    assert repr(x) == repr(ref)
    assert x.to_json() == ref.to_json()
    assert hash(x) == hash(ref)
    _assert_lowest_terms(x)


def _assert_lowest_terms(x):
    assert len(x.nums) == len(cyclotomic_polynomial(x.order)) - 1
    assert all(type(v) is int for v in x.nums) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


@given(st.data(), _order_pairs)
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_fraction_reference(data, orders):
    x, rx = _both(data.draw, orders[0])
    y, ry = _both(data.draw, orders[1])
    _assert_matches(x, rx)
    _assert_matches(x + y, rx + ry)
    _assert_matches(x - y, rx - ry)
    _assert_matches(x * y, rx * ry)
    _assert_matches(-x, -rx)
    if not y.is_zero():
        _assert_matches(y.inv(), ry.inv())
        _assert_matches(x / y, rx / ry)
    assert (x == y) == (rx == ry)


@given(cyclotomic_with_reference(), st.integers(1, 3),
       st.fractions(-3, 3, max_denominator=9))
@settings(max_examples=100, deadline=None)
def test_promote_and_rationals_match_fraction_reference(pair, k, r):
    x, rx = pair
    _assert_matches(x.promote(k * x.order), rx.promote(k * x.order))
    _assert_matches(x * r, rx * r)
    _assert_matches(x + r, rx + r)
    _assert_matches(r - x, r - rx)
    _assert_matches(Cyclotomic.from_rational(r, x.order),
                    FractionCyclotomic.from_rational(r, x.order))
    assert (x == r) == (rx == r)
    assert (x == r.numerator) == (rx == r.numerator)


@given(st.data(), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_ring_axioms(data, order):
    (x, _), (y, _), (z, _) = (_both(data.draw, order) for _ in range(3))
    zero, one = Cyclotomic.zero(order), Cyclotomic.one(order)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and (x * zero).is_zero()
    assert (x - x).is_zero() and (x - x).den == 1
    assert (x * Fraction(1, 2) == x) == x.is_zero() and x + 1 != x
    if not x.is_zero():
        assert x * x.inv() == one and x.inv().inv() == x
    for v in (x + y, x * y, x - z, x * y * z):
        _assert_lowest_terms(v)


def test_coordinates_must_be_exact():
    for bad in (0.1, "1/3", 1.0, None):
        with pytest.raises(TypeError):
            Cyclotomic(1, [bad])
        with pytest.raises(TypeError):
            Cyclotomic(3, [0, bad])
        with pytest.raises(TypeError):
            Cyclotomic.from_rational(bad, 3)
    x = Cyclotomic(3, [Fraction(2, 6), 2])
    assert (x.nums, x.den) == ((1, 6), 3)
    assert x.coords == (Fraction(1, 3), Fraction(2))
    assert Cyclotomic.zero(12).den == 1 and Cyclotomic(4, [Fraction(0, 7), 0]).den == 1


def test_polynomial_fast_paths_keep_one_field():
    z3, z4 = Cyclotomic.root_power(3, 1), Cyclotomic.root_power(4, 1)
    a = RatFunc(3, {1: z3, 0: 2})
    b = RatFunc(4, {-1: z4})
    for r in (a + b, a * b, b + a, b * a):
        assert r.order == r.den.order == 12 and r.den == 1
    assert a * b == RatFunc(12, {0: z3 * z4, -1: z4 * 2})
    assert a + b == RatFunc(12, {1: z3, 0: 2, -1: z4})
    # sums that cancel leave no zero terms behind
    assert (a - a).terms == () and (a + (-a)).is_zero()
    p = RatFunc(3, {0: 1, 1: z3})
    assert (p + -p).terms == () and (p * p - p * p).terms == ()


# -- over_one_denominator ------------------------------------------------------

# denominators as exponent vectors of F_1 = 1 - q and F_j = Phi_j: 1, 1 + q,
# 1 + q + q^2, 1 - q^2, (1 + q)^2 (1 + q^2)
_DENS = [(), ((2, 1),), ((3, 1),), ((1, 1), (2, 1)), ((2, 2), (4, 1))]


@st.composite
def laurents(draw):
    """Laurent polynomials of orders 1 to 4 with up to three terms, zero
    included."""
    order = draw(st.sampled_from([1, 2, 3, 4]))
    exps = draw(st.lists(st.integers(-2, 3), max_size=3, unique=True))
    return RatFunc(order, {e: Cyclotomic.root_power(order, draw(st.integers(0, order - 1)))
                           * draw(st.fractions(-3, 3, max_denominator=3)) for e in exps})


def _fresh(den):
    """An equal denominator that is not the same object."""
    return tuple(list(den))


def _over(num, den):
    """The Laurent polynomial num over the exponent vector den."""
    return RatFunc.over(num.order, num.terms, den)


@given(st.lists(st.tuples(laurents(), st.integers(0, len(_DENS) - 1)), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_over_one_denominator_sums_like_ratfuncs(drawn):
    values = [_over(num, _fresh(_DENS[i])) for num, i in drawn]
    nums, den = over_one_denominator(values)
    want = RatFunc.zero()
    for x in values:
        want = want + x
    order = lcm(*(x.order for x in values))
    total = RatFunc.zero(order)
    for x, num in zip(values, nums):
        total = total + RatFunc(x.order, num)
    assert RatFunc.over(order, total.terms, den) == want
    # the least common multiple: the largest exponent of each factor
    top = {}
    for x in values:
        for j, e in x.den_exps:
            top[j] = max(top.get(j, 0), e)
    assert den == tuple(sorted(top.items()))
    if len(set(x.den_exps for x in values)) == 1:
        # one distinct denominator: nothing is multiplied
        assert all(a is x.terms for a, x in zip(nums, values))
        assert den is values[0].den_exps


def test_over_one_denominator_examples():
    one_q = ((2, 1),)
    x, y = RatFunc(1, {0: 2}), RatFunc(1, {1: -1})
    assert over_one_denominator([]) == ([], ())
    nums, den = over_one_denominator([_over(x, one_q), _over(y, _fresh(one_q))])
    assert nums[0] is x.terms and nums[1] is y.terms and den is one_q
    nums, den = over_one_denominator([x, y])
    assert nums[0] is x.terms and nums[1] is y.terms and den == ()
    # () stands for 1: only the other denominator multiplies
    nums, den = over_one_denominator([x, _over(y, one_q), _over(x, _fresh(one_q))])
    assert nums == [(x * RatFunc(1, {0: 1, 1: 1})).terms, y.terms, x.terms] and den == one_q
    # the lcm, not the product: (1 + q) and (1 - q)(1 + q) meet over the latter
    nums, den = over_one_denominator([_over(x, one_q), _over(y, ((1, 1), (2, 1)))])
    assert nums == [(x * RatFunc(1, {0: 1, 1: -1})).terms, y.terms] and den == ((1, 1), (2, 1))


def test_sum_of_products_cancels_across_denominators():
    # the reference seminormal sum of tests/oracles.py: 1/(1 + q) * q - q
    # Phi_3 / ((1 + q) Phi_3), two products over distinct denominators,
    # lifted to their lcm and added before any division
    one_q = RatFunc(1, {0: 1, 1: 1})
    phi3 = RatFunc(1, {0: 1, 1: 1, 2: 1})
    q = RatFunc.q()
    left = (RatFunc.one() / one_q, q)
    right = RatFunc.one() / (one_q * phi3), RatFunc(1, {1: 1}) * phi3
    zero = RatFunc.zero()
    got = sum_of_products([left, (right[0], -right[1])], zero)
    assert got.is_zero() and got == zero
    assert sum_of_products([(q, zero), (zero, q)], zero) is zero
    got = sum_of_products([left, right], zero)
    assert got == RatFunc(1, {1: 2}) / one_q and got.den_exps == ((2, 1),)


def round_trips(x):
    """x through pickle (every protocol), copy and deepcopy."""
    return ([pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            + [copy.copy(x), copy.deepcopy(x)])


@pytest.mark.parametrize("d", [1, 3])
def test_scalars_survive_pickle_and_copy(d):
    deg = len(Cyclotomic.one(d).nums)
    c = Cyclotomic(d, [Fraction(1, 3)] + [Fraction(2, 9)] * (deg - 1))
    num = RatFunc(d, {-1: c, 2: Cyclotomic.one(d)})
    r = num / RatFunc(d, {0: 1, 1: 1})
    assert c.den > 1 and r.den_exps
    for x in (c, num, r):
        for y in round_trips(x):
            assert type(y) is type(x) and y == x
            assert hash(y) == hash(x) and repr(y) == repr(x)


@pytest.mark.parametrize("d", [1, 3])
def test_scalars_refuse_assignment_and_deletion(d):
    # each slot, on values from the validating constructors, from the
    # trusted ones (arithmetic) and from pickle and copy
    c = Cyclotomic(d, [Fraction(1, 3)] + [0] * (len(Cyclotomic.one(d).nums) - 1))
    num = RatFunc(d, {-1: c, 2: Cyclotomic.one(d)})
    r = num / RatFunc(d, {0: 1, 1: 1})
    for x in (c, num, r, c * c, num * num, r * r):
        for y in [x] + round_trips(x):
            for name in type(x).__slots__:
                before = getattr(y, name)
                with pytest.raises(AttributeError):
                    setattr(y, name, before)
                with pytest.raises(AttributeError):
                    delattr(y, name)
                assert getattr(y, name) is before
            with pytest.raises(AttributeError):
                y.extra = 1
            assert y == x


# -- the Phi-factored RatFunc against the gcd field -----------------------------

# F_1 = 1 - q and F_j = Phi_j, the factors a denominator is made of
_FACTOR_JS = (1, 2, 3, 4, 6)


def _factor(j, order):
    return RatFunc(order, {0: 1, 1: -1}) if j == 1 else \
        RatFunc(order, dict(enumerate(cyclotomic_polynomial(j))))


@st.composite
def phi_fractions(draw):
    """(x, X): a RatFunc num / prod F_j^e_j and the same value in the gcd
    field. The numerator is either random over Q(zeta_k), or a unit times a
    product of F_j (so that it can be inverted), in which case it shares
    factors with the denominator one time in two."""
    order = draw(st.sampled_from((1, 2, 3, 4, 6)))
    den = RatFunc.one(order)
    for j in draw(st.lists(st.sampled_from(_FACTOR_JS), max_size=3)):
        den = den * _factor(j, order)
    if draw(st.booleans()):
        num = RatFunc(order, {e: Cyclotomic.root_power(order, draw(st.integers(0, order - 1)))
                              * draw(st.sampled_from((1, -1, 2, Fraction(1, 3))))
                              for e in draw(st.lists(st.integers(-2, 3), min_size=1,
                                                     max_size=3, unique=True))})
    else:
        num = RatFunc(order, {draw(st.integers(-2, 2)): Cyclotomic.root_power(
            order, draw(st.integers(0, order - 1))) * draw(st.sampled_from((1, -3)))})
        for j in draw(st.lists(st.sampled_from(_FACTOR_JS), max_size=2)):
            num = num * _factor(j, order)
    return num / den, GcdRatFunc(num, den)


def _matches(x, ref):
    """x and the gcd-field value ref are the same number. Where the two
    canonical forms coincide, so do repr and hash."""
    assert GcdRatFunc(_num(x), x.den) == ref
    assert _num(x) * ref.den == ref.num * x.den
    if x.den == ref.den:
        assert _num(x) == ref.num
        assert repr(x) == repr(ref) and hash(x) == hash(ref)


@given(phi_fractions(), phi_fractions())
@settings(max_examples=150, deadline=None)
def test_ratfunc_against_gcd_field(a, b):
    (x, rx), (y, ry) = a, b
    _matches(x, rx)
    _matches(x + y, rx + ry)
    _matches(x - y, rx - ry)
    _matches(x * y, rx * ry)
    assert (x == y) == (rx == ry)
    if x == y:
        assert hash(x) == hash(y)
    assert x * y == y * x and (x + y) - y == x
    for v, rv in ((x, rx), (y, ry)):
        if not v.is_zero():
            try:
                inv = v.inv()
            except ValueError:
                continue
            _matches(inv, rv.inv())
            assert inv * v == 1 and inv.inv() == v


def test_split_factor_cancels_only_in_the_gcd_field():
    # q - zeta_3 divides Phi_3 = (q - zeta_3)(q - zeta_3^2) over Q(zeta_3):
    # the gcd field cancels it, the Phi-factored form keeps Phi_3
    z = Cyclotomic.root_power(3, 1)
    num = RatFunc(3, {1: 1, 0: -z})
    phi3 = _factor(3, 3)
    x, ref = num / phi3, GcdRatFunc(num, phi3)
    assert x.den_exps == ((3, 1),) and _num(x) == num
    # 1 / (q - zeta^2) = -zeta / (1 - zeta q)
    assert ref.num == RatFunc(3, {0: -z}) and ref.den == RatFunc(3, {0: 1, 1: -z})
    assert _num(x) * ref.den == ref.num * x.den
    assert GcdRatFunc(_num(x), x.den) == ref
    # sums and products that meet the other factor cancel all of Phi_3
    other = RatFunc(3, {1: 1, 0: -z * z})
    assert x * other == RatFunc.one(3)
    assert (x * other).den_exps == ()


def test_inverse_needs_a_phi_product():
    q, one = RatFunc.q(), RatFunc.one()
    with pytest.raises(ValueError, match=r"RatFunc\(q - 2\)"):
        one / (q - 2 * one)
    with pytest.raises(ValueError, match=r"q \+ 2"):
        RatFunc.one(1) / RatFunc(1, {0: 2, 1: 1})
    # a unit times powers of q and of Phi_j inverts
    x = (q * q - one) * (q * q + one) * RatFunc.from_scalar(Fraction(-2, 3)) * q
    assert x.inv() * x == one
    assert x.inv().den_exps == ((1, 1), (2, 1), (4, 1))


# -- the canonical form's two read-outs: the value at q = 1 and the inverse ---

_FIELD_ORDERS = (1, 2, 3, 4, 6, 12)


@st.composite
def _nonzero_cyclotomics(draw, order):
    """A nonzero element of Q(zeta_order), not only a rational."""
    deg = len(cyclotomic_polynomial(order)) - 1
    coords = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=deg,
                           max_size=deg).filter(any))
    return Cyclotomic(order, coords)


def _exponent_vectors():
    return st.dictionaries(st.integers(1, 12), st.integers(1, 2), max_size=3).map(
        lambda exps: tuple(sorted(exps.items())))


@st.composite
def ratfuncs_over_f(draw):
    """A RatFunc with q-exponents in -4..4 over prod F_j^e_j, j in 1..12."""
    order = draw(st.sampled_from(_FIELD_ORDERS))
    num = RatFunc(order, draw(st.dictionaries(st.integers(-4, 4),
                                              _nonzero_cyclotomics(order), max_size=4)))
    return _over(num, draw(_exponent_vectors()))


@given(ratfuncs_over_f())
@settings(max_examples=200, deadline=None)
def test_value_at_one_matches_the_evaluator(rf):
    try:
        want = specialize_q(rf, 1)
    except PoleAtValue:
        with pytest.raises(PoleAtValue):
            value_at_one(rf)
        assert any(j == 1 for j, _ in rf.den_exps)
        return
    got = value_at_one(rf)
    assert got == want and hash(got) == hash(want)
    assert got.order == want.order == rf.order


def test_value_at_one_examples():
    q, one = RatFunc.q(), RatFunc.one()
    # (q^2 - 1) / (q^6 - 1) = 1 / (Phi_3 Phi_6) at q = 1 is 1/3
    assert value_at_one((q * q - one) / (q ** 6 - one)) == Fraction(1, 3)
    assert value_at_one(RatFunc.zero(3)) == 0
    with pytest.raises(PoleAtValue):
        value_at_one(one / (q - one))


@given(st.data(), st.sampled_from(_FIELD_ORDERS), st.integers(-4, 4), _exponent_vectors())
@settings(max_examples=150, deadline=None)
def test_inverse_of_a_unit_times_f_powers(data, order, a, exps):
    # c q^a prod F_j^e_j with c in Q(zeta_order) inverts to q^-a / c over the
    # exponent vector it was built from
    c = data.draw(_nonzero_cyclotomics(order))
    num = RatFunc(order, {a: c})
    for j, e in exps:
        for _ in range(e):
            num = num * _factor(j, order)
    inv = num.inv()
    assert inv * num == 1
    assert inv.den_exps == exps and _num(inv) == RatFunc(order, {-a: c.inv()})
    # a leading coefficient twice the lowest: no unit times F_j has that
    perturbed = num + RatFunc(order, {num.terms[-1][0] + 1: 2 * c})
    with pytest.raises(ValueError, match="cannot invert"):
        perturbed.inv()


# -- one type: equality and hashing across fields, constants and pickling ----


@given(ratfuncs_over_f(), ratfuncs_over_f(), st.sampled_from((1, 2, 3, 6)))
@settings(max_examples=150, deadline=None)
def test_equality_and_hash_of_the_one_type(x, y, k):
    # promoted to a multiple of its order, a value stays equal and hashes
    # equal; the promotion is built from Cyclotomic.promote alone
    m = k * x.order
    big = RatFunc.over(m, tuple((e, c.promote(m)) for e, c in x.terms), x.den_exps)
    assert big.order == m and big.den_exps == x.den_exps
    assert big == x and x == big and hash(big) == hash(x)
    assert (x * RatFunc.one(m)).order == m and x * RatFunc.one(m) == x
    # two values are equal exactly when their difference is zero
    assert (x == y) == (x - y).is_zero() == (y == x)
    if x == y:
        assert hash(x) == hash(y)
    for v in (x, big):
        for w in round_trips(v):
            assert type(w) is RatFunc and w == v and hash(w) == hash(v)
            assert repr(w) == repr(v) and w.order == v.order


@given(st.sampled_from(_FIELD_ORDERS), st.sampled_from((1, 2, 3)),
       st.fractions(-5, 5, max_denominator=6), st.data())
@settings(max_examples=100, deadline=None)
def test_constants_equal_and_hash_as_their_scalar(order, k, r, data):
    c = data.draw(_nonzero_cyclotomics(order))
    for scalar in (r, r.numerator, c, c.promote(k * order)):
        for x in (RatFunc.from_scalar(scalar, k * order), RatFunc(k * order, {0: scalar})):
            assert x.den_exps == ()
            assert x == scalar and scalar == x and hash(x) == hash(scalar)
            assert x != scalar + 1 and x + RatFunc.q(order) != scalar


def test_foreign_cyclotomic_meets_ratfunc_in_the_common_field():
    from ytl.yokonuma import unit
    z3 = Cyclotomic.root_power(3, 1)
    # comparisons never raise: 1 is not zeta_3, in either order
    assert (RatFunc.one(1) == z3) is False
    assert (z3 == RatFunc.one(1)) is False
    assert (RatFunc.one(1) != z3) is True
    assert RatFunc.from_scalar(z3, 3) == z3 and z3 == RatFunc.one(2) * RatFunc.from_scalar(z3, 3)
    # a sum lands in Q(zeta_6): 1 + zeta_3 = zeta_6
    s = RatFunc.one(2) + z3
    assert s.order == 6 and s == Cyclotomic.root_power(6, 1) and s - z3 == 1
    # so does a scale, as with the RatFunc of zeta_3
    x = unit(2, 2).scale(z3)
    assert x == unit(2, 2) * RatFunc.from_scalar(z3, 3) and x.order == 6
    # a constructor or a unit factor of a foreign field is still refused
    with pytest.raises(ValueError):
        RatFunc.from_scalar(z3, 2)
    with pytest.raises(ValueError):
        RatFunc.one(2).times_monomial(z3)


def test_ratfunc_equality_makes_no_abc_instance_check():
    # linalg.mat_mul compares every entry with zero: RatFunc == RatFunc
    # decides on the type alone, without isinstance against Fraction, whose
    # ABC __instancecheck__ runs Python code on every call
    z3 = Cyclotomic.root_power(3, 1)
    x = RatFunc(3, {-1: z3, 2: Fraction(1, 2)}) / (RatFunc.one(3) + RatFunc.q(3))
    values = [RatFunc.zero(1), RatFunc.zero(3), RatFunc.one(1), RatFunc.one(6), x,
              x * RatFunc.one(6), RatFunc.q(2)]
    checks = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__instancecheck__":
            checks.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        got = [[a == b for b in values] for a in values]
        unequal = [[a != b for b in values] for a in values]
    finally:
        sys.setprofile(None)
    assert not checks, checks
    # zero and one equal across orders, x equals its promotion to Q(zeta_6)
    classes = [0, 0, 1, 1, 2, 2, 3]
    assert got == [[i == j for j in classes] for i in classes]
    assert unequal == [[i != j for j in classes] for i in classes]
