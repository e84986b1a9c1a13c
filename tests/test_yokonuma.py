import copy
import itertools
import pickle
import random
import time
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ytl.exprparse import parse_and_evaluate
from ytl.permutations import Perm, all_perms, compositions, coset_system
from ytl.reps import ideal_membership
from ytl.scalars import Cyclotomic, RatFunc, laurent_from_ints
from ytl import yokonuma as yk


def q(d=1):
    return RatFunc.q(d)


def one(d=1):
    return RatFunc.one(d)


def test_constructors():
    u = yk.unit(2, 2)
    assert u.terms == ((((0, 0), Perm.identity(2)), RatFunc.one(2)),)
    t1 = yk.gen_t(2, 2, 1)
    assert t1.terms[0][0] == ((1, 0), Perm.identity(2))
    g1 = yk.gen_g(2, 2, 1)
    assert g1.terms[0][0] == ((0, 0), Perm.transposition(2, 1))
    with pytest.raises(ValueError):
        yk.gen_g(2, 2, 2)
    with pytest.raises(ValueError):
        yk.gen_t(2, 2, 3)


def test_terms_need_int_exponents_and_a_perm():
    # a float t-exponent or a word that is not a Perm is refused, naming
    # the term, before any product can key the shared t-monomial tables by it
    ident = Perm.identity(2)
    for make in (lambda: yk.YElement(2, 2, {((0.5, 0), ident): 1}),
                 lambda: yk.gen_t(2, 2, 1, power=0.5)):
        with pytest.raises(TypeError, match=r"\(0\.5, 0\)"):
            make()
    with pytest.raises(TypeError, match=r"\(1, 2\)"):
        yk.YElement(2, 2, {((0, 0), (1, 2)): 1})
    t1 = yk.gen_t(2, 2, 1)
    assert (t1 * t1).to_json()[0]["t"] == [0, 0]
    assert yk.YElement(2, 2, {((True, 3), ident): 1}).terms[0][0] == ((1, 1), ident)


def test_quadratic_relation_d1():
    x = yk.gen_g(1, 2, 1) * yk.gen_g(1, 2, 1)
    assert x == yk.unit(1, 2).scale(q()) + yk.gen_g(1, 2, 1).scale(q() - one())


def test_quadratic_relation_d2():
    x = yk.gen_g(2, 2, 1) * yk.gen_g(2, 2, 1)
    half = RatFunc.from_scalar(Fraction(1, 2), 2)
    e_part = yk.gen_g(2, 2, 1) + yk.gen_t(2, 2, 1) * yk.gen_t(2, 2, 2) * yk.gen_g(2, 2, 1)
    assert x == yk.unit(2, 2).scale(q(2)) + e_part.scale((q(2) - one(2)) * half)


def test_framing_shift_through_e():
    assert yk.gen_t(3, 2, 1) * yk.e(3, 2, 1) == yk.gen_t(3, 2, 2) * yk.e(3, 2, 1)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (4, 4)])
def test_e_idempotent_and_commutes(d, n):
    for i in range(1, n):
        ei = yk.e(d, n, i)
        gi = yk.gen_g(d, n, i)
        assert ei * ei == ei
        assert ei * gi == gi * ei


@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 3), (2, 4)])
def test_defining_relations(d, n):
    g = [yk.gen_g(d, n, i) for i in range(1, n)]
    t = [yk.gen_t(d, n, j) for j in range(1, n + 1)]
    for i in range(n - 2):
        assert g[i] * g[i + 1] * g[i] == g[i + 1] * g[i] * g[i + 1]
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            assert g[i] * g[j] == g[j] * g[i]
    for a in range(n):
        for b in range(n):
            assert t[a] * t[b] == t[b] * t[a]
    for i in range(1, n):
        for j in range(1, n + 1):
            sj = j + 1 if j == i else (j - 1 if j == i + 1 else j)
            assert t[j - 1] * g[i - 1] == g[i - 1] * t[sj - 1]
        assert g[i - 1] * g[i - 1] == \
            yk.unit(d, n).scale(q(d)) + (yk.e(d, n, i) * g[i - 1]).scale(q(d) - one(d))
    for j in range(n):
        acc = yk.unit(d, n)
        for _ in range(d):
            acc = acc * t[j]
        assert acc == yk.unit(d, n)


def test_gen_g_inverse():
    for d, n in [(1, 3), (2, 3), (3, 3)]:
        for i in range(1, n):
            assert yk.gen_g(d, n, i) * yk.gen_g_inv(d, n, i) == yk.unit(d, n)
            assert yk.gen_g_inv(d, n, i) * yk.gen_g(d, n, i) == yk.unit(d, n)


def test_standard_basis_closure():
    # products of up to 6 generators stay in the d^n * n! span; count it once
    d, n = 2, 3
    assert len(list(itertools.product(range(d), repeat=n))) * factorial(n) == 48
    rng = random.Random(5)
    gens = [yk.gen_g(d, n, i) for i in range(1, n)] + \
           [yk.gen_t(d, n, j) for j in range(1, n + 1)]
    for _ in range(10):
        x = yk.unit(d, n)
        for _ in range(6):
            x = x * gens[rng.randrange(len(gens))]
        for (tmon, w), c in x.terms:
            assert all(0 <= a < d for a in tmon)
            assert w.n == n and not c.is_zero()


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4)])
def test_associativity_random(d, n):
    rng = random.Random(42)
    gens = [yk.gen_g(d, n, i) for i in range(1, n)] + \
           [yk.gen_t(d, n, j) for j in range(1, n + 1)]
    def rand():
        x = yk.unit(d, n)
        for _ in range(2):
            x = x * gens[rng.randrange(len(gens))]
        return x
    for _ in range(50):
        x, y, z = rand(), rand(), rand()
        assert (x * y) * z == x * (y * z)


def _random_coeff(rng, order, dens=()):
    """c zeta^k q^e with a small rational c, a random root of unity and a
    q-exponent that may be negative, over one of dens (or over 1)."""
    c = Cyclotomic.root_power(order, rng.randrange(order)) * Fraction(
        rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3)))
    out = RatFunc.from_scalar(c, order) * RatFunc.q_power(rng.randint(-3, 2), order)
    den = rng.choice((None,) + tuple(dens))
    return out if den is None else out / den


def _random_element(rng, d, n, terms, order=None, dens=()):
    """terms terms on few permutations, so that several t-monomials share
    one permutation; order is the coefficients' field (d by default)."""
    order = order or d
    perms = rng.sample(all_perms(n), min(3, factorial(n)))
    return yk.YElement(d, n, [
        ((tuple(rng.randrange(d) for _ in range(n)), rng.choice(perms)),
         _random_coeff(rng, order, dens))
        for _ in range(terms)])


def _same_as_reference(x, y):
    got, want = x * y, oracles.ref_mul(x, y)
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    # the product emits its terms in normal form, unsorted by YElement
    assert list(got.terms) == sorted(got.terms, key=yk._term_order)
    return got


@pytest.mark.parametrize("d,n", [(1, 3), (1, 4), (2, 3), (3, 3), (2, 4), (4, 2), (1, 5)])
def test_product_against_reference(d, n):
    rng = random.Random(1000 * d + n)
    terms = 8 - n if n > 3 else 5
    one_q = RatFunc.one(d) + RatFunc.q(d)
    # two denominator groups per side, besides the Laurent terms
    dens = (one_q, one_q + RatFunc.q_power(2, d))
    for _ in range(4):
        _same_as_reference(_random_element(rng, d, n, terms),
                           _random_element(rng, d, n, terms))
        _same_as_reference(_random_element(rng, d, n, terms, dens=dens),
                           _random_element(rng, d, n, terms, dens=dens))
    # a zero operand on either side
    x = _random_element(rng, d, n, terms, dens=dens)
    assert _same_as_reference(yk.zero(d, n), x).is_zero()
    assert _same_as_reference(x, yk.zero(d, n)).is_zero()
    # terms that share one non-unit denominator
    shared = _random_element(rng, d, n, terms).scale(dens[0].inv())
    assert len({c.den for _, c in shared.terms}) == 1
    _same_as_reference(shared, _random_element(rng, d, n, terms))
    _same_as_reference(shared, shared)
    # a Laurent operand and one with two denominators, on either side
    two = shared + _random_element(rng, d, n, terms).scale(dens[1].inv())
    assert len({c.den for _, c in two.terms}) >= 2
    laurent = _random_element(rng, d, n, terms)
    _same_as_reference(laurent, two)
    _same_as_reference(two, laurent)
    # a long word on each side
    longest = all_perms(n)[-1]
    x = yk.YElement(d, n, {((0,) * n, longest): _random_coeff(rng, d, dens)})
    _same_as_reference(x + _random_element(rng, d, n, 2), x)
    # vanishing products: E_chi(a) E_chi(b) = 0 for a != b
    chars = list(itertools.product(range(d), repeat=n))
    a, b = rng.sample(chars, 2) if len(chars) > 1 else (chars[0], chars[0])
    ea, eb = yk.E_chi(d, n, a), yk.E_chi(d, n, b)
    assert _same_as_reference(ea, eb).is_zero() == (a != b)


@pytest.mark.parametrize("order", [3, 4])
def test_product_against_reference_hecke_cells(order):
    # the d = 1 cells that isomaps builds carry coefficients of the block's
    # order, through hecke_term(n, w, c, order)
    rng = random.Random(order)
    for n in (3, 4):
        for _ in range(3):
            _same_as_reference(_random_element(rng, 1, n, 4, order=order),
                               _random_element(rng, 1, n, 4, order=order))
    # d divides the coefficients' order: d = 2 over Q(zeta_4)
    if order == 4:
        _same_as_reference(_random_element(rng, 2, 3, 4, order=4),
                           _random_element(rng, 2, 3, 4, order=4))


def test_product_against_reference_mixed_orders():
    # coefficients of several orders: equal values and hashes, whatever field
    # each output coefficient is printed in
    rng = random.Random(5)
    for d, n, orders in [(1, 3, (3, 4)), (2, 3, (1, 3)), (3, 3, (1, 6))]:
        for _ in range(3):
            x = _random_element(rng, d, n, 3, order=orders[0]) + \
                _random_element(rng, d, n, 2, order=orders[1])
            y = _random_element(rng, d, n, 3, order=orders[1])
            got, want = x * y, oracles.ref_mul(x, y)
            assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("d,n,order", [(6, 2, 6), (2, 3, 6), (3, 3, 12), (4, 2, 12)])
def test_packed_product_of_unequal_zeta_spans(d, n, order):
    # a rational operand times one with coefficients of order L and of order
    # 3: the promoted zeta_3 = zeta_L^(L/3) sits at a power of zeta past
    # phi(L), the widest span a row of Q(zeta_L) has. Each side packs the
    # zeta powers it uses, whichever side it is on
    rng = random.Random(100 * d + order)
    zeta3 = RatFunc.from_scalar(Cyclotomic.root_power(3, 1), 3)
    for _ in range(3):
        rational = _random_element(rng, d, n, 4, order=1)
        full = (_random_element(rng, d, n, 3, order=order)
                + _random_element(rng, d, n, 2, order=3)
                + yk.gen_t(d, n, 1).scale(zeta3 * RatFunc.q_power(rng.randint(-2, 2), 3)))
        assert lcm(rational.order, full.order) == full.order == order
        assert yk._coded(rational)[7] == 0
        assert yk._coded(full)[7] == order // 3 >= {6: 2, 12: 4}[order]
        for x, y in ((rational, full), (full, rational), (full, full),
                     (rational, rational * yk.gen_g(d, n, 1))):
            got, want = x * y, oracles.ref_mul(x, y)
            assert got == want and hash(got) == hash(want)
            assert list(got.terms) == sorted(got.terms, key=yk._term_order)


def test_product_cancels_only_mod_phi3():
    # (1 + zeta t1 + zeta^2 t1^2)(1 + t1 + t1^2): every coefficient of the
    # product is 1 + zeta + zeta^2, which is zero only modulo Phi_3
    d, n = 3, 3
    x = yk.YElement(d, n, [(((k, 0, 0), Perm.identity(n)),
                            RatFunc.from_scalar(Cyclotomic.root_power(d, k), d))
                           for k in range(d)])
    y = yk.YElement(d, n, [(((k, 0, 0), Perm.identity(n)), RatFunc.one(d))
                           for k in range(d)])
    assert _same_as_reference(x, y).is_zero()
    # the same sum, folded through a braid word first
    assert _same_as_reference(x, y * oracles.g_word(d, n, (1, 2, 1))).is_zero()
    assert not _same_as_reference(x, x).is_zero()


# (d, n) cells of the packed product, with n = 5 at d = 1, and the orders of
# the coefficient fields drawn in each: a proper multiple of d where it
# matters (zeta_4 in Y(2, n), zeta_12 in Y(3, n)). Over Q(zeta_5) two zeta
# powers of the basis add up past 5, which no other order here reaches.
_KERNEL_CELLS = [(1, 3), (1, 5), (2, 3), (2, 4), (3, 3), (4, 3), (5, 2), (6, 2)]
_KERNEL_ORDERS = {1: (1, 3, 5), 2: (2, 4), 3: (3, 12), 4: (4,), 5: (5,), 6: (6,)}


@st.composite
def _kernel_coefficient(draw, order):
    """A sum of one or two terms c zeta^k q^e, c a rational with a small
    numerator or one up to 10^40, of either sign, and e in -40..40, over 1,
    1 + q or Phi_3."""
    out = RatFunc.zero(order)
    for _ in range(draw(st.integers(1, 2))):
        c = Fraction(draw(st.one_of(st.integers(-3, 3), st.integers(-10 ** 40, 10 ** 40))
                          .filter(bool)),
                     draw(st.one_of(st.just(1), st.integers(1, 10 ** 6))))
        zeta = Cyclotomic.root_power(order, draw(st.integers(0, order - 1)))
        out = out + RatFunc.from_scalar(zeta * c, order) * RatFunc.q_power(
            draw(st.integers(-40, 40)), order)
    one, q = RatFunc.one(order), RatFunc.q(order)
    den = draw(st.sampled_from((None, one + q, one + q + q * q)))
    return out if den is None or out.is_zero() else out / den


@st.composite
def _kernel_operands(draw, cells=_KERNEL_CELLS):
    """Two elements of one cell; the right one carries the longest word.
    As in E_mu and a scaled E_chi, terms repeat coefficient values: a term
    draws a fresh coefficient, an object of a small shared pool, or a copy
    of a pool value in an object of its own."""
    d, n = draw(st.sampled_from(cells))
    orders = _KERNEL_ORDERS[d]
    perms = all_perms(n)
    pool = [draw(_kernel_coefficient(draw(st.sampled_from(orders))))
            for _ in range(draw(st.integers(1, 3)))]

    def coefficient():
        kind = draw(st.sampled_from(("fresh", "shared", "equal")))
        if kind == "fresh":
            return draw(_kernel_coefficient(draw(st.sampled_from(orders))))
        c = draw(st.sampled_from(pool))
        return c if kind == "shared" else c * RatFunc.one(c.order)

    def element(terms, extra=()):
        return yk.YElement(d, n, [
            ((tuple(draw(st.integers(0, d - 1)) for _ in range(n)), w), coefficient())
            for w in [draw(st.sampled_from(perms)) for _ in range(terms)] + list(extra)])
    x = element(draw(st.integers(1, 4)))
    y = element(draw(st.integers(0, 3)), extra=(perms[-1],))
    return x, y


@given(_kernel_operands())
@settings(max_examples=60, deadline=None)
def test_packed_product_against_reference(operands):
    x, y = operands
    if len({c.order for _, c in x.terms + y.terms}) == 1:
        _same_as_reference(x, y)
    else:
        # the field each output coefficient is printed in may differ
        got, want = x * y, oracles.ref_mul(x, y)
        assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("order", [5, 7])
def test_packed_product_carries_no_zeta_power_into_q(order):
    # in Q(zeta_5) and Q(zeta_7) two basis powers of zeta add up past the
    # order; their product must stay at its own power of q
    c = RatFunc.zero(order)
    for i in range(order):
        c = c + RatFunc.from_scalar(Cyclotomic.root_power(order, i), order) \
            * RatFunc.q_power(i, order)
    x = yk.YElement(1, 3, {((0, 0, 0), Perm.transposition(3, 1)): c})
    y = yk.YElement(1, 3, {((0, 0, 0), Perm.transposition(3, 2)): c})
    _same_as_reference(x, y)
    _same_as_reference(y, x)


def test_packed_product_skips_zero_powers_of_q():
    # (1 + q^N) g_1 and (1 + q^N)^2 pack into ints with N - 1 zero powers
    # of q between their digits; each run is skipped in one shift
    d, n, N = 1, 2, 10 ** 6
    one, qn = RatFunc.one(d), RatFunc.q_power(N, d)
    x, g1 = yk.unit(d, n).scale(one + qn), yk.gen_g(d, n, 1)
    start = time.monotonic()
    assert x * g1 == g1.scale(one + qn)
    assert x * x == yk.unit(d, n).scale(one + qn + qn + RatFunc.q_power(2 * N, d))
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("d,n", [(3, 3), (5, 2)])
def test_packed_product_small_digit_patterns(d, n):
    # coefficients a + b zeta^k, a and b in -2..2: every sign pattern of
    # small signed digits, such as zeta - 2 whose packed form lies just
    # below a power of two, comes back through products with 1 and g_1
    values = [Cyclotomic.root_power(d, k) * b + a
              for k in range(1, d) for a in range(-2, 3) for b in range(-2, 3)]
    keys = [(m, w) for w in all_perms(n) for m in itertools.product(range(d), repeat=n)]
    x = yk.YElement(d, n, [(key, RatFunc.from_scalar(v, d)) for key, v in zip(keys, values)])
    for y in (yk.unit(d, n), yk.gen_g(d, n, 1)):
        _same_as_reference(x, y)
        _same_as_reference(y, x)


@given(_kernel_operands(cells=[(3, 2), (3, 3)]))
@settings(max_examples=15, deadline=None)
def test_packed_product_vanishes_only_mod_phi3(operands):
    # x (sum_k zeta_3^k t_1^k) times (sum_k t_1^k) y is zero, although no
    # coefficient of the product vanishes before the reduction mod Phi_3
    x, y = operands
    d, n = x.d, x.n
    a = yk.YElement(d, n, [(((k,) + (0,) * (n - 1), Perm.identity(n)),
                            RatFunc.from_scalar(Cyclotomic.root_power(3, k), 3))
                           for k in range(3)])
    b = yk.YElement(d, n, [(((k,) + (0,) * (n - 1), Perm.identity(n)), RatFunc.one(3))
                           for k in range(3)])
    left, right = x * a, b * y
    got, want = left * right, oracles.ref_mul(left, right)
    assert got.is_zero() and want.is_zero()


def test_associativity_with_denominators():
    d, n = 2, 3
    rng = random.Random(7)
    one_q = RatFunc.one(d) + RatFunc.q(d)
    dens = (one_q, one_q + RatFunc.q_power(2, d))
    for _ in range(6):
        x, y, z = (_random_element(rng, d, n, 3, dens=dens) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_character_idempotents_complete():
    d, n = 2, 2
    total = yk.zero(d, n)
    chars = list(itertools.product(range(d), repeat=n))
    for c in chars:
        Ec = yk.E_chi(d, n, c)
        assert Ec * Ec == Ec
        total = total + Ec
    assert total == yk.unit(d, n)
    for c1, c2 in itertools.combinations(chars, 2):
        assert (yk.E_chi(d, n, c1) * yk.E_chi(d, n, c2)).is_zero()


def test_character_eigenvalue_and_permutation_action():
    d, n = 2, 3
    for c in itertools.product(range(d), repeat=n):
        Ec = yk.E_chi(d, n, c)
        for j in range(1, n + 1):
            tmon = tuple(1 if m == j - 1 else 0 for m in range(n))
            val = RatFunc.from_scalar(yk.chi_value(d, c, tmon), d)
            assert yk.gen_t(d, n, j) * Ec == Ec.scale(val)
        for w in all_perms(n):
            from ytl.permutations import act_on_character
            gw = oracles.g_word(d, n, w.reduced_word())
            moved = yk.E_chi(d, n, act_on_character(w, c))
            assert gw * Ec == moved * gw


def test_projector_selection_rules():
    d, n = 2, 3
    for c in itertools.product(range(d), repeat=n):
        Ec = yk.E_chi(d, n, c)
        for i in range(1, n):
            expected = Ec if c[i - 1] == c[i] else yk.zero(d, n)
            assert yk.e(d, n, i) * Ec == expected
        for j in range(1, n + 1):
            expected = Ec if c[j - 1] == 0 else yk.zero(d, n)
            assert yk.T(d, n, j) * Ec == expected


def test_central_idempotents():
    d, n = 2, 3
    mus = compositions(d, n)
    Emus = {mu: yk.E_mu(d, n, mu) for mu in mus}
    gens = [yk.gen_g(d, n, i) for i in range(1, n)] + \
           [yk.gen_t(d, n, j) for j in range(1, n + 1)]
    total = yk.zero(d, n)
    for mu, Em in Emus.items():
        total = total + Em
        for g in gens:
            assert Em * g == g * Em
    assert total == yk.unit(d, n)
    for mu, nu in itertools.combinations(mus, 2):
        assert (Emus[mu] * Emus[nu]).is_zero()


@pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (2, 4)])
def test_E_mu_is_the_sum_of_its_E_chi(d, n):
    for mu in compositions(d, n):
        total = yk.zero(d, n)
        for k in range(1, coset_system(mu).m + 1):
            total = total + yk.E_chi(d, n, yk.character_exponents(mu, k))
        assert yk.E_mu(d, n, mu) == total
        assert repr(yk.E_mu(d, n, mu)) == repr(total)


@pytest.mark.parametrize("d, n", [(1, 3), (2, 4), (3, 3), (1, 5)])
def test_g_block_is_the_sum_of_its_six_word_products(d, n):
    for i in range(1, n - 1):
        total = yk.zero(d, n)
        for word in [(), (i,), (i + 1,), (i, i + 1), (i + 1, i), (i, i + 1, i)]:
            total = total + oracles.g_word(d, n, word)
        assert yk.g_block(d, n, i) == total
        assert repr(yk.g_block(d, n, i)) == repr(total)
    for i in (0, n - 1):
        with pytest.raises(ValueError, match="block index"):
            yk.g_block(d, n, i)


def test_ideal_generators():
    assert yk.ftl_generator(1, 3) == yk.g_block(1, 3, 1)
    assert yk.ctl_generator(1, 3) == yk.ftl_generator(1, 3)
    with pytest.raises(yk.NTooSmall):
        yk.ftl_generator(2, 2)
    with pytest.raises(yk.NTooSmall):
        yk.ctl_generator(2, 2)
    # d=2, n=3 expansion: (1/4) sum_{a,b} t1^a t2^b t3^{-a-b} g_{1,2}
    f = yk.ftl_generator(2, 3)
    want = yk.zero(2, 3)
    for a in range(2):
        for b in range(2):
            want = want + (yk.gen_t(2, 3, 1, a) * yk.gen_t(2, 3, 2, b)
                           * yk.gen_t(2, 3, 3, -a - b) * yk.g_block(2, 3, 1))
    assert f == want.scale(RatFunc.from_scalar(Fraction(1, 4), 2))


def test_ctl_generator_commutes_with_projector():
    d, n = 2, 3
    core = yk.e(d, n, 1) * yk.e(d, n, 2) * yk.g_block(d, n, 1)
    assert yk.T(d, n, 1) * core == core * yk.T(d, n, 1)


def test_conjugate_shift():
    assert oracles.conjugate_shift(yk.g_block(1, 4, 1), 1) == yk.g_block(1, 4, 1)
    assert oracles.conjugate_shift(yk.g_block(1, 4, 1), 2) == yk.g_block(1, 4, 2)
    x = yk.e(2, 4, 1) * yk.e(2, 4, 2) * yk.g_block(2, 4, 1)
    shifted = oracles.conjugate_shift(x, 2)
    assert shifted == yk.e(2, 4, 2) * yk.e(2, 4, 3) * yk.g_block(2, 4, 2)


def test_specialize_group_algebra():
    d, n = 2, 3
    g1, g2 = yk.gen_g(d, n, 1), yk.gen_g(d, n, 2)
    sq = yk.gen_g(d, n, 1) * yk.gen_g(d, n, 1)
    assert yk.specialize_group_algebra(sq) == yk.specialize_group_algebra(yk.unit(d, n))
    assert yk.specialize_group_algebra(g1 * g2 * g1 - g2 * g1 * g2) == {}
    from ytl.scalars import Cyclotomic
    e1_spec = yk.specialize_group_algebra(yk.e(d, n, 1))
    assert set(e1_spec) == {key for key, _ in yk.e(d, n, 1).terms}
    assert all(v == Cyclotomic.from_rational(Fraction(1, 2), d)
               for v in e1_spec.values())
    rng = random.Random(9)
    gens = [g1, g2, yk.gen_t(d, n, 1), yk.gen_t(d, n, 2), yk.gen_t(d, n, 3)]
    for _ in range(10):
        x = gens[rng.randrange(5)] * gens[rng.randrange(5)]
        y = gens[rng.randrange(5)] * gens[rng.randrange(5)]
        assert yk.specialize_group_algebra(x * y) == yk.group_algebra_mul(
            d, n, yk.specialize_group_algebra(x), yk.specialize_group_algebra(y))
    # (1 + g_1)(1 - g_1) = 1 - g_1^2 vanishes at q = 1: both keys cancel
    one = yk.unit(d, n)
    assert yk.group_algebra_mul(d, n, yk.specialize_group_algebra(one + g1),
                                yk.specialize_group_algebra(one - g1)) == {}
    assert yk.specialize_group_algebra((one + g1) * (one - g1)) == {}


@pytest.mark.parametrize("c", [-2, Fraction(3, 5), Cyclotomic.root_power(3, 1),
                               RatFunc(3, {-1: 1, 2: Fraction(1, 2)}),
                               RatFunc.q(3) / (RatFunc.one(3) + RatFunc.q(3))])
def test_scalar_products_match_scale(c):
    # x * c and c * x are x.scale(c), on either side of any scalar
    x = yk.gen_t(3, 3, 1) * yk.gen_g(3, 3, 2) + yk.e(3, 3, 1)
    for y in (x * c, c * x):
        assert type(y) is yk.YElement
        assert y == x.scale(c) and repr(y) == repr(x.scale(c))


def test_json_roundtrip_shape():
    x = yk.ftl_generator(2, 3)
    data = x.to_json()
    assert all(set(rec) == {"t", "w", "coeff"} for rec in data)
    assert len(data) == len(x.terms)


@pytest.mark.parametrize("d", [1, 3])
def test_elements_survive_pickle_and_copy(d):
    c = (RatFunc(d, {0: Fraction(2, 3), 1: Cyclotomic.root_power(d, 1)})
         / RatFunc(d, {0: 1, 1: 1}))
    x = (yk.gen_t(d, 3, 1) * yk.gen_g(d, 3, 2)).scale(c) + yk.gen_g(d, 3, 1)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is yk.YElement and y == x
        assert hash(y) == hash(x) and repr(y) == repr(x)


@pytest.mark.parametrize("d", [1, 3])
def test_elements_refuse_assignment_and_deletion(d):
    # from the validating constructor, a product (the trusted constructor)
    # and pickle and copy, before and after the encodings are filled
    x = yk.gen_t(d, 3, 1).scale(RatFunc.q(d)) + yk.gen_g(d, 3, 2)
    product = x * x
    for y in (x, product, pickle.loads(pickle.dumps(product)), copy.copy(product),
              copy.deepcopy(x)):
        for name in yk.YElement.__slots__:
            before = getattr(y, name)
            with pytest.raises(AttributeError):
                setattr(y, name, before)
            with pytest.raises(AttributeError):
                delattr(y, name)
            assert getattr(y, name) is before
        with pytest.raises(AttributeError):
            y.extra = 1
    assert product == oracles.ref_mul(x, x)


@pytest.mark.parametrize("d,n", [(4, 2), (4, 3), (6, 2)])
def test_trusted_outputs_equal_validated(d, n):
    # products, psi blocks and the inverse character transform build their
    # output through YElement._sorted or _trusted; the validating constructor
    # must give the same element
    from ytl import isomaps as iso

    def validated(x):
        return yk.YElement(x.d, x.n, list(x.terms))

    def same(x):
        y = validated(x)
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)

    rng = random.Random(40 * d + n)
    one_q = RatFunc.one(d) + RatFunc.q(d)
    for _ in range(3):
        x, y = (_random_element(rng, d, n, 4, dens=(one_q,)) for _ in range(2))
        same(x * y)
        blocks = iso.psi_n(x)
        for block in blocks.values():
            for row in block:
                for cell in row:
                    same(cell)
        back = iso.phi_n(blocks)
        same(back)
        assert back == x


@pytest.mark.parametrize("d", [4, 6])
def test_encode_decodes_to_the_coefficients(d):
    # coefficients over 1, 1 + q, Phi_3 and 1 - q^2, in Q(zeta_d) and in
    # Q(zeta_3); each row decodes to its coefficient, at the element's order
    rng = random.Random(60 + d)
    n = 3
    dens = (RatFunc(d, {0: 1}), RatFunc(d, {0: 1, 1: 1}), RatFunc(d, {0: 1, 1: 1, 2: 1}),
            RatFunc(d, {0: 1, 2: -1}))
    perms = all_perms(n)
    terms = {}
    for _ in range(12):
        order = rng.choice((d, 3))
        c = Cyclotomic.root_power(order, rng.randrange(order)) \
            * Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2, 5)))
        num = RatFunc(order, {rng.randint(-2, 2): c})
        key = (tuple(rng.randrange(d) for _ in range(n)), rng.choice(perms))
        terms[key] = num / rng.choice(dens)
    x = yk.YElement(d, n, terms)
    assert x.order == (12 if d == 4 else 6)
    assert len({c.den_exps for _, c in x.terms}) > 2
    order, den, common, groups, _, _, _, _, rows = yk._coded(x)
    assert order == x.order
    assert list(groups) == list(dict.fromkeys(w.images for (_, w), _ in x.terms))
    decoded = {}
    for images, terms in groups.items():
        for tmon, i in terms:
            by_e = {}
            for e, z, v in rows[i]:
                by_e.setdefault(e, [0] * order)[z] += v
            decoded[(tmon, Perm(images))] = RatFunc.over(
                order, laurent_from_ints(order, sorted(by_e.items()), common), den)
    assert list(decoded) == [key for key, _ in sorted(
        x.terms, key=lambda t: list(groups).index(t[0][1].images))]
    for key, c in x.terms:
        got, want = decoded[key], c * RatFunc.one(order)
        assert got == c and hash(got) == hash(c)
        assert got.order == order and repr(got) == repr(want)


# -- the encoding kept by an element -----------------------------------------


@pytest.mark.parametrize("d,n", [(3, 3), (2, 4), (4, 3)])
def test_repeated_values_are_encoded_once(d, n):
    # each distinct coefficient value of E_mu and of a scaled E_chi is one
    # row, shared by its terms, and the mass counts every term
    scale = RatFunc.from_scalar(-5, d) * RatFunc.q_power(2, d)
    elements = [yk.E_mu(d, n, mu) for mu in compositions(d, n)]
    elements.append(yk.E_chi(d, n, (1,) + (0,) * (n - 1)).scale(scale))
    for x in elements:
        order, den, common, groups, mass, _, _, _, rows = yk._coded(x)
        values = {c for _, c in x.terms}
        assert len(rows) == len(values) < len(x.terms)
        assert sum(len(terms) for terms in groups.values()) == len(x.terms)
        assert mass == sum(abs(v) for terms in groups.values() for _, i in terms
                           for _, _, v in rows[i])
        assert x * x == oracles.ref_mul(x, x)


@pytest.mark.parametrize("order", [3, 4, 12])
def test_encoding_cache_serves_every_order(order):
    # x is encoded once, at its own order, and that one kept encoding serves
    # x * y at lcm(order, 4), x * z at lcm(order, 3), then x * y again; each
    # product matches the term-by-term reference
    rng = random.Random(order)
    x = _random_element(rng, 1, 3, 4, order=order)
    y = _random_element(rng, 1, 3, 3, order=4)
    z = _random_element(rng, 1, 3, 3, order=3)
    assert (x.order, y.order, z.order) == (order, 4, 3)
    kept = yk._coded(x)
    assert kept[0] == order
    first = _same_as_reference(x, y)
    _same_as_reference(x, z)
    assert _same_as_reference(x, y) == first
    assert yk._coded(x) is kept


@pytest.mark.parametrize("d,n", [(1, 3), (2, 3), (3, 3)])
def test_zero_element_encodes(d, n):
    zero = yk.zero(d, n)
    assert yk._coded(zero)[1:4] == ((), 1, {})
    assert ideal_membership(zero, "FTL") and ideal_membership(zero, "CTL")
    x = _random_element(random.Random(d), d, n, 3)
    assert (zero * x).is_zero() and (x * zero).is_zero() and (zero * zero).is_zero()


@pytest.mark.parametrize("d", [1, 3])
def test_filled_encoding_takes_no_part_in_identity(d):
    c = (RatFunc(d, {0: Fraction(2, 3), 1: Cyclotomic.root_power(d, 1)})
         / RatFunc(d, {0: 1, 1: 1}))
    x = (yk.gen_t(d, 3, 1) * yk.gen_g(d, 3, 2)).scale(c) + yk.gen_g(d, 3, 1)
    square = x * x
    fresh = yk.YElement(d, 3, list(x.terms))
    assert x._code is not None and fresh._code is None
    assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)
    assert x.to_json() == fresh.to_json()
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is yk.YElement and y == fresh
        assert hash(y) == hash(fresh) and repr(y) == repr(fresh)
        assert y * y == square


# -- the int decoder against its dict form ------------------------------------


_DECODER_ORDERS = (1, 2, 3, 4, 6, 12)
# digit width of the packed ints below; every digit stays under 2^(B-2)
_DECODER_WIDTH = 14


@st.composite
def _decoder_rows(draw):
    """(order, Z, common, {q-exponent: ints}, low): up to 8 rows above q^low,
    Z digits to a power of q for any Z in 1..2 order - 1, with gaps of zero
    powers of q between them, of random signed digits, of one digit,
    summing to zero only mod Phi_order (c times all the p-th roots of
    unity, p a prime dividing order, where Z leaves room for them), or
    repeating an earlier row; common and every digit share the factor g."""
    order = draw(st.sampled_from(_DECODER_ORDERS))
    zdigits = draw(st.integers(1, 2 * order - 1))
    g = draw(st.sampled_from((1, 2, 6, 35)))
    common = g * draw(st.sampled_from((1, 3, 4, 10)))
    low = draw(st.integers(-5, 5))
    digit = st.integers(-40, 40).map(lambda c: c * g)
    primes = [p for p in (2, 3) if order % p == 0 and (p - 1) * order // p < zdigits]
    rows, e = {}, low
    for _ in range(draw(st.integers(0, 8))):
        e += draw(st.one_of(st.just(1), st.integers(2, 12)))
        kind = draw(st.sampled_from(("digits", "one", "vanishing", "repeat")))
        if kind == "repeat" and rows:
            ints = list(draw(st.sampled_from(sorted(rows.items())))[1])
        elif kind == "vanishing" and primes:
            p = draw(st.sampled_from(primes))
            ints = [0] * zdigits
            c = draw(digit.filter(bool))
            s = draw(st.integers(0, min(order // p, zdigits - (p - 1) * order // p) - 1))
            for k in range(p):
                # zeta^z and zeta^(z + order) are one power
                z = s + k * order // p
                ints[z + order if z + order < zdigits and draw(st.booleans()) else z] += c
        elif kind == "one":
            ints = [draw(digit.filter(bool))]
        else:
            ints = draw(st.lists(digit, min_size=1, max_size=zdigits))
        rows[e] = ints
    return order, zdigits, common, rows, low


@given(_decoder_rows())
@settings(max_examples=300, deadline=None)
def test_decoder_against_dict_form(case):
    order, zdigits, common, rows, low = case
    width = _DECODER_WIDTH
    qshift = width * zdigits

    def same(got, want):
        # got a term tuple, want a Laurent polynomial
        assert want.den_exps == ()
        assert got == want.terms and hash(got) == hash(want.terms)
        assert repr(got) == repr(want.terms)

    # the rows themselves, zero and vanishing rows included
    same(laurent_from_ints(order, sorted(rows.items()), common),
         oracles.ref_laurent_from_ints(order, rows, common))
    # the same rows packed, as a product leaves them: negative digits borrow
    # from the next digit and a negative power of q from the next power
    packed = sum(c << ((e - low) * zdigits + z) * width
                 for e, ints in rows.items() for z, c in enumerate(ints))
    want = oracles.ref_laurent_from_ints(
        order, oracles.ref_unpack(packed, low, width, qshift), common)

    def decoded(got, want):
        # got a RatFunc over no denominator, or None where want is zero
        if want.is_zero():
            assert got is None
        else:
            same(got.terms, want)
            assert got.den_exps == () and got.order == order

    first, again, zero = yk._decode([packed, packed, 0], low, width, zdigits, order, common, ())
    decoded(first, want)
    # a repeated output is decoded once
    assert again is first or first is None
    assert zero is None
    # each row alone, one packed int per row in one call: a row that
    # vanishes mod Phi_order decodes to None
    alone = [(e, sum(c << ((e - low) * zdigits + z) * width for z, c in enumerate(ints)))
             for e, ints in sorted(rows.items())]
    for (e, _), got in zip(alone, yk._decode([p for _, p in alone], low, width, zdigits,
                                             order, common, ())):
        decoded(got, oracles.ref_laurent_from_ints(order, {e: rows[e]}, common))


def test_decoder_examples():
    # 1 + zeta_3 + zeta_3^2 in Q(zeta_3), Q(zeta_6) and Q(zeta_12), also with
    # its last power written past the order, as a product leaves it
    for order in (3, 6, 12):
        step = order // 3
        for top in (2 * step, 2 * step + order):
            if top < 2 * order - 1:
                ints = [0] * (top + 1)
                ints[0] = ints[step] = ints[top] = 1
                assert laurent_from_ints(order, [(0, ints), (2, [0])], 5) == ()
    # each power of q in lowest terms by its own gcd with common
    got = laurent_from_ints(3, [(-1, (6,)), (2, [4, 10]), (4, [0, 0, 2])], 6)
    want = RatFunc(3, {-1: 1, 2: Cyclotomic(3, [Fraction(2, 3), Fraction(5, 3)]),
                       4: Cyclotomic.root_power(3, 2) * Fraction(1, 3)})
    assert got == want.terms and repr(got) == repr(want.terms)


def test_decoder_walks_long_ints_in_pieces():
    # thousands of random signed digits: the pieces of a long int (_halves)
    # borrow across their boundaries as the whole int does
    rng = random.Random(58)
    for order, zdigits, width in ((1, 1, 14), (3, 3, 14), (12, 7, 20)):
        rows = {e: [rng.randint(-900, 900) for _ in range(zdigits)]
                for e in range(-3, 3000) if rng.random() < 0.9}
        rows[3000] = [rng.randint(1, 900)]
        packed = sum(c << ((e + 3) * zdigits + z) * width
                     for e, ints in rows.items() for z, c in enumerate(ints))
        assert packed.bit_length() > 8 * yk._WALK_BITS
        want = oracles.ref_laurent_from_ints(
            order, oracles.ref_unpack(packed, -3, width, width * zdigits), 6)
        for p, expect in ((packed, want), (-packed, -want)):
            got = yk._decode([p], -3, width, zdigits, order, 6, ())[0]
            assert got.terms == expect.terms and repr(got.terms) == repr(expect.terms)


def test_long_rows_pack_in_halves():
    # a row longer than _PACK_TERMS packs to the int of the plain loop
    rng = random.Random(59)
    for n in (yk._PACK_TERMS + 1, 1000):
        row = sorted((e, z, rng.randint(-50, 50)) for e in range(-5, n) for z in range(3)
                     if rng.random() < 0.5)
        for low, step, zdigits, width in ((-5, 1, 3, 12), (-9, 2, 7, 20)):
            assert yk._pack(row, low, step, zdigits, width) == sum(
                c << ((e - low) * zdigits + z * step) * width for e, z, c in row)


def test_long_coefficient_products_against_reference():
    # (sum_{i<k} (1 + i mod 7) q^i) g_1 times g_1 at (1, 2): one row of k
    # powers of q packed, and two outputs of about k q-chunks decoded
    k = 4000
    c = RatFunc(1, {i: 1 + i % 7 for i in range(k)})
    x, g1 = yk.gen_g(1, 2, 1).scale(c), yk.gen_g(1, 2, 1)
    got, want = x * g1, oracles.ref_mul(x, g1)
    assert got == want and repr(got) == repr(want) and got.to_json() == want.to_json()
    assert [len(v.terms) for _, v in got.terms] == [k, k + 1]


# -- the q-chunk table of the decoder --------------------------------------------


def _table_operands():
    """Operand pairs at (3,3), (2,4), (4,3) and (1,5), Laurent and over
    denominators, dense idempotents among them, and the order-6 mixed-zeta
    operands of the mul_mixed_zeta_d6 golden."""
    pairs = []
    for d, n in ((3, 3), (2, 4), (4, 3), (1, 5)):
        rng = random.Random(33 * d + n)
        one_q = RatFunc.one(d) + RatFunc.q(d)
        for dens in ((), (one_q,)):
            pairs.append((_random_element(rng, d, n, 5, dens=dens),
                          _random_element(rng, d, n, 5, dens=dens)))
        chars = list(itertools.product(range(d), repeat=n))
        mu = rng.choice(compositions(d, n))
        pairs.append((yk.E_chi(d, n, rng.choice(chars)).scale(_random_coeff(rng, d)),
                      yk.E_mu(d, n, mu) * yk.gen_g(d, n, 1)))
    pairs.append((parse_and_evaluate("q^-1*g1 + 2/3*t1^2 - q*t2^3", 6, 2),
                  parse_and_evaluate("E(1; 1,0,1,0,0,0)*g1 + q^2*t2^5*E(2; 0,0,0,1,1,0)"
                                     " - 5/7*g1^-1", 6, 2)))
    return pairs


def test_chunk_table_keeps_products_identical():
    pairs = _table_operands()
    cold = []
    for x, y in pairs:
        yk._forget_chunks()
        cold.append(x * y)
        assert cold[-1] == oracles.ref_mul(x, y)
    yk._forget_chunks()
    first = [x * y for x, y in pairs]
    room = yk._chunk_room
    assert 0 < room < yk.MAX_CHUNKS
    # every chunk of the second pass is read from the table
    warm = [x * y for x, y in pairs]
    assert yk._chunk_room == room
    for a, b, c in zip(cold, first, warm):
        for other in (b, c):
            assert a.terms == other.terms and repr(a) == repr(other)
            assert a.to_json() == other.to_json()


def test_chunk_table_keeps_chunks_that_vanish():
    # the digits (1, 1, 1) of 1 + zeta_3 + zeta_3^2 vanish mod Phi_3: dropped
    # when the chunk is first reduced and when the table serves it again
    order, zdigits, width, common = 3, 3, 10, 2
    chunk = 1 + (1 << width) + (1 << 2 * width)
    qshift = zdigits * width
    packs = [chunk, chunk + (5 << qshift), (3 << qshift) + (chunk << 2 * qshift)]
    yk._forget_chunks()
    first = yk._decode(packs, -1, width, zdigits, order, common, ())
    assert yk._CHUNKS[order, common, width, zdigits][chunk] is None
    room = yk._chunk_room
    again = yk._decode(packs, -1, width, zdigits, order, common, ())
    assert yk._chunk_room == room
    five = Cyclotomic.from_rational(Fraction(5, 2), 3)
    three = Cyclotomic.from_rational(Fraction(3, 2), 3)
    assert first[0] is None and again[0] is None
    for got in (first, again):
        assert got[1].terms == ((0, five),) and got[2].terms == ((0, three),)


def test_chunk_table_stays_within_its_bound(monkeypatch):
    # products over at least 50 digit widths, scales from 1 to 2^40,
    # against a bound of 50 chunks: the table is cleared when full, even
    # within one product, and never holds more
    monkeypatch.setattr(yk, "MAX_CHUNKS", 50)
    yk._forget_chunks()
    try:
        rng = random.Random(50)
        d, n = 2, 3
        widths, most, cleared = set(), 0, False
        for k in range(80):
            x = _random_element(rng, d, n, 4).scale(2 ** (k // 2) + rng.randrange(2 ** (k // 2)))
            y = _random_element(rng, d, n, 3).scale(2 ** (k - k // 2))
            before = yk._chunk_room
            got = x * y
            assert got == oracles.ref_mul(x, y)
            held = sum(map(len, yk._CHUNKS.values()))
            cleared |= yk._chunk_room > before
            assert held == 50 - yk._chunk_room <= 50
            most = max(most, held)
            widths.update(w for _, _, w, _ in yk._CHUNKS)
        assert len(widths) >= 50 and cleared and most > 40
    finally:
        monkeypatch.undo()
        yk._forget_chunks()


# ---------------------------------------------------------------------------
# the inverse character transform on packed ints


_TRANSFORM_ORDERS = (1, 2, 3, 4, 6, 12)


@st.composite
def _transform_coefficient(draw):
    """One or two terms c zeta^k q^e over Q(zeta_order), order drawn from
    1, 2, 3, 4, 6, 12, c a rational with a small numerator or one up to
    10^30, over 1 or a product of Phi_j(q); now and then zero."""
    order = draw(st.sampled_from(_TRANSFORM_ORDERS))
    out = RatFunc.zero(order)
    for _ in range(draw(st.integers(0, 2))):
        c = Fraction(draw(st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))),
                     draw(st.sampled_from((1, 2, 7))))
        zeta = Cyclotomic.root_power(order, draw(st.integers(0, order - 1)))
        out = out + RatFunc.from_scalar(zeta * c, order) * RatFunc.q_power(
            draw(st.integers(-6, 6)), order)
    one, q = RatFunc.one(order), RatFunc.q(order)
    den = draw(st.sampled_from((None, one + q, one + q + q * q, one + q * q, one - q)))
    return out if den is None or out.is_zero() else out / den


@st.composite
def _transform_parts(draw):
    """(d, n, parts): terms (v, exps, s, c) standing for q^s c E_chi g_v,
    several of them sharing a (v, exps), with negative shifts s."""
    d = draw(st.sampled_from((1, 2, 3, 4, 6)))
    n = draw(st.integers(1, 3 if d < 6 else 2))
    perms, exps = all_perms(n), st.tuples(*[st.integers(0, d - 1)] * n)
    keys = draw(st.lists(st.tuples(st.sampled_from(perms), exps), min_size=1, max_size=3))
    parts = [(v, chi, draw(st.integers(-4, 4)), draw(_transform_coefficient()))
             for v, chi in draw(st.lists(st.sampled_from(keys), max_size=6))]
    return d, n, parts


def _same_transform(d, n, parts):
    got, want = yk.from_characters(d, n, parts), oracles.ref_from_characters(d, n, parts)
    assert got == want and hash(got) == hash(want)
    return got


@given(_transform_parts())
@settings(max_examples=150, deadline=None)
def test_from_characters_against_reference(case):
    _same_transform(*case)


def test_from_characters_examples():
    d, n = 3, 2
    v = Perm.transposition(n, 1)
    # 1 + zeta_3 + zeta_3^2 on one (v, chi): no packed int is zero, but the
    # element is, once each output is reduced mod Phi_3
    parts = [(v, (1, 2), -1, Cyclotomic.root_power(3, k)) for k in range(3)]
    assert _same_transform(d, n, parts).is_zero()
    # all-zero families: none, zero coefficients, and terms that cancel
    for zeros in ([], [(v, (0, 0), 0, RatFunc.zero(3))],
                  [(v, (2, 1), 3, RatFunc.q(6)), (v, (2, 1), 4, -RatFunc.one(6))]):
        assert _same_transform(d, n, zeros) == yk.zero(d, n)
    # E_chi itself, the single term 1 E_chi g_1
    for exps in itertools.product(range(d), repeat=n):
        assert _same_transform(d, n, [(Perm.identity(n), exps, 0, 1)]) == yk.E_chi(d, n, exps)


def test_from_characters_refuses_a_wide_q_span():
    # (1 + q^(10^8)) spans 10^8 + 1 powers of q: refused before packing
    c = RatFunc.one(1) + RatFunc.q_power(10 ** 8, 1)
    start = time.monotonic()
    with pytest.raises(ValueError, match="spans 100000001 powers of q") as err:
        yk.from_characters(2, 2, [(Perm.identity(2), (0, 1), 0, c)])
    assert str(yk.MAX_PACKED_BITS) in str(err.value)
    assert time.monotonic() - start < 1.0
