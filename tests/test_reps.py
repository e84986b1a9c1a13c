import copy
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (is_zero_matrix, q_gap_inverse, ref_annihilates, ref_character_sum,
                     ref_entries, ref_ideal_membership, ref_rep_g, ref_rep_t, ref_unpack,
                     ref_word_matrix)
from oracles import ref_rep_element as summed_rep_element
from ytl.linalg import mat_mul
from ytl.permutations import Perm, all_perms
from ytl.scalars import (Cyclotomic, RatFunc, multiply_dens, over_one_denominator,
                         q_integer_factors)
from ytl.tableaux import enumerate_d_partitions
from ytl import isomaps as iso
from ytl import yokonuma as yk
from ytl.reps import (_annihilates, check_shape, ideal_membership, passes_to_quotient,
                      quotient_shapes, rep_e, rep_element, rep_g, rep_module, rep_t)
from ytl.verify import _projector, suite_relations


def test_one_dimensional_hecke_modules():
    row = rep_module(1, ((2,),))
    assert row.dim == 1
    assert rep_g(row, 1)[0][0] == RatFunc.q(1)
    col = rep_module(1, ((1, 1),))
    assert rep_g(col, 1)[0][0] == -RatFunc.one(1)


def test_two_component_swap_module():
    m = rep_module(2, ((1,), (1,)))
    assert m.dim == 2
    g = rep_g(m, 1)
    q = RatFunc.q(2)
    z = RatFunc.zero(2)
    assert g[0][0] == z and g[1][1] == z
    assert {g[0][1], g[1][0]} == {RatFunc.one(2), q}
    sq = mat_mul(g, g, z)
    assert sq[0][0] == q and sq[1][1] == q and sq[0][1].is_zero()
    assert is_zero_matrix(rep_e(m, 1))


def test_rep_t_diagonal_roots():
    m = rep_module(2, ((1,), (1,)))
    t1 = rep_t(m, 1)
    diag = sorted((t1[0][0], t1[1][1]), key=lambda r: r.pretty())
    assert not t1[0][0].den_exps and not t1[1][1].den_exps
    values = {dict(t1[0][0].terms)[0], dict(t1[1][1].terms)[0]}
    assert values == {Cyclotomic.root_power(2, 0), Cyclotomic.root_power(2, 1)}


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_content_gap_inverse_matches_inv(order):
    # the closed form against trial division, on both signs of b - a
    for a in range(-8, 9):
        for b in range(-8, 9):
            if a != b:
                want = (RatFunc.q_power(b, order) - RatFunc.q_power(a, order)).inv()
                got = q_gap_inverse(order, a, b)
                assert got == want and repr(got) == repr(want), (a, b)


@pytest.mark.parametrize("d,n", [(1, 6), (2, 4), (3, 3), (4, 3)])
def test_generator_matrices_match_the_closed_forms(d, n):
    # rep_t, rep_g and rep_e evaluate gen_t, gen_g and e on the int word
    # rows; the closed forms build them from the tableaux alone
    for shape in enumerate_d_partitions(d, n):
        module = rep_module(d, shape)
        pairs = [(rep_t(module, j), ref_rep_t(module, j)) for j in range(1, n + 1)]
        pairs += [(rep_g(module, i), ref_rep_g(module, i)) for i in range(1, n)]
        pairs += [(rep_e(module, i), _projector(module, i)) for i in range(1, n)]
        for got, want in pairs:
            assert same(got, want), shape


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 3)])
def test_relation_suite(d, n):
    report = suite_relations(d, n)
    assert report["ok"], [c for c in report["checks"] if not c["passed"]]


def test_rep_element_unit_and_generator():
    m = rep_module(2, ((2, 1), ()))
    ident = rep_element(m, yk.unit(2, 3))
    assert all(ident[i][i] == RatFunc.one(2) for i in range(m.dim))
    assert all(ident[i][j].is_zero() for i in range(m.dim) for j in range(m.dim) if i != j)
    # distinct-component shape kills the first ideal generator
    distinct = rep_module(3, ((1,), (1,), (1,)))
    assert is_zero_matrix(rep_element(distinct, yk.ftl_generator(3, 3)))
    # three-column shape does not
    wide = rep_module(1, ((3,),))
    mat = rep_element(wide, yk.ftl_generator(1, 3))
    total = sum((RatFunc.q_power(w.length(), 1) for w in all_perms(3)),
                RatFunc.zero(1))
    assert mat[0][0] == total


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4)])
def test_quotient_classification(d, n):
    for shape in enumerate_d_partitions(d, n):
        # passes_to_quotient internally asserts predicate == annihilation
        passes_to_quotient(d, shape, "FTL")
        passes_to_quotient(d, shape, "CTL")


def test_quotient_examples():
    assert passes_to_quotient(1, ((2, 2),), "FTL")
    assert not passes_to_quotient(2, ((3,), ()), "FTL")
    assert not passes_to_quotient(2, ((3,), ()), "CTL")
    assert not passes_to_quotient(2, ((1,), (3,)), "FTL")
    assert passes_to_quotient(2, ((1,), (3,)), "CTL")


def test_ideal_membership():
    assert ideal_membership(yk.ftl_generator(2, 3), "FTL")
    assert ideal_membership(yk.ctl_generator(2, 3), "CTL")
    assert ideal_membership(yk.ctl_generator(2, 3), "FTL")
    assert not ideal_membership(yk.ftl_generator(2, 3), "CTL")
    assert not ideal_membership(yk.unit(2, 3), "FTL")
    assert not ideal_membership(yk.unit(2, 3), "CTL")


def test_faithfulness_on_random_elements():
    # x = 0 iff every irreducible kills it
    rng = random.Random(11)
    d, n = 2, 3
    perms = all_perms(n)
    shapes = enumerate_d_partitions(d, n)

    def killed(x):
        return all(is_zero_matrix(rep_element(rep_module(d, s), x)) for s in shapes)

    for _ in range(10):
        a = tuple(rng.randrange(d) for _ in range(n))
        w = perms[rng.randrange(len(perms))]
        x = yk.YElement(d, n, {(a, w): RatFunc.one(d)})
        assert not killed(x)
    assert killed(yk.zero(d, n))


def test_pairwise_distinct_characters():
    # traces of a probe set distinguish the irreducibles (d=2, n=3)
    d, n = 2, 3
    probes = [yk.unit(d, n), yk.gen_t(d, n, 1), yk.gen_g(d, n, 1),
              yk.gen_g(d, n, 2), yk.gen_g(d, n, 1) * yk.gen_g(d, n, 2),
              yk.gen_t(d, n, 1) * yk.gen_g(d, n, 1),
              yk.e(d, n, 1), yk.T(d, n, 1)]
    signatures = set()
    for shape in enumerate_d_partitions(d, n):
        module = rep_module(d, shape)
        sig = []
        for x in probes:
            mat = rep_element(module, x)
            tr = RatFunc.zero(d)
            for i in range(module.dim):
                tr = tr + mat[i][i]
            sig.append(tr)
        signatures.add(tuple(sig))
    assert len(signatures) == len(enumerate_d_partitions(d, n))


def test_sum_rule():
    from math import factorial
    for d, n in [(2, 3), (3, 3), (2, 4)]:
        assert sum(rep_module(d, s).dim ** 2
                   for s in enumerate_d_partitions(d, n)) == d ** n * factorial(n)


# -- the int-coordinate character sum against the Cyclotomic one -------------


def same_scalar(a, b):
    return same(a, b) and a.order == b.order and hash(a) == hash(b)


# RatFunc denominators of the coefficients: 1, 1 + q, 1 + q + q^2, 1 - q^2
CHARACTER_DENS = ({0: 1}, {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 2: -1})


@st.composite
def character_terms(draw):
    """(d, terms, exps): terms {a: c} with c over Q(zeta_k), k in d, 4, 6
    or 12, and over one of CHARACTER_DENS; with cancel, each coefficient
    also sits on a_1 + 1, ..., a_1 + d - 1, so that sums over the roots of
    unity vanish."""
    d = draw(st.sampled_from((1, 2, 3, 4, 6)))
    n = draw(st.integers(1, 3))
    cancel = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.sampled_from((d, 4, 6, 12)))
        nums = {}
        for e in draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3)):
            k = draw(st.integers(0, order - 1))
            scale = draw(st.sampled_from((1, -1, 2, Fraction(1, 3), Fraction(-5, 2))))
            nums[e] = Cyclotomic.root_power(order, k) * scale
        c = RatFunc(order, nums) / RatFunc(order, draw(st.sampled_from(CHARACTER_DENS)))
        a = tuple(draw(st.integers(0, d - 1)) for _ in range(n))
        terms.update(((((a[0] + s) % d,) + a[1:], c) for s in range(d if cancel else 1)))
    exps = tuple(draw(st.integers(0, d - 1)) for _ in range(n))
    return d, terms, exps


def encoded_character_sum(d, terms, exps):
    """The character sum of the terms {a: c}, all on g_1, through the one
    encoding of the element they form."""
    n = len(exps)
    w = Perm.identity(n)
    x = yk.YElement(d, n, {(a, w): c for a, c in terms.items()})
    return yk.character_sums(x, [exps]).get(w, {exps: RatFunc.zero(x.order)})[exps]


@given(character_terms())
@settings(max_examples=300, deadline=None)
def test_character_sum_against_reference(case):
    d, terms, exps = case
    assert same_scalar(encoded_character_sum(d, terms, exps),
                       ref_character_sum(d, terms.items(), exps))


def test_character_sums_of_every_permutation():
    # every permutation of x in order of first appearance, each distinct
    # character once in order of first appearance, a zero sum kept (1 +
    # zeta_3 + zeta_3^2 on g_1), all read off the one encoding x keeps
    d, n = 3, 2
    rng = random.Random(3)
    s1, ident = Perm.transposition(n, 1), Perm.identity(n)
    terms = {((a, 0), ident): RatFunc.one(d) for a in range(d)}
    for _ in range(6):
        terms[(tuple(rng.randrange(d) for _ in range(n)), s1)] = \
            RatFunc.from_scalar(Cyclotomic.root_power(d, rng.randrange(d)), d) * RatFunc.q_power(
                rng.randint(-2, 2), d)
    x = yk.YElement(d, n, terms)
    chars = [(1, 0), (0, 0), (1, 0), (2, 1), (0, 0)]
    sums = yk.character_sums(x, chars)
    assert list(sums) == list(dict.fromkeys(w for (_, w), _ in x.terms))
    for w, by_chi in sums.items():
        assert list(by_chi) == [(1, 0), (0, 0), (2, 1)]
        for exps, c in by_chi.items():
            want = ref_character_sum(d, [(a, v) for (a, u), v in x.terms if u == w], exps)
            assert same_scalar(c, want)
    assert sums[ident][(1, 0)].is_zero() and not sums[ident][(0, 0)].is_zero()
    kept = yk._coded(x)
    assert yk.character_sums(x, chars) == sums and yk._coded(x) is kept
    assert kept[0] == x.order


def test_character_sum_vanishes_only_mod_phi():
    # 1 + zeta_3 + zeta_3^2 from the phases at d = 3, from the coefficients
    # at d = 2 (in Q(zeta_6)), and from both at d = 6; 1 - 1 + 1 - 1 from
    # the phases at d = 4, over 1 + q
    one = RatFunc.one(3)
    cases = [(3, {(a,): one for a in range(3)}, (1,)),
             (2, {((j // 2) % 2, j % 2): RatFunc.from_scalar(Cyclotomic.root_power(3, j - 1), 3)
                  for j in (1, 2, 3)}, (0, 0)),
             (6, {(j, 0): RatFunc.q(3) * Cyclotomic.root_power(3, j) for j in range(3)}, (2, 5)),
             (4, {(a,): RatFunc.q(4) / (RatFunc.one(4) + RatFunc.q(4)) for a in range(4)},
              (2,))]
    for d, terms, exps in cases:
        got = encoded_character_sum(d, terms, exps)
        assert got.is_zero() and same_scalar(got, ref_character_sum(d, terms.items(), exps))


# -- the per-term evaluation as an oracle ------------------------------------


def ref_rep_element(module, x):
    """Reference evaluation: one RatFunc product and sum per (term, row,
    col), the t-part scaling each row by its root of unity, g_w the product
    of the closed-form matrices ref_rep_g along its reduced word."""
    d = module.d
    dim = module.dim
    out = [[RatFunc.zero(d) for _ in range(dim)] for _ in range(dim)]
    for (tmon, w), c in x.terms:
        gmat = ref_word_matrix(module, w)
        for row in range(dim):
            tab = module.basis[row]
            phase = sum(tmon[j - 1] * (tab.position(j) - 1)
                        for j in range(1, module.n + 1))
            scale = c * RatFunc.from_scalar(Cyclotomic.root_power(d, phase % d), d)
            for col in range(dim):
                if not gmat[row][col].is_zero():
                    out[row][col] = out[row][col] + scale * gmat[row][col]
    return out


def _coeff(rng, d):
    """c q^e with e in -2..2, divided by 1 + q one time in three."""
    c = RatFunc.from_scalar(rng.choice((-3, -2, -1, 1, 2, 5)), d) \
        * RatFunc.q_power(rng.randint(-2, 2), d)
    if rng.randrange(3) == 0:
        c = c / (RatFunc.one(d) + RatFunc.q(d))
    return c


def _words(n):
    """The permutations the oracle elements use: all of them up to n = 4,
    from n = 5 on a fixed handful (their reference matrices fill quickly)."""
    if n < 5:
        return all_perms(n)
    return [Perm.identity(n), Perm.from_word(n, (2,)), Perm.from_word(n, (1, 3)),
            Perm.from_word(n, (2, 3, 2)), Perm.from_word(n, (4, 3, 1, 2))]


def _row_cancelling(d, n, w, c):
    """c (1 + t_1 + ... + t_1^(d-1)) g_w: on every row whose entry 1 is not
    in the first component the t-monomials of w sum to zero."""
    return yk.YElement(d, n, {((a,) + (0,) * (n - 1), w): c for a in range(d)})


def _two_denominator_cancelling(d, n, shape, words):
    """(x, (row, col)) with x = k1 g_w1 + k2 g_w2 for Laurent k1 = A2 D1 and
    k2 = -A1 D2, where entry (row, col) of g_wi is Ai / Di: the entry of x is
    A1 A2 - A1 A2 = 0, summed from two products with the distinct
    denominators D1 and D2. None if no entry has two denominators among the
    words."""
    module = rep_module(d, shape)
    for row in range(module.dim):
        for col in range(module.dim):
            by_den = {}
            for w in words:
                g = ref_word_matrix(module, w)[row][col]
                if not g.is_zero():
                    by_den.setdefault(g.den, (w, g))
            if len(by_den) >= 2:
                (w1, g1), (w2, g2) = list(by_den.values())[:2]
                zero_t = (0,) * n
                x = yk.YElement(d, n, {
                    (zero_t, w1): RatFunc(g2.order, g2.terms) * g1.den,
                    (zero_t, w2): -(RatFunc(g1.order, g1.terms) * g2.den)})
                return x, (row, col)
    return None


def oracle_elements(rng, d, n):
    words = _words(n)
    out = []
    for _ in range(3):
        terms = {}
        for _ in range(5):
            a = tuple(rng.randrange(d) for _ in range(n))
            terms[(a, rng.choice(words))] = _coeff(rng, d)
        # several t-monomials on one permutation
        w = rng.choice(words)
        for a in range(d):
            terms[((a,) * n, w)] = _coeff(rng, d)
        out.append(yk.YElement(d, n, terms))
    if d > 1:
        out.append(_row_cancelling(d, n, rng.choice(words), _coeff(rng, d))
                   + yk.YElement(d, n, {((1,) * n, rng.choice(words)): _coeff(rng, d)}))
    return out


def entry_denominators(module, x):
    """{(row, col): the distinct denominators of the products that sum to
    the entry of the matrix of x}."""
    return {key: {multiply_dens(s.den_exps, g.den_exps) for s, g in pairs}
            for key, pairs in ref_entries(module, x).items()}


REP_ORACLE_CELLS = [(1, 4), (2, 3), (3, 2), (3, 3), (1, 5), (4, 3), (6, 2)]


def same(a, b):
    return a == b and repr(a) == repr(b)


@pytest.mark.parametrize("d,n", REP_ORACLE_CELLS)
def test_rep_element_against_reference(d, n):
    rng = random.Random(10 * d + n)
    elements = oracle_elements(rng, d, n)
    two_dens = 0
    for shape in enumerate_d_partitions(d, n):
        module = rep_module(d, shape)
        for x in elements:
            assert same(rep_element(module, x), ref_rep_element(module, x)), shape
        found = _two_denominator_cancelling(d, n, shape, _words(n))
        if found is not None:
            x, (row, col) = found
            assert len(entry_denominators(module, x)[(row, col)]) == 2
            mat = rep_element(module, x)
            assert mat[row][col].is_zero()
            assert same(mat, ref_rep_element(module, x))
            two_dens += 1
    # at n = 2 every seminormal entry is a Laurent polynomial
    assert two_dens or n == 2, "no entry with two denominators at (%d,%d)" % (d, n)


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3)])
def test_row_scalar_cancels(d, n):
    # on rows whose entry 1 lies outside the first component the row vanishes
    w = Perm.from_word(n, (1, 2))
    x = _row_cancelling(d, n, w, RatFunc.from_scalar(3, d))
    cancelled = 0
    for shape in enumerate_d_partitions(d, n):
        module = rep_module(d, shape)
        mat = rep_element(module, x)
        assert same(mat, ref_rep_element(module, x))
        for row, tab in enumerate(module.basis):
            if tab.position(1) != 1:
                assert all(e.is_zero() for e in mat[row])
                cancelled += 1
    assert cancelled


MEMBERSHIP_CELLS = [(1, 4), (2, 3), (3, 2), (3, 3), (1, 5), (4, 3), (6, 2)]
# cells whose members are large enough that the oracle checks one, in the
# FTL ideal only; at (4, 3) the member's factors keep only the numerators of
# their coefficients (one factor over 1 + q costs the oracle 4-5 s there)
ONE_MEMBER_CELLS = ((3, 3), (4, 3))
LAURENT_MEMBER_CELLS = ((4, 3),)


@pytest.mark.parametrize("d,n", MEMBERSHIP_CELLS)
def test_ideal_membership_against_reference(d, n):
    rng = random.Random(20 * d + n)
    words = _words(n)
    quotients = ("FTL",) if (d, n) in ONE_MEMBER_CELLS else ("FTL", "CTL")
    several = 0

    def basis(w):
        a = tuple(rng.randrange(d) for _ in range(n))
        c = _coeff(rng, d)
        if (d, n) in LAURENT_MEMBER_CELLS:
            c = RatFunc(c.order, c.terms)
        return yk.YElement(d, n, {(a, w): c})

    for which in quotients:
        gen = (yk.ftl_generator if which == "FTL" else yk.ctl_generator)(d, n) \
            if n >= 3 else None
        cases = []
        if gen is not None:
            for _ in range(1 if (d, n) in ONE_MEMBER_CELLS else 2):
                cases.append((basis(rng.choice(words)) * gen * basis(rng.choice(words)), True))
        for x in (yk.unit(d, n), yk.gen_g(d, n, 1), yk.gen_t(d, n, n)):
            cases.append((x.scale(_coeff(rng, d)), None))
        for x, member in cases:
            got = ideal_membership(x, which)
            assert got == ref_ideal_membership(x, which)
            if member is not None:
                assert got is member
            for shape in quotient_shapes(d, n, which):
                several += any(len(dens) > 1 for dens in
                               entry_denominators(rep_module(d, shape), x).values())
    if n >= 3:
        # members are zero through entries with several denominators
        assert several


@pytest.mark.parametrize("d,n", MEMBERSHIP_CELLS + [(2, 4), (1, 6)])
def test_int_rows_against_reference(d, n):
    # the zero test and rep_element on the int word rows against the RatFunc
    # evaluation with g_w built from ref_rep_g, on every shape: a member a G b of
    # the FTL ideal is zero on the shapes that pass to FTL and nonzero on the
    # others, and the scaled units, g_1 and t_n are nonzero everywhere
    rng = random.Random(40 * d + n)
    words = _words(n)

    def basis(w):
        c = _coeff(rng, d)
        if (d, n) in LAURENT_MEMBER_CELLS:
            c = RatFunc(c.order, c.terms)
        return yk.YElement(d, n, {(tuple(rng.randrange(d) for _ in range(n)), w): c})

    cases = [x.scale(_coeff(rng, d)) for x in (yk.unit(d, n), yk.gen_g(d, n, 1),
                                                yk.gen_t(d, n, n))]
    if n >= 3:
        cases.append(basis(rng.choice(words)) * yk.ftl_generator(d, n)
                     * basis(rng.choice(words)))
    outcomes = set()
    for shape in enumerate_d_partitions(d, n):
        module = rep_module(d, shape)
        for x in cases:
            killed = _annihilates(module, x)
            assert killed == ref_annihilates(module, x), (shape, x)
            assert same(rep_element(module, x), summed_rep_element(module, x)), (shape, x)
            outcomes.add(killed)
    assert outcomes == ({False, True} if n >= 3 else {False})


@pytest.mark.parametrize("d,shape", [(1, ((3, 2, 1),)), (2, ((2, 1), (1,)))])
def test_word_rows_against_reference(d, shape):
    # each packed entry of a word matrix over the word's denominator is the
    # entry of g_w from ref_rep_g, and its digits lie within the bound and the
    # count the word matrix states
    import ytl.reps as reps
    module = rep_module(d, shape)
    width = reps.FIRST_WIDTH
    for w in all_perms(module.n)[::29]:
        den, rows, digits, bits = reps._rep_word_cached(d, shape, w, width)
        want = ref_word_matrix(module, w)
        got = [[RatFunc.zero(d)] * module.dim for _ in range(module.dim)]
        for r, row in enumerate(rows):
            for c, p in row:
                coeffs = ref_unpack(p, 0, width, width)
                assert max(coeffs) < digits
                assert all(abs(v) <= 2 ** bits for vs in coeffs.values() for v in vs)
                got[r][c] = RatFunc(d, {e: vs[0] for e, vs in coeffs.items()}) * den
        assert got == [list(row) for row in want], w


@pytest.mark.parametrize("order", [5, 12])
def test_int_rows_at_four_zeta_digits(order):
    # coefficients in Q(zeta_5) or Q(zeta_12) at d = 2: four zeta digits to
    # a power of q in the packed sums, one of them cancelling to zero
    d, n = 2, 3
    rng = random.Random(order)
    zeta = RatFunc.from_scalar(Cyclotomic.root_power(order, 1), order)
    x = yk.YElement(d, n, {(tuple(rng.randrange(d) for _ in range(n)), w):
                           zeta ** rng.randrange(order) * RatFunc.q_power(rng.randint(-2, 2), d)
                           / (RatFunc.one(d) + RatFunc.q(d) * rng.randint(0, 1))
                           for w in all_perms(n)})
    for y in (x, x * yk.ftl_generator(d, n), x - x):
        for shape in enumerate_d_partitions(d, n):
            module = rep_module(d, shape)
            assert same(rep_element(module, y), summed_rep_element(module, y))
            assert _annihilates(module, y) == ref_annihilates(module, y)


@pytest.mark.parametrize("d,n", [(1, 4), (3, 3)])
def test_wide_coefficients_repack(d, n):
    # coefficients of 150 and 300 bits do not fit the first packing (64 bits
    # per power of q), so the word matrices are packed again, wider
    huge = RatFunc.from_scalar(10 ** 45 + 7, d) * RatFunc.q_power(2, d)
    member = yk.gen_g(d, n, 2) * yk.ftl_generator(d, n) * yk.gen_t(d, n, 1).scale(huge * huge)
    assert ideal_membership(member, "FTL") and ref_ideal_membership(member, "FTL")
    x = member + yk.gen_g(d, n, 1).scale(huge)
    for shape in enumerate_d_partitions(d, n)[:4]:
        module = rep_module(d, shape)
        assert same(rep_element(module, x), summed_rep_element(module, x))
    assert not ideal_membership(x, "FTL")


def test_narrow_first_packing(monkeypatch):
    # from 8 bits per power of q, the word fill itself runs out of room and
    # packs again, wider: the same matrices and the same zero tests
    import ytl.reps as reps
    rng = random.Random(7)
    d, n = 1, 5
    xs = oracle_elements(rng, d, n)
    xs.append(yk.gen_g(d, n, 3) * yk.ftl_generator(d, n) * yk.gen_g(d, n, 4))
    narrow = []

    def step(word, columns, width):
        try:
            return yk.seminormal_step(word, columns, width)
        except yk.NarrowWidth:
            narrow.append(width)
            raise

    # the word matrices are cached by width, and none was packed this narrow
    monkeypatch.setattr(reps, "FIRST_WIDTH", 8)
    monkeypatch.setattr(reps, "seminormal_step", step)
    for shape in enumerate_d_partitions(d, n):
        module = rep_module(d, shape)
        for x in xs:
            assert same(rep_element(module, x), summed_rep_element(module, x))
            assert _annihilates(module, x) == ref_annihilates(module, x)
    assert {8, 16} <= set(narrow)


def test_repeated_image_encodes_the_element_and_its_sums(monkeypatch):
    # an image encodes x (once per element) and its character sums; the
    # cofactor lifts of its word denominators are kept per set of distinct
    # denominators, so a second image on a seen shape and word encodes only
    # the new element and its sums
    module = rep_module(2, ((2,), (1,)))
    calls = []

    def counted(values):
        calls.append(len(values))
        return over_one_denominator(values)

    def element():
        return yk.gen_g(2, 3, 2).scale(RatFunc.q_power(1, 2))

    first = rep_element(module, element())
    monkeypatch.setattr(yk, "over_one_denominator", counted)
    assert same(rep_element(module, element()), first)
    assert len(calls) <= 2, calls


def test_word_lifts_stay_bounded(monkeypatch):
    # the table of lifted word denominators is cleared whole at MAX_LIFTS
    # sets; the images read the same before and after
    monkeypatch.setattr(yk, "MAX_LIFTS", 2)
    yk._LIFTS.clear()
    rng = random.Random(11)
    d, n = 1, 4
    for shape in enumerate_d_partitions(d, n):
        module = rep_module(d, shape)
        for x in oracle_elements(rng, d, n):
            assert same(rep_element(module, x), ref_rep_element(module, x)), shape
            assert len(yk._LIFTS) <= 2


def test_image_width_bound_counts_the_word_cofactors():
    # the sums of g_e and g_s1 are 2^60 and 1; over the lcm of the word
    # denominators 1 and 1 / (F_2^3 F_3^2), the cofactor of g_e is F_2^3
    # F_3^2, whose coefficients sum to 72, so its lifted sum needs 67 bits:
    # too many for 64 bits per power of q, enough for 128
    (inv2, _), = q_integer_factors(2)
    (inv3, _), = q_integer_factors(3)
    den = inv2 * inv2 * inv2 * inv3 * inv3
    x = yk.unit(1, 2).scale(RatFunc.from_scalar(2 ** 60, 1)) + yk.gen_g(1, 2, 1)

    def word(w):
        return RatFunc.one(1) if w.is_identity() else den, (((0, 1),),), 1, 1

    with pytest.raises(yk.NarrowWidth):
        yk.seminormal_image(x, ((0, 0),), word, 64, False)
    assert yk.seminormal_image(x, ((0, 0),), word, 128, False) \
        == [[RatFunc.from_scalar(2 ** 60, 1) + den]]


def test_library_input_checks():
    # the checks that the CLI's shape parser makes, and index and type checks
    bad_shapes = [(2, ((2,),), "shape must have 2 components"),
                  (1, ((1, 2),), "parts must be non-increasing: (1, 2)"),
                  (1, ((-1,),), "parts must be positive integers: (-1,)"),
                  (1, ((2.0,),), "parts must be positive integers: (2.0,)"),
                  (2, ((1,), 3), "shape must be a list of 2 lists")]
    for d, shape, message in bad_shapes:
        with pytest.raises(ValueError) as info:
            rep_module(d, shape)
        assert str(info.value) == message
    assert check_shape([[2, 1], []], 2, 3) == ((2, 1), ())
    with pytest.raises(ValueError, match="shape must have 4 nodes"):
        check_shape([[2, 1], []], 2, 4)
    module = rep_module(1, ((2,),))
    for call, index in ((rep_e, 0), (rep_t, 3), (rep_t, 0), (rep_g, 2), (rep_g, 0)):
        with pytest.raises(ValueError, match="index %d out of range" % index):
            call(module, index)
    assert rep_t(module, 2)[0][0] == RatFunc.one(1)
    with pytest.raises(TypeError, match="expected YElement"):
        ideal_membership(3, "FTL")
    with pytest.raises(TypeError, match="expected YElement"):
        rep_element(module, RatFunc.one(1))
    with pytest.raises(ValueError, match="algebra parameter mismatch"):
        rep_element(module, yk.unit(1, 3))


def test_seminormal_image_refuses_a_wide_q_spread():
    # the image packs each character sum into one int of (q-spread) x width
    # bits, so (1 + q^(10^7)) g_1 is refused as the product refuses it,
    # before anything is packed; a 10^5 spread still evaluates
    module = rep_module(1, ((2, 1),))

    def wide(top):
        return yk.YElement(1, 3, {((0, 0, 0), Perm((2, 1, 3))): RatFunc(1, {0: 1, top: 1})})

    x = wide(10 ** 7)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="the seminormal image spans 10000003 powers of q"):
            rep_element(module, x)
        with pytest.raises(ValueError, match="the seminormal image spans"):
            ideal_membership(x, "FTL")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    x = wide(10 ** 5)
    assert same(rep_element(module, x), summed_rep_element(module, x))


@pytest.mark.parametrize("d,n", [(2, 3), (1, 4)])
def test_round_trip_membership_against_reference(d, n):
    rng = random.Random(30 * d + n)
    perms = all_perms(n)
    for _ in range(3):
        a = tuple(rng.randrange(d) for _ in range(n))
        x = yk.YElement(d, n, {(a, rng.choice(perms)): _coeff(rng, d)})
        for psi, phi, which in ((iso.ftl_psi, iso.ftl_phi, "FTL"),
                                (iso.ctl_psi, iso.ctl_phi, "CTL")):
            diff = phi(psi(x)) - x
            assert ideal_membership(diff, which)
            assert ref_ideal_membership(diff, which)
            # the non-member x itself stays outside
            assert not ideal_membership(x, which)


@pytest.mark.parametrize("d", [1, 3])
def test_modules_survive_pickle_and_copy(d):
    # rep_module keeps one module per (d, shape), and a copy is that module
    module = rep_module(d, enumerate_d_partitions(d, 3)[1])
    for y in (pickle.loads(pickle.dumps(module)), copy.copy(module), copy.deepcopy(module)):
        assert y is module


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (1, 4)])
def test_membership_against_quotient_maps(d, n):
    # a third oracle, in Laurent arithmetic only: x lies in the FTL (CTL)
    # ideal exactly when ftl_psi(x) (ctl_psi(x)) has no nonzero block
    rng = random.Random(50 * d + n)
    perms = all_perms(n)

    def basis():
        a = tuple(rng.randrange(d) for _ in range(n))
        c = RatFunc.from_scalar(rng.choice((-2, 1, 3)), d) \
            * RatFunc.q_power(rng.randint(-1, 1), d)
        return yk.YElement(d, n, {(a, rng.choice(perms)): c})

    for which, gen, psi in (("FTL", yk.ftl_generator, iso.ftl_psi),
                            ("CTL", yk.ctl_generator, iso.ctl_psi)):
        cases = [(basis() * gen(d, n) * basis(), True) for _ in range(2)]
        c = RatFunc.from_scalar(rng.choice((-3, 2, 5)), d)
        cases += [(x.scale(c), False)
                  for x in (yk.unit(d, n), yk.gen_g(d, n, rng.randint(1, n - 1)),
                            yk.gen_t(d, n, rng.randint(1, n)))]
        for x, member in cases:
            assert ideal_membership(x, which) is member
            assert (iso.nonzero_block(psi(x)) is None) is member
