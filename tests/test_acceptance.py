"""Acceptance gate: one printed pass/fail line per criterion, exact equality."""

import itertools
import random
import sys
import time
from math import factorial

import oracles
from ytl.linalg import mat_mul
from ytl.permutations import Composition, Perm, all_perms, compositions, coset_system
from ytl.scalars import RatFunc
from ytl.tableaux import (catalan, count_standard_tableaux, dim_bruteforce,
                          dim_CTL, dim_FTL, dim_TL, dim_Y, enumerate_d_partitions,
                          enumerate_partitions, jones_pairs, jones_permutation,
                          two_column)
from ytl import isomaps as iso
from ytl import yokonuma as yk
from ytl.reps import (ideal_membership, passes_to_quotient, rep_e,
                      rep_element, rep_module)
from ytl.verify import suite_relations


def _report(capsys, num, label, ok):
    with capsys.disabled():
        sys.stdout.write("criterion %d (%s): %s\n"
                         % (num, label, "PASS" if ok else "FAIL"))
        sys.stdout.flush()


def _check(capsys, num, label, body):
    try:
        body()
    except BaseException:
        _report(capsys, num, label, False)
        raise
    _report(capsys, num, label, True)


def _basis_elem(d, n, a, w):
    return yk.YElement(d, n, {(tuple(a), w): RatFunc.one(d)})


def _single_entry(m, n, k, l, hecke):
    return [[hecke if (i, j) == (k - 1, l - 1) else yk.zero(1, n)
             for j in range(m)] for i in range(m)]


def _subgroup_sum(n, d, parts):
    total = yk.zero(1, n)
    for w in Composition(parts).young_subgroup():
        total = total + iso.hecke_term(n, w, RatFunc.one(d))
    return total


def test_criterion_1_dimensions(capsys):
    def body():
        for n in range(1, 9):
            start = time.monotonic()
            assert dim_TL(n) == catalan(n)
            assert dim_TL(n) == sum(count_standard_tableaux((p,)) ** 2
                                    for p in enumerate_partitions(n)
                                    if two_column(p))
            assert time.monotonic() - start < 1.0
        for d in range(1, 4):
            for n in range(1, 6):
                start = time.monotonic()
                assert dim_Y(d, n) == d ** n * factorial(n)
                assert dim_Y(d, n) == sum(
                    count_standard_tableaux(s) ** 2
                    for s in enumerate_d_partitions(d, n))
                assert time.monotonic() - start < 1.0
        assert dim_FTL(2, 3) == 46
        assert dim_Y(2, 2) == 8
        # n <= 2: the quotient ideal vanishes, so FTL = full algebra
        assert dim_bruteforce(2, 2, 2) == 8
        # both closed-form counts for the crossed quotient agree
        assert dim_CTL(2, 3) == 47 == dim_bruteforce(2, 3, 1)
    _check(capsys, 1, "dimension identities", body)


def test_criterion_2_representation_relations(capsys):
    def body():
        start = time.monotonic()
        for d, n in [(1, 4), (2, 3), (2, 4), (3, 3)]:
            report = suite_relations(d, n)
            failed = [c for c in report["checks"] if not c["passed"]]
            assert report["ok"], failed
        assert time.monotonic() - start < 30.0
    _check(capsys, 2, "representation relation suite", body)


def test_criterion_3_quotient_classification(capsys):
    def body():
        for d, n in [(2, 3), (2, 4), (3, 3)]:
            for shape in enumerate_d_partitions(d, n):
                # asserts internally that the combinatorial predicate agrees
                # with generator annihilation on the matrices
                passes_to_quotient(d, shape, "FTL")
                passes_to_quotient(d, shape, "CTL")
    _check(capsys, 3, "quotient classification", body)


def test_criterion_4_isomorphism_suite(capsys):
    def body():
        d, n = 2, 4
        start = time.monotonic()
        perms = all_perms(n)
        mus = compositions(d, n)
        # element side: phi(psi(x)) = x on the full standard basis, with
        # every image entry an integral Laurent polynomial
        for a in itertools.product(range(d), repeat=n):
            for w in perms:
                x = _basis_elem(d, n, a, w)
                mats = iso.psi_n(x)
                for mat in mats.values():
                    for row in mat:
                        for entry in row:
                            for _, c in entry.terms:
                                assert not c.den_exps
                                assert all(type(e) is int
                                           for p in (c, c.den)
                                           for e, _ in p.terms)
                assert iso.phi_n(mats) == x
        # matrix side: psi(phi(M)) = M on the full matrix-unit basis
        for mu in mus:
            m = len(coset_system(mu))
            for w in mu.young_subgroup():
                hterm = iso.hecke_term(n, w, RatFunc.one(d))
                for k in range(1, m + 1):
                    for l in range(1, m + 1):
                        hmat = _single_entry(m, n, k, l, hterm)
                        assert iso.psi_mu(mu, iso.phi_mu(mu, hmat)) == hmat
        # homomorphism property on 30 random pairs per block
        rng = random.Random(0)
        def rand():
            a = tuple(rng.randrange(d) for _ in range(n))
            return _basis_elem(d, n, a, perms[rng.randrange(len(perms))])
        for mu in mus:
            for _ in range(30):
                x, y = rand(), rand()
                assert iso.psi_mu(mu, x * y) == \
                    mat_mul(iso.psi_mu(mu, x), iso.psi_mu(mu, y), yk.zero(1, n))
        # framing images are diagonal with root-of-unity entries
        for mu in mus:
            m = len(coset_system(mu))
            chars = iso.block_characters(mu)
            for j in range(1, n + 1):
                mat = iso.psi_mu(mu, yk.gen_t(d, n, j))
                tmon = tuple(1 if jj == j - 1 else 0 for jj in range(n))
                for k in range(m):
                    for l in range(m):
                        if k != l:
                            assert mat[k][l].is_zero()
                    want = iso.hecke_term(
                        n, Perm.identity(n),
                        RatFunc.from_scalar(yk.chi_value(d, chars[k], tmon), d))
                    assert mat[k][k] == want
        assert time.monotonic() - start < 120.0
    _check(capsys, 4, "isomorphism suite", body)


def test_criterion_5_worked_example_regression(capsys):
    def body():
        d, n = 2, 4
        mus = compositions(d, n)
        assert [(mu.parts, len(coset_system(mu))) for mu in mus] == \
            [((4, 0), 1), ((3, 1), 4), ((2, 2), 6), ((1, 3), 4), ((0, 4), 1)]
        low_block = _subgroup_sum(n, d, (3, 1))   # words in the first two generators
        high_block = _subgroup_sum(n, d, (1, 3))  # words in the last two generators
        mats = iso.psi_n(yk.ftl_generator(d, n))
        for mu in mus:
            mat = mats[mu]
            m = len(coset_system(mu))
            for k in range(m):
                for l in range(m):
                    entry = mat[k][l]
                    if mu.parts in ((4, 0), (0, 4)):
                        assert entry == low_block
                    elif mu.parts == (3, 1) and (k, l) == (0, 0):
                        assert entry == low_block
                    elif mu.parts == (1, 3) and (k, l) == (3, 3):
                        assert entry == high_block
                    else:
                        assert entry.is_zero(), (mu.parts, k, l)
        mats = iso.psi_n(yk.ctl_generator(d, n))
        for mu in mus:
            mat = mats[mu]
            m = len(coset_system(mu))
            for k in range(m):
                for l in range(m):
                    entry = mat[k][l]
                    if mu.parts == (4, 0) or (mu.parts == (3, 1)
                                              and (k, l) == (0, 0)):
                        assert entry == low_block
                    else:
                        assert entry.is_zero(), (mu.parts, k, l)
    _check(capsys, 5, "worked-example regression", body)


def test_criterion_6_quotient_isomorphisms(capsys):
    def body():
        sizes = [(2, 3), (3, 3), (2, 4)]
        rounds = {(2, 3): 10, (3, 3): 6, (2, 4): 6}
        for d, n in sizes:
            # psi(phi) = id on every explicit basis element of both quotients
            for desc in iso.ftl_basis(d, n):
                blocks = iso.basis_blocks(desc, "FTL")
                assert iso.blocks_equal(iso.ftl_psi(iso.ftl_phi(blocks)),
                                        blocks)
            for desc in iso.ctl_basis(d, n):
                blocks = iso.basis_blocks(desc, "CTL")
                assert iso.blocks_equal(iso.ctl_psi(iso.ctl_phi(blocks)),
                                        blocks)
            # phi(psi) = id modulo the ideal on seeded random elements
            rng = random.Random(100 * d + n)
            perms = all_perms(n)
            for _ in range(rounds[(d, n)]):
                a = tuple(rng.randrange(d) for _ in range(n))
                w = perms[rng.randrange(len(perms))]
                x = _basis_elem(d, n, a, w)
                assert ideal_membership(iso.ftl_phi(iso.ftl_psi(x)) - x, "FTL")
                assert ideal_membership(iso.ctl_phi(iso.ctl_psi(x)) - x, "CTL")
            # the quotient maps kill their ideal generators in every block
            assert iso.nonzero_block(iso.ftl_psi(yk.ftl_generator(d, n))) is None
            assert iso.nonzero_block(iso.ctl_psi(yk.ctl_generator(d, n))) is None
    _check(capsys, 6, "quotient isomorphisms", body)


def test_criterion_7_basis_suite(capsys):
    def body():
        for n in range(9):
            assert len(jones_pairs(n, "TL")) == catalan(n)
        for n in range(6):
            pairs = jones_pairs(n, "All")
            assert len(pairs) == factorial(n)
            assert len({jones_permutation(n, p) for p in pairs}) == factorial(n)
        for d, n in [(2, 3), (3, 3)]:
            assert len(iso.ftl_basis(d, n)) == dim_FTL(d, n)
            assert len(iso.ctl_basis(d, n)) == dim_CTL(d, n)
        d, n = 2, 3
        for kind in ("FTL", "CTL"):
            elements = [iso.basis_element(desc, kind)
                        for desc in (iso.ftl_basis(d, n) if kind == "FTL"
                                     else iso.ctl_basis(d, n))]
            assert oracles.independent_mod_quotient(elements, kind, d)
    _check(capsys, 7, "basis suite", body)


def test_criterion_8_oracle_cross_checks(capsys):
    def body():
        # Jones-coordinate reduction vs brute-force ideal-span reduction
        for w in all_perms(3):
            h = iso.hecke_term(3, w, RatFunc.one(1))
            assert iso.rho_reduce(h) == oracles.rho_bruteforce(h, 3)
        rng = random.Random(8)
        perms4 = all_perms(4)
        sample = [perms4[rng.randrange(len(perms4))] for _ in range(8)]
        sample.append(Perm((4, 3, 2, 1)))
        for w in sample:
            h = iso.hecke_term(4, w, RatFunc.one(1))
            assert iso.rho_reduce(h) == oracles.rho_bruteforce(h, 4)
        combo = oracles.g_word(1, 4, (1, 3)) + \
            oracles.g_word(1, 4, (2,)).scale(RatFunc.q(1))
        assert iso.rho_reduce(combo) == oracles.rho_bruteforce(combo, 4)
        # closed-form projector matrices vs evaluated framing averages
        for d, n in [(2, 3), (3, 3)]:
            for shape in enumerate_d_partitions(d, n):
                module = rep_module(d, shape)
                for i in range(1, n):
                    assert rep_e(module, i) == \
                        rep_element(module, yk.e(d, n, i))
        # conjugation-shift identities
        for d in (1, 2):
            n = 4
            core = yk.e(d, n, 1) * yk.e(d, n, 2) * yk.g_block(d, n, 1)
            assert oracles.conjugate_shift(core, 1) == core
            assert oracles.conjugate_shift(core, 2) == \
                yk.e(d, n, 2) * yk.e(d, n, 3) * yk.g_block(d, n, 2)
            assert oracles.conjugate_shift(yk.T(d, n, 1) * core, 2) == \
                yk.T(d, n, 2) * yk.e(d, n, 2) * yk.e(d, n, 3) * yk.g_block(d, n, 2)
            assert oracles.conjugate_shift(yk.g_block(d, n, 1), 2) == \
                yk.g_block(d, n, 2)
    _check(capsys, 8, "oracle cross-checks", body)
