import itertools
import random
import re
import time

import pytest

from fractions import Fraction

import oracles
from ytl.linalg import mat_mul
from ytl.permutations import (Composition, ConsistencyError, Perm,
                              act_on_character, all_perms, compositions,
                              coset_system, factor_in_young)
from ytl.scalars import Cyclotomic, RatFunc, as_ratfunc
from ytl import isomaps as iso
from ytl import yokonuma as yk
from ytl.reps import ideal_membership, quotient_shapes, rep_element, rep_module
from ytl.tableaux import (JonesPair, catalan, dim_CTL, dim_FTL, enumerate_partitions,
                          jones_pairs, jones_permutation, tl_factors, two_column)


def basis_elem(d, n, a, w):
    return yk.YElement(d, n, {(tuple(a), w): RatFunc.one(d)})


def single_entry(mu, m, n, k, l, hecke):
    return [[hecke if (i, j) == (k - 1, l - 1) else yk.zero(1, n)
             for j in range(m)] for i in range(m)]


# -- psi_tilde ----------------------------------------------------------------
# psi_tilde, the block map before the diagonal rescaling, agrees with psi_mu
# on the diagonal cells, so its cases are read off psi_mu of a g_w


def _support(row):
    return [l for l, cell in enumerate(row, 1) if not cell.is_zero()]


def test_psi_tilde_identity_and_full_block():
    mu = Composition((1, 2))
    row = iso.psi_mu(mu, yk.unit(2, 3))[1]
    assert _support(row) == [2]
    assert row[1] == iso.hecke_unit(3, 2)
    # mu = (n): the single coset representative is the identity
    mun = Composition((3,))
    for w in all_perms(3):
        assert iso.psi_mu(mun, basis_elem(1, 3, (0, 0, 0), w)) == \
            [[iso.hecke_term(3, w, RatFunc.one(1))]]


def test_block_maps_check_parameters():
    # psi_mu of an element of another (d, n) than mu is refused
    mu = Composition((2, 1))
    for x in (yk.unit(3, 3), yk.unit(2, 4), yk.unit(1, 3)):
        with pytest.raises(ValueError, match="algebra parameter mismatch"):
            iso.psi_mu(mu, x)


def test_psi_tilde_deodhar_descend():
    # mu=(1,3), k=4, w=s_2: stays on the diagonal with a conjugated generator
    mu = Composition((1, 3))
    row = iso.psi_mu(mu, yk.gen_g(2, 4, 2))[3]
    assert _support(row) == [4]
    ((_, u), c), = row[3].terms
    assert u == Perm.transposition(4, 3) and c == RatFunc.one(2)


# -- psi_mu / phi_mu ----------------------------------------------------------

@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_inverse_pair_full_basis(d, n):
    for a in itertools.product(range(d), repeat=n):
        for w in all_perms(n):
            x = basis_elem(d, n, a, w)
            assert iso.phi_n(iso.psi_n(x)) == x


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_pair_mixed_orders(n):
    # one zeta_6 coefficient at d = 3: the images, and so phi's output, are
    # over Q(zeta_6), the lcm order of x, as products are
    d, perms = 3, all_perms(n)
    x = yk.YElement(d, n, [
        (((1,) * n, perms[-1]), RatFunc.from_scalar(Cyclotomic.root_power(6, 1), 6)),
        (((0,) * n, perms[-1]), RatFunc.q(3) + RatFunc.from_scalar(Fraction(-2, 5), 3)),
        (((2,) + (0,) * (n - 1), perms[0]), Cyclotomic.root_power(3, 2))])
    back = iso.phi_n(iso.psi_n(x))
    assert back == x and hash(back) == hash(x)
    assert {c.order for _, c in back.terms} == {6}


def test_phi_refuses_empty_and_misshapen_families():
    for phi in (iso.phi_n, iso.ftl_phi, iso.ctl_phi):
        with pytest.raises(ValueError, match="empty block family"):
            phi({})
    # mu = (1, 1, 1) has m = 6: a 1 x 1 matrix is not its block
    mu = Composition((1, 1, 1))
    with pytest.raises(ValueError, match=r"mu = \(1, 1, 1\) must be 6 x 6, not 1 rows"):
        iso.phi_mu(mu, [[iso.hecke_unit(3)]])
    full = iso.psi_mu(mu, yk.unit(3, 3))
    with pytest.raises(ValueError, match=r"lengths \[6, 6, 6, 6, 6, 5\]"):
        iso.phi_mu(mu, full[:-1] + [full[-1][:-1]])
    with pytest.raises(ValueError, match="must be 6 x 6"):
        iso.ftl_phi({mu: [[{}] * 6] * 5})


def test_phi_mu_refuses_a_wide_q_span():
    # a cell coefficient 1 + q^(10^8) spans 10^8 + 1 powers of q
    mu = Composition((2, 0))
    cell = iso.hecke_term(2, Perm.identity(2), RatFunc.one(1) + RatFunc.q_power(10 ** 8, 1))
    start = time.monotonic()
    with pytest.raises(ValueError, match="spans 100000001 powers of q"):
        iso.phi_mu(mu, [[cell]])
    assert time.monotonic() - start < 1.0


def test_phi_refuses_families_of_two_sizes():
    # a (2, 3) family merged with a (2, 2) one would hold permutations of two
    # degrees
    family = {**iso.psi_n(yk.gen_g(2, 3, 1)), **iso.psi_n(yk.gen_g(2, 2, 1))}
    with pytest.raises(ValueError, match=r"mu = \(2, 0\) in a family at \(d, n\) = \(2, 3\)"):
        iso.phi_n(family)
    family = {**iso.ftl_psi(yk.gen_g(2, 2, 1)), **iso.ftl_psi(yk.gen_g(2, 3, 1))}
    with pytest.raises(ValueError, match=r"mu = \(3, 0\) in a family at \(d, n\) = \(2, 2\)"):
        iso.ftl_phi(family)


def test_phi_refuses_cells_outside_the_hecke_algebra():
    mu = Composition((2, 0))
    for cell in (yk.gen_t(2, 2, 1), yk.unit(2, 2), iso.hecke_unit(3)):
        with pytest.raises(ValueError, match=r"cell \(1, 1\) of the block of mu = \(2, 0\) "
                                             "is not a Hecke element of degree 2"):
            iso.phi_mu(mu, [[cell]])


def test_phi_refuses_cells_of_the_other_kind():
    # quotient coordinates where a Hecke element belongs, and the reverse
    mu = Composition((2,))
    with pytest.raises(ValueError, match=r"cell \(1, 1\) of the block of mu = \(2,\) is not "
                                         "a Hecke element of degree 2"):
        iso.phi_mu(mu, [[{}]])
    for phi in (iso.ftl_phi, iso.ctl_phi):
        with pytest.raises(ValueError, match=r"cell \(1, 1\) of the block of mu = \(2,\) is "
                                             "not a dict of quotient coordinates"):
            phi({mu: [[iso.hecke_unit(2)]]})


def test_phi_refuses_terms_outside_the_young_subgroup():
    mu = Composition((2, 1))
    for k, l in ((1, 1), (2, 3)):
        cells = single_entry(mu, 3, 3, k, l, iso.hecke_term(3, Perm((1, 3, 2)), 1))
        with pytest.raises(ValueError, match=r"Young subgroup of Composition\(parts=\(2, 1\)\)"):
            iso.phi_mu(mu, cells)
        with pytest.raises(ValueError, match="Young subgroup"):
            iso.phi_n({**iso.psi_n(yk.zero(2, 3)), mu: cells})


def _key_block(mu, key):
    m = len(coset_system(mu))
    return {mu: [[{key: RatFunc.one(mu.d)} if (k, l) == (0, 0) else {} for l in range(m)]
                 for k in range(m)]}


def test_quotient_phi_refuses_malformed_keys():
    # at d = 2 FTL reduces both factors and CTL the first one
    mu, empty = Composition((2, 1)), JonesPair((), ())
    for phi, r in ((iso.ftl_phi, 2), (iso.ctl_phi, 1)):
        # too few or too many coordinates, or a permutation in a
        # Temperley-Lieb slot
        for key in ((empty,), (empty, empty, empty), (Perm((2, 1)), Perm((1,)))):
            with pytest.raises(ValueError, match=r"is not a key for mu = \(2, 1\): a "
                                                 "Temperley-Lieb Jones pair for each of its "
                                                 "first %d parts" % r):
                phi(_key_block(mu, key))
    with pytest.raises(ValueError, match=r"not in S_1, for part 2 of "
                                         r"Composition\(parts=\(2, 1\)\)"):
        iso.ctl_phi(_key_block(mu, (empty, empty)))
    with pytest.raises(ValueError, match=r"is not a key for mu = \(2, 1\)"):
        iso.ftl_phi(_key_block(mu, (empty, Perm((1,)))))


def test_quotient_phi_refuses_pairs_outside_temperley_lieb():
    # s_2 is not in S_2, and (1, 2; 0, 1) names s_1 s_2 s_1, which is not
    # fully commutative
    cases = [(Composition((2, 1)), (JonesPair((2,), (0,)), JonesPair((), ()))),
             (Composition((3, 0)), (JonesPair((1, 2), (0, 1)), JonesPair((), ())))]
    for mu, key in cases:
        message = r"is not a key for mu = %s: a Temperley-Lieb Jones pair"
        with pytest.raises(ValueError, match=message % re.escape(str(mu.parts))):
            iso.ftl_phi(_key_block(mu, key))


@pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (2, 4)])
def test_quotient_coord_perm_is_the_product_of_embedded_words(d, n):
    for kind, basis in (("FTL", iso.ftl_basis), ("CTL", iso.ctl_basis)):
        r = tl_factors(kind, d)
        for mu, key in {(mu, key) for mu, key, _, _ in basis(d, n)}:
            word, offset = [], 0
            for i, (part, local) in enumerate(zip(mu.parts, key)):
                word.extend(j + offset for j in
                            (local.word() if i < r else local.reduced_word()))
                offset += part
            assert iso.quotient_coord_perm(mu, key, r) == Perm.from_word(n, tuple(word))


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_matrix_side_inverse(d, n):
    for mu in compositions(d, n):
        m = len(coset_system(mu))
        for w in mu.young_subgroup():
            hterm = iso.hecke_term(n, w, RatFunc.one(d))
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    hmat = single_entry(mu, m, n, k, l, hterm)
                    assert iso.psi_mu(mu, iso.phi_mu(mu, hmat)) == hmat


def test_homomorphism_property():
    d, n = 2, 3
    rng = random.Random(2)
    perms = all_perms(n)
    def rand():
        a = tuple(rng.randrange(d) for _ in range(n))
        return basis_elem(d, n, a, perms[rng.randrange(len(perms))])
    for mu in compositions(d, n):
        for _ in range(15):
            x, y = rand(), rand()
            lhs = iso.psi_mu(mu, x * y)
            rhs = mat_mul(iso.psi_mu(mu, x), iso.psi_mu(mu, y), yk.zero(1, n))
            assert lhs == rhs


def test_framing_images_diagonal():
    d, n = 2, 3
    for mu in compositions(d, n):
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


def test_generator_image_structure():
    # diagonal entries are subgroup generators, off-diagonal entries 1 or q
    d, n = 2, 3
    q = RatFunc.q(d)
    one = RatFunc.one(d)
    for mu in compositions(d, n):
        for i in range(1, n):
            mat = iso.psi_mu(mu, yk.gen_g(d, n, i))
            m = len(mat)
            for k in range(m):
                for l in range(m):
                    entry = mat[k][l]
                    if entry.is_zero():
                        continue
                    ((_, u), c), = entry.terms
                    if k == l:
                        assert u.length() == 1 and factor_in_young(mu, u)
                        assert c == one
                    else:
                        assert u.is_identity()
                        assert c in (one, q)
            # symmetric placement of the off-diagonal support
            for k in range(m):
                for l in range(m):
                    assert mat[k][l].is_zero() == mat[l][k].is_zero()


def test_phi_identity_matrix_is_central_idempotent():
    d, n = 2, 3
    for mu in compositions(d, n):
        m = len(coset_system(mu))
        ident = [[iso.hecke_unit(n, d) if i == j else yk.zero(1, n)
                  for j in range(m)] for i in range(m)]
        assert iso.phi_mu(mu, ident) == yk.E_mu(d, n, mu)


def test_phi_on_first_column_has_no_length_correction():
    # pi_1 = identity, so phi(G_w M_{1,1}) = E_1 g_w E_1 for w in the subgroup
    d, n = 2, 3
    for mu in compositions(d, n):
        m = len(coset_system(mu))
        chars = iso.block_characters(mu)
        E1 = yk.E_chi(d, n, chars[0])
        for w in mu.young_subgroup():
            hmat = single_entry(mu, m, n, 1, 1, iso.hecke_term(n, w, RatFunc.one(d)))
            lhs = iso.phi_mu(mu, hmat)
            rhs = E1 * oracles.g_word(d, n, w.reduced_word()) * E1
            assert lhs == rhs


@pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (1, 5)])
def test_block_map_q_powers_are_exact_halves(d, n):
    # the power s of q in each step is half the length sum h, with nothing
    # dropped: h is even, as l(x) has the parity of sign(x)
    for mu in compositions(d, n):
        system = coset_system(mu)
        for k in range(1, len(system) + 1):
            pi_k = system[k - 1]
            for w in all_perms(n):
                l, u, s = iso._psi_step(mu, k, w)
                pi_l = system[l - 1]
                assert u == pi_k.inv() * w * pi_l
                assert 2 * s == w.length() - u.length() + pi_k.length() - pi_l.length()
            for l in range(1, len(system) + 1):
                pi_l = system[l - 1]
                for u in mu.young_subgroup():
                    v, s = iso._phi_step(mu, k, l, u)
                    assert v == pi_k * u * pi_l.inv()
                    assert 2 * s == u.length() - v.length() + pi_l.length() - pi_k.length()


# -- reference block maps in the standard basis ---------------------------------
# The formulas the character transform replaced: psi adds one character value
# per (term, k) into YElement cells, phi expands E_chi for every entry term.

def ref_psi_mu(mu, x):
    d, n = mu.d, mu.n
    sys = coset_system(mu)
    m = len(sys)
    chars = iso.block_characters(mu)
    index = {exps: k for k, exps in enumerate(chars, 1)}
    out = [[yk.zero(1, n) for _ in range(m)] for _ in range(m)]
    for (tmon, w), c in x.terms:
        for k in range(1, m + 1):
            l = index[act_on_character(w.inv(), chars[k - 1])]
            pi_k, pi_l = sys[k - 1], sys[l - 1]
            u = pi_k.inv() * w * pi_l
            h = w.length() - u.length() + pi_k.length() - pi_l.length()
            assert h % 2 == 0
            coeff = c * RatFunc.from_scalar(yk.chi_value(d, chars[k - 1], tmon), d) \
                * RatFunc.q_power(h // 2, d)
            out[k - 1][l - 1] = out[k - 1][l - 1] + iso.hecke_term(n, u, coeff)
    return out


def ref_phi_mu(mu, matrix):
    d, n = mu.d, mu.n
    sys = coset_system(mu)
    chars = iso.block_characters(mu)
    out = yk.zero(d, n)
    for k, row in enumerate(matrix, 1):
        for l, entry in enumerate(row, 1):
            pi_k, pi_l = sys[k - 1], sys[l - 1]
            for (_, w), c in entry.terms:
                v = pi_k * w * pi_l.inv()
                h = w.length() - v.length() + pi_l.length() - pi_k.length()
                assert h % 2 == 0
                coeff = as_ratfunc(c, d) * RatFunc.q_power(h // 2, d)
                idem = yk.E_chi(d, n, chars[k - 1])
                out = out + yk.YElement(d, n, [((tmon, v), e * coeff)
                                               for (tmon, _), e in idem.terms])
    return out


def ref_phi_n(blocks):
    out = None
    for mu, matrix in blocks.items():
        y = ref_phi_mu(mu, matrix)
        out = y if out is None else out + y
    return out


def ref_quotient_psi(x, r):
    return {mu: [[iso.quotient_entry(mu, e, r) for e in row] for row in ref_psi_mu(mu, x)]
            for mu in compositions(x.d, x.n)}


def ref_quotient_phi(blocks, r):
    out = None
    for mu, block in blocks.items():
        hmat = [[yk.zero(1, mu.n) for _ in row] for row in block]
        for i, row in enumerate(block):
            for j, cell in enumerate(row):
                for key, c in cell.items():
                    hmat[i][j] = hmat[i][j] + iso.hecke_term(
                        mu.n, iso.quotient_coord_perm(mu, key, r), c)
        y = ref_phi_mu(mu, hmat)
        out = y if out is None else out + y
    return out


def same(a, b):
    """Exact equality, also of the printed form (the coefficient fields)."""
    return a == b and repr(a) == repr(b)


def same_block(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(same(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def random_coeff(rng, d):
    """A Laurent polynomial with negative exponents and cyclotomic
    coefficients; now and then divided by 1 + q."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-2, 2)] = Cyclotomic.root_power(d, rng.randrange(d)) \
            * rng.choice([1, -2, Fraction(1, 3)])
    c = RatFunc(d, terms)
    if rng.random() < 0.2:
        c = c / (RatFunc.one(d) + RatFunc.q(d))
    return c if not c.is_zero() else RatFunc.one(d)


def random_elements(rng, d, n):
    """Several t-monomials sharing each permutation; and products with E_chi,
    whose character coordinates cancel for all but one character."""
    perms = all_perms(n)
    out = []
    for _ in range(2):
        terms = [((tuple(rng.randrange(d) for _ in range(n)), w), random_coeff(rng, d))
                 for w in rng.sample(perms, min(2, len(perms))) for _ in range(3)]
        out.append(yk.YElement(d, n, terms))
    exps = tuple(rng.randrange(d) for _ in range(n))
    w = rng.choice(perms)
    g = yk.YElement(d, n, {((0,) * n, w): random_coeff(rng, d)})
    out.append(yk.E_chi(d, n, exps) * g + yk.gen_t(d, n, 1) * g - g)
    return out


def random_matrix(rng, mu):
    m = len(coset_system(mu))
    young = mu.young_subgroup()
    mat = [[yk.zero(1, mu.n) for _ in range(m)] for _ in range(m)]
    for _ in range(3):
        k, l = rng.randrange(m), rng.randrange(m)
        terms = [(((0,) * mu.n, w), random_coeff(rng, mu.d))
                 for w in rng.sample(young, min(2, len(young)))]
        mat[k][l] = mat[k][l] + yk.YElement(1, mu.n, terms)
    return mat


def random_quotient_blocks(rng, d, n, kind):
    """A block family with several basis coordinates, some in one cell."""
    descs = iso.ftl_basis(d, n) if kind == "FTL" else iso.ctl_basis(d, n)
    blocks = {}
    for desc in rng.sample(descs, min(5, len(descs))):
        for mu, block in iso.basis_blocks(desc, kind).items():
            mine = blocks.setdefault(mu, [[{} for _ in row] for row in block])
            for i, row in enumerate(block):
                for j, cell in enumerate(row):
                    for key in cell:
                        mine[i][j][key] = random_coeff(rng, d)
    return blocks


ORACLE_CELLS = [(1, 4), (2, 3), (3, 2), (3, 3), (2, 4)]


@pytest.mark.parametrize("d,n", ORACLE_CELLS)
def test_psi_phi_against_reference(d, n):
    rng = random.Random(100 * d + n)
    for x in random_elements(rng, d, n):
        mats = iso.psi_n(x)
        assert tuple(mats) == compositions(d, n)
        for mu in compositions(d, n):
            want = ref_psi_mu(mu, x)
            assert same_block(mats[mu], want)
            assert same_block(iso.psi_mu(mu, x), want)
        assert same(iso.phi_n(mats), ref_phi_n(mats))
        assert iso.phi_n(mats) == x
    for mu in compositions(d, n):
        mat = random_matrix(rng, mu)
        assert same(iso.phi_mu(mu, mat), ref_phi_mu(mu, mat))
    blocks = {mu: random_matrix(rng, mu) for mu in compositions(d, n)}
    assert same(iso.phi_n(blocks), ref_phi_n(blocks))


@pytest.mark.parametrize("d,n", ORACLE_CELLS)
def test_quotient_maps_against_reference(d, n):
    rng = random.Random(100 * d + n + 1)
    for x in random_elements(rng, d, n):
        assert same(iso.ftl_psi(x), ref_quotient_psi(x, tl_factors("FTL", d)))
        assert same(iso.ctl_psi(x), ref_quotient_psi(x, tl_factors("CTL", d)))
    for kind, phi in (("FTL", iso.ftl_phi), ("CTL", iso.ctl_phi)):
        blocks = random_quotient_blocks(rng, d, n, kind)
        assert same(phi(blocks), ref_quotient_phi(blocks, tl_factors(kind, d)))


# -- rho_reduce ---------------------------------------------------------------

def test_rho_basics():
    r = iso.rho_reduce(iso.hecke_unit(3))
    assert len(r) == 1
    (pair, c), = r.items()
    assert pair.i == () and c == RatFunc.one(1)
    assert iso.rho_reduce(yk.g_block(1, 3, 1)) == {}


def test_quotient_entry_refuses_non_hecke_input():
    with pytest.raises(ValueError, match=r"an entry for mu = \(3,\) must be a Hecke element "
                                         "of degree 3, not d = 1, n = 4"):
        iso.rho_reduce(iso.hecke_unit(4), 3)
    with pytest.raises(ValueError, match="not d = 2, n = 3"):
        iso.rho_reduce(yk.gen_t(2, 3, 1))
    with pytest.raises(ValueError, match=r"mu = \(2, 1\) must be a Hecke element"):
        iso.quotient_entry(Composition((2, 1)), yk.gen_g(2, 3, 1), 2)


def test_rho_is_multiplicative_mod_kernel():
    # rho(G_w) computed coordinate-wise matches rho of products
    h1 = oracles.g_word(1, 3, (1,))
    h2 = oracles.g_word(1, 3, (2, 1))
    lhs = iso.rho_reduce(h1 * h2)
    rhs = oracles.rho_bruteforce(h1 * h2, 3)
    assert lhs == rhs


@pytest.mark.parametrize("m", [3, 4])
def test_rho_against_bruteforce(m):
    for w in all_perms(m):
        h = iso.hecke_term(m, w, RatFunc.one(1))
        assert iso.rho_reduce(h) == oracles.rho_bruteforce(h, m)
    # and one non-basis combination
    combo = oracles.g_word(1, m, (1, 2)) + oracles.g_word(1, m, (2,)).scale(RatFunc.q(1))
    assert iso.rho_reduce(combo) == oracles.rho_bruteforce(combo, m)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_braid_split(m):
    """None exactly on the Jones permutations; otherwise a factorisation
    x * s_i s_{i+1} s_i * y with the lengths adding."""
    jones = {jones_permutation(m, p) for p in jones_pairs(m, "TL")}
    for w in all_perms(m):
        split = oracles._braid_split(w)
        assert (split is None) == (w in jones)
        if split is not None:
            x, i, y = split
            assert x * Perm.from_word(m, (i, i + 1, i)) * y == w
            assert x.length() + 3 + y.length() == w.length()


def _random_perms(m, count, seed):
    rng = random.Random(seed)
    return [Perm(tuple(rng.sample(range(1, m + 1), m))) for _ in range(count)]


def test_rho_perm_matches_the_straightening():
    # the action of g_k gives the straightening's coordinates, in its order
    cases = [(m, w) for m in range(1, 7) for w in all_perms(m)]
    cases += [(7, w) for w in _random_perms(7, 20, 29)]
    for m, w in cases:
        assert iso._rho_perm(m, w) == oracles.ref_rho_perm(m, w), (m, w)


def test_rho_reduce_keeps_the_straightening_order():
    for w in all_perms(5):
        want = [pair for pair, _ in oracles.ref_rho_perm(5, w)]
        assert list(iso.rho_reduce(iso.hecke_term(5, w, RatFunc.one(1)))) == want


def _contains_321(w):
    images = w.images
    return any(images[a] > images[b] > images[c]
               for a, b, c in itertools.combinations(range(len(images)), 3))


@pytest.mark.parametrize("m", range(8))
def test_jones_index_is_a_two_way_table(m):
    table = iso._jones_index(m)
    perms = {v: p for v, p in table.items() if isinstance(v, Perm)}
    pairs = {p: v for p, v in table.items() if isinstance(p, JonesPair)}
    assert len(perms) == len(pairs) == catalan(m) and len(table) == 2 * catalan(m)
    assert set(pairs) == set(jones_pairs(m, "TL"))
    assert all(pairs[p] == v for v, p in perms.items())
    assert all(perms[v] == p for p, v in pairs.items())
    assert not any(_contains_321(v) for v in perms)
    # and the 321-avoiding permutations are all there
    assert sum(not _contains_321(w) for w in all_perms(m)) == catalan(m)


def two_column_images(h, m):
    return [rep_element(rep_module(1, (p,)), h)
            for p in enumerate_partitions(m) if two_column(p)]


def test_rho_against_seminormal_images():
    # TL_5 acts faithfully on the two-column irreducibles, so G_w and its
    # Jones combination must have the same matrices there
    m = 5
    perms = all_perms(m)
    sample = random.Random(5).sample(perms, 10) + [perms[-1]]  # and w0
    for w in sample:
        g_w = iso.hecke_term(m, w, RatFunc.one(1))
        combo = yk.zero(1, m)
        for pair, c in iso.rho_reduce(g_w).items():
            combo = combo + iso.hecke_term(m, jones_permutation(m, pair), c)
        assert two_column_images(g_w, m) == two_column_images(combo, m)


def test_rho_kills_the_ideal():
    m = 5
    rng = random.Random(11)
    perms = all_perms(m)
    for _ in range(6):
        x, y = rng.choice(perms), rng.choice(perms)
        h = iso.hecke_term(m, x, RatFunc.one(1)) * yk.g_block(1, m, rng.randint(1, m - 2)) \
            * iso.hecke_term(m, y, RatFunc.one(1))
        assert iso.rho_reduce(h) == {}


def test_fully_commutative_without_jones_pair_is_inconsistent(monkeypatch):
    full = iso._jones_index(3)
    w = Perm.from_word(3, (1, 2))
    monkeypatch.setattr(iso, "_jones_index",
                        lambda m: {v: p for v, p in full.items() if v != w})
    assert iso._rho_perm.__wrapped__(3, Perm.identity(3))
    with pytest.raises(ConsistencyError):
        iso._rho_perm.__wrapped__(3, w)


# -- quotient maps -------------------------------------------------------------

def test_quotient_maps_kill_generators():
    for d, n in [(2, 3), (3, 3), (2, 4), (2, 5)]:
        assert iso.nonzero_block(iso.ftl_psi(yk.ftl_generator(d, n))) is None
        assert iso.nonzero_block(iso.ctl_psi(yk.ctl_generator(d, n))) is None
    assert iso.nonzero_block(iso.ctl_psi(yk.ftl_generator(2, 3))) is not None


def test_d1_quotient_map_is_rho():
    n = 3
    mu = Composition((n,))
    for w in all_perms(n):
        x = basis_elem(1, n, (0,) * n, w)
        blocks = iso.ftl_psi(x)
        entry = {p: c for (p,), c in blocks[mu][0][0].items()}
        assert entry == iso.rho_reduce(iso.hecke_term(n, w, RatFunc.one(1)))
        assert iso.ctl_psi(x) == blocks


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quotients_coincide_at_d1(n):
    """At d = 1 the one factor is Temperley-Lieb in both quotients, so FTL
    and CTL are the same algebra TL_n, with the same keys."""
    assert iso.ftl_basis(1, n) == iso.ctl_basis(1, n)
    for w in all_perms(n):
        x = basis_elem(1, n, (0,) * n, w)
        assert iso.ftl_psi(x) == iso.ctl_psi(x)
    assert quotient_shapes(1, n, "FTL") == quotient_shapes(1, n, "CTL")
    assert dim_FTL(1, n) == dim_CTL(1, n)


def test_quotient_round_trips():
    d, n = 2, 3
    rng = random.Random(6)
    perms = all_perms(n)
    for _ in range(8):
        a = tuple(rng.randrange(d) for _ in range(n))
        w = perms[rng.randrange(len(perms))]
        x = basis_elem(d, n, a, w)
        assert ideal_membership(iso.ftl_phi(iso.ftl_psi(x)) - x, "FTL")
        assert ideal_membership(iso.ctl_phi(iso.ctl_psi(x)) - x, "CTL")


def test_commuting_square():
    # reducing after the block map equals the canonical quotient image
    d, n = 2, 3
    for a in itertools.product(range(d), repeat=n):
        for w in all_perms(n):
            x = basis_elem(d, n, a, w)
            blocks = iso.ftl_psi(x)
            mats = iso.psi_n(x)
            for mu, mat in mats.items():
                reduced = [[iso.quotient_entry(mu, e, d) for e in row] for row in mat]
                for ra, rb in zip(reduced, blocks[mu]):
                    assert ra == rb


def test_blocks_equal_compares_whole_blocks():
    mu = Composition((2, 1))
    x = {"key": RatFunc.one(2)}
    assert iso.blocks_equal({mu: [[x]]}, {mu: [[x]]})
    assert not iso.blocks_equal({mu: [[x]]}, {mu: [[x, x]]})
    assert not iso.blocks_equal({mu: [[x], [x]]}, {mu: [[x]]})
    assert not iso.blocks_equal({mu: []}, {mu: [[x]]})
    # a block missing on one side is zero
    assert iso.blocks_equal({mu: [[{}]]}, {})
    assert not iso.blocks_equal({}, {mu: [[x]]})


def test_zero_hecke_cells_read_as_zero():
    # a zero Hecke cell is zero, as an empty quotient cell is; a nonzero one
    # is not
    mu = Composition((2,))
    assert not yk.zero(1, 2) and yk.gen_g(1, 2, 1)
    assert iso.blocks_equal({mu: [[yk.zero(1, 2)]]}, {})
    assert not iso.blocks_equal({mu: [[iso.hecke_unit(2)]]}, {})
    assert iso.nonzero_block(iso.psi_n(yk.zero(2, 2))) is None
    assert iso.nonzero_block(iso.psi_n(yk.gen_g(2, 2, 1))) is not None


# -- bases ----------------------------------------------------------------------

def test_basis_counts():
    assert len(iso.ftl_basis(1, 3)) == 5
    for d, n in [(2, 3), (3, 3)]:
        assert len(iso.ftl_basis(d, n)) == dim_FTL(d, n)
        assert len(iso.ctl_basis(d, n)) == dim_CTL(d, n)


@pytest.mark.parametrize("d,n,size", [(1, 5, None), (1, 6, None), (2, 5, 60)])
def test_basis_round_trip_reach(d, n, size):
    """psi(phi(B)) == B on every basis block family, or a seeded sample."""
    rng = random.Random(10 * d + n)
    for kind, psi, phi, basis in (("FTL", iso.ftl_psi, iso.ftl_phi, iso.ftl_basis),
                                  ("CTL", iso.ctl_psi, iso.ctl_phi, iso.ctl_basis)):
        descs = basis(d, n)
        for desc in descs if size is None else rng.sample(descs, size):
            blocks = iso.basis_blocks(desc, kind)
            assert iso.blocks_equal(psi(phi(blocks)), blocks)


def test_basis_round_trip_and_independence():
    d, n = 2, 3
    ftl = iso.ftl_basis(d, n)
    for desc in ftl:
        blocks = iso.basis_blocks(desc, "FTL")
        assert iso.blocks_equal(iso.ftl_psi(iso.ftl_phi(blocks)), blocks)
    elements = [iso.basis_element(desc, "FTL") for desc in ftl]
    assert oracles.independent_mod_quotient(elements, "FTL", d)
    ctl = iso.ctl_basis(d, n)
    for desc in ctl:
        blocks = iso.basis_blocks(desc, "CTL")
        assert iso.blocks_equal(iso.ctl_psi(iso.ctl_phi(blocks)), blocks)
    elements = [iso.basis_element(desc, "CTL") for desc in ctl]
    assert oracles.independent_mod_quotient(elements, "CTL", d)
