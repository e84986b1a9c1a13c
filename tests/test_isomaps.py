import itertools
import random

import pytest

from ytl.permutations import Composition, Perm, all_perms, compositions, coset_system
from ytl.scalars import NonIntegralExponent, RatFunc
from ytl import isomaps as iso
from ytl import yokonuma as yk
from ytl.reps import ideal_membership
from ytl.tableaux import dim_CTL, dim_FTL


def basis_elem(d, n, a, w):
    return yk.YElement(d, n, {(tuple(a), w): RatFunc.one(d)})


def single_entry(mu, m, n, k, l, hecke):
    return [[hecke if (i, j) == (k - 1, l - 1) else yk.zero(1, n)
             for j in range(m)] for i in range(m)]


# -- psi_tilde ----------------------------------------------------------------

def test_psi_tilde_identity_and_full_block():
    mu = Composition((1, 2))
    l, h, hecke = iso.psi_tilde_mu(mu, 2, Perm.identity(3))
    assert l == 2 and h == 0
    assert hecke == iso.hecke_unit(3, 2)
    # mu = (n): the single coset representative is the identity
    mun = Composition((3,))
    for w in all_perms(3):
        l, h, hecke = iso.psi_tilde_mu(mun, 1, w)
        assert l == 1 and h == 0
        assert hecke == iso.hecke_term(3, w, RatFunc.one(1))


def test_psi_tilde_deodhar_descend():
    # mu=(1,3), k=4, w=s_2: stays on the diagonal with a conjugated generator
    mu = Composition((1, 3))
    l, h, hecke = iso.psi_tilde_mu(mu, 4, Perm.transposition(4, 2))
    assert l == 4 and h == 0
    ((_, u), c), = hecke.terms
    assert u == Perm.transposition(4, 3)


# -- psi_mu / phi_mu ----------------------------------------------------------

@pytest.mark.parametrize("d,n", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_inverse_pair_full_basis(d, n):
    for a in itertools.product(range(d), repeat=n):
        for w in all_perms(n):
            x = basis_elem(d, n, a, w)
            assert iso.phi_n(iso.psi_n(x)) == x


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_matrix_side_inverse(d, n):
    for mu in compositions(d, n):
        m = coset_system(mu).m
        for w in mu.young_subgroup():
            hterm = iso.hecke_term(n, w, RatFunc.one(d))
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    hmat = single_entry(mu, m, n, k, l, hterm)
                    assert iso.block_equal(iso.psi_mu(mu, iso.phi_mu(mu, hmat)), hmat)


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
            rhs = iso.block_mat_mul(iso.psi_mu(mu, x), iso.psi_mu(mu, y))
            assert iso.block_equal(lhs, rhs)


def test_framing_images_diagonal():
    d, n = 2, 3
    for mu in compositions(d, n):
        m = coset_system(mu).m
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
                    RatFunc.from_scalar(chars[k].value(d, tmon), d))
                assert mat[k][k] == want


def test_generator_image_structure():
    # diagonal entries are subgroup generators, off-diagonal entries 1 or q
    d, n = 2, 3
    q = RatFunc.q(d)
    one = RatFunc.one(d)
    for mu in compositions(d, n):
        jset = set(mu.j_set())
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
                        from ytl.permutations import simple_transposition_index
                        assert simple_transposition_index(u) in jset
                        assert c == one
                    else:
                        assert u.is_identity()
                        assert c in (one, q)
            # symmetric placement of the off-diagonal support
            for k in range(m):
                for l in range(m):
                    assert mat[k][l].is_zero() == mat[l][k].is_zero()


def test_verbatim_exponent_variant_fails_inversion():
    """The exponent convention using the length of pi_k^-1 w pi_l does not
    invert psi; the default, using the length of pi_k w pi_l^-1, does."""
    mu = Composition((1, 2))
    sys = coset_system(mu)
    m = sys.m
    n = 3
    failures = 0
    for w in mu.young_subgroup():
        hterm = iso.hecke_term(n, w, RatFunc.one(2))
        for k in range(1, m + 1):
            for l in range(1, m + 1):
                hmat = single_entry(mu, m, n, k, l, hterm)
                assert iso.block_equal(
                    iso.psi_mu(mu, iso.phi_mu(mu, hmat)), hmat)
                try:
                    bad = iso.phi_mu(mu, hmat, verbatim=True)
                    if not iso.block_equal(iso.psi_mu(mu, bad), hmat):
                        failures += 1
                except NonIntegralExponent:
                    failures += 1
    assert failures > 0


def test_phi_identity_matrix_is_central_idempotent():
    d, n = 2, 3
    for mu in compositions(d, n):
        m = coset_system(mu).m
        ident = [[iso.hecke_unit(n, d) if i == j else yk.zero(1, n)
                  for j in range(m)] for i in range(m)]
        assert iso.phi_mu(mu, ident) == yk.E_mu(d, n, mu)


def test_phi_on_first_column_has_no_length_correction():
    # pi_1 = identity, so phi(G_w M_{1,1}) = E_1 g_w E_1 for w in the subgroup
    d, n = 2, 3
    for mu in compositions(d, n):
        m = coset_system(mu).m
        chars = iso.block_characters(mu)
        E1 = yk.E_chi(d, n, chars[0].exps)
        for w in mu.young_subgroup():
            hmat = single_entry(mu, m, n, 1, 1, iso.hecke_term(n, w, RatFunc.one(d)))
            lhs = iso.phi_mu(mu, hmat)
            rhs = E1 * yk.g_word(d, n, w.reduced_word()) * E1
            assert lhs == rhs


# -- rho_reduce ---------------------------------------------------------------

def test_rho_basics():
    r = iso.rho_reduce(iso.hecke_unit(3))
    assert len(r) == 1
    (pair, c), = r.items()
    assert pair.i == () and c == RatFunc.one(1)
    assert iso.rho_reduce(yk.g_block(1, 3, 1)) == {}


def test_rho_is_multiplicative_mod_kernel():
    # rho(G_w) computed coordinate-wise matches rho of products
    h1 = yk.g_word(1, 3, (1,))
    h2 = yk.g_word(1, 3, (2, 1))
    lhs = iso.rho_reduce(h1 * h2)
    rhs = iso.rho_bruteforce(h1 * h2, 3)
    assert lhs == rhs


@pytest.mark.parametrize("m", [3, 4])
def test_rho_against_bruteforce(m):
    rng = random.Random(m)
    perms = all_perms(m)
    sample = [perms[rng.randrange(len(perms))] for _ in range(6)]
    sample.append(Perm((tuple(range(m, 0, -1)))))  # longest element
    for w in sample:
        h = iso.hecke_term(m, w, RatFunc.one(1))
        assert iso.rho_reduce(h) == iso.rho_bruteforce(h, m)
    # and one non-basis combination
    combo = yk.g_word(1, m, (1, 2)) + yk.g_word(1, m, (2,)).scale(RatFunc.q(1))
    assert iso.rho_reduce(combo) == iso.rho_bruteforce(combo, m)


# -- quotient maps -------------------------------------------------------------

def test_quotient_maps_kill_generators():
    for d, n in [(2, 3), (3, 3), (2, 4)]:
        assert iso.blocks_is_zero(iso.ftl_psi(yk.ftl_generator(d, n)))
        assert iso.blocks_is_zero(iso.ctl_psi(yk.ctl_generator(d, n)))
    assert not iso.blocks_is_zero(iso.ctl_psi(yk.ftl_generator(2, 3)))


def test_d1_quotient_map_is_rho():
    n = 3
    mu = Composition((n,))
    for w in all_perms(n):
        x = basis_elem(1, n, (0,) * n, w)
        blocks = iso.ftl_psi(x)
        entry = {p: c for (p,), c in blocks[mu][0][0].items()}
        assert entry == iso.rho_reduce(iso.hecke_term(n, w, RatFunc.one(1)))
        blocks_c = iso.ctl_psi(x)
        entry_c = blocks_c[mu][0][0]
        assert {p: c for (p, _), c in entry_c.items()} == entry


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
                reduced = [[iso.ftl_entry(mu, e) for e in row] for row in mat]
                for ra, rb in zip(reduced, blocks[mu]):
                    assert ra == rb


# -- bases ----------------------------------------------------------------------

def test_basis_counts():
    assert len(iso.ftl_basis(1, 3)) == 5
    for d, n in [(2, 3), (3, 3)]:
        assert len(iso.ftl_basis(d, n)) == dim_FTL(d, n)
        assert len(iso.ctl_basis(d, n)) == dim_CTL(d, n)


def test_basis_round_trip_and_independence():
    d, n = 2, 3
    ftl = iso.ftl_basis(d, n)
    for desc in ftl:
        blocks = iso.basis_blocks(desc, "FTL")
        assert iso.blocks_equal(iso.ftl_psi(iso.ftl_phi(blocks)), blocks)
    elements = [iso.basis_element(desc, "FTL") for desc in ftl]
    assert iso.independent_mod_quotient(elements, "FTL", d)
    ctl = iso.ctl_basis(d, n)
    for desc in ctl:
        blocks = iso.basis_blocks(desc, "CTL")
        assert iso.blocks_equal(iso.ctl_psi(iso.ctl_phi(blocks)), blocks)
    elements = [iso.basis_element(desc, "CTL") for desc in ctl]
    assert iso.independent_mod_quotient(elements, "CTL", d)
