"""Constructive isomorphisms between the framed Hecke algebra and direct
sums of matrix algebras: the block maps psi_mu/phi_mu onto matrices over
Hecke algebras, the Temperley-Lieb reduction rho_reduce in the Jones basis,
the induced quotient isomorphisms ftl_psi/ftl_phi and ctl_psi/ctl_phi, and
the explicit quotient bases.

Both quotients are one construction: a block entry lies in a tensor product
of d factors over the parts of mu, the first r of them Temperley-Lieb and
the others Hecke algebras, with r = tableaux.tl_factors(which, d) (d for
FTL, 1 for CTL). Its coordinate keys are flat tuples (b_1, ..., b_r,
w_{r+1}, ..., w_d) of Jones pairs and local permutations: the factors of a
permutation of S_mu (permutations.factor_in_young, inverse join_young).

Matrix blocks are indexed by compositions mu. Row and column k of a block
pair pi_k with chi_k = pi_k . chi_mu, entry k - 1 of permutations.coset_system
and block_characters. Entries of psi images are Hecke elements, stored as
d=1 YElements supported inside the Young subgroup.

The block maps work in the character coordinates of an element,
x = sum c_{w,chi} E_chi g_w with c_{w,chi} = sum_a x[t^a g_w] chi(t^a). In
these coordinates psi is a relabelling: the coordinate of (w, k-th
character of mu) lands in cell (k, l) of the block of mu as q^s G_u, with
u = pi_k^-1 w pi_l. psi_mu sums the coordinates of the m characters of its
block directly (yokonuma.character_sums, off the int encoding the element
keeps), and psi_n and the quotient maps read psi_mu block by block. phi
gathers the terms q^s c E_chi g_v of all its blocks into one element, each
as q^s c t^exps g_v for the exponent vector exps of chi, and hands it to
yokonuma.from_characters, which runs the inverse transform over (Z/d)^n
once, on packed ints.

The Temperley-Lieb reduction acts by g_k on Jones coordinates, with Perm and
RatFunc alone: the Jones basis of TL_m is G_w for w fully commutative, and
any other G_w is G_{w s_k} g_k with w s_k shorter or, when every braid ends w,
-G_x (the five lower terms of g_{i,i+1}) with x shorter. No algebra product.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .permutations import (Composition, ConsistencyError, Perm, act_on_character, all_perms,
                           block_characters, compositions, coset_system, factor_in_young,
                           join_young)
from .scalars import RatFunc, as_ratfunc
from .tableaux import jones_pairs, jones_permutation, tl_factors
from .yokonuma import YElement, character_sums, from_characters


def _acc_term(acc, key, c):
    """Add c to acc[key], dropping the key when the sum is zero."""
    if key in acc:
        c = acc[key] + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


# ---------------------------------------------------------------------------
# Hecke elements (d=1 YElements) and matrices of them


def hecke_term(n, w, coeff, order=1):
    return YElement(1, n, {((0,) * n, w): as_ratfunc(coeff, order)})


def hecke_unit(n, order=1):
    return hecke_term(n, Perm.identity(n), RatFunc.one(order))


# ---------------------------------------------------------------------------
# psi_mu and phi_mu


@lru_cache(maxsize=None)
def _psi_step(mu, k, w):
    """(l, u, s): the coordinate of (w, k-th character) lands in cell (k, l)
    as q^s G_u, u = pi_k^-1 w pi_l in the Young subgroup, with the diagonal
    rescaling by pi_k and pi_l applied. The character index l is the one
    w^-1 sends the k-th character to. The length sum h is even, as l(x) has
    the parity of sign(x) and sign(u) = sign(pi_k) sign(w) sign(pi_l)."""
    reps, chars = coset_system(mu), block_characters(mu)
    l = chars.index(act_on_character(w.inv(), chars[k - 1])) + 1
    pi_k, pi_l = reps[k - 1], reps[l - 1]
    u = pi_k.inv() * w * pi_l
    h = w.length() - u.length() + pi_k.length() - pi_l.length()
    return l, u, h // 2


def psi_mu(mu, x):
    """The block image of x (implicitly of E_mu * x): an m x m matrix of
    Hecke elements supported in the Young subgroup, read off the character
    sums of x for the m characters of the block. Every power of q it
    carries is an integer (see _psi_step). For fixed (k, l) the map w -> u
    is injective, so each cell is built once from its list of terms."""
    if x.d != mu.d or x.n != mu.n:
        raise ValueError("algebra parameter mismatch")
    n, chars = mu.n, block_characters(mu)
    m, ident = len(chars), (0,) * n
    cells = [[[] for _ in range(m)] for _ in range(m)]
    for w, sums in character_sums(x, chars).items():
        for k, exps in enumerate(chars, 1):
            c = sums[exps]
            if not c.is_zero():
                l, u, s = _psi_step(mu, k, w)
                cells[k - 1][l - 1].append(((ident, u), c.times_monomial(1, s)))
    return [[YElement._trusted(1, n, cell) for cell in row] for row in cells]


@lru_cache(maxsize=None)
def _phi_step(mu, k, l, w):
    """(v, s): the term q^s E_chi_k g_v that G_w in cell (k, l) maps to,
    v = pi_k w pi_l^-1, undoing the diagonal rescaling. The length sum h is
    even, as sign(v) = sign(pi_k) sign(w) sign(pi_l) (see _psi_step); w
    outside S_mu is a ValueError."""
    factor_in_young(mu, w)
    reps = coset_system(mu)
    pi_k, pi_l = reps[k - 1], reps[l - 1]
    v = pi_k * w * pi_l.inv()
    h = w.length() - v.length() + pi_l.length() - pi_k.length()
    return v, h // 2


def _phi_blocks(blocks, which=None):
    """phi of a block family: each nonzero term c G_w of cell (k, l) of the
    block of mu is q^s c E_chi_k g_v (_phi_step), the term q^s c t^exps g_v
    of one element, exps the exponent vector of chi_k, all transformed back
    at once (yokonuma.from_characters). A cell is a Hecke element, or for which
    'FTL'/'CTL' quotient coordinates {key: c}, w = quotient_coord_perm(mu,
    key, r). An empty family, compositions of two (d, n), a block not m x
    m, or a cell of the wrong kind, d or degree is a ValueError."""
    if not blocks:
        raise ValueError("an empty block family has no (d, n)")
    d, n = next((mu.d, mu.n) for mu in blocks)
    terms = []
    for mu, block in blocks.items():
        if (mu.d, mu.n) != (d, n):
            raise ValueError("mu = %s in a family at (d, n) = (%d, %d)" % (mu.parts, d, n))
        chars = block_characters(mu)
        m = len(chars)
        if len(block) != m or any(len(row) != m for row in block):
            raise ValueError("the block of mu = %s must be %d x %d, not %d rows of lengths %s"
                             % (mu.parts, m, m, len(block), [len(row) for row in block]))
        r = which and tl_factors(which, mu.d)
        for k, row in enumerate(block, 1):
            for l, cell in enumerate(row, 1):
                if not (isinstance(cell, dict) if which else isinstance(cell, YElement)
                        and (cell.d, cell.n) == (1, n)):
                    raise ValueError("cell (%d, %d) of the block of mu = %s is not %s" % (
                        k, l, mu.parts, "a dict of quotient coordinates" if which
                        else "a Hecke element of degree %d" % n))
                for key, c in (cell.items() if which else cell.terms):
                    w = quotient_coord_perm(mu, key, r) if which else key[1]
                    v, s = _phi_step(mu, k, l, w)
                    c = as_ratfunc(c, d)
                    if c.terms:
                        terms.append(((chars[k - 1], v), c.times_monomial(1, s)))
    # the keys are distinct: for fixed k, (l, w) -> v is injective
    return from_characters(YElement._trusted(d, n, terms))


def phi_mu(mu, matrix):
    """Inverse block map: matrix of Hecke elements (support in the Young
    subgroup) to a YElement. The q-power on each term uses the length of
    pi_k w pi_l^{-1}, the permutation appearing in the image."""
    return _phi_blocks({mu: matrix})


def psi_n(x):
    """Blockwise image over all compositions: {mu: matrix}."""
    return {mu: psi_mu(mu, x) for mu in compositions(x.d, x.n)}


def phi_n(blocks):
    return _phi_blocks(blocks)


# ---------------------------------------------------------------------------
# Temperley-Lieb reduction in the Jones basis, by the action of g_k


@lru_cache(maxsize=None)
def _jones_index(m):
    """The Jones basis of TL_m as one two-way table (a Perm never equals a
    JonesPair): {fully commutative permutation: its Jones pair}, and back."""
    perms = {jones_permutation(m, p): p for p in jones_pairs(m, "TL")}
    return {**perms, **{p: v for v, p in perms.items()}}


def _times_g(m, coords, k):
    """Jones coordinates times g_k, as dict items: a fully commutative G_u goes
    to q G_{u s_k} + (q - 1) G_u when k is a right descent of u, and to the
    reduction of G_{u s_k} otherwise."""
    table, s_k, out = _jones_index(m), Perm.transposition(m, k), {}
    for pair, c in coords:
        u = table[pair]
        if u.descends_right(k):
            qc = c.times_monomial(1, 1)
            _acc_term(out, table[u * s_k], qc)
            _acc_term(out, pair, qc - c)
        else:
            for pz, cz in _rho_perm(m, u * s_k):
                _acc_term(out, pz, c * cz)
    return out.items()


@lru_cache(maxsize=None)
def _rho_perm(m, w):
    """Jones coordinates of G_w in TL_m (cached), sorted by pair: w itself if
    fully commutative, else rho(G_{w s_k}) g_k for a right descent k with w s_k
    not fully commutative. Without one, every braid ends w, so i and i + 1 are
    right descents, and as g_{i,i+1} lies in the ideal, G_w is congruent to
    -G_x (1 + g_i + g_{i+1} + g_i g_{i+1} + g_{i+1} g_i), x = w s_i s_{i+1} s_i.
    Every G_u met is shorter than G_w, so the recursion ends."""
    table = _jones_index(m)
    if w in table:
        return ((table[w], RatFunc.one(1)),)
    descents = [k for k in range(1, m) if w.descends_right(k)]
    k = next((k for k in descents if w * Perm.transposition(m, k) not in table), None)
    if k is not None:
        coords = _times_g(m, _rho_perm(m, w * Perm.transposition(m, k)), k)
    else:
        i = next((i for i in descents if i + 1 in descents), None)
        if i is None:
            raise ConsistencyError("fully commutative %r has no Jones pair" % (w,))
        x = _rho_perm(m, w * Perm.from_word(m, (i, i + 1, i)))
        gi, gj, out = _times_g(m, x, i), _times_g(m, x, i + 1), {}
        for part in (x, gi, gj, _times_g(m, gi, i + 1), _times_g(m, gj, i)):
            for pair, c in part:
                _acc_term(out, pair, -c)
        coords = out.items()
    return tuple(sorted(coords, key=lambda kv: (kv[0].i, kv[0].k)))


def rho_reduce(h, m=None):
    """Image of a Hecke element in the Temperley-Lieb quotient, as Jones
    coordinates {JonesPair: coeff}: quotient_entry for the one-part
    composition (m,), m = h.n by default, with its one factor reduced."""
    entry = quotient_entry(Composition((h.n if m is None else m,)), h, 1)
    return {key[0]: c for key, c in entry.items()}


# ---------------------------------------------------------------------------
# quotient isomorphisms


def quotient_entry(mu, hecke, r):
    """Coordinates of one matrix entry in the tensor product of the first r
    factors reduced to Temperley-Lieb and the rest kept Hecke:
    {(b_1..b_r, w_{r+1}..w_d): coeff}, the outer product of the Jones
    coordinates of the first r local permutations with the others
    appended. An entry not of d = 1 and degree mu.n is a ValueError."""
    if hecke.d != 1 or hecke.n != mu.n:
        raise ValueError("an entry for mu = %s must be a Hecke element of degree %d, not "
                         "d = %d, n = %d" % (mu.parts, mu.n, hecke.d, hecke.n))
    out = {}
    for (_, w), c in hecke.terms:
        locals_ = factor_in_young(mu, w)
        rest = tuple(locals_[r:])
        acc = {(): c}
        for part, wloc in zip(mu.parts[:r], locals_):
            nxt = {}
            for key, cv in acc.items():
                for pair, pc in _rho_perm(part, wloc):
                    _acc_term(nxt, key + (pair,), cv * pc)
            acc = nxt
        for key, v in acc.items():
            _acc_term(out, key + rest, v)
    return out


def _quotient_psi(x, which):
    r = tl_factors(which, x.d)
    # zero blocks are kept too, so every family has the same shape
    return {mu: [[quotient_entry(mu, e, r) for e in row] for row in psi_mu(mu, x)]
            for mu in compositions(x.d, x.n)}


def ftl_psi(x):
    """Canonical form of x in the framed Temperley-Lieb quotient."""
    return _quotient_psi(x, "FTL")


def ctl_psi(x):
    return _quotient_psi(x, "CTL")


@lru_cache(maxsize=None)
def quotient_coord_perm(mu, key, r):
    """The permutation whose Hecke basis element has the given coordinates:
    the Jones permutations of the first r joined with the others (join_young).
    A key other than a Temperley-Lieb Jones pair for each of the first r
    parts of mu and a permutation for each other part is a ValueError."""
    tl = [_jones_index(part).get(pair) for part, pair in zip(mu.parts[:r], key)]
    if len(key) != mu.d or not all(isinstance(v, Perm) for v in tl):
        raise ValueError("%r is not a key for mu = %s: a Temperley-Lieb Jones pair for each of "
                         "its first %d parts, a permutation for each other" % (key, mu.parts, r))
    return join_young(mu, tl + list(key[r:]))


def ftl_phi(blocks):
    """A preimage in the algebra whose ftl_psi image is the given block
    family (well-defined modulo the defining ideal)."""
    return _phi_blocks(blocks, "FTL")


def ctl_phi(blocks):
    return _phi_blocks(blocks, "CTL")


def blocks_equal(a, b):
    """Equality of block families; a block missing on one side is zero."""
    for mu in set(a) | set(b):
        ba, bb = a.get(mu), b.get(mu)
        if ba is None or bb is None:
            if any(cell for row in (bb if ba is None else ba) for cell in row):
                return False
        elif ba != bb:
            return False
    return True


def nonzero_block(a):
    """The first mu whose block in the family a has a nonzero cell, or
    None."""
    return next((mu for mu, block in a.items() if any(cell for row in block for cell in row)),
                None)


# ---------------------------------------------------------------------------
# quotient bases


def _quotient_basis(d, n, which):
    """Basis descriptors of the named quotient: one block family per (mu,
    coordinate key, k, l), the key running over the Jones pairs of the first
    r parts of mu and the permutations of the others."""
    r = tl_factors(which, d)
    out = []
    for mu in compositions(d, n):
        cells = list(itertools.product(range(1, len(coset_system(mu)) + 1), repeat=2))
        factors = [jones_pairs(p, "TL") if i < r else all_perms(p)
                   for i, p in enumerate(mu.parts)]
        for key in itertools.product(*factors):
            out.extend((mu, key, k, l) for k, l in cells)
    return out


def ftl_basis(d, n):
    """Basis descriptors of the framed Temperley-Lieb quotient."""
    return _quotient_basis(d, n, "FTL")


def ctl_basis(d, n):
    return _quotient_basis(d, n, "CTL")


def basis_blocks(descriptor, kind):
    """The DirectSumElement (block family) of one basis descriptor; the
    layout is the same for kind 'FTL' and 'CTL'."""
    mu, key, k, l = descriptor
    m = len(coset_system(mu))
    block = [[{} for _ in range(m)] for _ in range(m)]
    block[k - 1][l - 1] = {key: RatFunc.one(mu.d)}
    return {mu: block}


def basis_element(descriptor, kind):
    """The algebra-side representative of one basis descriptor."""
    return _phi_blocks(basis_blocks(descriptor, kind), kind)
