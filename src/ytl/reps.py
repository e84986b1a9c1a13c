"""Irreducible seminormal representations indexed by d-partitions: matrices
for t_j, g_i, e_i over the rational-function field, evaluation of algebra
elements, quotient admissibility checks, and the representation-based
ideal-membership oracle.

t^a acts on the row of a tableau by a root of unity, so the terms of one
permutation w of x fold into one scalar per (w, row), a character sum
(yokonuma.character_sums, which psi_mu shares, read off the int encoding
that x keeps). Each entry of the matrix is then the sum over w of that
scalar times the entry of g_w, one sum_of_products: the products are
brought over their least common denominator, added, and normalised once,
and a zero test divides nothing.

The matrices of g_w are filled once per (shape, w), from g_w' and g_i for
w = w' s_i: a column of g_i has at most two nonzero entries, so each entry
of the product is a sum of at most two products, normalised once. The
entries of g_i invert content differences through scalars.q_gap_inverse, in
closed form; this module builds no canonical form of its own and reads none.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import identity_matrix
from .permutations import ConsistencyError, Perm
from .scalars import RatFunc, int_coords, q_gap_inverse, root_of_unity, sum_of_products
from .tableaux import (enumerate_d_partitions, quotient_admissible, standard_tableaux,
                       tl_factors)
from .yokonuma import character_sums, ctl_generator, ftl_generator

# the generator of each quotient's defining ideal
_GENERATORS = {"FTL": ftl_generator, "CTL": ctl_generator}


class RepModule:
    """The module V_lambda for a d-partition: basis = standard d-tableaux.
    Build it with rep_module, which keeps one instance per (d, shape)."""

    __slots__ = ("d", "shape", "basis", "index")

    def __init__(self, d, shape):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "basis", standard_tableaux(shape))
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.basis)})

    def __setattr__(self, *a):
        raise AttributeError("RepModule is immutable")

    def __reduce__(self):
        return rep_module, (self.d, self.shape)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def n(self):
        return self.basis[0].n if self.basis else 0


@lru_cache(maxsize=None)
def rep_module(d, shape):
    return RepModule(d, shape)


def _zero_matrix(dim, d):
    z = RatFunc.zero(d)
    return [[z for _ in range(dim)] for _ in range(dim)]


def rep_t(module, j):
    """Diagonal action: t_j scales v_T by the root of unity of T's component
    at entry j (component m acts by zeta_d^(m-1), so component 1 acts by 1)."""
    d = module.d
    out = _zero_matrix(module.dim, d)
    for col, tab in enumerate(module.basis):
        out[col][col] = RatFunc.from_scalar(root_of_unity(d, tab.position(j)), d)
    return out


def rep_e(module, i):
    """Diagonal projector: 1 where entries i and i+1 sit in the same
    component, 0 otherwise."""
    d = module.d
    out = _zero_matrix(module.dim, d)
    one = RatFunc.one(d)
    for col, tab in enumerate(module.basis):
        if tab.position(i) == tab.position(i + 1):
            out[col][col] = one
    return out


# The entries of the cached matrices of g_i and g_w take few distinct values
# (54 among the 1,290 nonzero entries that the reps benchmark caches), so
# equal entries of one field share one object: `ytl verify -d 1 -n 7 --suite
# iso` peaks at 54 MB of resident memory instead of 102 MB.
_ENTRIES = {}


def _shared(x):
    """The first cached matrix entry equal to x over x's field, keyed by its
    int coordinates."""
    return _ENTRIES.setdefault(int_coords(x), x)


@lru_cache(maxsize=None)
def rep_g_cached(d, shape, i):
    module = rep_module(d, shape)
    q = RatFunc.q(d)
    out = _zero_matrix(module.dim, d)
    for col, tab in enumerate(module.basis):
        p_i, p_next = tab.position(i), tab.position(i + 1)
        swapped = tab.apply_transposition(i)
        if p_i != p_next:
            # swapping entries across components always stays standard
            row = module.index[swapped]
            out[row][col] = RatFunc.one(d) if p_i > p_next else q
        else:
            a, b = tab.content_exponent(i), tab.content_exponent(i + 1)
            c_i, c_next = RatFunc.q_power(a, d), RatFunc.q_power(b, d)
            denom = q_gap_inverse(d, a, b)
            out[col][col] = (q * c_next - c_next) * denom
            if swapped is not None:
                out[module.index[swapped]][col] = (q * c_next - c_i) * denom
    return tuple(tuple(_shared(x) for x in r) for r in out)


def rep_g(module, i):
    return [list(r) for r in rep_g_cached(module.d, module.shape, i)]


@lru_cache(maxsize=None)
def _rep_word_cached(d, shape, w):
    """Matrix of g_w on V_shape: g_{w s_i} g_i, i the last letter of w's reduced word."""
    module = rep_module(d, shape)
    word = w.reduced_word()
    if not word:
        return tuple(tuple(r) for r in
                     identity_matrix(module.dim, RatFunc.zero(d), RatFunc.one(d)))
    left = _rep_word_cached(d, shape, w * Perm.transposition(w.n, word[-1]))
    right = rep_g_cached(d, shape, word[-1])
    # a column of g_i has at most two nonzero entries, so each column of the
    # product combines at most two columns of g_w', normalised once per entry
    cols = [[(k, row[c]) for k, row in enumerate(right) if not row[c].is_zero()]
            for c in range(module.dim)]
    zero = RatFunc.zero(d)
    return tuple(tuple(_shared(sum_of_products([(row[k], g) for k, g in col], zero))
                       for col in cols) for row in left)


@lru_cache(maxsize=None)
def _row_components(d, shape):
    """Per basis tableau, the component index minus one of entries 1..n:
    t^a acts on that row by zeta_d^(a . components)."""
    return tuple(tuple(tab.position(j) - 1 for j in range(1, tab.n + 1))
                 for tab in rep_module(d, shape).basis)


def _entries(module, x):
    """{(row, col): [(s, g)]}: the pairs whose products sum to each entry of
    the matrix of x, one per permutation w with both factors nonzero. g is
    the entry of g_w, and s the row scalar of w, the character sum of w's
    terms at the row's components (rows with the same components share
    it)."""
    d = module.d
    components = _row_components(d, module.shape)
    out = {}
    for w, sums in character_sums(x, components).items():
        gmat = _rep_word_cached(d, module.shape, w)
        for row, comps in enumerate(components):
            s = sums[comps]
            if s.is_zero():
                continue
            for col, g in enumerate(gmat[row]):
                if not g.is_zero():
                    out.setdefault((row, col), []).append((s, g))
    return out


def rep_element(module, x):
    """Matrix of a general algebra element: sum of coeff * t-part * g-part.
    Each entry is one sum_of_products."""
    if x.d != module.d or x.n != module.n:
        raise ValueError("algebra parameter mismatch")
    out = _zero_matrix(module.dim, module.d)
    for (row, col), pairs in _entries(module, x).items():
        out[row][col] = sum_of_products(pairs, out[row][col])
    return out


def _annihilates(module, x):
    """Whether x acts as zero on the module."""
    zero = RatFunc.zero(module.d)
    return all(sum_of_products(pairs, zero).is_zero()
               for pairs in _entries(module, x).values())


def passes_to_quotient(d, shape, which):
    """Whether V_shape factors through the named quotient; computed both from
    the column-count predicate and from generator annihilation. Raises
    ConsistencyError when the two disagree."""
    n = sum(sum(comp) for comp in shape)
    combinatorial = quotient_admissible(shape, tl_factors(which, d))
    if n <= 2:
        # the ideal is zero for n <= 2: every module passes
        annihilates = True
    else:
        annihilates = _annihilates(rep_module(d, shape), _GENERATORS[which](d, n))
    if combinatorial != annihilates:
        raise ConsistencyError(
            "admissibility predicate disagrees with generator annihilation "
            "at shape %r (%s)" % (shape, which))
    return combinatorial


@lru_cache(maxsize=None)
def quotient_shapes(d, n, which):
    """The shapes whose modules pass to the named quotient, as a tuple."""
    r = tl_factors(which, d)
    return tuple(s for s in enumerate_d_partitions(d, n) if quotient_admissible(s, r))


def ideal_membership(x, which):
    """True iff x maps to zero in every irreducible that passes to the
    quotient; by semisimplicity this is membership in the defining ideal."""
    return all(_annihilates(rep_module(x.d, shape), x)
               for shape in quotient_shapes(x.d, x.n, which))

