"""Irreducible seminormal representations indexed by d-partitions: matrices
for t_j, g_i, e_i over the rational-function field, evaluation of algebra
elements, quotient admissibility checks, and the representation-based
ideal-membership oracle.

Evaluation shares one accumulation, _entry_buckets. Each call that
evaluates x (rep_element, ideal_membership, passes_to_quotient) encodes it
once, for every shape it visits: the terms are grouped by permutation w,
and their coefficients become int rows (q-exponent, zeta_L power, int) over
one int denominator per RatFunc denominator, L the lcm of d and every
coefficient order (encode_element). t^a acts on the row of a tableau by a
root of unity, so the coefficients of one w fold into one scalar s per
(w, row), a character sum (character_sum, which psi_mu shares): each root
shifts the zeta_L powers of its rows, the ints are added, and each
denominator's sum is reduced mod Phi_L and decoded once. The encoding is
dropped when the call returns; nothing is memoised per element.
Each entry is then a sum of s * g over w, g the cached entry of g_w; the
products s.num * g.num are added in plain Laurent arithmetic, one sum per
product of denominators (exponent vectors of Phi_j, see scalars.RatFunc).
An entry with several such buckets is brought over their lcm by
over_one_denominator: rep_element normalises the sum once, and the zero
tests behind ideal_membership and passes_to_quotient add the numerators
and divide nothing (a single bucket is read off its numerator).

The matrices of g_w are filled once per (shape, w), from g_w' and g_i for
w = w' s_i: a column of g_i has at most two nonzero entries, so each entry
of the product is a sum of at most two products, normalised once.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .linalg import identity_matrix
from .permutations import ConsistencyError, Perm
from .scalars import (Laurent, RatFunc, int_rows, laurent_from_ints, multiply_dens,
                      over_one_denominator, root_of_unity, sum_of_products)
from .tableaux import (ctl_admissible, enumerate_d_partitions, ftl_admissible,
                       standard_tableaux)
from .yokonuma import ctl_generator, ftl_generator


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


def _quantum_content(d, tab, i):
    return RatFunc.q_power(tab.content_exponent(i), d)


# The entries of the cached matrices of g_i and g_w take few distinct values
# (54 among the 1,290 nonzero entries that the reps benchmark caches), so
# equal entries of one field share one object: `ytl verify -d 1 -n 7 --suite
# iso` peaks at 54 MB of resident memory instead of 102 MB.
_ENTRIES = {}


def _shared(x):
    """The first cached matrix entry equal to x over x's field. Equal values
    of one field have equal int coordinates, which hash faster than the
    value itself."""
    key = (x.order, x.den_exps, tuple((e, c.nums, c.den) for e, c in x.num.terms))
    return _ENTRIES.setdefault(key, x)


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
            c_i = _quantum_content(d, tab, i)
            c_next = _quantum_content(d, tab, i + 1)
            denom = (c_next - c_i).inv()
            out[col][col] = (q * c_next - c_next) * denom
            if swapped is not None:
                out[module.index[swapped]][col] = (q * c_next - c_i) * denom
    return tuple(tuple(_shared(x) for x in r) for r in out)


def rep_g(module, i):
    return [list(r) for r in rep_g_cached(module.d, module.shape, i)]


@lru_cache(maxsize=None)
def _rep_word_cached(d, shape, w):
    """Matrix of g_w (w given by its reduced word) on V_shape."""
    module = rep_module(d, shape)
    word = w.reduced_word()
    if not word:
        return tuple(tuple(r) for r in
                     identity_matrix(module.dim, RatFunc.zero(d), RatFunc.one(d)))
    left = _rep_word_cached(d, shape, Perm.from_word(w.n, word[:-1]))
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


def encode_terms(d, terms):
    """The terms [(tmon, c)] of one permutation in int coordinates, as
    (order, groups): order is the lcm of d and every coefficient order, and
    each RatFunc denominator of the coefficients (an exponent vector, ()
    for 1) has one group (den, common, rows), whose rows [(tmon, monomials)]
    carry their numerators as (q-exponent, zeta_order power, int) triples
    over the int denominator common (scalars.int_rows)."""
    order = lcm(d, *(c.order for _, c in terms))
    by_den = {}
    for tmon, c in terms:
        by_den.setdefault(c.den_exps, []).append((tmon, c.num))
    groups = []
    for den, rows in by_den.items():
        common, monos = int_rows([num for _, num in rows], order)
        groups.append((den, common, [(tmon, mono) for (tmon, _), mono in zip(rows, monos)]))
    return order, groups


def encode_element(x):
    """{w: encode_terms of the terms of x on g_w}, in order of first
    appearance."""
    by_w = {}
    for (tmon, w), c in x.terms:
        by_w.setdefault(w, []).append((tmon, c))
    return {w: encode_terms(x.d, terms) for w, terms in by_w.items()}


def character_sum(d, encoded, exps):
    """sum c * chi(t^a) over the encoded terms (a, c) (encode_terms), with
    chi(t^a) = zeta_d^(a . exps), as a RatFunc over the encoding's order.
    The root of unity of a row shifts its zeta powers by (a . exps mod d)
    order/d; the ints are added per denominator and decoded once."""
    order, groups = encoded
    step = order // d
    bucket = {}
    for den, common, rows in groups:
        by_e = {}
        for tmon, mono in rows:
            shift = sum(a * p for a, p in zip(tmon, exps)) % d * step
            for e, z, v in mono:
                coeffs = by_e.get(e)
                if coeffs is None:
                    coeffs = by_e[e] = [0] * order
                coeffs[(z + shift) % order] += v
        bucket[den] = laurent_from_ints(order, by_e, common)
    return _bucket_sum(bucket)


def _entry_buckets(module, encoded):
    """{(row, col): {den: num}}: the matrix of the element encoded as
    encode_element gives it, each entry kept as sum num / den over its
    buckets, each keyed by its denominator's exponent vector. A row scalar s
    of w meets the entry g of g_w in the bucket of the product of their
    denominators, whose numerator sums s.num * g.num. A zero s is skipped
    unless it lies in a larger field than Q(zeta_d): the entry keeps that
    field, as a sum of RatFuncs would."""
    d = module.d
    components = _row_components(d, module.shape)
    out = {}
    for w, terms in encoded.items():
        gmat = _rep_word_cached(d, module.shape, w)
        scalars = {}  # rows with the same components share their scalar
        for row, comps in enumerate(components):
            s = scalars.get(comps)
            if s is None:
                s = scalars[comps] = character_sum(d, terms, comps)
            if s.is_zero() and s.order == d:
                continue
            for col, g in enumerate(gmat[row]):
                if g.is_zero():
                    continue
                den = multiply_dens(s.den_exps, g.den_exps)
                bucket = out.setdefault((row, col), {})
                num = bucket.get(den)
                if num is None:
                    num = bucket[den] = {}
                for e1, c1 in s.num.terms:
                    for e2, c2 in g.num.terms:
                        e = e1 + e2
                        num[e] = num[e] + c1 * c2 if e in num else c1 * c2
    return {key: {den: _laurent(d, num) for den, num in bucket.items()}
            for key, bucket in out.items()}


def _laurent(d, terms):
    """The Laurent polynomial of {exponent: coefficient}, in the smallest
    field holding Q(zeta_d) and every coefficient (zeros included)."""
    return Laurent(lcm(d, *(c.order for c in terms.values())), terms)


def _bucket_sum(bucket):
    """sum num / den over the buckets {den: num}, normalised once over their
    least common denominator."""
    nums, den = over_one_denominator([(num, den) for den, num in bucket.items()])
    return RatFunc.over(sum(nums[1:], nums[0]), den)


def rep_element(module, x):
    """Matrix of a general algebra element: sum of coeff * t-part * g-part.
    Each entry is built once from its (denominator, numerator) buckets."""
    if x.d != module.d or x.n != module.n:
        raise ValueError("algebra parameter mismatch")
    out = _zero_matrix(module.dim, module.d)
    for (row, col), bucket in _entry_buckets(module, encode_element(x)).items():
        out[row][col] = _bucket_sum(bucket)
    return out


def _bucket_is_zero(bucket):
    """Whether sum num/den over the buckets vanishes. A single nonzero
    numerator decides it; several are brought over their least common
    denominator, and nothing is divided."""
    parts = [(num, den) for den, num in bucket.items() if not num.is_zero()]
    if len(parts) < 2:
        return not parts
    nums, _ = over_one_denominator(parts)
    return sum(nums[1:], nums[0]).is_zero()


def _annihilates(module, encoded):
    """Whether the element encoded by encode_element acts as zero on the
    module."""
    return all(_bucket_is_zero(b) for b in _entry_buckets(module, encoded).values())


def passes_to_quotient(d, shape, which):
    """Whether V_shape factors through the named quotient; computed both from
    the column-count predicate and from generator annihilation. Raises
    ConsistencyError when the two disagree."""
    n = sum(sum(comp) for comp in shape)
    if which == "FTL":
        combinatorial = ftl_admissible(shape)
        gen = ftl_generator if n >= 3 else None
    elif which == "CTL":
        combinatorial = ctl_admissible(shape)
        gen = ctl_generator if n >= 3 else None
    else:
        raise ValueError("which must be 'FTL' or 'CTL'")
    if gen is None:
        # the ideal is zero for n <= 2: every module passes
        annihilates = True
    else:
        annihilates = _annihilates(rep_module(d, shape), encode_element(gen(d, n)))
    if combinatorial != annihilates:
        raise ConsistencyError(
            "admissibility predicate disagrees with generator annihilation "
            "at shape %r (%s)" % (shape, which))
    return combinatorial


@lru_cache(maxsize=None)
def quotient_shapes(d, n, which):
    """The shapes whose modules pass to the named quotient, as a tuple."""
    if which == "FTL":
        keep = ftl_admissible
    elif which == "CTL":
        keep = ctl_admissible
    else:
        raise ValueError("which must be 'FTL' or 'CTL'")
    return tuple(s for s in enumerate_d_partitions(d, n) if keep(s))


def ideal_membership(x, which):
    """True iff x maps to zero in every irreducible that passes to the
    quotient; by semisimplicity this is membership in the defining ideal.
    x is encoded once for all the shapes."""
    encoded = encode_element(x)
    return all(_annihilates(rep_module(x.d, shape), encoded)
               for shape in quotient_shapes(x.d, x.n, which))

