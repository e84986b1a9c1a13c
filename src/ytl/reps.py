"""Irreducible seminormal representations indexed by d-partitions: the
matrix of an algebra element over the rational-function field, and so of
t_j, g_i and e_i, quotient admissibility checks, and the
representation-based ideal-membership oracle.

t^a acts on the row of a tableau by a root of unity, so the terms of one
permutation w of x fold into one scalar per (w, row), a character sum
(yokonuma.character_sums, which psi_mu shares). Each entry of the matrix of
x is the sum over w of that scalar times the entry of g_w.

The matrices of g_w are int rows (yokonuma.seminormal_step), each entry a
packed int polynomial over one denominator per word, filled once per
(shape, w) from g_w' and g_i for w = w' s_i. A column of g_i is (alpha v_c
+ beta v_c2) / [k], alpha and beta int polynomials and [k] the q-integer of
a content difference (_g_columns), so each entry of the product is at most
two int products and one exact int division. An entry of the matrix of x
is then a sum of int products (yokonuma.seminormal_image): the zero test
reads the ints and stops at the first nonzero row, and rep_element decodes
each nonzero entry once into its canonical RatFunc. rep_t, rep_g and rep_e
are the matrices of gen_t, gen_g and e by that one evaluation (_image);
this module builds no canonical form of its own and reads none.
"""

from __future__ import annotations

from functools import lru_cache

from .permutations import ConsistencyError, Perm
from .tableaux import (enumerate_d_partitions, quotient_admissible, standard_tableaux,
                       tl_factors)
from .yokonuma import (NarrowWidth, YElement, ctl_generator, e, ftl_generator, gen_g, gen_t,
                       seminormal_image, seminormal_step, seminormal_unit)

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


# the narrowest packing of the word matrices, in bits per power of q: a word
# matrix or an image that needs more is packed again at twice the width
FIRST_WIDTH = 64


def check_shape(shape, d, n=None):
    """shape as a tuple of tuples when it is a d-partition (of n, when n is
    given): d sequences of positive non-increasing ints. Otherwise a
    ValueError, whose message the CLI prints as it stands."""
    if not isinstance(shape, (list, tuple)) or not all(isinstance(c, (list, tuple))
                                                       for c in shape):
        raise ValueError("shape must be a list of %d lists" % d)
    for comp in shape:
        if not all(type(p) is int and p > 0 for p in comp):
            raise ValueError("parts must be positive integers: %r" % (comp,))
        if any(a < b for a, b in zip(comp, comp[1:])):
            raise ValueError("parts must be non-increasing: %r" % (comp,))
    if len(shape) != d:
        raise ValueError("shape must have %d components" % d)
    if n is not None and sum(sum(c) for c in shape) != n:
        raise ValueError("shape must have %d nodes" % n)
    return tuple(tuple(c) for c in shape)


def rep_module(d, shape):
    """The module of a d-partition (check_shape), one instance per (d, shape)."""
    return _rep_module(d, check_shape(shape, d))


@lru_cache(maxsize=None)
def _rep_module(d, shape):
    return RepModule(d, shape)


def rep_t(module, j):
    """The matrix of t_j: v_T times zeta_d^(m-1), m T's component at j."""
    return rep_element(module, gen_t(module.d, module.n, j))


def rep_e(module, i):
    """The matrix of e_i: the projector onto the v_T with i, i+1 in one component."""
    return rep_element(module, e(module.d, module.n, i))


@lru_cache(maxsize=None)
def _g_columns(d, shape, i):
    """Column c of g_i on V_shape as (alpha, c2, beta, k): g_i v_c = (alpha
    v_c + beta v_c2) / [k], c2 the index of s_i T (None where i and i + 1
    share a row or a column), alpha and beta int polynomials in q
    (coefficients, constant first), [k] = 1 + q + ... + q^(k-1). With q^a
    and q^b the contents of i and i + 1 in one component and k = |b - a|,
    g_i v_T = (q - 1) q^b / (q^b - q^a) v_T + (q^(b+1) - q^a) / (q^b - q^a)
    v_{s_i T}: q^k / [k] and [k + 1] / [k] for b > a, -1 / [k] and q [k - 1]
    / [k] for b < a. Across components g_i sends v_T to v_{s_i T}, times q
    when i lies in the earlier component."""
    module = _rep_module(d, shape)
    out = []
    for tab in module.basis:
        swapped = tab.apply_transposition(i)
        c2 = None if swapped is None else module.index[swapped]
        p_i, p_next = tab.position(i), tab.position(i + 1)
        gap = tab.content_exponent(i + 1) - tab.content_exponent(i)
        if p_i != p_next:
            out.append(((), c2, (1,) if p_i > p_next else (0, 1), 1))
        elif gap > 0:
            out.append(((0,) * gap + (1,), c2, (1,) * (gap + 1), gap))
        else:
            out.append(((-1,), c2, (0,) + (1,) * (-gap - 1), -gap))
    return tuple(out)


@lru_cache(maxsize=None)
def rep_g_cached(d, shape, i):
    """The matrix of g_i on V_shape, kept per (d, shape, i)."""
    module = _rep_module(d, shape)
    return tuple(map(tuple, rep_element(module, gen_g(d, module.n, i))))


def rep_g(module, i):
    """The matrix of g_i (its columns: _g_columns)."""
    return [list(r) for r in rep_g_cached(module.d, module.shape, i)]


@lru_cache(maxsize=None)
def _rep_word_cached(d, shape, w, width):
    """The int rows of g_w on V_shape packed at width (see
    yokonuma.seminormal_step): g_w' g_i, i the last letter of w's reduced
    word."""
    word = w.reduced_word()
    if not word:
        return seminormal_unit(_rep_module(d, shape).dim)
    left = _rep_word_cached(d, shape, w * Perm.transposition(w.n, word[-1]), width)
    return seminormal_step(left, _g_columns(d, shape, word[-1]), width)


@lru_cache(maxsize=None)
def _row_components(d, shape):
    """Per basis tableau, the component index minus one of entries 1..n:
    t^a acts on that row by zeta_d^(a . components)."""
    return tuple(tuple(tab.position(j) - 1 for j in range(1, tab.n + 1))
                 for tab in _rep_module(d, shape).basis)


def _image(module, x, zero_test):
    """yokonuma.seminormal_image of x on the module, packed at FIRST_WIDTH
    bits per power of q and at twice the width as often as that is too
    narrow."""
    if not isinstance(x, YElement):
        raise TypeError("expected YElement, not %s" % type(x).__name__)
    if x.d != module.d or x.n != module.n:
        raise ValueError("algebra parameter mismatch")
    d, shape = module.d, module.shape
    width = FIRST_WIDTH
    while True:
        try:
            return seminormal_image(x, _row_components(d, shape),
                                    lambda w: _rep_word_cached(d, shape, w, width), width,
                                    zero_test)
        except NarrowWidth:
            width *= 2


def rep_element(module, x):
    """Matrix of a general algebra element: sum of coeff * t-part * g-part."""
    return _image(module, x, False)


def _annihilates(module, x):
    """Whether x acts as zero on the module."""
    return _image(module, x, True)


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
    if not isinstance(x, YElement):
        raise TypeError("expected YElement, not %s" % type(x).__name__)
    return all(_annihilates(_rep_module(x.d, shape), x)
               for shape in quotient_shapes(x.d, x.n, which))

