"""Irreducible seminormal representations indexed by d-partitions: matrices
for t_j, g_i, e_i over the rational-function field, evaluation of algebra
elements, quotient admissibility checks, and the representation-based
ideal-membership oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import identity_matrix, mat_mul
from .permutations import ConsistencyError
from .scalars import Cyclotomic, RatFunc, root_of_unity
from .tableaux import (ctl_admissible, enumerate_d_partitions, ftl_admissible,
                       standard_tableaux)
from .yokonuma import ctl_generator, ftl_generator


class RepModule:
    """The module V_lambda for a d-partition: basis = standard d-tableaux."""

    __slots__ = ("d", "shape", "basis", "index")

    def __init__(self, d, shape):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "basis", standard_tableaux(shape))
        object.__setattr__(self, "index", {t: i for i, t in enumerate(self.basis)})

    def __setattr__(self, *a):
        raise AttributeError("RepModule is immutable")

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
    return tuple(tuple(r) for r in out)


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
    from .permutations import Perm
    prefix = Perm.from_word(w.n, word[:-1])
    left = _rep_word_cached(d, shape, prefix)
    right = rep_g_cached(d, shape, word[-1])
    prod = mat_mul([list(r) for r in left], [list(r) for r in right],
                   RatFunc.zero(d))
    return tuple(tuple(r) for r in prod)


def rep_element(module, x):
    """Matrix of a general algebra element: sum of coeff * t-part * g-part."""
    d = module.d
    if x.d != d or x.n != module.n:
        raise ValueError("algebra parameter mismatch")
    dim = module.dim
    out = _zero_matrix(dim, d)
    for (tmon, w), c in x.terms:
        gmat = _rep_word_cached(d, module.shape, w)
        # t^tmon is diagonal: scale row of the output by the root at the
        # row's tableau (t acts after g in the product t^a g_w)
        for row in range(dim):
            tab = module.basis[row]
            phase = sum(tmon[j - 1] * (tab.position(j) - 1) for j in range(1, module.n + 1))
            scale = c * RatFunc.from_scalar(Cyclotomic.root_power(d, phase % d), d)
            grow = gmat[row]
            orow = out[row]
            for col in range(dim):
                if not grow[col].is_zero():
                    orow[col] = orow[col] + scale * grow[col]
    return out


def is_zero_matrix(mat):
    return all(entry.is_zero() for row in mat for entry in row)


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
        module = rep_module(d, shape)
        annihilates = is_zero_matrix(rep_element(module, gen(d, n)))
    if combinatorial != annihilates:
        raise ConsistencyError(
            "admissibility predicate disagrees with generator annihilation "
            "at shape %r (%s)" % (shape, which))
    return combinatorial


def quotient_shapes(d, n, which):
    if which == "FTL":
        keep = ftl_admissible
    elif which == "CTL":
        keep = ctl_admissible
    else:
        raise ValueError("which must be 'FTL' or 'CTL'")
    return [s for s in enumerate_d_partitions(d, n) if keep(s)]


def ideal_membership(x, which):
    """True iff x maps to zero in every irreducible that passes to the
    quotient; by semisimplicity this is membership in the defining ideal."""
    for shape in quotient_shapes(x.d, x.n, which):
        if not is_zero_matrix(rep_element(rep_module(x.d, shape), x)):
            return False
    return True


def element_is_zero(x):
    """Faithfulness oracle: x = 0 iff all irreducibles kill it. (Terms are
    canonical, so this is also just x.is_zero(); kept as a cross-check.)"""
    for shape in enumerate_d_partitions(x.d, x.n):
        if not is_zero_matrix(rep_element(rep_module(x.d, shape), x)):
            return False
    return True
