"""Reference oracles for the tests: slow, independent computations that the
library's fast paths are checked against. Nothing in the library imports
this module.

- rho_bruteforce: Temperley-Lieb reduction by solving a square linear system
  [Jones columns | ideal-span row basis], against the straightening rho_reduce
- independent_mod_quotient: linear independence of quotient basis elements,
  by the rank of their seminormal images with q specialised to a rational
- conjugate_shift: conjugation by powers of g_1 g_2 ... g_{n-1}
- is_zero_matrix
- Field, row_echelon, matrix_rank, invert_matrix: Gaussian elimination over
  any field, used by the first two
"""

from __future__ import annotations

from functools import lru_cache

from ytl.isomaps import hecke_term
from ytl.linalg import identity_matrix
from ytl.permutations import all_perms
from ytl.reps import quotient_shapes, rep_element, rep_module
from ytl.scalars import Cyclotomic, RatFunc, specialize_q
from ytl.tableaux import jones_pairs, jones_permutation
from ytl.yokonuma import _acc_term, g_block, gen_g, gen_g_inv, unit


# ---------------------------------------------------------------------------
# dense Gaussian elimination


class Field:
    """Arithmetic hooks for Gaussian elimination."""

    def __init__(self, zero, one, is_zero=None):
        self.zero = zero
        self.one = one
        self.is_zero = is_zero if is_zero is not None else (lambda x: x == zero)


def row_echelon(matrix, field, augment=None):
    """In-place fraction-free-ish elimination (true division); returns
    (rank, pivot_columns). `augment` rows are carried along if given."""
    m = [list(row) for row in matrix]
    aug = [list(row) for row in augment] if augment is not None else None
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    pivots = []
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if not field.is_zero(m[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        if aug is not None:
            aug[rank], aug[pivot] = aug[pivot], aug[rank]
        inv = m[rank][col].inv() if hasattr(m[rank][col], "inv") else field.one / m[rank][col]
        m[rank] = [inv * x for x in m[rank]]
        if aug is not None:
            aug[rank] = [inv * x for x in aug[rank]]
        for r in range(rows):
            if r == rank or field.is_zero(m[r][col]):
                continue
            factor = m[r][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
            if aug is not None:
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return m, aug, rank, pivots


def matrix_rank(matrix, field):
    if not matrix:
        return 0
    _, _, rank, _ = row_echelon(matrix, field)
    return rank


def invert_matrix(matrix, field):
    """Inverse of a square matrix, or None if singular."""
    n = len(matrix)
    ident = identity_matrix(n, field.zero, field.one)
    reduced, aug, rank, pivots = row_echelon(matrix, field, augment=ident)
    if rank < n:
        return None
    return aug


def is_zero_matrix(mat):
    return all(entry.is_zero() for row in mat for entry in row)


# ---------------------------------------------------------------------------
# Temperley-Lieb reduction by a linear solve


class SingularReduction(Exception):
    """The Jones-basis linear system was singular (should never happen)."""


def _flat_hecke(x, index):
    vec = [RatFunc.zero(1)] * len(index)
    for (_, w), c in x.terms:
        vec[index[w]] = c
    return vec


@lru_cache(maxsize=None)
def _bruteforce_solver(m):
    """Square system [Jones columns | ideal-span row basis] inverted once:
    coordinates modulo the ideal read off the first Catalan-many rows."""
    field = Field(RatFunc.zero(1), RatFunc.one(1), is_zero=lambda x: x.is_zero())
    perms = all_perms(m)
    index = {w: i for i, w in enumerate(perms)}
    gen = g_block(1, m, 1)
    ideal_rows = []
    for x in perms:
        left = hecke_term(m, x, RatFunc.one(1)) * gen
        for y in perms:
            ideal_rows.append(_flat_hecke(
                left * hecke_term(m, y, RatFunc.one(1)), index))
    reduced, _, rank, _ = row_echelon(ideal_rows, field)
    ideal_basis = reduced[:rank]
    pairs = jones_pairs(m, "TL")
    if rank + len(pairs) != len(perms):
        raise SingularReduction("ideal rank + Catalan != m! at m=%d" % m)
    basis_vecs = [_flat_hecke(hecke_term(m, jones_permutation(m, p), RatFunc.one(1)),
                              index) for p in pairs]
    cols = basis_vecs + ideal_basis
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(len(perms))]
    inverse = invert_matrix(matrix, field)
    if inverse is None:
        raise SingularReduction("Jones basis not independent mod ideal at m=%d" % m)
    return pairs, index, tuple(tuple(r) for r in inverse)


def rho_bruteforce(h, m):
    """Oracle: reduce h modulo the span of {G_x * G_{1,2} * G_y}: express h
    as Jones combination + ideal element by solving the cached square system."""
    pairs, index, inverse = _bruteforce_solver(m)
    vec = _flat_hecke(h, index)
    out = {}
    for pair, row in zip(pairs, inverse):
        for r, v in zip(row, vec):
            _acc_term(out, pair, r * v)
    return out


# ---------------------------------------------------------------------------
# rank checks by specialization


def _cyclotomic_field(order):
    return Field(Cyclotomic.zero(order), Cyclotomic.one(order),
                 is_zero=lambda x: x.is_zero())


def vectorize_mod_quotient(x, which, q_value=None):
    """Flatten the representation matrices of x over all shapes that pass to
    the quotient, specializing q to a rational value to keep entries in the
    cyclotomic field."""
    if q_value is None:
        q_value = Cyclotomic.from_rational(5, x.d)
    vec = []
    for shape in quotient_shapes(x.d, x.n, which):
        mat = rep_element(rep_module(x.d, shape), x)
        for row in mat:
            vec.extend(specialize_q(entry, q_value) for entry in row)
    return vec


def independent_mod_quotient(elements, which, d):
    """Rank of the vectorized images equals the element count (full rank at
    the specialization implies generic full rank)."""
    rows = [vectorize_mod_quotient(x, which) for x in elements]
    return matrix_rank(rows, _cyclotomic_field(d)) == len(rows)


# ---------------------------------------------------------------------------
# conjugation shift


def conjugate_shift(x, i):
    """Conjugate by (g_1 g_2 ... g_{n-1})^(i-1); shifts e_1e_2g_{1,2}-type
    elements up by i-1 strand positions."""
    d, n = x.d, x.n
    if i < 1 or i - 1 > n - 1:
        raise ValueError("shift %d out of range" % i)
    if i == 1:
        return x
    fwd = unit(d, n)
    bwd = unit(d, n)
    for j in range(1, n):
        fwd = fwd * gen_g(d, n, j)
    for j in range(n - 1, 0, -1):
        bwd = bwd * gen_g_inv(d, n, j)
    out = x
    for _ in range(i - 1):
        out = fwd * out * bwd
    return out
