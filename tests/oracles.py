"""Reference oracles for the tests: slow, independent computations that the
library's fast paths are checked against. Nothing in the library imports
this module.

- rho_bruteforce: Temperley-Lieb reduction by solving a square linear system
  [Jones columns | ideal-span row basis], against rho_reduce
- ref_rho_perm: Temperley-Lieb reduction by straightening, with its braid
  search _braid_split: each G_x G_{s_i s_{i+1} s_i} G_y becomes minus G_x
  (the five lower terms of g_{i,i+1}) G_y, two Hecke products, as the library
  ran it before the action of g_k on Jones coordinates (isomaps._rho_perm)
  replaced it
- independent_mod_quotient: linear independence of quotient basis elements,
  by the rank of their seminormal images with q specialised to a rational
- specialize_q: a RatFunc evaluated at any cyclotomic value of q, term by
  term through powers of the value, numerator over expanded denominator;
  the reference for scalars.value_at_one, the library's one evaluation (at
  q = 1), and the q = 5 specialization of independent_mod_quotient
- g_word: a product of generators g_i, one algebra product per letter
- conjugate_shift: conjugation by powers of g_1 g_2 ... g_{n-1}
- is_zero_matrix
- Field, row_echelon, matrix_rank, invert_matrix: Gaussian elimination over
  any field, used by the first two
- FractionCyclotomic: Q(zeta_d) with one Fraction per coordinate, the
  arithmetic that the int-coordinate scalars.Cyclotomic replaced
- GcdRatFunc: the rational-function field normalised by a polynomial gcd,
  which the Phi-factored scalars.RatFunc replaced; rho_bruteforce pivots on
  arbitrary Laurent polynomials, so it needs this field
- ref_mul: the standard-basis product term by term, each pair of terms
  folded through the braid word of its right permutation with RatFunc
  coefficients, against the integer-table YElement.__mul__
- ref_character_sum: the character sum behind the seminormal row scalars
  and psi_mu in plain RatFunc arithmetic, one multiplication by a root of
  unity per term, against the int-coordinate yokonuma.character_sums
- q_gap_inverse, ref_rep_g, ref_rep_t: the seminormal matrices of g_i and
  t_j in closed form from the tableaux, 1 / (q^b - q^a) written out over
  the F_j of q^k - 1, as the library built them before rep_g and rep_t
  became evaluations of gen_g and gen_t on the int word rows
- ref_word_matrix, sum_of_products, ref_rep_element, ref_annihilates,
  ref_ideal_membership: the seminormal evaluation as the library ran it
  before its word matrices became packed int rows, with g_w the product of
  the closed-form matrices ref_rep_g along a reduced word and each entry
  one sum of RatFunc products over one denominator, normalised once
- ref_char_transform, ref_from_characters: the transform over (Z/d)^n in
  RatFunc arithmetic, one multiplication by a root of unity and one
  normalised sum per step, as the block maps ran it before the inverse moved
  onto packed ints, against yokonuma.from_characters
- ref_unpack, ref_laurent_from_ints: the int decoder in its dict form (a
  {q-exponent: ints} dict, its keys sorted, each row reduced by
  scalars._power_sum), against yokonuma._decode, which reads a packed int
  straight into the term tuple of a Laurent polynomial and decodes each
  distinct q-chunk once, and against scalars.laurent_from_ints, which reads
  rows in order

A Laurent polynomial here is what it is in the library: a RatFunc with
den_exps == (), read through its order and terms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, lcm

from ytl.isomaps import hecke_term
from ytl.linalg import identity_matrix, mat_mul
from ytl.permutations import ConsistencyError, Perm, all_perms
from ytl.reps import quotient_shapes, rep_element, rep_module
from ytl.scalars import (Cyclotomic, PoleAtValue, RatFunc, _add_terms, _as_cyclotomic,
                         _mul_terms, _power_sum, _promoted, _reduced, as_ratfunc,
                         multiply_dens, over_one_denominator)
from ytl.tableaux import jones_pairs, jones_permutation
from ytl.yokonuma import YElement, character_sums, g_block, gen_g, gen_g_inv, unit


def _acc_term(acc, key, c):
    """Add c to acc[key], dropping the key when the sum is zero: a copy of
    the library's accumulator, so the oracles share no code with what they
    check."""
    if key in acc:
        c = acc[key] + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


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
    vec = [GcdRatFunc.zero(1)] * len(index)
    for (_, w), c in x.terms:
        vec[index[w]] = _as_gcd_ratfunc(c)
    return vec


@lru_cache(maxsize=None)
def _bruteforce_solver(m):
    """Square system [Jones columns | ideal-span row basis] inverted once:
    coordinates modulo the ideal read off the first Catalan-many rows."""
    field = Field(GcdRatFunc.zero(1), GcdRatFunc.one(1), is_zero=lambda x: x.is_zero())
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
            c = r * v
            _acc_term(out, pair, c.num / c.den)
    return out


# ---------------------------------------------------------------------------
# Temperley-Lieb reduction by straightening in the Hecke algebra


@lru_cache(maxsize=None)
def _ref_jones_index(m):
    """{jones_permutation(m, p): p}: the fully commutative permutations."""
    return {jones_permutation(m, p): p for p in jones_pairs(m, "TL")}


@lru_cache(maxsize=None)
def _braid_split(w):
    """(x, i, y) with w = x * s_i s_{i+1} s_i * y and the lengths adding, or
    None when w is fully commutative: either a braid factor starts w, or it
    sits inside s_j w for a left descent j."""
    n, pos = w.n, w.inv().images
    for j in (j for j in range(1, n) if pos[j - 1] > pos[j]):
        if j < n - 1 and pos[j] > pos[j + 1]:
            return Perm.identity(n), j, Perm.from_word(n, (j, j + 1, j)) * w
        split = _braid_split(Perm.transposition(n, j) * w)
        if split is not None:
            x, i, y = split
            return Perm.transposition(n, j) * x, i, y
    return None


@lru_cache(maxsize=None)
def ref_rho_perm(m, w):
    """Jones coordinates of G_w in TL_m (cached), by straightening. A fully
    commutative w is a Jones basis element. Otherwise w = x s_i s_{i+1} s_i y,
    and as g_{i,i+1} lies in the ideal, G_w is congruent to minus G_x (the
    other five terms of g_{i,i+1}, basis elements) G_y: two products, whose
    terms are all shorter than w."""
    one = RatFunc.one(1)
    split = _braid_split(w)
    if split is None:
        if w not in _ref_jones_index(m):
            raise ConsistencyError("fully commutative %r has no Jones pair" % (w,))
        return ((_ref_jones_index(m)[w], one),)
    x, i, y = split
    others = g_block(1, m, i) - hecke_term(m, Perm.from_word(m, (i, i + 1, i)), one)
    out = {}
    for (_, z), c in (hecke_term(m, x, one) * others * hecke_term(m, y, one)).terms:
        for pair, pc in ref_rho_perm(m, z):
            _acc_term(out, pair, -c * pc)
    return tuple(sorted(out.items(), key=lambda kv: (kv[0].i, kv[0].k)))


# ---------------------------------------------------------------------------
# rank checks by specialization


def _cyclotomic_field(order):
    return Field(Cyclotomic.zero(order), Cyclotomic.one(order),
                 is_zero=lambda x: x.is_zero())


def specialize_q(rf, value):
    """Evaluate a rational function at a cyclotomic value of q."""
    rf = as_ratfunc(rf)
    num = _eval_laurent(RatFunc(rf.order, rf.terms), value)
    den = _eval_laurent(rf.den, value)
    if den.is_zero():
        raise PoleAtValue("denominator vanishes at the given value")
    return num / den


def _eval_laurent(p, value):
    order = value.order if isinstance(value, Cyclotomic) else p.order
    value = _as_cyclotomic(value, order)
    if value.is_zero() and p.terms and p.terms[0][0] < 0:
        raise PoleAtValue("negative exponent at zero")
    out = Cyclotomic.zero(order * p.order // int_gcd(order, p.order))
    inv = None
    for e, c in p.terms:
        if e >= 0:
            v = _cyc_pow(value, e)
        else:
            if inv is None:
                inv = value.inv()
            v = _cyc_pow(inv, -e)
        out = out + c * v
    return out


def _cyc_pow(c, e):
    out = Cyclotomic.one(c.order)
    base = c
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


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
# words in the generators and conjugation shift


def g_word(d, n, word):
    """g_{i_1} g_{i_2} ... g_{i_k} for word (i_1, ..., i_k), by one algebra
    product per letter."""
    out = unit(d, n)
    for i in word:
        out = out * gen_g(d, n, i)
    return out


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


# ---------------------------------------------------------------------------
# Fraction-coordinate cyclotomic numbers


@lru_cache(maxsize=None)
def _fraction_cyclotomic_polynomial(d):
    """Coefficient list (constant first) of the d-th cyclotomic polynomial."""
    if d < 1:
        raise ValueError("order must be positive")
    # Phi_d = (x^d - 1) / prod of Phi_e over proper divisors e of d
    poly = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _fraction_poly_divmod(poly, _fraction_cyclotomic_polynomial(e))
            if rem[-1] != 0:
                raise ArithmeticError("inexact polynomial division")
    return tuple(poly)


@lru_cache(maxsize=None)
def _fraction_trace_weights(d):
    """Normalised trace to Q of each basis power zeta_d^i. That power is a
    primitive m-th root of unity, m = d/gcd(i, d), and the mean of the
    primitive m-th roots is minus the subleading coefficient of Phi_m over
    its degree. The trace does not depend on the field a number lies in."""
    out = []
    for i in range(len(_fraction_cyclotomic_polynomial(d)) - 1):
        phi_m = _fraction_cyclotomic_polynomial(d // int_gcd(i, d))
        out.append(-phi_m[-2] / (len(phi_m) - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _fraction_power_table(d):
    """Coords of zeta_d^k for k = 0..d-1 in the reduced power basis."""
    phi_poly = _fraction_cyclotomic_polynomial(d)
    deg = len(phi_poly) - 1
    table = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(d):
        table.append(tuple(cur))
        # multiply by zeta: shift, then reduce the overflow via
        # zeta^deg = -(phi_0 + phi_1 zeta + ...)  (Phi_d is monic)
        top = cur[deg - 1]
        cur = [Fraction(0)] + cur[: deg - 1]
        if top != 0:
            for j in range(deg):
                cur[j] -= top * phi_poly[j]
    return tuple(table)


class FractionCyclotomic:
    """An element of Q(zeta_d) in the reduced power basis mod Phi_d."""

    __slots__ = ("order", "coords")

    def __init__(self, order, coords):
        deg = len(_fraction_cyclotomic_polynomial(order)) - 1
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        if len(coords) != deg:
            raise ValueError("expected %d coordinates for order %d" % (deg, order))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("FractionCyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(r, order=1):
        deg = len(_fraction_cyclotomic_polynomial(order)) - 1
        coords = [Fraction(r)] + [Fraction(0)] * (deg - 1)
        return FractionCyclotomic(order, coords)

    @staticmethod
    def zero(order=1):
        return FractionCyclotomic.from_rational(0, order)

    @staticmethod
    def one(order=1):
        return FractionCyclotomic.from_rational(1, order)

    @staticmethod
    def root_power(order, e):
        """zeta_order^e, reduced."""
        return FractionCyclotomic(order, _fraction_power_table(order)[e % order])

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational number: %r" % (self,))
        return self.coords[0]

    def promote(self, order):
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("cannot promote order %d to %d" % (self.order, order))
        step = order // self.order
        table = _fraction_power_table(order)
        deg = len(_fraction_cyclotomic_polynomial(order)) - 1
        out = [Fraction(0)] * deg
        for i, c in enumerate(self.coords):
            if c != 0:
                root = table[(i * step) % order]
                for j in range(deg):
                    out[j] += c * root[j]
        return FractionCyclotomic(order, out)

    @staticmethod
    def _common(a, b):
        if a.order == b.order:
            return a, b
        m = a.order * b.order // int_gcd(a.order, b.order)
        return a.promote(m), b.promote(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_fraction_cyclotomic(other, self.order)
        a, b = FractionCyclotomic._common(self, other)
        return FractionCyclotomic(a.order, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclotomic(self.order, [-c for c in self.coords])

    def __sub__(self, other):
        return self + (-_as_fraction_cyclotomic(other, self.order))

    def __rsub__(self, other):
        return _as_fraction_cyclotomic(other, self.order) - self

    def __mul__(self, other):
        other = _as_fraction_cyclotomic(other, self.order)
        a, b = FractionCyclotomic._common(self, other)
        deg = len(a.coords)
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a.coords):
            if x == 0:
                continue
            for j, y in enumerate(b.coords):
                if y != 0:
                    prod[i + j] += x * y
        # reduce mod Phi
        phi_poly = _fraction_cyclotomic_polynomial(a.order)
        for k in range(len(prod) - 1, deg - 1, -1):
            c = prod[k]
            if c != 0:
                prod[k] = Fraction(0)
                for j in range(deg):
                    prod[k - deg + j] -= c * phi_poly[j]
        return FractionCyclotomic(a.order, prod[:deg])

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return FractionCyclotomic.from_rational(1 / self.coords[0], self.order)
        phi_poly = list(_fraction_cyclotomic_polynomial(self.order))
        a = list(self.coords)
        # extended gcd of a and Phi in Q[x]; Phi irreducible so gcd is 1
        r0, r1 = phi_poly, _fraction_trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _fraction_poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _fraction_poly_sub(s0, _fraction_poly_mul(q, s1))
        # r1 is a nonzero constant; s1 * a == r1 (mod Phi)
        c = r1[0]
        inv_coords = [x / c for x in s1]
        deg = len(self.coords)
        inv_coords += [Fraction(0)] * (deg - len(inv_coords))
        return FractionCyclotomic(self.order, inv_coords[:deg])

    def __truediv__(self, other):
        other = _as_fraction_cyclotomic(other, self.order)
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_fraction_cyclotomic(other, self.order) * self.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if not isinstance(other, FractionCyclotomic):
            return NotImplemented
        a, b = FractionCyclotomic._common(self, other)
        return a.coords == b.coords

    def __hash__(self):
        # the normalised trace: equal across promotions, and the number
        # itself for rationals
        return hash(sum(c * w for c, w in zip(self.coords, _fraction_trace_weights(self.order))
                        if c))

    def __repr__(self):
        # the library's repr, so the two compare as strings
        return "Cyclotomic(%d, %s)" % (self.order, list(self.coords))

    def to_json(self):
        return [str(c) for c in self.coords]


def _as_fraction_cyclotomic(x, order):
    if isinstance(x, FractionCyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionCyclotomic.from_rational(x, order)
    raise TypeError("cannot coerce %r to FractionCyclotomic" % (x,))


# polynomial helpers on coefficient lists (constant first) over Q or Q(zeta)

def _fraction_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def _fraction_poly_divmod(num, den):
    """Long division of Fraction or FractionCyclotomic coefficient lists:
    returns (quotient, remainder), the remainder without zero leading
    terms."""
    num = list(num)
    den = _fraction_trim(den)
    zero = den[-1] - den[-1]
    quot = [zero] * max(len(num) - len(den) + 1, 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        quot[k] = c
        if c != 0:
            for j, dj in enumerate(den):
                num[k + j] = num[k + j] - c * dj
    return quot, _fraction_trim(num[: len(den) - 1] or [zero])


def _fraction_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != 0:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _fraction_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# term-by-term standard-basis product


def ref_mul(x, y):
    """x * y in the standard basis, one pair of terms at a time: the
    t-part of the right term moves through g_u, and g_u is multiplied by
    the generators of the right permutation's reduced word one by one."""
    x._check_compat(y)
    d, n = x.d, x.n
    q = RatFunc.q(d)
    qm1_over_d = (q - RatFunc.one(d)) * RatFunc.from_scalar(Fraction(1, d), d)
    acc = {}
    for (a, u), c1 in x.terms:
        for (b, v), c2 in y.terms:
            uinv = u.inv()
            tmon = tuple((a[j] + b[uinv(j + 1) - 1]) % d for j in range(n))
            _fold_braid_word(d, n, acc, tmon, u, v.reduced_word(),
                             c1 * c2, q, qm1_over_d)
    return YElement(d, n, acc)


def _fold_braid_word(d, n, acc, tmon, u, word, coeff, q, qm1_over_d):
    """Accumulate coeff * t^tmon g_u g_{word} into acc, in normal form."""
    work = {(tmon, u): coeff}
    for i in word:
        s_i = Perm.transposition(n, i)
        new = {}
        for (m, w), c in work.items():
            if not w.descends_right(i):
                _acc_term(new, (m, w * s_i), c)
            else:
                _acc_term(new, (m, w * s_i), q * c)
                jj, kk = w(i), w(i + 1)
                ce = qm1_over_d * c
                for s in range(d):
                    m2 = list(m)
                    m2[jj - 1] = (m2[jj - 1] + s) % d
                    m2[kk - 1] = (m2[kk - 1] - s) % d
                    _acc_term(new, (tuple(m2), w), ce)
        work = new
    for key, c in work.items():
        _acc_term(acc, key, c)


# ---------------------------------------------------------------------------
# character sums in Cyclotomic arithmetic


def ref_character_sum(d, terms, exps):
    """sum c * chi(t^a) over the terms (a, c), chi(t^a) = zeta_d^(a . exps),
    in plain RatFunc arithmetic: one multiplication by a root of unity and
    one normalised sum per term."""
    out = RatFunc.zero(d)
    for tmon, c in terms:
        phase = sum(a * p for a, p in zip(tmon, exps)) % d
        out = out + c * RatFunc.from_scalar(Cyclotomic.root_power(d, phase), d)
    return out


# ---------------------------------------------------------------------------
# the seminormal evaluation in RatFunc arithmetic


def q_gap_inverse(order, a, b):
    """1 / (q^b - q^a) over Q(zeta_order) for a != b, in closed form: with
    k = |b - a| and 1 - q^k = prod_{j | k} F_j, q^b - q^a is -q^a prod F_j
    for b > a and q^b prod F_j for b < a. No F_j divides a monomial, so the
    quotient is canonical as built and no trial division runs."""
    k = abs(b - a)
    exps = tuple((j, 1) for j in range(1, k + 1) if k % j == 0)
    if b > a:
        return RatFunc._raw(order, ((-a, Cyclotomic.from_rational(-1, order)),), exps)
    return RatFunc._raw(order, ((-b, Cyclotomic.one(order)),), exps)


def ref_rep_g(module, i):
    """The matrix of g_i from the tableaux: with q^a and q^b the contents of
    i and i + 1 in one component, g_i v_T = (q - 1) q^b / (q^b - q^a) v_T +
    (q^(b+1) - q^a) / (q^b - q^a) v_{s_i T} (q_gap_inverse); across
    components g_i sends v_T to v_{s_i T}, times q when i lies in the
    earlier component."""
    d = module.d
    q, z = RatFunc.q(d), RatFunc.zero(d)
    out = [[z] * module.dim for _ in range(module.dim)]
    for col, tab in enumerate(module.basis):
        swapped = tab.apply_transposition(i)
        p_i, p_next = tab.position(i), tab.position(i + 1)
        if p_i != p_next:
            out[module.index[swapped]][col] = q if p_i < p_next else RatFunc.one(d)
            continue
        a, b = tab.content_exponent(i), tab.content_exponent(i + 1)
        inverse = q_gap_inverse(d, a, b)
        out[col][col] = (q - 1) * RatFunc.q_power(b, d) * inverse
        if swapped is not None:
            out[module.index[swapped]][col] = \
                (RatFunc.q_power(b + 1, d) - RatFunc.q_power(a, d)) * inverse
    return out


def ref_rep_t(module, j):
    """The matrix of t_j from the tableaux: v_T times zeta_d^(m-1) for T's
    component m at entry j."""
    d = module.d
    return [[RatFunc.from_scalar(Cyclotomic.root_power(d, tab.position(j) - 1), d)
             if r == c else RatFunc.zero(d) for c in range(module.dim)]
            for r, tab in enumerate(module.basis)]


@lru_cache(maxsize=None)
def _ref_word_matrix(d, shape, w):
    module = rep_module(d, shape)
    word = w.reduced_word()
    if not word:
        return tuple(map(tuple, identity_matrix(module.dim, RatFunc.zero(d), RatFunc.one(d))))
    left = _ref_word_matrix(d, shape, w * Perm.transposition(w.n, word[-1]))
    return tuple(map(tuple, mat_mul(left, ref_rep_g(module, word[-1]), RatFunc.zero(d))))


def ref_word_matrix(module, w):
    """The matrix of g_w: the closed-form matrices ref_rep_g multiplied
    along w's reduced word."""
    return _ref_word_matrix(module.d, module.shape, w)


def sum_of_products(pairs, zero):
    """sum x * y over pairs of RatFuncs, over one denominator and normalised
    once; the given zero itself when every product vanishes."""
    pairs = [(x, y) for x, y in pairs if x.terms and y.terms]
    if not pairs:
        return zero
    order = lcm(*[x.order for pair in pairs for x in pair])
    products = []
    for x, y in pairs:
        x, y = _promoted(x, order), _promoted(y, order)
        # unnormalised: over_one_denominator reads the numerator and exponents
        products.append(RatFunc._raw(order, _mul_terms(x.terms, y.terms),
                                     multiply_dens(x.den_exps, y.den_exps)))
    nums, exps = over_one_denominator(products)
    total = nums[0]
    for num in nums[1:]:
        total = _add_terms(total, num)
    return RatFunc.over(order, total, exps)


def ref_entries(module, x):
    """{(row, col): [(s, g)]}: the pairs whose products sum to each entry of
    the matrix of x, one per permutation w with both factors nonzero, g the
    entry of g_w (ref_word_matrix) and s the character sum of w at the row."""
    d = module.d
    components = [tuple(tab.position(j) - 1 for j in range(1, module.n + 1))
                  for tab in module.basis]
    out = {}
    for w, sums in character_sums(x, components).items():
        gmat = ref_word_matrix(module, w)
        for row, comps in enumerate(components):
            s = sums[comps]
            if not s.is_zero():
                for col, g in enumerate(gmat[row]):
                    if not g.is_zero():
                        out.setdefault((row, col), []).append((s, g))
    return out


def ref_rep_element(module, x):
    """The matrix of x: one sum_of_products per entry over ref_entries."""
    out = [[RatFunc.zero(module.d)] * module.dim for _ in range(module.dim)]
    for (row, col), pairs in ref_entries(module, x).items():
        out[row][col] = sum_of_products(pairs, out[row][col])
    return out


def ref_annihilates(module, x):
    """Whether every sum_of_products of ref_entries is zero."""
    zero = RatFunc.zero(module.d)
    return all(sum_of_products(pairs, zero).is_zero()
               for pairs in ref_entries(module, x).values())


def ref_ideal_membership(x, which):
    return all(ref_annihilates(rep_module(x.d, shape), x)
               for shape in quotient_shapes(x.d, x.n, which))


# ---------------------------------------------------------------------------
# the character transform in RatFunc arithmetic


def ref_char_transform(d, n, values, sign):
    """The transform over (Z/d)^n of {a: c}: {b: sum_a c * zeta_d^(sign a.b)},
    one axis at a time (n passes of size d), zero sums dropped."""
    for j in range(n):
        nxt = {}
        for key, c in values.items():
            a, head, tail = key[j], key[:j], key[j + 1:]
            for b in range(d):
                e = sign * a * b % d
                _acc_term(nxt, head + (b,) + tail,
                          c.times_monomial(Cyclotomic.root_power(d, e)) if e else c)
        values = nxt
    return values


def ref_from_characters(d, n, parts):
    """sum q^s c E_chi g_v over parts [(v, exps, s, c)]: the q^s c of each
    (v, exps) summed in a field holding zeta_d, transformed back with
    inverse roots (ref_char_transform) and scaled by d^-n."""
    coords = {}
    for v, exps, s, c in parts:
        _acc_term(coords.setdefault(v, {}), exps, as_ratfunc(c, d) * RatFunc.q_power(s, d))
    scale = Fraction(1, d ** n)
    return YElement(d, n, [((a, v), c * scale) for v, chis in coords.items()
                           for a, c in ref_char_transform(d, n, chis, -1).items()])


# ---------------------------------------------------------------------------
# the int decoder in dict form


def ref_unpack(packed, low, width, qshift):
    """{q-exponent: ints by zeta power} of a packed sum of products of rows,
    its lowest digit at q^low: signed digits of B bits, Z to a power of q."""
    by_e = {}
    qmask, mask = (1 << qshift) - 1, (1 << width) - 1
    qhalf, half = 1 << (qshift - 1), 1 << (width - 1)
    e = low
    while packed:
        if not packed & qmask:
            # a run of zero q-chunks carries no borrow: one shift skips it
            skip = ((packed & -packed).bit_length() - 1) // qshift
            packed >>= skip * qshift
            e += skip
        chunk = packed & qmask
        packed >>= qshift
        if chunk >= qhalf:
            chunk -= qmask + 1
            packed += 1
        if chunk:
            if -half < chunk < half:
                # the power of zeta 0 alone
                by_e[e] = [chunk]
            else:
                row = []
                while chunk:
                    digit = chunk & mask
                    chunk >>= width
                    if digit >= half:
                        digit -= mask + 1
                        chunk += 1
                    row.append(digit)
                by_e[e] = row
        e += 1
    return by_e


def ref_laurent_from_ints(order, by_e, common):
    """The Laurent polynomial of {q-exponent: ints}, sum over e and z of
    by_e[e][z] zeta_order^z q^e / common. Each coefficient is reduced mod
    Phi_order and tested for zero only then: 1 + zeta_3 + zeta_3^2 and the
    like vanish only after the reduction."""
    terms = []
    for e in sorted(by_e):
        nums = _power_sum(order, by_e[e], 1)
        if any(nums):
            terms.append((e, _reduced(order, nums, common)))
    return RatFunc(order, terms)


# ---------------------------------------------------------------------------
# the rational-function field normalised by a polynomial gcd


def _is_one(p):
    return len(p.terms) == 1 and p.terms[0][0] == 0 and p.terms[0][1] == 1


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def _poly_divmod(num, den):
    """Long division of Cyclotomic coefficient lists: returns (quotient,
    remainder), the remainder without zero leading terms."""
    num = list(num)
    den = _trim(den)
    zero = den[-1] - den[-1]
    quot = [zero] * max(len(num) - len(den) + 1, 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        quot[k] = c
        if c != 0:
            for j, dj in enumerate(den):
                num[k + j] = num[k + j] - c * dj
    return quot, _trim(num[: len(den) - 1] or [zero])


def _laurent_gcd(a, b):
    """Monic gcd of two Laurent polynomials, not both zero, as an ordinary
    polynomial (minimal exponent 0)."""
    pa = _to_dense(_shift_to_zero(a))
    pb = _to_dense(_shift_to_zero(b))
    while len(pb) > 1 or not pb[0].is_zero():
        pa, pb = pb, _poly_divmod(pa, pb)[1]
    lead = pa[-1]
    return RatFunc(a.order, {i: c / lead for i, c in enumerate(pa)})


def _shift_to_zero(p):
    if p.is_zero():
        return p
    m = p.terms[0][0]
    return RatFunc(p.order, {e - m: c for e, c in p.terms})


def _to_dense(p):
    order = p.order
    n = p.terms[-1][0] + 1 if not p.is_zero() else 1
    out = [Cyclotomic.zero(order)] * n
    for e, c in p.terms:
        out[e] = c
    return out


def _f_exponents(den):
    """The exponent vector ((j, e_j), ...) of den, a polynomial with constant
    term 1, when den = prod F_j^e_j with F_1 = 1 - q and F_j = Phi_j(q):
    each F_j divided out by long division while it divides exactly; None
    when a factor of any other form is left."""
    p = _to_dense(den)
    exps = []
    j = 1
    while len(p) > 1:
        if j > 2 * (len(p) - 1) ** 2:
            # phi(j) >= sqrt(j / 2): no F_j of degree at most deg(p) is left
            return None
        factor = [Cyclotomic.from_rational(c, den.order)
                  for c in ((1, -1) if j == 1 else _fraction_cyclotomic_polynomial(j))]
        e = 0
        while len(p) >= len(factor):
            quot, rem = _poly_divmod(p, factor)
            if not rem[-1].is_zero():
                break
            p, e = quot, e + 1
        if e:
            exps.append((j, e))
        j += 1
    return tuple(exps)


class GcdRatFunc:
    """Element of the rational-function field over Q(zeta_d).

    Canonical form: num/den coprime, den with minimal exponent 0 and its
    lowest-degree coefficient equal to 1. Equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            # a numerator over the shared 1 is already canonical
            den, _normalized = RatFunc.one(num.order), True
        if not _normalized:
            num, den = GcdRatFunc._normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("GcdRatFunc is immutable")

    def __reduce__(self):
        return GcdRatFunc, (self.num, self.den, True)

    @staticmethod
    def _normalize(num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = RatFunc._common(num, den)
        order = num.order
        if _is_one(den):
            return num, den
        if num.is_zero():
            return RatFunc.zero(order), RatFunc.one(order)
        sn, sd = num.terms[0][0], den.terms[0][0]
        num0, den0 = _shift_to_zero(num), _shift_to_zero(den)
        g = _laurent_gcd(num0, den0)
        if not _is_one(g):
            gd = _to_dense(g)
            reduced = []
            for p in (num0, den0):
                quot, rem = _poly_divmod(_to_dense(p), gd)
                if not rem[-1].is_zero():
                    raise ArithmeticError("inexact Laurent division")
                reduced.append(RatFunc(order, dict(enumerate(quot))))
            num0, den0 = reduced
        cinv = den0.terms[0][1].inv()  # constant coefficient, nonzero by construction
        num0 = RatFunc(order, {e + sn - sd: v * cinv for e, v in num0.terms})
        den0 = RatFunc(order, {e: v * cinv for e, v in den0.terms})
        return num0, den0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order=1):
        return GcdRatFunc(RatFunc.zero(order), RatFunc.one(order), _normalized=True)

    @staticmethod
    def one(order=1):
        return GcdRatFunc(RatFunc.one(order), RatFunc.one(order), _normalized=True)

    @staticmethod
    def q(order=1):
        return GcdRatFunc(RatFunc.q(order), RatFunc.one(order), _normalized=True)

    @staticmethod
    def q_power(e, order=1):
        return GcdRatFunc(RatFunc.q_power(e, order))

    @staticmethod
    def from_scalar(c, order=1):
        return GcdRatFunc(RatFunc.from_scalar(c, order))

    # -- structure ---------------------------------------------------------

    @property
    def order(self):
        return self.num.order

    def is_zero(self):
        return self.num.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not GcdRatFunc:
            other = _as_gcd_ratfunc(other, self.order)
        if _is_one(self.den) and _is_one(other.den) and self.num.order == other.num.order:
            return GcdRatFunc(self.num + other.num, self.den, _normalized=True)
        if self.den == other.den:
            return GcdRatFunc(self.num + other.num, self.den)
        return GcdRatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return GcdRatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-_as_gcd_ratfunc(other, self.order))

    def __rsub__(self, other):
        return _as_gcd_ratfunc(other, self.order) - self

    def __mul__(self, other):
        if type(other) is not GcdRatFunc:
            other = _as_gcd_ratfunc(other, self.order)
        if _is_one(self.den) and _is_one(other.den) and self.num.order == other.num.order:
            return GcdRatFunc(self.num * other.num, self.den, _normalized=True)
        return GcdRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def times_monomial(self, c, e=0):
        """self * c * q^e for a nonzero scalar c of self's field. The factor
        is a unit, so only the numerator changes and no renormalisation is
        needed."""
        unit = c == 1
        if unit and e == 0:
            return self
        num = RatFunc(self.order, [(k + e, v if unit else v * c)
                                   for k, v in self.num.terms])
        return GcdRatFunc(num, self.den, _normalized=True)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return GcdRatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * _as_gcd_ratfunc(other, self.order).inv()

    def __rtruediv__(self, other):
        return _as_gcd_ratfunc(other, self.order) * self.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = GcdRatFunc.one(self.order)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic, RatFunc)):
            other = _as_gcd_ratfunc(other, self.order)
        if not isinstance(other, GcdRatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # with denominator 1, hash as the numerator, so a GcdRatFunc agrees with
        # the Laurent polynomial, Cyclotomic or int it equals; over a product
        # of F_j, as the RatFunc with this numerator and denominator
        if _is_one(self.den):
            return hash(self.num)
        exps = _f_exponents(self.den)
        if exps is None:
            return hash((self.num, self.den))
        return hash((self.num.terms, exps))

    def __repr__(self):
        if _is_one(self.den):
            return "RatFunc(%s)" % self.num.pretty()
        return "RatFunc((%s)/(%s))" % (self.num.pretty(), self.den.pretty())

    def pretty(self):
        if _is_one(self.den):
            return self.num.pretty()
        return "(%s)/(%s)" % (self.num.pretty(), self.den.pretty())

    def to_json(self):
        return {"num": self.num.to_json()["num"], "den": self.den.to_json()["num"]}


def _as_gcd_ratfunc(x, order=1):
    if isinstance(x, GcdRatFunc):
        return x
    if isinstance(x, RatFunc):
        return GcdRatFunc(RatFunc(x.order, x.terms), x.den)
    if isinstance(x, (int, Fraction, Cyclotomic)):
        return GcdRatFunc.from_scalar(x, order)
    raise TypeError("cannot coerce %r to GcdRatFunc" % (x,))
