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
- FractionCyclotomic: Q(zeta_d) with one Fraction per coordinate, the
  arithmetic that the int-coordinate scalars.Cyclotomic replaced
- ref_mul: the standard-basis product term by term, each pair of terms
  folded through the braid word of its right permutation with RatFunc
  coefficients, against the integer-table YElement.__mul__
- ref_character_sum: the character sum of the seminormal evaluation in
  Cyclotomic arithmetic, one multiplication by a root of unity per phase,
  against the int-coordinate reps.character_sum
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd

from ytl.isomaps import hecke_term
from ytl.linalg import identity_matrix
from ytl.permutations import Perm, all_perms
from ytl.reps import _bucket_sum, _laurent, quotient_shapes, rep_element, rep_module
from ytl.scalars import Cyclotomic, RatFunc, specialize_q
from ytl.tableaux import jones_pairs, jones_permutation
from ytl.yokonuma import YElement, _acc_term, g_block, gen_g, gen_g_inv, unit


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
    as a RatFunc in a field holding Q(zeta_d) and every c. Numerators are
    summed per (denominator, phase) and multiplied by their root once; each
    denominator's sum is normalised once."""
    parts = {}
    for tmon, c in terms:
        phase = sum(a * p for a, p in zip(tmon, exps)) % d
        part = parts.setdefault((None if c.den.is_one() else c.den, phase), {})
        for e, v in c.num.terms:
            part[e] = part[e] + v if e in part else v
    nums = {}
    for (den, phase), part in parts.items():
        num = nums.setdefault(den, {})
        root = Cyclotomic.root_power(d, phase)
        for e, v in part.items():
            if phase:
                v = v * root
            num[e] = num[e] + v if e in num else v
    return _bucket_sum({den: _laurent(d, num) for den, num in nums.items()})
