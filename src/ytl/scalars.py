"""Exact scalar arithmetic: cyclotomic numbers, and the field of rational
functions in q over them, whose Laurent polynomials are one case.

All values are immutable. A ``Cyclotomic`` of order d lives in the field
Q(zeta_d), stored in the reduced power basis 1, zeta, ..., zeta^(phi(d)-1)
modulo the d-th cyclotomic polynomial, as integer numerators over one
positive integer denominator in lowest terms; its ``coords`` (one Fraction
per basis power) are derived from them for display. ``RatFunc`` is the one
q-scalar type: a Laurent numerator, sorted (exponent, Cyclotomic) terms
with integer exponents, over a product of cyclotomic polynomials Phi_j(q)
(exponent vectors, no polynomial gcd anywhere), kept in a canonical form so
equality is a plain structural comparison. A Laurent polynomial is a
RatFunc whose exponent vector is empty. This module is the form's one
owner: it alone builds, factors and evaluates it, with the numerator
arithmetic in private functions on term tuples. Equal values hash equally,
also across field orders and across the int -> Cyclotomic -> RatFunc
coercions.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, lcm

# the modulus of Python's hash of rationals (Cyclotomic.__hash__)
_HASH_MODULUS = sys.hash_info.modulus


class PoleAtValue(Exception):
    """Evaluation of a rational function at a zero of its denominator."""


def slot_setters(cls):
    """The __set__ of each slot of cls, in the order of __slots__: one call
    sets a slot at about half the cost of object.__setattr__."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d):
    """Integer coefficients (constant first) of the d-th cyclotomic
    polynomial."""
    if d < 1:
        raise ValueError("order must be positive")
    # Phi_d = (x^d - 1) / prod of Phi_e over proper divisors e of d; each
    # divisor is monic, so the long division stays in the integers
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            div = cyclotomic_polynomial(e)
            k = len(div) - 1
            quot = [0] * (len(poly) - k)
            for i in range(len(quot) - 1, -1, -1):
                c = quot[i] = poly[i + k]
                if c:
                    for j, dj in enumerate(div):
                        poly[i + j] -= c * dj
            if any(poly):
                raise ArithmeticError("inexact polynomial division")
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _degree(d):
    """phi(d), the number of coordinates of Q(zeta_d)."""
    return len(cyclotomic_polynomial(d)) - 1


@lru_cache(maxsize=None)
def _trace_weights(d):
    """Normalised trace to Q of each basis power zeta_d^i, as integer
    weights over one common denominator. That power is a primitive m-th
    root of unity, m = d/gcd(i, d), and the mean of the primitive m-th roots
    is minus the subleading coefficient of Phi_m over its degree. The trace
    does not depend on the field a number lies in."""
    means = []
    for i in range(_degree(d)):
        phi_m = cyclotomic_polynomial(d // int_gcd(i, d))
        means.append((-phi_m[-2], len(phi_m) - 1))
    den = lcm(*(k for _, k in means))
    return tuple(c * (den // k) for c, k in means), den


@lru_cache(maxsize=None)
def _power_table(d):
    """Integer coords of zeta_d^k for k = 0..d-1 in the reduced power
    basis."""
    phi_poly = cyclotomic_polynomial(d)
    deg = len(phi_poly) - 1
    table = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(d):
        table.append(tuple(cur))
        # multiply by zeta: shift, then reduce the overflow via
        # zeta^deg = -(phi_0 + phi_1 zeta + ...)  (Phi_d is monic)
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            for j in range(deg):
                cur[j] -= top * phi_poly[j]
    return tuple(table)


@lru_cache(maxsize=None)
def _conjugating_units(d):
    """The k in 2..d-1 prime to d: zeta -> zeta^k are the Galois
    automorphisms of Q(zeta_d) other than the identity."""
    return tuple(k for k in range(2, d) if int_gcd(k, d) == 1)


def _power_sum(order, nums, k):
    """Integer coords in Q(zeta_order) of sum nums[i] zeta_order^(i*k): for
    a number of a smaller field with k = order / its order, its promotion;
    for one of this field with k prime to order, a Galois conjugate."""
    table = _power_table(order)
    out = [0] * _degree(order)
    for i, c in enumerate(nums):
        if c:
            for j, r in enumerate(table[i * k % order]):
                if r:
                    out[j] += c * r
    return out


def _reduced(order, nums, den):
    """The Cyclotomic nums/den (den > 0), brought to lowest terms by one
    gcd."""
    if den != 1:
        g = int_gcd(den, *nums)
        if g != 1:
            return Cyclotomic._raw(order, tuple([n // g for n in nums]), den // g)
    return Cyclotomic._raw(order, tuple(nums), den)


class Cyclotomic:
    """An element of Q(zeta_d) in the reduced power basis mod Phi_d: integer
    numerators ``nums`` over one positive denominator ``den``, with
    gcd(den, *nums) == 1, so zero has den == 1. Equal numbers of one order
    have equal (nums, den)."""

    __slots__ = ("order", "nums", "den")

    def __init__(self, order, coords):
        """From one int or Fraction per basis power; anything else (a
        float, a string) is a TypeError, never an inexact coordinate."""
        deg = _degree(order)
        coords = tuple(coords)
        if len(coords) != deg:
            raise ValueError("expected %d coordinates for order %d" % (deg, order))
        for c in coords:
            if not isinstance(c, (int, Fraction)):
                raise TypeError("a coordinate must be an int or a Fraction, not %r" % (c,))
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in coords))
        _cyclotomic_order(self, order)
        _cyclotomic_nums(self, tuple(c.numerator * (den // c.denominator) for c in coords))
        _cyclotomic_den(self, den)

    @staticmethod
    def _raw(order, nums, den):
        """Trusted constructor: a tuple of ints over a positive int, already
        in lowest terms."""
        new = object.__new__(Cyclotomic)
        _cyclotomic_order(new, order)
        _cyclotomic_nums(new, nums)
        _cyclotomic_den(new, den)
        return new

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        return Cyclotomic._raw, (self.order, self.nums, self.den)

    @property
    def coords(self):
        """One Fraction per basis power."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(r, order=1):
        if not isinstance(r, (int, Fraction)):
            raise TypeError("a rational must be an int or a Fraction, not %r" % (r,))
        return Cyclotomic._raw(order, (r.numerator,) + (0,) * (_degree(order) - 1),
                               r.denominator)

    @staticmethod
    def zero(order=1):
        return Cyclotomic.from_rational(0, order)

    @staticmethod
    def one(order=1):
        return Cyclotomic.from_rational(1, order)

    @staticmethod
    def root_power(order, e):
        """zeta_order^e, reduced."""
        return Cyclotomic._raw(order, _power_table(order)[e % order], 1)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not any(self.nums)

    def is_rational(self):
        return not any(self.nums[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational number: %r" % (self,))
        return Fraction(self.nums[0], self.den)

    def promote(self, order):
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("cannot promote order %d to %d" % (self.order, order))
        return _reduced(order, _power_sum(order, self.nums, order // self.order), self.den)

    @staticmethod
    def _common(a, b):
        if a.order == b.order:
            return a, b
        m = a.order * b.order // int_gcd(a.order, b.order)
        return a.promote(m), b.promote(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Cyclotomic:
            other = _as_cyclotomic(other, self.order)
        a, b = Cyclotomic._common(self, other)
        if a.den == b.den:
            return _reduced(a.order, [x + y for x, y in zip(a.nums, b.nums)], a.den)
        g = int_gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        return _reduced(a.order, [x * fa + y * fb for x, y in zip(a.nums, b.nums)],
                        a.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.order, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        return self + (-_as_cyclotomic(other, self.order))

    def __rsub__(self, other):
        return _as_cyclotomic(other, self.order) - self

    def __mul__(self, other):
        if type(other) is not Cyclotomic:
            try:
                other = _as_cyclotomic(other, self.order)
            except TypeError:
                # an algebra element scales by this scalar in its __rmul__
                return NotImplemented
        a, b = Cyclotomic._common(self, other)
        order, xs, ys = a.order, a.nums, b.nums
        deg = len(xs)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys):
                    if y:
                        prod[i + j] += x * y
        # reduce mod Phi: each power of zeta through its row of the table
        return _reduced(order, _power_sum(order, prod, 1), a.den * b.den)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse: with self = X/den, X integral, it is
        den * P / N(X), P the product of the other Galois conjugates of X
        and N(X) = X * P its norm, a nonzero integer."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        order, nums, den = self.order, self.nums, self.den
        if self.is_rational():
            n = nums[0]
            return _reduced(order, (den if n > 0 else -den,) + nums[1:], abs(n))
        x = Cyclotomic._raw(order, nums, 1)
        p = Cyclotomic.one(order)
        for k in _conjugating_units(order):
            p = p * Cyclotomic._raw(order, tuple(_power_sum(order, nums, k)), 1)
        norm = x * p
        if not norm.is_rational() or norm.den != 1:
            raise ArithmeticError("the norm of %r is not an integer" % (self,))
        n = norm.nums[0]
        return _reduced(order, [v * den if n > 0 else -v * den for v in p.nums], abs(n))

    def __truediv__(self, other):
        other = _as_cyclotomic(other, self.order)
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_cyclotomic(other, self.order) * self.inv()

    def __eq__(self, other):
        if type(other) is Cyclotomic:
            if self.order != other.order:
                self, other = Cyclotomic._common(self, other)
            return self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            # lowest terms: a rational is nums[0]/den with nothing to cancel
            return (self.den == other.denominator and self.nums[0] == other.numerator
                    and not any(self.nums[1:]))
        return NotImplemented

    def __hash__(self):
        # the normalised trace t / den: equal across promotions, and the
        # number itself for rationals. Hashed as hash(Fraction(t, den)) is,
        # without building the Fraction: t times the inverse of den modulo
        # the hash modulus, unless that modulus divides den
        weights, wden = _trace_weights(self.order)
        t = sum(n * w for n, w in zip(self.nums, weights) if n)
        den = self.den * wden
        if den % _HASH_MODULUS == 0:
            return hash(Fraction(t, den))
        h = abs(t) * pow(den, -1, _HASH_MODULUS) % _HASH_MODULUS
        if t < 0:
            h = -h
        return -2 if h == -1 else h

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.order, list(self.coords))

    def to_json(self):
        return [str(c) for c in self.coords]


def _as_cyclotomic(x, order):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x, order)
    raise TypeError("cannot coerce %r to Cyclotomic" % (x,))


# ---------------------------------------------------------------------------
# Laurent polynomials in q, as sorted term tuples ((exponent, Cyclotomic), ...)
# of one order with no zero coefficient: the numerators of RatFunc


def _add_terms(a, b):
    """The sum of two term tuples of one order."""
    out = dict(a)
    for e, c in b:
        if e in out:
            s = out[e] + c
            if s.is_zero():
                del out[e]
            else:
                out[e] = s
        else:
            out[e] = c
    return tuple(sorted(out.items()))


def _mul_terms(a, b):
    """The product of two term tuples of one order."""
    out = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            p = c1 * c2
            if e in out:
                out[e] = out[e] + p
            else:
                out[e] = p
    return tuple(sorted((e, c) for e, c in out.items() if not c.is_zero()))


def _pretty(terms):
    """Human-readable form like 'q^2 + 1 - q^-1'."""
    if not terms:
        return "0"
    parts = []
    for e, c in reversed(terms):
        qpow = "1" if e == 0 else ("q" if e == 1 else "q^%d" % e)
        if c.is_rational():
            r = c.as_rational()
            sign = "-" if r < 0 else "+"
            mag = abs(r)
            coeff = "" if mag == 1 and qpow != "1" else str(mag)
        else:
            sign = "+"
            coeff = "(" + "+".join(
                "%s*z^%d" % (v, i) for i, v in enumerate(c.coords) if v != 0
            ) + ")"
        body = coeff + ("" if qpow == "1" and coeff else ("*" if coeff else "") + qpow) \
            if not (qpow == "1" and not coeff) else "1"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text


def _terms_json(terms):
    return [[str(e), c.to_json()] for e, c in terms]


# Laurent polynomials in int coordinates: the products and character sums in
# yokonuma add and shift ints, and build term tuples only at the end, here


def cyclotomic_from_ints(order, ints, common):
    """sum_z ints[z] zeta_order^z / common in lowest terms by its own gcd,
    or None where it vanishes mod Phi_order: 1 + zeta_3 + zeta_3^2 and the
    like vanish only after the reduction."""
    deg = _degree(order)
    if len(ints) <= deg:
        # no power of zeta past the basis: the ints are the first coordinates
        nums = tuple(ints) + (0,) * (deg - len(ints))
    else:
        nums = _power_sum(order, ints, 1)
    return _reduced(order, nums, common) if any(nums) else None


def laurent_from_ints(order, rows, common):
    """The term tuple of rows [(q-exponent, ints)] in ascending order of
    exponent, sum over them of sum_z ints[z] zeta_order^z q^e / common,
    each power of q decoded by cyclotomic_from_ints."""
    return tuple([(e, c) for e, ints in rows
                  if (c := cyclotomic_from_ints(order, ints, common)) is not None])


# ---------------------------------------------------------------------------
# denominators: products of F_1 = 1 - q and F_j = Phi_j(q) for j > 1, each
# with constant term 1, kept as exponent vectors ((j, e_j), ...) sorted by j
# with every e_j > 0; () is the denominator 1


@lru_cache(maxsize=None)
def _den_factor(j):
    """F_j as int coefficients, constant first: 1 - q for j = 1, Phi_j
    otherwise. Each has constant term 1 and leading coefficient +-1, so a
    division by it stays in the integers."""
    return (1, -1) if j == 1 else cyclotomic_polynomial(j)


def _totient(n):
    """Euler's phi(n), the degree of Phi_n, from the prime factors of n."""
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    return out - out // m if m > 1 else out


def multiply_dens(a, b):
    """The exponent vector of the product of two denominators."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for j, e in b:
        out[j] = out.get(j, 0) + e
    return tuple(sorted(out.items()))


def _dens_lcm(vectors):
    """The least common multiple of denominators: per j the largest e_j."""
    out = {}
    for vec in vectors:
        for j, e in vec:
            if e > out.get(j, 0):
                out[j] = e
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _den_terms(exps, order):
    """prod F_j^e_j expanded, as a term tuple over Q(zeta_order)."""
    out = RatFunc.one(order).terms
    for j, e in exps:
        factor = RatFunc(order, dict(enumerate(_den_factor(j)))).terms
        for _ in range(e):
            out = _mul_terms(out, factor)
    return out


def _lift(order, terms, top, own):
    """terms / own as a numerator over top, a multiple of own."""
    if own == top:
        return terms
    less = dict(own)
    cofactor = tuple((j, e - less.get(j, 0)) for j, e in top if e > less.get(j, 0))
    return _mul_terms(terms, _den_terms(cofactor, order))


def _dense_rows(terms):
    """(low, common, rows) with terms = q^low sum_i rows[i] q^i / common for
    a nonzero term tuple: rows[i] holds the int coordinates of a coefficient
    over the one int denominator common, zero coefficients included."""
    low = terms[0][0]
    common = lcm(*(c.den for _, c in terms))
    rows = [(0,) * len(terms[0][1].nums)] * (terms[-1][0] - low + 1)
    for e, c in terms:
        rows[e - low] = c.nums if c.den == common else \
            tuple(x * (common // c.den) for x in c.nums)
    return low, common, rows


def _rows_quotient(rows, factor):
    """The quotient rows of the polynomial with coefficient vectors rows
    (constant first) by the int polynomial factor, whose constant term is 1,
    when the division is exact; None otherwise."""
    size = len(rows) - len(factor) + 2  # one more than the quotient length
    if size < 2:
        return None
    taps = [(t, c) for t, c in enumerate(factor) if t and c]
    quot = []
    for i, row in enumerate(rows):
        cur = list(row)
        for t, c in taps:
            if 0 <= i - t < size - 1:
                for z, x in enumerate(quot[i - t]):
                    if x:
                        cur[z] -= c * x
        if i < size - 1:
            quot.append(cur)
        elif any(cur):
            return None
    return quot


def _divide_out(rows, j, most):
    """(quotient, k): rows divided by F_j k times, as often as the division
    stays exact but at most `most` times. The one trial-division loop."""
    k = 0
    while k < most:
        quot = _rows_quotient(rows, _den_factor(j))
        if quot is None:
            break
        rows, k = quot, k + 1
    return rows, k


def _factor_den(order, terms):
    """(c, a, exps) with terms = c q^a prod F_j^e_j for a nonzero term tuple
    of Q(zeta_order), or None when it has no such form. The F_j are divided
    out of its int rows, j in increasing order, and only those of degree
    phi(j) at most the degree left are tried; c is the one row left."""
    a, common, rows = _dense_rows(terms)
    exps = []
    j = 1
    while len(rows) > 1:
        deg = len(rows) - 1
        if j > 2 * deg * deg:
            # phi(j) >= sqrt(j / 2), so no F_j of degree at most deg is left
            return None
        if _totient(j) <= deg:
            rows, e = _divide_out(rows, j, deg)
            if e:
                exps.append((j, e))
        j += 1
    return cyclotomic_from_ints(order, rows[0], common), a, tuple(exps)


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Element of the rational-function field over Q(zeta_order): the
    Laurent numerator ``terms`` over prod F_j^e_j, with F_1 = 1 - q and F_j
    = Phi_j(q) for j > 1. ``terms`` are sorted (exponent, Cyclotomic) pairs
    of order ``order``, no coefficient zero; ``den_exps`` is the exponent
    vector ((j, e_j), ...), sorted by j, every e_j > 0. The Laurent
    polynomials are the values with ``den_exps == ()``. Every denominator the
    library builds has this form: the seminormal entries invert q^k - 1 =
    -prod_{j | k} F_j.

    Canonical form: no F_j of the denominator divides the numerator. The F_j
    are pairwise coprime over every Q(zeta_d), also where they split (Phi_3
    over Q(zeta_3)), so the form is unique and equality is structural. A
    product adds exponent vectors and a sum takes their maximum; each then
    tries to divide the numerator only by the F_j that can divide it.
    ``den`` expands the denominator (lowest exponent 0, constant term 1):
    wherever no split F_j shares a factor with the numerator this is the
    coprime form numerator/den.
    """

    __slots__ = ("order", "terms", "den_exps")

    def __init__(self, order, terms):
        """The Laurent polynomial sum c q^e over terms, a dict or pairs
        (e, c), c an int, a Fraction or a Cyclotomic of a subfield of
        Q(zeta_order) (any other field is a ValueError)."""
        clean = {}
        for e, c in (terms.items() if isinstance(terms, dict) else terms):
            c = _as_cyclotomic(c, order)
            if c.order != order:
                if order % c.order:
                    raise ValueError("a coefficient of order %d does not lie in "
                                     "Q(zeta_%d)" % (c.order, order))
                c = c.promote(order)
            if not c.is_zero():
                if e in clean:
                    s = clean[e] + c
                    if s.is_zero():
                        del clean[e]
                    else:
                        clean[e] = s
                else:
                    clean[e] = c
        _ratfunc_order(self, order)
        _ratfunc_terms(self, tuple(sorted(clean.items())))
        _ratfunc_den_exps(self, ())

    @staticmethod
    def _raw(order, terms, exps):
        """Trusted constructor: a term tuple and exponent vector already in
        canonical form."""
        new = object.__new__(RatFunc)
        _ratfunc_order(new, order)
        _ratfunc_terms(new, terms)
        _ratfunc_den_exps(new, exps)
        return new

    @staticmethod
    def over(order, terms, exps, tried=None):
        """terms / prod F_j^e_j in canonical form. tried, when given, names
        the only j whose F_j can divide terms."""
        if not exps:
            return RatFunc._raw(order, terms, exps)
        return RatFunc._raw(order, *RatFunc._normalize(order, terms, exps, tried))

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        return RatFunc._raw, (self.order, self.terms, self.den_exps)

    @staticmethod
    def _normalize(order, terms, exps, tried=None):
        """(terms, exps) for a nonempty exps, with each e_j lowered while
        F_j divides the numerator exactly: one division by a
        monic-up-to-sign int polynomial per attempt, in int coordinates, and
        the numerator is rebuilt once."""
        if not terms:
            return terms, ()
        rows = start = None
        out = []
        for j, e in exps:
            if tried is None or j in tried:
                if rows is None:
                    low, common, rows = _dense_rows(terms)
                    start = rows
                rows, k = _divide_out(rows, j, e)
                e -= k
            if e:
                out.append((j, e))
        if rows is start:
            return terms, exps
        # rows in the reduced basis decode to themselves
        return laurent_from_ints(order, enumerate(rows, low), common), tuple(out)

    @staticmethod
    def _common(a, b):
        """a and b promoted to the lcm of their orders. Promotion keeps the
        canonical form: whether F_j divides does not depend on the field."""
        if a.order == b.order:
            return a, b
        m = lcm(a.order, b.order)
        return _promoted(a, m), _promoted(b, m)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order=1):
        return RatFunc._raw(order, (), ())

    @staticmethod
    @lru_cache(maxsize=None)
    def one(order=1):
        """1, one shared instance per order."""
        return RatFunc._raw(order, ((0, Cyclotomic.one(order)),), ())

    @staticmethod
    def q(order=1):
        return RatFunc._raw(order, ((1, Cyclotomic.one(order)),), ())

    @staticmethod
    def q_power(e, order=1):
        return RatFunc._raw(order, ((e, Cyclotomic.one(order)),), ())

    @staticmethod
    def from_scalar(c, order=1):
        return RatFunc(order, ((0, c),))

    # -- structure ---------------------------------------------------------

    @property
    def den(self):
        """The denominator expanded over Q(zeta_order), a Laurent
        polynomial."""
        return RatFunc._raw(self.order, _den_terms(self.den_exps, self.order), ())

    def is_zero(self):
        return not self.terms

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not RatFunc:
            other = as_ratfunc(other, self.order)
        if self.order != other.order:
            self, other = RatFunc._common(self, other)
        order, a, b = self.order, self.den_exps, other.den_exps
        if a == b:
            return RatFunc.over(order, _add_terms(self.terms, other.terms), a)
        top = _dens_lcm((a, b))
        # an F_j with unequal exponents on the two sides divides exactly one
        # of the lifted numerators, so it cannot divide their sum
        tried = {j for j, e in a if (j, e) in b}
        return RatFunc.over(order, _add_terms(_lift(order, self.terms, top, a),
                                              _lift(order, other.terms, top, b)), top, tried)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(self.order, tuple((e, -c) for e, c in self.terms), self.den_exps)

    def __sub__(self, other):
        return self + (-as_ratfunc(other, self.order))

    def __rsub__(self, other):
        return as_ratfunc(other, self.order) - self

    def __mul__(self, other):
        if type(other) is not RatFunc:
            try:
                other = as_ratfunc(other, self.order)
            except TypeError:
                # an algebra element scales by this scalar in its __rmul__
                return NotImplemented
        if self.order != other.order:
            self, other = RatFunc._common(self, other)
        return RatFunc.over(self.order, _mul_terms(self.terms, other.terms),
                            multiply_dens(self.den_exps, other.den_exps))

    __rmul__ = __mul__

    def times_monomial(self, c, e=0):
        """self * c * q^e for a nonzero scalar c of self's field: an int, a
        Fraction, or a Cyclotomic whose order divides self.order (any other
        is a ValueError). The factor is a unit, so only the numerator
        changes and no renormalisation is needed."""
        order, unit = self.order, c == 1
        if unit and e == 0:
            return self
        if not unit and type(c) is Cyclotomic and order % c.order:
            raise ValueError("a coefficient of order %d does not lie in Q(zeta_%d)"
                             % (lcm(order, c.order), order))
        return RatFunc._raw(order, tuple((k + e, v if unit else v * c) for k, v in self.terms),
                            self.den_exps)

    def inv(self):
        """1 / self. The numerator must have the form c q^a prod Phi_j(q)^k,
        as every one the library inverts has (differences of powers of q);
        any other is a ValueError that names the value."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        order = self.order
        factors = _factor_den(order, self.terms)
        if factors is None:
            raise ValueError("cannot invert %r: its numerator is not c q^a prod Phi_j(q)^k"
                             % (self,))
        c, a, exps = factors
        # the F_j of the old numerator and denominator are distinct, so the
        # inverse is canonical as it stands
        return RatFunc._raw(order, _den_terms(self.den_exps, order), exps).times_monomial(
            c.inv(), -a)

    def __truediv__(self, other):
        return self * as_ratfunc(other, self.order).inv()

    def __rtruediv__(self, other):
        return as_ratfunc(other, self.order) * self.inv()

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = RatFunc.one(self.order)
        for _ in range(e):
            out = out * self
        return out

    def __eq__(self, other):
        # a RatFunc first: isinstance with Fraction goes through the ABC
        # machinery, and linalg.mat_mul compares every entry with zero
        if type(other) is not RatFunc:
            if isinstance(other, (int, Fraction, Cyclotomic)):
                other = as_ratfunc(other, self.order)
            elif not isinstance(other, RatFunc):
                return NotImplemented
        # Cyclotomic equality promotes across orders, and promotion keeps
        # the exponents and the nonzero coefficients
        return self.den_exps == other.den_exps and self.terms == other.terms

    def __hash__(self):
        # Cyclotomic hashes agree across orders. A constant hashes as its
        # coefficient, so it agrees with the int, Fraction or Cyclotomic it
        # equals
        terms = self.terms
        if self.den_exps:
            return hash((terms, self.den_exps))
        if not terms:
            return 0
        if len(terms) == 1 and terms[0][0] == 0:
            return hash(terms[0][1])
        return hash(terms)

    def __repr__(self):
        return "RatFunc(%s)" % self.pretty()

    def pretty(self):
        if not self.den_exps:
            return _pretty(self.terms)
        return "(%s)/(%s)" % (_pretty(self.terms),
                              _pretty(_den_terms(self.den_exps, self.order)))

    def to_json(self):
        return {"num": _terms_json(self.terms),
                "den": _terms_json(_den_terms(self.den_exps, self.order))}


_cyclotomic_order, _cyclotomic_nums, _cyclotomic_den = slot_setters(Cyclotomic)
_ratfunc_order, _ratfunc_terms, _ratfunc_den_exps = slot_setters(RatFunc)


def _promoted(x, order):
    """The RatFunc x over Q(zeta_order), order a multiple of x.order."""
    if x.order == order:
        return x
    return RatFunc._raw(order, tuple((e, c.promote(order)) for e, c in x.terms), x.den_exps)


def as_ratfunc(x, order=1):
    """x as a RatFunc: an int or a Fraction over Q(zeta_order), a Cyclotomic
    over Q(zeta_lcm(order, its order))."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Cyclotomic):
        return RatFunc.from_scalar(x, lcm(order, x.order))
    if isinstance(x, (int, Fraction)):
        return RatFunc.from_scalar(x, order)
    raise TypeError("cannot coerce %r to RatFunc" % (x,))


def value_key(x):
    """A cheap hashable key of the RatFunc x, equal for equal values of one order."""
    if len(x.terms) == 1:
        (e, c), = x.terms
        return x.order, x.den_exps, e, c.nums, c.den
    return x.order, x.den_exps, tuple([(e, c.nums, c.den) for e, c in x.terms])


def over_one_denominator(values):
    """The numerators of RatFuncs brought over their least common
    denominator, as (term tuples, exps): exps takes the largest e_j of each
    j, and each numerator is multiplied by the factors its own denominator
    lacks, in its own field. No division is tried. With one distinct
    denominator the numerators come back as they are."""
    first = values[0].den_exps if values else ()
    if all(x.den_exps == first for x in values):
        return [x.terms for x in values], first
    top = _dens_lcm(x.den_exps for x in values)
    return [_lift(x.order, x.terms, top, x.den_exps) for x in values], top


@lru_cache(maxsize=None)
def q_integer_factors(k):
    """The factors F_j, 1 < j | k, of the q-integer [k] = 1 + q + ... +
    q^(k-1) = (1 - q^k) / (1 - q), each as (1 / F_j over Q, the int
    coefficients of F_j, constant first)."""
    return tuple((RatFunc._raw(1, RatFunc.one(1).terms, ((j, 1),)), _den_factor(j))
                 for j in range(2, k + 1) if k % j == 0)


def value_at_one(rf):
    """rf at q = 1, a Cyclotomic of rf's field: the sum of the numerator's
    coefficients over prod F_j(1)^e_j, with F_j(1) = Phi_j(1) for j > 1.
    F_1(1) = 0, so an F_1 in the denominator is a PoleAtValue."""
    den = 1
    for j, e in rf.den_exps:
        if j == 1:
            raise PoleAtValue("the denominator vanishes at q = 1")
        den *= sum(cyclotomic_polynomial(j)) ** e
    total = Cyclotomic.zero(rf.order)
    for _, c in rf.terms:
        total = total + c
    return _reduced(total.order, total.nums, total.den * den)
