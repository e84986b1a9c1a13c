"""Exact scalar arithmetic: cyclotomic numbers, Laurent polynomials in q,
and the rational-function field they generate.

All values are immutable. A ``Cyclotomic`` of order d lives in the field
Q(zeta_d), stored in the reduced power basis 1, zeta, ..., zeta^(phi(d)-1)
modulo the d-th cyclotomic polynomial. ``Laurent`` polynomials have integer
exponents. ``RatFunc`` is the fraction field, kept in a canonical form so
equality is a plain structural comparison. Equal values hash equally, also
across field orders and across the int -> Cyclotomic -> Laurent -> RatFunc
coercions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd


class NonIntegralExponent(Exception):
    """A q-exponent of an isomorphism image came out as an odd number of
    half-steps, so it is not an integer power of q."""


class PoleAtValue(Exception):
    """Evaluation of a rational function at a zero of its denominator."""


# ---------------------------------------------------------------------------
# cyclotomic polynomials


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d):
    """Coefficient list (constant first) of the d-th cyclotomic polynomial."""
    if d < 1:
        raise ValueError("order must be positive")
    # Phi_d = (x^d - 1) / prod of Phi_e over proper divisors e of d
    poly = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
    for e in range(1, d):
        if d % e == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(e))
            if rem[-1] != 0:
                raise ArithmeticError("inexact polynomial division")
    return tuple(poly)


@lru_cache(maxsize=None)
def _trace_weights(d):
    """Normalised trace to Q of each basis power zeta_d^i. That power is a
    primitive m-th root of unity, m = d/gcd(i, d), and the mean of the
    primitive m-th roots is minus the subleading coefficient of Phi_m over
    its degree. The trace does not depend on the field a number lies in."""
    out = []
    for i in range(len(cyclotomic_polynomial(d)) - 1):
        phi_m = cyclotomic_polynomial(d // int_gcd(i, d))
        out.append(-phi_m[-2] / (len(phi_m) - 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _power_table(d):
    """Coords of zeta_d^k for k = 0..d-1 in the reduced power basis."""
    phi_poly = cyclotomic_polynomial(d)
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


class Cyclotomic:
    """An element of Q(zeta_d) in the reduced power basis mod Phi_d."""

    __slots__ = ("order", "coords")

    def __init__(self, order, coords):
        deg = len(cyclotomic_polynomial(order)) - 1
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        if len(coords) != deg:
            raise ValueError("expected %d coordinates for order %d" % (deg, order))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(r, order=1):
        deg = len(cyclotomic_polynomial(order)) - 1
        coords = [Fraction(r)] + [Fraction(0)] * (deg - 1)
        return Cyclotomic(order, coords)

    @staticmethod
    def zero(order=1):
        return Cyclotomic.from_rational(0, order)

    @staticmethod
    def one(order=1):
        return Cyclotomic.from_rational(1, order)

    @staticmethod
    def root_power(order, e):
        """zeta_order^e, reduced."""
        return Cyclotomic(order, _power_table(order)[e % order])

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
        table = _power_table(order)
        deg = len(cyclotomic_polynomial(order)) - 1
        out = [Fraction(0)] * deg
        for i, c in enumerate(self.coords):
            if c != 0:
                root = table[(i * step) % order]
                for j in range(deg):
                    out[j] += c * root[j]
        return Cyclotomic(order, out)

    @staticmethod
    def _common(a, b):
        if a.order == b.order:
            return a, b
        m = a.order * b.order // int_gcd(a.order, b.order)
        return a.promote(m), b.promote(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_cyclotomic(other, self.order)
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coords])

    def __sub__(self, other):
        return self + (-_as_cyclotomic(other, self.order))

    def __rsub__(self, other):
        return _as_cyclotomic(other, self.order) - self

    def __mul__(self, other):
        other = _as_cyclotomic(other, self.order)
        a, b = Cyclotomic._common(self, other)
        deg = len(a.coords)
        prod = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a.coords):
            if x == 0:
                continue
            for j, y in enumerate(b.coords):
                if y != 0:
                    prod[i + j] += x * y
        # reduce mod Phi
        phi_poly = cyclotomic_polynomial(a.order)
        for k in range(len(prod) - 1, deg - 1, -1):
            c = prod[k]
            if c != 0:
                prod[k] = Fraction(0)
                for j in range(deg):
                    prod[k - deg + j] -= c * phi_poly[j]
        return Cyclotomic(a.order, prod[:deg])

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coords[0], self.order)
        phi_poly = list(cyclotomic_polynomial(self.order))
        a = list(self.coords)
        # extended gcd of a and Phi in Q[x]; Phi irreducible so gcd is 1
        r0, r1 = phi_poly, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r1 is a nonzero constant; s1 * a == r1 (mod Phi)
        c = r1[0]
        inv_coords = [x / c for x in s1]
        deg = len(self.coords)
        inv_coords += [Fraction(0)] * (deg - len(inv_coords))
        return Cyclotomic(self.order, inv_coords[:deg])

    def __truediv__(self, other):
        other = _as_cyclotomic(other, self.order)
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_cyclotomic(other, self.order) * self.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.coords == b.coords

    def __hash__(self):
        # the normalised trace: equal across promotions, and the number
        # itself for rationals
        return hash(sum(c * w for c, w in zip(self.coords, _trace_weights(self.order))
                        if c))

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


def root_of_unity(d, j):
    """The j-th of the d-th roots of unity, zeta_d^(j-1); j=1 gives 1."""
    if not 1 <= j <= d:
        raise ValueError("root index %d out of range 1..%d" % (j, d))
    return Cyclotomic.root_power(d, j - 1)


# polynomial helpers on coefficient lists (constant first) over Q or Q(zeta)

def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def _poly_divmod(num, den):
    """Long division of Fraction or Cyclotomic coefficient lists: returns
    (quotient, remainder), the remainder without zero leading terms."""
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


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != 0:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# Laurent polynomials in q


class Laurent:
    """Laurent polynomial in q with integer exponents over a cyclotomic
    field: sorted (exponent, coefficient) terms, no zero coefficients."""

    __slots__ = ("order", "terms", "_hash")

    def __init__(self, order, terms):
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
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", tuple(sorted(clean.items())))

    def __setattr__(self, *a):
        raise AttributeError("Laurent is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order=1):
        return Laurent(order, {})

    @staticmethod
    def one(order=1):
        return Laurent(order, {0: Cyclotomic.one(order)})

    @staticmethod
    def q(order=1):
        return Laurent(order, {1: Cyclotomic.one(order)})

    @staticmethod
    def q_power(e, order=1):
        return Laurent(order, {e: Cyclotomic.one(order)})

    @staticmethod
    def from_scalar(c, order=1):
        return Laurent(order, {0: _as_cyclotomic(c, order)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms[0][0] == 0 and self.terms[0][1] == 1

    def min_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        return self.terms[0][0]

    def max_exp(self):
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        return self.terms[-1][0]

    def constant(self):
        for e, c in self.terms:
            if e == 0:
                return c
        return Cyclotomic.zero(self.order)

    @staticmethod
    def _common(a, b):
        if a.order == b.order:
            return a, b
        m = a.order * b.order // int_gcd(a.order, b.order)
        return Laurent(m, a.terms), Laurent(m, b.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_laurent(other, self.order)
        a, b = Laurent._common(self, other)
        out = dict(a.terms)
        for e, c in b.terms:
            out[e] = out.get(e, Cyclotomic.zero(a.order)) + c
        return Laurent(a.order, out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent(self.order, {e: -c for e, c in self.terms})

    def __sub__(self, other):
        return self + (-_as_laurent(other, self.order))

    def __rsub__(self, other):
        return _as_laurent(other, self.order) - self

    def __mul__(self, other):
        other = _as_laurent(other, self.order)
        a, b = Laurent._common(self, other)
        out = {}
        for e1, c1 in a.terms:
            for e2, c2 in b.terms:
                e = e1 + e2
                p = c1 * c2
                if e in out:
                    out[e] = out[e] + p
                else:
                    out[e] = p
        return Laurent(a.order, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Laurent.from_scalar(other, self.order)
        elif isinstance(other, Cyclotomic):
            other = Laurent.from_scalar(other, other.order)
        if not isinstance(other, Laurent):
            return NotImplemented
        a, b = Laurent._common(self, other)
        return a.terms == b.terms

    def __hash__(self):
        # computed once: denominators are dict keys in the representation
        # code. A constant hashes as its coefficient, so it agrees with ints
        try:
            return self._hash
        except AttributeError:
            pass
        if all(e == 0 for e, _ in self.terms):
            h = hash(self.constant())
        else:
            h = hash(self.terms)
        object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return "Laurent(%s)" % self.pretty()

    def pretty(self):
        """Human-readable form like 'q^2 + 1 - q^-1'."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
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

    def to_json(self):
        return [[str(e), c.to_json()] for e, c in self.terms]


def _as_laurent(x, order):
    if isinstance(x, Laurent):
        return x
    if isinstance(x, (int, Fraction, Cyclotomic)):
        return Laurent.from_scalar(x, order)
    raise TypeError("cannot coerce %r to Laurent" % (x,))


def _laurent_gcd(a, b):
    """Monic gcd of two Laurent polynomials, not both zero, as an ordinary
    polynomial (minimal exponent 0)."""
    pa = _to_dense(_shift_to_zero(a))
    pb = _to_dense(_shift_to_zero(b))
    while len(pb) > 1 or not pb[0].is_zero():
        pa, pb = pb, _poly_divmod(pa, pb)[1]
    lead = pa[-1]
    return Laurent(a.order, {i: c / lead for i, c in enumerate(pa)})


def _shift_to_zero(p):
    if p.is_zero():
        return p
    m = p.min_exp()
    return Laurent(p.order, {e - m: c for e, c in p.terms})


def _to_dense(p):
    order = p.order
    n = p.max_exp() + 1 if not p.is_zero() else 1
    out = [Cyclotomic.zero(order)] * n
    for e, c in p.terms:
        out[e] = c
    return out


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Element of the rational-function field over Q(zeta_d).

    Canonical form: num/den coprime, den with minimal exponent 0 and its
    lowest-degree coefficient equal to 1. Equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if den is None:
            den = Laurent.one(num.order)
        if not _normalized:
            num, den = RatFunc._normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def _normalize(num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = Laurent._common(num, den)
        order = num.order
        if den.is_one():
            return num, den
        if num.is_zero():
            return Laurent.zero(order), Laurent.one(order)
        sn, sd = num.min_exp(), den.min_exp()
        num0, den0 = _shift_to_zero(num), _shift_to_zero(den)
        g = _laurent_gcd(num0, den0)
        if not g.is_one():
            gd = _to_dense(g)
            reduced = []
            for p in (num0, den0):
                quot, rem = _poly_divmod(_to_dense(p), gd)
                if not rem[-1].is_zero():
                    raise ArithmeticError("inexact Laurent division")
                reduced.append(Laurent(order, dict(enumerate(quot))))
            num0, den0 = reduced
        cinv = den0.terms[0][1].inv()  # constant coefficient, nonzero by construction
        num0 = Laurent(order, {e + sn - sd: v * cinv for e, v in num0.terms})
        den0 = Laurent(order, {e: v * cinv for e, v in den0.terms})
        return num0, den0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order=1):
        return RatFunc(Laurent.zero(order), Laurent.one(order), _normalized=True)

    @staticmethod
    def one(order=1):
        return RatFunc(Laurent.one(order), Laurent.one(order), _normalized=True)

    @staticmethod
    def q(order=1):
        return RatFunc(Laurent.q(order), Laurent.one(order), _normalized=True)

    @staticmethod
    def q_power(e, order=1):
        return RatFunc(Laurent.q_power(e, order))

    @staticmethod
    def from_scalar(c, order=1):
        return RatFunc(Laurent.from_scalar(c, order))

    # -- structure ---------------------------------------------------------

    @property
    def order(self):
        return self.num.order

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_laurent(self):
        return self.den.is_one()

    def as_laurent(self):
        if not self.is_laurent():
            raise ValueError("denominator is not a unit: %r" % (self,))
        return self.num

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_ratfunc(other, self.order)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-as_ratfunc(other, self.order))

    def __rsub__(self, other):
        return as_ratfunc(other, self.order) - self

    def __mul__(self, other):
        other = as_ratfunc(other, self.order)
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def times_monomial(self, c, e=0):
        """self * c * q^e for a nonzero scalar c of self's field. The factor
        is a unit, so only the numerator changes and no renormalisation is
        needed."""
        unit = c == 1
        if unit and e == 0:
            return self
        num = Laurent(self.order, [(k + e, v if unit else v * c)
                                   for k, v in self.num.terms])
        return RatFunc(num, self.den, _normalized=True)

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return RatFunc(self.den, self.num)

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
        if isinstance(other, (int, Fraction, Cyclotomic, Laurent)):
            other = as_ratfunc(other, self.order)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # with denominator 1, hash as the numerator, so a RatFunc agrees with
        # the Laurent, Cyclotomic or int it equals
        if self.den.is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_one():
            return "RatFunc(%s)" % self.num.pretty()
        return "RatFunc((%s)/(%s))" % (self.num.pretty(), self.den.pretty())

    def pretty(self):
        if self.den.is_one():
            return self.num.pretty()
        return "(%s)/(%s)" % (self.num.pretty(), self.den.pretty())

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def as_ratfunc(x, order=1):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Laurent):
        return RatFunc(x)
    if isinstance(x, (int, Fraction, Cyclotomic)):
        return RatFunc.from_scalar(x, order)
    raise TypeError("cannot coerce %r to RatFunc" % (x,))


def specialize_q(rf, value):
    """Evaluate a rational function at a cyclotomic value of q."""
    rf = as_ratfunc(rf)
    num = _eval_laurent(rf.num, value)
    den = _eval_laurent(rf.den, value)
    if den.is_zero():
        raise PoleAtValue("denominator vanishes at the given value")
    return num / den


def _eval_laurent(p, value):
    order = value.order if isinstance(value, Cyclotomic) else p.order
    value = _as_cyclotomic(value, order)
    if value.is_zero() and p.terms and p.min_exp() < 0:
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
