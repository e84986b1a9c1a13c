"""Exact arithmetic in the framed Hecke algebra with parameters (d, n), in
the standard basis {t^a g_w}. The d=1 instance is the plain Hecke algebra
H_n(q) in the basis {G_w}.

Elements are immutable; multiplication rewrites to normal form using
  g_w t_j  = t_{w(j)} g_w,
  g_w g_i  = g_{w s_i}                                   if l(w s_i) > l(w),
  g_w g_i  = q g_{w s_i} + (q-1) e_{w(i), w(i+1)} g_w    otherwise,
where e_{j,k} = (1/d) sum_s t_j^s t_k^{-s}.
"""

from __future__ import annotations

from fractions import Fraction

from .permutations import Perm, act_on_character, coset_system
from .scalars import Cyclotomic, RatFunc, as_ratfunc, specialize_q


class NTooSmall(Exception):
    """The requested ideal generator needs n >= 3."""


class YElement:
    """An element of the (d, n) algebra: sorted terms ((tmon, w), coeff)."""

    __slots__ = ("d", "n", "terms")

    def __init__(self, d, n, terms):
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (tmon, w), c in items:
            tmon = tuple(a % d for a in tmon)
            if len(tmon) != n or w.n != n:
                raise ValueError("term size mismatch")
            c = as_ratfunc(c, order=d)
            key = (tmon, w)
            if key in clean:
                c = clean[key] + c
            if c.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = c
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", tuple(
            sorted(clean.items(), key=lambda kv: (kv[0][0], kv[0][1].images))))

    def __setattr__(self, *a):
        raise AttributeError("YElement is immutable")

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _check_compat(self, other):
        if not isinstance(other, YElement):
            raise TypeError("expected YElement")
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("algebra parameter mismatch: (%d,%d) vs (%d,%d)"
                             % (self.d, self.n, other.d, other.n))

    # -- linear operations ---------------------------------------------------

    def __add__(self, other):
        self._check_compat(other)
        return YElement(self.d, self.n, list(self.terms) + list(other.terms))

    def __neg__(self):
        return YElement(self.d, self.n, [(k, -c) for k, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = as_ratfunc(c, order=self.d)
        return YElement(self.d, self.n, [(k, c * v) for k, v in self.terms])

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, YElement):
            return self.scale(other)
        self._check_compat(other)
        d, n = self.d, self.n
        q = RatFunc.q(d)
        qm1_over_d = (q - RatFunc.one(d)) * RatFunc.from_scalar(Fraction(1, d), d)
        acc = {}
        for (a, u), c1 in self.terms:
            for (b, v), c2 in other.terms:
                uinv = u.inv()
                tmon = tuple((a[j] + b[uinv(j + 1) - 1]) % d for j in range(n))
                _fold_braid_word(d, n, acc, tmon, u, v.reduced_word(),
                                 c1 * c2, q, qm1_over_d)
        return YElement(d, n, acc)

    def __rmul__(self, other):
        return self.scale(other)

    # -- identity and display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, YElement):
            return NotImplemented
        return (self.d, self.n, self.terms) == (other.d, other.n, other.terms)

    def __hash__(self):
        return hash((self.d, self.n, self.terms))

    def __repr__(self):
        if self.is_zero():
            return "YElement<d=%d,n=%d>(0)" % (self.d, self.n)
        bits = []
        for (tmon, w), c in self.terms:
            t = "".join("t%d^%d" % (j + 1, a) if a > 1 else "t%d" % (j + 1)
                        for j, a in enumerate(tmon) if a)
            g = "".join("g%d" % i for i in w.reduced_word())
            mono = (t + g) or "1"
            bits.append("(%s)*%s" % (c.pretty(), mono))
        return "YElement<d=%d,n=%d>(%s)" % (self.d, self.n, " + ".join(bits))

    def to_json(self):
        return [{"t": list(tmon), "w": w.to_json(), "coeff": c.to_json()}
                for (tmon, w), c in self.terms]


def _acc_term(acc, key, c):
    if key in acc:
        c = acc[key] + c
    if c.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = c


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
# constructors


def zero(d, n):
    return YElement(d, n, {})


def unit(d, n):
    return YElement(d, n, {((0,) * n, Perm.identity(n)): RatFunc.one(d)})


def gen_t(d, n, j, power=1):
    if not 1 <= j <= n:
        raise ValueError("t index %d out of range 1..%d" % (j, n))
    tmon = [0] * n
    tmon[j - 1] = power % d
    return YElement(d, n, {(tuple(tmon), Perm.identity(n)): RatFunc.one(d)})


def gen_g(d, n, i):
    if not 1 <= i <= n - 1:
        raise ValueError("g index %d out of range 1..%d" % (i, n - 1))
    return YElement(d, n, {((0,) * n, Perm.transposition(n, i)): RatFunc.one(d)})


def gen_g_inv(d, n, i):
    """g_i^{-1} = q^{-1} g_i + (q^{-1} - 1) e_i."""
    qinv = RatFunc.q_power(-1, d)
    return gen_g(d, n, i).scale(qinv) + e(d, n, i).scale(qinv - RatFunc.one(d))


def g_word(d, n, word):
    out = unit(d, n)
    for i in word:
        out = out * gen_g(d, n, i)
    return out


def e_pair(d, n, j, k):
    """e_{j,k} = (1/d) sum_s t_j^s t_k^{-s}."""
    if not (1 <= j <= n and 1 <= k <= n and j != k):
        raise ValueError("bad index pair (%d, %d)" % (j, k))
    terms = {}
    ident = Perm.identity(n)
    c = RatFunc.from_scalar(Fraction(1, d), d)
    for s in range(d):
        tmon = [0] * n
        tmon[j - 1] = s % d
        tmon[k - 1] = (-s) % d
        _acc_term(terms, (tuple(tmon), ident), c)
    return YElement(d, n, terms)


def e(d, n, i):
    if not 1 <= i <= n - 1:
        raise ValueError("e index %d out of range 1..%d" % (i, n - 1))
    return e_pair(d, n, i, i + 1)


def T(d, n, j):
    """T_j = (1/d) sum_s t_j^s."""
    if not 1 <= j <= n:
        raise ValueError("T index %d out of range 1..%d" % (j, n))
    terms = {}
    ident = Perm.identity(n)
    c = RatFunc.from_scalar(Fraction(1, d), d)
    for s in range(d):
        tmon = [0] * n
        tmon[j - 1] = s
        _acc_term(terms, (tuple(tmon), ident), c)
    return YElement(d, n, terms)


# ---------------------------------------------------------------------------
# characters and idempotents


def chi_value(d, exps, tmon):
    """chi(t^tmon) for the character with chi(t_j) = zeta_d^{exps_j}."""
    return Cyclotomic.root_power(d, sum(c * a for c, a in zip(exps, tmon)) % d)


def E_chi(d, n, exps):
    """The primitive idempotent prod_j (1/d) sum_s chi(t_j)^s t_j^{-s},
    where chi(t_j) = zeta_d^{exps_j}."""
    if len(exps) != n:
        raise ValueError("character needs %d values" % n)
    terms = {}
    scale = RatFunc.from_scalar(Fraction(1, d ** n), d)
    def build(j, tmon, phase):
        if j == n:
            _acc_term(terms, (tuple(tmon), Perm.identity(n)),
                      scale * RatFunc.from_scalar(Cyclotomic.root_power(d, phase), d))
            return
        for s in range(d):
            build(j + 1, tmon + [(-s) % d], (phase + exps[j] * s) % d)
    build(0, [], 0)
    return YElement(d, n, terms)


def staircase_exponents(mu):
    """The base character of a composition: the first mu_1 strands get root
    index 0, the next mu_2 get 1, and so on."""
    out = []
    for i, p in enumerate(mu.parts):
        out.extend([i] * p)
    return tuple(out)


def character_exponents(mu, k):
    """Exponent vector of the k-th character in the block of mu."""
    sys = coset_system(mu)
    return act_on_character(sys.rep(k), staircase_exponents(mu))


def E_mu(d, n, mu):
    """Central idempotent: sum of E_chi over the coset orbit of mu's
    staircase character."""
    if mu.d != d or mu.n != n:
        raise ValueError("composition does not match algebra parameters")
    out = zero(d, n)
    for k in range(1, coset_system(mu).m + 1):
        out = out + E_chi(d, n, character_exponents(mu, k))
    return out


# ---------------------------------------------------------------------------
# ideal generators and shifts


def g_block(d, n, i):
    """g_{i,i+1}: the sum of g_w over the six permutations of {i, i+1, i+2}."""
    if not 1 <= i <= n - 2:
        raise ValueError("block index %d out of range 1..%d" % (i, n - 2))
    words = [(), (i,), (i + 1,), (i, i + 1), (i + 1, i), (i, i + 1, i)]
    out = zero(d, n)
    for word in words:
        out = out + g_word(d, n, word)
    return out


def ftl_generator(d, n):
    """e_1 e_2 g_{1,2}; the quotient by its two-sided ideal is the framed
    Temperley-Lieb algebra (zero ideal for n <= 2)."""
    if n <= 2:
        raise NTooSmall("ideal generator requires n >= 3")
    return e(d, n, 1) * e(d, n, 2) * g_block(d, n, 1)


def ctl_generator(d, n):
    """T_1 e_1 e_2 g_{1,2} (zero ideal for n <= 2)."""
    if n <= 2:
        raise NTooSmall("ideal generator requires n >= 3")
    return T(d, n, 1) * ftl_generator(d, n)


# ---------------------------------------------------------------------------
# classical specialization


def specialize_group_algebra(x):
    """Image at q = 1: a map {(tmon, perm): Cyclotomic} in the group algebra
    of the wreath product (Z/d) wr S_n. Raises PoleAtValue when undefined."""
    one = Cyclotomic.one(x.d)
    out = {}
    for key, c in x.terms:
        v = specialize_q(c, one)
        if not v.is_zero():
            out[key] = v
    return out


def group_algebra_mul(d, n, xs, ys):
    """Reference product in the wreath-product group algebra."""
    out = {}
    for (a, u), c1 in xs.items():
        for (b, v), c2 in ys.items():
            uinv = u.inv()
            tmon = tuple((a[j] + b[uinv(j + 1) - 1]) % d for j in range(n))
            key = (tmon, u * v)
            s = out.get(key, Cyclotomic.zero(d)) + c1 * c2
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return out
