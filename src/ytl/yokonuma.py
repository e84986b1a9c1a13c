"""Exact arithmetic in the framed Hecke algebra with parameters (d, n), in
the standard basis {t^a g_w}. The d=1 instance is the plain Hecke algebra
H_n(q) in the basis {G_w}.

Elements are immutable; multiplication rewrites to normal form using
  g_w t_j  = t_{w(j)} g_w,
  g_w g_i  = g_{w s_i}                                   if l(w s_i) > l(w),
  g_w g_i  = q g_{w s_i} + (q-1) e_{w(i), w(i+1)} g_w    otherwise,
where e_{j,k} = (1/d) sum_s t_j^s t_k^{-s}.

An element keeps one int encoding (_coded), known to this module alone,
built in one pass over its terms (_encoding, the only place where
coefficients become ints): each distinct coefficient value once, as a row
of ints in the group ring Z[Z/o] over one denominator, o = x.order, and
each term as (t-monomial, row index), grouped by the images of its
permutation. Each reader that packs packs each distinct row into one int
(_pack) once. The product works in (q, zeta_L), L the lcm of the operands'
orders; for each permutation v of the right operand it folds the left
operand times sum_b c_b t^b through the reduced word of v once, keyed by
(permutation, t-monomial id); the 1/d of an e-term becomes a power of d in
the common denominator. The character sums (character_sums), which psi_mu
and the seminormal evaluation read, shift the zeta powers of each row by
its root of unity. Their inverse (from_characters), which phi reads, takes
an element whose t-exponents are the characters' exponent vectors and
reads its encoding; a root of unity is a shift of digits. Both bound their
packed ints in one place (_check_span) and sort their outputs in one place
(_emit). The seminormal word matrices of reps are packed ints of the same
layout (seminormal_step), and the matrix of an element sums their products
with its character sums (seminormal_image), which the same pass encodes as
a term list keyed by (row components, w), each word's sums lifted over the
lcm of the word denominators by a cofactor kept per set of distinct
denominators (_word_lifts). One decoder (_decode) reads them all, with
masks set once per call: each distinct int once per call, and each
distinct q-chunk once per process while a table bounded by MAX_CHUNKS
keeps it (_CHUNKS). A long row is packed in halves and a long int walked
in pieces, so neither costs time quadratic in its powers of q.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .permutations import Composition, Perm, block_characters
from .scalars import (Cyclotomic, RatFunc, as_ratfunc, cyclotomic_from_ints, cyclotomic_polynomial,
                      laurent_from_ints, multiply_dens, over_one_denominator, q_integer_factors,
                      slot_setters, value_at_one, value_key)


# the largest packed int _int_product or from_characters builds, in bits
# (32 MiB); a product near it holds several at once, about 6x that at peak
MAX_PACKED_BITS = 1 << 28
# the most q-chunks _decode keeps reduced between calls, over all layouts
# (_CHUNKS); the whole table is cleared when it is full
MAX_CHUNKS = 1 << 12
# the most sets of word denominators _word_lifts keeps (_LIFTS); the whole
# table is cleared when it is full
MAX_LIFTS = 1 << 8
# _pack packs a row of more triples in halves, and _decode walks an int of
# more bits in pieces: shorter ones cost less by the plain loop
_PACK_TERMS = 32
_WALK_BITS = 1 << 12


class NTooSmall(Exception):
    """The requested ideal generator needs n >= 3."""


class YElement:
    """An element of the (d, n) algebra: sorted terms ((tmon, w), coeff).
    The slot _code (see _coded) takes no part in ==, hash, repr or pickling."""

    __slots__ = ("d", "n", "terms", "_code")

    def __init__(self, d, n, terms):
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (tmon, w), c in items:
            if not isinstance(w, Perm) or not all(isinstance(a, int) for a in tmon):
                raise TypeError("a term takes int t-exponents and a Perm, not %r" % ((tmon, w),))
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
        _fill(self, d, n, tuple(sorted(clean.items(), key=_term_order)))

    @staticmethod
    def _trusted(d, n, terms):
        """Trusted constructor from terms [((tmon, w), c)] in normal form,
        in any order: distinct keys, tmon of length n reduced mod d, w of
        degree n and c a nonzero RatFunc."""
        return YElement._sorted(d, n, tuple(sorted(terms, key=_term_order)))

    @staticmethod
    def _sorted(d, n, terms):
        """YElement._trusted for a tuple of terms sorted by _term_order."""
        new = object.__new__(YElement)
        _fill(new, d, n, terms)
        return new

    def __setattr__(self, *a):
        raise AttributeError("YElement is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        return YElement, (self.d, self.n, self.terms)

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def order(self):
        """The order of the smallest cyclotomic field holding Q(zeta_d) and
        every coefficient."""
        return _coded(self)[0]

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
        self._check_compat(other)
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
        if not self.terms or not other.terms:
            return zero(d, n)
        return YElement._sorted(d, n, _int_product(d, n, _coded(self), _coded(other)))

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


_set_d, _set_n, _set_terms, _set_code = slot_setters(YElement)


def _fill(x, d, n, terms):
    """Set the slots of a new YElement; its encoding is made on use."""
    _set_d(x, d)
    _set_n(x, n)
    _set_terms(x, terms)
    _set_code(x, None)


def _term_order(term):
    (tmon, w), _ = term
    return tmon, w.images


def _coded(x):
    """x's int encoding (_encoding of its terms), kept in x's slot from first use."""
    code = x._code
    if code is None:
        code = _encoding(x.d, x.terms)
        _set_code(x, code)
    return code


def _encoding(d, terms):
    """Terms [((tmon, w), c)] with distinct keys and nonzero RatFuncs c, w a
    Perm, in int coordinates, built in one pass: (order, den, common, groups,
    mass, low, high, ztop, rows), order the lcm of d and the orders of the
    c. The one place where coefficients become ints: each distinct
    coefficient value (scalars.value_key) is brought over den
    (scalars.over_one_denominator) and encoded once, as the row rows[i] of
    (q-exponent, zeta_order power, int) triples over the int common, rows in
    order of first appearance. groups maps the images of each permutation,
    in order of first appearance, to [(tmon, i)] for its terms; mass sums
    |int| over the rows of all terms; low and high are the lowest and
    highest q-exponent and ztop the highest zeta_order power."""
    index, values, counts, groups, order = {}, [], [], {}, d
    for (tmon, w), c in terms:
        key = value_key(c)
        i = index.get(key)
        if i is None:
            i = index[key] = len(values)
            values.append(c)
            counts.append(0)
            if order % c.order:
                order = lcm(order, c.order)
        counts[i] += 1
        group = groups.get(w.images)
        if group is None:
            group = groups[w.images] = []
        group.append((tmon, i))
    nums, den = over_one_denominator(values)
    common = lcm(*[v.den for num in nums for _, v in num])
    rows, mass, ztop, low, high = [], 0, 0, None, None
    for num, count in zip(nums, counts):
        row, own = [], 0
        if low is None or num[0][0] < low:
            low = num[0][0]
        if high is None or num[-1][0] > high:
            high = num[-1][0]
        for e, v in num:
            step, scale, z = order // v.order, common // v.den, 0
            for c in v.nums:
                if c:
                    c *= scale
                    row.append((e, z, c))
                    own += abs(c)
                    ztop = z if z > ztop else ztop
                z += step
        rows.append(row)
        mass += count * own
    return order, den, common, groups, mass, low, high, ztop, rows


def _int_product(d, n, left, right):
    """The product of two nonzero encoded elements (_coded), as a tuple of
    terms ((tmon, Perm), RatFunc) in normal form and order (_emit).

    Each distinct row of an operand is one int (_pack) over Q(zeta_L), L
    the lcm of the operands' orders, Z = z_left + z_right + 1 digits to a
    power of q for their highest zeta_L powers, each digit B bits wide. A
    product of two rows is one int multiplication, and z1 + z2 < Z never
    carries into the next power of q. The terms of the right operand that
    share a permutation v are folded through its reduced word together,
    keyed by (permutation, t-monomial) only: a step that descends sends P
    to d q P on w s_i and to (q - 1) P on each of the d shifted monomials of
    the e-term (q is a shift by B Z bits); any other step sends P to d P on
    w s_i. The factor d is the 1/d of the e-term, one more factor d of the
    common denominator.

    The digit width B is the bit length of sum|c_left| sum|c_right| (3d)^top,
    top the longest reduced word on the right, plus a sign bit and a spare:
    the row products have total mass sum|c_left| sum|c_right| (each term
    counted), a fold step sends mass m to at most d m + 2 d m, and shorter
    words are scaled by d per missing step, so no digit reaches 2^(B-2). A
    packed int spans the q-spreads of both operands plus one power per fold
    step (_check_span)."""
    lorder, lden, lcommon, lgroups, lmass, lmin, lmax, lztop, lrows = left
    rorder, rden, rcommon, rgroups, rmass, rmin, rmax, rztop, rrows = right
    order = lcm(lorder, rorder)
    lstep, rstep = order // lorder, order // rorder
    ids, _, add, shifts = _tmon_tables(d, n)
    top = max(len(_reduced_word(v)) for v in rgroups)
    zdigits = lztop * lstep + rztop * rstep + 1
    width = (lmass * rmass * (3 * d) ** top).bit_length() + 2
    qshift = width * zdigits
    _check_span("product", (lmax - lmin) + (rmax - rmin) + top + 1, qshift)
    lpacked = [_pack(row, lmin, lstep, zdigits, width) for row in lrows]
    rpacked = [_pack(row, rmin, rstep, zdigits, width) for row in rrows]
    lterms = [(u, _tmon_action(d, n, u), [(ids[a], lpacked[i]) for a, i in rows])
              for u, rows in lgroups.items()]
    acc = {}
    for v, rights in rgroups.items():
        work = {}
        word = _reduced_word(v)
        # the words shorter than top make up for their missing factors d
        scale = d ** (top - len(word))
        rights = [(ids[b], rpacked[j] * scale) for b, j in rights]
        for u, act, rows in lterms:
            # the left group times sum_b c_b t^b, all still left of g_v:
            # g_u t^b = t^{u(b)} g_u
            into = work[u] = {}
            for bid, pr in rights:
                y = act[bid]
                sums = add[y]
                for a, pl in rows:
                    try:
                        m = sums[a]
                    except KeyError:
                        m = sums[a] = _tmon_sum(d, n, a, y)
                    into[m] = into.get(m, 0) + pl * pr
        for i in word:
            work = _fold_step(work, i, d, qshift, shifts)
        for w, terms in work.items():
            into = acc.get(w)
            if into is None:
                acc[w] = terms
            else:
                for m, p in terms.items():
                    into[m] = into.get(m, 0) + p
    return _emit(d, n, [(m, w, p) for w, terms in acc.items() for m, p in terms.items() if p],
                 lmin + rmin, width, zdigits, order, lcommon * rcommon * d ** top,
                 multiply_dens(lden, rden))


def _pack(row, low, step, zdigits, width):
    """One int for a list of (q-exponent, zeta power, int) triples in
    ascending order of q-exponent, by Kronecker substitution in (q, zeta):
    the signed digit of zeta^(z step) q^e sits at index (e - low) zdigits +
    z step, each digit width bits wide; step lifts the zeta powers of a row
    of order o to order o step. A row of more than _PACK_TERMS triples packs
    its halves apart, each from its own lowest power of q, so a long row
    costs n log n, not n^2, in its length."""
    if len(row) > _PACK_TERMS:
        h = len(row) // 2
        mid = row[h][0]
        return (_pack(row[:h], low, step, zdigits, width)
                + (_pack(row[h:], mid, step, zdigits, width) << (mid - low) * zdigits * width))
    p = 0
    for e, z, c in row:
        p += c << ((e - low) * zdigits + z * step) * width
    return p


def _check_span(what, powers, qshift):
    """A packed int of powers powers of q, qshift bits each, past
    MAX_PACKED_BITS is a ValueError, raised before anything is packed."""
    if powers * qshift > MAX_PACKED_BITS:
        raise ValueError("the %s spans %d powers of q, %d bits packed, more than %d"
                         % (what, powers, powers * qshift, MAX_PACKED_BITS))


def _emit(d, n, outputs, low, width, zdigits, order, common, den):
    """The terms ((tmon, Perm), RatFunc) of nonzero packed outputs [(t-monomial
    id, images, packed)] with distinct keys, over common and den, by
    _term_order (an id sorts like its vector), those zero mod Phi dropped."""
    tmons = _tmon_tables(d, n)[1]
    outputs = sorted(outputs)
    coeffs = _decode([p for _, _, p in outputs], low, width, zdigits, order, common, den)
    return tuple([((tmons[m], _perm[w]), c) for (m, w, _), c in zip(outputs, coeffs)
                  if c is not None])


def _fold_step(work, i, d, qshift, shifts):
    """work {w: {m: packed}} times g_i on the right."""
    new = {}
    for w, terms in work.items():
        ws, j, k = _right_steps(w)[i]
        into = new.setdefault(ws, {})
        if j:
            stay = new.setdefault(w, {})
            shifted = shifts[j, k]
            for m, p in terms.items():
                pq = p << qshift
                into[m] = into.get(m, 0) + pq * d
                # (q - 1) e_{j,k}: d terms t_j^s t_k^-s, each over d
                pq -= p
                for m2 in shifted[m]:
                    stay[m2] = stay.get(m2, 0) + pq
        else:
            for m, p in terms.items():
                into[m] = into.get(m, 0) + p * d
    return new


# The q-chunks _decode has reduced, kept between calls: {(order, common,
# width, zdigits): {chunk: its Cyclotomic, or None where it vanishes mod
# Phi_order}}, at most MAX_CHUNKS chunks in all, _chunk_room of them free.
# Products meet the same chunks again and again: 60 rounds of the ring
# benchmark's products reduce 38,456 chunks one call at a time, but only
# 3,261 distinct ones per process.
_CHUNKS = {}
_chunk_room = MAX_CHUNKS


def _forget_chunks():
    """Empty the q-chunk table of _decode."""
    global _chunk_room
    _CHUNKS.clear()
    _chunk_room = MAX_CHUNKS


def _decode(packs, low, width, zdigits, order, common, den):
    """The RatFuncs of packed sums of products of rows over common and den,
    one per int of packs, in order, None where one vanishes mod Phi_order;
    each has its lowest digit at q^low and Z = zdigits signed digits of B =
    width bits to a power of q. The masks, bias and zero coordinates are set
    once per call; each distinct int of a call is decoded once, and each
    distinct q-chunk of a layout (order, common, width, zdigits) is reduced
    once per process while the table _CHUNKS keeps it: a chunk of one digit
    straight to its Cyclotomic in lowest terms. An int of more than
    _WALK_BITS bits is walked in pieces (_halves), so a long output costs n
    log n, not n^2, in its number of q-chunks."""
    global _chunk_room
    qshift = width * zdigits
    qmask, mask = (1 << qshift) - 1, (1 << width) - 1
    qhalf, half = 1 << (qshift - 1), 1 << (width - 1)
    # each digit plus 2^(B-1) lies in [0, 2^B): no borrows
    bias = qmask // mask * half
    zeros = (0,) * (len(cyclotomic_polynomial(order)) - 2)
    layout = (order, common, width, zdigits)
    chunks = _CHUNKS.get(layout)
    if chunks is None:
        chunks = _CHUNKS[layout] = {}
    done, out = {}, []
    for packed in packs:
        c = done.get(packed, done)
        if c is done:
            terms = []
            for e, p in (((low, packed),) if packed.bit_length() <= _WALK_BITS
                         else _halves(packed, low, qshift)):
                while p:
                    chunk = p & qmask
                    if not chunk:
                        # a run of zero q-chunks carries no borrow: one shift skips it
                        skip = ((p & -p).bit_length() - 1) // qshift
                        p >>= skip * qshift
                        e += skip
                        chunk = p & qmask
                    p >>= qshift
                    if chunk >= qhalf:
                        chunk -= qmask + 1
                        p += 1
                    v = chunks.get(chunk, chunks)
                    if v is chunks:
                        if -half < chunk < half:
                            # the power of zeta 0 alone, in lowest terms
                            g = gcd(chunk, common)
                            v = Cyclotomic._raw(order, (chunk // g, *zeros), common // g)
                        else:
                            v = cyclotomic_from_ints(order, [(chunk + bias >> z & mask) - half
                                                             for z in range(0, qshift, width)],
                                                     common)
                        if not _chunk_room:
                            _forget_chunks()
                            chunks = _CHUNKS[layout] = {}
                        chunks[chunk] = v
                        _chunk_room -= 1
                    if v is not None:
                        terms.append((e, v))
                    e += 1
            c = done[packed] = RatFunc.over(order, tuple(terms), den) if terms else None
        out.append(c)
    return out


def _halves(p, e, qshift):
    """The packed int p whose lowest q-chunk is the power q^e, as pieces
    [(e_i, p_i)] in ascending e_i with p = sum p_i 2^((e_i - e) qshift),
    each of at most _WALK_BITS bits or under two q-chunks: the signed
    q-chunks of p_i are those of p from q^e_i on. Each split takes the low
    half of p in its signed range, and the high half takes its borrow."""
    h = p.bit_length() // (2 * qshift)
    if not h or p.bit_length() <= _WALK_BITS:
        return [(e, p)]
    s = h * qshift
    top = 1 << (s - 1)
    lo = ((p + top) & ((top << 1) - 1)) - top
    return _halves(lo, e, qshift) + _halves((p - lo) >> s, e + h, qshift)


# Tables per permutation or t-exponent vector, so bounded by the size of the
# algebra: a product creates no Perm and no reduced word once they are filled.


class _Table(dict):
    """A dict that computes a missing value as fill(key) and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


_perm = _Table(Perm)


@lru_cache(maxsize=None)
def _reduced_word(images):
    return _perm[images].reduced_word()


@lru_cache(maxsize=None)
def _right_steps(images):
    """Indexed by i = 1..n-1 (entry 0 unused): (images of w s_i, j, k), with
    (j, k) = (w(i), w(i+1)) where l(w s_i) < l(w) and (0, 0) otherwise."""
    w = _perm[images]
    out = [None]
    for i in range(1, len(images)):
        j, k = images[i - 1], images[i]
        ws = images[:i - 1] + (k, j) + images[i + 1:]
        out.append((ws, j, k) if w.descends_right(i) else (ws, 0, 0))
    return tuple(out)


@lru_cache(maxsize=None)
def _tmon_tables(d, n):
    """The t-exponent vectors of (d, n) by int id, the number of a vector in
    base d (its place in the order of itertools.product), as (ids, tmons,
    add, shifts): ids maps a vector to its id and tmons back, add[y][x] is
    the id of tmons[x] + tmons[y] and shifts[j, k][x] lists the ids of
    _e_shifts(tmons[x], j, k, d). Each fills on demand, so a product at
    large d^n costs what its terms cost, not d^n or d^(2n) entries."""
    def number(m):
        return sum(a * d ** (n - 1 - j) for j, a in enumerate(m))

    def vector(x):
        return tuple(x // d ** (n - 1 - j) % d for j in range(n))

    def shifted(pair):
        j, k = pair
        return _Table(lambda x: tuple([ids[m] for m in _e_shifts(tmons[x], j, k, d)]))

    ids, tmons = _Table(number), _Table(vector)
    # add[y] is a plain dict, filled by the product through _tmon_sum: a
    # lookup in a dict subclass costs more, and this one is made per pair
    # of terms
    return ids, tmons, _Table(lambda y: {}), _Table(shifted)


def _tmon_sum(d, n, x, y):
    """The id of tmons[x] + tmons[y] in the tables of (d, n)."""
    ids, tmons = _tmon_tables(d, n)[:2]
    return ids[tuple([(a + b) % d for a, b in zip(tmons[x], tmons[y])])]


@lru_cache(maxsize=None)
def _tmon_action(d, n, images):
    """The id of u(b) = (b_{u^-1(1)}, ..., b_{u^-1(n)}) for each id of b, u
    the permutation of the given images, filled on demand: g_u t^b =
    t^{u(b)} g_u."""
    ids, tmons = _tmon_tables(d, n)[:2]
    where = [0] * n
    for j, x in enumerate(images):
        where[x - 1] = j

    def act(b):
        m = tmons[b]
        return ids[tuple([m[j] for j in where])]

    return _Table(act)


def _e_shifts(m, j, k, d):
    """The t-exponent vectors m + s (e_j - e_k), s = 0..d-1."""
    step = [(i == j - 1) - (i == k - 1) for i in range(len(m))]
    return tuple(tuple([(a + s * b) % d for a, b in zip(m, step)]) for s in range(d))


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


def e_pair(d, n, j, k):
    """e_{j,k} = (1/d) sum_s t_j^s t_k^{-s}."""
    if not (1 <= j <= n and 1 <= k <= n and j != k):
        raise ValueError("bad index pair (%d, %d)" % (j, k))
    c = RatFunc.from_scalar(Fraction(1, d), d)
    return YElement(d, n, [((m, Perm.identity(n)), c) for m in _e_shifts((0,) * n, j, k, d)])


def e(d, n, i):
    if not 1 <= i <= n - 1:
        raise ValueError("e index %d out of range 1..%d" % (i, n - 1))
    return e_pair(d, n, i, i + 1)


def T(d, n, j):
    """T_j = (1/d) sum_s t_j^s."""
    if not 1 <= j <= n:
        raise ValueError("T index %d out of range 1..%d" % (j, n))
    c = RatFunc.from_scalar(Fraction(1, d), d)
    zeros = (0,) * n
    return YElement(d, n, [((zeros[:j - 1] + (s,) + zeros[j:], Perm.identity(n)), c)
                           for s in range(d)])


# ---------------------------------------------------------------------------
# characters and idempotents


def chi_value(d, exps, tmon):
    """chi(t^tmon) for the character with chi(t_j) = zeta_d^{exps_j}."""
    return Cyclotomic.root_power(d, sum(c * a for c, a in zip(exps, tmon)) % d)


def character_sums(x, characters):
    """{w: {exps: c}} for each permutation w of x, in order of first
    appearance, and each distinct exponent vector exps of characters, in
    order of first appearance: c = sum_a x[t^a g_w] zeta_d^(a . exps), a
    RatFunc over Q(zeta_order) for order = x.order, read off the encoding x
    keeps (_coded). The root of unity of a row shifts its zeta powers by
    (a . exps mod d) order/d; each sum is decoded once."""
    d = x.d
    order, den, common, groups, _, _, _, _, values = _coded(x)
    step = order // d
    characters = dict.fromkeys(characters)
    out = {}
    for w, rows in groups.items():
        sums = out[_perm[w]] = {}
        for exps in characters:
            by_e = {}
            for tmon, i in rows:
                shift = sum(a * p for a, p in zip(tmon, exps)) % d * step
                for e, z, v in values[i]:
                    coeffs = by_e.get(e)
                    if coeffs is None:
                        coeffs = by_e[e] = [0] * order
                    coeffs[(z + shift) % order] += v
            sums[exps] = RatFunc.over(order, laurent_from_ints(order, sorted(by_e.items()),
                                                               common), den)
    return out


def from_characters(x):
    """sum c E_chi g_v over the terms c t^exps g_v of x, exps the exponent
    vector of chi: the inverse of the character sums. The coefficient of
    t^b g_v is d^-n sum_chi C_{v,chi} zeta_d^-(exps . b), C_{v,chi} the
    coefficient of t^exps g_v, one int (_pack) of a row of the encoding x
    keeps (_coded). Per v, n axis passes of size d make each step one shift
    and one add: zeta_d^k shifts by k L/d zeta digits, L = x.order, with no
    wrap, so Z = ztop + 1 + n (d - 1) L/d digits hold every shift, and B =
    bitlen(mass) + 2 bits an output digit, a signed sum of input digits;
    d^-n joins common."""
    d, n = x.d, x.n
    if not x.terms:
        return zero(d, n)
    order, den, common, groups, mass, low, high, ztop, rows = _coded(x)
    step = order // d
    zdigits = ztop + 1 + n * (d - 1) * step
    width = mass.bit_length() + 2
    _check_span("character transform", high - low + 1, zdigits * width)
    packed = [_pack(row, low, 1, zdigits, width) for row in rows]
    # exps is keyed by its id (_tmon_tables): axis j is its digit of weight d^(n-1-j)
    ids = _tmon_tables(d, n)[0]
    outputs = []
    for v, terms in groups.items():
        values = {ids[exps]: packed[i] for exps, i in terms}
        for j in range(n):
            stride = d ** (n - 1 - j)
            # for each digit a, the move to each b and the shift of zeta_d^(-a b)
            steps = [[((b - a) * stride, -a * b % d * step * width) for b in range(d)]
                     for a in range(d)]
            nxt = {}
            for y, p in values.items():
                if p:
                    for move, shift in steps[y // stride % d]:
                        nxt[y + move] = nxt.get(y + move, 0) + (p << shift)
            values = nxt
        outputs.extend((y, v, p) for y, p in values.items() if p)
    return YElement._sorted(d, n, _emit(d, n, outputs, low, width, zdigits, order,
                                        common * d ** n, den))


def E_chi(d, n, exps):
    """The primitive idempotent prod_j (1/d) sum_s chi(t_j)^s t_j^{-s},
    where chi(t_j) = zeta_d^{exps_j}."""
    if len(exps) != n:
        raise ValueError("character needs %d values" % n)
    scale = Fraction(1, d ** n)
    return YElement(d, n, [
        ((tuple(-s % d for s in ss), Perm.identity(n)), RatFunc.from_scalar(
            Cyclotomic.root_power(d, sum(e * s for e, s in zip(exps, ss))) * scale, d))
        for ss in itertools.product(range(d), repeat=n)])


def E_mu(d, n, mu):
    """Central idempotent: the sum of E_chi over the characters of the block
    of mu (permutations.block_characters), the coset orbit of its staircase
    character."""
    if mu.d != d or mu.n != n:
        raise ValueError("composition does not match algebra parameters")
    return YElement(d, n, [term for exps in block_characters(mu)
                           for term in E_chi(d, n, exps).terms])


# ---------------------------------------------------------------------------
# ideal generators and shifts


def g_block(d, n, i):
    """g_{i,i+1}: the sum of the basis elements g_w over the six
    permutations w of <s_i, s_{i+1}>, the Young subgroup of the composition
    (1, ..., 1, 3, 1, ..., 1) with its 3 at place i."""
    if not 1 <= i <= n - 2:
        raise ValueError("block index %d out of range 1..%d" % (i, n - 2))
    mu = Composition((1,) * (i - 1) + (3,) + (1,) * (n - i - 2))
    return YElement(d, n, [(((0,) * n, w), RatFunc.one(d)) for w in mu.young_subgroup()])


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
    of the wreath product (Z/d) wr S_n, each coefficient evaluated by
    scalars.value_at_one. Raises PoleAtValue when undefined."""
    out = {}
    for key, c in x.terms:
        v = value_at_one(c)
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


# ---------------------------------------------------------------------------
# seminormal word matrices as packed int rows


class NarrowWidth(Exception):
    """A seminormal word matrix or image needs more bits per power of q than
    its packing gives: the caller packs it again, wider."""


# equal entries (column, int) of the word matrices share one tuple: at
# (d, n) = (1, 8), `ytl verify --suite iso` keeps 571,150 entries, 71,934 of
# them distinct, and peaks at 134 MB of resident memory instead of 236 MB
_ENTRIES = {}


def seminormal_unit(dim):
    """The word matrix of the identity permutation (seminormal_step)."""
    return RatFunc.one(1), tuple(((r, 1),) for r in range(dim)), 1, 1


def seminormal_step(word, columns, width):
    """The word matrix of g_w g_i from that of g_w: (den, rows, digits, bits),
    rows[r] the nonzero entries (c, p) of row r, p the numerator of entry
    (r, c) over 1/den (den = 1 / prod F_j^e_j, a RatFunc over Q), an int
    polynomial in q packed width bits per power, at most digits digits, each
    in [-2^bits, 2^bits). Column c of g_w g_i is (alpha col_c + beta col_c2)
    / [k] for columns[c] = (alpha, c2, beta, k), alpha and beta int
    polynomials (coefficients, constant first), [k] = 1 + q + ... + q^(k-1),
    c2 None where beta is 0. Each entry is two int products and one exact
    int division, its digit bound one add and one mask: no RatFunc and no
    normalisation. Where [k] leaves a remainder, the F_j of [k] that do not
    divide that numerator join the denominator and the step starts again."""
    den, rows, digits, bits = word
    dense = [[0] * len(rows) for _ in rows]
    for r, row in enumerate(rows):
        for c, p in row:
            dense[r][c] = p
    packed = _packed_columns(columns, width)
    mass, degree = max(col[4] for col in packed), max(col[5] for col in packed)
    grow, gmass, gdegree = 1, 1, 0
    while True:
        # every digit of a product, quotient or remainder stays below
        # 2^(width - 2) in absolute value
        if (bits + mass.bit_length() + gmass.bit_length()
                + (2 * (digits + degree + gdegree)).bit_length() + 6 > width):
            raise NarrowWidth
        out, top, most = [[] for _ in rows], bits, 1
        for c, (alpha, c2, beta, divisor, _, _, k) in enumerate(packed):
            for r, row in enumerate(dense):
                p = alpha * row[c] if c2 is None else alpha * row[c] + beta * row[c2]
                if not p:
                    continue
                p *= grow
                if divisor != 1:
                    p, rest = divmod(p, divisor)
                    if rest:
                        break
                count = p.bit_length() // width + 1
                bias, high = _digit_masks(width, top, count)
                while p + bias < 0 or (p + bias) & high:
                    top += 4
                    bias, high = _digit_masks(width, top, count)
                most = max(most, count)
                entry = (c, p)
                out[r].append(_ENTRIES.setdefault(entry, entry))
            else:
                continue
            numerator, before = p * divisor + rest, grow
            for inverse, ints in q_integer_factors(k):
                factor = _pack([(e, 0, v) for e, v in enumerate(ints)], 0, 1, 1, width)
                if numerator % factor:
                    den, grow = den * inverse, grow * factor
                    gmass, gdegree = gmass * sum(map(abs, ints)), gdegree + len(ints) - 1
            if grow == before:
                raise NarrowWidth
            break
        else:
            return den, tuple(map(tuple, out)), most, top


@lru_cache(maxsize=None)
def _packed_columns(columns, width):
    """Per column (alpha, c2, beta, [k], mass, degree, k), the polynomials
    packed at width; mass and degree bound those of alpha and beta."""
    def pack(poly):
        return _pack([(e, 0, v) for e, v in enumerate(poly)], 0, 1, 1, width)

    return tuple((pack(alpha), c2, pack(beta), pack((1,) * k),
                  sum(map(abs, alpha)) + sum(map(abs, beta)), max(len(alpha), len(beta)), k)
                 for alpha, c2, beta, k in columns)


@lru_cache(maxsize=None)
def _digit_masks(width, bits, count):
    """(2^bits in each of count digits, the bits above bits in each): an int
    whose digits lie below 2^(width - 2) in absolute value has them all in
    [-2^bits, 2^bits) exactly when p + bias >= 0 and (p + bias) & high == 0."""
    ones = sum(1 << (e * width) for e in range(count))
    return ones << bits, ones * ((1 << width) - (1 << (bits + 1)))


def seminormal_image(x, components, word, width, zero_test):
    """The matrix of x on a seminormal module, row r of which has the
    component indices components[r]: entry (r, c) sums, over the
    permutations w of x, the character sum of w at row r times entry (r, c)
    of g_w, word(w) its word matrix (seminormal_step) at width. With
    zero_test, whether every entry is zero, up to the first nonzero row;
    else the matrix, each nonzero entry decoded once into a canonical
    RatFunc, each zero one RatFunc.zero(x.d).

    The nonzero sums, a term list keyed by (components, w), are encoded in
    one pass (_encoding); the cofactor of a word over the lcm of the word
    denominators (_word_lifts) lifts the sums of that word, each one int of
    Z zeta digits of width / Z bits to a power of q (_pack), as _decode
    reads them. The sums are reduced mod Phi_order and the word entries are
    rational, so an entry is zero exactly when its int is 0. NarrowWidth
    when a zeta digit could reach 2^(width / Z - 2); a ValueError before
    anything is packed when an entry would span more than MAX_PACKED_BITS
    (_check_span): the sums' q-spread, a lift's degree and a word entry's
    digit count."""
    d, dim = x.d, len(components)
    terms = [((exps, w), c) for w, by in character_sums(x, components).items()
             for exps, c in by.items() if c.terms]
    if not terms:
        return True if zero_test else [[RatFunc.zero(d)] * dim for _ in range(dim)]
    order, sden, scommon, sgroups, smass, low, high, ztop, srows = _encoding(d, terms)
    words, dens, digits, bits = [], {}, 0, 0
    for w, sums in sgroups.items():
        v = _perm[w]
        den, rows, most, top = word(v)
        key = value_key(den)
        dens.setdefault(key, (v, den))
        words.append((sums, rows, key))
        digits, bits = max(digits, most), max(bits, top)
    wden, wcommon, wlow, whigh, cmass, lifts = _word_lifts(dens, width)
    zdigits = 1 << ztop.bit_length()
    zwidth = width // zdigits
    _check_span("seminormal image", high - low + 1 + whigh - wlow + digits, width)
    if (smass * cmass).bit_length() + bits + 2 > zwidth:
        raise NarrowWidth
    spacked = [_pack(row, low, 1, zdigits, zwidth) for row in srows]
    plan = []
    for sums, rows, key in words:
        lift = lifts[key]
        own = {exps: spacked[i] if lift == 1 else spacked[i] * lift for exps, i in sums}
        plan.append(([own.get(comps, 0) for comps in components], rows))

    def sums_by_row():
        for r in range(dim):
            acc = [0] * dim
            for scalars, rows in plan:
                s = scalars[r]
                if s:
                    for c, g in rows[r]:
                        acc[c] += s * g
            yield acc

    if zero_test:
        return not any(any(acc) for acc in sums_by_row())
    accs, zero = list(sums_by_row()), RatFunc.zero(d)
    entries = iter(_decode([p for acc in accs for p in acc if p], low + wlow, zwidth, zdigits,
                           order, scommon * wcommon, multiply_dens(sden, wden)))
    return [[next(entries) if p else zero for p in acc] for acc in accs]


# seminormal_image's word denominators over their lcm, per (width, frozenset
# of their value keys): a module's words carry few distinct denominators
_LIFTS = {}


def _word_lifts(dens, width):
    """(den, common, low, high, mass, lifts) for the distinct word
    denominators dens {value key: (w, the denominator of w)}: each is its
    cofactor lifts[key], packed at width from q^low (_pack), over den and
    common; mass bounds the sum of |int| of a cofactor. A word denominator
    is 1 / prod F_j^e_j, so one alone has cofactor 1."""
    key = width, frozenset(dens)
    lift = _LIFTS.get(key)
    if lift is None:
        _, den, common, _, _, low, high, _, rows = _encoding(
            1, [(((), w), c) for w, c in dens.values()])
        lifts = {k: _pack(row, low, 1, 1, width) for k, row in zip(dens, rows)}
        mass = max([sum([abs(c) for _, _, c in row]) for row in rows])
        if len(_LIFTS) >= MAX_LIFTS:
            _LIFTS.clear()
        lift = _LIFTS[key] = den, common, low, high, mass, lifts
    return lift
