"""The symmetric group: permutations, lengths, reduced words, compositions,
Young subgroups and the one codec of their elements (factor_in_young and its
inverse join_young, the only readers of the block layout), distinguished
coset representatives, and the action of permutations on character vectors.

Permutations are stored in one-line notation (1-based images) and compose
right-to-left: (u * v)(x) = u(v(x)). Under this convention the coset
representative written s_3 s_2 s_1 has one-line notation (4, 1, 2, 3).
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class ConsistencyError(Exception):
    """Two independent computations of the same quantity disagree."""


class Record:
    """An immutable record whose fields are its class's __slots__, set
    positionally by __init__ and then checked by __post_init__. Records are
    equal only to records of the same class with equal fields, and hash as
    the tuple of their fields, as a frozen dataclass does."""

    __slots__ = ()

    def __init_subclass__(cls):
        # compiled per class, as dataclasses does: generic methods reading
        # the fields through getattr or attrgetter made a dict lookup of an
        # equal Perm twice as slow
        names = cls.__slots__
        values = "(%s)" % "".join("self.%s, " % name for name in names)
        source = _RECORD_METHODS.format(
            args=", ".join(names), values=values,
            others=values.replace("self.", "other."),
            sets="".join("    _set(self, %r, %s)\n" % (name, name) for name in names))
        methods = {}
        exec(source, {"_set": object.__setattr__}, methods)
        for name, method in methods.items():
            setattr(cls, name, method)

    def __post_init__(self):
        pass

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


_RECORD_METHODS = """
def __init__(self, {args}):
{sets}    self.__post_init__()

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {values} == {others}
    return NotImplemented

def __hash__(self):
    return hash({values})
"""


class Perm(Record):
    """A permutation of {1, ..., n} in one-line notation."""

    __slots__ = ("images",)

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError("not a permutation of 1..%d: %r" % (n, self.images))

    @staticmethod
    def identity(n):
        return Perm(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n, i):
        """The simple transposition s_i = (i, i+1)."""
        return Perm.from_word(n, (i,))

    @staticmethod
    def from_word(n, word):
        """Product s_{i_1} s_{i_2} ... of simple transpositions, each letter
        in 1..n-1: w s_i swaps the images at i and i+1."""
        images = list(range(1, n + 1))
        for i in word:
            if not 1 <= i <= n - 1:
                raise ValueError("generator index %d out of range 1..%d" % (i, n - 1))
            images[i - 1], images[i] = images[i], images[i - 1]
        return Perm(tuple(images))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, j):
        return self.images[j - 1]

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Perm(tuple(self.images[other.images[j] - 1] for j in range(self.n)))

    def inv(self):
        images = [0] * self.n
        for j, v in enumerate(self.images, start=1):
            images[v - 1] = j
        return Perm(tuple(images))

    def is_identity(self):
        return all(v == j for j, v in enumerate(self.images, start=1))

    def length(self):
        """Number of inversions = length of any reduced word."""
        return _length(self.images)

    def reduced_word(self):
        """The lexicographically smallest reduced word for this permutation:
        s_i w swaps the inverse images of i and i+1."""
        word, inv = [], list(self.inv().images)
        while True:
            # smallest left descent: i with w^-1(i) > w^-1(i+1)
            for i in range(1, len(inv)):
                if inv[i - 1] > inv[i]:
                    break
            else:
                return tuple(word)
            word.append(i)
            inv[i - 1], inv[i] = inv[i], inv[i - 1]

    def descends_right(self, i):
        """True iff l(w s_i) < l(w), i.e. w(i) > w(i+1)."""
        return self.images[i - 1] > self.images[i]

    def __repr__(self):
        return "Perm%r" % (self.images,)

    def to_json(self):
        return list(self.images)


@lru_cache(maxsize=None)
def _length(images):
    """The number of inversions of a one-line notation, once per tuple."""
    return sum(a > b for i, a in enumerate(images) for b in images[i + 1:])


@lru_cache(maxsize=None)
def all_perms(n):
    """All of S_n, sorted by (length, one-line notation)."""
    return tuple(sorted(map(Perm, itertools.permutations(range(1, n + 1))),
                        key=lambda w: (_length(w.images), w.images)))


class Composition(Record):
    """A composition of n with d parts (non-negative, ordered)."""

    __slots__ = ("parts",)

    @property
    def d(self):
        return len(self.parts)

    @property
    def n(self):
        return sum(self.parts)

    @property
    def offsets(self):
        """Start offset of each block: block i covers offsets[i]+1..offsets[i]+parts[i].
        Built once per parts tuple."""
        return _offsets(self.parts)

    def young_subgroup(self):
        """All elements of S_mu as permutations of S_n: the joins of the
        permutations of the parts, in lexicographic order, the last fastest."""
        return [join_young(self, [Perm(images) for images in pieces])
                for pieces in itertools.product(
                    *(itertools.permutations(range(1, p + 1)) for p in self.parts))]


@lru_cache(maxsize=None)
def _offsets(parts):
    return tuple(itertools.accumulate(parts[:-1], initial=0))


@lru_cache(maxsize=None)
def compositions(d, n):
    """All compositions of n with d parts, lexicographic from (n,0,...,0)
    down, as a tuple (cached)."""
    if d == 1:
        return (Composition((n,)),)
    return tuple(Composition((first,) + rest.parts)
                 for first in range(n, -1, -1) for rest in compositions(d - 1, n - first))


class CosetSystem(Record):
    """Distinguished (minimal length) left coset representatives of S_n/S_mu,
    sorted by (length, one-line notation), so reps[0] is the identity."""

    __slots__ = ("mu", "reps")

    @property
    def m(self):
        return len(self.reps)

    def rep(self, k):
        """The k-th representative, 1-based."""
        return self.reps[k - 1]


@lru_cache(maxsize=None)
def coset_system(mu):
    """Build the coset system for a composition (pass a Composition)."""
    n, parts = mu.n, mu.parts
    reps = []
    def build(remaining, chosen):
        if not parts[len(chosen):]:
            images = []
            for block in chosen:
                images.extend(sorted(block))
            reps.append(Perm(tuple(images)))
            return
        size = parts[len(chosen)]
        for block in itertools.combinations(sorted(remaining), size):
            build(remaining - set(block), chosen + [block])
    build(set(range(1, n + 1)), [])
    reps.sort(key=lambda w: (_length(w.images), w.images))
    if not reps[0].is_identity():
        raise ConsistencyError("the first coset representative of %r is not "
                               "the identity" % (mu.parts,))
    return CosetSystem(mu, tuple(reps))


def act_on_character(w, values):
    """Permute a character value vector: new[j] = old[w^-1(j)] (1-based j)."""
    winv = w.inv()
    return tuple(values[winv(j) - 1] for j in range(1, w.n + 1))


def factor_in_young(mu, w):
    """Split w in S_mu into its per-block components, each a Perm of S_{mu_i}."""
    if w.n != mu.n:
        raise ValueError("%r is not in the Young subgroup of %r" % (w, mu))
    out = []
    for acc, p in zip(mu.offsets, mu.parts):
        block = w.images[acc:acc + p]
        if sorted(block) != list(range(acc + 1, acc + p + 1)):
            raise ValueError("%r is not in the Young subgroup of %r" % (w, mu))
        out.append(Perm(tuple(v - acc for v in block)))
    return tuple(out)


def join_young(mu, factors):
    """The element of S_mu with the given factors, one Perm of S_{mu_i} per
    part: the inverse of factor_in_young."""
    if len(factors) != mu.d:
        raise ValueError("%d factors for the %d parts of %r" % (len(factors), mu.d, mu))
    images = []
    for i, (acc, p, f) in enumerate(zip(mu.offsets, mu.parts, factors), 1):
        if not isinstance(f, Perm) or f.n != p:
            raise ValueError("%r is not in S_%d, for part %d of %r" % (f, p, i, mu))
        images.extend(v + acc for v in f.images)
    return Perm(tuple(images))
