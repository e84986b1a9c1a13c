"""Partitions, d-partitions, standard d-tableaux, the number of
Temperley-Lieb factors of a quotient and its admissibility predicate,
Catalan numbers, dimension formulas, and the Jones index sets.

Partitions are tuples of weakly decreasing positive integers; a d-partition
is a tuple of d partitions. A tableau stores, for each entry i, the node
(row, col, component) holding it (rows and columns 1-based).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

from .permutations import ConsistencyError, Perm, Record, compositions


# ---------------------------------------------------------------------------
# partitions


def enumerate_partitions(n):
    """All partitions of n, reverse-lexicographic: (n), (n-1,1), ..., (1,..,1)."""
    if n == 0:
        return [()]
    out = []
    def build(remaining, maximum, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maximum), 0, -1):
            build(remaining - part, part, prefix + [part])
    build(n, n, [])
    return out


def enumerate_d_partitions(d, n):
    """All d-partitions of n: composition-major, reverse-lex in each slot."""
    out = []
    for mu in compositions(d, n):
        for combo in itertools.product(*(enumerate_partitions(p) for p in mu.parts)):
            out.append(tuple(combo))
    return out


def d_partition_size(shape):
    return sum(sum(comp) for comp in shape)


def two_column(partition):
    """True iff the Young diagram has at most two columns."""
    return not partition or partition[0] <= 2


def tl_factors(which, d):
    """The number r of leading tensor factors of the named quotient that are
    Temperley-Lieb algebras: all d for 'FTL', the first only for 'CTL'. The
    other d - r factors stay Hecke algebras, so at d = 1 the two quotients
    are the same algebra, TL_n."""
    if which == "FTL":
        return d
    if which == "CTL":
        return 1
    raise ValueError("which must be 'FTL' or 'CTL'")


def quotient_admissible(shape, r):
    """Every one of the first r components (the Temperley-Lieb factors) has
    at most two columns."""
    return all(two_column(comp) for comp in shape[:r])


# ---------------------------------------------------------------------------
# standard d-tableaux


class DTableau(Record):
    """A d-tableau: placement[i-1] = (row, col, component) of entry i."""

    __slots__ = ("shape", "placement")

    @property
    def n(self):
        return len(self.placement)

    def position(self, i):
        """Component index holding entry i."""
        return self.placement[i - 1][2]

    def content_exponent(self, i):
        """col - row of the node holding entry i (quantum content is q^this)."""
        x, y, _ = self.placement[i - 1]
        return y - x

    def entry_grid(self):
        """Entries laid out per component, as nested lists."""
        grids = [[[0] * row for row in comp] for comp in self.shape]
        for i, (x, y, k) in enumerate(self.placement, start=1):
            grids[k - 1][x - 1][y - 1] = i
        return grids

    def apply_transposition(self, i):
        """Swap entries i and i+1 of this standard tableau; returns None when
        the result is not standard (consumers treat that as the zero vector).
        That happens exactly when the two nodes share a component and a row
        or a column, where they are neighbours."""
        (x, y, k), (x2, y2, k2) = self.placement[i - 1], self.placement[i]
        if k == k2 and (x == x2 or y == y2):
            return None
        placement = list(self.placement)
        placement[i - 1], placement[i] = placement[i], placement[i - 1]
        return DTableau(self.shape, tuple(placement))

    def __repr__(self):
        return "DTableau(%r)" % (self.entry_grid(),)

    def to_json(self):
        return [[x, y, k, i] for i, (x, y, k) in enumerate(self.placement, start=1)]


@lru_cache(maxsize=None)
def standard_tableaux(shape):
    """All standard d-tableaux of a given shape, in insertion-sequence
    lexicographic order (candidate nodes ordered by (component, row))."""
    n = d_partition_size(shape)
    results = []

    def addable_nodes(filled):
        # filled: per component, tuple of current row lengths
        nodes = []
        for k, comp in enumerate(shape, start=1):
            rows = filled[k - 1]
            for r, target in enumerate(comp, start=1):
                cur = rows[r - 1]
                if cur < target and (r == 1 or rows[r - 2] > cur):
                    nodes.append((r, cur + 1, k))
        return nodes

    def build(entry, filled, placement):
        if entry > n:
            results.append(DTableau(shape, tuple(placement)))
            return
        for (r, c, k) in sorted(addable_nodes(filled), key=lambda t: (t[2], t[0])):
            rows = list(filled[k - 1])
            rows[r - 1] += 1
            build(entry + 1,
                  filled[: k - 1] + (tuple(rows),) + filled[k:],
                  placement + [(r, c, k)])

    build(1, tuple(tuple(0 for _ in comp) for comp in shape), [])
    return tuple(results)


def count_standard_tableaux(shape):
    """The number of standard d-tableaux of a shape, without listing them:
    the multinomial of the component sizes times the hook length formula of
    each component."""
    out = multinomial([sum(comp) for comp in shape])
    for comp in shape:
        heights = [sum(1 for p in comp if p > c) for c in range(comp[0])] if comp else []
        hooks = 1
        for r, p in enumerate(comp):
            for c in range(p):
                hooks *= p - c + heights[c] - r - 1
        out *= factorial(sum(comp)) // hooks
    return out


def count_d_partitions(d, n):
    """The number of d-partitions of n, without listing them: the
    coefficient of x^n in P(x)^d, P the generating function of partitions."""
    parts = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            parts[m] += parts[m - part]
    out = [1] + [0] * n
    for _ in range(d):
        out = [sum(out[j] * parts[m - j] for j in range(m + 1)) for m in range(n + 1)]
    return out[n]


# ---------------------------------------------------------------------------
# dimension formulas


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def dim_TL(n):
    return catalan(n)


def dim_Y(d, n):
    return d ** n * factorial(n)


def multinomial(mu):
    """n! / prod p! for the parts p of mu, as a product of binomials: each
    costs the smaller of its two parts, so (n, 0, ...) is immediate."""
    out, total = 1, 0
    for p in mu:
        total += p
        out *= comb(total, p)
    return out


def _dim_by_compositions(d, n, r):
    """The sum over the compositions mu of n of multinomial(mu)^2 times the
    dimension of the tensor product: catalan(p) for each of the first r
    (Temperley-Lieb) parts and p! for each other (Hecke) part."""
    total = 0
    for mu in compositions(d, n):
        prod = 1
        for i, p in enumerate(mu.parts):
            prod *= catalan(p) if i < r else factorial(p)
        total += multinomial(mu.parts) ** 2 * prod
    return total


def dim_FTL(d, n):
    return _dim_by_compositions(d, n, tl_factors("FTL", d))


def dim_CTL(d, n):
    """Catalan/derangement-style sum; computed by both published formulas,
    which must agree."""
    by_k = sum(comb(n, k) ** 2 * catalan(k) * (d - 1) ** (n - k) * factorial(n - k)
               for k in range(n + 1))
    if by_k != _dim_by_compositions(d, n, tl_factors("CTL", d)):
        raise ConsistencyError("the two CTL dimension formulas disagree at "
                               "d=%d, n=%d" % (d, n))
    return by_k


def dim_bruteforce(d, n, r):
    """Sum of squared numbers of listed standard tableaux over the shapes
    admissible for r Temperley-Lieb factors."""
    return sum(len(standard_tableaux(s)) ** 2
               for s in enumerate_d_partitions(d, n) if quotient_admissible(s, r))


# ---------------------------------------------------------------------------
# Jones index sets


class JonesPair(Record):
    """A pair of tuples (i_1<...<i_p; k_1,...,k_p) indexing a product of
    descending generator runs."""

    __slots__ = ("i", "k")

    def word(self):
        """Concatenated descending runs (i_j, i_j - 1, ..., i_j - k_j)."""
        out = []
        for ij, kj in zip(self.i, self.k):
            out.extend(range(ij, ij - kj - 1, -1))
        return tuple(out)

    def to_json(self):
        return {"i": list(self.i), "k": list(self.k)}


def jones_pairs(n, mode="TL"):
    """Enumerate the index pairs: mode='All' gives the set bijective with S_n
    (count n!), mode='TL' the Temperley-Lieb subset (count C_n)."""
    if mode not in ("All", "TL"):
        raise ValueError("mode must be 'All' or 'TL'")
    out = [JonesPair((), ())]
    def build(start, mins, prefix_i, prefix_k):
        for i1 in range(start, n):
            if mode == "TL":
                krange = range(0, i1 - mins)
            else:
                krange = range(0, i1)
            for k1 in krange:
                pair_i = prefix_i + (i1,)
                pair_k = prefix_k + (k1,)
                out.append(JonesPair(pair_i, pair_k))
                build(i1 + 1, (i1 - k1) if mode == "TL" else mins, pair_i, pair_k)
    build(1, 0, (), ())
    out.sort(key=lambda p: (len(p.i), p.i, p.k))
    return out


def jones_permutation(n, pair):
    """The permutation whose standard-basis word is the pair's word."""
    return Perm.from_word(n, pair.word())
