"""Small combinatorics the benchmark needs on its own side of the line:
to draw inputs without asking the library under test, and to know the
answers that some commands must print (dimensions, counts).

Everything here is plain Python on tuples and ints.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, prod


def length(images):
    """Number of inversions of a permutation in one-line notation."""
    n = len(images)
    return sum(1 for a in range(n) for b in range(a + 1, n)
               if images[a] > images[b])


def all_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def compositions(d, n):
    """All compositions of n into d non-negative parts."""
    if d == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n, -1, -1)
            for rest in compositions(d - 1, n - first)]


def partitions(n):
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


def d_partitions(d, n):
    return [tuple(combo) for mu in compositions(d, n)
            for combo in itertools.product(*(partitions(p) for p in mu))]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def multinomial(parts):
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def hook_count(partition):
    """Standard Young tableaux of one shape, by the hook length formula."""
    n = sum(partition)
    if n == 0:
        return 1
    cols = [sum(1 for r in partition if r > c) for c in range(partition[0])]
    hooks = prod(partition[r] - c + cols[c] - r - 1
                 for r in range(len(partition)) for c in range(partition[r]))
    return factorial(n) // hooks


def standard_count(shape):
    """Standard d-tableaux of a d-partition."""
    return multinomial([sum(c) for c in shape]) * prod(hook_count(c) for c in shape)


def dim_y(d, n):
    return d ** n * factorial(n)


def dim_ftl(d, n):
    """Dimension of the framed Temperley-Lieb quotient (all of Y for n < 3)."""
    if n < 3:
        return dim_y(d, n)
    return sum(multinomial(mu) ** 2 * prod(catalan(p) for p in mu)
               for mu in compositions(d, n))


def dim_ctl(d, n):
    """Dimension of the complex-reflection Temperley-Lieb quotient."""
    if n < 3:
        return dim_y(d, n)
    return sum(multinomial(mu) ** 2 * catalan(mu[0])
               * prod(factorial(p) for p in mu[1:])
               for mu in compositions(d, n))


def ftl_block_size(mu):
    """Basis descriptors of the FTL quotient inside the block of mu."""
    return multinomial(mu) ** 2 * prod(catalan(p) for p in mu)


def ctl_block_size(mu):
    return multinomial(mu) ** 2 * catalan(mu[0]) * prod(factorial(p) for p in mu[1:])
