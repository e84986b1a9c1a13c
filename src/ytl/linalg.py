"""Dense exact matrix products over any ring.

Matrices are lists of lists (or tuples) of ring elements; `zero` is the
ring's zero, and zero entries are skipped.
"""

from __future__ import annotations


def mat_mul(a, b, zero):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[zero for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if aik == zero:
                continue
            brow = b[k]
            for j in range(cols):
                bkj = brow[j]
                if bkj != zero:
                    orow[j] = orow[j] + aik * bkj
    return out


def identity_matrix(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]
