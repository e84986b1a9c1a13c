"""Dense exact linear algebra over an arbitrary field.

Matrices are lists of lists (or tuples) of field elements. The field is
described by a small capability object so the same elimination code runs
over rational functions and over cyclotomic numbers.
"""

from __future__ import annotations


class Field:
    """Arithmetic hooks for Gaussian elimination."""

    def __init__(self, zero, one, is_zero=None):
        self.zero = zero
        self.one = one
        self.is_zero = is_zero if is_zero is not None else (lambda x: x == zero)


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


def solve_square(matrix, rhs, field):
    """Solve M x = rhs for square nonsingular M; rhs is a flat vector."""
    reduced, aug, rank, pivots = row_echelon(
        matrix, field, augment=[[v] for v in rhs])
    if rank < len(matrix):
        raise ValueError("singular system")
    return [row[0] for row in aug]


def in_row_span(basis_rows, vector, field):
    """True iff `vector` lies in the row span of `basis_rows`."""
    if not basis_rows:
        return all(field.is_zero(x) for x in vector)
    stacked = [list(r) for r in basis_rows]
    base_rank = matrix_rank(stacked, field)
    return matrix_rank(stacked + [list(vector)], field) == base_rank
