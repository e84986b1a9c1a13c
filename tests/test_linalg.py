from fractions import Fraction

from oracles import Field, invert_matrix, matrix_rank
from ytl.linalg import identity_matrix, mat_mul

F = Field(zero=Fraction(0), one=Fraction(1), is_zero=lambda x: x == 0)


def test_rank_and_echelon():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert matrix_rank(m, F) == 1
    m2 = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert matrix_rank(m2, F) == 2


def test_invert_and_solve():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert_matrix(m, F)
    assert mat_mul(m, inv, F.zero) == identity_matrix(2, F.zero, F.one)
    x = mat_mul(inv, [[Fraction(3)], [Fraction(2)]], F.zero)
    assert x == [[Fraction(1)], [Fraction(1)]]
    assert invert_matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], F) is None
