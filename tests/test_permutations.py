import copy
import itertools
import os
import pickle
import subprocess
import sys
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ytl
from ytl.permutations import (Composition, Perm, act_on_character, all_perms,
                              compositions, coset_system, factor_in_young, join_young)


def test_one_line_convention():
    # with right-to-left composition, the word (3, 2, 1) is (4, 1, 2, 3)
    w = Perm.from_word(4, (3, 2, 1))
    assert w == Perm((4, 1, 2, 3))
    assert w.length() == 3
    assert w.reduced_word() == (3, 2, 1)


def test_mul_and_inverse():
    u = Perm((2, 3, 1))
    v = Perm((1, 3, 2))
    assert (u * v)(2) == u(v(2))
    assert (u * u.inv()).is_identity()
    assert u.inv() * u == Perm.identity(3)
    with pytest.raises(ValueError, match="size mismatch"):
        u * Perm.identity(4)


def test_generator_indices_are_checked():
    # s_i and the letters of a word take i in 1..n-1
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match="generator index %d out of range 1..2" % i):
            Perm.transposition(3, i)
        with pytest.raises(ValueError, match="generator index %d out of range 1..2" % i):
            Perm.from_word(3, (1, i))
    assert Perm.transposition(3, 2) == Perm((1, 3, 2))
    assert Perm.from_word(1, ()) == Perm.identity(1)


@given(st.permutations(list(range(1, 6))))
@settings(max_examples=60, deadline=None)
def test_reduced_word_roundtrip(images):
    w = Perm(tuple(images))
    word = w.reduced_word()
    assert len(word) == w.length()
    assert Perm.from_word(5, word) == w


def test_length_is_inversions():
    assert Perm((4, 3, 2, 1)).length() == 6
    assert Perm.identity(4).length() == 0


def test_descends_right():
    w = Perm((2, 1, 3))
    assert w.descends_right(1)
    assert not w.descends_right(2)


def test_all_perms_sorted():
    perms = all_perms(3)
    assert len(perms) == 6
    assert perms[0].is_identity()
    lengths = [w.length() for w in perms]
    assert lengths == sorted(lengths)


def test_compositions():
    mus = compositions(2, 3)
    assert [m.parts for m in mus] == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert all(m.n == 3 for m in mus)
    assert len(compositions(3, 4)) == 15


def test_composition_structure():
    mu = Composition((1, 3))
    assert (mu.d, mu.n, mu.offsets) == (2, 4, (0, 1))
    assert len(mu.young_subgroup()) == 6
    # the layout is built once per parts tuple, not on every read
    assert mu.offsets is mu.offsets is Composition((1, 3)).offsets
    assert Composition((2, 0, 1)).offsets == (0, 2, 2)


def test_coset_system():
    sys = coset_system(Composition((1, 3)))
    assert sys.m == 4
    assert sys.rep(1).is_identity()
    assert sys.rep(4) == Perm((4, 1, 2, 3))
    # representatives have minimal length in their coset
    for k in range(1, sys.m + 1):
        pi = sys.rep(k)
        for h in sys.mu.young_subgroup():
            assert (pi * h).length() >= pi.length()


@pytest.mark.parametrize("parts", [(1, 3), (2, 2), (2, 1), (1, 1, 2)])
def test_unique_length_additive_factorization(parts):
    mu = Composition(parts)
    sys = coset_system(mu)
    young = mu.young_subgroup()
    seen = set()
    for pi in sys.reps:
        for x in young:
            w = pi * x
            assert w not in seen
            seen.add(w)
            assert w.length() == pi.length() + x.length()
    assert len(seen) == factorial(mu.n)


def _deodhar_step(mu, k, i):
    """(l, pi_k^-1 s_i pi_l) for the one l that puts it in the Young subgroup."""
    sys, young = coset_system(mu), set(mu.young_subgroup())
    left = sys.rep(k).inv() * Perm.transposition(mu.n, i)
    (l, conj), = [(l, left * pi) for l, pi in enumerate(sys.reps, 1)
                  if left * pi in young]
    return l, conj


def test_deodhar_cases():
    # conjugating s_2 by pi_4 = s_3 s_2 s_1 descends to s_3 in the subgroup
    assert _deodhar_step(Composition((1, 3)), 4, 2) == (4, Perm.transposition(4, 3))
    l, conj = _deodhar_step(Composition((2, 2)), 1, 2)
    assert l != 1 and conj.is_identity()


def test_deodhar_exhaustive():
    # Deodhar's lemma: s_i pi_k is either another representative pi_l, or
    # pi_k s_j with s_j a generator of the Young subgroup
    for parts in [(1, 3), (2, 2), (3, 1), (1, 1, 2)]:
        mu = Composition(parts)
        sys = coset_system(mu)
        for k in range(1, sys.m + 1):
            for i in range(1, mu.n):
                l, conj = _deodhar_step(mu, k, i)
                if l != k:
                    assert conj.is_identity()
                else:
                    assert conj.length() == 1


def test_act_on_character():
    w = Perm.transposition(3, 1)
    assert act_on_character(w, (0, 1, 2)) == (1, 0, 2)
    u = Perm((2, 3, 1))
    vals = ("a", "b", "c")
    moved = act_on_character(u, vals)
    for j in range(1, 4):
        assert moved[u(j) - 1] == vals[j - 1]


def test_factor_in_young():
    mu = Composition((2, 2))
    w = Perm((2, 1, 4, 3))
    parts = factor_in_young(mu, w)
    assert parts == (Perm((2, 1)), Perm((2, 1)))
    with pytest.raises(ValueError):
        factor_in_young(mu, Perm((3, 1, 2, 4)))


def test_factor_in_young_refuses_other_degrees():
    # the first blocks of (1, 2, 3, 5, 4) match those of (2, 1), but it is
    # not in S_3
    with pytest.raises(ValueError, match="Young subgroup"):
        factor_in_young(Composition((2, 1)), Perm((1, 2, 3, 5, 4)))
    with pytest.raises(ValueError, match="Young subgroup"):
        factor_in_young(Composition((2, 2)), Perm((2, 1, 3)))


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3), (4, 3)])
def test_join_young_inverts_factor_in_young(d, n):
    for mu in compositions(d, n):
        members = 0
        for w in all_perms(n):
            try:
                factors = factor_in_young(mu, w)
            except ValueError:
                continue
            members += 1
            assert join_young(mu, factors) == w
        assert members == prod(factorial(p) for p in mu.parts)


def test_join_young_refuses():
    mu = Composition((2, 1))
    with pytest.raises(ValueError, match="1 factors for the 2 parts of"):
        join_young(mu, (Perm((2, 1)),))
    with pytest.raises(ValueError, match="3 factors for the 2 parts of"):
        join_young(mu, (Perm((2, 1)), Perm((1,)), Perm((1,))))
    with pytest.raises(ValueError, match=r"not in S_1, for part 2 of Composition\(parts="):
        join_young(mu, (Perm((2, 1)), Perm((1, 2))))
    with pytest.raises(ValueError, match="not in S_2, for part 1 of"):
        join_young(mu, ((2, 1), Perm((1,))))


def _young_by_blocks(mu):
    """The Young subgroup built without join_young, the reference order for
    young_subgroup: the permutations of each block's own positions, filled
    into one image array."""
    blocks, acc = [], 0
    for p in mu.parts:
        blocks.append(list(range(acc + 1, acc + p + 1)))
        acc += p
    out = []
    for pieces in itertools.product(*(itertools.permutations(b) for b in blocks)):
        images = [0] * mu.n
        for block, perm in zip(blocks, pieces):
            for pos, val in zip(block, perm):
                images[pos - 1] = val
        out.append(Perm(tuple(images)))
    return out


@pytest.mark.parametrize("d, n", [(2, 4), (3, 3), (1, 4), (3, 4)])
def test_young_subgroup_order(d, n):
    for mu in compositions(d, n):
        assert mu.young_subgroup() == _young_by_blocks(mu)


def test_record_semantics():
    t = (2, 1, 3)
    # records of different classes with equal fields differ, as dataclasses do
    assert Perm((1, 2)) != Composition((1, 2))
    assert hash(Perm(t)) == hash((t,))
    mu = Composition((1, 2))
    system = coset_system(mu)
    assert hash(system) == hash((mu, system.reps))
    with pytest.raises(AttributeError):
        Perm(t).images = (1, 2, 3)
    with pytest.raises(AttributeError):
        mu.extra = 1
    with pytest.raises(AttributeError):
        del mu.parts
    with pytest.raises(TypeError):
        Composition((1, 2), (3,))
    with pytest.raises(ValueError):
        Perm((1, 1))
    assert repr(Perm(t)) == "Perm(2, 1, 3)"
    assert repr(mu) == "Composition(parts=(1, 2))"
    assert repr(system) == ("CosetSystem(mu=Composition(parts=(1, 2)), "
                            "reps=(Perm(1, 2, 3), Perm(2, 1, 3), Perm(3, 1, 2)))")


def test_records_survive_pickle_and_copy():
    from ytl.tableaux import jones_pairs, standard_tableaux

    mu = Composition((1, 2))
    for x in (Perm((2, 1, 3)), mu, coset_system(mu),
              standard_tableaux(((2,), (1,)))[0], jones_pairs(4)[3]):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is type(x) and y == x
            assert hash(y) == hash(x) and repr(y) == repr(x)


def test_no_dataclasses_import():
    # a fresh interpreter: the test process may have imported it already
    code = ("import sys, ytl.isomaps, ytl.verify, ytl.exprparse, ytl.cli; "
            "print('dataclasses' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ytl.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "False\n"
