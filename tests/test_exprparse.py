import time
from fractions import Fraction

import pytest

from ytl.exprparse import (MAX_LOOP_EXPONENT, MAX_PAREN_DEPTH, EvalError, ParseError,
                           parse_and_evaluate)
from ytl.permutations import Composition
from ytl.scalars import RatFunc
from ytl import yokonuma as yk


def test_parse_atoms():
    d, n = 2, 3
    assert parse_and_evaluate("g1", d, n) == yk.gen_g(d, n, 1)
    assert parse_and_evaluate("t3", d, n) == yk.gen_t(d, n, 3)
    assert parse_and_evaluate(" e2 ", d, n) == yk.e(d, n, 2)
    assert parse_and_evaluate("T1", d, n) == yk.T(d, n, 1)
    mu = Composition((1, 2))
    assert parse_and_evaluate("E(2; 1, 2)", d, n) \
        == yk.E_chi(d, n, yk.character_exponents(mu, 2))


def test_parse_precedence_and_power():
    d, n = 2, 3
    g1, g2 = yk.gen_g(d, n, 1), yk.gen_g(d, n, 2)
    assert parse_and_evaluate("g1 + t2 * q^2", d, n) \
        == g1 + yk.gen_t(d, n, 2).scale(RatFunc.q_power(2, d))
    assert parse_and_evaluate("q^-3", d, n) == yk.unit(d, n).scale(RatFunc.q_power(-3, d))
    assert parse_and_evaluate("(g1 + g2)^2", d, n) == (g1 + g2) * (g1 + g2)
    assert parse_and_evaluate("g1 - g2 - g1", d, n) == (g1 - g2) - g1
    # an exponent after a parenthesised atom is the atom's
    assert parse_and_evaluate("((q))^-1", d, n) == parse_and_evaluate("q^-1", d, n)
    assert parse_and_evaluate("(g1)^-2", d, n) == parse_and_evaluate("g1^-2", d, n)
    assert parse_and_evaluate("(e1)^1000000", d, n) == yk.e(d, n, 1)
    with pytest.raises(EvalError, match="compound"):
        parse_and_evaluate("(g1^1)^-1", d, n)


def test_parse_rationals():
    d, n = 2, 3
    for text, value in (("3", Fraction(3)), ("2/3", Fraction(2, 3)), ("4 / 6", Fraction(2, 3))):
        assert parse_and_evaluate(text, d, n) \
            == yk.unit(d, n).scale(RatFunc.from_scalar(value, d)), text
    with pytest.raises(ParseError) as info:
        parse_and_evaluate("1/0", d, n)
    assert info.value.position == 3


@pytest.mark.parametrize("text,pos", [
    ("", 0),
    ("g", 1),
    ("g1 +", 4),
    ("(g1", 3),
    ("g1 g2", 3),
    ("E(1 2)", 4),
    ("q^", 2),
])
def test_parse_errors_report_position(text, pos):
    with pytest.raises(ParseError) as info:
        parse_and_evaluate(text, 2, 3)
    assert info.value.position == pos


def test_parse_error_expected_set():
    with pytest.raises(ParseError) as info:
        parse_and_evaluate("(g1", 2, 3)
    assert info.value.expected == (")",)
    with pytest.raises(ParseError) as info:
        parse_and_evaluate("g1 g2", 2, 3)
    assert info.value.expected == ("*", "+", "-", "^", "end of input")


def test_first_error_in_reading_order():
    # the text is read once: an atom the session cannot evaluate is
    # reported before a syntax error after it
    for text in ("g9 + )", "g1^100000 +"):
        with pytest.raises(EvalError):
            parse_and_evaluate(text, 1, 3)
    with pytest.raises(ParseError) as info:
        parse_and_evaluate("g1 + )", 1, 3)
    assert info.value.position == 5


def test_evaluate_basics():
    d, n = 2, 3
    assert parse_and_evaluate("g1", d, n) == yk.gen_g(d, n, 1)
    assert parse_and_evaluate("t2^-1", d, n) == yk.gen_t(d, n, 2, power=-1)
    assert parse_and_evaluate("q", d, n) == yk.unit(d, n).scale(RatFunc.q(d))
    assert parse_and_evaluate("1/2 * e1", d, n) == \
        yk.e(d, n, 1).scale(RatFunc.from_scalar(Fraction(1, 2), d))
    assert parse_and_evaluate("g1^-1", d, n) == yk.gen_g_inv(d, n, 1)
    assert parse_and_evaluate("g1 * g1^-1", d, n) == yk.unit(d, n)


def test_evaluate_quadratic_identity():
    d, n = 2, 3
    lhs = parse_and_evaluate("g1^2", d, n)
    rhs = parse_and_evaluate("q + (q - 1) * e1 * g1", d, n)
    assert lhs == rhs


def test_evaluate_character_idempotent():
    d, n = 2, 3
    x = parse_and_evaluate("E(1; 2,1)", d, n)
    assert x * x == x
    assert parse_and_evaluate("E(1; 2,1)^3", d, n) == x
    assert parse_and_evaluate("E(1; 2,1)^0", d, n) == yk.unit(d, n)


def test_idempotent_atoms_large_powers():
    d, n = 2, 3
    start = time.monotonic()
    assert parse_and_evaluate("e1^1000000", d, n) == yk.e(d, n, 1)
    assert parse_and_evaluate("T2^1000000", d, n) == yk.T(d, n, 2)
    assert parse_and_evaluate("e1^0", d, n) == yk.unit(d, n)
    assert time.monotonic() - start < 1.0


def test_loop_exponents_are_bounded():
    for text in ("g1^100000", "g1^-100000", "(g1*g2)^100000",
                 "g1^%d" % (MAX_LOOP_EXPONENT + 1), "(1*g1)^%d" % (MAX_LOOP_EXPONENT + 1)):
        start = time.monotonic()
        with pytest.raises(EvalError, match="bound %d" % MAX_LOOP_EXPONENT):
            parse_and_evaluate(text, 2, 3)
        assert time.monotonic() - start < 1.0


def test_power_at_the_bound_is_the_repeated_product():
    d, n, k = 2, 2, MAX_LOOP_EXPONENT
    want = parse_and_evaluate("*".join(["g1"] * k), d, n)
    assert parse_and_evaluate("g1^%d" % k, d, n) == want
    assert parse_and_evaluate("(1*g1)^%d" % k, d, n) == want
    assert parse_and_evaluate("g1^-%d" % k, d, n) \
        == parse_and_evaluate("*".join(["g1^-1"] * k), d, n)


def test_long_chains_do_not_recurse():
    # chains far longer than the interpreter's recursion limit
    d, n = 1, 2
    assert parse_and_evaluate(" + ".join(["g1"] * 3000), d, n) \
        == yk.gen_g(d, n, 1).scale(3000)
    assert parse_and_evaluate("-".join(["g1"] * 3001), d, n) \
        == yk.gen_g(d, n, 1).scale(-2999)
    assert parse_and_evaluate("*".join(["t1"] * 3000), 2, 2) == yk.unit(2, 2)
    assert parse_and_evaluate("g1 + " + "*".join(["q"] * 3000), d, n) \
        == yk.gen_g(d, n, 1) + yk.unit(d, n).scale(RatFunc.q_power(3000, d))


def test_paren_depth_is_bounded():
    d, n = 1, 2
    deepest = "(" * MAX_PAREN_DEPTH + "g1 + 1" + ")" * MAX_PAREN_DEPTH
    assert parse_and_evaluate(deepest + "^2", d, n) \
        == parse_and_evaluate("(g1 + 1)^2", d, n)
    for depth in (MAX_PAREN_DEPTH + 1, 400, 5000):
        with pytest.raises(ParseError, match="deeper than %d" % MAX_PAREN_DEPTH) as info:
            parse_and_evaluate("g1 * " + "(" * depth + "g1" + ")" * depth, d, n)
        assert info.value.position == 5 + MAX_PAREN_DEPTH
    # sibling groups do not add up
    assert parse_and_evaluate("*".join([deepest] * 3), d, n) \
        == parse_and_evaluate("(g1 + 1)^3", d, n)


@pytest.mark.parametrize("text", [
    "g5", "t9", "e0", "E(7; 2,1)", "E(1; 2,2)", "e1^-1", "T1^-2",
])
def test_evaluate_errors(text):
    with pytest.raises(EvalError):
        parse_and_evaluate(text, 2, 3)


def test_round_trip_corpus():
    d, n = 2, 3
    corpus = [
        "g1", "g2", "t1", "t3", "e1", "e2", "T1", "T3", "q", "q^-1",
        "g1 * g2", "g2 * g1", "g1 + g2", "g1 - g2", "g1 * g2 * g1",
        "t1 * g1", "g1 * t1", "q * g1 + 1", "2/3 * t2^1", "t2^-1 * t2",
        "(g1 + 1) * (g2 - 1)", "(q - 1) * e1", "e1 * e2 * g1",
        "E(2; 1,2)", "E(1; 0,3) * g1", "g1^2 - q", "T1 * e1",
        "1/4 + 3/4", "q^2 * g1^-1", "(g1 * g2)^2",
    ]
    import json
    for text in corpus:
        x = parse_and_evaluate(text, d, n)
        y = parse_and_evaluate(text, d, n)
        assert x == y, text
        # serialization is deterministic for equal elements
        assert json.dumps(x.to_json()) == json.dumps(y.to_json()), text


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_powers_by_squaring_equal_the_loop_product(d, n):
    # base^k by repeated squaring against k products in a row, for every k
    # up to 9 and at 31 and 64 (all bits set, one bit set at the bound)
    g1 = yk.gen_g(d, n, 1)
    bases = {"g1": g1, "g1^-1": yk.gen_g_inv(d, n, 1),
             "(g1 + t1 - q)": g1 + yk.gen_t(d, n, 1) - yk.unit(d, n).scale(RatFunc.q(d))}
    ks = list(range(10)) + [31, 64]
    for text, base in bases.items():
        loop = yk.unit(d, n)
        for k in range(max(ks) + 1):
            if k in ks:
                power = ("g1^-%d" % k) if text == "g1^-1" else "%s^%d" % (text, k)
                assert parse_and_evaluate(power, d, n) == loop, power
            loop = loop * base
