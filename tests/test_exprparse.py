import time
from fractions import Fraction

import pytest

from ytl.exprparse import (MAX_LOOP_EXPONENT, MAX_PAREN_DEPTH, Atom, BinOp, EvalError,
                           ParseError, Power, Rational, parse, parse_and_evaluate)
from ytl.scalars import RatFunc
from ytl import yokonuma as yk


def test_parse_atoms():
    assert parse("g1") == Atom("g", 1)
    assert parse("t12") == Atom("t", 12)
    node = parse("E(2; 1, 2)")
    assert node == Atom("E", 2, (1, 2))


def test_parse_precedence_and_power():
    node = parse("g1 + t2 * q^2")
    assert isinstance(node, BinOp) and node.op == "+"
    assert isinstance(node.right, BinOp) and node.right.op == "*"
    assert isinstance(node.right.right, Power)
    assert node.right.right.exponent == 2
    neg = parse("q^-3")
    assert neg.exponent == -3
    grouped = parse("(g1 + g2)^2")
    assert isinstance(grouped, Power) and isinstance(grouped.base, BinOp)


def test_parse_rationals():
    assert parse("3").value == Fraction(3)
    assert parse("2/3").value == Fraction(2, 3)
    with pytest.raises(ParseError):
        parse("1/0")


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
        parse(text)
    assert info.value.position == pos


def test_parse_error_expected_set():
    with pytest.raises(ParseError) as info:
        parse("(g1")
    assert ")" in info.value.expected


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


def test_repr_of_long_chains():
    atom = "Atom('g', (1,))"
    want = atom
    for _ in range(2999):
        want = "BinOp('+', %s, %s)" % (want, atom)
    assert repr(parse("+".join(["g1"] * 3000))) == want
    # the loop prints what the recursive form printed
    assert repr(parse("(g1 - 2*t2^3) * q")) == \
        "BinOp('*', BinOp('-', Atom('g', (1,)), BinOp('*', Rational(Fraction(2, 1)), " \
        "Power(Atom('t', (2,)), 3))), Atom('q', ()))"


def test_paren_depth_is_bounded():
    d, n = 1, 2
    deepest = "(" * MAX_PAREN_DEPTH + "g1 + 1" + ")" * MAX_PAREN_DEPTH
    assert parse_and_evaluate(deepest + "^2", d, n) \
        == parse_and_evaluate("(g1 + 1)^2", d, n)
    for depth in (MAX_PAREN_DEPTH + 1, 400, 5000):
        with pytest.raises(ParseError, match="deeper than %d" % MAX_PAREN_DEPTH) as info:
            parse("g1 * " + "(" * depth + "g1" + ")" * depth)
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
