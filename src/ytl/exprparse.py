"""Recursive-descent parser for algebra-element expressions.

Grammar (whitespace insensitive, left-associative):
    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)? | '(' expr ')' ('^' int)? | rational
    atom   := g<i> | t<j> | e<i> | T<j> | E(<k>; <mu_1>,...,<mu_d>) | q
    rational := int ( '/' int )?

Evaluation produces a YElement for a fixed session (d, n). Negative
exponents are allowed on q, on t atoms (reduced mod d), and on g atoms
(closed-form inverse); other bases require non-negative exponents. The
atoms e, T and E are idempotents, so any positive power is the atom. Powers
of g atoms and of compound expressions run one multiplication per unit of
the exponent, so their magnitude is bounded by MAX_LOOP_EXPONENT. Chains of
'+', '-' and '*' are evaluated in a loop, whatever their length; only
parentheses nest, and their depth is bounded by MAX_PAREN_DEPTH.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .permutations import Composition, coset_system
from .scalars import RatFunc
from . import yokonuma as yk


MAX_LOOP_EXPONENT = 64
MAX_PAREN_DEPTH = 100


class ParseError(Exception):
    def __init__(self, message, position, expected=()):
        super().__init__("%s at position %d%s" % (
            message, position,
            " (expected one of: %s)" % ", ".join(sorted(expected)) if expected else ""))
        self.position = position
        self.expected = tuple(sorted(expected))


class EvalError(Exception):
    """Index out of range or unsupported operation for the session."""


# -- AST ---------------------------------------------------------------------

class Node:
    pass


class Atom(Node):
    def __init__(self, kind, *args):
        self.kind = kind   # 'g' 't' 'e' 'T' 'E' 'q'
        self.args = args

    def __eq__(self, other):
        return isinstance(other, Atom) and (self.kind, self.args) == (other.kind, other.args)

    def __repr__(self):
        return "Atom(%r, %r)" % (self.kind, self.args)


class Rational(Node):
    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Rational(%r)" % (self.value,)


class BinOp(Node):
    def __init__(self, op, left, right):
        self.op = op       # '+', '-', '*'
        self.left = left
        self.right = right

    def __repr__(self):
        # a loop, not recursion: a chain of thousands of operators is a
        # left-leaning tree that deep
        out = []
        stack = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, BinOp):
                stack.extend((")", item.right, ", ", item.left, "BinOp(%r, " % (item.op,)))
            else:
                out.append(repr(item))
        return "".join(out)


class Power(Node):
    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent

    def __repr__(self):
        return "Power(%r, %d)" % (self.base, self.exponent)


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError("unexpected %r" % (self.peek() or "end of input"),
                             self.pos, expected=(ch,))
        self.pos += 1

    def _integer(self, signed=True):
        self._skip_ws()
        start = self.pos
        if signed and self.peek() in ("+", "-"):
            self.pos += 1
        digits = 0
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
            digits += 1
        if digits == 0:
            raise ParseError("expected integer", start, expected=("integer",))
        return int(self.text[start:self.pos])

    def parse(self):
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input %r" % self.text[self.pos:],
                             self.pos, expected=("+", "-", "*", "^", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.pos += 1
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError("parentheses nested deeper than %d" % MAX_PAREN_DEPTH,
                                 self.pos)
            self.depth += 1
            self.pos += 1
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return self._maybe_power(node)
        if ch.isdigit():
            num = self._integer(signed=False)
            if self.peek() == "/":
                self.pos += 1
                den = self._integer(signed=False)
                if den == 0:
                    raise ParseError("zero denominator", self.pos)
                return Rational(Fraction(num, den))
            return Rational(Fraction(num))
        if ch in ("g", "t", "e", "T"):
            self.pos += 1
            idx = self._integer(signed=False)
            return self._maybe_power(Atom(ch, idx))
        if ch == "E":
            self.pos += 1
            self.expect("(")
            k = self._integer(signed=False)
            self.expect(";")
            parts = [self._integer(signed=False)]
            while self.peek() == ",":
                self.pos += 1
                parts.append(self._integer(signed=False))
            self.expect(")")
            return self._maybe_power(Atom("E", k, tuple(parts)))
        if ch == "q":
            self.pos += 1
            return self._maybe_power(Atom("q"))
        raise ParseError("unexpected %r" % (ch or "end of input"), self.pos,
                         expected=("g", "t", "e", "T", "E", "q", "(", "rational"))

    def _maybe_power(self, node):
        if self.peek() == "^":
            self.pos += 1
            return Power(node, self._integer(signed=True))
        return node


def parse(text):
    return _Parser(text).parse()


# -- evaluation ---------------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def evaluate(node, d, n):
    """Evaluate an AST to a YElement for the session (d, n). A left-
    associative chain of operations is folded from its left end in a loop,
    so only parentheses nest the calls."""
    if isinstance(node, Rational):
        return yk.unit(d, n).scale(RatFunc.from_scalar(node.value, d))
    if isinstance(node, Atom):
        return _eval_atom(node, d, n, 1)
    if isinstance(node, BinOp):
        chain = []
        while isinstance(node, BinOp):
            chain.append(node)
            node = node.left
        out = evaluate(node, d, n)
        for op in reversed(chain):
            out = _BINARY[op.op](out, evaluate(op.right, d, n))
        return out
    if isinstance(node, Power):
        if isinstance(node.base, Atom):
            return _eval_atom(node.base, d, n, node.exponent)
        if node.exponent < 0:
            raise EvalError("negative exponent on a compound expression")
        _check_loop_exponent(node.exponent)
        out = yk.unit(d, n)
        base = evaluate(node.base, d, n)
        for _ in range(node.exponent):
            out = out * base
        return out
    raise TypeError("unknown node %r" % (node,))


def _check_loop_exponent(power):
    if abs(power) > MAX_LOOP_EXPONENT:
        raise EvalError("exponent %d exceeds the bound %d on powers of g atoms "
                        "and of compound expressions" % (power, MAX_LOOP_EXPONENT))


def _eval_atom(atom, d, n, power):
    kind = atom.kind
    try:
        if kind == "q":
            return yk.unit(d, n).scale(RatFunc.q_power(power, d))
        if kind == "t":
            return yk.gen_t(d, n, atom.args[0], power=power)
        if kind == "g":
            i = atom.args[0]
            base = yk.gen_g(d, n, i) if power >= 0 else yk.gen_g_inv(d, n, i)
            _check_loop_exponent(power)
            out = yk.unit(d, n)
            for _ in range(abs(power)):
                out = out * base
            return out
        if kind in ("e", "T", "E"):
            # idempotents: every positive power is the atom itself
            if power < 0:
                raise EvalError("%s atoms are not invertible" % kind)
            if kind == "e":
                base = yk.e(d, n, atom.args[0])
            elif kind == "T":
                base = yk.T(d, n, atom.args[0])
            else:
                k, parts = atom.args
                mu = Composition(parts)
                if mu.d != d or mu.n != n:
                    raise EvalError("E(%d; %s) does not match session (d=%d, n=%d)"
                                    % (k, ",".join(map(str, parts)), d, n))
                m = coset_system(mu).m
                if not 1 <= k <= m:
                    raise EvalError("character index %d out of range 1..%d" % (k, m))
                base = yk.E_chi(d, n, yk.character_exponents(mu, k))
            return base if power >= 1 else yk.unit(d, n)
    except ValueError as exc:
        raise EvalError(str(exc)) from exc
    raise TypeError("unknown atom %r" % (atom,))


def parse_and_evaluate(text, d, n):
    return evaluate(parse(text), d, n)
