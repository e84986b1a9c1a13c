"""Recursive-descent evaluator for algebra-element expressions.

Grammar (whitespace insensitive, left-associative):
    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)? | '(' expr ')' ('^' int)? | rational
    atom   := g<i> | t<j> | e<i> | T<j> | E(<k>; <mu_1>,...,<mu_d>) | q
    rational := int ( '/' int )?

The text is read in one pass for a fixed session (d, n): each rule returns
the YElement it denotes, and no tree is built. `expr` and `term` fold their
chains of '+', '-' and '*' left to right in a loop, whatever their length;
only parentheses nest the calls, and their depth is bounded by
MAX_PAREN_DEPTH. The first error in reading order is the one reported: an
atom that is invalid for the session raises EvalError before a syntax error
after it raises ParseError.

Negative exponents are allowed on q, on t atoms (reduced mod d), and on g
atoms (closed-form inverse); other bases require non-negative exponents. An
exponent after a parenthesised atom, as in `(q)^-1`, is the atom's. The
atoms e, T and E are idempotents, so any positive power is the atom. Powers
of g atoms and of compound expressions are taken by repeated squaring,
about 2 log2|k| products for the exponent k, and their magnitude is
bounded by MAX_LOOP_EXPONENT.
"""

from __future__ import annotations

from fractions import Fraction

from .permutations import Composition, block_characters
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


class _Reader:
    """Reads one expression and evaluates each rule as it completes. The
    rules return (element, atom): atom is the atom's (kind, *args) when the
    text read is one atom without an exponent, possibly in parentheses, and
    None otherwise, so that an exponent after the parentheses is the atom's
    (`(q)^-1` is q^-1, not a power of a compound expression)."""

    def __init__(self, text, d, n):
        self.text = text
        self.d, self.n = d, n
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

    def read(self):
        out = self.expr()[0]
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input %r" % self.text[self.pos:],
                             self.pos, expected=("+", "-", "*", "^", "end of input"))
        return out

    def expr(self):
        out, atom = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            right = self.term()[0]
            out, atom = out + right if op == "+" else out - right, None
        return out, atom

    def term(self):
        out, atom = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out, atom = out * self.factor()[0], None
        return out, atom

    def factor(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError("parentheses nested deeper than %d" % MAX_PAREN_DEPTH,
                                 self.pos)
            self.depth += 1
            self.pos += 1
            base, atom = self.expr()
            self.expect(")")
            self.depth -= 1
            power = self._exponent()
            if power is None:
                return base, atom
            if atom is not None:
                return _eval_atom(atom, self.d, self.n, power), None
            if power < 0:
                raise EvalError("negative exponent on a compound expression")
            return _power(base, power, self.d, self.n), None
        if ch.isdigit():
            value = Fraction(self._integer(signed=False))
            if self.peek() == "/":
                self.pos += 1
                den = self._integer(signed=False)
                if den == 0:
                    raise ParseError("zero denominator", self.pos)
                value /= den
            return yk.unit(self.d, self.n).scale(RatFunc.from_scalar(value, self.d)), None
        if ch in ("g", "t", "e", "T"):
            self.pos += 1
            atom = (ch, self._integer(signed=False))
        elif ch == "E":
            self.pos += 1
            self.expect("(")
            k = self._integer(signed=False)
            self.expect(";")
            parts = [self._integer(signed=False)]
            while self.peek() == ",":
                self.pos += 1
                parts.append(self._integer(signed=False))
            self.expect(")")
            atom = ("E", k, tuple(parts))
        elif ch == "q":
            self.pos += 1
            atom = ("q",)
        else:
            raise ParseError("unexpected %r" % (ch or "end of input"), self.pos,
                             expected=("g", "t", "e", "T", "E", "q", "(", "rational"))
        power = self._exponent()
        if power is None:
            return _eval_atom(atom, self.d, self.n, 1), atom
        return _eval_atom(atom, self.d, self.n, power), None

    def _exponent(self):
        """The signed integer after a '^', or None when no '^' follows."""
        if self.peek() != "^":
            return None
        self.pos += 1
        return self._integer(signed=True)


def _power(base, power, d, n):
    """base^|power| by repeated squaring: one product per bit of |power|
    and one more per bit set."""
    if abs(power) > MAX_LOOP_EXPONENT:
        raise EvalError("exponent %d exceeds the bound %d on powers of g atoms "
                        "and of compound expressions" % (power, MAX_LOOP_EXPONENT))
    out = yk.unit(d, n)
    k = abs(power)
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _eval_atom(atom, d, n, power):
    kind, *args = atom
    try:
        if kind == "q":
            return yk.unit(d, n).scale(RatFunc.q_power(power, d))
        if kind == "t":
            return yk.gen_t(d, n, args[0], power=power)
        if kind == "g":
            base = yk.gen_g(d, n, args[0]) if power >= 0 else yk.gen_g_inv(d, n, args[0])
            return _power(base, power, d, n)
        # e, T and E are idempotents: every positive power is the atom itself
        if power < 0:
            raise EvalError("%s atoms are not invertible" % kind)
        if kind == "e":
            base = yk.e(d, n, args[0])
        elif kind == "T":
            base = yk.T(d, n, args[0])
        else:
            k, parts = args
            mu = Composition(parts)
            if mu.d != d or mu.n != n:
                raise EvalError("E(%d; %s) does not match session (d=%d, n=%d)"
                                % (k, ",".join(map(str, parts)), d, n))
            chars = block_characters(mu)
            if not 1 <= k <= len(chars):
                raise EvalError("character index %d out of range 1..%d" % (k, len(chars)))
            base = yk.E_chi(d, n, chars[k - 1])
        return base if power >= 1 else yk.unit(d, n)
    except ValueError as exc:
        raise EvalError(str(exc)) from exc


def parse_and_evaluate(text, d, n):
    """The YElement that text denotes in Y(d, n). Raises ParseError at the
    position of a syntax error and EvalError for an atom or a power that the
    session cannot evaluate, whichever comes first in the text."""
    return _Reader(text, d, n).read()
