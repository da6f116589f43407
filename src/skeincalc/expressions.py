"""Flat-sum reader, tokenizer and recursive-descent parser for skein expressions.

Grammar, lowest to highest precedence:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom
    atom   := INT | 'A' ['^' ['-'] INT] | 'empty'
            | '(' ['-'] INT ',' ['-'] INT ')'      -- curve label
            | '(' expr ')'

'*' is the skein product and '/' requires a nonzero scalar divisor, so
rational-function text such as (-A^4 - 1)/(A^2 + 1) parses to the scalar
it denotes.  A '(' opens a curve label exactly when an integer followed
by a comma comes next.  Evaluation happens during parsing; there is no
separate syntax tree.  Every value is a SkeinT2Element: an INT, A^k and
'empty' are multiples of the empty link, a quotient is the product by
the inverse of the divisor's empty-link coefficient, and a sum
t1 + t2 + ... adds each term into one coefficient map, so it costs one
pass and not a copy of the map per '+'.

Every element renders as a flat sum: terms (N)*L or ((N)/(D))*L joined
by ' + ', N and D integer Laurent polynomials spelled as they render
(2*A^-5 - A + 3), L a curve label (p,q) or 'empty'.  parse_element first
reads the whole text as such a sum, also with (N)/(D)*L terms, through
one compiled pattern: each term is RationalFunction(N, D) as the
coefficient of its label (Combination.scale, so (0,0) is twice empty),
summed into one map.  Any other text, and any the reader cannot finish
(a zero denominator, a literal past int's digit limit), goes to the
grammar unchanged, so every value, error and position is the grammar's.

Nesting through '(' and unary minus is bounded by MAX_DEPTH, so a deep
input ends in an ExpressionError rather than a RecursionError.  An
integer literal longer than MAX_DIGITS digits is refused as it is
scanned.  Errors carry the line, column and offending token.

The scanner is one regular expression, read with one findall per
source: each match is a token's leading blanks and then its text, so a
column is a sum of lengths.  A token is a plain (kind, text, line, col)
tuple; INT, NAME and EOF are kinds, and a one-character token such as
'+' or '(' is its own kind.
"""

from __future__ import annotations

import re

from .combination import _accumulate
from .errors import ExpressionError
from .ratfunc import LaurentPoly, RationalFunction, a_pow
from .torus2 import EMPTY, SkeinT2Element


# Deepest nesting of '(' and unary minus accepted; each level costs the
# recursive descent up to four interpreter frames, so this stays well
# below the interpreter's recursion limit.
MAX_DEPTH = 100

# Longest integer literal accepted: int()'s default limit on decimal text.
MAX_DIGITS = 4300

Token = tuple[str, str, int, int]  # (kind, text, line, col)


# One token after its blanks: an INT (exactly the digits int() accepts), a
# NAME, a one-character token, a newline, any other character, or the end of
# the source.
_TOKEN = re.compile(r"([ \t\r]*)(?:(\d+)|([^\W\d]\w*)|([-+*/^(),])|(\n)|([^ \t\r])|\Z)")

# A Laurent polynomial with integer coefficients as it renders: signed
# monomials c, A, A^e, c*A or c*A^e joined by ' + ' or ' - '.
_MONO = r"(?:\d+(?:\*A(?:\^-?\d+)?)?|A(?:\^-?\d+)?)"
_POLY = rf"-?{_MONO}(?: [+-] {_MONO})*"
# One flat-sum term (module docstring): its text, the optional outer '(', N,
# D, and the label's p and q (empty for 'empty').
_FLAT_TERM = re.compile(
    rf"((\()?\(({_POLY})\)(?:/\(({_POLY})\))?(?(2)\))\*(?:\((-?\d+),(-?\d+)\)|empty))"
)


def tokenize(source: str) -> list[Token]:
    tokens = []
    line = col = 1
    for blanks, digits, name, single, newline, other in _TOKEN.findall(source):
        col += len(blanks)
        if single:
            tokens.append((single, single, line, col))
            col += 1
        elif newline:
            line, col = line + 1, 1
        elif other or name and not (name[0].isalpha() or name[0] == "_"):
            # [^\W\d] also takes a numeric character int() refuses, such as '\u00b2'.
            raise ExpressionError(line, col, f"unexpected character {(other or name)[0]!r}")
        elif text := digits or name:
            if len(digits) > MAX_DIGITS:
                raise ExpressionError(line, col, f"integer literal longer than {MAX_DIGITS} digits")
            tokens.append(("INT" if digits else "NAME", text, line, col))
            col += len(text)
        else:
            break  # the end of the source
    tokens.append(("EOF", "", line, col))
    return tokens


def _literal(text: str) -> LaurentPoly:
    # The Laurent polynomial _POLY matched, summed term by term: each signed
    # monomial c, [c*]A or [c*]A^e between the ' + ' separators.
    acc: dict[int, int] = {}
    get = acc.get
    for mono in text.replace(" - ", " + -").split(" + "):
        c, a, e = mono.partition("A")
        if a:
            e = int(e[1:]) if e else 1
            c = -1 if c == "-" else int(c[:-1]) if c else 1
        else:
            e, c = 0, int(c)
        acc[e] = get(e, 0) + c
    return LaurentPoly._raw({e: c for e, c in acc.items() if c})


class _Parser:
    def __init__(self, tokens: list[Token]):
        # peek looks at most 3 tokens ahead, for a curve label's "( - INT ,",
        # and advance never moves past EOF; three more copies of EOF keep
        # every lookahead inside the list.
        self.tokens = tokens + [tokens[-1]] * 3
        self.pos = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionError(tok[2], tok[3], f"expected {what}, found {tok[1] or 'end of input'!r}")
        return self.advance()

    def fail(self, tok: Token, message: str):
        raise ExpressionError(tok[2], tok[3], f"{message} (near {tok[1] or 'end of input'!r})")

    def _nest(self, tok: Token) -> None:
        # One level deeper, through '(' or a unary minus.
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(tok, f"expression nested deeper than {MAX_DEPTH} levels")

    def parse(self) -> SkeinT2Element:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            self.fail(tok, "trailing input after expression")
        return value

    def expr(self) -> SkeinT2Element:
        acc = dict(self.term().terms)
        tokens = self.tokens
        while (kind := tokens[self.pos][0]) == "+" or kind == "-":
            self.pos += 1
            terms = self.term().terms.items()
            _accumulate(acc, ((k, -c) for k, c in terms) if kind == "-" else terms)
        return SkeinT2Element._raw(acc)

    def term(self) -> SkeinT2Element:
        value = self.factor()
        tokens = self.tokens
        while (op := tokens[self.pos])[0] == "*" or op[0] == "/":
            self.pos += 1
            rhs = self.factor()
            if op[0] == "*":
                value = value * rhs
            elif rhs.support() - {EMPTY}:
                self.fail(op, "divisor must be a scalar")
            elif (c := rhs.coeff(EMPTY)).is_zero():
                self.fail(op, "division by zero")
            else:
                value = value.scale(c.inverse())
        return value

    def factor(self) -> SkeinT2Element:
        tok = self.tokens[self.pos]
        if tok[0] == "-":
            self.pos += 1
            self._nest(tok)
            value = -self.factor()
            self.depth -= 1
            return value
        return self.atom()

    def _signed_int(self, what: str) -> int:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        return sign * int(self.expect("INT", what)[1])

    def atom(self) -> SkeinT2Element:
        tok = self.tokens[self.pos]
        kind, text, _, _ = tok
        if kind == "INT":
            self.pos += 1
            return SkeinT2Element.scalar(RationalFunction.from_int(int(text)))
        if kind == "NAME":
            self.pos += 1
            if text == "A":
                exp = 1
                if self.peek()[0] == "^":
                    self.advance()
                    exp = self._signed_int("an integer exponent")
                return SkeinT2Element.scalar(a_pow(exp))
            if text == "empty":
                return SkeinT2Element.unit()
            self.fail(tok, f"unknown name {text!r}")
        if kind == "(":
            # Curve label when an integer then a comma follow.
            k = 1 if self.peek(1)[0] != "-" else 2
            if self.peek(k)[0] == "INT" and self.peek(k + 1)[0] == ",":
                self.advance()
                p = self._signed_int("an integer")
                self.expect(",", "','")
                q = self._signed_int("an integer")
                self.expect(")", "')'")
                return SkeinT2Element.curve(p, q)
            self.pos += 1
            self._nest(tok)
            value = self.expr()
            self.expect(")", "')'")
            self.depth -= 1
            return value
        self.fail(tok, "expected a number, 'A', 'empty', a curve label or '('")


def parse_element(source: str) -> SkeinT2Element:
    """Parse a skein expression into a canonical element."""
    terms = _FLAT_TERM.findall(source)
    if terms and " + ".join([t[0] for t in terms]) == source:
        acc: dict = {}
        try:
            for _, _, n, d, p, q in terms:
                c = RationalFunction(_literal(n), _literal(d) if d else None)
                label = SkeinT2Element.curve(int(p), int(q)) if p else SkeinT2Element.unit()
                _accumulate(acc, label.scale(c).terms.items())
            return SkeinT2Element._raw(acc)
        except (ValueError, ArithmeticError, MemoryError):
            pass  # int's digit limit, a zero denominator, a size budget: the grammar's error
    return _Parser(tokenize(source)).parse()


def parse_scalar(source: str) -> RationalFunction:
    """Parse text in the rational-function grammar into a Q(A) value."""
    element = parse_element(source)
    if element.support() - {EMPTY}:
        raise ExpressionError(1, 1, "expected a scalar expression, found curve labels")
    return element.coeff(EMPTY)
