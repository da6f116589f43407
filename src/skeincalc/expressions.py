"""Tokenizer and recursive-descent parser for skein expressions.

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
separate syntax tree.  A scalar is a Q(A) value (a RationalFunction)
from its first token.  Over 1, its sums and products are the Laurent
polynomial's own, with no gcd.  A quotient of two scalars over 1 is
RationalFunction(n, d): one _monic and one _cancel, with no inverse and
no product; any other quotient is a product by the divisor's inverse.
A scalar becomes a SkeinT2Element at a curve label, as a multiple of
the empty link or as the coefficient of the element it meets; a bare
label c*(p,q) takes c as its coefficient with no product.  A sum t1 +
t2 + ... that holds an element adds each term, from the first element
on, into one coefficient map, so it costs one pass and not a copy of
the map per '+'.  Scalars are central and canonical forms are unique,
so the result is the same canonical element as evaluating everything in
the skein algebra.

A parenthesized Laurent polynomial with integer coefficients, such as
(2*A^-5 - A + 3), is scanned as one POLY token: '(' then signed
monomials c, A^e or c*A^e joined by '+' or '-', then ')', with spaces
as the only blanks.  The parser sums its terms straight into the
polynomial's coefficient map, with no product or sum per monomial, and
takes it over 1.  A curve label with spaces as its only blanks, such as
( -1, 2), is one LABEL token, which the parser turns into curve(p, q)
directly.  Each value is the one the grammar gives the same text.  Any
other text at a '(' (a tab or newline, a '/', a malformed power) is left
to the grammar token by token.  A rendered coefficient with int
coefficients is made of literals, but one with fractions is not:
(2*A)/(4*A^2 + 2)*(1,0) renders as ((1/2*A)/(A^2 + 1/2))*(1,0), read
through the grammar.

Nesting through '(' and unary minus is bounded by MAX_DEPTH, so a deep
input ends in an ExpressionError rather than a RecursionError.  A
literal is as deep as the grammar nests it: one level for its '(' and
one more for a leading minus.  Errors carry the line, column and
offending token; a literal or label is named by its '('.  A token is a plain
(kind, text, line, col) tuple.
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

# A parsed subexpression: a Q(A) scalar until it meets a curve label, an
# element from then on.
Value = RationalFunction | SkeinT2Element

Token = tuple[str, str, int, int]  # (kind, text, line, col)


# The text of a POLY token, a Laurent-polynomial literal (module docstring).
_MONO = r"(?:\d+(?: *\* *A(?: *\^ *-? *\d+)?)?|A(?: *\^ *-? *\d+)?)"
_LITERAL = re.compile(rf"\( *-? *{_MONO}(?: *[+-] *{_MONO})* *\)")
# The text of a LABEL token, a curve label with spaces as its only blanks.
_LABEL = re.compile(r"\( *-? *\d+ *, *-? *\d+ *\)")

_SINGLE = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
}


def tokenize(source: str) -> list[Token]:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        start = col
        if ch == "(" and (m := _LITERAL.match(source, i) or _LABEL.match(source, i)):
            j = m.end()
            tokens.append(("POLY" if m.re is _LITERAL else "LABEL", source[i:j], line, start))
            col += j - i
            i = j
            continue
        if ch.isdecimal():  # exactly the digits int() accepts
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(("INT", source[i:j], line, start))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("NAME", source[i:j], line, start))
            col += j - i
            i = j
            continue
        kind = _SINGLE.get(ch)
        if kind is None:
            raise ExpressionError(line, col, f"unexpected character {ch!r}")
        tokens.append((kind, ch, line, start))
        i += 1
        col += 1
    tokens.append(("EOF", "", line, col))
    return tokens


def _literal(text: str) -> RationalFunction:
    # The Laurent polynomial a POLY token spells, over 1, summed term by term:
    # each signed monomial c, [c*]A or [c*]A^e after splitting the body at '+'.
    acc: dict[int, int] = {}
    get = acc.get
    body = text[1:-1].replace(" ", "").replace("-", "+-").replace("^+-", "^-")
    for mono in body.split("+"):
        if not mono:
            continue  # before a leading sign
        c, a, e = mono.partition("A")
        if a:
            e = int(e[1:]) if e else 1
            c = -1 if c == "-" else int(c[:-1]) if c else 1
        else:
            e, c = 0, int(c)
        acc[e] = get(e, 0) + c
    return RationalFunction(LaurentPoly._raw({e: c for e, c in acc.items() if c}))


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
            raise ExpressionError(tok[2], tok[3], f"expected {what}, found {_shown(tok)!r}")
        return self.advance()

    def fail(self, tok: Token, message: str):
        raise ExpressionError(tok[2], tok[3], f"{message} (near {_shown(tok)!r})")

    def _nest(self, tok: Token) -> None:
        # One level deeper, through '(' or a unary minus.
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(tok, f"expression nested deeper than {MAX_DEPTH} levels")

    def parse(self) -> Value:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            self.fail(tok, "trailing input after expression")
        return value

    def expr(self) -> Value:
        value = self.term()
        tokens = self.tokens
        acc = None  # the sum's coefficient map, from its first element on
        while (kind := tokens[self.pos][0]) == "PLUS" or kind == "MINUS":
            self.pos += 1
            minus = kind == "MINUS"
            rhs = self.term()
            if acc is None and SkeinT2Element not in (type(value), type(rhs)):
                value = value - rhs if minus else value + rhs
                continue
            if acc is None:
                acc = dict(_element(value).terms)
            terms = _element(rhs).terms.items()
            _accumulate(acc, ((k, -c) for k, c in terms) if minus else terms)
        return value if acc is None else SkeinT2Element._raw(acc)

    def term(self) -> Value:
        value = self.factor()
        tokens = self.tokens
        while (op := tokens[self.pos])[0] == "STAR" or op[0] == "SLASH":
            self.pos += 1
            rhs = self.factor()
            if op[0] == "SLASH":
                value = self._divide(value, rhs, op)
            elif type(value) is type(rhs):
                value = value * rhs
            elif type(rhs) is SkeinT2Element:
                value = _scaled(rhs, value)
            else:
                value = _scaled(value, rhs)
        return value

    def _divide(self, value: Value, c: Value, op: Token) -> Value:
        if type(c) is SkeinT2Element:
            if c.support() - {EMPTY}:
                self.fail(op, "divisor must be a scalar")
            c = c.coeff(EMPTY)
        if c.is_zero():
            self.fail(op, "division by zero")
        if type(value) is SkeinT2Element:
            return value.scale(c.inverse())
        if value.den.is_one() and c.den.is_one():
            return RationalFunction(value.num, c.num)  # one _monic and one _cancel
        return value * c.inverse()

    def factor(self) -> Value:
        tok = self.tokens[self.pos]
        if tok[0] == "MINUS":
            self.pos += 1
            self._nest(tok)
            value = -self.factor()
            self.depth -= 1
            return value
        return self.atom()

    def _signed_int(self, what: str) -> int:
        sign = 1
        if self.peek()[0] == "MINUS":
            self.advance()
            sign = -1
        return sign * int(self.expect("INT", what)[1])

    def atom(self) -> Value:
        tok = self.tokens[self.pos]
        kind, text, _, _ = tok
        if kind == "LABEL":
            self.pos += 1
            p, q = text[1:-1].replace(" ", "").split(",")
            return SkeinT2Element.curve(int(p), int(q))
        if kind == "INT":
            self.pos += 1
            return RationalFunction.from_int(int(text))
        if kind == "NAME":
            self.pos += 1
            if text == "A":
                exp = 1
                if self.peek()[0] == "CARET":
                    self.advance()
                    exp = self._signed_int("an integer exponent")
                return a_pow(exp)
            if text == "empty":
                return RationalFunction.one()
            self.fail(tok, f"unknown name {text!r}")
        if kind == "POLY":
            # As deep as the grammar would nest it: one level for the '(' and
            # one more for a leading unary minus, reported at that '-'.
            self._nest(tok)
            body = text[1:].lstrip(" ")
            if body[0] == "-":
                self._nest(("MINUS", "-", tok[2], tok[3] + len(text) - len(body)))
                self.depth -= 1
            self.depth -= 1
            self.pos += 1
            return _literal(text)
        if kind == "LPAREN":
            # Curve label when an integer then a comma follow.
            k = 1 if self.peek(1)[0] != "MINUS" else 2
            if self.peek(k)[0] == "INT" and self.peek(k + 1)[0] == "COMMA":
                self.advance()
                p = self._signed_int("an integer")
                self.expect("COMMA", "','")
                q = self._signed_int("an integer")
                self.expect("RPAREN", "')'")
                return SkeinT2Element.curve(p, q)
            self.pos += 1
            self._nest(tok)
            value = self.expr()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return value
        self.fail(tok, "expected a number, 'A', 'empty', a curve label or '('")


def _shown(tok: Token) -> str:
    # A token as an error message names it; a literal or label by its '('.
    kind, text = tok[0], tok[1]
    return "(" if kind == "POLY" or kind == "LABEL" else text or "end of input"


def _element(value: Value) -> SkeinT2Element:
    # A scalar value as a multiple of the empty link; elements pass through.
    return value if type(value) is SkeinT2Element else SkeinT2Element.scalar(value)


def _scaled(element: SkeinT2Element, coeff: RationalFunction) -> SkeinT2Element:
    # coeff * element; a bare label, one term with coefficient 1, takes coeff
    # itself as its coefficient.
    if len(element.terms) == 1:
        ((label, c),) = element.terms.items()
        if c.is_one():
            return SkeinT2Element({label: coeff})
    return element.scale(coeff)


def parse_element(source: str) -> SkeinT2Element:
    """Parse a skein expression into a canonical element."""
    return _element(_Parser(tokenize(source)).parse())


def parse_scalar(source: str) -> RationalFunction:
    """Parse text in the rational-function grammar into a Q(A) value."""
    element = parse_element(source)
    if element.support() - {EMPTY}:
        raise ExpressionError(1, 1, "expected a scalar expression, found curve labels")
    return element.coeff(EMPTY)
