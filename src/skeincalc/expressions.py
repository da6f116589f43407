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
separate syntax tree.  A subexpression is evaluated as a Q(A) value (a
RationalFunction) until it meets a curve label; only then does it become
a SkeinT2Element, as a multiple of the empty link or by scaling the
element it meets.  Scalars are central and canonical forms are unique,
so the result is the same canonical element as evaluating everything in
the skein algebra, at the cost of plain Q(A) arithmetic.

Nesting through '(' and unary minus is bounded by MAX_DEPTH, so a deep
input ends in an ExpressionError rather than a RecursionError.  Errors
carry the line, column and offending token.  A token is a plain
(kind, text, line, col) tuple.
"""

from __future__ import annotations

from .errors import ExpressionError
from .ratfunc import RationalFunction, a_pow
from .torus2 import EMPTY, SkeinT2Element


# Deepest nesting of '(' and unary minus accepted; each level costs the
# recursive descent up to four interpreter frames, so this stays well
# below the interpreter's recursion limit.
MAX_DEPTH = 100

# A parsed subexpression: a Q(A) scalar until it meets a curve label.
Value = RationalFunction | SkeinT2Element

Token = tuple[str, str, int, int]  # (kind, text, line, col)


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
            _, text, line, col = tok
            raise ExpressionError(line, col, f"expected {what}, found {text or 'end of input'!r}")
        return self.advance()

    def fail(self, tok: Token, message: str):
        _, text, line, col = tok
        raise ExpressionError(line, col, f"{message} (near {text or 'end of input'!r})")

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
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            if type(value) is not type(rhs):
                value, rhs = _element(value), _element(rhs)
            value = value + rhs if op[0] == "PLUS" else value - rhs
        return value

    def term(self) -> Value:
        value = self.factor()
        while self.peek()[0] in ("STAR", "SLASH"):
            op = self.advance()
            rhs = self.factor()
            if op[0] == "SLASH":
                value = self._divide(value, rhs, op)
            elif type(value) is type(rhs):
                value = value * rhs
            elif type(rhs) is RationalFunction:
                value = value.scale(rhs)
            else:
                value = rhs.scale(value)
        return value

    def _divide(self, value: Value, divisor: Value, op: Token) -> Value:
        c = divisor
        if type(divisor) is SkeinT2Element:
            if divisor.support() - {EMPTY}:
                self.fail(op, "divisor must be a scalar")
            c = divisor.coeff(EMPTY)
        if c.is_zero():
            self.fail(op, "division by zero")
        inv = c.inverse()
        return value * inv if type(value) is RationalFunction else value.scale(inv)

    def factor(self) -> Value:
        if self.peek()[0] == "MINUS":
            self._nest(self.advance())
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
        tok = self.peek()
        kind, text, _, _ = tok
        if kind == "INT":
            self.advance()
            return RationalFunction.from_int(int(text))
        if kind == "NAME":
            self.advance()
            if text == "A":
                exp = 1
                if self.peek()[0] == "CARET":
                    self.advance()
                    exp = self._signed_int("an integer exponent")
                return a_pow(exp)
            if text == "empty":
                return RationalFunction.one()
            self.fail(tok, f"unknown name {text!r}")
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
            self._nest(self.advance())
            value = self.expr()
            self.expect("RPAREN", "')'")
            self.depth -= 1
            return value
        self.fail(tok, "expected a number, 'A', 'empty', a curve label or '('")


def _element(value: Value) -> SkeinT2Element:
    # A scalar value as a multiple of the empty link; elements pass through.
    return SkeinT2Element.scalar(value) if type(value) is RationalFunction else value


def parse_element(source: str) -> SkeinT2Element:
    """Parse a skein expression into a canonical element."""
    return _element(_Parser(tokenize(source)).parse())


def parse_scalar(source: str) -> RationalFunction:
    """Parse text in the rational-function grammar into a Q(A) value."""
    element = parse_element(source)
    if element.support() - {EMPTY}:
        raise ExpressionError(1, 1, "expected a scalar expression, found curve labels")
    return element.coeff(EMPTY)
