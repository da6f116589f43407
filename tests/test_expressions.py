import random
from fractions import Fraction

import pytest

from skeincalc import expressions, ratfunc
from skeincalc.expressions import (
    MAX_DEPTH,
    MAX_DIGITS,
    ExpressionError,
    _Parser,
    parse_element,
    parse_scalar,
    tokenize,
)
from skeincalc.ratfunc import LaurentPoly, RationalFunction, a_pow
from skeincalc.torus2 import SkeinT2Element, commutator, curve, scalar


def test_parse_product():
    got = parse_element("(1,0)*(0,1)")
    want = curve(1, 1).scale(a_pow(1)) + curve(1, -1).scale(a_pow(-1))
    assert got == want


def test_parse_empty():
    assert parse_element("empty") == SkeinT2Element.unit()


def test_parse_commutator_expression():
    got = parse_element("(1,0)*(0,1) - (0,1)*(1,0)")
    assert got == commutator(curve(1, 0), curve(0, 1))


def test_precedence_product_binds_tighter():
    got = parse_element("(A^2+1)*(2,3) + (1,0)*(0,1)")
    want = curve(2, 3).scale(a_pow(2) + RationalFunction.one()) + curve(1, 0) * curve(0, 1)
    assert got == want


def test_unary_minus_and_negative_labels():
    assert parse_element("-(1,0)") == -curve(1, 0)
    assert parse_element("(-1,2)") == curve(-1, 2)
    assert parse_element("(1,-2)") == curve(1, -2)


def test_scalar_division():
    got = parse_element("(2,0)/2")
    assert got == curve(2, 0).scale(RationalFunction(LaurentPoly.constant(1)) / RationalFunction.from_int(2))
    assert parse_scalar("(A^2 - 1)/(A - 1)/(A + 1)") == RationalFunction.one()


def test_division_by_nonscalar_rejected():
    with pytest.raises(ExpressionError):
        parse_element("(1,0)/(0,1)")


def test_division_by_zero_rejected():
    with pytest.raises(ExpressionError):
        parse_element("(1,0)/0")


def test_syntax_error_reports_position():
    with pytest.raises(ExpressionError) as err:
        parse_element("(1,0) +\n* (0,1)")
    assert err.value.line == 2
    assert err.value.col == 1
    with pytest.raises(ExpressionError) as err:
        parse_element("(1,0) @ (0,1)")
    assert "@" in str(err.value)


def test_unknown_name_rejected():
    with pytest.raises(ExpressionError):
        parse_element("foo + (1,0)")


def test_scalar_parse_rejects_curves():
    with pytest.raises(ExpressionError):
        parse_scalar("(1,0) + 1")


def _random_denominator(rng):
    """1 + A^j, 1 - A^j, A^j - A^-j or the non-monic 2*A + 1, whose canonical form carries 1/2."""
    j = rng.randint(1, 3)
    one = RationalFunction.one()
    return rng.choice(
        (one + a_pow(j), one - a_pow(j), a_pow(j) - a_pow(-j), RationalFunction.from_int(2) * a_pow(1) + one)
    )


def _random_element(rng):
    out = SkeinT2Element.zero()
    for _ in range(rng.randint(0, 4)):
        p, q = rng.randint(-5, 5), rng.randint(-5, 5)
        coef = a_pow(rng.randint(-4, 4)) + RationalFunction.from_int(rng.randint(-3, 3))
        if rng.random() < 0.5:
            coef = coef / _random_denominator(rng)
        if rng.random() < 0.3:
            out = out + scalar(coef)
        elif (p, q) != (0, 0):
            out = out + curve(p, q).scale(coef)
    return out


def test_render_parse_roundtrip_on_elements():
    rng = random.Random(14)
    halves = 0
    for _ in range(150):
        x = _random_element(rng)
        parsed = parse_element(str(x))
        assert parsed == x
        # Every coefficient is a Q(A) value, never a Laurent polynomial or an
        # int, and its own coefficients are stored as an int when integral,
        # else as a Fraction.
        for c in parsed.terms.values():
            assert type(c) is RationalFunction
            assert type(c.num) is LaurentPoly and type(c.den) is LaurentPoly
            for coeff in (*c.num.terms.values(), *c.den.terms.values()):
                assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)
                halves += coeff.denominator == 2
    assert halves  # canonical forms over 2*A + 1 carry 1/2


def test_roundtrip_with_rational_coefficients():
    x = curve(1, 1).scale((a_pow(1) - a_pow(-1)).inverse()) + scalar(a_pow(-2))
    assert parse_element(str(x)) == x


# ---- scalar subterms evaluate in Q(A); results match skein-algebra evaluation


def test_scalar_mixed_and_zero_texts_give_elements():
    one = RationalFunction.one()
    s = SkeinT2Element.scalar
    cases = {
        "3*A^4 - 2/(A^2+1)": s(RationalFunction.from_int(3) * a_pow(4))
        - s(RationalFunction.from_int(2) * (a_pow(2) + one).inverse()),
        "A - A": SkeinT2Element.zero(),
        "(A - A)*(1,0) + 0": SkeinT2Element.zero(),
        "empty": SkeinT2Element.unit(),
        "2*empty*(1,0)*A": curve(1, 0).scale(RationalFunction.from_int(2) * a_pow(1)),
        "(1,0)*(A^2 - 1)/(A - 1) - A*(1,0)": curve(1, 0),
        "(1,0)*(1,0) - (2,0) + A": s(RationalFunction.from_int(2) + a_pow(1)),
        "-(-(A))*(0,1)/(1 + A)": curve(0, 1).scale(a_pow(1) * (a_pow(1) + one).inverse()),
    }
    for text, want in cases.items():
        got = parse_element(text)
        assert type(got) is SkeinT2Element, text
        assert got == want, text
        assert all(type(c) is RationalFunction for c in got.terms.values())
    assert parse_scalar("A - A") == RationalFunction.zero()
    assert parse_scalar("empty*(A + 1)") == a_pow(1) + RationalFunction.one()


def _random_text(rng, depth):
    """Seeded expression text and its value computed with skein-algebra operations only."""
    kind = rng.randrange(9 if depth else 4)
    if kind == 0:
        n = rng.randint(0, 4)
        return str(n), scalar(RationalFunction.from_int(n))
    if kind == 1:
        k = rng.randint(-3, 3)
        return f"A^{k}", scalar(a_pow(k))
    if kind == 2:
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        return f"({p},{q})", curve(p, q)
    if kind == 3:
        return "empty", SkeinT2Element.unit()
    if kind == 4:
        text, value = _random_text(rng, depth - 1)
        return f"-({text})", -value
    if kind == 5:
        num, value = _random_text(rng, depth - 1)
        den, divisor = _random_text(rng, depth - 1)
        c = divisor.coeff(())
        if divisor.support() - {()} or c.is_zero():
            return num, value
        return f"({num})/({den})", value.scale(c.inverse())
    (lt, lv), (rt, rv) = _random_text(rng, depth - 1), _random_text(rng, depth - 1)
    op = "+-*"[kind - 6]
    value = lv + rv if op == "+" else lv - rv if op == "-" else lv * rv
    return f"({lt}) {op} ({rt})", value


def test_parse_matches_skein_evaluation_seeded():
    rng = random.Random(15)
    kinds = set()
    for _ in range(400):
        text, want = _random_text(rng, 4)
        got = parse_element(text)
        assert type(got) is SkeinT2Element
        assert got == want, text
        kinds.add("zero" if got.is_zero() else "scalar" if got.support() == {()} else "mixed")
    assert kinds == {"zero", "scalar", "mixed"}


def test_sums_add_into_one_map_seeded(monkeypatch):
    # A chain t1 +- t2 +- ... equals its pairwise sum in the skein algebra,
    # and once an element joins it no element sum is formed.
    rng = random.Random(16)
    cases = []
    for _ in range(150):
        text, want = _random_text(rng, 1)
        text = f"({text})"
        for _ in range(rng.randint(1, 12)):
            t, v = _random_text(rng, 1)
            if rng.random() < 0.5:
                text, want = f"{text} + ({t})", want + v
            else:
                text, want = f"{text} - ({t})", want - v
        cases.append((text, want))
    sums = []
    add = SkeinT2Element.__add__
    monkeypatch.setattr(SkeinT2Element, "__add__", lambda x, y: sums.append(1) or add(x, y))
    for text, want in cases:
        assert parse_element(text) == want, text
    assert not sums


# ---- error messages, lines and columns


def test_error_messages_and_positions():
    cases = [
        ("1/0", 1, 2, "division by zero (near '/')"),
        ("(1,0)/0", 1, 6, "division by zero (near '/')"),
        ("(1,0)/(0,1)", 1, 6, "divisor must be a scalar (near '/')"),
        ("(1,0)/(A - A)", 1, 6, "division by zero (near '/')"),
        ("(1,0)/((1,0) - (1,0))", 1, 6, "division by zero (near '/')"),
        ("1/(A^2-A^2)", 1, 2, "division by zero (near '/')"),
        ("foo + (1,0)", 1, 1, "unknown name 'foo' (near 'foo')"),
        ("1 +\n  bar", 2, 3, "unknown name 'bar' (near 'bar')"),
        ("(1,0) +\n* (0,1)", 2, 1, "expected a number, 'A', 'empty', a curve label or '(' (near '*')"),
        ("A^2 +\n\n  (1,0) @", 3, 9, "unexpected character '@'"),
        ("((1,0)", 1, 7, "expected ')', found 'end of input'"),
        ("A^", 1, 3, "expected an integer exponent, found 'end of input'"),
        ("(1,0) (0,1)", 1, 7, "trailing input after expression (near '(')"),
        # Digits that int() refuses are not digits of the grammar.
        ("\u00b2", 1, 1, "unexpected character '\u00b2'"),
        ("A^\u00b2", 1, 3, "unexpected character '\u00b2'"),
        ("(1,0) +\n (1,\u2460)", 2, 5, "unexpected character '\u2460'"),
    ]
    for text, line, col, message in cases:
        with pytest.raises(ExpressionError) as err:
            parse_element(text)
        assert (err.value.line, err.value.col) == (line, col), text
        assert str(err.value) == f"line {line}, column {col}: {message}"


def test_decimal_digits_of_any_script_parse():
    # int() accepts every Unicode decimal digit, so the tokenizer does too.
    assert parse_scalar("\u0663") == parse_scalar("3")
    assert parse_element("\u0661*(1,\u0660)") == curve(1, 0)


# Digits int() reads and two it refuses, letters, the eight one-character
# tokens and the four blanks.
_SCAN_ALPHABET = list("0123456789\u0663\u00b2\u00bdAx_+-*/^(),") + [" ", " ", " ", "\t", "\r", "\n"]
_BLANKS = str.maketrans("", "", " \t\r\n")
_SINGLES = set("+-*/^(),")  # each is its own kind


def test_tokens_point_at_their_text_seeded():
    rng = random.Random(23)
    scanned = refused = ints = 0
    for _ in range(2000):
        source = "".join(rng.choice(_SCAN_ALPHABET) for _ in range(rng.randint(0, 30)))
        lines = source.split("\n")
        try:
            tokens = tokenize(source)
        except ExpressionError as err:
            # The error names the character at its own line and column.
            ch = lines[err.line - 1][err.col - 1]
            assert str(err).endswith(f"unexpected character {ch!r}"), source
            refused += 1
            continue
        for kind, text, line, col in tokens:
            assert lines[line - 1][col - 1 : col - 1 + len(text)] == text, (source, text)
            assert kind == text if text in _SINGLES else kind in ("INT", "NAME", "EOF")
        assert tokens[-1] == ("EOF", "", len(lines), len(lines[-1]) + 1), source
        assert "".join(tok[1] for tok in tokens).translate(_BLANKS) == source.translate(_BLANKS), source
        scanned += 1
        ints += any(tok[0] == "INT" for tok in tokens)
    assert scanned > 200 and refused > 200 and ints
    # A parenthesized polynomial or label is the grammar's tokens, '(' first.
    assert [tok[0] for tok in tokenize("(2*A^-1)")] == ["(", "INT", "*", "NAME", "^", "-", "INT", ")", "EOF"]
    assert [tok[0] for tok in tokenize("( -1, 2)")] == ["(", "-", "INT", ",", "INT", ")", "EOF"]


def test_nesting_depth_is_bounded():
    deep = MAX_DEPTH + 1
    assert parse_element("(" * MAX_DEPTH + "(1,0)" + ")" * MAX_DEPTH) == curve(1, 0)
    assert parse_element("-" * MAX_DEPTH + "(1,0)") == curve(1, 0)
    for text, col in [
        ("(" * deep + "1" + ")" * deep, deep),
        ("(" * 3000 + "(1,0)" + ")" * 3000, deep),
        ("1*" + "-" * 3000 + "(1,0)", 2 + deep),
        ("(-" * 60 + "A" + ")" * 60, deep),
    ]:
        with pytest.raises(ExpressionError) as err:
            parse_element(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert f"nested deeper than {MAX_DEPTH} levels" in str(err.value)


# ---- parenthesized Laurent-polynomial literals, read by the grammar

# ASCII, Arabic-Indic and Devanagari digits; int() reads each of them.
_DIGITS = ["".join(chr(zero + i) for i in range(10)) for zero in (0x30, 0x660, 0x966)]


def _digits(rng, n):
    script = rng.choice(_DIGITS)
    return "".join(script[int(d)] for d in str(n))


def _random_literal(rng):
    """Seeded literal text and its (exponent, coefficient) terms."""
    def sp():
        return " " * rng.choice((0, 0, 1, 2))

    terms = []
    for _ in range(rng.randint(1, 6)):
        c = rng.choice((0, 1, 1, 2, 3, 10**rng.randint(20, 60) + rng.randint(0, 9)))
        e = rng.choice((0, 1, rng.randint(-6, 6), rng.randint(-6, 6)))
        terms.append((rng.choice((1, -1)), c, e))
    text = "(" + sp()
    for i, (sign, c, e) in enumerate(terms):
        if sign < 0:
            text += "-" + sp()
        elif i:
            text += "+" + sp()
        power = f"{sp()}^{sp()}{'-' + sp() if e < 0 else ''}{_digits(rng, abs(e))}"
        if e == 1 and rng.random() < 0.5:
            power = ""
        if e == 0 and rng.random() < 0.7:
            body = _digits(rng, c)
        elif c == 1 and rng.random() < 0.5:
            body = "A" + power
        else:
            body = f"{_digits(rng, c)}{sp()}*{sp()}A{power}"
        text += body + sp()
    return text + ")", [(e, sign * c) for sign, c, e in terms]


def test_literals_parse_to_their_terms_seeded():
    rng = random.Random(16)
    zeros = big = 0
    for _ in range(600):
        text, terms = _random_literal(rng)
        sums = {}
        for e, c in terms:
            sums[e] = sums.get(e, 0) + c
        want = LaurentPoly(sums)
        got = parse_scalar(text)
        assert got == RationalFunction(want), text
        assert all(type(c) is int for c in got.num.terms.values())
        # The same text with a tab after '(' gives the same value.
        tabbed = "(\t" + text[1:]
        assert parse_scalar(tabbed) == got, text
        # As a flat-sum coefficient, spelled as written or as it renders.
        assert parse_element(f"{text}*(1,0)") == curve(1, 0).scale(got), text
        assert parse_element(f"({want})*(1,0)") == curve(1, 0).scale(got), text
        zeros += want.is_zero()
        big += any(abs(c) > 2**64 for c in want.terms.values())
    assert zeros and big
    assert parse_scalar("(A - A)") == RationalFunction.zero()
    assert parse_scalar("(0)") == RationalFunction.zero()
    assert parse_scalar("(-A^-2 + 3*A^-2)") == RationalFunction.from_int(2) * a_pow(-2)
    assert parse_scalar("(\u0663*A^\u0661\u0662)") == RationalFunction.from_int(3) * a_pow(12)


def test_near_literals_keep_their_values_and_errors():
    values = {
        "(A^2+1)": a_pow(2) + RationalFunction.one(),
        "(1\t+ A)": a_pow(1) + RationalFunction.one(),
        "(1 +\nA)": a_pow(1) + RationalFunction.one(),
        "(- -A)": a_pow(1),
        "(1 - -A)": a_pow(1) + RationalFunction.one(),
    }
    for text, want in values.items():
        assert parse_scalar(text) == want, text
    assert parse_element("( 1 , 2 )") == curve(1, 2)
    errors = [
        ("(A^)", 1, 4, "expected an integer exponent, found ')'"),
        ("(2*A^-)", 1, 7, "expected an integer exponent, found ')'"),
        ("(1 +)", 1, 5, "expected a number, 'A', 'empty', a curve label or '(' (near ')')"),
        ("(1 +\t)", 1, 6, "expected a number, 'A', 'empty', a curve label or '(' (near ')')"),
        ("(1 +\n)", 2, 1, "expected a number, 'A', 'empty', a curve label or '(' (near ')')"),
        ("(2A)", 1, 3, "expected ')', found 'A'"),
        ("(A2)", 1, 2, "unknown name 'A2' (near 'A2')"),
        ("A^(2)", 1, 3, "expected an integer exponent, found '('"),
        ("(1,0) (A + 1)", 1, 7, "trailing input after expression (near '(')"),
        ("((1,0) (2))", 1, 8, "expected ')', found '('"),
        ("(1 + A) @", 1, 9, "unexpected character '@'"),
        ("(A + 1)/(A - A)", 1, 8, "division by zero (near '/')"),
        ("(" * 101 + "1" + ")" * 101, 1, 101, "expression nested deeper than 100 levels (near '(')"),
        # A leading minus inside the innermost '(' is one level more.
        ("(" * 99 + "( -A)" + ")" * 99, 1, 102, "expression nested deeper than 100 levels (near '-')"),
    ]
    for text, line, col, message in errors:
        with pytest.raises(ExpressionError) as err:
            parse_element(text)
        assert str(err.value) == f"line {line}, column {col}: {message}", text
    assert parse_element("(" * 99 + "(A)" + ")" * 99) == scalar(a_pow(1))


# ---- curve labels, and quotients of two polynomials


def _random_label(rng):
    """Seeded label text with spaces as its blanks, and its (p, q)."""
    def sp():
        return " " * rng.choice((0, 0, 1, 2))

    p, q = rng.randint(-40, 40), rng.randint(-40, 40)
    parts = []
    for n in (p, q):
        sign = "-" + sp() if n < 0 or (n == 0 and rng.random() < 0.2) else ""
        parts.append(sp() + sign + _digits(rng, abs(n)) + sp())
    return "(" + ",".join(parts) + ")", (p, q)


def test_labels_parse_to_their_curves_seeded():
    rng = random.Random(18)
    tail = " + 2*A"  # its tokens start 1, 3, 4 and 5 characters after the label
    for _ in range(500):
        text, (p, q) = _random_label(rng)
        want = parse_element(text + tail)
        assert parse_element(text) == curve(p, q), text
        assert want == curve(p, q) + scalar(RationalFunction.from_int(2) * a_pow(1)), text
        # A tab or newline at any blank keeps the value.
        for i in [i for i, ch in enumerate(text) if ch == " "] + [1, len(text) - 1]:
            for blank in ("\t", "\n"):
                source = text[:i] + blank + text[i + (text[i] == " "):] + tail
                tokens = tokenize(source)
                assert parse_element(source) == want, source
                # The tokens after the label keep the columns their offsets give.
                start = len(source) - len(tail)
                for tok, offset in zip(tokens[-5:-1], (1, 3, 4, 5)):
                    k = start + offset
                    assert tok[2:] == (source.count("\n", 0, k) + 1, k - source.rfind("\n", 0, k)), source
    assert parse_element("(\u0663,-1)") == curve(3, -1)
    assert tokenize("(\u0663,-1)")[:2] == [("(", "(", 1, 1), ("INT", "\u0663", 1, 2)]
    assert tokenize("(1,0) (0,1)")[5] == ("(", "(", 1, 7)


def test_near_labels_keep_their_errors():
    errors = [
        ("(1,", 1, 4, "expected an integer, found 'end of input'"),
        ("(1,0", 1, 5, "expected ')', found 'end of input'"),
        ("(--1,0)", 1, 5, "expected ')', found ','"),
        ("(1,0,0)", 1, 5, "expected ')', found ','"),
        ("(1,0)(0,1)", 1, 6, "trailing input after expression (near '(')"),
        ("( -1,\t-2)(3,4)", 1, 10, "trailing input after expression (near '(')"),
        ("A^(1,0)", 1, 3, "expected an integer exponent, found '('"),
        ("2*A/(1,0)", 1, 4, "divisor must be a scalar (near '/')"),
    ]
    for text, line, col, message in errors:
        with pytest.raises(ExpressionError) as err:
            parse_element(text)
        assert str(err.value) == f"line {line}, column {col}: {message}", text


def _reference_quotient(n, d):
    # (N)/(D) as the parser computed it before the one-step quotient.
    return RationalFunction(n) * RationalFunction(d).inverse()


def test_polynomial_quotient_matches_product_by_the_inverse():
    rng = random.Random(19)
    kinds = set()
    for _ in range(300):
        n, _ = _random_literal(rng)
        d, _ = _random_literal(rng)
        num, den = parse_scalar(n), parse_scalar(d)
        if den.is_zero():
            continue
        if rng.random() < 0.3:  # D dividing N
            n = f"({num.num * den.num})"
            num = parse_scalar(n)
            if len(den.num.terms) > 1 and not num.is_zero():
                kinds.add("divisor")
        want = _reference_quotient(num.num, den.num)
        assert parse_scalar(f"{n}/{d}") == want, (n, d)
        kinds.add("non-monic" if abs(den.num.leading_coeff()) != 1 else "monic")
        kinds.add("power of A" if den.num.min_exp() else "ordinary")
        kinds.add("over 1" if want.den.is_one() else "quotient")
        if not num.is_zero():  # x/(N)/(D) divides left to right
            x = LaurentPoly({0: -3, 2: 1})
            want = _reference_quotient(x, num.num) * RationalFunction(den.num).inverse()
            assert parse_scalar(f"({x})/{n}/{d}") == want, (n, d)
    assert kinds == {"non-monic", "monic", "power of A", "ordinary", "over 1", "quotient", "divisor"}
    assert parse_scalar("(2*A^3 - 2*A)/(4*A^2 - 4)") == RationalFunction(LaurentPoly({1: Fraction(1, 2)}))
    with pytest.raises(ExpressionError) as err:
        parse_element("(A + 1)/(0)")
    assert str(err.value) == "line 1, column 8: division by zero (near '/')"


def _poly(terms):
    # A Laurent polynomial as the Q(A) value over 1.
    return RationalFunction(LaurentPoly(terms))


_A_PLUS_1, _A_MINUS_1 = _poly({1: 1, 0: 1}), _poly({1: 1, 0: -1})
_A2_MINUS_1 = _poly({2: 1, 0: -1})

# (text, x, y): the text parses to x / y, read as x * y.inverse().
_QUOTIENTS = [
    ("(A^2 - 1)/(A - 1)", _A2_MINUS_1, _A_MINUS_1),  # over 1 / over 1
    ("A/((1)/(A + 1))", a_pow(1), _A_PLUS_1.inverse()),  # over 1 / not over 1
    ("((1)/(A + 1))/(A - 1)", _A_PLUS_1.inverse(), _A_MINUS_1),  # not over 1 / over 1
    (
        "((A)/(A + 1))/((A - 1)/(A^2 + 1))",
        a_pow(1) * _A_PLUS_1.inverse(),
        _A_MINUS_1 * _poly({2: 1, 0: 1}).inverse(),
    ),  # not over 1 / not over 1
    ("(A^2 - 1)/(A - 1)/(A + 1)", _A2_MINUS_1 * _A_MINUS_1.inverse(), _A_PLUS_1),
    ("(A^2\t- 1)/(A - 1)", _A2_MINUS_1, _A_MINUS_1),  # a tab: the grammar path
    ("(1,0)/((A)/(A + 1))", curve(1, 0), a_pow(1) * _A_PLUS_1.inverse()),
]


def test_every_quotient_is_the_product_by_the_inverse(monkeypatch):
    assert parse_scalar("A/((1)/(A + 1))") == _poly({2: 1, 1: 1})
    for text, x, y in _QUOTIENTS:
        if type(x) is SkeinT2Element:
            assert parse_element(text) == x.scale(y.inverse()), text
        else:
            assert parse_scalar(text) == x * y.inverse(), text
    # A quotient is one canonicalization: (A^2 - 1)/(A - 1) takes one gcd and
    # A + 1 then cancels whole; a one-term numerator shares no factor.
    gcds = []
    gcd = ratfunc.poly_gcd
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda a, b: gcds.append(1) or gcd(a, b))
    for text, calls in (("(A^2 - 1)/(A - 1)/(A + 1)", 1), ("2*A/(A + 1)", 0)):
        gcds.clear()
        parse_scalar(text)
        assert len(gcds) == calls, text


# ---- the flat-sum reader gives the grammar's values and errors


def _grammar(source):
    # The grammar alone, with no flat-sum reader in front of it.
    return _Parser(tokenize(source)).parse()


def _outcome(parse, source):
    try:
        return parse(source)
    except ExpressionError as err:
        return f"error: {err}"


def _flat_poly(rng):
    """Integer Laurent-polynomial text in the reader's spelling: rendered, or
    with unsorted, repeated or zero terms, A^1, 1*A, A^0, A^-0 or other digits."""
    if rng.random() < 0.4:
        return str(LaurentPoly({rng.randint(-4, 4): rng.choice((1, -1, 2, -3, 10**30)) for _ in range(3)}))
    parts = []
    for _ in range(rng.randint(1, 4)):
        c, e = rng.choice((0, 1, 1, 2, 3, 10**30 + 7)), rng.randint(-3, 3)
        power = rng.choice(("", f"^{e}")) if e == 1 else rng.choice(("^-0", "^0")) if e == 0 else f"^{e}"
        if e == 0 and rng.random() < 0.6:
            mono = _digits(rng, c)
        elif c == 1 and rng.random() < 0.5:
            mono = "A" + power
        else:
            mono = f"{_digits(rng, c)}*A{power}"
        parts.append((rng.choice("+-"), mono))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {sign} {mono}" for sign, mono in parts[1:])


def _flat_term(rng):
    n, d = _flat_poly(rng), _flat_poly(rng)
    label = "empty" if rng.random() < 0.15 else "(%s,%s)" % tuple(
        ("-" if x < 0 else "") + _digits(rng, abs(x)) for x in (rng.randint(-2, 2), rng.randint(-2, 2))
    )
    shape = rng.choice(("({n})*{L}", "({n})/({d})*{L}", "(({n})/({d}))*{L}", "(({n}))*{L}"))
    return shape.format(n=n, d=d, L=label)


# (text, read): near misses of a flat sum, and whether the reader takes the
# text (True) or hands it to the grammar (False).
_NEAR_FLAT_SUMS = [
    (" + (1)*empty", False),
    ("(1)*empty + ", False),
    (" + (A)*(1,0) + (1)*(0,1)", False),
    ("(A)*(1,0) + (1)*(0,1) + ", False),
    ("(A)*(1,0) + ", False),
    ("(1)*(1,0) - (A)*(0,1)", False),
    ("(1)*(1,0) + -(A)*(0,1)", False),
    ("(1)*(1,0)  + (A)*(0,1)", False),
    ("(1)*(1,0)+(A)*(0,1)", False),
    ("(1)*(1,0) +\t(A)*(0,1)", False),
    ("(1)*(1,0)\n + (A)*(0,1)", False),
    ("(1\t+ A)*(1,0)", False),
    ("(1 +\nA)*(1,0)", False),
    ("(1)*(1,0)\n", False),
    (" (1)*(1,0)", False),
    ("(1)*(1, 0)", False),
    ("(1) * (1,0)", False),
    ("(- A)*(1,0)", False),
    ("(--A)*(1,0)", False),
    ("(2A)*(1,0)", False),
    ("(A^ 2)*(1,0)", False),
    ("(1)*(1,0)*(0,1)", False),
    ("(1)*(1,0) (0,1)", False),
    ("(1)*emptyx", False),
    ("(1)*Empty", False),
    ("((A + 1))*(1,0)", True),
    ("(((A + 1)))*(1,0)", False),
    ("((A + 1)/(A - 1)*(1,0)", False),
    ("((A + 1)/(A - 1)))*(1,0)", False),
    ("((1/2*A)/(A^2 + 1/2))*(1,0)", False),
    ("(1/2)*(1,0)", False),
    ("(A)/(2)*(1,0)", True),
    ("((2*A)/(4*A^2 + 2))*(1,0)", True),
    ("(1)*(0,0)", True),
    ("(A)*(0,0) + (-A)*empty + (-A)*empty", True),
    ("(0)*(1,0)", True),
    ("(0)*empty", True),
    ("(A - A)*(1,0) + (1)*empty", True),
    ("(1)*(1,0) + (A)*(1,0) + (-1)*(1,0)", True),
    ("(1)*(1,0) + (1)*(-1,0)", True),
    ("(A)*(-1,-2) + (-A)*(1,2)", True),
    ("(1)*empty + (-1)*empty", True),
    ("(1)*empty", True),
    ("(A^2 - 1)/(A - 1)*empty", True),
    ("(1)/(0)*(1,0)", False),
    ("(1)/(A - A)*(1,0)", False),
    ("((A)/(0))*(1,0)", False),
    ("(1)*(1,0) + (1)/(0)*(0,1)", False),
    ("(" + "9" * 5000 + ")*(1,0)", False),
    ("(1)*(1,0) + (A^-" + "9" * 5000 + ")*(0,1)", False),
    ("(1)*(" + "9" * 5000 + ",1)", False),
    ("(" + "9" * MAX_DIGITS + ")*(1,0)", True),
]


def test_flat_sum_reader_matches_the_grammar_seeded(monkeypatch):
    rng = random.Random(27)
    flat = [" + ".join(_flat_term(rng) for _ in range(rng.randint(1, 5))) for _ in range(400)]
    values = [v for v in map(lambda x: _outcome(_grammar, x), flat) if type(v) is not str]
    rendered = [str(x * y) for x, y in zip(values[:100], values[100:200])]
    grammar_runs = []
    real = expressions.tokenize
    monkeypatch.setattr(expressions, "tokenize", lambda source: grammar_runs.append(source) or real(source))
    errors = read = 0
    for source in flat + rendered:
        want = _outcome(_grammar, source)
        grammar_runs.clear()
        assert _outcome(parse_element, source) == want, source
        # The reader takes every generated sum; only an error goes back to the
        # grammar.  A rendered product with fraction coefficients is the grammar's.
        if source in flat:
            assert bool(grammar_runs) == (type(want) is str), source
        errors += type(want) is str
        read += source in rendered and not grammar_runs
    assert errors and 10 < read < len(rendered)
    for source, reads in _NEAR_FLAT_SUMS:
        want = _outcome(_grammar, source)
        grammar_runs.clear()
        assert _outcome(parse_element, source) == want, source
        assert (not grammar_runs) == reads, source
