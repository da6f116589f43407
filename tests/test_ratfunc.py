import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from skeincalc import ratfunc
from skeincalc.expressions import parse_scalar
from skeincalc.quantum_torus import embed_curve
from skeincalc.ratfunc import (
    _POINT_CAP,
    LaurentPoly,
    RationalFunction,
    _coprime_at_points,
    _poly_exact_div,
    _sequence_gcd,
    a_pow,
    poly_gcd,
)
from skeincalc.torus2 import curve, framing_twist

ZERO = RationalFunction.zero()
ONE = RationalFunction.one()


def rf(terms):
    return RationalFunction(LaurentPoly({e: Fraction(c) for e, c in terms.items()}))


def test_additive_inverse_cancels():
    x = a_pow(1) - a_pow(-1)
    y = a_pow(-1) - a_pow(1)
    assert x + y == ZERO


def test_multiply_by_inverse_reduces():
    num = rf({2: 1, 0: -1})  # A^2 - 1
    den = rf({1: 1, 0: -1})  # A - 1
    q = num * den.inverse()
    assert q == rf({1: 1, 0: 1})  # A + 1
    # cross-multiply oracle
    assert q * den == num


def test_degenerate_coefficient_is_zero():
    q = 0
    assert a_pow(q) - a_pow(-q) == ZERO


def test_is_invertible():
    y = rf({4: 1, 0: -1})
    assert not y.is_zero() and y * y.inverse() == ONE
    assert ZERO.is_zero()
    x = a_pow(-3) * (a_pow(6) - ONE)
    assert x == rf({3: 1, -3: -1})  # expand and check the term map
    assert x * x.inverse() == ONE


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def _random_poly(rng, allow_zero=True):
    terms = {
        rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for _ in range(rng.randint(0 if allow_zero else 1, 4))
    }
    p = LaurentPoly(terms)
    if not allow_zero and p.is_zero():
        return LaurentPoly({0: Fraction(1)})
    return p


def _random_rf(rng, allow_zero=True):
    num = _random_poly(rng, allow_zero)
    den = _random_poly(rng, allow_zero=False)
    return RationalFunction(num, den)


def test_shift_is_multiplication_by_a_power():
    rng = random.Random(31)
    xs = [ZERO, ONE, rf({3: -1, 0: Fraction(2, 3)})] + [_random_rf(rng) for _ in range(200)]
    for x in xs:
        assert x.shift(0) is x
        for k in (rng.randint(-6, -1), rng.randint(1, 6)):
            got = x.shift(k)
            assert got == x * a_pow(k)
            assert got.den is x.den
            _assert_canonical(got)
    # Fraction coefficients and denominators other than 1 both occurred.
    assert any(not x.den.is_one() for x in xs)
    assert any(type(c) is Fraction for x in xs for c in x.num.terms.values())


def test_canonical_form_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        x = _random_rf(rng)
        again = RationalFunction(x.num, x.den)
        assert again.num == x.num and again.den == x.den


def _is_stored(c):
    # The one stored type of each value: an int when integral, else a Fraction.
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _assert_canonical(x):
    for terms in (x.num.terms, x.den.terms):
        for c in terms.values():
            assert _is_stored(c) and c
    assert min(x.den.terms) >= 0
    assert x.den.leading_coeff() == 1
    assert x.den.terms.get(0)
    if x.is_zero():
        assert x.den.is_one()
    else:
        assert poly_gcd(x.num.shift(-x.num.min_exp()), x.den).is_one()


def test_canonical_denominator_invariants():
    rng = random.Random(8)
    for _ in range(200):
        _assert_canonical(_random_rf(rng))


def test_field_laws_random():
    rng = random.Random(9)
    for _ in range(80):
        a, b, c = (_random_rf(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_a_power_difference_invertible_for_nonzero_exponent():
    for q in range(-6, 7):
        x = a_pow(q) - a_pow(-q)
        assert x.is_zero() == (q == 0)
        if q:
            assert x * x.inverse() == ONE


def test_render_matches_grammar():
    x = RationalFunction(LaurentPoly({4: Fraction(-1), 0: Fraction(-1)}),
                         LaurentPoly({2: Fraction(1), 0: Fraction(1)}))
    assert str(x) == "(-A^4 - 1)/(A^2 + 1)"
    assert str(rf({1: 1, 0: 1})) == "A + 1"
    assert str(rf({-1: -1})) == "-A^-1"
    assert str(rf({2: Fraction(3, 2)})) == "3/2*A^2"
    assert str(ZERO) == "0"


def test_render_parse_roundtrip():
    rng = random.Random(10)
    for _ in range(150):
        x = _random_rf(rng)
        assert parse_scalar(str(x)) == x


def test_int_coefficients_divide_exactly():
    x = RationalFunction(LaurentPoly({0: 3}), LaurentPoly({0: 2}))
    assert x.num.terms == {0: Fraction(3, 2)}
    assert type(x.num.terms[0]) is Fraction
    y = RationalFunction(LaurentPoly({0: 3}), LaurentPoly({0: 1, 1: -1}))
    assert str(y) == "(-3)/(A - 1)"


def test_multiple_of_the_denominator_cancels_whole():
    a2_minus_1 = LaurentPoly({2: 1, 0: -1})
    x = RationalFunction(LaurentPoly({-1: 3}) * a2_minus_1, a2_minus_1.scale(Fraction(6)))
    assert x.num.terms == {-1: Fraction(1, 2)} and x.den.is_one()
    # Every term of the denominator matches, but the numerator has one more.
    near = LaurentPoly({2: 1, 1: 1, 0: -1})
    y = RationalFunction(near, a2_minus_1)
    assert y.num == near and y.den == a2_minus_1


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        LaurentPoly.constant(0.1)
    with pytest.raises(TypeError):
        LaurentPoly.monomial(2, 0.5)
    with pytest.raises(TypeError):
        LaurentPoly({0: 1, 1: 0.0})


def _coefficients(*polys):
    return [c for p in polys for c in p.terms.values()]


def test_integral_coefficients_are_ints():
    # The constructors store an integral Fraction or a bool as an int.
    assert LaurentPoly({0: Fraction(4, 2)}).terms == {0: 2}
    assert type(LaurentPoly({0: Fraction(4, 2)}).terms[0]) is int
    assert type(LaurentPoly({0: True}).terms[0]) is int
    assert LaurentPoly({0: True}).terms == {0: 1}
    # Sums, products and scalings that come out integral are stored as ints.
    half_a = LaurentPoly({1: Fraction(1, 2)})
    for p in (half_a + half_a, half_a - half_a.scale(-1), half_a * LaurentPoly({1: 2}), half_a.scale(2)):
        assert [type(c) for c in _coefficients(p)] == [int], p
    # Divisions: the constructor's monic denominator, the gcd, exact division.
    x = RationalFunction(LaurentPoly({1: 2, 0: 2}), LaurentPoly({1: 4, 0: 2}))
    assert x.num.terms == {1: Fraction(1, 2), 0: Fraction(1, 2)}
    assert x.den.terms == {1: 1, 0: Fraction(1, 2)}
    assert all(map(_is_stored, _coefficients(x.num, x.den)))
    g = poly_gcd(LaurentPoly({1: 3, 0: 6}), LaurentPoly({1: 2, 0: 4}))
    assert g.terms == {1: 1, 0: 2} and {type(c) for c in _coefficients(g)} == {int}
    b = LaurentPoly({1: 2, 0: 3})
    q = _poly_exact_div(LaurentPoly({2: 1, 0: -1}) * b, b)
    assert q.terms == {2: 1, 0: -1} and {type(c) for c in _coefficients(q)} == {int}
    # A float is still refused, zero included, as a coefficient or a factor.
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.0})
    with pytest.raises(TypeError):
        LaurentPoly({1: 1}).scale(0.5)
    # Quotients of integral operands: exact, and stored as int or Fraction.
    rng = random.Random(29)
    for _ in range(200):
        a = _random_integral(rng, 4, 6)
        d = _random_integral(rng, 3, 6)
        if d.is_zero():
            continue
        y = RationalFunction(a) / RationalFunction(d)
        assert all(map(_is_stored, _coefficients(y.num, y.den))), y
        assert y * RationalFunction(d) == RationalFunction(a)
        assert RationalFunction(a, d) == y


def test_caches_are_bounded():
    # Exponents beyond the bound evict entries; the values stay right.
    for cached in (a_pow, embed_curve):
        assert cached.cache_info().maxsize is not None
    bound = a_pow.cache_info().maxsize
    for k in range(bound + 10):
        a_pow(k)
    assert a_pow.cache_info().currsize == bound
    assert a_pow(0) == RationalFunction.one() and a_pow(bound + 9).num.terms == {bound + 9: 1}


# ---- LaurentPoly *, + and - against a reference over Fraction

M61 = (1 << 61) - 1  # a denominator prime to every other one drawn here
HUGE = 3**90


def _reference_poly_op(op, a, b):
    """a op b for {exponent: Fraction} maps, one Fraction operation per pair of terms."""
    out = {}
    if op == "*":
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    else:
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + (c if op == "+" else -c)
    return {e: c for e, c in out.items() if c}


def _mixed_coefficient(rng):
    sign = rng.choice((-1, 1))
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(sign * rng.randint(1, 3))
    if kind == 1:
        return Fraction(sign * rng.randint(1, 5), 3)
    if kind == 2:
        return Fraction(sign * rng.randint(1, 5), M61)
    return Fraction(sign * HUGE + rng.randint(-3, 3))


def _mixed_poly_pair(rng):
    a = {rng.randint(-3, 3): _mixed_coefficient(rng) for _ in range(rng.randint(0, 4))}
    kind = rng.randrange(4)
    if kind == 0:  # integral, to pair rational operands with integral ones
        b = {rng.randint(-3, 3): Fraction(rng.randint(1, 3)) for _ in range(rng.randint(0, 3))}
    elif kind == 1:  # -a, so sums and products cancel terms of a
        b = {e: -c for e, c in a.items()}
    else:
        b = {rng.randint(-3, 3): _mixed_coefficient(rng) for _ in range(rng.randint(0, 4))}
    return a, b


def test_laurent_operations_match_reference_over_fraction():
    third = Fraction(1, 3)
    fixed = [
        ({1: 1, 0: 1}, {1: 1, 0: -1}),  # (A + 1)(A - 1): the middle term cancels
        ({1: 1, 0: third}, {1: 1, 0: -third}),  # (A + 1/3)(A - 1/3) = A^2 - 1/9
        ({1: Fraction(1, M61), 0: HUGE}, {1: M61, -1: third}),
        ({}, {0: third, 2: HUGE}),
        ({5: Fraction(-2, 7)}, {}),
        ({}, {}),
    ]
    rng = random.Random(23)
    pairs = fixed + [_mixed_poly_pair(rng) for _ in range(400)]
    seen = set()
    for a_terms, b_terms in pairs:
        a_terms = {e: Fraction(c) for e, c in a_terms.items()}
        b_terms = {e: Fraction(c) for e, c in b_terms.items()}
        a, b = LaurentPoly(a_terms), LaurentPoly(b_terms)
        for op, got in (("*", a * b), ("+", a + b), ("-", a - b)):
            want = _reference_poly_op(op, a_terms, b_terms)
            assert got.terms == want, (op, a, b)
            for c in got.terms.values():
                assert _is_stored(c) and c, (op, a, b)
            seen.add((op, any(c.denominator != 1 for c in want.values()), not want))
    # Products with rational coefficients, integral ones and zero all occurred.
    assert {("*", True, False), ("*", False, False), ("*", False, True)} <= seen
    assert LaurentPoly({1: 1, 0: 1}) * LaurentPoly({1: 1, 0: -1}) == LaurentPoly({2: 1, 0: -1})


def test_monomial_product_matches_the_convolution():
    # A one-term operand c * A^k takes the shift path on either side.
    rng = random.Random(37)
    for c in (1, -1, 3, Fraction(2, 3)):
        for k in (-3, 0, 2):
            mono = {k: Fraction(c)}
            for _ in range(40):
                other = {e: Fraction(x) for e, x in _mixed_poly_pair(rng)[0].items()}
                want = _reference_poly_op("*", mono, other)
                for got in (
                    LaurentPoly(mono) * LaurentPoly(other),
                    LaurentPoly(other) * LaurentPoly(mono),
                ):
                    assert got.terms == want, (c, k, other)
                    assert all(_is_stored(x) for x in got.terms.values())


# ---- differential tests: the gcd-free operations against the constructor

_FACTORS = (
    {0: -1, 1: 1},  # A - 1
    {0: 1, 1: 1},  # A + 1
    {0: -1, 2: 1},  # A^2 - 1, shares a factor with both of the above
    {0: 1, 2: 1},  # A^2 + 1
    {0: 3, 1: 2},  # 2A + 3
    {0: 1, 1: 1, 2: 1},  # A^2 + A + 1
)


def _factor_product(rng, k):
    p = LaurentPoly.one()
    for _ in range(k):
        p = p * LaurentPoly(rng.choice(_FACTORS))
    return p


def _canonical_operand(rng):
    """A seeded canonical x, biased towards shared factors and special cases."""
    kind = rng.randrange(6)
    if kind == 0:  # over 1
        return RationalFunction(_random_poly(rng))
    if kind == 1:  # monomial numerator
        coeff = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        num = LaurentPoly.monomial(rng.randint(-3, 3), coeff)
        return RationalFunction(num, _factor_product(rng, rng.randint(1, 2)))
    num = _random_poly(rng, allow_zero=False) * _factor_product(rng, rng.randint(0, 2))
    den = _factor_product(rng, rng.randint(0, 3)).shift(-rng.randint(0, 2))
    return RationalFunction(num, den.scale(Fraction(rng.choice((1, -2, 3)))))


def _operand_pair(rng):
    x = _canonical_operand(rng)
    kind = rng.randrange(8)
    if kind == 0:  # equal denominators
        y = RationalFunction(_random_poly(rng) * _factor_product(rng, 1), x.den)
    elif kind == 1:  # sums and differences that cancel to zero
        y = rng.choice((x, -x))
    elif kind == 2:  # y = z - x, so x + y cancels down to z
        z = _canonical_operand(rng)
        y = RationalFunction(z.num * x.den - x.num * z.den, z.den * x.den)
    elif kind in (3, 4):  # total cancellation against x.den
        q = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        multiple = x.den.scale(q).shift(rng.randint(-2, 2))
        if kind == 3:  # y.num = q * A^k * x.den, so x * y cancels x.den whole
            y = RationalFunction(multiple, _factor_product(rng, rng.randint(0, 1)))
        else:  # equal denominators, and x + y has numerator q * A^k * x.den
            y = RationalFunction(multiple - x.num, x.den)
    else:
        y = _canonical_operand(rng)
    return x, y


def _reference_results(x, y):
    """Each operation's result as the reducing constructor builds it."""
    out = {
        "+": (x + y, RationalFunction(x.num * y.den + y.num * x.den, x.den * y.den)),
        "-": (x - y, RationalFunction(x.num * y.den - y.num * x.den, x.den * y.den)),
        "*": (x * y, RationalFunction(x.num * y.num, x.den * y.den)),
    }
    if not y.is_zero():
        out["/"] = (x / y, RationalFunction(x.num * y.den, x.den * y.num))
        out["inverse"] = (y.inverse(), RationalFunction(y.den, y.num))
    return out


def test_operations_match_constructor_forms():
    rng = random.Random(11)
    seen = set()
    for _ in range(600):
        x, y = _operand_pair(rng)
        for op, (got, want) in _reference_results(x, y).items():
            assert got.num.terms == want.num.terms, (op, x, y)
            assert got.den.terms == want.den.terms, (op, x, y)
            assert str(got) == str(want)
            _assert_canonical(got)
            seen.add((op, got.is_zero(), got.den.is_one()))
    # Every operation was seen over 1 and not, and sums cancelled to zero.
    assert {("+", True, True), ("-", True, True)} <= seen
    for op in ("+", "-", "*", "/", "inverse"):
        assert (op, False, True) in seen and (op, False, False) in seen


def test_operations_match_sympy_normal_forms():
    sympy = pytest.importorskip("sympy")
    A = sympy.Symbol("A")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * A**e for e, c in p.terms.items())

    def normal_form(expr):
        # p/q over Q[A] with q monic: sympy's reduced fraction, rescaled.
        p, q = sympy.fraction(sympy.cancel(expr))
        p, q = sympy.Poly(p, A, domain="QQ"), sympy.Poly(q, A, domain="QQ")
        lc = q.LC()
        return p.quo_ground(lc), q.quo_ground(lc)

    def ours(x):
        # The same pair from our num/den, with the power of A moved to an end.
        if x.is_zero():
            return sympy.Poly(0, A, domain="QQ"), sympy.Poly(1, A, domain="QQ")
        w = x.num.min_exp()
        p = sympy.Poly(to_sympy(x.num.shift(-w)), A, domain="QQ")
        q = sympy.Poly(to_sympy(x.den), A, domain="QQ")
        a_w = sympy.Poly(A ** abs(w), A, domain="QQ")
        return (p * a_w, q) if w >= 0 else (p, q * a_w)

    rng = random.Random(12)
    for _ in range(60):
        x, y = _operand_pair(rng)
        sx = to_sympy(x.num) / to_sympy(x.den)
        sy = to_sympy(y.num) / to_sympy(y.den)
        cases = [(x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy)]
        if not y.is_zero():
            cases += [(x / y, sx / sy), (y.inverse(), 1 / sy)]
        for got, expr in cases:
            assert ours(got) == normal_form(expr), (x, y, got)


# ---- poly_gcd: the primitive remainder sequence over Z against a plain Euclid

P = (1 << 61) - 1  # a large prime: pA + 1 and A + 1/p carry large and fractional coefficients


def _euclid_rem(a, b):
    """The remainder of a divided by b, nonzero, for {exponent: coefficient} maps."""
    # Over Fraction, so that a / b of two int coefficients stays exact.
    a = {e: Fraction(c) for e, c in a.items()}
    db = max(b)
    while a and max(a) >= db:
        da = max(a)
        q = a[da] / b[db]
        for e, c in b.items():
            k = e + da - db
            a[k] = a.get(k, Fraction(0)) - q * c
            if not a[k]:
                del a[k]
    return a


def _euclid_gcd(a, b):
    """Monic gcd of {exponent: coefficient} maps by the textbook Euclid over Q."""
    a = {e: Fraction(c) for e, c in a.items()}
    b = {e: Fraction(c) for e, c in b.items()}
    while b:
        a, b = b, _euclid_rem(a, b)
    if not a:
        return {}
    lc = a[max(a)]
    return {e: c / lc for e, c in a.items()}


def _random_ordinary(rng, max_deg):
    terms = {}
    for e in range(rng.randint(0, max_deg) + 1):
        if rng.random() < 0.7:
            terms[e] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
    return LaurentPoly(terms)


def _random_integral(rng, max_deg, bound):
    return LaurentPoly({e: rng.randint(-bound, bound) for e in range(rng.randint(0, max_deg) + 1)})


def _integral_pairs(rng):
    # Integral operands, which the remainder sequence takes with no denominator to clear.
    nonmonic = LaurentPoly({0: -5, 2: 7}) * LaurentPoly({0: 2, 1: 3})  # (7A^2 - 5)(3A + 2)
    for _ in range(40):
        a, b = _random_integral(rng, 35, 9), _random_integral(rng, 8, 9)
        yield a, b  # a degree gap like that of dense sums, 35 against 8
        yield a.scale(Fraction(6)), b.scale(Fraction(-4))  # contents 6 and -4
        # lc 21 and 147: pseudo-remainders scale by lc over several steps.
        yield a * nonmonic, b * nonmonic
        yield b * nonmonic * LaurentPoly({0: -5, 2: 7}), a * nonmonic.scale(Fraction(-4))
        c, d = _random_integral(rng, 6, 3**90), _random_integral(rng, 4, 3**90)
        yield c, d
        yield c * nonmonic, d * nonmonic
        yield LaurentPoly.constant(6), b  # constant operands
        yield a, LaurentPoly.constant(-3**90)


def test_poly_gcd_matches_plain_euclid():
    rng = random.Random(13)
    factors = [LaurentPoly(f) for f in _FACTORS] + [
        LaurentPoly({0: Fraction(1, 3), 1: 2}),  # 2A + 1/3, non-monic with a fraction
        LaurentPoly({0: -5, 2: 7}),  # 7A^2 - 5
    ]
    pairs = []
    for _ in range(800):
        a, b = _random_ordinary(rng, 4), _random_ordinary(rng, 4)
        if rng.random() < 0.5:  # plant a common factor
            g = LaurentPoly.one()
            for _ in range(rng.randint(1, 2)):
                g = g * rng.choice(factors)
            g = g.scale(Fraction(rng.choice((1, -2, 5)), rng.choice((1, 3))))
            a, b = a * g, b * g
        pairs.append((a, b))
    pairs += _integral_pairs(rng)
    kinds = set()
    for a, b in pairs:
        got = poly_gcd(a, b)
        want = _euclid_gcd(a.terms, b.terms)
        assert got.terms == want, (a, b)
        kinds.add("trivial" if got.is_one() else "zero" if got.is_zero() else "nontrivial")
    assert kinds == {"trivial", "nontrivial", "zero"}


def _modulus_edge_pairs():
    t = LaurentPoly({0: 1, 1: P})  # pA + 1: its leading coefficient vanishes mod p
    u = LaurentPoly({0: Fraction(1, P), 1: 1})  # A + 1/p: a denominator divisible by p
    return [
        # Images A + 2 and A + 3 are coprime, but the degrees drop.
        (t * LaurentPoly({0: 2, 1: 1}), t * LaurentPoly({0: 3, 1: 1}), u),
        # A + 1/p against denominators prime to p.
        (u * LaurentPoly({0: 2, 1: 1}), u * LaurentPoly({0: 3, 1: 1}), u),
        # Sending 1/p to 0 would give the coprime images A^2 + 1 and A^2 + 2.
        (u * LaurentPoly({0: P, 1: 1}), u * LaurentPoly({0: 2 * P, 1: 1}), u),
    ]


def test_poly_gcd_modulus_edges():
    for a, b, g in _modulus_edge_pairs():
        assert poly_gcd(a, b) == g
        assert poly_gcd(b, a) == g
        assert poly_gcd(a, b).terms == _euclid_gcd(a.terms, b.terms)


# ---- the point test: gcd(a(x), b(x)) = 1 past Cauchy's bound proves gcd(a, b) = 1

# Planted common factors: non-monic (3A + 2), with a root far from 0 (A - 7,
# 5A^2 - 50), the factor A, and degrees up to 3.
_PLANTED = (
    {0: 2, 1: 3},
    {0: -7, 1: 1},
    {0: -50, 2: 5},
    {1: 1},
    {0: -1, 1: 1},
    {0: 1, 2: 1},
    {0: 1, 1: -4, 3: 9},
)


def _assert_shared(a, b, g):
    assert not _coprime_at_points(a.terms, b.terms), (a, b)
    assert poly_gcd(a, b).terms == _euclid_gcd(a.terms, b.terms) == g.terms, (a, b)


def test_point_test_never_proves_a_planted_factor_coprime():
    rng = random.Random(41)
    proved = coprime = 0
    for _ in range(400):
        h = LaurentPoly(rng.choice(_PLANTED))
        if rng.random() < 0.3:
            h = _random_integral(rng, 3, 40)
            if h.is_zero() or h.max_exp() == 0:
                continue
        a, b = _random_integral(rng, 6, 30), _random_integral(rng, 6, 30)
        if len(a.terms) < 2 or len(b.terms) < 2:
            continue
        g = poly_gcd(a * h, b * h)
        assert g.max_exp() >= 1
        _assert_shared(a * h, b * h, g)
        # The same operands without h are usually coprime, and usually proved so.
        if _euclid_gcd(a.terms, b.terms) == {0: 1}:
            coprime += 1
            proved += _coprime_at_points(a.terms, b.terms)
        else:
            assert not _coprime_at_points(a.terms, b.terms)
    assert proved >= 0.8 * coprime > 0
    # A point x = 2 would find the values 3 and 4 here, which share nothing:
    # at x = 5 they are 24 and 28.
    _assert_shared(LaurentPoly({0: -1, 2: 1}), LaurentPoly({0: -2, 1: 1, 2: 1}), LaurentPoly({0: -1, 1: 1}))
    # x = 1 + max|b_i| = 3, with no margin past Cauchy's bound, would find 5 and 4.
    _assert_shared(LaurentPoly({0: -4, 2: 1}), LaurentPoly({0: -2, 1: -1, 2: 1}), LaurentPoly({0: -2, 1: 1}))


def test_point_test_skips_what_it_cannot_evaluate():
    a_plus_2 = {0: 2, 1: 1}
    # Each pair is coprime, and its values at 3 + max|b_i| are coprime too.
    assert _coprime_at_points({0: 1, _POINT_CAP: 1}, a_plus_2)
    assert _coprime_at_points({0: 1, 1: 1}, a_plus_2)
    skipped = [
        ({0: Fraction(1, 2), 1: 1}, a_plus_2),  # a Fraction coefficient
        ({0: 1, 1: 1}, {0: Fraction(2, 3), 1: 1}),
        ({-1: 1, 1: 1}, a_plus_2),  # a negative exponent
        ({0: 1, 1: 1}, {-2: 3, 1: 1}),
        ({3: 1}, a_plus_2),  # a one-term operand
        ({0: 1, 1: 1}, {2: 5}),
        ({0: 1, _POINT_CAP + 1: 1}, a_plus_2),  # a degree above the cap
        ({0: 1, 1: 1}, {0: 3, _POINT_CAP + 1: 1}),
    ]
    for a, b in skipped:
        assert not _coprime_at_points(a, b), (a, b)
        if min(a) >= 0 and min(b) >= 0:
            assert poly_gcd(LaurentPoly(a), LaurentPoly(b)).terms == _euclid_gcd(a, b)


def test_modulus_edges_reduce_through_constructor_and_parser():
    for a, b, g in _modulus_edge_pairs():
        x = RationalFunction(a, b)
        _assert_canonical(x)
        # a/b is (a/g)/(b/g) with b/g monic of degree 1.
        assert x.den.max_exp() == 1
        assert x * RationalFunction(b) == RationalFunction(a)
        assert parse_scalar(f"({a})/({b})") == x


# ---- gcds against a unit binomial A^n + c: the fold and its closed forms


def _ord(t):
    w = min(t, default=0)
    return {e - w: c for e, c in t.items()}


def _unit_binomial_pairs(rng):
    # Every pair of A^m + c and A^n + c' of degree up to 12, then sparse f
    # against multiples of A^n +- 1: int and Fraction coefficients, negative
    # exponents, and often a planted divisor of u, so that the fold of f
    # modulo u has 0, 1, 2 or more terms.
    for m in range(1, 13):
        for n in range(1, 13):
            for c in (1, -1):
                for c2 in (1, -1):
                    yield LaurentPoly({m: 1, 0: c}), LaurentPoly({n: 1, 0: c2})
    for _ in range(1500):
        n, c = rng.randint(1, 12), rng.choice((1, -1))
        s = rng.choice((1, 1, -1, 2, Fraction(-1, 3)))
        u = LaurentPoly({n: s, 0: s * c})
        coeffs = (rng.randint(-4, 4), Fraction(rng.randint(-5, 5), rng.choice((2, 3))))
        f = LaurentPoly({rng.randint(-25, 40): rng.choice(coeffs) for _ in range(rng.randint(0, 5))})
        kind = rng.randrange(4)
        if kind == 1:  # a multiple of u, or of a binomial A^g +- 1 that may divide it
            g = rng.randint(1, n)
            f = f * LaurentPoly({g: 1, 0: rng.choice((1, -1))}) if rng.random() < 0.7 else f * u
        elif kind == 2:  # a binomial alpha^2 * A^(k+s) + alpha * beta * A^s, often |alpha| = |beta|
            k, alpha = rng.randint(1, 30), rng.choice((1, -2, Fraction(1, 3)))
            beta = rng.choice((alpha, -alpha, 3 * alpha))
            f = LaurentPoly({rng.randint(-9, 9): alpha}) * LaurentPoly({k: alpha, 0: beta})
        elif kind == 3:  # one term plus a multiple of u
            f = LaurentPoly({rng.randint(-9, 30): rng.randint(1, 3)}) + f * u
        yield f, u


def test_unit_binomial_gcd_matches_euclid_and_the_sequence():
    folds, closed = set(), set()
    for f, u in _unit_binomial_pairs(random.Random(29)):
        want = _euclid_gcd(_ord(f.terms), u.terms)
        assert _sequence_gcd(LaurentPoly(_ord(f.terms)), u).terms == want, (f, u)
        assert poly_gcd(f, u).terms == want, (f, u)
        assert poly_gcd(u, f).terms == want, (f, u)
        r = _euclid_rem(_ord(f.terms), u.terms)
        folds.add(min(len(r), 3))
        if len(r) == 2:  # the closed forms 1, A^g + 1 and A^g - 1
            closed.add((len(want), want[0]))
    assert folds == {0, 1, 2, 3}
    assert closed == {(1, 1), (2, 1), (2, -1)}


# ---- the size budget: a dense list or exact division past it is refused before it is built


def test_trinomial_denominator_past_the_budget_refuses_without_allocating():
    # A trinomial takes the dense remainder sequence: its list of 2*10^7 + 1
    # coefficients, about 160 MB, is past the budget and never built.
    num = LaurentPoly({0: 1, 1: 1, 2: 1})
    den = LaurentPoly({0: 1, 1: 1, 20_000_000: 1})
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(MemoryError):
            RationalFunction(num, den)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 1 << 20


def test_exact_division_stops_at_the_budget(monkeypatch):
    monkeypatch.setattr(ratfunc, "_BUDGET", 1000)
    a_minus_1 = LaurentPoly({1: 1, 0: -1})
    with pytest.raises(MemoryError):  # a quotient of 2,000 terms
        _poly_exact_div(LaurentPoly({2000: 1, 0: -1}), a_minus_1)
    # A sparse quotient of any degree stays inside it.
    huge = LaurentPoly({10**9: 1, 0: -1})
    assert _poly_exact_div(huge * LaurentPoly({10**9: 1, 0: 1}), huge).terms == {10**9: 1, 0: 1}


# ---- exponents are ints: a bool or float exponent is refused, never read as 1 or 1.5


def test_exponents_must_be_ints():
    x = curve(1, 0)
    embed_curve(1, 0)
    a_pow(1)  # True equals 1: the cached values must not answer for it
    calls = [
        lambda: embed_curve(True, 0),
        lambda: embed_curve(1.5, 2),
        lambda: a_pow(True),
        lambda: a_pow(1.5),
        lambda: ONE.shift(0.5),
        lambda: ONE.shift(True),
        lambda: ONE.shift(0.0),  # refused before the shortcut for k == 0
        lambda: ZERO.shift(0.5),
        lambda: LaurentPoly({1: 1}).shift(0.5),  # was A^1.5
        lambda: LaurentPoly({1: 1}).shift(True),  # was A^2
        lambda: LaurentPoly({1: 1}).shift(0.0),
        lambda: LaurentPoly.zero().shift(0.5),  # refused with no term to shift
        lambda: LaurentPoly({1.5: 1}),
        lambda: framing_twist(x, 1.5),
        lambda: framing_twist(x.scale(ZERO), 1.5),  # refused with no term to shift
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
