"""Exact arithmetic over Q and the rational-function field Q(A).

A Laurent polynomial in the formal variable A is a map {exponent:
coefficient} that never stores a zero coefficient, so two polynomials are
equal exactly when their maps are equal.  A rational function is a
reduced pair num/den: the denominator is an ordinary polynomial (no
negative powers of A), monic, with nonzero constant term, and shares no
nonconstant factor with the numerator; any net power of A is carried by
the numerator, and zero is always 0/1.  Under these rules every value has
one representation, so equality never needs simplification.

Every cancellation goes through _cancel(n, b), for an ordinary monic
denominator b with nonzero constant term.  It divides n and b by
gcd(ord n, b), where ord p is p without its power of A; b has no factor
A, so only ord n can meet it (a unit binomial b folds n itself, below).
Three structural cases take no gcd.  A numerator with at most one term,
or a denominator of 1, shares no factor.  When ord n = q * b for a
constant q (the same term count, and q times each term of b is the term
of ord n at that exponent), b divides ord n, so the monic gcd is b
itself: both quotients are exact, q and 1, and n/b is q * A^w over 1, w
the lowest exponent of n.  That is the commutator scale 1/(A^k - A^-k)
meeting a coefficient +-(A^k - A^-k), cancelled with no gcd or
division.  The public RationalFunction constructor moves the power of A
out of the denominator, makes it monic, then calls _cancel.  The field
operations start from canonical operands, so they call _cancel only
where a common factor can exist (Henrici's method; Knuth, TAOCP vol. 2,
4.5.1).  Write x = a/b and y = c/d.
  * x * y divides out gcd(ord a, d) and gcd(ord c, b), skipping each when
    the numerator is a monomial or the denominator is 1; nothing else can
    cancel, because a is already coprime to b and c to d.
  * x + y and x - y take g = gcd(b, d), or none when b = d (then g = b) or
    when one denominator is 1.  With b = g b', d = g d' the sum is
    t/(g b' d') for t = a d' + c b'.  A prime dividing b' and t would
    divide a d', but a is coprime to b and b' to d'; so t is coprime to
    b' d', and at most gcd(ord t, g) can cancel, which is 1 when g = 1.
  * inverse takes no gcd: the reciprocal of a coprime pair is coprime,
    and it only moves the power of A into the new numerator and makes
    the new denominator monic.  x / y is x * y.inverse().
  * x.shift(k) = x * A^k is a * A^k over b, with no gcd and no product:
    b is canonical, so it has no factor A, and A^k is a unit of Z[A^+-1],
    so a * A^k stays coprime to b and b stays monic.  Every curve-basis
    and quantum-torus product scales its terms by powers of A this way.
When both operands are over 1 the result is the plain Laurent-polynomial
sum or product, which is canonical as it stands.

poly_gcd first looks for a unit binomial u = A^n + c, c = +-1, up to a
constant factor: every commutator scale 1/(A^d - A^-d) = A^d/(A^2d - 1)
and the denominators 1 +- A^j have one.  It folds the other operand f
modulo u: A^n = -c there, so x * A^e becomes (-c)^(e // n) * x *
A^(e mod n), also for e < 0, since A is a unit modulo u.  The fold r has
degree below n, no more terms than f, and gcd(f, u) = gcd(r, u) however
far apart the degrees are.  r = 0 gives u, and one term gives 1.  Two
terms are A^s (alpha A^k + beta), and A^s is prime to u.  The roots of u
lie on the unit circle and, when |alpha| != |beta|, no root of
alpha A^k + beta does, so the gcd is 1; when alpha = +-beta it is the gcd
of two unit binomials, in closed form for g = gcd(n, k).  A common root z
has z^2n = z^2k = 1, hence z^g = +-1.  If z^g = 1 then z^m = 1 for m = n
and k, so gcd(A^n - 1, A^k - 1) = A^g - 1, and a binomial A^m + 1 has no
such root.  If z^g = -1 then z^m = (-1)^(m/g): every root of A^g + 1 is a
root of A^m + 1 when m/g is odd and of A^m - 1 when it is even, and of
neither otherwise.  All these binomials are squarefree, so
gcd(A^n + 1, A^k + 1) is A^g + 1 when n/g and k/g are both odd, and
gcd(A^n + 1, A^k - 1) is A^g + 1 when k/g is even; otherwise it is 1.  A
fold of three or more terms goes on to the steps below with (r, u).
Deciding whether two sparse polynomials share a factor is NP-hard
(Plaisted, JCSS 14, 1977), so only binomials take this path.

The rest is one Euclidean algorithm over Z, Collins' primitive remainder
sequence (Knuth, TAOCP vol. 2, 4.6.1).  Each operand is put over the
common denominator of its coefficients and divided by its content, which
leaves its monic gcd as it is.  Then (f, g) becomes (g, pp(r)), for the
pseudo-remainder r = lc(g)^m * f - q * g of degree below g, whose m
scaled steps need no division; pp divides out the content.  Each step
keeps gcd(f, g) up to a constant, so the sequence ends in a nonzero
constant (the gcd is 1) or in zero (the last g is the gcd), and only
that monic result takes a division.

Most gcds are 1, and poly_gcd first tries to prove it at an integer
point, the test of the heuristic gcd (Char, Geddes and Gonnet, J.
Symbolic Comput. 7, 1989).  For a and b of two or more int terms with
exponents in [0, _POINT_CAP = 64], let x = 3 + max|b_i|; coprime values
at x, x + 1 or x + 2 prove gcd(a, b) = 1.  By Gauss's lemma a common
factor h of degree >= 1 can be taken in Z[A], so h(x) divides both
values.  Each root r of h is one of b, so |r| < 1 + max|b_i| (Cauchy's
bound), |x - r| > 2 and |h(x)| >= 2.  The cap keeps the values small: a
larger degree runs the sequence, which builds no power of x.  Canonical
denominators and gcds are monic, and _poly_exact_div divides by a monic
divisor with no Fraction.  The sequence's coefficient list and an exact
division's maps hold at most _BUDGET = 10^7 coefficients: past it they
raise MemoryError before they are built, and the CLI says "out of memory".

Coefficients are exact rationals of arbitrary precision, stored in one
type per value: an integral coefficient is an int, any other a
fractions.Fraction with denominator greater than 1.  So equal values
have equal maps, and arithmetic in Z[A^+-1], which holds every
curve-label product and the numerator and denominator of every
certificate scale, builds no Fraction.  The constructors turn an
integral Fraction or a bool into an int and refuse floats.  A product
with a one-term operand c * A^k is the other operand with its exponents
shifted by k and, when c != 1, each coefficient times c.  Any other
product writes each operand as integer numerators over D, the lcm of
its denominators (1 when every coefficient is an int), convolves the
numerators as ints and divides each surviving sum by Da * Db only when
that is not 1 (Knuth, TAOCP vol. 2, 4.6.1).  Every division, there and
below, is Fraction(n, d), Fraction(x) / y or an n // d that leaves no
remainder, never int / int, so it stays exact and its result is stored
as an int when it is one; nothing in this module touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _norm(x: int | Fraction) -> int | Fraction:
    # An exact int or Fraction as stored: an int when integral.
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _exact(c) -> int | Fraction:
    """A coefficient as stored: an int when integral, else a Fraction.

    A float is refused, never rounded.
    """
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"coefficient {c!r} is a float; Q(A) needs exact coefficients")
    return _norm(c if type(c) is Fraction else Fraction(c))


def _ratio(n: int, d: int) -> int | Fraction:
    # n / d for ints, d nonzero, as stored.
    return Fraction(n, d) if n % d else n // d


def _over_common_den(terms: dict[int, int | Fraction]):
    # (D, [(e, n)]) with every coefficient c = n / D, D the lcm of the
    # Fractions' denominators; D is 1, and the pairs are the terms
    # themselves, when every coefficient is an int.
    d = 1
    for c in terms.values():
        if type(c) is not int and d % c.denominator:
            d = lcm(d, c.denominator)
    if d == 1:
        return 1, terms.items()
    return d, [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()]


class LaurentPoly:
    """Laurent polynomial in A over Q, stored as an {exponent: coefficient} map."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int | Fraction] | None = None):
        # Exponents must be ints; coefficients become ints or Fractions (floats
        # are refused); zeros are dropped.
        if terms and any(type(e) is not int for e in terms):
            raise ValueError(f"exponents must be ints, got {list(terms)!r}")
        self.terms = {} if not terms else {e: x for e, c in terms.items() if (x := _exact(c))}

    @classmethod
    def _raw(cls, terms: dict[int, int | Fraction]) -> "LaurentPoly":
        # Internal: terms are known to be stored coefficients, none zero.
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _LP_ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _LP_ONE

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        return cls({0: value})

    @classmethod
    def monomial(cls, exp: int, coeff=1) -> "LaurentPoly":
        """The single term coeff * A^exp."""
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no exponents")
        return max(self.terms)

    def leading_coeff(self) -> int | Fraction:
        return self.terms[self.max_exp()]

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by A^k."""
        if type(k) is not int:
            raise ValueError(f"the exponent of A must be an int, got {k!r}")
        if k == 0 or not self.terms:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self.terms.items()})

    def scale(self, factor: int | Fraction) -> "LaurentPoly":
        factor = _exact(factor)
        if not factor:
            return _LP_ZERO
        return LaurentPoly._raw({e: _norm(c * factor) for e, c in self.terms.items()})

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e not in out:
                out[e] = c
            elif s := out[e] + c:
                out[e] = _norm(s)
            else:
                del out[e]
        return LaurentPoly._raw(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + -other

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        # A one-term operand c * A^k shifts the other by k, scaled when c != 1;
        # otherwise one convolution of integer numerators over the operands'
        # common denominators, and one division per surviving term when they
        # are not 1.
        if not self.terms or not other.terms:
            return _LP_ZERO
        if len(other.terms) == 1 or len(self.terms) == 1:
            poly, mono = (self, other) if len(other.terms) == 1 else (other, self)
            ((k, c),) = mono.terms.items()
            if c == 1:
                return poly.shift(k)
            # A product of nonzero rationals is nonzero, so no term drops.
            return LaurentPoly._raw({e + k: _norm(x * c) for e, x in poly.terms.items()})
        da, na = _over_common_den(self.terms)
        db, nb = _over_common_den(other.terms)
        acc: dict[int, int] = {}
        get = acc.get
        for e1, n1 in na:
            for e2, n2 in nb:
                e = e1 + e2
                acc[e] = get(e, 0) + n1 * n2
        d = da * db
        if d == 1:
            return LaurentPoly._raw({e: n for e, n in acc.items() if n})
        return LaurentPoly._raw({e: _ratio(n, d) for e, n in acc.items() if n})

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        # Terms in strictly decreasing exponent order; exponent 0 omitted;
        # coefficient +-1 rendered without the digit.
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            neg = c < 0
            mag = -c if neg else c
            if e == 0:
                body = str(mag)
            else:
                var = "A" if e == 1 else f"A^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f" - {body}" if neg else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


_LP_ZERO = LaurentPoly._raw({})
_LP_ONE = LaurentPoly._raw({0: 1})


def _primitive(p: list[int]) -> list[int]:
    # The coefficient list p, highest degree first, without its leading
    # zeros and divided by its content; [] for the zero polynomial.
    c = gcd(*p)
    if not c:
        return []
    while not p[0]:
        del p[0]
    return p if c == 1 else [x // c for x in p]


# The most coefficients a dense list or an exact division may hold: past it
# _primitive_part and _poly_exact_div raise MemoryError before they allocate.
# _prem builds no list longer than its operand f, which _primitive_part built.
_BUDGET = 10**7


def _primitive_part(a: LaurentPoly) -> list[int]:
    # The ordinary polynomial a over its common denominator, as _primitive.
    top = max(a.terms, default=-1)
    if top >= _BUDGET:
        raise MemoryError(f"a dense polynomial of degree {top} is past the size budget")
    p = [0] * (top + 1)
    for e, n in _over_common_den(a.terms)[1]:
        p[-1 - e] = n
    return _primitive(p)


def _prem(f: list[int], g: list[int]) -> list[int]:
    # lc(g)^m * f - q * g with fewer coefficients than g, for lists with
    # len(f) >= len(g) >= 2: each of the m division steps that meets a
    # nonzero leading coefficient scales by lc(g), so none needs a division.
    lg, n = g[0], len(g)
    r = f[:]
    for i in range(len(f) - n + 1):
        c = r[i]
        if c:
            if lg != 1:
                r[i + 1 :] = [lg * x for x in r[i + 1 :]]
            for j in range(1, n):
                r[i + j] -= c * g[j]
    return r[len(f) - n + 1 :]


# Degree cap of the point test: past it a gcd takes the remainder sequence.
_POINT_CAP = 64


def _coprime_at_points(a: dict[int, int | Fraction], b: dict[int, int | Fraction]) -> bool:
    # True when coprime values at x = 3 + max|b_i|, x + 1 or x + 2 prove
    # gcd(a, b) = 1 (module docstring); False proves nothing.  Only operands
    # of two or more int terms with exponents in [0, _POINT_CAP] are evaluated.
    if len(a) < 2 or len(b) < 2:
        return False
    for t in (a, b):
        for e, c in t.items():
            if type(c) is not int or not 0 <= e <= _POINT_CAP:
                return False
    x = 3 + max(map(abs, b.values()))
    ta, tb = a.items(), b.items()
    for y in (x, x + 1, x + 2):
        if gcd(sum([c * y**e for e, c in ta]), sum([c * y**e for e, c in tb])) == 1:
            return True
    return False


def _unit_binomial(t: dict[int, int | Fraction]) -> tuple[int, int] | None:
    # (n, c) when t is a nonzero multiple of A^n + c, n >= 1 and c = +-1.
    if len(t) == 2 and 0 in t:
        n, m = t
        n = n or m
        x, y = t[0], t[n]
        if n > 0 and (x == y or x == -y):
            return n, 1 if x == y else -1
    return None


def _binomial_gcd(r: dict[int, int | Fraction], n: int, c: int) -> LaurentPoly:
    # gcd(r, A^n + c) for r of at most two terms, all of degree below n.
    if not r:
        return LaurentPoly._raw({n: 1, 0: c})
    if len(r) == 2:
        # A^s (x A^k + y) or A^s (y A^k + x): +-1 = y/x = x/y either way.
        (s, x), (t, y) = r.items()
        if x == y or x == -y:
            k, c2 = abs(t - s), 1 if x == y else -1
            g = gcd(n, k)
            if c == c2 == -1:
                return LaurentPoly._raw({g: 1, 0: -1})
            # A^g + 1 divides A^m + 1 when m/g is odd and A^m - 1 when it is even.
            if (n // g) & 1 == (c == 1) and (k // g) & 1 == (c2 == 1):
                return LaurentPoly._raw({g: 1, 0: 1})
    return _LP_ONE


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of two ordinary polynomials, 0 when both are 0.

    When one operand is a multiple of a unit binomial u = A^n + c, c = +-1,
    the other may be any Laurent polynomial: A^n = -c folds it to r of
    degree below n.  r = 0 gives u and one term gives 1.  alpha A^t + beta A^s
    gives 1 when |alpha| != |beta|, since the roots of u lie on |z| = 1 and
    those of alpha A^(t-s) + beta do not; else, for k = t - s and g =
    gcd(n, k), gcd(A^n - 1, A^k - 1) = A^g - 1, and A^g + 1 is the gcd when
    it divides both, that is A^m + 1 with m/g odd or A^m - 1 with m/g even
    (their common roots are those of A^g +- 1).  A longer r goes on with
    (r, u).  Then 1 when the point test proves it, else the primitive
    remainder sequence over Z (module docstring).
    """
    u = _unit_binomial(b.terms)
    if u is None and (u := _unit_binomial(a.terms)) is not None:
        a, b = b, a
    if u is not None:
        n, c = u
        r: dict[int, int | Fraction] = {}
        for e, x in a.terms.items():
            q, e = divmod(e, n)
            if q & 1 and c == 1:
                x = -x
            if e not in r:
                r[e] = x
            elif s := r[e] + x:
                r[e] = _norm(s)
            else:
                del r[e]
        if len(r) < 3:
            return _binomial_gcd(r, n, c)
        a = LaurentPoly._raw(r)
    if _coprime_at_points(a.terms, b.terms):
        return _LP_ONE
    return _sequence_gcd(a, b)


def _sequence_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    # The monic gcd of two ordinary polynomials by the primitive remainder sequence.
    f, g = _primitive_part(a), _primitive_part(b)
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        f, g = g, _primitive(_prem(f, g))
    if g:
        return _LP_ONE
    if not f:
        return _LP_ZERO
    lc, top = f[0], len(f) - 1
    return LaurentPoly._raw({top - i: _ratio(x, lc) for i, x in enumerate(f) if x})


def _poly_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    # a / b for ordinary polynomials, by long division that must leave 0;
    # a monic b takes each quotient term as stored, with no Fraction.
    rem = dict(a.terms)
    quo: dict[int, int | Fraction] = {}
    db = b.max_exp()
    lb = b.terms[db]
    while rem:
        if len(rem) + len(quo) > _BUDGET:
            raise MemoryError("an exact division is past the size budget")
        d = max(rem)
        if d < db:
            raise ArithmeticError("polynomial division is not exact")
        c = rem[d] if lb == 1 else _norm(Fraction(rem[d]) / lb)
        quo[d - db] = c
        for e, bc in b.terms.items():
            k = e + d - db
            s = _norm(rem.get(k, 0) - c * bc)
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    return LaurentPoly._raw(quo)


def _monic(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    # Move den's power of A into num and make den monic; den is nonzero.
    v = den.min_exp()
    if v:
        den = den.shift(-v)
        num = num.shift(-v)
    lc = den.leading_coeff()
    if lc != 1:
        inv = Fraction(1) / lc
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _cancel(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    # Divide num and den, den canonical, by gcd(ord num, den), returning both
    # unchanged when nothing cancels; a numerator with at most one term or a
    # denominator of 1 shares no factor, and ord num = q * den cancels whole.
    if den.is_one() or len(num.terms) <= 1:
        return num, den
    terms = num.terms
    w = min(terms)
    if len(terms) == len(den.terms):
        q = terms.get(den.max_exp() + w, 0)
        if all(terms.get(e + w) == q * x for e, x in den.terms.items()):
            return LaurentPoly._raw({w: q}), _LP_ONE
    # poly_gcd folds a Laurent num modulo a unit-binomial den as it stands.
    g = poly_gcd(num if _unit_binomial(den.terms) else num.shift(-w), den)
    if g.is_one():
        return num, den
    return _poly_exact_div(num.shift(-w), g).shift(w), _poly_exact_div(den, g)


def _sum(a: LaurentPoly, b: LaurentPoly, c: LaurentPoly, d: LaurentPoly) -> "RationalFunction":
    # Canonical a/b + c/d for canonical operands not both over 1; the module
    # docstring shows why only g = gcd(b, d) can meet the cross-sum t.
    if b.is_one():
        return RationalFunction._raw(a * d + c, d)
    if d.is_one():
        return RationalFunction._raw(a + c * b, b)
    if b == d:
        t, den = _cancel(a + c, b)
    else:
        g = poly_gcd(b, d)
        if g.is_one():
            return RationalFunction._raw(a * d + c * b, b * d)
        b_rest, d_rest = _poly_exact_div(b, g), _poly_exact_div(d, g)
        t, g_rest = _cancel(a * d_rest + c * b_rest, g)
        den = b * d_rest if g_rest is g else b_rest * d_rest * g_rest
    if t.is_zero():
        return _RF_ZERO
    return RationalFunction._raw(t, den)


class RationalFunction:
    """An element of Q(A), always held in canonical form num/den."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is not None and den.is_zero():
            raise ZeroDivisionError("denominator is zero in Q(A)")
        if den is None or den.is_one() or num.is_zero():
            self.num, self.den = num, _LP_ONE
        else:
            self.num, self.den = _cancel(*_monic(num, den))

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> "RationalFunction":
        # Internal: num/den is known to be canonical already.
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def zero(cls) -> "RationalFunction":
        return _RF_ZERO

    @classmethod
    def one(cls) -> "RationalFunction":
        return _RF_ONE

    @classmethod
    def from_int(cls, n: int) -> "RationalFunction":
        return cls(LaurentPoly.constant(n))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero():
            raise ZeroDivisionError("zero has no inverse in Q(A)")
        # The swapped pair is still coprime: only the power of A moves to the
        # new numerator, and the new denominator is made monic.
        return RationalFunction._raw(*_monic(self.den, self.num))

    def shift(self, k: int) -> "RationalFunction":
        """Multiply by A^k: num * A^k over the same den, with no gcd and no product."""
        num = self.num.shift(k)  # refuses an exponent that is not an int
        return self if num is self.num else RationalFunction._raw(num, self.den)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._raw(-self.num, self.den)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        if self.den.is_one() and other.den.is_one():
            return RationalFunction(self.num + other.num)
        return _sum(self.num, self.den, other.num, other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + -other

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.den.is_one() and other.den.is_one():
            return RationalFunction(self.num * other.num)
        if self.num.is_zero() or other.num.is_zero():
            return _RF_ZERO
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        den = d2 if d1.is_one() else d1 if d2.is_one() else d1 * d2
        return RationalFunction._raw(n1 * n2, den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


_RF_ZERO = RationalFunction(_LP_ZERO)
_RF_ONE = RationalFunction(_LP_ONE)


# Products and framing twists scale by powers of A with RationalFunction.shift
# and never call this; parsed powers A^k do, and the bound keeps a long run
# on parsed exponents from growing without limit.  Typed, so that True, which
# equals 1, reaches the check rather than the cached A^1.
@lru_cache(maxsize=4096, typed=True)
def a_pow(k: int) -> RationalFunction:
    """The monomial A^k as a rational function (values are shared, immutable)."""
    return RationalFunction(LaurentPoly.monomial(k))
