"""Skein algebra of the 2-torus in the canonical curve basis.

A basis label is the empty link, written (), or an integer pair (p, q)
different from (0, 0) and normalised so that p > 0 or (p == 0 and q > 0);
a pair and its negative name the same curve.  Labels are NOT divided by
their gcd: (2, 4) is itself a basis label (the doubled curve carries the
degree-2 first-kind Chebyshev colouring), and expanding such labels is a
separate operation, not a normal form.

An element is a finite Q(A)-combination of labels stored as
{label: coefficient}.  Label products follow the Frohman-Gelca rule

    (p,q) * (r,s) = A^(ps-qr) (p+r, q+s) + A^-(ps-qr) (p-r, q-s)

extended bilinearly, with () as the unit and any (0, 0) output rewritten
to twice the empty link.  The first-kind Chebyshev recursion and
commutators are built on top of this product.
"""

from __future__ import annotations

import math

from .combination import Combination
from .labels import canonical_pair
from .ratfunc import RationalFunction

EMPTY: tuple = ()


class SkeinT2Element(Combination):
    """Finite Q(A)-combination of curve labels, in canonical form."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "SkeinT2Element":
        return cls({EMPTY: RationalFunction.one()})

    @classmethod
    def scalar(cls, coeff: RationalFunction) -> "SkeinT2Element":
        return cls({EMPTY: coeff})

    @classmethod
    def curve(cls, p: int, q: int) -> "SkeinT2Element":
        """The basis label for (p,q); (0,0) becomes twice the empty link."""
        if p == 0 and q == 0:
            return cls({EMPTY: RationalFunction.from_int(2)})
        return cls({canonical_pair(p, q): RationalFunction.one()})

    def __mul__(self, other: "SkeinT2Element") -> "SkeinT2Element":
        def products():
            for la, ca in self.terms.items():
                for lb, cb in other.terms.items():
                    c = ca * cb
                    if not (la and lb):  # the empty link is the unit
                        yield la or lb, c
                        continue
                    p, q = la
                    r, s = lb
                    d = p * s - q * r
                    for sign in (1, -1):
                        u, v = p + sign * r, q + sign * s
                        cc = c.shift(sign * d)
                        if u == 0 and v == 0:
                            yield EMPTY, cc + cc
                        else:
                            yield canonical_pair(u, v), cc

        return SkeinT2Element.collect(products())


def curve(p: int, q: int) -> SkeinT2Element:
    return SkeinT2Element.curve(p, q)


def scalar(coeff: RationalFunction) -> SkeinT2Element:
    return SkeinT2Element.scalar(coeff)


def chebyshev_t(n: int, gamma: tuple[int, int]) -> SkeinT2Element:
    """First-kind Chebyshev colouring of a coprime curve.

    T_0 = 2*empty, T_1 = gamma, T_(n+1) = gamma*T_n - T_(n-1); for coprime
    gamma = (p, q) the result equals the plain label (n*p, n*q).
    """
    p, q = gamma
    if math.gcd(p, q) != 1:
        raise ValueError("gamma must be a coprime pair")
    if n < 0:
        raise ValueError("n must be nonnegative")
    prev = SkeinT2Element.scalar(RationalFunction.from_int(2))
    if n == 0:
        return prev
    g = SkeinT2Element.curve(p, q)
    cur = g
    for _ in range(n - 1):
        prev, cur = cur, g * cur - prev
    return cur


def t_to_jw(n: int) -> dict[int, int]:
    """Coefficients expressing T_n in the Jones-Wenzl (second-kind) basis.

    Returns {level: coefficient} with T_n = sum c_k S_k, namely T_0 = 2 S_0,
    T_1 = S_1 and T_n = S_n - S_(n-2) for n >= 2.  Both families satisfy
    P_(n+1) = x P_n - P_(n-1) in a commuting variable x, with T_0 = 2,
    S_0 = 1 and T_1 = S_1 = x.  Run backwards, the recursion gives
    S_-1 = 0 and S_-2 = -1, so S_n - S_(n-2) satisfies it too and starts
    from 1 - (-1) = 2 = T_0 and x - 0 = T_1; hence it is T_n for every n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return {0: 2}
    if n == 1:
        return {1: 1}
    return {n: 1, n - 2: -1}


def framing_twist(x: SkeinT2Element, k: int) -> SkeinT2Element:
    """Multiply by (-A^3)^k, the effect of k positive framing twists: a shift and a sign."""
    return SkeinT2Element(
        {label: -c.shift(3 * k) if k % 2 else c.shift(3 * k) for label, c in x.terms.items()}
    )


def commutator(x: SkeinT2Element, y: SkeinT2Element) -> SkeinT2Element:
    return x * y - y * x
