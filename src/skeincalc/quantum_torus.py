"""Quantum torus on two invertible generators l, m with l*m = A^2*m*l.

This algebra is the independent cross-check for the torus skein product:
curve labels are mapped onto symmetric pairs of monomials here, where
multiplication is forced by the single commutation rule

    m^q * l^r = A^(-2qr) * l^r * m^q

rather than by any curve combinatorics.  Elements are finite sums
sum c_{p,q} l^p m^q kept in normal order (all l factors on the left) and
stored as {(p, q): coefficient}, which is a canonical form.

The product groups each operand's monomials by coefficient and
multiplies each distinct pair of coefficients once, then shifts that
product by -2qr, the exponent of A, once for each distinct exponent its
pairs of monomials carry (RationalFunction.shift, no product); this is
the term-by-term product, by bilinearity.  A curve's image carries one
coefficient on its monomials k and -k, so the product of two images of
n-term elements takes n^2 coefficient products, not (2n)^2, and, as the
pairs (k, k') and (-k, -k') share an exponent, at most 2n^2 shifts, not 4n^2.
Embedding an element shifts each label's coefficient once and writes
each monomial once: distinct canonical labels have disjoint images,
none (0,0), the empty link's, so no two terms merge or cancel.
"""

from __future__ import annotations

from functools import lru_cache

from .combination import Combination
from .errors import int_tuple
from .ratfunc import RationalFunction


class QTorusElement(Combination):
    """Finite Q(A)-combination of normal-ordered monomials l^p m^q."""

    __slots__ = ()

    def __init__(self, terms: dict | None = None):
        for key in terms or ():
            int_tuple(key, 2, "a monomial")
        super().__init__(terms)

    @classmethod
    def scalar(cls, coeff: RationalFunction) -> "QTorusElement":
        return cls({(0, 0): coeff})

    @classmethod
    def one(cls) -> "QTorusElement":
        return cls.scalar(RationalFunction.one())

    @classmethod
    def monomial(cls, p: int, q: int, coeff: RationalFunction | None = None) -> "QTorusElement":
        return cls({(p, q): coeff if coeff is not None else RationalFunction.one()})

    def __mul__(self, other: "QTorusElement") -> "QTorusElement":
        # (l^p m^q)(l^r m^s) = A^(-2qr) l^(p+r) m^(q+s), with one product per
        # distinct pair of coefficients and one shift of it per distinct
        # exponent (see the module docstring).
        groups = _by_coeff(other)

        def products():
            for ca, keys_a in _by_coeff(self):
                for cb, keys_b in groups:
                    c = ca * cb
                    shifted = {}
                    for p, q in keys_a:
                        for r, s in keys_b:
                            k = -2 * q * r
                            if k not in shifted:
                                shifted[k] = c.shift(k)
                            yield (p + r, q + s), shifted[k]

        return QTorusElement.collect(products())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({self.terms[k]})*l^{k[0]}*m^{k[1]}"
            for k in sorted(self.terms, reverse=True)
        )


def _by_coeff(x: QTorusElement):
    # The terms of x as (coefficient, keys that carry it) pairs, one per
    # distinct coefficient.
    groups: dict[RationalFunction, list[tuple[int, int]]] = {}
    for key, c in x.terms.items():
        groups.setdefault(c, []).append(key)
    return groups.items()


# embed_element shifts coefficients itself and does not call this; the
# bound keeps memory flat however many labels a caller asks for.  Typed, so
# that True, which equals 1, reaches the check rather than the cached label.
@lru_cache(maxsize=4096, typed=True)
def embed_curve(p: int, q: int) -> QTorusElement:
    """Image of the (p,q) curve label: A^(-pq) * (l^p m^q + l^-p m^-q).

    The exponent is forced: it is the unique choice of the shape A^(k*pq)
    that makes the map multiplicative for the skein curve product under
    the commutation rule above (the oracle sweep checks this exhaustively).
    (0,0) maps to the scalar 2, matching the empty-link convention.
    """
    int_tuple((p, q), 2, "a curve label")
    if p == 0 and q == 0:
        return QTorusElement.scalar(RationalFunction.from_int(2))
    c = RationalFunction.one().shift(-p * q)
    return QTorusElement._raw({(p, q): c, (-p, -q): c})


def embed_element(x) -> QTorusElement:
    """Linear extension of embed_curve to whole skein elements; empty maps to 1."""
    terms = {}  # no two keys meet, as x's labels are canonical (module docstring)
    for label, coeff in x.terms.items():
        if label:
            p, q = label
            terms[p, q] = terms[-p, -q] = coeff.shift(-p * q)
        else:
            terms[0, 0] = coeff
    return QTorusElement._raw(terms)
