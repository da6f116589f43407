"""Finite Q(A)-combinations of keys: the bookkeeping every element class shares.

Curve-basis skein elements, quantum-torus elements and commutator-quotient
elements are all finite sums of keys with coefficients in Q(A), held as a
read-only map {key: coefficient} with no zero coefficient; equal maps mean
equal elements.  Sums and products all go through one accumulate kernel,
which tests for zero only after a sum: its callers pass nonzero
coefficients (products in a field, shifts, terms of canonical elements),
so collect() and the arithmetic wrap its map with no second zero filter.
The public constructor refuses a coefficient that is not a
RationalFunction and drops zeros.  Subclasses add their constructors and
product, which stays in its own module, so the quantum torus never
depends on the curve product it checks.
"""

from __future__ import annotations

from types import MappingProxyType

from .ratfunc import RationalFunction


def _accumulate(out: dict, pairs) -> dict:
    # Add each (key, coefficient) pair into out, dropping keys that cancel.
    # Every caller's coefficients are nonzero, so only a sum can be zero.
    for key, c in pairs:
        acc = out.get(key)
        if acc is None:
            out[key] = c
        elif (acc := acc + c).is_zero():
            del out[key]
        else:
            out[key] = acc
    return out


class Combination:
    """Finite Q(A)-combination of keys, in canonical (zero-free) form."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        terms = terms or {}
        for c in terms.values():
            if type(c) is not RationalFunction:
                raise TypeError(f"coefficients must be RationalFunctions, got {c!r}")
        self.terms = MappingProxyType({k: c for k, c in terms.items() if not c.is_zero()})

    @classmethod
    def _raw(cls, terms: dict):
        # Internal: terms is a fresh map with canonical keys and no zero coefficient.
        out = cls.__new__(cls)
        out.terms = MappingProxyType(terms)
        return out

    @classmethod
    def collect(cls, pairs):
        """The sum of an iterable of (key, coefficient) pairs, each coefficient nonzero."""
        return cls._raw(_accumulate({}, pairs))

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key) -> RationalFunction:
        return self.terms.get(key, RationalFunction.zero())

    def support(self) -> set:
        return set(self.terms)

    def scale(self, coeff: RationalFunction):
        # A unit coefficient, such as that of the label in a flat-sum term
        # (N)*L, takes coeff whole, with no product.
        if coeff.is_zero():
            return type(self)()
        one = RationalFunction.one()
        return self._raw({k: coeff if c is one else c * coeff for k, c in self.terms.items()})

    def __add__(self, other):
        return self._raw(_accumulate(self.terms.copy(), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw({k: -c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        # Curve labels: () renders as "empty", (p, q) as "(p,q)".
        if not self.terms:
            return "0"
        parts = []
        for label in sorted(self.terms):
            name = "empty" if not label else f"({label[0]},{label[1]})"
            parts.append(f"({self.terms[label]})*{name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"
