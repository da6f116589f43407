"""Commutator quotient of the 2-torus skein algebra.

In the quotient by the span of all ab - ba, every curve label collapses
onto one of five classes fixed by the parities of its coordinates: the
empty link, (1,0), (0,1), (1,1) and (2,0) (the last standing for two
parallel copies of a curve).  certificate() produces an auditable chain
of at most two steps witnessing the collapse of a given label.  Each step
is one scaled commutator between two labels with equal parities and a
nonzero determinant.  verify_certificate() walks the chain once: it must
run from the input to the certified label, that label must be the input's
class, and any defect raises VerificationError.  A step claims scale *
[c, m] = from - to, c the conjugator and m the midpoint.  In the closed
form [c, m] = (A^d - A^-d) (P - M) of the product rule the oracle sweep
checks, d = det(c, m) != 0 makes P = L(c+m) and M = L(c-m) two distinct
nonzero labels.  So, with F = L(from) and T = L(to), the claim holds
exactly when neither pair is (0,0) (curve(0,0) is 2*empty, and no
expansion has an empty term) and either F == T (d != 0 then forces
from == to) and the scale is 0, or (P, M) == (F, T) and 1/scale ==
A^d - A^-d, or (P, M) == (T, F) and 1/scale == A^-d - A^d.  Replay
decides it so, building no skein element.  closure_check() re-derives
the partition independently with a union-find over a finite box.
"""

from __future__ import annotations

from .combination import Combination
from .errors import Record, VerificationError, int_tuple, json_fields
from .ratfunc import a_pow
from .torus2 import EMPTY, SkeinT2Element, canonical_pair, curve

#: The five classes spanning the quotient, in render order.
CLASSES: tuple[tuple, ...] = (EMPTY, (0, 1), (1, 0), (1, 1), (2, 0))


def reduce_label(p: int, q: int) -> tuple[int, int]:
    """Class of a curve label, determined by coordinate parities alone."""
    if p == 0 and q == 0:
        raise ValueError("(0,0) is not a curve label (it is twice the empty link)")
    pp, qq = p % 2, q % 2
    if (pp, qq) == (0, 0):
        return (2, 0)
    return (pp, qq)


class AbElement(Combination):
    """Finite Q(A)-combination of quotient classes."""

    __slots__ = ()


def reduce_element(x: SkeinT2Element) -> AbElement:
    """Quotient map: collapse every label of x onto its class, linearly."""
    return AbElement.collect(
        (reduce_label(*label) if label else EMPTY, c) for label, c in x.terms.items()
    )


class CertStep(Record):
    """One commutator rewrite: scale * [conjugator, midpoint] = from - to."""

    __slots__ = ("from_pair", "to_pair", "conjugator", "scale")

    def _labels(self) -> tuple[tuple[int, int], tuple[int, int], int]:
        """L(c+m), L(c-m) and d = det(c, m), c the conjugator and m the midpoint of from and to."""
        fp, tp = self.from_pair, self.to_pair
        if (fp[0] + tp[0]) % 2 or (fp[1] + tp[1]) % 2:
            raise VerificationError(f"step {fp} -> {tp} has no integer midpoint")
        m0, m1 = (fp[0] + tp[0]) // 2, (fp[1] + tp[1]) // 2
        c0, c1 = self.conjugator
        d = c0 * m1 - c1 * m0
        if d == 0:
            raise VerificationError(f"step {fp} -> {tp}: conjugator determinant is 0")
        # d != 0 makes c+m and c-m two distinct nonzero curves, so no term merges.
        return canonical_pair(c0 + m0, c1 + m1), canonical_pair(c0 - m0, c1 - m1), d

    def expansion(self) -> SkeinT2Element:
        """scale * [c, m] in closed form, c the conjugator and m the midpoint of from and to."""
        plus, minus, d = self._labels()
        k = self.scale * (a_pow(d) - a_pow(-d))
        return SkeinT2Element({plus: k, minus: -k})


class AbCertificate(Record):
    """Telescoping chain of commutator rewrites from a label to its class."""

    __slots__ = ("source", "canonical", "steps")

    def to_json_dict(self) -> dict:
        return {
            "input": list(self.source),
            "canonical": list(self.canonical),
            "steps": [
                {
                    "from": list(s.from_pair),
                    "to": list(s.to_pair),
                    "conjugator": list(s.conjugator),
                    "scale": str(s.scale),
                }
                for s in self.steps
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AbCertificate":
        from .expressions import parse_scalar

        kinds = {"input": object, "canonical": object, "steps": list}
        source, canonical, steps = json_fields(doc, "certificate", kinds)
        step_kinds = {"from": object, "to": object, "conjugator": object, "scale": str}
        steps = tuple(
            CertStep(*(int_tuple(v, 2, key) for key, v in zip(step_kinds, pairs)), parse_scalar(scale))
            for *pairs, scale in (json_fields(s, "step", step_kinds) for s in steps)
        )
        return cls(int_tuple(source, 2, "input"), int_tuple(canonical, 2, "canonical"), steps)


def _step(x: tuple[int, int], y: tuple[int, int]) -> CertStep:
    # x = u + v and y = u - v, so [v, u] = (A^d - A^-d) (x - y), d = det(v, u).
    u = ((x[0] + y[0]) // 2, (x[1] + y[1]) // 2)
    v = ((x[0] - y[0]) // 2, (x[1] - y[1]) // 2)
    d = v[0] * u[1] - v[1] * u[0]
    return CertStep(x, y, v, (a_pow(d) - a_pow(-d)).inverse())


def certificate(p: int, q: int) -> AbCertificate:
    """Commutator certificate collapsing (p,q) onto its parity class.

    Two labels x != y with equal parities and det(x, y) != 0 are one
    scaled commutator apart, so a label steps straight to its class.  A
    label parallel to its class (c0, c1), such as (p,0) or (0,q), first
    steps to (c0, c1+2), or to (2, c1) when c0 = 0; that label is
    parallel to neither.
    """
    if p == 0 and q == 0:
        raise ValueError("(0,0) is not a curve label")
    start = canonical_pair(p, q)
    target = reduce_label(p, q)
    if start == target:
        return AbCertificate((p, q), target, ())
    if start[0] * target[1] - start[1] * target[0]:
        return AbCertificate((p, q), target, (_step(start, target),))
    c0, c1 = target
    via = (c0, c1 + 2) if c0 else (2, c1)
    return AbCertificate((p, q), target, (_step(start, via), _step(via, target)))


def _holds(step: CertStep) -> bool:
    # expansion() == curve(from) - curve(to), decided by the step rule of the module docstring.
    plus, minus, d = step._labels()
    if not (any(step.from_pair) and any(step.to_pair)):
        return False
    f, t, s = canonical_pair(*step.from_pair), canonical_pair(*step.to_pair), step.scale
    if f == t or s.is_zero():
        return f == t and s.is_zero()
    d = -d if (plus, minus) == (t, f) else d
    return f in (plus, minus) and t in (plus, minus) and s.inverse() == a_pow(d) - a_pow(-d)


def verify_certificate(cert: AbCertificate) -> None:
    """Replay a certificate; raise VerificationError on any defect.

    One walk from canonical_pair(source): each step must start where the
    chain stands, and scale * [c, m] must be curve(from) - curve(to): with
    P, M, F, T the labels of c+m, c-m, from, to and d = det(c, m), both
    from and to nonzero and either F == T and scale == 0, or (P, M) ==
    (F, T) and 1/scale == A^d - A^-d, or (P, M) == (T, F) and 1/scale ==
    A^-d - A^d (module docstring).  Only a refused step builds elements,
    for its message.  The walk must end on the certificate's canonical
    label, the input's class, so the steps telescope to source - canonical.
    """
    if cert.source == (0, 0):
        raise VerificationError("(0,0) is not a curve label")
    cur = canonical_pair(*cert.source)
    for step in cert.steps:
        if step.from_pair != cur:
            raise VerificationError(f"step starts at {step.from_pair}, chain is at {cur}")
        if not _holds(step):
            expansion = step.expansion()
            expected = curve(*step.from_pair) - curve(*step.to_pair)
            raise VerificationError(
                f"step {step.from_pair} -> {step.to_pair}: expansion {expansion} != {expected}"
            )
        cur = step.to_pair
    if canonical_pair(*cur) != cert.canonical:
        raise VerificationError(f"chain ends at {cur}, not at {cert.canonical}")
    if cert.canonical != reduce_label(*cert.source):
        raise VerificationError(f"{cert.canonical} is not the class of {cert.source}")


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, k):
        self.parent.setdefault(k, k)
        root = k
        while root != self.parent[root]:
            root = self.parent[root]
        while k != root:  # path compression
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def closure_check(n: int) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Equivalence closure of the commutator relation on the box {-n..n}^2.

    Two box points x, y are directly related when x = u+v, y = u-v for
    integer u, v with det(u,v) != 0, i.e. when x and y agree mod 2
    componentwise and det(x,y) != 0; every point is also glued to its
    negative.  Returns the partition as {smallest member: sorted members},
    computed with union-find, independently of reduce_label.
    """
    if n < 2:
        raise ValueError("box size must be at least 2")
    points = [
        (p, q)
        for p in range(-n, n + 1)
        for q in range(-n, n + 1)
        if (p, q) != (0, 0)
    ]
    uf = _UnionFind()
    for pt in points:
        uf.union(pt, (-pt[0], -pt[1]))
    by_parity: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pt in points:
        by_parity.setdefault((pt[0] % 2, pt[1] % 2), []).append(pt)
    for group in by_parity.values():
        for i, x in enumerate(group):
            for y in group[i + 1 :]:
                if x[0] * y[1] - x[1] * y[0] != 0:
                    uf.union(x, y)
    classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pt in points:
        classes.setdefault(uf.find(pt), []).append(pt)
    return {min(members): tuple(sorted(members)) for members in classes.values()}
