"""Commutator quotient of the 2-torus skein algebra.

In the quotient by the span of all ab - ba, every curve label collapses
onto one of five classes fixed by the parities of its coordinates: the
empty link, (1,0), (0,1), (1,1) and (2,0) (the last standing for two
parallel copies of a curve).  certificate() produces an auditable chain
of scaled commutators witnessing the collapse of a given label, each step
re-checkable by expanding one commutator through the curve product, and
closure_check() re-derives the partition independently with a union-find
over a finite box of labels.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combination import Combination
from .errors import VerificationError
from .ratfunc import RationalFunction, a_pow
from .torus2 import EMPTY, SkeinT2Element, canonical_pair, commutator, curve

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


@dataclass(frozen=True)
class CertStep:
    """One commutator rewrite: scale * [conjugator, midpoint] = from - to."""

    from_pair: tuple[int, int]
    to_pair: tuple[int, int]
    conjugator: tuple[int, int]
    scale: RationalFunction

    def midpoint(self) -> tuple[int, int]:
        fp, tp = self.from_pair, self.to_pair
        if (fp[0] + tp[0]) % 2 or (fp[1] + tp[1]) % 2:
            raise VerificationError(f"step {fp} -> {tp} has no integer midpoint")
        return ((fp[0] + tp[0]) // 2, (fp[1] + tp[1]) // 2)

    def expansion(self) -> SkeinT2Element:
        mid = self.midpoint()
        d = self.conjugator[0] * mid[1] - self.conjugator[1] * mid[0]
        if d == 0:
            raise VerificationError(
                f"step {self.from_pair} -> {self.to_pair}: conjugator determinant is 0"
            )
        return commutator(curve(*self.conjugator), curve(*mid)).scale(self.scale)


@dataclass
class AbCertificate:
    """Telescoping chain of commutator rewrites from a label to its class."""

    source: tuple[int, int]
    canonical: tuple[int, int]
    steps: tuple[CertStep, ...]

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

        steps = tuple(
            CertStep(
                tuple(s["from"]),
                tuple(s["to"]),
                tuple(s["conjugator"]),
                parse_scalar(s["scale"]),
            )
            for s in doc["steps"]
        )
        return cls(tuple(doc["input"]), tuple(doc["canonical"]), steps)


def _inverse_scale(k: int) -> RationalFunction:
    # 1/(A^k - A^-k); requires k != 0.
    return (a_pow(k) - a_pow(-k)).inverse()


def certificate(p: int, q: int) -> AbCertificate:
    """Commutator certificate collapsing (p,q) onto its parity class.

    The chain routes the way the underlying rewrite argument does: the
    first coordinate is reduced mod 2 with conjugator (1,0) while the
    second coordinate is nonzero, then the second with (0,1) while the
    first is nonzero, with (p,0) and (0,q) taking explicit detours through
    (p,2) and (2,q).  Every step moves by exactly +-2 along its
    conjugator, so each one is a single scaled commutator.
    """
    if p == 0 and q == 0:
        raise ValueError("(0,0) is not a curve label")
    start = canonical_pair(p, q)
    target = reduce_label(p, q)
    steps: list[CertStep] = []
    cur = start

    def step_to(nxt: tuple[int, int]) -> tuple[int, int]:
        conj = (abs(nxt[0] - cur[0]) // 2, abs(nxt[1] - cur[1]) // 2)
        mid = ((cur[0] + nxt[0]) // 2, (cur[1] + nxt[1]) // 2)
        d = conj[0] * mid[1] - conj[1] * mid[0]
        plus = (conj[0] + mid[0], conj[1] + mid[1])
        # scale * commutator(conj, mid) must expand to curve(cur) - curve(nxt)
        if canonical_pair(*plus) == canonical_pair(*cur):
            scale = _inverse_scale(d)
        else:
            scale = _inverse_scale(-d)
        steps.append(CertStep(cur, nxt, conj, scale))
        return nxt

    if canonical_pair(*cur) != target:
        if cur[1] == 0:
            # (p,0) with p >= 2: lift the second coordinate first.
            cur = step_to((cur[0], 2))
        while cur[0] >= 2:
            cur = step_to((cur[0] - 2, cur[1]))
        if cur[0] == 1:
            while cur[1] not in (0, 1):
                cur = step_to((1, cur[1] - 2) if cur[1] >= 2 else (1, cur[1] + 2))
        elif canonical_pair(*cur) != target:
            # (0,q) with |q| >= 2: detour through (2,q).
            cur = step_to((2, cur[1]))
            while cur[1] not in (0, 1):
                cur = step_to((2, cur[1] - 2) if cur[1] >= 2 else (2, cur[1] + 2))
            if cur == (2, 1):
                cur = step_to((0, 1))
    return AbCertificate((p, q), target, tuple(steps))


def verify_certificate(cert: AbCertificate) -> None:
    """Replay a certificate; raise VerificationError on any defect.

    Checks each step in isolation (nonzero conjugator determinant, the
    expansion through the curve product equals from - to) and then that
    the telescoped sum of all expansions equals (p,q) - canonical.
    """
    p, q = cert.source
    start = canonical_pair(p, q)
    if not cert.steps:
        if canonical_pair(*start) != cert.canonical:
            raise VerificationError(
                f"empty certificate but {cert.source} is not the class "
                f"{cert.canonical}"
            )
        return
    if cert.steps[0].from_pair != start:
        raise VerificationError(
            f"chain starts at {cert.steps[0].from_pair}, expected {start}"
        )
    for a, b in zip(cert.steps, cert.steps[1:]):
        if a.to_pair != b.from_pair:
            raise VerificationError(f"chain breaks between {a.to_pair} and {b.from_pair}")
    if canonical_pair(*cert.steps[-1].to_pair) != cert.canonical:
        raise VerificationError(
            f"chain ends at {cert.steps[-1].to_pair}, not the class {cert.canonical}"
        )
    total = SkeinT2Element.zero()
    for step in cert.steps:
        expansion = step.expansion()
        expected = curve(*step.from_pair) - curve(*step.to_pair)
        if expansion != expected:
            raise VerificationError(
                f"step {step.from_pair} -> {step.to_pair}: expansion "
                f"{expansion} != {expected}"
            )
        total = total + expansion
    if total != curve(p, q) - curve(*cert.canonical):
        raise VerificationError(
            f"certificate for {cert.source} does not telescope to "
            f"({p},{q}) - {cert.canonical}"
        )


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
