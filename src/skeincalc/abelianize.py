"""Commutator quotient of the 2-torus skein algebra.

In the quotient by the span of all ab - ba, every curve label collapses
onto one of five classes fixed by the parities of its coordinates: the
empty link, (1,0), (0,1), (1,1) and (2,0) (the last standing for two
parallel copies of a curve).  The certificates of the collapse live in
labels, which imports no algebra, and are re-exported here.
closure_check() re-derives the partition with a union-find over a box.
"""

from __future__ import annotations

from .combination import Combination
from .labels import AbCertificate, CertStep, certificate, reduce_label, verify_certificate
from .torus2 import EMPTY, SkeinT2Element

#: The five classes spanning the quotient, in render order.
CLASSES: tuple[tuple, ...] = (EMPTY, (0, 1), (1, 0), (1, 1), (2, 0))


class AbElement(Combination):
    """Finite Q(A)-combination of quotient classes."""

    __slots__ = ()


def reduce_element(x: SkeinT2Element) -> AbElement:
    """Quotient map: collapse every label of x onto its class, linearly."""
    return AbElement.collect(
        (reduce_label(*label) if label else EMPTY, c) for label, c in x.terms.items()
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
