"""Curve calculus on the 3-torus.

A (p,q,r)-curve is a coprime integer triple, sign-normalised so its first
nonzero coordinate is positive (a curve and its reverse coincide).  A
standard torus inside the 3-torus is recorded as a determinant-1 integer
matrix together with the ordered pair of column indices spanning its
plane; pushing a coprime pair (a,b) through an embedding forms the
integer combination of the two selected columns.

reduce_curve() rewrites any curve onto its parity-canonical class with a
replayable certificate.  Each certificate step holds a verbatim matrix
(always determinant exactly +1), a from/to pair congruent mod 2, and a
coordinate permutation: the permutation is applied to the current curve
before matching from_pair, and its inverse is applied after pushing
to_pair, so every step preserves the parity vector componentwise.
"""

from __future__ import annotations

import math

from .errors import Record, VerificationError

Vec3 = tuple[int, int, int]
Mat3 = tuple[Vec3, Vec3, Vec3]


def mat_det(m: Mat3) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def mat_vec(m: Mat3, v: Vec3) -> Vec3:
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def mat_adjugate(m: Mat3) -> Mat3:
    """Transposed cofactor matrix; the inverse when det(m) == 1."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _first_nonzero(p: int, q: int, r: int) -> int:
    # The first nonzero entry of a coprime triple; any other triple is refused.
    if math.gcd(p, q, r) != 1:
        raise ValueError(f"({p},{q},{r}) is not coprime")
    return p or q or r


class Curve3(Record):
    """A coprime, sign-canonical integer triple naming a curve in the 3-torus.

    The curve carries the framing given by a collar inside any plane
    through it; that framing is independent of the chosen plane, so
    nothing about it needs to be stored.
    """

    __slots__ = ("p", "q", "r")

    def __init__(self, p: int, q: int, r: int):
        if _first_nonzero(p, q, r) < 0:
            raise ValueError(f"({p},{q},{r}) is not sign-canonical; use Curve3.of")
        super().__init__(p, q, r)

    @classmethod
    def of(cls, p: int, q: int, r: int) -> "Curve3":
        """Build a curve, flipping the overall sign to the canonical one."""
        if _first_nonzero(p, q, r) < 0:
            p, q, r = -p, -q, -r
        curve = cls.__new__(cls)
        Record.__init__(curve, p, q, r)  # checked above, so not again in __init__
        return curve

    @property
    def coords(self) -> Vec3:
        return (self.p, self.q, self.r)

    def parities(self) -> Vec3:
        return (self.p % 2, self.q % 2, self.r % 2)

    def __str__(self) -> str:
        return f"[{self.p},{self.q},{self.r}]"


class StandardEmbedding(Record):
    """A determinant-1 integer matrix with an ordered pair of selected columns.

    Column indices are 1-based, matching how the construction matrices are
    usually written down.
    """

    __slots__ = ("matrix", "columns")

    def __init__(self, matrix, columns: tuple[int, int]):
        m = tuple(map(tuple, matrix))
        if len(m) != 3 or any(len(row) != 3 for row in m):
            raise ValueError("matrix must be 3x3")
        for x in (*m[0], *m[1], *m[2], *columns):
            if type(x) is not int:  # a float, str or bool is refused, never rounded
                raise ValueError(f"matrix entries and columns must be ints, got {x!r}")
        if mat_det(m) != 1:
            raise ValueError(f"matrix determinant is {mat_det(m)}, expected 1")
        if len(columns) != 2 or not {*columns} <= {1, 2, 3} or columns[0] == columns[1]:
            raise ValueError("columns must be two distinct 1-based indices")
        super().__init__(m, tuple(columns))

    def column(self, k: int) -> Vec3:
        return (self.matrix[0][k - 1], self.matrix[1][k - 1], self.matrix[2][k - 1])

    def selected(self) -> tuple[Vec3, Vec3]:
        i, j = self.columns
        return self.column(i), self.column(j)

    def normal(self) -> Vec3:
        """Primitive integer normal of the embedded plane (cross of the columns)."""
        u, v = self.selected()
        return cross(u, v)

    def push(self, a: int, b: int) -> Curve3:
        """Image of the coprime pair (a,b): a*(first column) + b*(second column)."""
        if math.gcd(a, b) != 1:
            raise ValueError(f"({a},{b}) must be coprime")
        u, v = self.selected()
        return Curve3.of(a * u[0] + b * v[0], a * u[1] + b * v[1], a * u[2] + b * v[2])

    def __repr__(self) -> str:
        return f"StandardEmbedding({list(map(list, self.matrix))}, columns={self.columns})"


def extended_gcd(p: int, q: int) -> tuple[int, int, int]:
    """(d, lam, mu) with d = gcd(p,q) > 0 and lam*p + mu*q = d.

    When q != 0 the pair is pinned down by 0 <= lam < |q|/d, so the
    matrices built from it are reproducible.
    """
    if p == 0 and q == 0:
        raise ValueError("gcd of (0,0) is undefined here")
    if q == 0:
        return (abs(p), 1 if p > 0 else -1, 0)
    d = math.gcd(p, q)
    # lam is the inverse of p/d mod |q|/d; pow(x, -1, 1) is 0, right for |q| = d.
    lam = pow(p // d, -1, abs(q) // d)
    return (d, lam, (d - lam * p) // q)


def build_m1(p: int, q: int) -> StandardEmbedding:
    """Embedding with first column (p/d, q/d, 0) completed via a Bezout pair."""
    if p == 0 or q == 0:
        raise ValueError("both coordinates must be nonzero")
    d, lam, mu = extended_gcd(p, q)
    rows = ((p // d, -mu, 0), (q // d, lam, 0), (0, 0, 1))
    return StandardEmbedding(rows, (1, 3))


def build_m2(q: int) -> StandardEmbedding:
    """Embedding whose columns satisfy (p,q,1) = p*col3 + col1."""
    return StandardEmbedding(((0, 0, 1), (q, -1, 0), (1, 0, 0)), (1, 3))


def build_m3() -> StandardEmbedding:
    """Embedding whose columns satisfy (1,q,1) = col1 + q*col2."""
    return StandardEmbedding(((1, 0, 0), (0, 1, 0), (1, 0, 1)), (1, 2))


def trivial_embedding() -> StandardEmbedding:
    """The plane {z = 0}: identity matrix, first two columns."""
    return StandardEmbedding(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 2))


Perm = tuple[int, int, int]
IDENTITY_PERM: Perm = (0, 1, 2)


def apply_perm(sigma: Perm, v: Vec3) -> Vec3:
    """Reorder coordinates: result[i] = v[sigma[i]]."""
    return (v[sigma[0]], v[sigma[1]], v[sigma[2]])


def invert_perm(sigma: Perm) -> Perm:
    inv = [0, 0, 0]
    for i, s in enumerate(sigma):
        inv[s] = i
    return tuple(inv)


class ReductionStep(Record):
    __slots__ = ("embedding", "from_pair", "to_pair", "permutation")

    def __init__(self, embedding: StandardEmbedding, from_pair, to_pair, permutation=IDENTITY_PERM):
        super().__init__(embedding, from_pair, to_pair, permutation)


class Reduction3Certificate(Record):
    __slots__ = ("source", "canonical", "steps")

    def to_json_dict(self) -> dict:
        return {
            "input": list(self.source.coords),
            "canonical": list(self.canonical.coords),
            "steps": [
                {
                    "matrix": [list(row) for row in s.embedding.matrix],
                    "columns": list(s.embedding.columns),
                    "from_pair": list(s.from_pair),
                    "to_pair": list(s.to_pair),
                    "permutation": list(s.permutation),
                }
                for s in self.steps
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Reduction3Certificate":
        steps = tuple(
            ReductionStep(
                StandardEmbedding(s["matrix"], tuple(s["columns"])),
                tuple(s["from_pair"]),
                tuple(s["to_pair"]),
                tuple(s["permutation"]),
            )
            for s in doc["steps"]
        )
        return cls(Curve3(*doc["input"]), Curve3(*doc["canonical"]), steps)


def _parity_pair(a: int, b: int) -> tuple[int, int]:
    return (a % 2, b % 2)


def reduce_curve(c: Curve3) -> tuple[Curve3, Reduction3Certificate]:
    """Rewrite a curve onto its parity-canonical class, with certificate.

    Routing: permute two nonzero coordinates to the front; clear the gcd
    of the first two through the Bezout embedding until the frame's third
    coordinate lies in {0,1}; finish on the trivial plane when it is 0,
    through the (p,q,1) embedding when it is 1, and through the final
    shear for the (1,q,1) endgame.
    """
    steps: list[ReductionStep] = []
    cur = c
    while not all(x in (0, 1) for x in cur.coords):
        nz = [i for i, x in enumerate(cur.coords) if x]
        if len(nz) == 2:
            zi = ({0, 1, 2} - set(nz)).pop()
            sigma: Perm = (nz[0], nz[1], zi)
        else:
            sigma = IDENTITY_PERM
        p, q, r = apply_perm(sigma, cur.coords)
        frame = Curve3.of(p, q, r)
        d = math.gcd(p, q)
        if (d, r) != _parity_pair(d, r):
            emb = build_m1(p, q)
            frm, to = (d, r), _parity_pair(d, r)
        elif r == 0:
            emb = trivial_embedding()
            frm, to = (p, q), _parity_pair(p, q)
        elif p >= 2:
            emb = build_m2(q)
            frm, to = (1, p), (1, p % 2)
        else:  # frame is (1, q, 1)
            emb = build_m3()
            frm, to = (1, q), (1, q % 2)
        assert emb.push(*frm) == frame
        steps.append(ReductionStep(emb, frm, to, sigma))
        nxt = emb.push(*to)
        cur = Curve3.of(*apply_perm(invert_perm(sigma), nxt.coords))
    cert = Reduction3Certificate(c, cur, tuple(steps))
    return cur, cert


def replay_certificate(cert: Reduction3Certificate) -> None:
    """Re-execute every step of a reduction certificate, raising on defects."""
    cur = cert.source
    want = cert.source.parities()
    for k, step in enumerate(cert.steps):
        if sorted(step.permutation) != [0, 1, 2]:
            raise VerificationError(f"step {k}: invalid permutation {step.permutation}")
        if mat_det(step.embedding.matrix) != 1:
            raise VerificationError(f"step {k}: matrix determinant is not 1")
        framed = Curve3.of(*apply_perm(step.permutation, cur.coords))
        pushed = step.embedding.push(*step.from_pair)
        if pushed != framed:
            raise VerificationError(
                f"step {k}: from_pair {step.from_pair} pushes to {pushed}, "
                f"current curve is {framed}"
            )
        if (step.from_pair[0] - step.to_pair[0]) % 2 or (
            step.from_pair[1] - step.to_pair[1]
        ) % 2:
            raise VerificationError(
                f"step {k}: pairs {step.from_pair} and {step.to_pair} differ mod 2"
            )
        nxt = step.embedding.push(*step.to_pair)
        cur = Curve3.of(*apply_perm(invert_perm(step.permutation), nxt.coords))
        if cur.parities() != want:
            raise VerificationError(f"step {k}: parity vector changed to {cur.parities()}")
    if cur != cert.canonical:
        raise VerificationError(f"chain ends at {cur}, certificate says {cert.canonical}")
    if cert.canonical.coords != want:
        raise VerificationError(
            f"canonical {cert.canonical} does not carry the input parities {want}"
        )


def common_curve(e1: StandardEmbedding, e2: StandardEmbedding) -> Curve3:
    """A curve lying on both embedded tori (their planes must differ)."""
    n1, n2 = e1.normal(), e2.normal()
    w = cross(n1, n2)
    if w == (0, 0, 0):
        raise ValueError("the two embedded planes coincide")
    g = math.gcd(*w)
    return Curve3.of(w[0] // g, w[1] // g, w[2] // g)


def find_diffeo(c: Curve3) -> Mat3:
    """A determinant-1 integer matrix M with M*(p,q,r) = (1,0,0).

    The primitive vector is completed to a unimodular basis with two
    Bezout steps and the basis matrix is inverted (adjugate, since the
    determinant is 1).
    """
    p, q, r = c.coords
    if p == 0 and q == 0:
        # c == (0,0,1): rotate coordinates.
        return ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    d, lam, mu = extended_gcd(p, q)
    _, alpha, beta = extended_gcd(d, r)
    basis = (
        (p, -mu, -beta * (p // d)),
        (q, lam, -beta * (q // d)),
        (r, 0, alpha),
    )
    assert mat_det(basis) == 1
    return mat_adjugate(basis)


class Generator(Record):
    """One of the nine generators: the empty link, a curve, or the doubled curve."""

    __slots__ = ("kind", "curve")

    # kind is "empty", "curve" or "alpha".
    def __init__(self, kind: str, curve: Curve3 | None = None):
        super().__init__(kind, curve)

    def __str__(self) -> str:
        if self.kind == "curve":
            return str(self.curve)
        if self.kind == "alpha":
            return "alpha (two parallel copies of any curve)"
        return "empty"


def generators() -> list[Generator]:
    """The nine generators: empty, the seven {0,1}-curves, and alpha.

    alpha stands for two parallel copies of any curve; by the torus
    intersection argument it does not depend on the curve chosen, and it
    stays a symbolic descriptor here.  This is a generating set only: the
    seven curves map to one another under lattice diffeomorphisms, so the
    dimension of the span is one of 0, 1, 2, 7, 8, 9, and nothing in this
    package decides which.
    """
    triples = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    out = [Generator("empty")]
    out.extend(Generator("curve", Curve3(*t)) for t in triples)
    out.append(Generator("alpha"))
    return out


def grade_decompose(curves: list[Curve3]) -> dict[Vec3, list[Curve3]]:
    """Partition curves into the eight homology-mod-2 buckets.

    The (0,0,0) bucket is reserved for the empty link and the doubled
    curve; coprime triples never land there.
    """
    buckets: dict[Vec3, list[Curve3]] = {
        (a, b, c): [] for a in (0, 1) for b in (0, 1) for c in (0, 1)
    }
    for cv in curves:
        buckets[cv.parities()].append(cv)
    return buckets
