"""Curve calculus on the 3-torus.

A (p,q,r)-curve is a coprime integer triple, sign-normalised so its first
nonzero coordinate is positive (a curve and its reverse coincide).  A
standard torus inside the 3-torus is spanned by two integer columns u
and v that some third column completes to a determinant-1 matrix; that
third column exists exactly when the entries of u x v have gcd 1, since
det(u, v, w) = (u x v) . w; StandardEmbedding records such a matrix
and the indices of u and v.  A coprime pair (a,b) pushes to a*u + b*v.

reduce_curve() rewrites any curve c onto its parity vector e, the curve
of {0,1}-coordinates congruent to c mod 2, with a replayable certificate
of at most one step, _step(c, e) when c != e.  Let n be the primitive
cross product of c and e and M = find_diffeo(n) = adj(B), B the
unimodular basis whose first column is n.  Rows 2 and 3 of M, the
step's columns u and v, are a basis of the saturated plane L = n^perp
in Z^3.  Its pairs are the coordinates of c and e in that basis, their
dot products with columns 2 and 3 of B.  Both c and e lie in L, and
c - e lies in 2Z^3 and in L, so in 2L because L is saturated: the pairs
agree mod 2.  Both are coprime because c and e are primitive.
"""

from __future__ import annotations

import math

from .errors import Record, VerificationError, int_tuple, json_fields

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


def dot(u: Vec3, v: Vec3) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def primitive_cross(u: Vec3, v: Vec3) -> Curve3 | None:
    """The cross product of u and v over its gcd, as a curve; None if u, v are parallel.

    It is the primitive normal of the plane u and v span, and the
    direction along which two planes with normals u and v meet.
    """
    w = cross(u, v)
    g = math.gcd(*w)
    return Curve3.of(w[0] // g, w[1] // g, w[2] // g) if g else None


def _first_nonzero(p: int, q: int, r: int) -> int:
    # The first nonzero entry of a coprime triple; any other triple is refused.
    try:
        g = math.gcd(p, q, r)
    except TypeError:  # a float or str entry
        raise ValueError(f"({p},{q},{r}) must be three ints") from None
    if g != 1:
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
        if type(matrix) not in (list, tuple) or len(matrix) != 3 or any(
            type(row) not in (list, tuple) or len(row) != 3 for row in matrix
        ):
            raise ValueError("matrix must be 3x3")
        if type(columns) not in (list, tuple):
            raise ValueError("columns must be two distinct 1-based indices")
        m = tuple(map(tuple, matrix))
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
        return _push(*self.selected(), a, b)

    def __repr__(self) -> str:
        return f"StandardEmbedding({list(map(list, self.matrix))}, columns={self.columns})"


def _push(u: Vec3, v: Vec3, a: int, b: int) -> Curve3:
    # The curve a*u + b*v of the torus spanned by u and v.
    if math.gcd(a, b) != 1:
        raise ValueError(f"({a},{b}) must be coprime")
    return Curve3.of(a * u[0] + b * v[0], a * u[1] + b * v[1], a * u[2] + b * v[2])


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


class ReductionStep(Record):
    """One rewrite from_pair -> to_pair inside the torus spanned by the columns u and v."""

    __slots__ = ("u", "v", "from_pair", "to_pair")


class Reduction3Certificate(Record):
    __slots__ = ("source", "canonical", "steps")

    def to_json_dict(self) -> dict:
        return {
            "input": list(self.source.coords),
            "canonical": list(self.canonical.coords),
            "steps": [{key: list(getattr(s, key)) for key in s.__slots__} for s in self.steps],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Reduction3Certificate":
        kinds = {"input": object, "canonical": object, "steps": list}
        source, canonical, steps = json_fields(doc, "certificate", kinds)
        keys = ReductionStep.__slots__  # a step's JSON keys are its fields
        step_kinds = dict.fromkeys(keys, object)
        steps = tuple(
            ReductionStep(*map(int_tuple, json_fields(s, "step", step_kinds), (3, 3, 2, 2), keys))
            for s in steps
        )
        return cls(
            Curve3(*int_tuple(source, 3, "input")),
            Curve3(*int_tuple(canonical, 3, "canonical")),
            steps,
        )


def _step(c: Vec3, d: Vec3) -> ReductionStep:
    # Rewrite c onto d, with equal parities, in the torus through both (module docstring).
    basis = _basis(primitive_cross(c, d))
    _, u, v = mat_adjugate(basis)
    _, b2, b3 = zip(*basis)
    return ReductionStep(u, v, (dot(b2, c), dot(b3, c)), (dot(b2, d), dot(b3, d)))


def reduce_curve(c: Curve3) -> tuple[Curve3, Reduction3Certificate]:
    """Rewrite a curve onto its parity vector in at most one step, with certificate.

    The step rewrites inside the torus through the curve and its parity
    vector (see the module docstring for why its pairs agree mod 2).
    """
    e = c.parities()
    steps = () if c.coords == e else (_step(c.coords, e),)
    canonical = Curve3(*e)
    return canonical, Reduction3Certificate(c, canonical, steps)


def replay_certificate(cert: Reduction3Certificate) -> None:
    """Re-execute every step of a reduction certificate; raise VerificationError on any defect.

    A step's columns u and v must span a standard torus (the entries of
    u x v have gcd 1).  Its pairs must agree mod 2, so the curves they
    push to do too, and be coprime; from_pair must push to the current
    curve and to_pair gives the next.  The chain must end on the canonical
    curve, the input's parity vector.  ValueError comes only from building
    records: Curve3 refuses a triple that is not coprime or not
    sign-canonical.  Curves compare up to sign, so a pair's sign is no
    part of the claim, and a byte comparison must not tell two such
    documents apart.
    """
    cur = cert.source
    for k, step in enumerate(cert.steps):
        u, v, (a, b), (x, y) = step.u, step.v, step.from_pair, step.to_pair
        if math.gcd(*cross(u, v)) != 1:
            raise VerificationError(f"step {k}: columns {u} and {v} span no standard torus")
        if (a - x) % 2 or (b - y) % 2:
            raise VerificationError(f"step {k}: pairs {(a, b)} and {(x, y)} differ mod 2")
        try:
            pushed, nxt = _push(u, v, a, b), _push(u, v, x, y)
        except ValueError as exc:
            raise VerificationError(f"step {k}: {exc}") from None
        if pushed != cur:
            raise VerificationError(
                f"step {k}: from_pair {(a, b)} pushes to {pushed}, current curve is {cur}"
            )
        cur = nxt
    if cur != cert.canonical:
        raise VerificationError(f"chain ends at {cur}, certificate says {cert.canonical}")
    if cert.canonical.coords != cert.source.parities():
        raise VerificationError(f"{cert.canonical} is not the parity vector of {cert.source}")


def common_curve(e1: StandardEmbedding, e2: StandardEmbedding) -> Curve3:
    """A curve lying on both embedded tori (their planes must differ)."""
    w = primitive_cross(e1.normal(), e2.normal())
    if w is None:
        raise ValueError("the two embedded planes coincide")
    return w


def find_diffeo(c: Curve3) -> Mat3:
    """A determinant-1 integer matrix M with M*(p,q,r) = (1,0,0).

    The primitive vector is completed to a unimodular basis B with two
    Bezout steps, and M = adj(B) = B^-1, as det(B) = 1.
    """
    basis = _basis(c)
    assert mat_det(basis) == 1
    return mat_adjugate(basis)


def _basis(c: Curve3) -> Mat3:
    # A unimodular matrix whose first column is c.
    p, q, r = c.coords
    if p == 0 and q == 0:
        return ((0, 1, 0), (0, 0, 1), (1, 0, 0))  # c == (0,0,1): rotate coordinates
    d, lam, mu = extended_gcd(p, q)
    _, alpha, beta = extended_gcd(d, r)
    return ((p, -mu, -beta * (p // d)), (q, lam, -beta * (q // d)), (r, 0, alpha))


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
