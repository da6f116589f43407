"""The sweeps: exhaustive or seeded checks of the package's claims.

Each sweep checks one claim over a box of labels or a seeded sample and
returns (cases checked, first counterexample or None); a count of 0
means the sweep proved nothing.  The sweeps that build certificates or
constructions (certificate_sweep, reduction_sweep, intersection_sweep,
diffeo_sweep) raise VerificationError on a defect instead, so their
counterexample is always None.  certificate_sweep and reduction_sweep
leave a certificate's claims, its class among them, to its replay, and
check only what replay does not: the length of the chain.  The
oracle-check, closure-check and selftest commands and the acceptance
suite run these sweeps.  The random generators draw from the caller's
random.Random, so every seeded sweep is reproducible.
"""

from __future__ import annotations

import math
import random

from . import abelianize, torus3
from .errors import VerificationError
from .quantum_torus import embed_element
from .torus2 import chebyshev_t, curve, t_to_jw
from .torus3 import Curve3, StandardEmbedding


def oracle_sweep(box: int):
    """Compare the curve product against the quantum-torus product on a box.

    (p, q) and (-p, -q) name the same curve, so the sweep visits each
    canonical label of the box and (0, 0) once, and a pair of curves once.
    Returns (comparisons, first mismatch or None); the count is
    (((2*box+1)^2 + 1)/2)^2 label pairs, 145^2 at box 8.
    """
    rng = range(-box, box + 1)
    labels = [(p, q) for p in rng for q in rng if p > 0 or (p == 0 and q >= 0)]
    images = {lab: embed_element(curve(*lab)) for lab in labels}
    comparisons = 0
    for a in labels:
        xa = curve(*a)
        pa = images[a]
        for b in labels:
            comparisons += 1
            lhs = embed_element(xa * curve(*b))
            if lhs != pa * images[b]:
                return comparisons, (a, b)
    return comparisons, None


def oracle_diff(a, b):
    """The terms on which the two sides of the oracle differ for labels a, b.

    Returns [(key, skein side, quantum-torus side)] in decreasing key
    order, where the skein side is the image of curve(a) * curve(b) and the
    quantum-torus side the product of the images; [] when they agree.
    """
    lhs = embed_element(curve(*a) * curve(*b))
    rhs = embed_element(curve(*a)) * embed_element(curve(*b))
    keys = sorted(lhs.support() | rhs.support(), reverse=True)
    return [(k, lhs.coeff(k), rhs.coeff(k)) for k in keys if lhs.coeff(k) != rhs.coeff(k)]


def associativity_sweep(count: int, box: int, seed: int = 11):
    """Check (a*b)*c == a*(b*c) on seeded label triples.

    Returns (triples checked, first failing triple or None).
    """
    rng = random.Random(seed)
    for i in range(count):
        a, b, c = (
            curve(rng.randint(-box, box), rng.randint(-box, box)) for _ in range(3)
        )
        if (a * b) * c != a * (b * c):
            return i + 1, (a, b, c)
    return max(count, 0), None


def chebyshev_sweep(box: int, max_n: int):
    """Check T_n of each primitive label (p, q) in the box against (np, nq).

    Returns (cases checked, first failing (p, q, n) or None).
    """
    checked = 0
    for p in range(-box, box + 1):
        for q in range(-box, box + 1):
            if math.gcd(p, q) != 1:
                continue
            for n in range(max_n + 1):
                checked += 1
                if chebyshev_t(n, (p, q)) != curve(n * p, n * q):
                    return checked, (p, q, n)
    return checked, None


def jw_basis_sweep(max_n: int):
    """Check the T-to-S basis change for n <= max_n against polynomials.

    Returns (degrees checked, first failing n or None).
    """
    # Independent model: explicit polynomials in a commuting variable.
    t_polys = [{0: 2}, {1: 1}]
    s_polys = [{0: 1}, {1: 1}]
    for _ in range(max_n):
        for fam in (t_polys, s_polys):
            nxt = {e + 1: c for e, c in fam[-1].items()}
            for e, c in fam[-2].items():
                nxt[e] = nxt.get(e, 0) - c
            fam.append({e: c for e, c in nxt.items() if c})
    for n in range(max_n + 1):
        combo: dict[int, int] = {}
        for level, coef in t_to_jw(n).items():
            for e, c in s_polys[level].items():
                combo[e] = combo.get(e, 0) + coef * c
        if {e: c for e, c in combo.items() if c} != t_polys[n]:
            return n + 1, n
    return max(max_n + 1, 0), None


def closure_sweep(*boxes: int):
    """Check the union-find closure on each box against the parity classes.

    Returns (labels partitioned, first problem string or None); a box
    below 2 raises ValueError.
    """
    count = 0
    for box in boxes:
        part = abelianize.closure_check(box)
        count += sum(map(len, part.values()))
        if len(part) != 4:
            return count, f"box {box}: {len(part)} classes, expected 4"
        for rep, members in part.items():
            for m in members:
                if abelianize.reduce_label(*m) != abelianize.reduce_label(*rep):
                    return count, f"box {box}: {m} grouped with {rep}, parities differ"
    return count, None


def certificate_sweep(box: int):
    """Verify every label's certificate of at most two steps; returns ((2*box+1)^2 - 1, None)."""
    count = 0
    for p in range(-box, box + 1):
        for q in range(-box, box + 1):
            if (p, q) == (0, 0):
                continue
            cert = abelianize.certificate(p, q)
            if len(cert.steps) > 2:
                raise VerificationError(f"{(p, q)} certified in {len(cert.steps)} steps")
            abelianize.verify_certificate(cert)
            count += 1
    return count, None


def reduction_sweep(box: int):
    """Reduce and replay every coprime triple in the box; returns (triples, None).

    A certificate has no step exactly when the triple is its own parity
    vector, and one step otherwise.
    """
    count = 0
    for p in range(-box, box + 1):
        for q in range(-box, box + 1):
            for r in range(-box, box + 1):
                if math.gcd(p, q, r) != 1:
                    continue
                count += 1
                c = Curve3.of(p, q, r)
                _, cert = torus3.reduce_curve(c)
                if len(cert.steps) != (0 if cert.canonical == c else 1):
                    raise VerificationError(f"{c} reduced in {len(cert.steps)} steps")
                torus3.replay_certificate(cert)
    return count, None


def generators_sweep():
    """Check the generator list: nine elements whose curves lie in the seven
    nonzero classes of H_1(T^3; Z/2), one class each.

    Returns (generators checked, the curves' sorted parity classes or None).
    """
    gens = torus3.generators()
    classes = sorted(g.curve.parities() for g in gens if g.kind == "curve")
    if len(gens) == 9 and len({*classes}) == 7 and (0, 0, 0) not in classes:
        return len(gens), None
    return len(gens), classes


def _random_unimodular(rng: random.Random) -> list[list[int]]:
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(8):
        i, j = rng.sample(range(3), 2)
        k = rng.randint(-3, 3)
        for col in range(3):
            m[i][col] += k * m[j][col]
    return m


def random_embedding(rng: random.Random) -> StandardEmbedding:
    cols = rng.sample((1, 2, 3), 2)
    return StandardEmbedding(_random_unimodular(rng), tuple(cols))


def intersection_sweep(count: int, seed: int = 23):
    """Check common_curve on seeded pairs of distinct tori; returns (count, None)."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        e1, e2 = random_embedding(rng), random_embedding(rng)
        if torus3.cross(e1.normal(), e2.normal()) == (0, 0, 0):
            continue
        w = torus3.common_curve(e1, e2)
        if torus3.dot(w.coords, e1.normal()) or torus3.dot(w.coords, e2.normal()):
            raise VerificationError(f"{w} not orthogonal to both normals")
        if math.gcd(*w.coords) != 1:
            raise VerificationError(f"{w} is not primitive")
        done += 1
    return done, None


def random_coprime_triple(rng: random.Random, bound: int = 20) -> Curve3:
    while True:
        p, q, r = (rng.randint(-bound, bound) for _ in range(3))
        if math.gcd(p, q, r) == 1:
            return Curve3.of(p, q, r)


def diffeo_sweep(count: int, seed: int = 31):
    """Check find_diffeo on the seven {0,1}-curves and count seeded curves.

    Returns (count + 7, None).
    """
    rng = random.Random(seed)
    curves = [g.curve for g in torus3.generators() if g.kind == "curve"]
    curves += [random_coprime_triple(rng) for _ in range(count)]
    for c in curves:
        m = torus3.find_diffeo(c)
        if torus3.mat_det(m) != 1:
            raise VerificationError(f"matrix for {c} has determinant {torus3.mat_det(m)}")
        if torus3.mat_vec(m, c.coords) != (1, 0, 0):
            raise VerificationError(f"matrix for {c} does not send it to (1,0,0)")
    return len(curves), None
