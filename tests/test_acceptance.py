"""Acceptance suite: every criterion at its stated scale, all equalities exact.

Each test prints one pass line (visible with pytest -s or in the -rA
summary); any mismatch fails the assertion with a counterexample.
"""

import time

from skeincalc.checks import (
    associativity_sweep,
    certificate_sweep,
    chebyshev_sweep,
    closure_sweep,
    diffeo_sweep,
    generators_sweep,
    intersection_sweep,
    jw_basis_sweep,
    oracle_sweep,
    reduction_sweep,
)
from skeincalc.torus3 import (
    Curve3,
    StandardEmbedding,
    common_curve,
    generators,
    grade_decompose,
)


def _report(number, name, detail):
    print(f"acceptance {number} ({name}): PASS  [{detail}]")


def test_criterion_1_oracle_equivalence():
    box = 8
    started = time.time()
    comparisons, mismatch = oracle_sweep(box)
    elapsed = time.time() - started
    assert mismatch is None, mismatch
    # 145 labels: (0, 0) and the 144 canonical labels of the box, each pair once.
    assert comparisons == 145 ** 2
    _report(1, "oracle equivalence", f"{comparisons} pairs, 0 mismatches, {elapsed:.1f}s")


def test_criterion_2_associativity():
    assert associativity_sweep(1000, 10, seed=20250809) == (1000, None)
    _report(2, "associativity", "1000 seeded triples, 0 mismatches")


def test_criterion_3_chebyshev_consistency():
    # 80 primitive labels in box 5, each for n = 0..12
    assert chebyshev_sweep(5, 12) == (80 * 13, None)
    # second-kind basis against the commuting-polynomial oracle
    assert jw_basis_sweep(20) == (21, None)
    _report(3, "chebyshev consistency", "1040 cases: coprime pairs in box 5, n<=12; basis n<=20")


def test_criterion_4_abelianization_closure():
    # (2n+1)^2 - 1 labels partitioned in each box n = 2..6
    assert closure_sweep(2, 3, 4, 5, 6) == (440, None)
    _report(4, "abelianization closure", "boxes 2..6, 4 parity classes each")


def test_criterion_5_commutator_certificates():
    # verify_certificate replays every step on integer labels, with no product, and checks the class
    assert certificate_sweep(6) == (168, None)
    _report(5, "commutator certificates", "168 labels, 0 failures")


def test_criterion_6_curve_reduction():
    started = time.time()
    # replay_certificate re-pushes every step's pairs and checks the parity vector
    assert reduction_sweep(9) == (5762, None)
    elapsed = time.time() - started
    _report(6, "curve reduction", f"5762 coprime triples, 0 failures, {elapsed:.1f}s")


def test_criterion_7_generators():
    gens = generators()
    assert len(gens) == 9
    curves = [g.curve for g in gens if g.kind == "curve"]
    assert len(curves) == 7
    classes = {c.parities() for c in curves}
    nonzero = {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)} - {(0, 0, 0)}
    assert classes == nonzero
    kinds = [g.kind for g in gens]
    assert kinds.count("empty") == 1 and kinds.count("alpha") == 1
    buckets = grade_decompose(curves)
    assert len(buckets) == 8
    assert buckets[(0, 0, 0)] == []
    assert all(len(buckets[h]) == 1 for h in nonzero)
    assert generators_sweep() == (9, None)
    _report(7, "generators", "9 elements, 7 curves <-> (Z2)^3 \\ 0, 8 buckets")


def test_criterion_8_diffeomorphism():
    assert diffeo_sweep(500, seed=20250810) == (507, None)
    _report(8, "diffeomorphism", "507 curves (7 canonical + 500 random)")


def test_criterion_9_intersection():
    # worked case first: {z=0} meets {x+2y+3z=0} along (-2,1,0)
    e1 = StandardEmbedding(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 2))
    e2 = StandardEmbedding(((-2, -3, 1), (1, 0, 0), (0, 1, 0)), (1, 2))
    assert e2.normal() == (1, 2, 3)
    assert common_curve(e1, e2) == Curve3.of(-2, 1, 0)

    assert intersection_sweep(500, seed=20250811) == (500, None)
    _report(9, "intersection", "worked case + 500 random distinct pairs")
