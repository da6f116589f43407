import json
import math
import random

import pytest

from skeincalc.errors import VerificationError
from skeincalc.torus3 import (
    Curve3,
    Reduction3Certificate,
    StandardEmbedding,
    build_m1,
    build_m2,
    build_m3,
    common_curve,
    extended_gcd,
    find_diffeo,
    generators,
    grade_decompose,
    mat_det,
    mat_vec,
    reduce_curve,
    replay_certificate,
    trivial_embedding,
)


def test_extended_gcd_examples():
    assert extended_gcd(4, 6) == (2, 2, -1)
    assert extended_gcd(1, 0) == (1, 1, 0)
    assert extended_gcd(0, 5) == (5, 0, 1)


def test_extended_gcd_properties():
    rng = random.Random(17)
    for _ in range(300):
        p, q = rng.randint(-40, 40), rng.randint(-40, 40)
        if (p, q) == (0, 0):
            continue
        d, lam, mu = extended_gcd(p, q)
        assert d == math.gcd(p, q) > 0
        assert lam * p + mu * q == d
        if q != 0:
            assert 0 <= lam < abs(q) // d


def test_build_m1_worked_example():
    e = build_m1(4, 6)
    assert e.matrix == ((2, 1, 0), (3, 2, 0), (0, 0, 1))
    assert e.columns == (1, 3)
    assert mat_det(e.matrix) == 1


def test_build_m1_unit_pair():
    # extended_gcd(1,1) = (1,0,1), so the Bezout column is (-1,0,0)
    e = build_m1(1, 1)
    assert e.matrix == ((1, -1, 0), (1, 0, 0), (0, 0, 1))
    assert mat_det(e.matrix) == 1


def test_build_m1_rejects_zero_coordinates():
    with pytest.raises(ValueError):
        build_m1(0, 3)
    with pytest.raises(ValueError):
        build_m1(3, 0)


def test_build_m1_first_column_primitive():
    rng = random.Random(18)
    for _ in range(100):
        p, q = rng.randint(-20, 20), rng.randint(-20, 20)
        if p == 0 or q == 0:
            continue
        e = build_m1(p, q)
        d = math.gcd(p, q)
        assert e.column(1) == (p // d, q // d, 0)
        assert mat_det(e.matrix) == 1


def test_build_m2():
    assert build_m2(0).matrix == ((0, 0, 1), (0, -1, 0), (1, 0, 0))
    assert build_m2(5).matrix == ((0, 0, 1), (5, -1, 0), (1, 0, 0))
    for q in range(-6, 7):
        e = build_m2(q)
        assert mat_det(e.matrix) == 1
        # (p,q,1) = p*col3 + 1*col1
        for p in range(-4, 5):
            v1, v3 = e.column(1), e.column(3)
            assert tuple(p * a + b for a, b in zip(v3, v1)) == (p, q, 1)


def test_build_m3():
    e = build_m3()
    assert e.matrix == ((1, 0, 0), (0, 1, 0), (1, 0, 1))
    assert mat_det(e.matrix) == 1
    for q in range(-4, 5):
        v1, v2 = e.column(1), e.column(2)
        assert tuple(a + q * b for a, b in zip(v1, v2)) == (1, q, 1)


def test_embedding_rejects_bad_matrices():
    with pytest.raises(ValueError):
        StandardEmbedding(((1, 0, 0), (0, 1, 0), (0, 0, -1)), (1, 2))
    with pytest.raises(ValueError):
        StandardEmbedding(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1))
    # An entry that is not an int is refused, never rounded: int(1.9) would
    # make the first matrix the identity.
    for x in (1.9, 1.0, "1", True):
        with pytest.raises(ValueError, match="must be ints"):
            StandardEmbedding(((x, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 2))
    with pytest.raises(ValueError, match="must be ints"):
        StandardEmbedding(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1.0, 2))


def test_certificate_with_a_fractional_matrix_entry_is_refused():
    _, cert = reduce_curve(Curve3.of(2, 3, 5))
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert doc["steps"][0]["matrix"][0][0] == 2
    doc["steps"][0]["matrix"][0][0] = 2.5
    with pytest.raises(ValueError, match="got 2.5"):
        Reduction3Certificate.from_json_dict(doc)


def test_push_examples():
    assert trivial_embedding().push(3, 2) == Curve3.of(3, 2, 0)
    assert build_m2(5).push(1, 4) == Curve3.of(4, 5, 1)
    e = build_m1(4, 6)
    assert e.push(1, 0) == Curve3.of(*e.column(1))


def test_push_rejects_non_coprime():
    with pytest.raises(ValueError):
        trivial_embedding().push(2, 4)


def test_push_output_is_primitive():
    rng = random.Random(19)
    for _ in range(100):
        q = rng.randint(-8, 8)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if math.gcd(a, b) != 1:
            continue
        w = build_m2(q).push(a, b)
        assert math.gcd(*w.coords) == 1


def test_curve3_canonicalization():
    assert Curve3.of(-2, 3, 5) == Curve3(2, -3, -5)
    assert Curve3.of(0, 0, -1) == Curve3(0, 0, 1)
    with pytest.raises(ValueError):
        Curve3.of(2, 4, 6)
    with pytest.raises(ValueError):
        Curve3.of(0, 0, 0)


def test_reduce_worked_example():
    canonical, cert = reduce_curve(Curve3.of(2, 3, 5))
    assert canonical == Curve3(0, 1, 1)
    replay_certificate(cert)


def test_reduce_unit_vector_is_trivial():
    canonical, cert = reduce_curve(Curve3.of(1, 0, 0))
    assert canonical == Curve3(1, 0, 0)
    assert cert.steps == ()
    replay_certificate(cert)


def test_reduce_routes_through_expected_embeddings():
    canonical, cert = reduce_curve(Curve3.of(3, 4, 1))
    assert canonical == Curve3(1, 0, 1)
    assert [s.embedding for s in cert.steps] == [build_m2(4), build_m3()]
    replay_certificate(cert)


def test_reduce_parity_sweep():
    for p in range(-5, 6):
        for q in range(-5, 6):
            for r in range(-5, 6):
                if math.gcd(p, q, r) != 1:
                    continue
                c = Curve3.of(p, q, r)
                canonical, cert = reduce_curve(c)
                assert canonical.coords == c.parities()
                replay_certificate(cert)


def test_replay_rejects_tampering():
    _, cert = reduce_curve(Curve3.of(2, 3, 5))
    bad = Reduction3Certificate(cert.source, Curve3(1, 1, 1), cert.steps)
    with pytest.raises(VerificationError):
        replay_certificate(bad)


def test_reduction_json_roundtrip():
    _, cert = reduce_curve(Curve3.of(4, -6, 3))
    doc = json.loads(json.dumps(cert.to_json_dict()))
    back = Reduction3Certificate.from_json_dict(doc)
    assert back.source == cert.source
    assert back.canonical == cert.canonical
    assert back.steps == cert.steps
    replay_certificate(back)
    assert list(doc) == ["input", "canonical", "steps"]
    if doc["steps"]:
        assert list(doc["steps"][0]) == [
            "matrix",
            "columns",
            "from_pair",
            "to_pair",
            "permutation",
        ]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_common_curve_worked_case():
    # {z=0} meets {x+2y+3z=0}: direction (-b, a, 0) = (-2, 1, 0)
    e1 = trivial_embedding()
    e2 = StandardEmbedding(((-2, -3, 1), (1, 0, 0), (0, 1, 0)), (1, 2))
    assert e2.normal() == (1, 2, 3)
    assert common_curve(e1, e2) == Curve3.of(-2, 1, 0) == Curve3(2, -1, 0)


def test_common_curve_coordinate_planes():
    z0 = trivial_embedding()
    y0 = StandardEmbedding(((1, 0, 0), (0, 0, -1), (0, 1, 0)), (1, 2))
    assert y0.normal() == (0, -1, 0)
    assert common_curve(z0, y0) == Curve3(1, 0, 0)


def test_common_curve_same_plane_rejected():
    e = trivial_embedding()
    with pytest.raises(ValueError):
        common_curve(e, e)
    # same plane, different basis
    other = StandardEmbedding(((1, 1, 0), (0, 1, 0), (0, 0, 1)), (1, 2))
    with pytest.raises(ValueError):
        common_curve(e, other)


def test_homology_class():
    assert Curve3.of(2, 3, 5).parities() == (0, 1, 1)
    assert Curve3.of(1, 0, 0).parities() == (1, 0, 0)


def test_find_diffeo_identity_case():
    assert find_diffeo(Curve3.of(1, 0, 0)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_find_diffeo_postconditions():
    for coords in [(1, 1, 1), (0, 1, 1), (0, 0, 1), (2, 3, 5), (4, -6, 3)]:
        c = Curve3.of(*coords)
        m = find_diffeo(c)
        assert mat_det(m) == 1
        assert mat_vec(m, c.coords) == (1, 0, 0)


def test_generators_list():
    gens = generators()
    assert len(gens) == 9
    assert gens[0].kind == "empty"
    assert gens[-1].kind == "alpha"
    curves = [g.curve for g in gens if g.kind == "curve"]
    assert Curve3(1, 1, 1) in curves
    assert {c.parities() for c in curves} == {
        (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
    } - {(0, 0, 0)}


def test_grade_decompose_generators():
    curves = [g.curve for g in generators() if g.kind == "curve"]
    buckets = grade_decompose(curves)
    assert len(buckets) == 8
    assert buckets[(0, 0, 0)] == []
    for h, members in buckets.items():
        if h != (0, 0, 0):
            assert len(members) == 1


def test_grade_decompose_empty_input():
    buckets = grade_decompose([])
    assert len(buckets) == 8
    assert all(not members for members in buckets.values())


def test_grade_respects_reduction():
    for p in range(-4, 5):
        for q in range(-4, 5):
            for r in range(-4, 5):
                if math.gcd(p, q, r) != 1:
                    continue
                c = Curve3.of(p, q, r)
                canonical, _ = reduce_curve(c)
                assert c.parities() == canonical.parities()


def test_normals_are_primitive():
    rng = random.Random(21)
    for _ in range(100):
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(8):
            i, j = rng.sample(range(3), 2)
            k = rng.randint(-3, 3)
            for col in range(3):
                m[i][col] += k * m[j][col]
        e = StandardEmbedding(m, tuple(rng.sample((1, 2, 3), 2)))
        n = e.normal()
        assert math.gcd(*n) == 1
        u, v = e.selected()
        assert _dot(n, u) == 0 and _dot(n, v) == 0
