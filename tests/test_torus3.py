import json
import math
import random

import pytest

from skeincalc.errors import VerificationError
from skeincalc.torus3 import (
    Curve3,
    Reduction3Certificate,
    ReductionStep,
    StandardEmbedding,
    _step,
    common_curve,
    cross,
    extended_gcd,
    find_diffeo,
    generators,
    grade_decompose,
    mat_adjugate,
    mat_det,
    mat_vec,
    primitive_cross,
    reduce_curve,
    replay_certificate,
)

# The plane {z = 0}: identity matrix, first two columns.
Z0 = StandardEmbedding(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 2))


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


def test_primitive_cross_examples():
    assert primitive_cross((2, 4, 0), (0, 0, 3)) == Curve3(2, -1, 0)
    assert primitive_cross((2, 3, 5), (0, 1, 1)) == Curve3(1, 1, -1)
    assert primitive_cross((1, 0, 0), (0, 1, 0)) == Curve3(0, 0, 1)
    assert primitive_cross((2, 3, 5), (-4, -6, -10)) is None
    assert primitive_cross((0, 0, 0), (1, 0, 0)) is None


def test_reduce_step_worked_example():
    # (2,3,5) x (0,1,1) = (-2,-2,2), so n = (1,1,-1) and M*n = (1,0,0).
    _, cert = reduce_curve(Curve3.of(2, 3, 5))
    (step,) = cert.steps
    assert step == ReductionStep((-1, 1, 0), (0, 1, 1), (-2, 5), (0, 1))
    # u and v are rows 2 and 3 of M, and M*n = (1,0,0).
    m = find_diffeo(Curve3(1, 1, -1))
    assert m[1:] == (step.u, step.v) and mat_vec(m, (1, 1, -1)) == (1, 0, 0)


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


def test_non_int_entries_are_value_errors():
    # Never the TypeError that math.gcd, len or unpacking would raise.
    eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for build, args in (
        (Curve3, (2.0, 3, 5)),
        (Curve3.of, (2.0, 3, 5)),
        (Curve3, (1, "0", 0)),
        (StandardEmbedding, (5, (1, 2))),
        (StandardEmbedding, (eye, 5)),
        (StandardEmbedding, (eye, None)),
    ):
        with pytest.raises(ValueError):
            build(*args)


def test_certificate_with_a_fractional_matrix_entry_is_refused():
    # The step's matrix is its two columns u and v.
    _, cert = reduce_curve(Curve3.of(2, 3, 5))
    for key in ("u", "v"):
        for i in range(3):
            doc = json.loads(json.dumps(cert.to_json_dict()))
            doc["steps"][0][key][i] += 0.5
            with pytest.raises(ValueError, match=f"{key} must be 3 ints, got"):
                Reduction3Certificate.from_json_dict(doc)


@pytest.mark.parametrize("pair", [[-2, 5, 0], [-2.0, 5], ["-2", 5], [True, 5]])
def test_certificate_pairs_must_be_two_ints(pair):
    _, cert = reduce_curve(Curve3.of(2, 3, 5))
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert doc["steps"][0]["from_pair"] == [-2, 5]
    doc["steps"][0]["from_pair"] = pair
    with pytest.raises(ValueError, match="from_pair must be 2 ints"):
        Reduction3Certificate.from_json_dict(doc)


def test_certificate_triples_must_be_three_ints():
    _, cert = reduce_curve(Curve3.of(2, 3, 5))
    for triple in ([2, 3, 5, 0], [2, 3.0, 5], [2, "3", 5], [2, 3, True]):
        doc = json.loads(json.dumps(cert.to_json_dict()))
        doc["input"] = triple
        with pytest.raises(ValueError, match="input must be 3 ints"):
            Reduction3Certificate.from_json_dict(doc)


def test_push_examples():
    assert Z0.push(3, 2) == Curve3.of(3, 2, 0)
    e = StandardEmbedding(((0, 0, 1), (5, -1, 0), (1, 0, 0)), (1, 3))
    assert e.push(1, 4) == Curve3.of(4, 5, 1)
    e = StandardEmbedding(((2, 1, 0), (3, 2, 0), (0, 0, 1)), (1, 3))
    assert e.push(1, 0) == Curve3.of(*e.column(1)) == Curve3(2, 3, 0)


def test_push_rejects_non_coprime():
    with pytest.raises(ValueError):
        Z0.push(2, 4)


def test_push_output_is_primitive():
    rng = random.Random(19)
    for _ in range(100):
        q = rng.randint(-8, 8)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if math.gcd(a, b) != 1:
            continue
        w = StandardEmbedding(((0, 0, 1), (q, -1, 0), (1, 0, 0)), (1, 3)).push(a, b)
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
    c = Curve3.of(3, 4, 1)
    canonical, cert = reduce_curve(c)
    assert canonical == Curve3(1, 0, 1)
    (step,) = cert.steps
    # The step's plane holds both the curve and its parity vector.
    n = cross(step.u, step.v)
    assert _dot(n, c.coords) == 0 and _dot(n, canonical.coords) == 0
    assert math.gcd(*n) == 1
    replay_certificate(cert)


def test_reduce_parity_sweep():
    # The box is reduction_sweep's, in the acceptance suite; these are far curves.
    rng = random.Random(23)
    drawn = 0
    while drawn < 300:
        t = [rng.randint(-10**12, 10**12) for _ in range(3)]
        # Put some draws near a coordinate plane or an axis.
        for i in rng.sample(range(3), rng.randint(0, 2)):
            t[i] = rng.randint(-1, 1)
        if math.gcd(*t) == 1:
            c = Curve3.of(*t)
            canonical, cert = reduce_curve(c)
            assert canonical.coords == c.parities()
            assert len(cert.steps) == (0 if set(c.coords) <= {0, 1} else 1)
            replay_certificate(cert)
            drawn += 1


def test_replay_rejects_tampering():
    _, cert = reduce_curve(Curve3.of(2, 3, 5))
    bad = Reduction3Certificate(cert.source, Curve3(1, 1, 1), cert.steps)
    with pytest.raises(VerificationError):
        replay_certificate(bad)
    (step,) = cert.steps
    x, y = step.to_pair
    _, other = reduce_curve(Curve3.of(4, -6, 3))
    u, v = step.u, step.v
    for tampered in (
        ReductionStep(u, v, step.from_pair, (x + 1, y)),  # differs mod 2
        ReductionStep(u, v, step.to_pair, step.to_pair),  # pushes to the canonical
        ReductionStep(other.steps[0].u, other.steps[0].v, step.from_pair, step.to_pair),
    ):
        with pytest.raises(VerificationError):
            replay_certificate(Reduction3Certificate(cert.source, cert.canonical, (tampered,)))
    # (1,0,0) and (0,2,0) span a sublattice of index 2 in their plane, so no
    # third column gives determinant 1; every other check of this step passes.
    covering = ReductionStep((1, 0, 0), (0, 2, 0), (1, 2), (1, 0))
    with pytest.raises(VerificationError, match=r"step 0: columns \(1, 0, 0\) and \(0, 2, 0\)"):
        replay_certificate(Reduction3Certificate(Curve3(1, 4, 0), Curve3(1, 0, 0), (covering,)))


def test_replay_refuses_non_coprime_pairs():
    # A pair that is not coprime pushes to no curve: a failed replay, not a
    # ValueError.  Each tampered pair still agrees mod 2 with its partner.
    _, cert = reduce_curve(Curve3.of(2, 3, 5))
    (step,) = cert.steps
    (a, b), to_pair = step.from_pair, step.to_pair
    assert to_pair == (0, 1)
    for tampered in (
        ReductionStep(step.u, step.v, (a + 2, b), to_pair),  # (0, 5)
        ReductionStep(step.u, step.v, (a, b), (0, 3)),
    ):
        with pytest.raises(VerificationError, match="must be coprime"):
            replay_certificate(Reduction3Certificate(cert.source, cert.canonical, (tampered,)))


def test_replay_accepts_chains_of_any_length():
    # A step between any two curves with equal parities, as reduce_curve
    # builds its one step.
    c, d, e = (3, 4, 1), (1, 2, 1), (1, 0, 1)
    chain = (_step(c, d), _step(d, e))
    replay_certificate(Reduction3Certificate(Curve3(*c), Curve3(*e), chain))
    with pytest.raises(VerificationError):
        replay_certificate(Reduction3Certificate(Curve3(*c), Curve3(*e), chain[::-1]))


def test_reduction_sweep_refuses_a_longer_chain(monkeypatch):
    from skeincalc import checks, torus3

    def padded(c):
        canonical, cert = reduce_curve(c)
        if not cert.steps:
            return canonical, cert
        # A step from the canonical curve to itself still replays.
        last = cert.steps[-1]
        idle = ReductionStep(last.u, last.v, last.to_pair, last.to_pair)
        return canonical, Reduction3Certificate(c, canonical, cert.steps + (idle,))

    assert checks.reduction_sweep(2) == (98, None)
    monkeypatch.setattr(torus3, "reduce_curve", padded)
    replay_certificate(padded(Curve3.of(2, 3, 5))[1])
    with pytest.raises(VerificationError, match="in 2 steps"):
        checks.reduction_sweep(2)


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
        assert list(doc["steps"][0]) == ["u", "v", "from_pair", "to_pair"]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_common_curve_worked_case():
    # {z=0} meets {x+2y+3z=0}: direction (-b, a, 0) = (-2, 1, 0)
    e1 = Z0
    e2 = StandardEmbedding(((-2, -3, 1), (1, 0, 0), (0, 1, 0)), (1, 2))
    assert e2.normal() == (1, 2, 3)
    assert common_curve(e1, e2) == Curve3.of(-2, 1, 0) == Curve3(2, -1, 0)


def test_common_curve_coordinate_planes():
    y0 = StandardEmbedding(((1, 0, 0), (0, 0, -1), (0, 1, 0)), (1, 2))
    assert y0.normal() == (0, -1, 0)
    assert common_curve(Z0, y0) == Curve3(1, 0, 0)


def test_common_curve_same_plane_rejected():
    with pytest.raises(ValueError, match="the two embedded planes coincide"):
        common_curve(Z0, Z0)
    # same plane, different basis
    other = StandardEmbedding(((1, 1, 0), (0, 1, 0), (0, 0, 1)), (1, 2))
    with pytest.raises(ValueError):
        common_curve(Z0, other)


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


def test_step_pairs_are_dot_products_with_the_basis():
    # The pairs against the inverse of the embedding whose columns are
    # those of find_diffeo(n), taken as its adjugate, which they replace;
    # its columns 2 and 3 are the step's, and each pair pushes back to its
    # curve.
    rng = random.Random(41)
    done = 0
    while done < 500:
        c = tuple(rng.randint(-30, 30) for _ in range(3))
        if math.gcd(*c) != 1:
            continue
        c = Curve3.of(*c).coords  # as reduce_curve passes it, so c != -e
        e = tuple(x % 2 for x in c)
        if c == e:
            continue
        step = _step(c, e)
        emb = StandardEmbedding(tuple(zip(*find_diffeo(primitive_cross(c, e)))), (2, 3))
        assert emb.selected() == (step.u, step.v)
        inv = mat_adjugate(emb.matrix)
        assert (step.from_pair, step.to_pair) == (mat_vec(inv, c)[1:], mat_vec(inv, e)[1:])
        assert emb.push(*step.from_pair) == Curve3.of(*c)
        assert emb.push(*step.to_pair) == Curve3.of(*e)
        done += 1
